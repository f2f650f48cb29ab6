"""Test oracles: independent checks the package itself has no use for."""

import re

from incmeter.errors import InputError
from incmeter.evaluation import FactIndex, iter_satisfying_assignments
from incmeter.model import NULL, Fact, Instance


def consistent(facts, cs) -> bool:
    """True iff no constraint of cs matches in facts (an Instance or a fact tuple).

    NULL joins with nothing and compares with nothing; a variable occurring
    in a single position may still bind it harmlessly.
    """
    if isinstance(facts, Instance):
        facts = facts.facts
    index = FactIndex(facts)
    return not any(next(iter_satisfying_assignments(index, dc), False) for dc in cs)


def restrict(inst: Instance, keep) -> Instance:
    """The sub-instance of the tids in keep, built the way an update builds it."""
    return inst.derive((), set(inst.tids) - set(keep))


def apply_changes(facts, changes) -> tuple[Fact, ...]:
    """Facts with NULL written into the changed cells."""
    if isinstance(facts, Instance):
        facts = facts.facts
    blank: dict[int, set[int]] = {}
    for c in changes:
        blank.setdefault(c.tid, set()).add(c.position)
    out = []
    for f in facts:
        positions = blank.pop(f.tid, None)
        if positions:
            for p in positions:
                if not 1 <= p <= len(f.values):
                    raise KeyError(f"tid {f.tid} has no position {p}")
            values = tuple(NULL if i in positions else v
                           for i, v in enumerate(f.values, start=1))
            out.append(Fact(f.tid, f.predicate, values))
        else:
            out.append(f)
    if blank:
        raise KeyError(f"no fact with tid {sorted(blank)[0]}")
    return tuple(out)


_NORM_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%.*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<punct>:-|:~|\#\w+|!=|<=|>=|==|=|<|>|\{|\}|\(|\)|,|\.|\?|;|\||:|-|\+|\*|/)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+)
    """,
    re.VERBOSE,
)

_VARIABLE_RE = re.compile(r"[A-Z_][A-Za-z0-9_]*\Z")


def normalize_tokens(text: str) -> tuple[str, ...]:
    """Lex a program and rename each statement's variables by first use.

    Statements end at '.' or '?'.  The result is whitespace- and
    variable-naming-insensitive, which is what golden comparisons need.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _NORM_TOKEN_RE.match(text, pos)
        if not m:
            raise InputError(f"unexpected character {text[pos]!r} in program text")
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group()))
        pos = m.end()
    out = []
    renames: dict[str, str] = {}
    for kind, tok in tokens:
        if kind == "ident" and _VARIABLE_RE.match(tok):
            if tok not in renames:
                renames[tok] = f"V{len(renames)}"
            out.append(renames[tok])
        else:
            out.append(tok)
        if tok in (".", "?"):
            renames = {}
    return tuple(out)
