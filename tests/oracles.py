"""Test oracles: independent checks the package itself has no use for.

They share no code with the package's join engine: constraints are matched
by a brute-force product over each atom's facts.
"""

import itertools
import operator
import re

from incmeter.errors import InputError
from incmeter.model import NULL, Const, Fact, Instance, Var

OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
       ">": operator.gt, ">=": operator.ge}

_INTEGER_RE = re.compile(r"-?[0-9]+\Z")


def holds(term, bindings, op, other):
    """Strings compare as strings; order on two integers is numeric."""
    left = bindings[term.name] if isinstance(term, Var) else term.value
    right = bindings[other.name] if isinstance(other, Var) else other.value
    if NULL in (left, right):
        return False
    if op not in ("=", "!=") and all(_INTEGER_RE.match(v) for v in (left, right)):
        left, right = int(left), int(right)
    return OPS[op](left, right)


def brute_force(facts, dc):
    """Assignments from the product of per-atom pools, matched term by term.

    NULL joins with nothing, matches no constant and compares with nothing;
    a variable occurring in a single position may still bind it harmlessly.
    """
    pools = [[f for f in facts if f.predicate == a.predicate] for a in dc.atoms]
    for combo in itertools.product(*pools):
        bindings, ok = {}, True
        for atom, fact in zip(dc.atoms, combo):
            for term, value in zip(atom.terms, fact.values):
                if isinstance(term, Const):
                    ok = value != NULL and value == term.value
                elif term.name in bindings:
                    prev = bindings[term.name]
                    ok = NULL not in (prev, value) and prev == value
                else:
                    bindings[term.name] = value
                if not ok:
                    break
            if not ok:
                break
        if ok and all(holds(c.left, bindings, c.op, c.right) for c in dc.comparisons):
            yield combo


def consistent(facts, cs) -> bool:
    """True iff no constraint of cs matches in facts (an Instance or a fact tuple)."""
    if isinstance(facts, Instance):
        facts = facts.facts
    return not any(next(brute_force(facts, dc), None) for dc in cs)


def restrict(inst: Instance, keep) -> Instance:
    """The sub-instance of the tids in keep, built the way an update builds it."""
    return inst.derive((), set(inst.tids) - set(keep))


def components(edges) -> list[list]:
    """The connected components of edges, each a list of its edges in the
    given order, in order of smallest element.

    Union-find over the elements: each edge joins its elements under the
    smallest root, so every root is the smallest element of its component.
    """
    parent = {v: v for e in edges for v in e}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        roots = {root(v) for v in e}
        for r in roots:
            parent[r] = min(roots)
    groups: dict = {}
    for e in edges:
        groups.setdefault(root(next(iter(e))), []).append(e)
    return [groups[r] for r in sorted(groups)]


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
