"""Relational model: schemas, facts, denial constraints, parsing, loading.

A database instance is a finite set of facts over a fixed schema, every fact
carrying an integer tuple id (tid); a loaded row is a plain (tid, predicate,
values) tuple until Instance.facts or fact() makes it a Fact.  Integrity is
expressed with denial constraints: negated existential conjunctions of
relational atoms plus built-in comparisons.  Functional dependencies are
accepted as sugar and expanded into the two-atom denial form.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError

# Reserved placeholder written into cells by attribute-level repairs.
# It is not a legal value in input data.
NULL = "NULL"

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")  # ASCII only: \d also matches other scripts


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class Predicate:
    """A relation name with its ordered attribute names."""

    name: str
    attributes: tuple[str, ...]

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise InputError(f"invalid predicate name {self.name!r}")
        if len(self.attributes) == 0:
            raise InputError(f"predicate {self.name} has no attributes")
        seen = set()
        for a in self.attributes:
            if not _IDENT_RE.match(a):
                raise InputError(f"invalid attribute name {a!r} in predicate {self.name}")
            if a in seen:
                raise InputError(f"duplicate attribute {a} in predicate {self.name}")
            seen.add(a)

    @property
    def arity(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of predicates with unique names."""

    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        names = [p.name for p in self.predicates]
        if len(names) != len(set(names)):
            raise InputError("duplicate predicate name in schema")
        object.__setattr__(self, "_by_name", {p.name: p for p in self.predicates})
        object.__setattr__(self, "_arity", {p.name: p.arity for p in self.predicates})

    def predicate(self, name: str) -> Predicate:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # a list given as a name is unknown too
            raise InputError(f"unknown predicate {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def predicate_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predicates)


def parse_schema(text: str) -> Schema:
    """Parse a schema file: one `Name(Attr, ...)` declaration per line.

    Blank lines and `#` comments are ignored.
    """
    decl_re = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<attrs>[^()]*)\)\s*\Z")
    predicates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = decl_re.match(line)
        if not m:
            raise InputError(f"expected predicate declaration like R(A, B), got {line!r}",
                             line=lineno)
        attrs = tuple(a.strip() for a in m.group("attrs").split(","))
        if attrs == ("",):
            raise InputError(f"predicate {m.group('name')} declares no attributes",
                             line=lineno)
        try:
            predicates.append(Predicate(m.group("name"), attrs))
        except InputError as exc:
            raise InputError(str(exc), line=lineno) from None
    return Schema(tuple(predicates))


# ---------------------------------------------------------------------------
# facts and instances


class Fact(NamedTuple):
    """A ground atom with a tuple id; values are opaque strings.  It equals,
    hashes and orders as its plain (tid, predicate, values) tuple."""

    tid: int
    predicate: str
    values: tuple[str, ...]

    def __str__(self):
        return f"{self.predicate}[{self.tid}]({', '.join(self.values)})"


@dataclass(frozen=True)
class Instance:
    """A database instance: facts over a schema, ordered by tid.

    An optional endogenous set marks the tids the application may delete if
    declared, which a nonempty set always is.  With no partition declared
    every fact counts as endogenous; a declared one that deletions empty
    lets none be deleted.  `tids` holds the tids in ascending order.

    The versions that derive makes share one tid map and one FactIndex, the
    index built on first use and read by every join over the instance, and
    a read moves them to the version read (see _reroot).  Reads thus write
    hidden state, which is safe as the package is single-threaded.  A loaded
    row stays a plain tuple in the map, read by position; facts and fact()
    build Facts when read.
    """

    schema: Schema
    facts: tuple[Fact, ...]
    endogenous: frozenset[int] = field(default_factory=frozenset)
    declared: bool = False

    def __post_init__(self):
        try:
            ordered = sorted(self.facts, key=lambda f: f.tid)
        except TypeError:  # e.g. tid None next to 1: the walk rejects the first non-int
            ordered = [f for f in self.facts if not isinstance(f.tid, int)]
        self._walk(ordered, {})
        self._index(dict(zip(map(_TID, ordered), ordered))).__dict__["facts"] = tuple(ordered)

    def _index(self, by_tid) -> "Instance":
        """Set tids and the tid map from by_tid, checked rows in tid order."""
        stray = self.endogenous.difference(by_tid)
        if stray:
            raise InputError(f"endogenous tids not present in instance: {sorted(stray)}")
        self.__dict__.update(tids=tuple(by_tid), _by_tid=by_tid,
                             _fact_index=None, _link=None, _n=len(by_tid),
                             _top=next(reversed(by_tid), 0),
                             declared=self.declared or bool(self.endogenous))
        return self

    def __copy__(self):  # a copy of the version that holds the tid map would share it
        return self

    def __reduce__(self):  # the value alone, not the index or the versions its link reaches
        return Instance, (self.schema, self.facts, self.endogenous, self.declared)

    def __getattr__(self, name):  # facts, and a derived instance's tids, built on first read
        if name == "facts":
            value = tuple(map(Fact._make, self._rows()))
        elif name == "tids":
            value = tuple(sorted(self._live()))
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def _live(self) -> dict:
        """The tid map, moved here with the fact index from the version that holds them."""
        _reroot(self, _shift, "_by_tid", "_fact_index")
        return self._by_tid

    def _rows(self):
        """The rows of this version in tid order, each a Fact or its plain tuple."""
        return map(self._live().__getitem__, self.tids)

    def _live_index(self) -> "FactIndex":
        """The fact index of this version, moved here with the tid map."""
        self._live()
        if self._fact_index is None:
            self.__dict__["_fact_index"] = FactIndex(self._rows())
        return self._fact_index

    def _walk(self, facts, rows, where=None) -> None:
        """Check facts one at a time against rows, a map from each predicate to
        the set of its live value tuples, adding each good row, and raise the
        error of the first bad fact: where(i, error) for facts[i] if where is
        given.  A fact must have a new positive int tid, then a tuple of strs
        for its values, then its predicate's arity, no NULL and a new row."""
        tids = set()
        for i, f in enumerate(facts):
            try:
                if not isinstance(f.tid, int) or f.tid < 1:
                    raise InputError(f"tid must be a positive integer, got {f.tid!r}")
                if f.tid in tids:
                    raise InputError(f"duplicate tid {f.tid}")
                if not isinstance(f.values, tuple):  # a str is not read as its characters
                    kind = type(f.values).__name__
                    raise InputError(
                        f"row {f.predicate} gives the {kind} {f.values!r} for its values")
                if not all(isinstance(v, str) for v in f.values):
                    raise InputError(
                        f"row {f.predicate}{f.values!r} has a value that is not a str")
                n = self.schema.predicate(f.predicate).arity  # raises if unknown
                if len(f.values) != n:
                    raise InputError(
                        f"fact {f} has {len(f.values)} values, {f.predicate} expects {n}")
                if NULL in f.values:
                    raise InputError(f"fact {f} uses the reserved value {NULL}")
                live = rows.setdefault(f.predicate, set())
                if f.values in live:
                    raise InputError(f"duplicate row {f.predicate}{f.values!r}")
            except InputError as exc:
                raise exc if where is None else where(i, exc) from None
            tids.add(f.tid)
            live.add(f.values)

    def check_delta(self, insertions, deletions) -> list[Fact]:
        """The facts that the insertions of a delta become, once it is checked.

        deletions must be tids of this instance.  insertions are
        (predicate, values) rows, values a sequence of strs, not one str; they
        get fresh tids above the current maximum, in order, and are checked with
        the same errors as a fresh Instance, a duplicate judged against the
        rows the deletions leave.  The work follows the delta: a duplicate is
        looked up in the fact index, which derive hands on, so a chain of
        derivations checks no fact twice, and a delta that derive applied
        here is not checked again (see _delta).
        """
        return self._delta(insertions, deletions)[0]

    def _delta(self, insertions, deletions) -> tuple[list[Fact], dict, "Instance | None"]:
        """check_delta's facts, a map from each deleted tid to its fact, and
        the child that derive made with this very delta if this instance still
        links to it, else None.  The link keeps the delta by value: its rows
        as (predicate, values) tuples and its deleted tids as a frozenset.  A
        delta equal to those is read from the link, an O(delta) comparison,
        and the tid map stays where it is.  Any other delta is checked in
        full.  deletions is read once, so any iterable of tids will do."""
        deletions = frozenset(deletions)
        # values that are one str or no sequence are kept for the walk to refuse
        rows = tuple((p, values if isinstance(values, str) or not hasattr(values, "__iter__")
                      else tuple(values)) for p, values in insertions)
        link = self._link
        if link is not None and link[3:] == ((rows, deletions),):  # a turned link has none
            return list(link[2]), {f[0]: f for f in link[1]}, link[0]
        facts = [Fact(tid, *row) for tid, row in enumerate(rows, self._top + 1)]
        index = self._live_index()
        by_tid, arity = self._by_tid, self.schema._arity
        missing = deletions.difference(by_tid)
        if missing:
            raise InputError(f"cannot delete unknown tid(s) {sorted(missing)}")
        gone = {by_tid[t][1:] for t in deletions}
        # the live rows that an inserted row repeats stand in for all of them
        clash: dict = {}
        for f in facts:
            try:
                if (len(f.values) == arity.get(f.predicate) and f[1:] not in gone
                        and index.holds(f.predicate, f.values)):
                    clash.setdefault(f.predicate, set()).add(f.values)
            except TypeError:  # a row the lookup cannot read: the walk refuses it
                pass
        self._walk(facts, clash)
        return facts, {t: by_tid[t] for t in deletions}, None

    def derive(self, insertions, deletions) -> "Instance":
        """This instance with the deletions dropped and the insertions added.

        Only the delta is checked (see check_delta).  The child takes over
        the tid map and fact index and applies the delta to them in place;
        this instance keeps a link to the child with the facts deleted and
        inserted and the delta by value, which check_delta reuses for an
        equal delta.  A declared
        partition stays declared, however many of its tids are deleted.
        """
        return self._derive(*self._delta(insertions, deletions)[:2])

    def _derive(self, facts, gone) -> "Instance":
        """The child of a checked delta: facts inserted, gone's facts deleted."""
        # deriving this delta again moves the tid map back here, to make a sibling
        by_tid, index, top = self._live(), self._fact_index, self._top
        _shift(by_tid, index, gone.values(), facts)
        top = facts[-1][0] if facts else top if top in by_tid else max(by_tid, default=0)
        # _delta checked the inserted rows, so __init__ and its full check are skipped
        child = object.__new__(Instance)
        child.__dict__.update(schema=self.schema, endogenous=self.endogenous.difference(gone),
                              _by_tid=by_tid, _fact_index=index, _link=None, _n=len(by_tid),
                              _top=top, declared=self.declared)
        self.__dict__.update(_by_tid=None, _fact_index=None, _link=(
            child, list(gone.values()), facts, (tuple(f[1:] for f in facts), frozenset(gone))))
        return child

    def __len__(self):
        return self._n

    def fact(self, tid: int) -> Fact:
        try:
            return Fact._make(self._live()[tid])
        except KeyError:
            raise InputError(f"no fact with tid {tid}") from None

    def effective_endogenous(self) -> frozenset[int]:
        # no declared partition means everything may be touched
        return self.endogenous if self.declared else frozenset(self._live())


# facts are read by position: on Python 3.11 a named-tuple field read is slower
_TID = itemgetter(0)


def _key(positions):
    """The key of a row at positions: its one value there, a tuple of several,
    or () for none."""
    return itemgetter(*positions) if positions else lambda _: ()


class FactIndex:
    """Facts by predicate, with hash tables keyed by (predicate, positions).

    It is built from facts in tid order, and each bucket of a table is a
    list in tid order; a predicate's facts are the one bucket of its table
    at no positions.  Tables are built on first use and shared by every
    constraint evaluated against the same FactIndex.  An instance version
    holds one, built on first use and handed on with its tid map, and _shift
    edits it in place for each delta.
    """

    def __init__(self, facts):
        self._indexes: dict[tuple, dict] = {}
        self._keyed: dict[str, list] = {}  # each predicate's (table, key) pairs
        grouped: dict[str, list] = {}
        for f in facts:
            grouped.setdefault(f[1], []).append(f)
        for predicate, group in grouped.items():
            self.table(predicate, ())[()] = group

    def table(self, predicate: str, positions: tuple[int, ...]) -> dict:
        """The predicate's facts by their key at the 0-based positions (_key)."""
        index = self._indexes.get((predicate, positions))
        if index is None:
            index = self._indexes[predicate, positions] = {}
            key = _key(positions)
            self._keyed.setdefault(predicate, []).append((index, key))
            for f in self.table(predicate, ()).get((), ()) if positions else ():
                index.setdefault(key(f[2]), []).append(f)
        return index

    def holds(self, predicate: str, values: tuple) -> bool:
        """Whether a fact of the predicate has these values, one per attribute."""
        positions = tuple(range(len(values)))
        return _key(positions)(values) in self.table(predicate, positions)


def _reroot(version, shift, *names) -> None:
    """Move the live state in the attributes names to version from the one
    that holds it.  Any other version links toward the holder: its _link
    (other, out, into, ...) says that shift(*state, out, into) makes its
    state other's.  Each link on the way is undone by shift(*state, into,
    out) and turned around to those three alone (Baker's rerooting, 1991),
    in time that follows the deltas, so a version kept alive keeps alive
    every version its links reach."""
    if version._link is None:
        return
    path = [version]
    while path[-1]._link is not None:
        path.append(path[-1]._link[0])
    state = path.pop().__dict__
    live = {name: state[name] for name in names}
    for version in reversed(path):
        out, into = version._link[1:3]
        shift(*live.values(), into, out)
        state.update(dict.fromkeys(names), _link=(version, into, out))
        state = version.__dict__
        state.update(live, _link=None)


def _shift(by_tid, index, gone, added) -> None:
    """Take the rows gone out of a tid map and its FactIndex, None if not
    built, then put added in.  A fact is found in each bucket by bisection
    and put in at its place, so the buckets stay in tid order when a delta
    is undone and the facts it deleted come back below the top tid."""
    for f in gone:
        del by_tid[f[0]]
        for table, key in index._keyed[f[1]] if index is not None else ():
            k = key(f[2])
            facts = table[k]
            del facts[bisect_left(facts, f[0], key=_TID)]
            if not facts:
                del table[k]
    for f in added:
        by_tid[f[0]] = f
        if index is not None:
            index.table(f[1], ())  # the table every fact is in, made for a new predicate
            for table, key in index._keyed[f[1]]:
                insort(table.setdefault(key(f[2]), []), f, key=_TID)


def load_instance(csv_sources, schema: Schema, endogenous_tids=None) -> Instance:
    """Build an instance from per-predicate CSV sources.

    csv_sources maps predicate names to CSV content (str, bytes, or a file
    object).  Each CSV carries a header row that must match the predicate's
    attributes exactly.  Predicates without a source are loaded empty.  Tids
    are assigned deterministically: predicates in ascending name order, then
    file row order, counting from 1.  endogenous_tids holds ints or decimal
    strings.
    """
    unknown = set(csv_sources) - set(schema.predicate_names)
    if unknown:
        raise InputError(f"csv source for unknown predicate(s): {sorted(unknown)}")
    # every row is checked here, so __init__ and its second check are skipped
    instance = object.__new__(Instance)
    instance.__dict__.update(schema=schema)
    facts: list[tuple] = []
    for name in sorted(schema.predicate_names):
        if name not in csv_sources:
            continue
        pred = schema.predicate(name)
        raw = csv_sources[name]
        try:
            text = raw if isinstance(raw, (str, bytes)) else raw.read()
            if isinstance(text, bytes):
                text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{name}: csv source is not UTF-8: {exc}") from None
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, None)
            body = list(map(tuple, filter(None, reader)))  # a stray blank line takes no tid
        except csv.Error as exc:  # a bare CR ending a row, or an oversized field
            raise InputError(f"{name}: malformed csv: {exc}", line=reader.line_num) from None
        if header is None:
            raise InputError(f"{name}: empty csv, expected a header row")
        header = tuple(h.strip() for h in header)
        if header != pred.attributes:
            raise InputError(
                f"{name}: header {header!r} does not match attributes {pred.attributes!r}")
        batch = list(zip(count(len(facts) + 1), repeat(name), body))
        # the rows are checked as a whole, and only a bad batch is walked to
        # name its first bad row; batch[i] is on the (i + 2)th nonblank line
        if (len(set(body)) < len(body) or not set(map(len, body)) <= {pred.arity}
                or not {NULL}.isdisjoint(chain.from_iterable(body))):
            instance._walk(list(map(Fact._make, batch)), {}, lambda i, exc: InputError(
                f"{name}: {exc}", line=[k for k, row in enumerate(
                    csv.reader(io.StringIO(text)), 1) if row][i + 1]))
        facts += batch
    instance.__dict__.update(endogenous=frozenset(map(_tid, endogenous_tids or ())))
    return instance._index(dict(zip(count(1), facts)))


def _tid(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INT_RE.match(value):
        try:
            return int(value)
        except ValueError:  # past the interpreter's cap on digits read as an int
            raise InputError(f"tid of {len(value)} digits is too long") from None
    raise InputError(f"not a tid: {value!r}")


# ---------------------------------------------------------------------------
# constraint terms and constraints


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    value: str

    def __str__(self):
        if _INT_RE.match(self.value) or (self.value and self.value[0].isupper()
                                         and _IDENT_RE.match(self.value)):
            return self.value
        return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True)
class Atom:
    predicate: str
    terms: tuple

    def variables(self) -> set[str]:
        return {t.name for t in self.terms if isinstance(t, Var)}

    def __str__(self):
        return f"{self.predicate}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Comparison:
    left: object
    op: str
    right: object

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise InputError(f"unsupported comparison operator {self.op!r}")

    def variables(self) -> set[str]:
        return {t.name for t in (self.left, self.right) if isinstance(t, Var)}

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class DenialConstraint:
    """Forbids any assignment satisfying all atoms and all comparisons."""

    name: str
    atoms: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = ()

    def __post_init__(self):
        if not self.atoms:
            raise InputError(f"constraint {self.name}: at least one atom is required")
        atom_vars = self.variables()
        for c in self.comparisons:
            loose = c.variables() - atom_vars
            if loose:
                raise InputError(
                    f"constraint {self.name}: unsafe variable(s) {sorted(loose)} "
                    "appear only in comparisons")
        terms = [t for a in self.atoms for t in a.terms]
        terms += [t for c in self.comparisons for t in (c.left, c.right)]
        if Const(NULL) in terms:
            raise InputError(f"constraint {self.name}: the value {NULL} is reserved")
        object.__setattr__(self, "_hash", hash((self.name, self.atoms, self.comparisons)))

    def __hash__(self):  # the join's plan caches hash a constraint on every lookup
        return self._hash

    def __reduce__(self):  # rebuilt, so a copy in another process hashes afresh
        return DenialConstraint, (self.name, self.atoms, self.comparisons)

    def variables(self) -> set[str]:
        return set().union(*(a.variables() for a in self.atoms))

    def __str__(self):
        parts = [str(a) for a in self.atoms] + [str(c) for c in self.comparisons]
        return f"dc {self.name} : !exists {', '.join(parts)}"


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[DenialConstraint, ...]

    def __post_init__(self):
        names = [c.name for c in self.constraints]
        if len(names) != len(set(names)):
            raise InputError("duplicate constraint name")

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)


# ---------------------------------------------------------------------------
# constraint parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<arrow>->)
      | (?P<op>!=|<=|>=|=|<|>)
      | (?P<bang>!)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<colon>:)
      | (?P<number>-?[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
    """,
    re.VERBOSE,
)


def _tokenize_line(line: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m:
            raise InputError(f"unexpected character {line[pos]!r}", line=lineno, column=pos + 1)
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append((kind, m.group(), lineno, pos + 1))
        pos = m.end()
    return tokens


class _LineParser:
    """Recursive-descent parser over one tokenized constraint line."""

    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of line", line=self.lineno)
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise InputError(f"expected {kind!r}, got {tok[1]!r}", line=tok[2], column=tok[3])
        return tok

    def at_end(self):
        return self.i >= len(self.tokens)

    def comma_list(self, read) -> list:
        """One or more items, each taken by read(), separated by commas."""
        items = [read()]
        while self.peek() and self.peek()[0] == "comma":
            self.next()
            items.append(read())
        return items

    def parse_predicate(self, schema):
        """A predicate of the schema, with its token for error positions."""
        tok = self.expect("ident")
        if tok[1] not in schema:
            raise InputError(f"unknown predicate {tok[1]!r}", line=tok[2], column=tok[3])
        return schema.predicate(tok[1]), tok

    def parse_term(self):
        tok = self.next()
        kind, text = tok[0], tok[1]
        if kind == "ident" and text[0].islower():
            return Var(text)
        if kind in ("ident", "number"):
            return Const(text)
        if kind == "string":
            body = text[1:-1]
            return Const(body.replace('\\"', '"').replace("\\\\", "\\"))
        raise InputError(f"expected a term, got {text!r}", line=tok[2], column=tok[3])

    def parse_atom(self, schema):
        pred, nametok = self.parse_predicate(schema)
        self.expect("lpar")
        terms = self.comma_list(self.parse_term)
        self.expect("rpar")
        if len(terms) != pred.arity:
            raise InputError(
                f"{pred.name} takes {pred.arity} terms, got {len(terms)}",
                line=nametok[2], column=nametok[3])
        return Atom(pred.name, tuple(terms))

    def parse_comparison(self):
        left = self.parse_term()
        tok = self.next()
        if tok[0] != "op":
            raise InputError(f"expected a comparison operator, got {tok[1]!r}",
                             line=tok[2], column=tok[3])
        right = self.parse_term()
        return Comparison(left, tok[1], right)


def _looks_like_atom(parser: _LineParser) -> bool:
    return [t[0] for t in parser.tokens[parser.i:parser.i + 2]] == ["ident", "lpar"]


def _parse_dc_body(parser: _LineParser, schema: Schema, name: str) -> DenialConstraint:
    parser.expect("bang")
    kw = parser.expect("ident")
    if kw[1] != "exists":
        raise InputError(f"expected 'exists' after '!', got {kw[1]!r}",
                         line=kw[2], column=kw[3])
    atoms = [parser.parse_atom(schema)]
    comparisons = []
    while not parser.at_end():
        parser.expect("comma")
        if _looks_like_atom(parser):
            if comparisons:
                tok = parser.peek()
                raise InputError("atoms must precede comparisons",
                                 line=tok[2], column=tok[3])
            atoms.append(parser.parse_atom(schema))
        else:
            comparisons.append(parser.parse_comparison())
    return DenialConstraint(name, tuple(atoms), tuple(comparisons))


def _parse_fd_body(parser: _LineParser, schema: Schema, name: str) -> DenialConstraint:
    pred, _ = parser.parse_predicate(schema)
    parser.expect("colon")
    det = [tok[1] for tok in parser.comma_list(lambda: parser.expect("ident"))]
    parser.expect("arrow")
    dep = parser.expect("ident")[1]
    if not parser.at_end():
        tok = parser.peek()
        raise InputError(f"unexpected trailing input {tok[1]!r}", line=tok[2], column=tok[3])
    for a in det + [dep]:
        if a not in pred.attributes:
            raise InputError(f"{pred.name} has no attribute {a!r}", line=parser.lineno)
    if len(det) != len(set(det)):
        raise InputError("duplicate attribute in determinant", line=parser.lineno)
    if dep in det:
        raise InputError("dependent attribute also listed in determinant", line=parser.lineno)
    return _expand_fd(name, pred, tuple(det), dep)


def _expand_fd(name: str, pred: Predicate, det: tuple[str, ...], dep: str) -> DenialConstraint:
    """Two-atom denial form: shared determinant vars, distinct dependent vars."""
    det_var = {a: Var(f"x{i}") for i, a in enumerate(det, start=1)}
    terms1, terms2 = [], []
    free = 0
    for a in pred.attributes:
        if a in det_var:
            terms1.append(det_var[a])
            terms2.append(det_var[a])
        elif a == dep:
            terms1.append(Var("y1"))
            terms2.append(Var("y2"))
        else:
            free += 1
            terms1.append(Var(f"z{2 * free - 1}"))
            terms2.append(Var(f"z{2 * free}"))
    atoms = (Atom(pred.name, tuple(terms1)), Atom(pred.name, tuple(terms2)))
    return DenialConstraint(name, atoms, (Comparison(Var("y1"), "!=", Var("y2")),))


_STATEMENTS = {"dc": _parse_dc_body, "fd": _parse_fd_body}


def parse_constraints(text: str, schema: Schema) -> ConstraintSet:
    """Parse a constraint file: one `dc` or `fd` statement per line.

    dc <name> : !exists <atom>(, <atom>)*(, <comparison>)*
    fd <name> : <Pred> : <Attr>(, <Attr>)* -> <Attr>
    """
    constraints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno)
        head = parser.next()
        parse_body = _STATEMENTS.get(head[1])
        if parse_body is None:
            raise InputError(f"expected 'dc' or 'fd', got {head[1]!r}",
                             line=head[2], column=head[3])
        name = parser.expect("ident")[1]
        parser.expect("colon")
        constraints.append(parse_body(parser, schema, name))
    return ConstraintSet(tuple(constraints))
