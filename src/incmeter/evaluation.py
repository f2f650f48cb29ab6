"""Assignment enumeration for denial constraints: one hash-indexed join engine.

Consistency checks, conflict detection and cell-level repairs all enumerate
here, through a join plan compiled once per constraint and seed atom.  Atoms
are joined most-bound-first: next comes the atom with the most positions
fixed by constants and bound variables, declared order breaking ties.  A
comparison `x = "c"` binds x before any atom (`=` is string equality), so
`ord(o, c), cust(c, s), s = "closed"` starts from the closed customers.  Each
atom is looked up in a hash table over its predicate's facts, keyed on the
positions fixed when it is reached; a call fetches each step's table once
and runs plain nested loops.  Each comparison, and each variable repeated
inside one atom, is checked at the first step that binds its variables.

An optional seed, a FactIndex of inserted facts, restricts the atom matched
first to its facts; seeding in turn each atom of a relation it holds a fact
of finds every assignment that touches one of them, the delta rule of
counting/DRed view maintenance.  Two atoms are interchangeable when swapping
them, with a renaming of variables, maps the constraint onto itself, as the
two atoms of an FD do; swapping them in an assignment keeps its image.  So a
full join, which names no first atom, matches interchangeable atoms in
ascending tid order, and a seeded one seeds one atom of each class.

A build reads an FD-shaped constraint (_fd_shape) from its key groups
instead, as Livshits, Kimelfeld and Roy (PODS 2018) do: the pairs of facts
whose dependent values differ in each bucket of the table on the determinant
positions (_key_groups), each group's pairs a complete multipartite graph
over its dependent values.  conflicts.build_hypergraph alone reads them;
images is the join, for an FD too.

Facts and constants never hold the reserved blank placeholder: the model
refuses it in every fact and every constraint, so values join, match and
compare as plain strings.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache

from .errors import InputError
from .model import _INT_RE, _TID, Const, DenialConstraint, FactIndex, Var, _key

_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}
_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compare_values(a: str, op: str, b: str) -> bool:
    """Built-in comparison on opaque string values.

    Equality is string equality.  Order comparisons use numeric order when
    both sides parse as integers, lexicographic order otherwise.
    """
    if op not in _OPS:
        raise InputError(f"unknown operator {op!r}")
    if op not in ("=", "!=") and _INT_RE.match(a) and _INT_RE.match(b):
        try:
            a, b = int(a), int(b)
        except ValueError:  # past the interpreter's cap on digits read as an int
            raise InputError(f"value of {max(len(a), len(b))} digits is too long") from None
    return _OPS[op](a, b)


def _test(op):
    """compare_values(a, op, b) as a function of a and b."""
    return _OPS[op] if op in ("=", "!=") else lambda a, b: compare_values(a, op, b)


@lru_cache(maxsize=256)
def _classes(constraint: DenialConstraint) -> tuple[tuple[int, ...], ...]:
    """The classes of two or more interchangeable atoms, in atom order.

    Comparisons must map onto comparisons, `<` read as `>` with its sides
    swapped.  Swaps generate every permutation of a class, and each keeps
    the images of the satisfying assignments.
    """
    atoms = constraint.atoms
    compared = {t for c in constraint.comparisons
                for t in ((c.left, c.op, c.right), (c.right, _MIRROR[c.op], c.left))}

    def swappable(i, j):
        rename: dict = {}
        for k, atom in enumerate(atoms):
            image = atoms[j if k == i else i if k == j else k]
            if atom.predicate != image.predicate or any(
                    s != t if Const in (type(s), type(t)) else rename.setdefault(s, t) != t
                    for s, t in zip(atom.terms, image.terms)):
                return False
        # rename undoes itself, so it is a bijection
        return {(rename.get(l, l), op, rename.get(r, r)) for l, op, r in compared} == compared

    classes: list[list[int]] = []
    for j in range(len(atoms)):
        cls = next((c for c in classes if swappable(c[0], j)), None)
        if cls:
            cls.append(j)
        else:
            classes.append([j])
    return tuple(tuple(c) for c in classes if len(c) > 1)


@lru_cache(maxsize=256)
def _fd_shape(constraint: DenialConstraint):
    """(determinant positions, dependent position) if the constraint has the
    shape of an FD, however it was written, else None: two atoms of one
    predicate over variables only, each variable either shared by both atoms
    at one position (a determinant) or used once, and one comparison, a `!=`
    between the two variables of one position."""
    atoms, comparisons = constraint.atoms, constraint.comparisons
    if len(atoms) != 2 or len(comparisons) != 1 or atoms[0].predicate != atoms[1].predicate:
        return None
    (c,) = comparisons
    pairs = list(zip(atoms[0].terms, atoms[1].terms))
    uses = Counter(t for pair in pairs for t in pair)
    if c.op != "!=" or not all(isinstance(s, Var) and isinstance(t, Var)
                               and uses[s] == uses[t] == 1 + (s == t) for s, t in pairs):
        return None
    dep = [p for p, (s, t) in enumerate(pairs) if s != t and {s, t} == {c.left, c.right}]
    return (tuple(p for p, (s, t) in enumerate(pairs) if s == t), *dep) if dep else None


@lru_cache(maxsize=256)
def _plan(constraint: DenialConstraint, first: int | None):
    """The compiled join: (steps, initial slot values).

    Variables and constants live in slots of one value list, the constants
    and the values fixed by `=` filled in from the start.  A step is (atom
    index, predicate, key positions, key over the slots, binds, checks,
    after): binds are (slot, position) pairs storing the values of
    variables, checks are (test, slot, slot) triples that must hold, and
    after, with first None, is the atom of the same class matched before,
    whose tid this atom's may not undercut; else atom first is matched first.
    """
    atoms = constraint.atoms
    init: list = []
    slots: dict = {}

    def slot(term):
        if term not in slots:
            slots[term] = len(init)
            init.append(term.value if isinstance(term, Const) else None)
        return slots[term]

    bound: set = set()
    comparisons = []
    for c in constraint.comparisons:
        var, const = (c.left, c.right) if isinstance(c.left, Var) else (c.right, c.left)
        if c.op == "=" and isinstance(const, Const) and isinstance(var, Var) \
                and var not in bound:
            bound.add(var)
            slots[var] = slot(const)
        else:
            comparisons.append(c)
    classes = _classes(constraint) if first is None else ()
    order, steps = [], []
    while len(order) < len(atoms):
        i = first if not order and first is not None else max(
            (i for i in range(len(atoms)) if i not in order),
            key=lambda i: (sum(isinstance(t, Const) or t in bound for t in atoms[i].terms), -i))
        terms = atoms[i].terms
        positions, key, binds, checks = [], [], [], []
        for p, term in enumerate(terms):
            if isinstance(term, Const) or term in bound:
                positions.append(p)
                key.append(slot(term))
            elif term in terms[:p]:  # a repeat inside the atom, tested equal
                binds.append((len(init), p))
                checks.append((operator.eq, len(init), slot(term)))
                init.append(None)
            else:
                binds.append((slot(term), p))
        bound.update(t for t in terms if isinstance(t, Var))
        for c in [c for c in comparisons if all(isinstance(t, Const) or t in bound
                                                for t in (c.left, c.right))]:
            comparisons.remove(c)
            checks.append((_test(c.op), slot(c.left), slot(c.right)))
        cls = next((c for c in classes if i in c), ())
        after = next((j for j in reversed(order) if j in cls), None)
        order.append(i)
        steps.append((i, atoms[i].predicate, tuple(positions), _key(key), tuple(binds),
                      tuple(checks), after))
    return tuple(steps), tuple(init)


def _join(index: FactIndex, constraint, first, seed, emit) -> None:
    """Call emit with each satisfying assignment of _plan(constraint, first),
    a list of facts by atom position that the next match overwrites; seed,
    when given, is the FactIndex that atom first is matched in."""
    steps, init = _plan(constraint, first)
    run = [(i, (seed if k == 0 and seed is not None else index).table(predicate, positions),
            key, binds, checks, after)
           for k, (i, predicate, positions, key, binds, checks, after) in enumerate(steps)]
    last = len(run) - 1
    env = list(init)
    assignment = [None] * len(constraint.atoms)

    def extend(k):
        i, table, key, binds, checks, after = run[k]
        for fact in table.get(key(env), ()):
            if after is not None and fact[0] < assignment[after][0]:
                continue
            values = fact[2]
            for s, p in binds:
                env[s] = values[p]
            for test, a, b in checks:
                if not test(env[a], env[b]):
                    break
            else:
                assignment[i] = fact
                if k == last:
                    emit(assignment)
                else:
                    extend(k + 1)

    extend(0)
    # extend refers to itself; dropping it frees at once what the call holds,
    # emit's output among it, instead of at a later full collection
    del extend


def _key_groups(index: FactIndex, constraint: DenialConstraint):
    """An FD-shaped constraint's (_fd_shape) conflicts by key group, or None
    for any other constraint: for each bucket of the table on the
    determinant positions that holds two or more dependent values, the pairs
    of its facts whose dependent values differ, in canonical order (a bucket
    is in tid order).  A bucket with one dependent value gives nothing."""
    shape = _fd_shape(constraint)
    if shape is None:
        return None
    positions, d = shape
    groups = []
    for bucket in index.table(constraint.atoms[0].predicate, positions).values():
        if len(bucket) > 1:
            pairs = []
            for k, f in enumerate(bucket, 1):
                value = f[2][d]
                pairs += [frozenset((f[0], g[0])) for g in bucket[k:] if g[2][d] != value]
            if pairs:
                groups.append(pairs)
    return groups


def images(index: FactIndex, constraint: DenialConstraint, seed=None) -> set:
    """The images (tid sets) of the constraint's satisfying assignments,
    found by the join, for an FD-shaped constraint too.

    With a seed, the FactIndex of inserted facts that belong to the indexed
    instance, only the images of the assignments that match one of them,
    seeding only the atoms of a relation the seed holds a fact of: one with
    none has an empty () table.  A caller seeding several constraints with
    one delta builds the seed once.
    """
    out: set = set()

    def emit(assignment):
        out.add(frozenset(map(_TID, assignment)))

    if seed is None:
        _join(index, constraint, None, None, emit)
    else:
        skip = {i for cls in _classes(constraint) for i in cls[1:]}
        for first, atom in enumerate(constraint.atoms):
            if first not in skip and seed.table(atom.predicate, ()):
                _join(index, constraint, first, seed, emit)
    return out
