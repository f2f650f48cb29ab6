"""Assignment enumeration for denial constraints: one hash-indexed join engine.

Consistency checks, conflict detection and cell-level repairs all enumerate
here.  Each atom is looked up in a hash index over its predicate's facts,
keyed on the positions fixed when it is reached: its constants and the
variables earlier atoms bound.  An optional seed restricts one atom to given
facts and matches it first; seeding each atom in turn with inserted facts
finds every assignment that touches one of them, the delta rule of
counting/DRed view maintenance.

Facts and constants never hold the reserved blank placeholder: the model
refuses it in every fact and every constraint, so values join, match and
compare as plain strings.
"""

from __future__ import annotations

from .errors import InputError
from .model import _INT_RE, Comparison, Const, DenialConstraint, Var


def compare_values(a: str, op: str, b: str) -> bool:
    """Built-in comparison on opaque string values.

    Equality is string equality.  Order comparisons use numeric order when
    both sides parse as integers, lexicographic order otherwise.
    """
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if _INT_RE.match(a) and _INT_RE.match(b):
        x, y = int(a), int(b)
    else:
        x, y = a, b
    if op == "<":
        return x < y
    if op == "<=":
        return x <= y
    if op == ">":
        return x > y
    if op == ">=":
        return x >= y
    raise InputError(f"unknown operator {op!r}")


class FactIndex:
    """Facts by predicate, with hash indexes keyed by (predicate, positions).

    Indexes are built on first use and shared by every constraint evaluated
    against the same FactIndex.  An index never changes once built: derive
    hands the built indexes on to the index of an updated instance and
    rewrites only the buckets a delta touches, as new lists.
    """

    def __init__(self, facts):
        self._facts = facts
        self._by_pred: dict[str, list] | None = None
        self._indexes: dict[tuple, dict] = {}

    def lookup(self, predicate: str, positions: tuple[int, ...], key: tuple):
        """Facts of the predicate holding key at the 0-based positions."""
        index = self._indexes.get((predicate, positions))
        if index is None:
            if self._by_pred is None:
                self._by_pred = {}
                for f in self._facts:
                    self._by_pred.setdefault(f.predicate, []).append(f)
            index = self._indexes[predicate, positions] = {}
            for f in self._by_pred.get(predicate, ()):
                k = tuple([f.values[p] for p in positions])
                index.setdefault(k, []).append(f)
        return index.get(key, ())

    def derive(self, facts, deleted, inserted) -> "FactIndex":
        """The index of facts: these facts without deleted, inserted appended.

        inserted must carry tids above every other fact's, so each bucket
        stays in tid order, as a fresh index over facts would hold it.  Built
        indexes are handed on; in those of a touched predicate, each bucket a
        deleted or inserted fact keys is replaced by a new list, so this index
        and its buckets stay as they are.
        """
        child = FactIndex(facts)
        child._indexes = dict(self._indexes)
        for (predicate, positions), old in self._indexes.items():
            gone = [f for f in deleted if f.predicate == predicate]
            new = [f for f in inserted if f.predicate == predicate]
            if not gone and not new:
                continue
            index = child._indexes[predicate, positions] = dict(old)
            for f in gone:
                k = tuple([f.values[p] for p in positions])
                bucket = [g for g in index[k] if g.tid != f.tid]
                if bucket:
                    index[k] = bucket
                else:
                    del index[k]
            for f in new:
                k = tuple([f.values[p] for p in positions])
                index[k] = [*index.get(k, ()), f]
        return child


def _plan(constraint: DenialConstraint, first: int):
    """Join steps (atom index, predicate, key positions, key terms, fresh
    (variable, position) pairs, repeats), atom `first` first, the rest in order.
    A repeat (p, q) is a later occurrence p of the variable the atom binds at q.
    """
    order = [first] + [i for i in range(len(constraint.atoms)) if i != first]
    bound: set[str] = set()
    steps = []
    for i in order:
        atom = constraint.atoms[i]
        positions, key, repeats = [], [], []
        fresh: dict[str, int] = {}
        for p, term in enumerate(atom.terms):
            if isinstance(term, Const) or term.name in bound:
                positions.append(p)
                key.append(term)
            elif term.name in fresh:
                repeats.append((p, fresh[term.name]))
            else:
                fresh[term.name] = p
        bound.update(fresh)
        steps.append((i, atom.predicate, tuple(positions), key, list(fresh.items()),
                      repeats))
    return steps


def _comparison_holds(cmp: Comparison, bindings) -> bool:
    left = bindings[cmp.left.name] if isinstance(cmp.left, Var) else cmp.left.value
    right = bindings[cmp.right.name] if isinstance(cmp.right, Var) else cmp.right.value
    return compare_values(left, cmp.op, right)


def iter_satisfying_assignments(index: FactIndex, constraint: DenialConstraint,
                                seed=None):
    """Yield every assignment (one fact per atom) satisfying the constraint.

    Assignments are tuples in atom order.  seed, when given, is a pair
    (atom index, facts): only assignments matching that atom to one of the
    facts are yielded.  The seed facts must belong to the indexed instance.
    """
    first, seed_index = (0, index) if seed is None else (seed[0], FactIndex(seed[1]))
    steps = _plan(constraint, first)
    n = len(steps)
    assignment = [None] * len(constraint.atoms)
    bindings: dict[str, str] = {}

    def extend(k):
        if k == n:
            if all(_comparison_holds(c, bindings) for c in constraint.comparisons):
                yield tuple(assignment)
            return
        i, predicate, positions, key, binds, repeats = steps[k]
        source = seed_index if k == 0 else index
        for fact in source.lookup(predicate, positions,
                                  tuple([bindings[t.name] if isinstance(t, Var)
                                         else t.value for t in key])):
            values = fact.values
            if any(values[p] != values[q] for p, q in repeats):
                continue
            for name, p in binds:
                bindings[name] = values[p]
            assignment[i] = fact
            yield from extend(k + 1)

    yield from extend(0)
