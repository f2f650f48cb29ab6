"""Differential tests of the join engine against a brute-force product oracle
and against the engine as first written, frozen below, and of nullrep's cell
sets against its rule as first written, run over the frozen engine.

The constraints cover what the shared corpus's pool lacks: constants in
atom positions, a variable repeated inside one atom, three-atom joins,
numeric order comparisons, comparisons fixing a variable to a constant and
self-joins whose atoms are interchangeable.  The engine's facts hold no
NULL: the model refuses the reserved value.
"""

import gc
import random
from collections import Counter
from itertools import chain

from incmeter import evaluation, nullrep
from incmeter.conflicts import antichain, build_hypergraph
from incmeter.evaluation import FactIndex, compare_values, images
from incmeter.model import (Atom, Comparison, Const, DenialConstraint, Fact, Instance, Var,
                            parse_constraints, parse_schema)

from conftest import fd_key_groups
from oracles import brute_force, consistent

SCHEMA = parse_schema("r(A, B)\ns(A)\nt(A, B, C)\n")

CONSTRAINTS = parse_constraints(
    'dc const_join : !exists r(x, "a"), s(x)\n'
    'dc const_first : !exists r("b", y), t(y, z, w)\n'
    "dc loop : !exists r(x, x)\n"
    "dc loop_join : !exists r(x, x), s(x)\n"
    "dc path : !exists r(x, y), r(y, z), s(z)\n"
    "dc star : !exists t(x, y, z), r(x, y), s(z)\n"
    "dc order : !exists t(x, y, z), t(x, w, v), y < w\n"
    "dc order_const : !exists t(x, y, z), z >= 10\n"
    "fd key : t : A -> B\n", SCHEMA)

SMALL = ["a", "b", "c"]
NUMBERS = ["-3", "2", "9", "10", "11"]


def random_instance(rng):
    rows = {"r": set(), "s": set(), "t": set()}
    for _ in range(rng.randint(0, 9)):
        rows["r"].add((rng.choice(SMALL), rng.choice(SMALL)))
    for _ in range(rng.randint(0, 3)):
        rows["s"].add((rng.choice(SMALL + NUMBERS[:2]),))
    for _ in range(rng.randint(0, 7)):
        rows["t"].add((rng.choice(SMALL), rng.choice(NUMBERS + SMALL[:1]),
                       rng.choice(NUMBERS)))
    facts = []
    for pred in ("r", "s", "t"):
        for values in sorted(rows[pred]):
            facts.append(Fact(len(facts) + 1, pred, values))
    return Instance(SCHEMA, tuple(facts))


def iter_satisfying_assignments(index, constraint, seed=None):
    """Every assignment (one fact per atom) satisfying the constraint, through
    the engine's unordered plan, as tuples in atom order.

    seed, when given, is a pair (atom index, facts): only assignments matching
    that atom to one of the facts are returned.  The seed facts must belong to
    the indexed instance.
    """
    out: list = []
    first, facts = (None, None) if seed is None else (seed[0], FactIndex(seed[1]))
    evaluation._join(index, constraint, first, False, facts, lambda a: out.append(tuple(a)))
    return iter(out)


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_instance(rng).facts


def test_engine_matches_brute_force():
    checked = 0
    for _, facts in cases(31, 300):
        index = FactIndex(facts)
        for dc in CONSTRAINTS:
            got = list(iter_satisfying_assignments(index, dc))
            want = list(brute_force(facts, dc))
            assert sorted(got) == sorted(want), (dc.name, facts)
            checked += len(want)
        assert consistent(facts, CONSTRAINTS) == (
            not any(next(iter_satisfying_assignments(index, dc), None)
                    for dc in CONSTRAINTS))
    assert checked > 1000


def test_seeded_union_is_the_assignments_touching_the_seed():
    checked = 0
    for rng, facts in cases(47, 200):
        seed = [f for f in facts if rng.random() < 0.3]
        index = FactIndex(facts)
        for dc in CONSTRAINTS:
            union = set()
            for i in range(len(dc.atoms)):
                part = list(iter_satisfying_assignments(index, dc, (i, seed)))
                assert all(a[i] in seed for a in part)
                union.update(part)
            full = iter_satisfying_assignments(index, dc)
            want = {a for a in full if any(f in seed for f in a)}
            assert union == want, (dc.name, facts, seed)
            checked += len(want)
    assert checked > 300



# --- the engine as first written, frozen -------------------------------------


class _ReferenceIndex:
    """Facts by predicate, with hash indexes keyed by (predicate, positions)."""

    def __init__(self, facts):
        self._facts = facts
        self._by_pred = None
        self._indexes = {}

    def lookup(self, predicate, positions, key):
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


def _reference_plan(constraint, first):
    """Join steps, atom `first` first, the rest in declared order."""
    order = [first] + [i for i in range(len(constraint.atoms)) if i != first]
    bound = set()
    steps = []
    for i in order:
        atom = constraint.atoms[i]
        positions, key, repeats = [], [], []
        fresh = {}
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


def _reference_holds(cmp, bindings):
    left = bindings[cmp.left.name] if isinstance(cmp.left, Var) else cmp.left.value
    right = bindings[cmp.right.name] if isinstance(cmp.right, Var) else cmp.right.value
    return compare_values(left, cmp.op, right)


def _reference_assignments(facts, constraint, seed=None):
    """Every satisfying assignment, each comparison checked at the leaf."""
    index = _ReferenceIndex(facts)
    first, seed_index = (0, index) if seed is None else (seed[0], _ReferenceIndex(seed[1]))
    steps = _reference_plan(constraint, first)
    n = len(steps)
    assignment = [None] * len(constraint.atoms)
    bindings = {}

    def extend(k):
        if k == n:
            if all(_reference_holds(c, bindings) for c in constraint.comparisons):
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


def _reference_breaking_positions(dc):
    """Per atom index, the 1-based positions whose blanking kills a match."""
    occurrences = {}
    for atom in dc.atoms:
        for term in atom.terms:
            if not isinstance(term, Const):
                occurrences[term.name] = occurrences.get(term.name, 0) + 1
    compared = set()
    for cmp in dc.comparisons:
        compared |= cmp.variables()
    out = {}
    for i, atom in enumerate(dc.atoms):
        positions = set()
        for j, term in enumerate(atom.terms, start=1):
            if isinstance(term, Const):
                positions.add(j)
            elif occurrences[term.name] >= 2 or term.name in compared:
                positions.add(j)
        out[i] = positions
    return out


def _reference_cell_conflicts(facts, dc):
    """nullrep.cell_conflicts for one constraint as first written: the
    breaking cells of every satisfying assignment of the frozen engine."""
    positions = _reference_breaking_positions(dc)
    edges = set()
    irreparable = False
    for assignment in _reference_assignments(facts, dc):
        cells = set()
        for i, fact in enumerate(assignment):
            for j in positions[i]:
                cells.add((fact.tid, j))
        if not cells:
            irreparable = True
        else:
            edges.add(frozenset(cells))
    minimal = antichain(edges)
    minimal.sort(key=lambda e: tuple(sorted(e)))
    return tuple(minimal), irreparable


# --- random constraints against the frozen engine ----------------------------

SHAPED = parse_constraints(
    "fd key : t : A -> B\n"
    "fd key2 : t : A, B -> C\n"
    "dc asym : !exists t(x, y, z), t(x, w, v), y < w\n"
    "dc sym3 : !exists t(x, a, b), t(x, c, d), t(x, e, f), a != c, c != e, a != e\n"
    "dc sym_r : !exists r(x, y), r(y, x)\n"
    "dc sym_const : !exists t(x, y, z), t(x, w, v), y != w, z = 10, v = 10\n"
    "dc sym_order : !exists t(x, y, z), t(x, w, v), z < v, v > z\n"
    "dc closed : !exists r(o, c), r(c, s), s = \"a\"\n"
    "dc fixed_twice : !exists t(x, y, z), z = 9, \"10\" = z, y <= z\n"
    "dc consts : !exists s(\"a\"), r(\"a\", y), \"b\" != \"c\"\n", SCHEMA)

VARIABLES = ["x", "y", "z", "w"]
OPS = ["=", "!=", "<", "<=", ">", ">="]


def random_constraint(rng, name):
    """1-3 atoms over r, s, t with repeated variables and constants, and up to
    three comparisons, some fixing a variable to a constant."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        predicate = rng.choice("rst")
        arity = {"r": 2, "s": 1, "t": 3}[predicate]
        atoms.append(Atom(predicate, tuple(
            Const(rng.choice(SMALL + NUMBERS)) if rng.random() < 0.15
            else Var(rng.choice(VARIABLES)) for _ in range(arity))))
    if rng.random() < 0.3:
        atoms.append(atoms[-1])  # a self-join of identical atoms
    names = sorted({t.name for a in atoms for t in a.terms if isinstance(t, Var)})

    def term():
        if names and rng.random() < 0.75:
            return Var(rng.choice(names))
        return Const(rng.choice(SMALL + NUMBERS))

    comparisons = [Comparison(term(), rng.choice(OPS), term())
                   for _ in range(rng.randint(0, 3))]
    return DenialConstraint(name, tuple(atoms), tuple(comparisons))


def _check_against_reference(instance, dc, seed):
    """Equal image sets, assignment multisets, seeded results and cell sets."""
    facts = instance.facts
    index = FactIndex(facts)
    want = list(_reference_assignments(facts, dc))
    assert Counter(iter_satisfying_assignments(index, dc)) == Counter(want), dc
    assert images(index, dc) == {frozenset(f.tid for f in a) for a in want}, dc
    seeded = set()
    for i in range(len(dc.atoms)):
        part = list(_reference_assignments(facts, dc, (i, seed)))
        assert Counter(iter_satisfying_assignments(index, dc, (i, seed))) == Counter(part)
        seeded |= {frozenset(f.tid for f in a) for a in part}
    assert images(index, dc, seed) == seeded, (dc, seed)
    assert nullrep.cell_conflicts(instance, (dc,)) == _reference_cell_conflicts(facts, dc), dc
    return len(want)


def test_engine_matches_the_frozen_engine_on_random_constraints():
    rng = random.Random(53)
    checked = 0
    for n in range(600):
        instance = random_instance(rng)
        seed = [f for f in instance.facts if rng.random() < 0.3]
        for dc in (*SHAPED, random_constraint(rng, f"c{n}")):
            checked += _check_against_reference(instance, dc, seed)
    assert checked > 3000


def test_engine_matches_the_frozen_engine_on_the_corpus(corpus):
    rng = random.Random(59)
    for item in corpus:
        seed = [f for f in item.instance.facts if rng.random() < 0.3]
        for dc in item.constraints:
            _check_against_reference(item.instance, dc, seed)


def test_cell_conflicts_across_constraints_on_the_corpus(corpus):
    # one constraint's cell set may hold another's: the null measure solves
    # the antichain of all constraints' cell sets together
    joined = dropped = 0
    for item in corpus:
        if len(item.constraints) < 2:
            continue
        parts = [_reference_cell_conflicts(item.instance.facts, dc) for dc in item.constraints]
        union = set().union(*(edges for edges, _ in parts))
        minimal = sorted(antichain(union), key=lambda e: tuple(sorted(e)))
        want = tuple(minimal), any(irreparable for _, irreparable in parts)
        assert nullrep.cell_conflicts(item.instance, item.constraints) == want
        joined += 1
        dropped += len(minimal) < len(union)
    assert joined > 100 and dropped > 0


def test_plans_fold_fixed_values_and_pair_interchangeable_atoms():
    by_name = {dc.name: dc for dc in SHAPED}
    classes = {name: evaluation._classes(dc) for name, dc in by_name.items()}
    assert classes == {"key": ((0, 1),), "key2": ((0, 1),), "asym": (),
                       "sym3": ((0, 1, 2),), "sym_r": ((0, 1),), "sym_const": ((0, 1),),
                       "sym_order": (), "closed": (), "fixed_twice": (), "consts": ()}
    # cell sets come from the ordered plan: an assignment and its swap must
    # break at the same cells
    for dc in (*SHAPED, *CONSTRAINTS):
        positions = nullrep._breaking_positions(dc)
        for cls in evaluation._classes(dc):
            assert all(positions[i] == positions[cls[0]] for i in cls), dc.name
    # s = "a" fixes s: the plan starts from r(c, "a"), looked up on position 1
    steps, _ = evaluation._plan(by_name["closed"], None, True)
    assert [(i, positions) for i, _, positions, *_ in steps] == [(1, (1,)), (0, (1,))]
    # ordered images match the second atom of an FD pair at or above the first's tid
    steps, _ = evaluation._plan(by_name["key"], None, True)
    assert [step[-1] for step in steps] == [None, 0]
    steps, _ = evaluation._plan(by_name["key"], 1, False)
    assert [step[-1] for step in steps] == [None, None]


def test_a_join_leaves_no_cycle_for_the_collector():
    # a cycle through the recursive loop would keep each call's output alive
    # until a full collection, raising the peak memory of a build
    facts = random_instance(random.Random(61)).facts
    index = FactIndex(facts)
    gc.collect()
    gc.disable()
    try:
        for dc in SHAPED:
            images(index, dc)
            images(index, dc, facts[:3])
            list(iter_satisfying_assignments(index, dc))
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- FD-shaped constraints, read from key buckets ----------------------------

FD_SHAPED = parse_constraints(
    "fd two : t : A, C -> B\n"
    "dc swapped : !exists t(x, y, z), t(x, w, v), w != y\n", SCHEMA)

NEAR_MISSES = parse_constraints(
    'dc constant : !exists t(x, y, "2"), t(x, w, v), y != w\n'
    "dc repeated : !exists t(x, y, x), t(x, w, v), y != w\n"
    "dc order : !exists t(x, y, z), t(x, w, v), y < w\n"
    "dc extra : !exists t(x, y, z), t(x, w, v), y != w, z != v\n"
    "dc third : !exists t(x, y, z), t(x, w, v), t(x, a, b), y != w\n"
    "dc crossed : !exists t(x, y, z), t(y, w, v), z != v\n"
    "dc two_predicates : !exists r(x, y), t(x, w, v), y != w\n", SCHEMA)


def _chain_instance(n):
    """rel(A, B, C) under A -> B and B -> C: n distinct rows over n/4 A values,
    n/10 B values and 3 C values."""
    rng = random.Random(n)
    schema = parse_schema("rel(A, B, C)\n")
    cs = parse_constraints("fd ab : rel : A -> B\nfd bc : rel : B -> C\n", schema)
    rows = set()
    while len(rows) < n:
        rows.add((f"a{rng.randrange(n // 4)}", f"b{rng.randrange(n // 10)}",
                  f"c{rng.randrange(3)}"))
    return cs, Instance(schema, tuple(Fact(i, "rel", r) for i, r in enumerate(sorted(rows), 1)))


def test_fd_shapes_are_read_from_the_constraint():
    shapes = {dc.name: evaluation._fd_shape(dc)
              for dc in (*CONSTRAINTS, *SHAPED, *FD_SHAPED, *NEAR_MISSES)}
    assert {name: shape for name, shape in shapes.items() if shape} == {
        "key": ((0,), 1), "key2": ((0, 1), 2), "two": ((0, 2), 1), "swapped": ((0,), 1)}


def test_key_groups_equal_the_join_and_a_build_joins_no_fd(corpus, monkeypatch):
    joined = []
    join = evaluation._join
    monkeypatch.setattr(evaluation, "_join", lambda *args: joined.append(args[1]) or join(*args))
    # small instances: the key groups, the join and the brute-force oracle agree
    small = [(item.constraints, item.instance) for item in corpus]
    small += [((*CONSTRAINTS, *SHAPED, *FD_SHAPED, *NEAR_MISSES), Instance(SCHEMA, facts))
              for _, facts in cases(71, 150)]
    small += [fd_key_groups(random.Random(n), n)[:2] for n in (8, 20, 40)]
    small.append(_chain_instance(40))
    large = [fd_key_groups(random.Random(n), n)[:2] for n in (400, 2000)]
    large.append(_chain_instance(600))
    fd_pairs = 0
    for constraints, instance in small + large:
        index = instance._live_index()
        for dc in constraints:
            groups = evaluation._key_groups(index, dc)
            assert (groups is None) == (evaluation._fd_shape(dc) is None), dc
            got = images(index, dc)
            if groups is not None:
                pairs = list(chain.from_iterable(groups))
                assert {len(p) for p in pairs} <= {2} and len(set(pairs)) == len(pairs), dc
                assert set(pairs) == got, dc
                fd_pairs += len(pairs)
            if len(instance) <= 40:
                want = {frozenset(f.tid for f in a) for a in brute_force(instance.facts, dc)}
                assert got == want, dc
        # a build joins each other constraint once and no FD-shaped one
        joined.clear()
        build_hypergraph(instance, constraints)
        assert joined == [dc for dc in constraints if evaluation._fd_shape(dc) is None]
    assert fd_pairs > 5000
