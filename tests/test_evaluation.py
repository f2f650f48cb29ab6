"""Differential tests of the join engine against a brute-force product oracle.

The constraints cover what the shared corpus's pool lacks: constants in
atom positions, a variable repeated inside one atom, three-atom joins,
numeric order comparisons, and NULL cells written by attribute repairs.
"""

import itertools
import operator
import random

from incmeter.evaluation import FactIndex, iter_satisfying_assignments
from incmeter.model import (NULL, Const, Fact, Instance, Var, parse_constraints,
                            parse_schema)
from incmeter.nullrep import CellChange

from oracles import apply_changes, consistent

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


OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
       ">": operator.gt, ">=": operator.ge}


def holds(term, bindings, op, other):
    """Strings compare as strings; order on two integers is numeric."""
    left = bindings[term.name] if isinstance(term, Var) else term.value
    right = bindings[other.name] if isinstance(other, Var) else other.value
    if NULL in (left, right):
        return False
    if op not in ("=", "!=") and all(v.lstrip("-").isdigit() for v in (left, right)):
        left, right = int(left), int(right)
    return OPS[op](left, right)


def brute_force(facts, dc):
    """Assignments from the product of per-atom pools, matched term by term."""
    pools = [[f for f in facts if f.predicate == a.predicate] for a in dc.atoms]
    out = []
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
            out.append(combo)
    return out


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


def with_nulls(rng, instance):
    """The instance's facts with a few random cells blanked."""
    cells = [CellChange(f.tid, p) for f in instance.facts
             for p in range(1, len(f.values) + 1)]
    return apply_changes(instance, rng.sample(cells, min(len(cells), rng.randint(1, 4))))


def cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        instance = random_instance(rng)
        yield rng, instance.facts if k % 2 else with_nulls(rng, instance)


def test_engine_matches_brute_force():
    checked = nulls = 0
    for _, facts in cases(31, 300):
        index = FactIndex(facts)
        for dc in CONSTRAINTS:
            got = list(iter_satisfying_assignments(index, dc))
            want = brute_force(facts, dc)
            assert sorted(got) == sorted(want), (dc.name, facts)
            checked += len(want)
        nulls += any(NULL in f.values for f in facts)
        assert consistent(facts, CONSTRAINTS) == (
            not any(brute_force(facts, dc) for dc in CONSTRAINTS))
    assert checked > 1000 and nulls >= 150


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


def test_null_never_joins_or_matches_a_constant():
    facts = (Fact(1, "r", (NULL, NULL)), Fact(2, "r", ("a", "a")),
             Fact(3, "s", (NULL,)), Fact(4, "r", ("c", "a")))
    index = FactIndex(facts)
    by_name = {dc.name: dc for dc in CONSTRAINTS}
    tids = {name: sorted(tuple(f.tid for f in a)
                         for a in iter_satisfying_assignments(index, by_name[name]))
            for name in ("loop", "const_join", "loop_join")}
    # r(NULL, NULL) is no loop, and s(NULL) joins neither r(c, a) nor r(a, a)
    assert tids == {"loop": [(2,)], "const_join": [], "loop_join": []}
