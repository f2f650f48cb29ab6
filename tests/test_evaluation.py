"""Differential tests of the join engine against a brute-force product oracle.

The constraints cover what the shared corpus's pool lacks: constants in
atom positions, a variable repeated inside one atom, three-atom joins and
numeric order comparisons.  The engine's facts hold no NULL: the model
refuses the reserved value.
"""

import random

from incmeter.evaluation import FactIndex, iter_satisfying_assignments
from incmeter.model import Fact, Instance, parse_constraints, parse_schema

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

