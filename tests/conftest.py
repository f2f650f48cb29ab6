"""Shared fixtures: worked-example bundles, a seeded random corpus, oracles."""

import contextlib
import inspect
import itertools
import random
import sys
from collections import Counter

import pytest

from incmeter import exact
from incmeter.conflicts import build_hypergraph
from incmeter.errors import ResourceLimitError
from incmeter.exact import RepairSolution, min_hitting_set
from incmeter.model import Fact, Instance, load_instance, parse_constraints, parse_schema

# --- small hand-checked bundles -------------------------------------------


def pqr_bundle():
    """Two binary join constraints; deleting p(a) (tid 1) fixes everything."""
    schema = parse_schema("p(A)\nq(A, B)\nr(A, C)\n")
    constraints = parse_constraints(
        "dc no_pq : !exists p(x), q(x, y)\n"
        "dc no_pr : !exists p(x), r(x, y)\n", schema)
    instance = load_instance(
        {"p": "A\na\ne\n", "q": "A,B\na,b\n", "r": "A,C\na,c\n"}, schema)
    return schema, constraints, instance


def fd_bundle():
    """One relation under two key dependencies; min repair deletes row 2."""
    schema = parse_schema("rel(A, B, C)\n")
    constraints = parse_constraints(
        "fd f1 : rel : A -> B\nfd f2 : rel : C -> B\n", schema)
    instance = load_instance(
        {"rel": "A,B,C\na,b,d\na,e,c\na,b,c\n"}, schema)
    return schema, constraints, instance


def null_bundle():
    """Join constraint where a single cell blanking beats tuple deletion."""
    schema = parse_schema("s(A)\nr(A, B)\n")
    constraints = parse_constraints("dc no_sr : !exists s(x), r(x, y)\n", schema)
    facts = (Fact(1, "s", ("a2",)), Fact(2, "s", ("a3",)),
             Fact(3, "r", ("a3", "a1")), Fact(4, "r", ("a3", "a4")),
             Fact(5, "r", ("a3", "a5")))
    return schema, constraints, Instance(schema, facts)


@pytest.fixture(scope="session")
def pqr():
    return pqr_bundle()


@pytest.fixture(scope="session")
def fd():
    return fd_bundle()


@pytest.fixture(scope="session")
def nullb():
    return null_bundle()


# --- random corpus ----------------------------------------------------------

RANDOM_SCHEMA = parse_schema("r(A, B)\ns(A)\n")

CONSTRAINT_POOL = (
    "dc join_rs : !exists r(x, y), s(x)",
    "dc sym_r : !exists r(x, y), r(y, x)",
    "fd key_r : r : A -> B",
    "dc path_rs : !exists r(x, y), r(y, z), s(z)",
    "dc two_s : !exists s(x), s(y), x < y",
)


def random_bundle(rng: random.Random, max_rows=12):
    """One random instance with 1-3 constraints from the pool, d <= 3."""
    picked = rng.sample(CONSTRAINT_POOL, rng.randint(1, 3))
    constraints = parse_constraints("\n".join(picked), RANDOM_SCHEMA)
    domain = ["a", "b", "c", "d"]
    n_r = rng.randint(0, max_rows - 3)
    n_s = rng.randint(0, 3)
    rows_r = set()
    for _ in range(n_r):
        rows_r.add((rng.choice(domain), rng.choice(domain)))
    rows_s = set()
    for _ in range(n_s):
        rows_s.add((rng.choice(domain),))
    sources = {}
    if rows_r:
        sources["r"] = "A,B\n" + "".join(f"{a},{b}\n" for a, b in sorted(rows_r))
    if rows_s:
        sources["s"] = "A\n" + "".join(f"{a}\n" for (a,) in sorted(rows_s))
    instance = load_instance(sources, RANDOM_SCHEMA)
    return constraints, instance


def fd_key_groups(rng: random.Random, n):
    """rel(A, B, C) under A -> B: n rows, n/4 keys, 3 B values, and its optimum.

    Under one FD each key group is a component of its own whose conflict
    graph is complete multipartite, so a smallest repair keeps one largest
    B-class of every group (Livshits, Kimelfeld and Roy, PODS 2018).
    """
    schema = parse_schema("rel(A, B, C)\n")
    constraints = parse_constraints("fd key : rel : A -> B\n", schema)
    rows = [(f"k{rng.randrange(n // 4)}", f"b{rng.randrange(3)}", f"c{i}")
            for i in range(n)]
    instance = Instance(schema, tuple(Fact(i + 1, "rel", r) for i, r in enumerate(rows)))
    classes = {}
    for a, b, _ in rows:
        classes.setdefault(a, Counter())[b] += 1
    optimum = sum(sum(c.values()) - max(c.values()) for c in classes.values())
    return constraints, instance, optimum


SCAN_SCHEMA = "rel(A, B, C)\nord(O, C)\ncust(C, S)\n"
SCAN_CONSTRAINTS = ('fd key : rel : A -> B\n'
                    'dc closed : !exists ord(o, c), cust(c, s), s = "closed"\n')


def scan_shaped(rng, n):
    """About n rel, ord and cust rows: key groups under the FD, and orders of
    a few closed customers, as in the benchmark's scan and stream instances."""
    schema = parse_schema(SCAN_SCHEMA)
    cs = parse_constraints(SCAN_CONSTRAINTS, schema)
    cust = [("cust", (f"u{i}", "closed" if rng.random() < 0.1 else "open"))
            for i in range(n // 10)]
    ords = [("ord", (f"o{i}", f"u{rng.randrange(n // 10)}")) for i in range(n // 3)]
    rel = [("rel", (f"k{rng.randrange(n // 8)}", f"b{rng.randrange(3)}", f"c{i}"))
           for i in range(n // 2)]
    rows = cust + ords + rel
    return cs, Instance(schema, tuple(Fact(t, p, v) for t, (p, v) in enumerate(rows, 1)))


# B-class sizes of one key group of 80, 250 and 1000 rows: 2133, 20783 and
# 333212 conflicting pairs, optima 53, 159 and 654; the two largest classes
# of 80 rows tie
SKEWED_CLASSES = {80: (27, 27, 26), 250: (91, 82, 77), 1000: (346, 328, 326)}


def skewed_key_group(n, seed=1):
    """rel(A, B, C) under A -> B: n rows of one key, their B-classes of the
    sizes SKEWED_CLASSES names, in a seeded order, and the optimum, the rows
    outside one largest class."""
    schema = parse_schema("rel(A, B, C)\n")
    constraints = parse_constraints("fd key : rel : A -> B\n", schema)
    sizes = SKEWED_CLASSES[n]
    values = [f"b{k}" for k, size in enumerate(sizes) for _ in range(size)]
    random.Random(seed).shuffle(values)
    instance = Instance(schema, tuple(Fact(i + 1, "rel", ("k", b, f"c{i}"))
                                      for i, b in enumerate(values)))
    return constraints, instance, n - max(sizes)


def count_searches(monkeypatch):
    """A list that gets one entry per component the exact solver solves,
    closed by formula or searched."""
    searches = []
    solve = exact._optimum
    monkeypatch.setattr(exact, "_optimum", lambda *args: searches.append(1) or solve(*args))
    return searches


@contextlib.contextmanager
def shallow_stack(levels=100):
    """Allow only `levels` Python frames above the caller's, so that code
    recursing as deep as its data fails fast with RecursionError."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + levels)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def brute_force_min_hitting_set(hg, max_active=22) -> RepairSolution:
    """Reference solver: try all subsets by ascending size, lexicographic order."""
    active = sorted(set().union(*hg.solving_edges)) if hg.solving_edges else []
    if len(active) > max_active:
        raise ResourceLimitError(
            f"{len(active)} conflicting tids exceed the brute-force limit {max_active}")
    for k in range(len(active) + 1):
        for combo in itertools.combinations(active, k):
            if all(e.intersection(combo) for e in hg.solving_edges):
                return RepairSolution(frozenset(combo), len(hg.vertices) - k, "brute", True)
    raise AssertionError("unreachable: the full active set hits every edge")


class CorpusItem:
    """A random instance with its conflicts and certified optimum."""

    def __init__(self, constraints, instance):
        self.constraints = constraints
        self.instance = instance
        self.hg = build_hypergraph(instance, constraints)
        self.opt = min_hitting_set(self.hg)
        self.brute = brute_force_min_hitting_set(self.hg)


@pytest.fixture(scope="session")
def corpus():
    """500 seeded random instances shared across test modules."""
    rng = random.Random(20240817)
    return [CorpusItem(*random_bundle(rng)) for _ in range(500)]
