import random

import pytest

from incmeter import conflicts
from incmeter.approx import lp_fractional_cover, randomized_rounding_hitting_set
from incmeter.conflicts import (antichain, build_hypergraph, hypergraph_from_edges,
                                vertex_degrees)
from incmeter.errors import InputError
from incmeter.exact import min_hitting_set
from incmeter.model import ConstraintSet, load_instance, parse_constraints, parse_schema

from conftest import fd_key_groups, random_bundle
from oracles import components, consistent, restrict


def _only(cs, name):
    """The one constraint of cs called name, as a constraint set."""
    return ConstraintSet(tuple(c for c in cs if c.name == name))


def test_pqr_hypergraph(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    assert hg.vertices == frozenset({1, 2, 3, 4})
    assert [(e.constraint, e.tids) for e in hg.edges] == [
        ("no_pq", frozenset({1, 3})), ("no_pr", frozenset({1, 4}))]
    assert hg.solving_edges == (frozenset({1, 3}), frozenset({1, 4}))
    assert hg.d == 2
    assert not hg.is_consistent
    assert vertex_degrees(hg) == {1: 2, 2: 0, 3: 1, 4: 1}


def test_fd_hypergraph(fd):
    _, cs, inst = fd
    hg = build_hypergraph(inst, cs)
    assert sorted(sorted(s) for s in hg.solving_edges) == [[1, 2], [2, 3]]
    assert {e.constraint for e in hg.edges} == {"f1", "f2"}


def test_degrees_include_isolated_vertices(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    assert vertex_degrees(hg) == {1: 2, 2: 0, 3: 1, 4: 1}


def test_consistent_instance_has_no_edges(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(restrict(inst, {2, 3, 4}), cs)
    assert hg.edges == ()
    assert hg.is_consistent
    assert hg.d == 0


def test_self_join_produces_each_pair_once():
    schema = parse_schema("r(A, B)\n")
    cs = parse_constraints("dc sym : !exists r(x, y), r(y, x), x != y\n", schema)
    inst = load_instance({"r": "A,B\na,b\nb,a\nc,c\n"}, schema)
    hg = build_hypergraph(inst, cs)
    assert [sorted(e.tids) for e in hg.edges] == [[1, 2]]


def test_reflexive_violation_is_a_singleton_edge():
    schema = parse_schema("r(A, B)\n")
    cs = parse_constraints("dc irr : !exists r(x, x)\n", schema)
    inst = load_instance({"r": "A,B\na,a\na,b\n"}, schema)
    hg = build_hypergraph(inst, cs)
    assert [sorted(e.tids) for e in hg.edges] == [[1]]
    assert hg.d == 1


def test_non_minimal_assignment_images_are_dropped():
    # x < z is witnessed by the pair {1, 3} using distinct middle facts, and by
    # assignments whose image is a superset; only the two-element core remains.
    schema = parse_schema("s(A)\n")
    cs = parse_constraints("dc gap : !exists s(x), s(y), s(z), x < z\n", schema)
    inst = load_instance({"s": "A\n1\n2\n3\n"}, schema)
    hg = build_hypergraph(inst, cs)
    assert sorted(sorted(e.tids) for e in hg.edges) == [[1, 2], [1, 3], [2, 3]]
    # every listed image is genuinely minimal: the whole edge violates, each
    # proper subset obtained by dropping one tid does not
    for e in hg.edges:
        assert not consistent(restrict(inst, e.tids), cs)
        for t in e.tids:
            assert consistent(restrict(inst, e.tids - {t}), _only(cs, e.constraint))


def test_cross_constraint_superset_is_pruned_from_solving_edges():
    schema = parse_schema("p(A)\nq(A, B)\n")
    cs = parse_constraints(
        "dc small : !exists p(x)\n"
        "dc big : !exists p(x), q(x, y)\n", schema)
    inst = load_instance({"p": "A\na\n", "q": "A,B\na,b\n"}, schema)
    hg = build_hypergraph(inst, cs)
    assert sorted(sorted(e.tids) for e in hg.edges) == [[1], [1, 2]]
    assert [sorted(s) for s in hg.solving_edges] == [[1]]
    assert hg.d == 1


def test_hypergraph_from_edges_validation():
    hg = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 2, 3}])
    assert [sorted(s) for s in hg.solving_edges] == [[1, 2], [2, 3]]
    assert hg.d == 2
    with pytest.raises(InputError):
        hypergraph_from_edges([1, 2], [{1, 5}])
    with pytest.raises(InputError):
        hypergraph_from_edges([1, 2], [set()])
    fast = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}])
    assert len(fast.solving_edges) == 2


def test_edge_order_is_canonical(pqr):
    _, cs, inst = pqr
    a = build_hypergraph(inst, cs)
    b = build_hypergraph(inst, cs)
    assert a.edges == b.edges
    assert a.dump_lines() == b.dump_lines()


def test_minimality_property_on_random_instances():
    # every labeled edge is a violation of its constraint, and dropping any
    # one tid restores consistency for that constraint; every solving edge is
    # inconsistent against the full set and no solving edge contains another
    rng = random.Random(1105)
    checked = 0
    for _ in range(120):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        for e in hg.edges[:6]:
            sub = _only(cs, e.constraint)
            assert not consistent(restrict(inst, e.tids), sub)
            for t in e.tids:
                assert consistent(restrict(inst, e.tids - {t}), sub)
            checked += 1
        for s in hg.solving_edges:
            assert not consistent(restrict(inst, s), cs)
            assert not any(other < s for other in hg.solving_edges)
    assert checked > 100


def test_antichain_keeps_exactly_the_minimal_sets_by_size():
    # one-size families take the path without subset tests; the order is by
    # size, then that of the deduplicated set, as it always was
    rng = random.Random(19)
    for trial in range(400):
        sizes = [rng.randint(1, 4)] if trial % 4 == 0 else range(1, 5)
        family = [frozenset(rng.sample(range(9), rng.choice(sizes)))
                  for _ in range(rng.randint(0, 30))]
        minimal = {s for s in family if not any(o < s for o in family)}
        assert antichain(family) == [s for s in sorted(set(family), key=len) if s in minimal]


def _check_components(hg):
    """hg's components against the oracle split, with their universes and masks."""
    assert [list(c) for c in hg.components] == components(hg.solving_edges)
    for c in hg.components:
        universe, masks = c.index
        assert universe == sorted({v for e in c for v in e})
        bit = {v: 2 ** i for i, v in enumerate(universe)}
        assert masks == sorted(sum(bit[v] for v in e) for e in c)


def test_components_match_an_independent_split(corpus, monkeypatch):
    for item in corpus:
        _check_components(item.hg)
    constraints, instance, _ = fd_key_groups(random.Random(3), 1200)
    hg = build_hypergraph(instance, constraints)
    assert len(hg.components) > 200
    _check_components(hg)
    # the exact, LP and rounding solvers read one split between them
    splits = []
    split = conflicts.split
    monkeypatch.setattr(conflicts, "split", lambda edges: splits.append(1) or split(edges))
    hg = build_hypergraph(instance, constraints)
    min_hitting_set(hg)
    lp_fractional_cover(hg)
    randomized_rounding_hitting_set(hg)
    assert len(splits) == 1
