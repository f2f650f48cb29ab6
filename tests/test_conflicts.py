import copy
import pickle
import random

import pytest

from incmeter import conflicts, evaluation, nullrep
from incmeter.approx import (local_ratio_hitting_set, lp_fractional_cover,
                             randomized_rounding_hitting_set)
from incmeter.conflicts import (Component, ConflictHypergraph, Hyperedge, antichain,
                                build_hypergraph, hypergraph_from_edges, vertex_degrees)
from incmeter.errors import InputError
from incmeter.exact import min_hitting_set
from incmeter.measures import inc_deg_g3, inc_deg_g3_endogenous
from incmeter.model import (ConstraintSet, Fact, Instance, load_instance, parse_constraints,
                            parse_schema)
from incmeter.nullrep import inc_deg_g3_null

from conftest import fd_key_groups, random_bundle, scan_shaped
from oracles import components, consistent, restrict
from test_cli_golden import BUNDLES


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
    # the exact, LP and rounding solvers read one component list between
    # them: the key groups a single FD's build takes, which no split makes,
    # or one split of the same edges handed in as a plain edge set
    splits = []
    split = conflicts.split
    monkeypatch.setattr(conflicts, "split", lambda edges: splits.append(1) or split(edges))
    for hg, split_once in ((build_hypergraph(instance, constraints), False),
                           (hypergraph_from_edges(instance.tids, hg.solving_edges), True)):
        splits.clear()
        components = hg.components
        min_hitting_set(hg)
        lp_fractional_cover(hg)
        randomized_rounding_hitting_set(hg)
        assert hg.components is components and len(splits) == split_once


# --- labeled edges built on first read ---------------------------------------

def _reference_edges(instance, constraints):
    """The labeled edges as they were built eagerly: each constraint's
    antichain of images, one Hyperedge per set, deduplicated and sorted by
    constraint order, then by sorted tids.  Kept frozen to hold the lazy
    build to it."""
    index = instance._live_index()
    edges = []
    for dc in constraints:
        edges += [Hyperedge(s, dc.name) for s in antichain(evaluation.images(index, dc))]
    return _reference_assemble(edges, [c.name for c in constraints])


def _reference_assemble(edges, constraint_order):
    order = {name: i for i, name in enumerate(constraint_order)}
    return tuple(sorted(set(edges), key=lambda e: (order[e.constraint], tuple(sorted(e.tids)))))


def _reference_split(edges):
    """The depth-first split as first written, kept frozen."""
    incident = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)
    seen = set()
    out = []
    for v in sorted(incident):
        if v in seen:
            continue
        seen.add(v)
        stack, component = [v], set()
        while stack:
            for i in incident[stack.pop()]:
                if i not in component:
                    component.add(i)
                    fresh = edges[i] - seen
                    seen |= fresh
                    stack.extend(fresh)
        out.append([edges[i] for i in sorted(component)])
    return out


def _chain(n):
    """rel(A, B, C) under A -> B and B -> C: n distinct rows drawn from
    Random(1), n >= 20."""
    schema = parse_schema("rel(A, B, C)\n")
    constraints = parse_constraints("fd ab : rel : A -> B\nfd bc : rel : B -> C\n", schema)
    rng, rows = random.Random(1), set()
    while len(rows) < n:
        rows.add((f"a{rng.randrange(n // 4)}", f"b{rng.randrange(n // 10)}",
                  f"c{rng.randrange(3)}"))
    text = "A,B,C\n" + "".join(",".join(r) + "\n" for r in sorted(rows))
    return constraints, load_instance({"rel": text}, schema)


def _common_lhs(n):
    """rel(A, B, C) under A -> B and A -> C: n distinct rows drawn from
    Random(1) over n/4 A values, 3 B values and 2 C values, n >= 4."""
    schema = parse_schema("rel(A, B, C)\n")
    constraints = parse_constraints("fd ab : rel : A -> B\nfd ac : rel : A -> C\n", schema)
    rng, rows = random.Random(1), set()
    while len(rows) < n:
        rows.add((f"a{rng.randrange(n // 4)}", f"b{rng.randrange(3)}", f"c{rng.randrange(2)}"))
    return constraints, Instance(schema, tuple(Fact(t, "rel", r)
                                               for t, r in enumerate(sorted(rows), 1)))


def _bundles():
    """(constraints, instance) of the four golden bundles."""
    for schema, constraints, csvs, *_ in BUNDLES.values():
        schema = parse_schema(schema)
        yield parse_constraints(constraints, schema), load_instance(csvs, schema)


def _assert_lazy_edges_match(hg, want_edges):
    """hg builds want_edges on first read, and its solving edges are their
    antichain in canonical order."""
    assert "edges" not in hg.__dict__
    solving = tuple(sorted(antichain(e.tids for e in want_edges), key=lambda s: sorted(s)))
    assert hg.solving_edges == solving
    assert hg.is_consistent == (not want_edges)
    assert "edges" not in hg.__dict__
    assert hg.edges == want_edges
    assert [list(c) for c in hg.components] == _reference_split(solving)


def test_built_edges_match_the_eager_reference(corpus):
    cases = [(item.constraints, item.instance) for item in corpus]
    cases += list(_bundles())
    cases += [fd_key_groups(random.Random(n), n)[:2] for n in (8, 40, 300, 2000)]
    cases += [_chain(40), _chain(600), _common_lhs(300), scan_shaped(random.Random(4), 600)]
    for constraints, instance in cases:
        want = _reference_edges(instance, constraints)
        _assert_lazy_edges_match(build_hypergraph(instance, constraints), want)
        assert conflicts.assemble(instance.tids, want, [c.name for c in constraints]).edges == want
    # both constraints of the chain conflict, so its edges take the sort by constraint
    constraints, instance = _chain(40)
    assert {e.constraint for e in _reference_edges(instance, constraints)} == {"ab", "bc"}


def test_edges_from_sets_match_the_eager_reference():
    rng = random.Random(21)
    for _ in range(300):
        sets = [frozenset(rng.sample(range(1, 10), rng.randint(1, 4)))
                for _ in range(rng.randint(0, 25))]
        sets += rng.sample(sets, min(len(sets), 5))  # duplicates
        sets += [s | {rng.randint(1, 12)} for s in sets[:3]]  # supersets
        vertices = set(range(1, 13))
        hg = hypergraph_from_edges(vertices, [set(s) for s in sets])
        want = _reference_assemble([Hyperedge(s, "synthetic") for s in sets], ["synthetic"])
        _assert_lazy_edges_match(hg, want)
        minimal = sorted({s for s in sets if not any(o < s for o in sets)}, key=sorted)
        assert list(hg.solving_edges) == minimal


def test_cell_edges_match_the_eager_reference(corpus, monkeypatch):
    given = []
    make = nullrep.hypergraph_from_edges
    monkeypatch.setattr(nullrep, "hypergraph_from_edges",
                        lambda vertices, edges: given.append(set(edges)) or make(vertices, edges))
    cases = [(item.constraints, item.instance) for item in corpus[:200]]
    cases += [fd_key_groups(random.Random(7), 300)[:2], _chain(40)]
    for constraints, instance in cases:
        hg, _ = nullrep._cell_hypergraph(instance, constraints)
        cells = [Hyperedge(c, "synthetic") for c in given.pop()]
        _assert_lazy_edges_match(hg, _reference_assemble(cells, ["synthetic"]))


def test_the_measures_and_solvers_leave_the_labeled_edges_unbuilt(monkeypatch):
    built = []
    make = conflicts._built
    monkeypatch.setattr(conflicts, "_built", lambda *args: built.append(make(*args)) or built[-1])
    constraints, instance, _ = fd_key_groups(random.Random(5), 400)
    partitioned = Instance(instance.schema, instance.facts,
                           frozenset(t for t in instance.tids if t % 3), True)
    for solver in ("exact", "local-ratio", "randomized"):
        inc_deg_g3(instance, constraints, solver=solver)
    inc_deg_g3_endogenous(partitioned, constraints)
    inc_deg_g3_null(instance, constraints)
    hg = build_hypergraph(instance, constraints)
    lp_fractional_cover(hg)
    local_ratio_hitting_set(hg)
    assert len(built) == 6
    assert [hg for hg in built if "edges" in hg.__dict__] == []


def _pickled(hg):
    return pickle.loads(pickle.dumps(hg))


def test_lazy_edges_compare_hash_and_copy_as_eager_ones(corpus):
    cases = [(item.constraints, item.instance) for item in corpus[:100]]
    cases += [fd_key_groups(random.Random(6), 200)[:2], _chain(40)]
    for constraints, instance in cases:
        want = ConflictHypergraph(frozenset(instance.tids),
                                  _reference_edges(instance, constraints))
        other = ConflictHypergraph(want.vertices | {10**6}, want.edges)
        for read in (lambda hg: hg, _pickled, copy.deepcopy):
            got = read(build_hypergraph(instance, constraints))
            assert got == want and want == got and got != other
            assert hash(got) == hash(want)
        hg = build_hypergraph(instance, constraints)
        assert hash(hg) == hash(want)
        assert copy.copy(hg) is hg
        assert pickle.loads(pickle.dumps(hg)).__dict__.keys() == {"vertices", "edges"}


def test_split_matches_the_depth_first_reference():
    rng = random.Random(23)
    for _ in range(600):
        universe = range(rng.randint(1, 40))
        edges = list({frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
                      for _ in range(rng.randint(0, 40))})
        for ordered in (sorted(edges, key=sorted), sorted(edges, key=min)):
            got = conflicts.split(ordered)
            assert [list(c) for c in got] == _reference_split(ordered)
            assert all(type(c) is Component for c in got)
