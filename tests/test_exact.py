import dataclasses
import itertools
import random
from collections import Counter

import pytest

from incmeter import conflicts, exact
from incmeter.conflicts import Component, build_hypergraph, hypergraph_from_edges, split
from incmeter.errors import ResourceLimitError
from incmeter.model import Fact, Instance, parse_constraints, parse_schema
from incmeter.exact import (enumerate_c_repairs, enumerate_minimal_hitting_sets,
                            enumerate_s_repairs, min_endogenous_hitting_set,
                            min_hitting_set, solve_min_hitting_set)
from incmeter.updates import UpdateDelta, apply_update, incremental_hypergraph

from conftest import (brute_force_min_hitting_set, count_searches, fd_key_groups, random_bundle,
                      shallow_stack)
from oracles import consistent, restrict


def test_pqr_minimum(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    sol = min_hitting_set(hg)
    assert sol.deleted == frozenset({1})
    assert sol.repair_size == 3
    assert sol.optimal and sol.method == "exact"
    assert brute_force_min_hitting_set(hg).deleted == frozenset({1})


def test_fd_minimum(fd):
    _, cs, inst = fd
    hg = build_hypergraph(inst, cs)
    assert min_hitting_set(hg).deleted == frozenset({2})


def test_empty_hypergraph_needs_no_deletions(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(restrict(inst, {2, 3, 4}), cs)
    sol = min_hitting_set(hg)
    assert sol.deleted == frozenset()
    assert sol.repair_size == 3


def test_brute_force_ties_break_lexicographically():
    hg = hypergraph_from_edges([1, 2, 3, 4], [{1, 2}, {3, 4}])
    assert brute_force_min_hitting_set(hg).deleted == frozenset({1, 3})
    # the exact solver may pick any optimum, but sizes must agree
    assert len(min_hitting_set(hg).deleted) == 2


def test_known_covers():
    # triangle: any two vertices form a minimum cover
    tri = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])
    assert len(min_hitting_set(tri).deleted) == 2
    # star: the hub alone covers everything
    star = hypergraph_from_edges(range(1, 7), [{1, k} for k in range(2, 7)])
    assert min_hitting_set(star).deleted == frozenset({1})
    # disjoint edges force one deletion each
    disj = hypergraph_from_edges(range(1, 9), [{1, 2}, {3, 4}, {5, 6}, {7, 8}])
    assert len(min_hitting_set(disj).deleted) == 4


def test_solution_actually_hits_every_edge():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 10)
        edges = [set(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
                 for _ in range(rng.randint(1, 8))]
        hg = hypergraph_from_edges(range(1, n + 1), edges)
        sol = min_hitting_set(hg)
        assert all(sol.deleted & s for s in hg.solving_edges)


def test_exact_matches_brute_force_on_random_instances():
    rng = random.Random(91)
    agreed = 0
    for _ in range(150):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        assert len(min_hitting_set(hg).deleted) == \
            len(brute_force_min_hitting_set(hg).deleted)
        agreed += 1
    assert agreed == 150


def test_node_budget_exhaustion_reports_best_found():
    rng = random.Random(3)
    edges = [set(rng.sample(range(40), 3)) for _ in range(60)]
    hg = hypergraph_from_edges(range(40), edges)
    with pytest.raises(ResourceLimitError) as info:
        min_hitting_set(hg, node_budget=5)
    assert info.value.best_size is not None
    assert all(i in str(info.value) for i in ("budget",))
    optimum = len(min_hitting_set(hg).deleted)
    assert 0 < info.value.lower_bound <= optimum <= info.value.best_size


def test_single_fd_matches_the_closed_form():
    for seed in range(1, 6):
        cs, inst, optimum = fd_key_groups(random.Random(seed), 1000)
        hg = build_hypergraph(inst, cs)
        sol = min_hitting_set(hg)
        assert len(sol.deleted) == optimum
        assert all(sol.deleted & e for e in hg.solving_edges)


def _hard_block(offset=0):
    # one connected 3-uniform component whose optimum (10) lies strictly
    # between its root packing (8) and its greedy incumbent (11)
    rng = random.Random(1)
    return [{v + offset for v in rng.sample(range(30), 3)} for _ in range(45)]


def _interval(edges, node_budget):
    with pytest.raises(ResourceLimitError) as info:
        solve_min_hitting_set(edges, node_budget=node_budget)
    return info.value.lower_bound, info.value.best_size


def test_exhaustion_across_components_brackets_the_whole_optimum():
    block = _hard_block()
    opt = len(solve_min_hitting_set(block))
    packing, incumbent = _interval(block, 0)
    assert packing < opt < incumbent
    # the search is deterministic, so the smallest budget that solves one
    # block is the number of nodes its tree takes
    lo, hi = 1, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            solve_min_hitting_set(block, node_budget=mid)
            hi = mid
        except ResourceLimitError:
            lo = mid + 1
    nodes = lo
    copies = [e for k in range(3) for e in _hard_block(30 * k)]
    assert len(solve_min_hitting_set(copies, node_budget=3 * nodes)) == 3 * opt
    # components go by smallest element, so a budget of k trees and a half
    # finishes k copies and runs out inside the next one
    for finished in range(3):
        lower, best = _interval(copies, finished * nodes + nodes // 2)
        assert lower <= 3 * opt <= best
        assert lower >= finished * opt + (3 - finished) * packing
        assert best <= finished * opt + (3 - finished) * incumbent


def _recorded_nodes(components):
    """The search nodes of the components' last solve, from their records."""
    return sum(c.optimum[1] for c in components)


def test_a_hypergraph_is_solved_once_per_budget_that_covers_the_search(monkeypatch):
    def block():
        return hypergraph_from_edges(range(30), _hard_block())

    hg = block()
    first = min_hitting_set(hg)
    assert hg == block() and hash(hg) == hash(block()) and repr(hg) == repr(block())
    nodes = _recorded_nodes(hg.components)
    searches = count_searches(monkeypatch)
    assert min_hitting_set(hg) == first
    assert min_hitting_set(hg, node_budget=nodes) == first
    assert not searches
    # a budget the recorded search would overrun fails as on a fresh copy
    with pytest.raises(ResourceLimitError) as memo:
        min_hitting_set(hg, node_budget=nodes - 1)
    with pytest.raises(ResourceLimitError) as fresh:
        min_hitting_set(block(), node_budget=nodes - 1)
    assert (memo.value.best_size, memo.value.lower_bound) == \
        (fresh.value.best_size, fresh.value.lower_bound)
    assert memo.value.lower_bound <= len(first.deleted) <= memo.value.best_size
    assert min_hitting_set(block(), node_budget=nodes) == first
    searches.clear()
    assert min_hitting_set(hg) == first and not searches


def _edge_bundle(edges, vertices):
    """Constraints whose conflicts are the edges, one constraint each, and an
    instance of v(Id) holding the vertices, vertex u as v("u") with tid u + 1."""
    schema = parse_schema("v(Id)\n")
    lines = []
    for k, e in enumerate(edges):
        names = [f"x{j}" for j in range(len(e))]
        atoms = ", ".join(f"v({x})" for x in names)
        pins = ", ".join(f'{x} = "{u}"' for x, u in zip(names, sorted(e)))
        lines.append(f"dc e{k} : !exists {atoms}, {pins}\n")
    facts = tuple(Fact(u + 1, "v", (str(u),)) for u in vertices)
    return parse_constraints("".join(lines), schema), Instance(schema, facts)


def test_handed_on_optima_give_the_fresh_answer_nodes_and_bracket(monkeypatch):
    # three hard blocks, then a delta that deletes a vertex of the last block
    # and inserts a new component: two blocks are handed on and two searched
    blocks = [_hard_block(30 * k) for k in range(3)]
    cs, inst = _edge_bundle([e for b in blocks for e in b] + [{95, 96}, {96, 97}], range(90))
    parent = build_hypergraph(inst, cs)
    min_hitting_set(parent)
    delta = UpdateDelta(tuple(("v", (str(u),)) for u in (95, 96, 97)), frozenset({61}))
    after = apply_update(inst, delta)

    def child():
        return incremental_hypergraph(parent, inst, delta, cs)

    searches = count_searches(monkeypatch)
    reused, fresh = child(), build_hypergraph(after, cs)
    assert reused == fresh and len(fresh.components) == 4
    assert min_hitting_set(reused) == min_hitting_set(fresh)
    assert len(searches) == 4 + 2
    nodes = _recorded_nodes(fresh.components)
    assert _recorded_nodes(reused.components) == nodes
    searches.clear()
    assert min_hitting_set(reused, node_budget=nodes) == min_hitting_set(fresh)
    assert not searches
    # budgets running out in the first block, the second, the last node
    for budget in (nodes // 10, nodes // 2, nodes - 1):
        with pytest.raises(ResourceLimitError) as got:
            min_hitting_set(child(), node_budget=budget)
        with pytest.raises(ResourceLimitError) as want:
            min_hitting_set(build_hypergraph(after, cs), node_budget=budget)
        assert (got.value.best_size, got.value.lower_bound) == \
            (want.value.best_size, want.value.lower_bound)


def test_a_solve_hashes_no_component(monkeypatch):
    # a component's record lives on the component, not in a table keyed by it
    cs, inst, optimum = fd_key_groups(random.Random(2), 200)
    delta = UpdateDelta((("rel", ("k0", "b9", "new")),), frozenset({1}))
    want = min_hitting_set(build_hypergraph(apply_update(inst, delta), cs))
    hg = build_hypergraph(inst, cs)

    def unhashable(self):
        raise TypeError("a component was hashed")

    monkeypatch.setattr(Component, "__hash__", unhashable)
    for _ in range(2):
        assert len(min_hitting_set(hg).deleted) == optimum
    child = incremental_hypergraph(hg, inst, delta, cs)
    for _ in range(2):
        assert min_hitting_set(child) == want


def _reference_popcount(mask):
    return bin(mask).count("1")


def _reference_packing(masks, cover):
    lb = 0
    blocked = 0
    for m in masks:
        if m & cover or m & blocked:
            continue
        lb += 1
        blocked |= m
    return lb


def _reference_branch_and_bound(masks, n, nodes, node_budget):
    """The search as first written: one pass to pick the edge, one to pack.

    Kept frozen so that a faster node can be held to its covers, node
    counts and exhaustion brackets.
    """
    degree = [0] * n
    for m in masks:
        for b in exact._bits(m):
            degree[b] += 1
    rank = sorted(range(n), key=lambda b: (-degree[b], b))
    rank_pos = [0] * n
    for pos, b in enumerate(rank):
        rank_pos[b] = pos

    best_mask = min(exact._greedy_cover(masks), exact._take_whole_edges(masks, 0),
                    key=_reference_popcount)
    best = [best_mask, _reference_popcount(best_mask)]

    def branch(cover, size):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise ResourceLimitError(
                f"hitting-set search exceeded the node budget ({node_budget} nodes)",
                best_size=best[1], lower_bound=_reference_packing(masks, 0))
        pick = -1
        pick_size = n + 1
        for m in masks:
            if m & cover:
                continue
            c = _reference_popcount(m)
            if c < pick_size:
                pick, pick_size = m, c
                if c == 1:
                    break
        if pick == -1:
            if size < best[1]:
                best[0], best[1] = cover, size
            return
        if size + 1 >= best[1]:
            return
        if size + _reference_packing(masks, cover) >= best[1]:
            return
        for b in sorted(exact._bits(pick), key=lambda b: rank_pos[b]):
            branch(cover | (1 << b), size + 1)

    branch(0, 0)
    return best[0]


def _reference_search(masks, n, budget):
    """The frozen search behind the current contract: (cover, nodes)."""
    box = [0]
    cover = _reference_branch_and_bound(masks, n, box, budget)
    return cover, box[0]


def _search_corpus():
    """Seeded 2- and 3-uniform graphs, graphs with edges of one to three
    elements, and the hard block beside a copy of itself."""
    rng = random.Random(16)
    graphs = [_hard_block(), _hard_block() + _hard_block(30)]
    shapes = [(3, 16, 40), (3, 24, 70), (2, 24, 50), (2, 30, 70), (2, 60, 45)]
    for d, vertices, edges in shapes * 2:
        graphs.append([set(rng.sample(range(vertices), d)) for _ in range(edges)])
    for _ in range(4):
        graphs.append([set(rng.sample(range(24), rng.choice((1, 2, 2, 3, 3, 3))))
                       for _ in range(60)])
    return graphs


def _masks(edges):
    """The distinct edges as sorted bit masks over their sorted elements."""
    return Component([frozenset(e) for e in edges]).index[1]


def _outcome(edges, node_budget):
    components = split(list({frozenset(e) for e in edges}))
    try:
        cover = exact._solve(components, node_budget)[0]
    except ResourceLimitError as exc:
        return exc.best_size, exc.lower_bound
    return cover, _recorded_nodes(components)


def test_search_matches_the_reference_branch_and_bound(monkeypatch):
    graphs = _search_corpus()
    for edges in graphs:
        masks = _masks(edges)
        assert exact._scan(masks, 0)[1] == _reference_packing(masks, 0) > 0
    budget = 10 ** 6
    got = [_outcome(edges, budget) for edges in graphs]
    cuts = [(nodes // 10, nodes // 2, nodes - 1) for _, nodes in got]
    got_cut = [[_outcome(edges, b) for b in cut] for edges, cut in zip(graphs, cuts)]
    monkeypatch.setattr(exact, "_branch_and_bound", _reference_search)
    for edges, outcome, cut, outcome_cut in zip(graphs, got, cuts, got_cut):
        assert outcome == _outcome(edges, budget)
        # (best_size, lower_bound) where the budget runs out
        assert outcome_cut == [_outcome(edges, b) for b in cut]


def _triangle_chain(count):
    """count triangles on {3i, 3i+1, 3i+2}, each joined to the next by {3i+2, 3i+3}."""
    edges = []
    for i in range(count):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [{a, b}, {a, c}, {b, c}]
        if i + 1 < count:
            edges.append({c, c + 1})
    return edges


def test_a_search_deeper_than_the_stack_ends_at_the_node_budget():
    # each triangle needs 2, and {3i+1, 3i+2} per triangle covers every
    # connector: the optimum is 300, and a dive towards it is 300 levels deep
    with shallow_stack(), pytest.raises(ResourceLimitError) as exc:
        solve_min_hitting_set(_triangle_chain(150), node_budget=1000)
    assert exc.value.lower_bound <= 300 <= exc.value.best_size


def _reference_greedy_cover(masks):
    """The greedy incumbent as first written, recounting the unhit edges after
    every pick; kept frozen to hold the incremental counts to its picks."""
    cover = 0
    remaining = masks
    while remaining:
        counts = {}
        for m in remaining:
            for b in exact._bits(m):
                counts[b] = counts.get(b, 0) + 1
        b = min(counts, key=lambda b: (-counts[b], b))
        cover |= 1 << b
        remaining = [m for m in remaining if not m & cover]
    return cover


def _chain_edges(n):
    """Solving edges of rel(A, B, C) under A -> B and B -> C: n distinct rows
    over n/4 A values, n/10 B values and 3 C values."""
    rng = random.Random(n)
    schema = parse_schema("rel(A, B, C)\n")
    cs = parse_constraints("fd ab : rel : A -> B\nfd bc : rel : B -> C\n", schema)
    rows = set()
    while len(rows) < n:
        rows.add((f"a{rng.randrange(n // 4)}", f"b{rng.randrange(n // 10)}",
                  f"c{rng.randrange(3)}"))
    facts = tuple(Fact(i, "rel", r) for i, r in enumerate(sorted(rows), start=1))
    return build_hypergraph(Instance(schema, facts), cs).solving_edges


def test_greedy_cover_matches_the_reference():
    graphs = _search_corpus() + [_triangle_chain(40), _chain_edges(200), _chain_edges(300)]
    for edges in graphs:
        masks = _masks(edges)
        assert exact._greedy_cover(masks) == _reference_greedy_cover(masks)


def test_generic_solver_handles_restricted_universe():
    edges = [{1, 2}, {2, 3}]
    assert solve_min_hitting_set(edges) == frozenset({2})
    assert solve_min_hitting_set([]) == frozenset()
    assert solve_min_hitting_set([{1, 2}, set()]) is None  # nothing meets an empty edge


def test_generic_solver_accepts_non_integer_vertices():
    edges = [{"a", "b"}, {"b", "c"}, {"d", "a"}]
    sol = solve_min_hitting_set(edges)
    assert all(sol & e for e in edges)
    assert len(sol) == 2


def test_endogenous_variants(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    assert min_endogenous_hitting_set(hg, {1, 3}).deleted == frozenset({1})
    sol = min_endogenous_hitting_set(hg, {3, 4})
    assert sol.deleted == frozenset({3, 4})
    # no endogenous vertex inside edge {1, 3}: irreparable
    assert min_endogenous_hitting_set(hg, {2, 4}) is None


def test_all_endogenous_reads_the_components_and_optima(monkeypatch):
    # every tid endogenous, the default: the hypergraph's own split and solve
    cs, inst, optimum = fd_key_groups(random.Random(1), 400)
    hg = build_hypergraph(inst, cs)
    # what a search of the solving edges as a plain edge set finds
    components = split(list(set(hg.solving_edges)))
    deleted = exact._solve(components, exact.DEFAULT_NODE_BUDGET)[0]
    splits = []
    for module in (conflicts, exact):
        monkeypatch.setattr(module, "split",
                            lambda edges, split=split: splits.append(1) or split(edges))
    searches = count_searches(monkeypatch)
    for _ in range(2):
        sol = min_endogenous_hitting_set(hg, inst.effective_endogenous())
        assert sol.deleted == deleted and len(deleted) == optimum
    assert len(hg.components) == 80
    assert (len(splits), len(searches)) == (1, 80)
    assert [c.optimum for c in hg.components] == [c.optimum for c in components]


def _fallback(hg, endogenous, node_budget=exact.DEFAULT_NODE_BUDGET):
    """The endogenous solve as it was before it read the components: with any
    exogenous conflicting tid, restrict every solving edge to the partition,
    split the whole set again and search every part."""
    endogenous = frozenset(endogenous)
    if all(e <= endogenous for e in hg.solving_edges):
        return min_hitting_set(hg, node_budget).deleted
    edges = {e & endogenous for e in hg.solving_edges}
    if frozenset() in edges:
        return None
    return exact._solve(split(list(edges)), node_budget)[0]


def _partitions(corpus, seed):
    """Each corpus item with a seeded partition keeping about 70% of its tids."""
    rng = random.Random(seed)
    for item in corpus:
        yield item, frozenset(t for t in item.instance.tids if rng.random() < 0.7)


def test_endogenous_minimum_matches_a_brute_force_restricted_minimum(corpus):
    seen = Counter()
    for item, endo in _partitions(corpus, 2929):
        sol = min_endogenous_hitting_set(item.hg, endo)
        restricted = {e & endo for e in item.hg.solving_edges}
        if frozenset() in restricted:
            assert sol is None
            seen["irreparable"] += 1
            continue
        want = brute_force_min_hitting_set(hypergraph_from_edges(item.hg.vertices, restricted))
        assert sol.deleted <= endo and all(sol.deleted & e for e in item.hg.solving_edges)
        assert (len(sol.deleted), sol.repair_size) == (len(want.deleted), want.repair_size)
        seen["cut" if restricted != set(item.hg.solving_edges) else "whole"] += 1
    assert min(seen.values()) > 50, seen


def _searched(solve, node_budget, taken):
    """What solve(node_budget) gives, or its exhaustion bracket, and the
    search nodes of the components it searched, as counted into taken."""
    taken.clear()
    try:
        got = solve(node_budget)
    except ResourceLimitError as exc:
        got = exc.lower_bound, exc.best_size
    return got, sum(taken)


def test_endogenous_nodes_and_brackets_match_the_former_fallback(corpus, monkeypatch):
    taken, search = [], exact._branch_and_bound

    def counted(*args):
        found, nodes = search(*args)
        taken.append(nodes)
        return found, nodes

    monkeypatch.setattr(exact, "_branch_and_bound", counted)
    seen = Counter()
    for item, endo in _partitions(corpus, 1717):
        cut = not all(e <= endo for e in item.hg.solving_edges)
        for budget in (10 ** 7, 1, 2, 3, 5, 8):
            # fresh hypergraphs, so that both search every part
            got = _searched(lambda b: getattr(min_endogenous_hitting_set(
                dataclasses.replace(item.hg), endo, b), "deleted", None), budget, taken)
            want = _searched(lambda b: _fallback(dataclasses.replace(item.hg), endo, b),
                             budget, taken)
            assert got == want
            seen[cut, type(got[0]).__name__] += 1
            # with the components' optima recorded the answer is the same
            min_hitting_set(item.hg)
            recorded = _searched(lambda b: getattr(min_endogenous_hitting_set(
                item.hg, endo, b), "deleted", None), budget, taken)
            assert recorded[0] == got[0]
    # a partition that cuts a conflict: repaired, irreparable, out of budget
    assert min(seen[True, kind] for kind in ("frozenset", "NoneType", "tuple")) > 100, seen


def test_an_endogenous_solve_searches_only_the_components_the_partition_cuts(monkeypatch):
    cs, inst, optimum = fd_key_groups(random.Random(1), 400)
    hg = build_hypergraph(inst, cs)
    assert len(min_hitting_set(hg).deleted) == optimum
    cut = [hg.components[i] for i in (3, 40, 77)]
    exogenous = {min(c[0]) for c in cut}
    endo = frozenset(inst.tids) - exogenous
    kept = [(c, c.optimum) for c in hg.components if c not in cut]
    parts = [p for c in cut for p in split([e - exogenous for e in c])]
    want = _fallback(build_hypergraph(inst, cs), endo)
    searches = count_searches(monkeypatch)
    for _ in range(2):
        sol = min_endogenous_hitting_set(hg, endo)
        assert sol.deleted == want and sol.deleted.isdisjoint(exogenous)
        assert len(searches) == len(parts)
        searches.clear()
    assert all(c.optimum is optimum for c, optimum in kept)


def test_enumerate_minimal_hitting_sets_small():
    out = enumerate_minimal_hitting_sets([{1, 2}, {2, 3}])
    assert list(out) == [frozenset({2}), frozenset({1, 3})]
    assert list(enumerate_minimal_hitting_sets([])) == [frozenset()]
    tri = enumerate_minimal_hitting_sets([{1, 2}, {2, 3}, {1, 3}])
    assert sorted(sorted(s) for s in tri) == [[1, 2], [1, 3], [2, 3]]
    with pytest.raises(ResourceLimitError):
        enumerate_minimal_hitting_sets([{i, i + 1} for i in range(0, 60, 2)],
                                       max_elements=22)


def _brute_minimal_hitting_sets(edges):
    # every subset of the union that hits each edge while no subset one
    # element smaller does (hitting is upward closed, so that is minimality)
    union = sorted(set().union(*edges))
    hits = lambda s: all(s & e for e in edges)
    found = [frozenset(c) for k in range(len(union) + 1)
             for c in itertools.combinations(union, k)
             if hits(set(c)) and not any(hits(set(c) - {v}) for v in c)]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_enumerate_minimal_hitting_sets_matches_subset_oracle():
    rng = random.Random(5)
    shapes = {"empty edge": 0, "duplicate": 0, "singleton": 0, "non-antichain": 0}
    for _ in range(300):
        edges = [set(rng.sample(range(1, 11), rng.randint(1, 4)))
                 for _ in range(rng.randint(0, 8))]
        if edges and rng.random() < 0.3:
            edges.append(set(rng.choice(edges)))
        if rng.random() < 0.05:
            edges.insert(rng.randint(0, len(edges)), set())
        shapes["empty edge"] += set() in edges
        shapes["duplicate"] += len(set(map(frozenset, edges))) < len(edges)
        shapes["singleton"] += any(len(e) == 1 for e in edges)
        shapes["non-antichain"] += any(e < f for e in edges for f in edges)
        got = enumerate_minimal_hitting_sets(edges)
        assert list(got) == _brute_minimal_hitting_sets(edges)
        if set() in edges:
            assert got == ()
    assert min(shapes.values()) >= 10, shapes


def test_s_repairs_pqr(pqr):
    _, cs, inst = pqr
    reps = enumerate_s_repairs(inst, cs)
    assert reps.kind == "s"
    assert [sorted(r) for r in reps.repairs] == [[1, 2], [2, 3, 4]]
    creps = enumerate_c_repairs(inst, cs)
    assert creps.kind == "c"
    assert [sorted(r) for r in creps.repairs] == [[2, 3, 4]]


def test_s_repairs_fd(fd):
    _, cs, inst = fd
    reps = enumerate_s_repairs(inst, cs)
    assert [sorted(r) for r in reps.repairs] == [[1, 3], [2]]
    assert [sorted(r) for r in enumerate_c_repairs(inst, cs).repairs] == [[1, 3]]


def test_s_repairs_are_maximal_consistent_subsets():
    rng = random.Random(412)
    seen_multi = 0
    for _ in range(60):
        cs, inst = random_bundle(rng, max_rows=9)
        reps = enumerate_s_repairs(inst, cs)
        tids = set(inst.tids)
        for kept in reps.repairs:
            assert consistent(restrict(inst, kept), cs)
            # adding back any removed fact must break consistency again
            for extra in tids - set(kept):
                assert not consistent(restrict(inst, set(kept) | {extra}), cs)
        if len(reps.repairs) > 1:
            seen_multi += 1
    assert seen_multi > 10


def test_enumeration_respects_size_gate(pqr):
    # 3 of pqr's 4 facts conflict, and only those are enumerated over
    _, cs, inst = pqr
    with pytest.raises(ResourceLimitError):
        enumerate_s_repairs(inst, cs, limit=2)
    assert len(enumerate_s_repairs(inst, cs, limit=3).repairs) == 2
