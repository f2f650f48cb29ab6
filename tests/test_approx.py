import math
import random
from fractions import Fraction

import pytest

from incmeter import approx
from incmeter.approx import (FractionalCover, local_ratio_hitting_set,
                             lp_fractional_cover, randomized_rounding_hitting_set)
from incmeter.conflicts import build_hypergraph, hypergraph_from_edges
from incmeter.errors import InputError, ResourceLimitError
from incmeter.exact import min_hitting_set

from conftest import fd_key_groups, random_bundle


def test_single_edge_cover_is_symmetric():
    hg = hypergraph_from_edges([1, 2], [{1, 2}])
    cover = lp_fractional_cover(hg, eps=Fraction(1, 10))
    assert cover.weights == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert cover.objective == Fraction(1)
    assert cover.dual_bound == Fraction(1)


def test_cover_weights_are_exact_and_feasible():
    rng = random.Random(55)
    for _ in range(40):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        cover = lp_fractional_cover(hg, eps=Fraction(1, 10))
        for w in cover.weights.values():
            assert isinstance(w, Fraction) and 0 <= w <= 1
        # feasibility is exact, not approximate: every edge is fully covered
        for s in hg.solving_edges:
            assert sum(cover.weights.get(t, Fraction(0)) for t in s) >= 1
        assert cover.objective == sum(cover.weights.values(), Fraction(0))


def test_cover_certificate_brackets_the_optimum():
    rng = random.Random(56)
    eps = Fraction(1, 10)
    for _ in range(40):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        if hg.is_consistent:
            continue
        cover = lp_fractional_cover(hg, eps=eps)
        opt = Fraction(len(min_hitting_set(hg).deleted))
        # dual_bound <= lp optimum <= integral optimum, and the certificate
        # pins the primal within (1+eps) of the dual
        assert cover.dual_bound <= opt
        assert cover.objective <= (1 + eps) * cover.dual_bound
        assert cover.objective * (1 + eps) >= cover.dual_bound


def test_triangle_fractional_beats_integral():
    tri = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])
    cover = lp_fractional_cover(tri, eps=Fraction(1, 100))
    # the fractional optimum is 3/2; the certified value must sit within 1%
    assert Fraction(3, 2) <= cover.objective <= Fraction(3, 2) * Fraction(101, 100)
    assert cover.dual_bound <= Fraction(3, 2)


def test_cover_is_solved_per_component():
    parts = [[{1, 2}, {2, 3}, {1, 3}], [{4, 5}, {5, 6}, {4, 6}], [{7, 8}]]
    eps = Fraction(1, 10)
    whole = lp_fractional_cover(hypergraph_from_edges(range(1, 10), sum(parts, [])), eps)
    alone = [lp_fractional_cover(hypergraph_from_edges(set().union(*p), p), eps) for p in parts]
    for cover in alone:
        assert all(whole.weights[t] == w for t, w in cover.weights.items())
    assert whole.weights[9] == 0
    assert whole.objective == sum(c.objective for c in alone)
    assert whole.dual_bound == sum(c.dual_bound for c in alone)
    assert whole.objective <= (1 + eps) * whole.dual_bound


def test_empty_hypergraph_has_zero_cover():
    hg = hypergraph_from_edges([1, 2], [])
    cover = lp_fractional_cover(hg)
    assert cover.objective == 0
    assert set(cover.weights.values()) == {Fraction(0)}
    assert local_ratio_hitting_set(hg).deleted == frozenset()


def test_eps_validation():
    hg = hypergraph_from_edges([1, 2], [{1, 2}])
    with pytest.raises(InputError):
        lp_fractional_cover(hg, eps=Fraction(0))
    with pytest.raises(InputError):
        lp_fractional_cover(hg, eps=Fraction(-1, 2))
    with pytest.raises(InputError):
        randomized_rounding_hitting_set(hg, reps=0)
    with pytest.raises(ResourceLimitError):
        lp_fractional_cover(hg, eps=Fraction(1, 5000))


def test_local_ratio_stays_within_d_times_optimum():
    rng = random.Random(57)
    for _ in range(80):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        sol = local_ratio_hitting_set(hg)
        assert sol.method == "local_ratio" and not sol.optimal
        assert all(sol.deleted & s for s in hg.solving_edges)
        if hg.solving_edges:
            opt = len(min_hitting_set(hg).deleted)
            assert opt <= len(sol.deleted) <= hg.d * opt


def test_local_ratio_takes_whole_edges_in_order():
    hg = hypergraph_from_edges([1, 2, 3, 4], [{1, 2}, {2, 3}, {3, 4}])
    # {1,2} is taken whole, {2,3} is then hit, {3,4} is taken whole; the
    # prune then drops 1 and 4, each on one edge that 2 or 3 also hits
    assert local_ratio_hitting_set(hg).deleted == frozenset({2, 3})


def test_pruned_local_ratio_can_stay_above_the_optimum():
    # found by brute force over graphs on up to five vertices: the 4-cycle
    # 1-2-4-3 with the pendant edge {4,5}; {1,2} and {3,4} are taken whole
    # and only 1 is redundant, while {1,4} hits every edge
    hg = hypergraph_from_edges(range(1, 6), [{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}])
    pruned, opt = local_ratio_hitting_set(hg).deleted, min_hitting_set(hg).deleted
    assert pruned == frozenset({2, 3, 4}) and opt == frozenset({1, 4})
    assert len(opt) < len(pruned) <= hg.d * len(opt)


def _is_minimal_hitting_set(deleted, edges):
    return (all(deleted & s for s in edges)
            and all(any(s & deleted == {t} for s in edges) for t in deleted))


def test_approximate_answers_are_minimal_hitting_sets():
    rng = random.Random(61)
    for _ in range(60):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        cover = lp_fractional_cover(hg)
        threshold = {t for t, w in cover.weights.items() if hg.d * w >= 1}
        assert _is_minimal_hitting_set(local_ratio_hitting_set(hg).deleted, hg.solving_edges)
        for seed in range(4):
            sol = randomized_rounding_hitting_set(hg, seed=seed, reps=2, cover=cover)
            assert _is_minimal_hitting_set(sol.deleted, hg.solving_edges)
            # alpha <= 1, so every sample lies within the threshold set
            assert sol.deleted <= threshold


def test_randomized_rounding_is_valid_and_deterministic():
    rng = random.Random(58)
    for _ in range(40):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        a = randomized_rounding_hitting_set(hg, seed=5)
        b = randomized_rounding_hitting_set(hg, seed=5)
        assert a.deleted == b.deleted and a.method == "randomized"
        assert all(a.deleted & s for s in hg.solving_edges)


def test_randomized_rounding_reuses_a_precomputed_cover():
    tri = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])
    cover = lp_fractional_cover(tri, eps=Fraction(1, 10))
    sol = randomized_rounding_hitting_set(tri, cover=cover, seed=1, reps=3)
    assert all(sol.deleted & s for s in tri.solving_edges)
    assert len(sol.deleted) <= 3


def test_rounding_on_single_edge_always_deletes_one_vertex():
    hg = hypergraph_from_edges([1, 2], [{1, 2}])
    # d * weight = 2 * 1/2 = 1 >= alpha, so every sample is {1, 2}; both lie
    # on one edge and the prune drops the smaller tid first
    for seed in range(10):
        assert randomized_rounding_hitting_set(hg, seed=seed).deleted == frozenset({2})


def test_rounding_repair_pass_takes_unhit_edges_whole():
    # an all-zero cover samples no vertex, so the repair pass takes unhit
    # edges whole in canonical order and the prune follows, as in local ratio
    hg = hypergraph_from_edges([1, 2, 3, 4], [{1, 2}, {2, 3}, {3, 4}])
    zero = FractionalCover({t: Fraction(0) for t in hg.vertices}, Fraction(0), Fraction(0))
    sol = randomized_rounding_hitting_set(hg, seed=3, cover=zero)
    assert sol.deleted == local_ratio_hitting_set(hg).deleted == frozenset({2, 3})


def _reference_length_scheme(edges, inner):
    """The length scheme as first written: a keyed min over the edge indices,
    since changed only to take at least one step.

    Kept frozen so that faster loops can be held to its exact floats.
    """
    vertices = sorted({t for e in edges for t in e})
    delta = (1.0 + inner) * ((1.0 + inner) * max(len(vertices), 2)) ** (-1.0 / inner)
    delta = max(delta, 1e-300)
    lengths = {t: delta for t in vertices}
    duals = [0] * len(edges)
    incident = {t: [] for t in vertices}
    for j, e in enumerate(edges):
        for t in e:
            incident[t].append(j)
    sums = [sum(lengths[t] for t in e) for e in edges]
    grow = 1.0 + inner
    while True:
        best = min(range(len(edges)), key=lambda i: sums[i])
        if sums[best] >= 1.0 and any(duals):
            break
        duals[best] += 1
        for t in edges[best]:
            old = lengths[t]
            new = old * grow
            lengths[t] = new
            diff = new - old
            for j in incident[t]:
                sums[j] += diff
    return lengths, duals


def _uniform_edges(rng, vertices, edges, d):
    """`edges` distinct random d-subsets of 1..vertices, as the LP sorts them."""
    out = set()
    while len(out) < edges:
        out.add(tuple(sorted(rng.sample(range(1, vertices + 1), d))))
    return sorted(out)


def _length_scheme_inputs():
    """Seeded random 2- and 3-uniform hypergraphs and FD key-group components."""
    rng = random.Random(404)
    inputs = []
    for _ in range(160):
        d = rng.choice((2, 3))
        vertices = rng.randint(d, 16)
        inputs.append(_uniform_edges(rng, vertices, rng.randint(
            1, min(40, math.comb(vertices, d))), d))
    while len(inputs) < 220:
        constraints, instance, _ = fd_key_groups(rng, rng.randint(8, 40))
        hg = build_hypergraph(instance, constraints)
        inputs += [[tuple(sorted(e)) for e in c] for c in hg.components]
    return inputs


LENGTH_SCHEME_INPUTS = _length_scheme_inputs()


@pytest.mark.parametrize("rung", [1, 2, 4])
def test_length_scheme_matches_the_reference_bit_for_bit(rung):
    # the first rungs of lp_fractional_cover's retry ladder at eps = 1; finer
    # steps only take longer, and the pinned count below covers the default eps
    inner = 1.0 / rung
    assert len(LENGTH_SCHEME_INPUTS) >= 200
    for edges in LENGTH_SCHEME_INPUTS:
        lengths, duals = approx._length_scheme(edges, inner)
        want_lengths, want_duals = _reference_length_scheme(edges, inner)
        assert list(lengths.items()) == list(want_lengths.items())
        assert duals == want_duals and sum(duals) == sum(want_duals)


def test_length_scheme_iteration_count_is_pinned():
    # a benchmark-shaped 3-uniform graph, 16 vertices and 40 edges, at the
    # first rung of the default eps = 1/10
    edges = _uniform_edges(random.Random(2), 16, 40, 3)
    lengths, duals = approx._length_scheme(edges, 0.1)
    assert (lengths, duals) == _reference_length_scheme(edges, 0.1)
    assert sum(duals) == 1542


def test_lp_cover_matches_the_reference_length_scheme(monkeypatch):
    rng = random.Random(405)
    hgs = [build_hypergraph(inst, cs) for cs, inst in (random_bundle(rng) for _ in range(60))]
    got = [lp_fractional_cover(hg) for hg in hgs]
    monkeypatch.setattr(approx, "_length_scheme", _reference_length_scheme)
    for hg, cover in zip(hgs, got):
        want = lp_fractional_cover(hg)
        assert cover.weights == want.weights
        assert (cover.objective, cover.dual_bound) == (want.objective, want.dual_bound)


def _reference_rationalize(edges, lengths, duals):
    """The certificate as first written, in Fraction arithmetic throughout.

    Kept frozen so that the integer certificate can be held to its exact
    cover, objective and dual bound.
    """
    frac = {t: Fraction(v) for t, v in lengths.items()}
    scale = min(sum(frac[t] for t in e) for e in edges)
    cover = {t: v / scale for t, v in frac.items()}
    objective = sum(cover.values(), Fraction(0))
    congestion = {}
    for y, e in zip(duals, edges):
        for t in e:
            congestion[t] = congestion.get(t, 0) + y
    kappa = max(congestion.values())
    dual_bound = Fraction(sum(duals), kappa) if kappa else Fraction(0)
    return cover, objective, dual_bound


def _assert_certificate_matches_the_reference(edges, inner):
    lengths, duals = approx._length_scheme(edges, inner)
    cover, objective, bound = approx._rationalize(edges, lengths, duals)
    want_cover, want_objective, want_bound = _reference_rationalize(edges, lengths, duals)
    assert list(cover.items()) == list(want_cover.items())
    assert all(type(w) is Fraction for w in cover.values())
    assert (objective, bound) == (want_objective, want_bound)


@pytest.mark.parametrize("rung", [1, 2, 4])
def test_certificate_matches_the_reference_exactly(rung):
    # a graph's lengths carry different powers of two in their denominators,
    # so a cover read without the lift to one denominator comes out wrong
    for edges in LENGTH_SCHEME_INPUTS:
        _assert_certificate_matches_the_reference(edges, 1.0 / rung)


def test_pinned_graph_certificate_matches_the_reference_exactly():
    _assert_certificate_matches_the_reference(_uniform_edges(random.Random(2), 16, 40, 3), 0.1)


def _reference_randomized_rounding(hg, seed, reps, cover):
    """Threshold rounding as first written: each try compares d * w with a
    Fraction alpha.  Kept frozen so that the integer test can be held to its
    samples."""

    def rounded(r):
        alpha = Fraction(1.0 - random.Random(1_000_003 * int(seed) + r).random())
        sample = {t for t, w in cover.weights.items() if hg.d * w >= alpha}
        return approx._prune(hg.solving_edges,
                             approx._take_whole_edges(hg.solving_edges, sample))

    return frozenset(min(map(rounded, range(reps)), key=len))


def test_rounding_matches_the_reference_sample(monkeypatch):
    # each try's sample is recorded as it is drawn, and each of the
    # reference's as it reaches its repair pass, which it runs once a try, so
    # the samples are held to the reference's, not only the pruned answers
    samples = []
    sample, take_whole_edges = approx._sample, approx._take_whole_edges

    def drawn(*args):
        samples.append(sample(*args))
        return samples[-1]

    def recorded(edges, sample):
        samples.append(frozenset(sample))
        return take_whole_edges(edges, sample)

    monkeypatch.setattr(approx, "_sample", drawn)
    rng = random.Random(407)
    hgs = [build_hypergraph(inst, cs) for cs, inst in (random_bundle(rng) for _ in range(60))]
    hgs += [hypergraph_from_edges(set().union(*e), e) for e in LENGTH_SCHEME_INPUTS[:40]]
    runs = [(hg, cover, seed, reps) for hg, cover in zip(hgs, map(lp_fractional_cover, hgs))
            for seed in range(10) for reps in range(1, 6)]
    got = [randomized_rounding_hitting_set(hg, seed=seed, reps=reps, cover=cover).deleted
           for hg, cover, seed, reps in runs]
    got_samples = samples[:]
    del samples[:]
    monkeypatch.setattr(approx, "_take_whole_edges", recorded)
    monkeypatch.setattr(approx, "randomized_rounding_hitting_set", _reference_randomized_rounding)
    want = [approx.randomized_rounding_hitting_set(hg, seed=seed, reps=reps, cover=cover)
            for hg, cover, seed, reps in runs]
    assert got == want
    assert got_samples == samples and len(samples) == sum(reps for *_, reps in runs)
    # a fifth of the tries or more leave out a vertex of positive weight:
    # alpha decides those
    positive = [frozenset(t for t, w in cover.weights.items() if w) for _, cover, _, reps in runs
                for _ in range(reps)]
    assert sum(s != p for s, p in zip(samples, positive)) >= len(samples) // 5


def test_each_distinct_sample_is_pruned_once(monkeypatch):
    # tries that draw one sample share its answer: the repair pass and _prune
    # run once for each distinct sample, while each try draws its sample
    samples, repaired, pruned = [], [], []
    sample, take_whole_edges, prune = approx._sample, approx._take_whole_edges, approx._prune
    monkeypatch.setattr(approx, "_sample",
                        lambda *args: samples.append(sample(*args)) or samples[-1])
    monkeypatch.setattr(approx, "_take_whole_edges", lambda edges, cover: repaired.append(
        frozenset(cover)) or take_whole_edges(edges, cover))
    monkeypatch.setattr(approx, "_prune",
                        lambda edges, cover: pruned.append(1) or prune(edges, cover))
    rng = random.Random(408)
    hgs = [build_hypergraph(inst, cs) for cs, inst in (random_bundle(rng) for _ in range(30))]
    hgs += [hypergraph_from_edges(set().union(*e), e) for e in LENGTH_SCHEME_INPUTS[:30]]
    distinct = []
    for hg in hgs:
        cover = lp_fractional_cover(hg)
        for seed in range(4):
            del samples[:], repaired[:], pruned[:]
            sol = randomized_rounding_hitting_set(hg, seed=seed, reps=5, cover=cover)
            firsts = list(dict.fromkeys(samples))
            distinct.append(len(firsts))
            assert len(samples) == 5 and len(pruned) == len(firsts)
            assert repaired == firsts
            assert sol.deleted == _reference_randomized_rounding(hg, seed, 5, cover)
    # both kinds of run are seen: one sample drawn by every try, and several
    assert distinct.count(1) >= 100 and sum(n > 1 for n in distinct) >= 10


def _alpha(seed, r):
    return Fraction(1.0 - random.Random(1_000_003 * seed + r).random())


def test_rounding_samples_a_vertex_whose_d_times_weight_is_alpha():
    # vertex 1 sits at alpha / d exactly and is sampled, so it is kept; 3 sits
    # just below, is not sampled, and its edge is taken whole and pruned to 4
    hg = hypergraph_from_edges([1, 2, 3, 4], [{1, 2}, {3, 4}])
    for seed in range(5):
        at = _alpha(seed, 0) / hg.d
        weights = {1: at, 2: Fraction(0), 3: at - Fraction(1, 10 ** 30), 4: Fraction(0)}
        cover = FractionalCover(weights, sum(weights.values()), Fraction(0))
        sol = randomized_rounding_hitting_set(hg, seed=seed, reps=1, cover=cover)
        assert sol.deleted == frozenset({1, 4})


def test_rounding_takes_int_and_float_weights_as_the_equal_fractions():
    rng = random.Random(408)
    # eighths, and half the alpha of try 0 of seed 3, all equal to their
    # Fractions exactly; at d = 2 the last lands on that alpha itself
    edges = [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 5}]
    hg = hypergraph_from_edges(range(1, 6), edges)
    boundary = float(_alpha(3, 0)) / 2
    for _ in range(30):
        ints = {t: rng.randint(0, 1) for t in hg.vertices}
        floats = {t: rng.choice((0.0, 0.125, 0.25, 0.375, 0.5, boundary)) for t in hg.vertices}
        for weights in (ints, floats):
            fractions = {t: Fraction(w) for t, w in weights.items()}
            for seed in range(5):
                for reps in (1, 3):
                    got, want = (randomized_rounding_hitting_set(
                        hg, seed=seed, reps=reps, cover=FractionalCover(w, 0, 0)).deleted
                        for w in (weights, fractions))
                    assert got == want


def _record_inner(monkeypatch, length_scheme=approx._length_scheme):
    inners = []

    def recorded(edges, inner):
        inners.append(inner)
        return length_scheme(edges, inner)

    monkeypatch.setattr(approx, "_length_scheme", recorded)
    return inners


def test_certification_retries_at_half_the_step(monkeypatch):
    tri = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])
    eps = Fraction(1, 10)
    inners = _record_inner(monkeypatch)
    rationalize = approx._rationalize
    certificates = []

    def first_fails(edges, lengths, duals):
        cover, objective, bound = rationalize(edges, lengths, duals)
        certificates.append((objective, bound))
        # a zero dual bound certifies no positive objective
        return cover, objective, bound if len(certificates) > 1 else Fraction(0)

    monkeypatch.setattr(approx, "_rationalize", first_fails)
    cover = lp_fractional_cover(tri, eps)
    assert inners == [float(eps), float(eps) / 2.0]
    assert (cover.objective, cover.dual_bound) == certificates[1]
    assert cover.objective <= (1 + eps) * cover.dual_bound


def test_certification_gives_up_after_the_textbook_step(monkeypatch):
    # every certificate fails: the ladder halves from min(eps, 1), and its
    # first step at or below eps/3, where the analysis certifies, is its last
    tri = hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])
    edges = [(1, 2), (1, 3), (2, 3)]
    schemes = []
    monkeypatch.setattr(approx, "_rationalize",
                        lambda *scheme: schemes.append(scheme) or ({}, Fraction(1), Fraction(0)))
    for eps, steps in ((Fraction(1), [1.0, 0.5, 0.25]),
                       (Fraction(1, 10), [0.1, 0.05, 0.025]),
                       (Fraction(3), [1.0]), (Fraction(10 ** 400), [1.0])):
        del schemes[:]
        with pytest.raises(ResourceLimitError, match="fractional cover failed to certify"):
            lp_fractional_cover(tri, eps)
        assert schemes == [(edges, *approx._length_scheme(edges, step)) for step in steps]


def test_benchmark_shaped_components_certify_at_the_first_rung(monkeypatch):
    # the gap is checked exactly, so the ladder may start at step eps; a
    # retry on these graphs would double or triple the LP's cost unseen
    inners = _record_inner(monkeypatch)
    rng = random.Random(406)
    hgs = [hypergraph_from_edges(range(1, 17), _uniform_edges(rng, 16, 40, 3))
           for _ in range(20)]
    while len(hgs) < 40:
        constraints, instance, _ = fd_key_groups(rng, rng.randint(8, 40))
        hgs.append(build_hypergraph(instance, constraints))
    for hg in hgs:
        del inners[:]
        cover = lp_fractional_cover(hg)
        assert inners == [0.1] * len(hg.components)
        assert cover.objective <= Fraction(11, 10) * cover.dual_bound


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(10), Fraction(2)])
def test_one_edge_components_certify_at_the_first_rung(monkeypatch, eps):
    # at step 1 the start lengths of one edge sum to exactly 1; a rung that
    # took no step there would have a zero dual bound and need a second rung
    inners = _record_inner(monkeypatch)
    for edge in ({1, 2}, {1, 2, 3}):
        del inners[:]
        cover = lp_fractional_cover(hypergraph_from_edges(edge, [edge]), eps)
        assert inners == [1.0]
        assert cover.objective == cover.dual_bound == 1


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(10), Fraction(10 ** 4),
                                 Fraction(10 ** 30)])
def test_large_eps_certifies(eps):
    # a step above 1 would start with every edge sum at 1 or more and take
    # no step, leaving a zero dual bound on every rung
    # the first inputs are the random 2- and 3-uniform graphs
    hgs = [hypergraph_from_edges([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])]
    hgs += [hypergraph_from_edges(set().union(*e), e) for e in LENGTH_SCHEME_INPUTS[:30]]
    for hg in hgs:
        cover = lp_fractional_cover(hg, eps)
        assert all(sum(cover.weights[t] for t in s) >= 1 for s in hg.solving_edges)
        assert 0 < cover.dual_bound <= len(min_hitting_set(hg).deleted)
        assert cover.objective <= (1 + eps) * cover.dual_bound
