"""Approximate minimum hitting sets: local ratio, fractional LP, rounding.

Every conflict has at most d tids.  Local ratio (Bar-Yehuda and Even, 1985)
takes unhit edges whole, a d-approximation.  The LP is solved per component
of the hypergraph: vertex lengths grow multiplicatively along minimum-length
edges until all reach 1, giving a feasible cover and an integer dual packing
that certify the (1 + eps) gap in exact rationals, computed on ints: each
float length is n / 2^k, and all are taken over one common denominator.
Threshold rounding (Williamson and Shmoys, 2011, section 1.7) keeps
S = {v : d * w_v >= alpha} for a uniform alpha in (0, 1]: each v with
probability min(1, d * w_v), so E|S| <= d * objective, and each edge's
heaviest vertex always.  _prune then drops redundant vertices from both
answers, so these bounds still hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .conflicts import ConflictHypergraph
from .errors import InputError, ResourceLimitError
from .exact import RepairSolution, _take_whole_edges

# the iterative LP solver certifies down to this accuracy
MIN_EPS = Fraction(1, 1000)


@dataclass(frozen=True)
class FractionalCover:
    """A feasible fractional cover and a matching dual lower bound.

    weights maps every vertex to an exact rational; vertices outside all
    edges carry 0.  objective is the weight total, and dual_bound is a
    certified lower bound on the LP optimum with
    objective <= (1 + eps) * dual_bound.
    """

    weights: dict[int, Fraction]
    objective: Fraction
    dual_bound: Fraction


def local_ratio_hitting_set(hg: ConflictHypergraph) -> RepairSolution:
    """Take each still-unhit edge whole, in canonical edge order, then _prune.

    Any hitting set needs one vertex of each edge taken, as they are pairwise
    disjoint: the result is minimal and at most d times the optimum.
    """
    chosen = _prune(hg.solving_edges, _take_whole_edges(hg.solving_edges, set()))
    return RepairSolution(frozenset(chosen), hg.size - len(chosen), "local_ratio", False)


def lp_fractional_cover(hg: ConflictHypergraph, eps=Fraction(1, 10)) -> FractionalCover:
    """Near-optimal fractional cover of the solving edges.

    Each component runs the length scheme at step min(eps, 1), halving it
    until its exact certificate objective <= (1 + eps) * dual_bound holds,
    and so do the sums.  The textbook step eps/3 bounds the gap in the worst
    case, so a certificate that fails at the first step at or below it raises
    ResourceLimitError.  The gap is checked exactly, so the optimistic start
    is safe, and it certifies at once with far fewer iterations on the
    graphs seen.  At step 1 a one-edge component starts at sum 1 already.
    eps below 1/1000 is refused: certifying tighter gaps takes too many steps.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if eps < MIN_EPS:
        raise ResourceLimitError(
            f"certified approximation below {MIN_EPS} is not supported")
    weights = dict.fromkeys(sorted(hg.vertices), Fraction(0))
    objective = dual_bound = Fraction(0)
    for component in hg.components:
        edges = [tuple(sorted(e)) for e in component]
        inner, last = float(min(eps, 1)), min(eps / 3, 1)
        while True:
            cover, part, bound = _rationalize(edges, *_length_scheme(edges, inner))
            if part <= (1 + eps) * bound:
                break
            if inner <= last:
                raise ResourceLimitError("fractional cover failed to certify its gap")
            inner /= 2.0
        weights.update(cover)
        objective += part
        dual_bound += bound
    return FractionalCover(weights, objective, dual_bound)


def _length_scheme(edges, inner):
    """Grow vertex lengths along minimum-length edges until all reach 1.

    An iteration costs one argmin over the edge sums, done in C by min and
    list.index (the first minimal edge), plus d * max-degree float updates.
    """
    vertices = sorted({t for e in edges for t in e})
    position = {t: i for i, t in enumerate(vertices)}
    delta = (1.0 + inner) * ((1.0 + inner) * max(len(vertices), 2)) ** (-1.0 / inner)
    delta = max(delta, 1e-300)
    lengths = [delta] * len(vertices)
    duals = [0] * len(edges)
    incident = [[] for _ in vertices]
    for j, e in enumerate(edges):
        for t in e:
            incident[position[t]].append(j)
    # per edge, the (vertex, edges through it) pairs its growth step updates
    steps = [[(position[t], incident[position[t]]) for t in e] for e in edges]
    sums = [sum(delta for _ in e) for e in edges]
    grow = 1.0 + inner
    # each pass raises the minimum edge sum; bounded by the usual
    # O(m log(1/delta) / log(1+inner)) iteration count.  At least one step
    # is taken, or the dual bound is 0 (one edge at inner 1 starts at sum 1)
    low = min(sums)
    while True:
        best = sums.index(low)
        duals[best] += 1
        for v, touched in steps[best]:
            old = lengths[v]
            new = old * grow
            lengths[v] = new
            diff = new - old
            for j in touched:
                sums[j] += diff
        low = min(sums)
        if low >= 1.0:
            break
    return dict(zip(vertices, lengths)), duals


def _rationalize(edges, lengths, duals):
    """Exact feasible cover from float lengths plus exact dual bound: each
    length is exactly n / 2^k; lifted to the largest denominator it is an int
    n_t, so are the edge sums and their minimum S, and the cover is n_t / S."""
    ratios = {t: v.as_integer_ratio() for t, v in lengths.items()}
    den = max(b for _, b in ratios.values())
    lifted = {t: n * (den // b) for t, (n, b) in ratios.items()}
    scale = min(sum(lifted[t] for t in e) for e in edges)
    cover = {t: Fraction(n, scale) for t, n in lifted.items()}
    objective = Fraction(sum(lifted.values()), scale)
    congestion = {}
    for y, e in zip(duals, edges):
        for t in e:
            congestion[t] = congestion.get(t, 0) + y
    kappa = max(congestion.values())
    dual_bound = Fraction(sum(duals), kappa) if kappa else Fraction(0)
    return cover, objective, dual_bound


def randomized_rounding_hitting_set(hg: ConflictHypergraph, eps=Fraction(1, 10),
                                    seed=0, reps=5, cover=None) -> RepairSolution:
    """Round the fractional cover by threshold reps times; keep the smallest.

    Try r keeps a sample (see _sample).  Once for each distinct sample, in
    the order of the first try that draws it, an edge a caller's cover
    leaves unhit is taken whole, then _prune.
    """
    if reps < 1:
        raise InputError("reps must be at least 1")
    if cover is None:
        cover = lp_fractional_cover(hg, eps)
    ratios = [(t, *w.as_integer_ratio()) for t, w in cover.weights.items()]

    pruned = {}  # each distinct sample's answer
    for r in range(reps):
        sample = _sample(ratios, hg.d, seed, r)
        if sample not in pruned:
            pruned[sample] = _prune(hg.solving_edges,
                                    _take_whole_edges(hg.solving_edges, set(sample)))
    best = min(pruned.values(), key=len)
    return RepairSolution(frozenset(best), hg.size - len(best), "randomized", False)


def _sample(ratios, d, seed, r):
    """Try r's sample {v : d * w_v >= alpha} for a uniform alpha = p / q in
    (0, 1] seeded from (seed, r), exactly, as d * a * q >= p * b for each
    (v, a, b) in ratios, w_v = a / b."""
    p, q = (1.0 - random.Random(1_000_003 * int(seed) + r).random()).as_integer_ratio()
    return frozenset(t for t, a, b in ratios if d * a * q >= p * b)


def _prune(edges, cover):
    """Drop, in place, each vertex whose every edge holds another of cover.

    Vertices on fewer edges go first, smaller tid on ties (in an FD key
    group: the largest B-class, which a smallest repair keeps).  A vertex
    kept is the only one on some edge, so the result is a minimal cover.
    """
    hits = [len(e & cover) for e in edges]
    through = {t: [] for t in cover}
    for i, e in enumerate(edges):
        for t in e & cover:
            through[t].append(i)
    for t in sorted(cover, key=lambda t: (len(through[t]), t)):
        if all(hits[i] > 1 for i in through[t]):
            cover.discard(t)
            for i in through[t]:
                hits[i] -= 1
    return cover
