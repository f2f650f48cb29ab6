"""Approximate minimum hitting sets: local ratio, fractional LP, rounding.

Every conflict has at most d tids, so taking a whole unhit edge at a time
(local ratio) is a d-approximation.  The fractional relaxation is solved by
an iterative length/weight scheme: vertex lengths grow multiplicatively
along minimum-length edges until every edge reaches unit length, which
yields a feasible fractional cover together with an integer dual packing
whose scaled value certifies the (1 + eps) guarantee with exact rationals.
Randomized rounding of the fractional cover, with a deterministic pass
adding any still-uncovered edge wholesale, gives repairs within a factor d
in expectation.  That pass fires only on a caller-supplied cover: the cover
from lp_fractional_cover is feasible, so every edge keeps its heaviest vertex.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .conflicts import ConflictHypergraph
from .errors import ResourceLimitError
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
    """Take every vertex of each still-unhit edge, in canonical edge order.

    The chosen edges are pairwise disjoint, so any hitting set contains one
    vertex from each: the result is at most d times the optimum.
    """
    chosen = _take_whole_edges(hg.solving_edges, set())
    return RepairSolution(frozenset(chosen),
                          len(hg.vertices) - len(chosen), "local_ratio", False)


def lp_fractional_cover(hg: ConflictHypergraph, eps=Fraction(1, 10)) -> FractionalCover:
    """Near-optimal fractional cover of the solving edges.

    Runs the multiplicative length scheme with shrinking internal step sizes
    until the exact-rational duality certificate
    objective <= (1 + eps) * dual_bound holds.  eps below 1/1000 is refused:
    the iteration count needed to certify tighter gaps is not supported.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps < MIN_EPS:
        raise ResourceLimitError(
            f"certified approximation below {MIN_EPS} is not supported")
    edges = [tuple(sorted(e)) for e in hg.solving_edges]
    weights = {t: Fraction(0) for t in sorted(hg.vertices)}
    if not edges:
        return FractionalCover(weights, Fraction(0), Fraction(0))

    inner = float(eps) / 3.0
    for _ in range(12):
        lengths, duals = _length_scheme(edges, inner)
        cover, objective, dual_bound = _rationalize(edges, lengths, duals)
        if objective <= (1 + eps) * dual_bound:
            weights.update(cover)
            return FractionalCover(weights, objective, dual_bound)
        inner /= 2.0
    raise ResourceLimitError("fractional cover failed to certify its gap")


def _length_scheme(edges, inner):
    """Grow vertex lengths along minimum-length edges until all reach 1."""
    vertices = sorted({t for e in edges for t in e})
    nv = len(vertices)
    delta = (1.0 + inner) * ((1.0 + inner) * max(nv, 2)) ** (-1.0 / inner)
    delta = max(delta, 1e-300)
    lengths = {t: delta for t in vertices}
    duals = [0] * len(edges)
    incident = {t: [] for t in vertices}
    for j, e in enumerate(edges):
        for t in e:
            incident[t].append(j)
    sums = [sum(lengths[t] for t in e) for e in edges]
    grow = 1.0 + inner
    # each pass raises the minimum edge sum; bounded by the usual
    # O(m log(1/delta) / log(1+inner)) iteration count
    while True:
        best = min(range(len(edges)), key=lambda i: sums[i])
        if sums[best] >= 1.0:
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


def _rationalize(edges, lengths, duals):
    """Exact feasible cover from float lengths plus exact dual bound."""
    frac = {t: Fraction(v) for t, v in lengths.items()}
    edge_sums = [sum(frac[t] for t in e) for e in edges]
    scale = min(edge_sums)
    cover = {t: v / scale for t, v in frac.items()}
    objective = sum(cover.values(), Fraction(0))
    congestion = {}
    for y, e in zip(duals, edges):
        for t in e:
            congestion[t] = congestion.get(t, 0) + y
    kappa = max(congestion.values(), default=0)
    total = sum(duals)
    dual_bound = Fraction(total, kappa) if kappa else Fraction(0)
    return cover, objective, dual_bound


def randomized_rounding_hitting_set(hg: ConflictHypergraph, eps=Fraction(1, 10),
                                    seed=0, reps=5, cover=None) -> RepairSolution:
    """Round the fractional cover reps times and keep the smallest valid set.

    Each vertex is kept with probability min(1, d * weight); a deterministic
    pass then adds every vertex of any edge the sample missed, so the result
    always hits all edges.  Runs are seeded reproducibly from (seed, rep).
    Under the cover from lp_fractional_cover each edge's heaviest vertex has
    weight >= 1/|e| >= 1/d, so it is kept with probability 1 (up to float
    rounding) and the pass fires only on a caller-supplied cover.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if cover is None:
        cover = lp_fractional_cover(hg, eps)
    d = hg.d
    probs = {t: min(1.0, d * float(w)) for t, w in cover.weights.items() if w > 0}
    best = None
    for r in range(reps):
        rng = random.Random(1_000_003 * int(seed) + r)
        sample = {t for t, p in sorted(probs.items()) if rng.random() < p}
        picked = _take_whole_edges(hg.solving_edges, sample)
        if best is None or len(picked) < len(best):
            best = picked
    return RepairSolution(frozenset(best),
                          len(hg.vertices) - len(best), "randomized", False)
