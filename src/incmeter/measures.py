"""Inconsistency measures built on minimum deletion repairs.

The flagship measure is the share of facts a smallest consistency-restoring
deletion removes.  Because conflicts are an antichain, a sub-instance is
consistent exactly when its complement hits every conflict, so the ratio is
|minimum hitting set| / |D|; the subset-maximal and the maximum-cardinality
reading of "repair" give the same number.  Variant measures count repairs or
consistent subsets, or take the Jaccard distance to the repair intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import approx, exact
from .conflicts import Component, build_hypergraph
from .errors import InputError
from .model import ConstraintSet, Instance


@dataclass(frozen=True)
class MeasureReport:
    """A measure value as the ratio of its defining quantities.

    numerator/denominator keep the raw counts (not reduced), value is the
    exact rational, exact says whether the numerator is certified optimal,
    and witness carries the solver artifact the number came from.
    """

    kind: str
    numerator: int
    denominator: int
    exact: bool
    method: str
    witness: object = None
    normalization: str | None = None
    note: str | None = None

    @property
    def value(self) -> Fraction:
        if self.denominator == 0:
            return Fraction(0)
        return Fraction(self.numerator, self.denominator)


def _empty_report(kind, witness=exact.RepairSolution(frozenset(), 0, "exact", True),
                  method="exact", normalization=None) -> MeasureReport:
    # report 0/1 rather than 0/0 so the value is a well-formed fraction
    return MeasureReport(kind, 0, 1, True, method, witness, normalization=normalization,
                         note="empty instance is trivially consistent")


def inc_deg_g3(instance: Instance, constraints: ConstraintSet, hypergraph=None,
               solver="exact", eps=Fraction(1, 10), seed=0, reps=5,
               node_budget=exact.DEFAULT_NODE_BUDGET) -> MeasureReport:
    """Fraction of facts removed by a smallest consistency-restoring deletion.

    solver "exact" certifies the optimum; "local-ratio" (within a factor d)
    and "randomized" (in expectation) return minimal deletion sets.
    """
    hg = hypergraph if hypergraph is not None else build_hypergraph(instance, constraints)
    return _g3(hg, len(instance), solver, eps, seed, reps, node_budget)


def _g3(hg, n, solver="exact", eps=Fraction(1, 10), seed=0, reps=5,
        node_budget=exact.DEFAULT_NODE_BUDGET) -> MeasureReport:
    """inc_deg_g3 of an n-fact instance whose conflicts are hg; an exact
    report is kept on hg, keyed by (n, node_budget), for a repeat to read."""
    if n == 0:
        return _empty_report("g3")
    if solver == "exact":
        if hg._report is not None and hg._report[0] == (n, node_budget):
            return hg._report[1]
        sol = exact.min_hitting_set(hg, node_budget)
    elif solver == "local-ratio":
        sol = approx.local_ratio_hitting_set(hg)
    elif solver == "randomized":
        sol = approx.randomized_rounding_hitting_set(hg, eps, seed, reps)
    else:
        raise InputError(f"unknown solver {solver!r}")
    # the deleted count, read without building an exact answer's deletion set
    report = MeasureReport("g3", hg.size - sol.repair_size, n, sol.optimal, sol.method, sol)
    if solver == "exact":
        hg.__dict__["_report"] = ((n, node_budget), report)
    return report


def inc_deg_g3_endogenous(instance: Instance, constraints: ConstraintSet,
                          hypergraph=None, normalization="db_size",
                          node_budget=exact.DEFAULT_NODE_BUDGET) -> MeasureReport:
    """Like inc_deg_g3, but only endogenous facts may be deleted.

    When some conflict contains no endogenous fact no allowed deletion set
    restores consistency, and the measure is pinned to 1.  normalization
    picks the denominator: the full instance size or the endogenous count.
    """
    if normalization not in ("db_size", "endogenous_size"):
        raise InputError(f"unknown normalization {normalization!r}")
    hg = hypergraph if hypergraph is not None else build_hypergraph(instance, constraints)
    n = len(instance)
    endo = instance.effective_endogenous()
    if n == 0:
        return _empty_report("g3_endogenous", normalization=normalization)
    den = n if normalization == "db_size" else len(endo) or 1  # 1 for an emptied partition
    sol = exact.min_endogenous_hitting_set(hg, endo, node_budget)
    if sol is None:
        return MeasureReport(
            "g3_endogenous", den, den, True, "exact", None,
            normalization=normalization,
            note="some conflict contains no endogenous fact; "
                 "no allowed deletion restores consistency")
    return MeasureReport("g3_endogenous", len(sol.deleted), den, True, "exact",
                         sol, normalization=normalization)


def measure_count_srep(instance: Instance, constraints: ConstraintSet,
                       limit=exact.ENUM_LIMIT, hypergraph=None) -> MeasureReport:
    """Number of subset-maximal repairs over the number of sub-instances."""
    reps = exact.enumerate_s_repairs(instance, constraints, limit, hypergraph)
    return MeasureReport("count_srep", len(reps.repairs), 2 ** len(instance),
                         True, "enumeration", reps)


def measure_count_all(instance: Instance, constraints: ConstraintSet,
                      limit=exact.ENUM_LIMIT, hypergraph=None) -> MeasureReport:
    """Share of sub-instances that are inconsistent.

    A sub-instance is inconsistent exactly when its part inside the a
    conflicting tids holds some conflict whole, so a superset-closure sweep
    over those tids counts 2^(n-a) sub-instances per inconsistent mask; limit caps a.
    """
    n = len(instance)
    hg = hypergraph if hypergraph is not None else build_hypergraph(instance, constraints)
    exact._gate_elements(hg.solving_edges, limit)
    universe, masks = Component(hg.solving_edges).index
    a = len(universe)
    bad = bytearray(1 << a)
    for m in masks:
        bad[m] = 1
    for b in range(a):
        bit = 1 << b
        for m in range(1 << a):
            if m & bit and bad[m ^ bit]:
                bad[m] = 1
    return MeasureReport("count_all", sum(bad) << (n - a), 1 << n, True, "enumeration")


def measure_jaccard(instance: Instance, constraints: ConstraintSet,
                    limit=exact.ENUM_LIMIT, hypergraph=None) -> MeasureReport:
    """Jaccard distance between the instance and what all repairs agree on.

    The solving edges are an antichain, so each tid v of an edge e lies in a
    minimal hitting set: (V - e) | {v} hits every edge, and any minimal one
    inside it keeps v to hit e.  So the repairs agree on the conflict-free facts.
    This enumerates nothing; limit is unused: perfbench's traced_alt_measures passes it.
    """
    n = len(instance)
    hg = hypergraph if hypergraph is not None else build_hypergraph(instance, constraints)
    conflicting = set().union(*hg.solving_edges)
    if n == 0:
        return _empty_report("jaccard", None, "enumeration")
    return MeasureReport("jaccard", len(conflicting), n, True, "enumeration")
