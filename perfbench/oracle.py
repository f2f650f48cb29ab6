"""Independent answers for every benchmark op, computed without the program.

Facts are (tid, predicate, values) triples as gen.tid_facts gives them.
Under `fd key : rel : A -> B` each key group's conflict graph is complete
multipartite over its B-classes, so its minimum deletion is the group size
minus its largest class (Livshits, Kimelfeld, Roy, PODS 2018).  Under the
closed-customer join every conflict is an (order, closed customer) pair, a
star per customer, so each closed customer with an order costs exactly one
deletion.  Tiny instances and hypergraphs are solved by brute force.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def key_groups(facts):
    """{key: {B value: [tid, ...]}} over the rel facts."""
    groups = {}
    for tid, pred, values in facts:
        if pred == "rel":
            groups.setdefault(values[0], {}).setdefault(values[1], []).append(tid)
    return groups


def closed_stars(facts):
    """{closed customer tid: [order tid, ...]} for customers with orders."""
    closed = {values[0]: tid for tid, pred, values in facts
              if pred == "cust" and values[1] == "closed"}
    stars = {}
    for tid, pred, values in facts:
        if pred == "ord" and values[1] in closed:
            stars.setdefault(closed[values[1]], []).append(tid)
    return stars


def conflict_edges(facts):
    """Every minimal conflict as (constraint name, tid frozenset)."""
    edges = set()
    for classes in key_groups(facts).values():
        for b1, b2 in itertools.combinations(sorted(classes), 2):
            for t1 in classes[b1]:
                for t2 in classes[b2]:
                    edges.add(("key", frozenset((t1, t2))))
    for cust, orders in closed_stars(facts).items():
        edges.update(("closed", frozenset((o, cust))) for o in orders)
    return edges


def min_deletions(facts) -> int:
    """Size of a minimum deletion repair, by the closed forms."""
    fd = sum(sum(map(len, c.values())) - max(map(len, c.values()))
             for c in key_groups(facts).values())
    return fd + len(closed_stars(facts))


def endogenous_cost(facts, endogenous):
    """Minimum deletions when only `endogenous` tids may go; None if irreparable."""
    cost = 0
    for classes in key_groups(facts).values():
        pinned = [b for b, tids in classes.items()
                  if any(t not in endogenous for t in tids)]
        if len(pinned) > 1:
            return None
        size = sum(map(len, classes.values()))
        keep = len(classes[pinned[0]]) if pinned else max(map(len, classes.values()))
        cost += size - keep
    return cost


def hits_all(chosen, edges) -> bool:
    chosen = set(chosen)
    return all(chosen & e for e in edges)


def brute_min_cover(edges) -> int:
    """Smallest number of elements meeting every edge, by ascending size."""
    universe = sorted(set().union(*edges)) if edges else []
    index = {u: i for i, u in enumerate(universe)}
    masks = [sum(1 << index[u] for u in e) for e in edges]
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(range(len(universe)), k):
            m = sum(1 << i for i in combo)
            if all(m & e for e in masks):
                return k
    raise AssertionError("the whole universe meets every edge")


class TinyInstance:
    """Brute-force answers for an instance small enough to list its subsets."""

    def __init__(self, facts):
        self.facts = facts
        self.tids = [t for t, _, _ in facts]
        pos = {t: i for i, t in enumerate(self.tids)}
        self.edges = [e for _, e in conflict_edges(facts)]
        self.masks = [sum(1 << pos[t] for t in e) for e in self.edges]
        n = len(self.tids)
        consistent = [m for m in range(1 << n)
                      if not any(e & m == e for e in self.masks)]
        is_consistent = set(consistent)
        maximal = [m for m in consistent
                   if not any(m | 1 << b in is_consistent for b in range(n) if not m >> b & 1)]
        self.inconsistent = (1 << n) - len(consistent)
        self.s_repairs = sorted(sorted(self._tids(m)) for m in maximal)
        best = max(bin(m).count("1") for m in maximal)
        self.c_repairs = [r for r in self.s_repairs if len(r) == best]
        core = set(self.tids)
        for r in self.s_repairs:
            core &= set(r)
        self.jaccard = len(self.tids) - len(core)

    def _tids(self, mask):
        return [t for i, t in enumerate(self.tids) if mask >> i & 1]

    def min_blanked_cells(self) -> int:
        """Fewest (tid, position) cells to blank so no FD violation is left.

        Blanking A or B of a fact takes it out of every violation; blanking C
        changes nothing.  Tries cell sets by ascending size.
        """
        cells = sorted({(t, p) for e in self.edges for t in e for p in (1, 2)})
        for k in range(len(cells) + 1):
            for combo in itertools.combinations(cells, k):
                blanked = {t for t, _ in combo}
                if all(e & blanked for e in self.edges):
                    return k
        raise AssertionError("blanking every candidate cell repairs the instance")

    def blanking_repairs(self, changes) -> bool:
        """Whether blanking these cells leaves no violation."""
        gone = {c["tid"] for c in changes if c["position"] in (1, 2)}
        return all(e & gone for e in self.edges)


def check_fraction_cover(edges, weights, objective, dual_bound, eps, opt):
    """Problems with an LP answer, in exact rationals; empty when it is sound."""
    problems = []
    weights = {int(t): Fraction(w) for t, w in weights.items()}
    if any(sum(weights.get(t, 0) for t in e) < 1 for e in edges):
        problems.append("fractional cover leaves an edge below 1")
    if sum(weights.values(), Fraction(0)) != objective:
        problems.append("objective is not the weight total")
    if objective > (1 + eps) * dual_bound:
        problems.append("objective exceeds (1+eps) * dual_bound")
    if dual_bound > opt:
        problems.append("dual bound exceeds the integer optimum")
    return problems
