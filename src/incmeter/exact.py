"""Exact minimum hitting sets and repair enumeration over conflict hypergraphs.

The minimum is solved one connected component at a time.  A hypergraph
splits its solving edges once (see conflicts.split), and each
component, taken in order of its smallest element, gets its own
branch-and-bound tree: branch on a smallest unhit edge, try its vertices in
descending degree order, prune with a greedy disjoint-edge packing lower
bound.  A node makes one pass over the edges for both its pick and its
bound.  The tree is searched depth first from an explicit stack, so its
depth has no recursion limit.  With edge sizes bounded by d a tree has at
most d^k nodes for a component answer of size k, and the answer is the union
of the component answers.  One node budget counts the nodes of all trees
together, so pathological inputs end in a clean error instead of a silent
timeout or a wrong answer; the error brackets the whole optimum by the exact
sizes of the solved components and [packing, incumbent] of the rest.  A
component keeps its conflicts.Optimum and a hypergraph version its
conflicts.Answer, so a solve searches only what no solve before it did.
The endogenous minimum restricts and splits again only the components
holding an exogenous tid.  Plain edge sets are solved as the hypergraph
conflicts.hypergraph_from_edges makes.  Berge's rule builds all minimal
hitting sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .conflicts import (Answer, ConflictHypergraph, Optimum, _canonical, _first, antichain,
                        build_hypergraph, hypergraph_from_edges, split)
from .errors import ResourceLimitError
from .model import ConstraintSet, Instance

DEFAULT_NODE_BUDGET = 10_000_000
# most conflicting facts that repair enumeration and count_all range over
ENUM_LIMIT = 16


@dataclass(frozen=True)
class RepairSolution:
    """A deletion set and the size of the repair (facts kept) it induces."""

    deleted: frozenset[int]
    repair_size: int
    method: str
    optimal: bool

    def __getattr__(self, name):  # min_hitting_set's deleted set is built on first read
        if name != "deleted" or "_components" not in self.__dict__:
            raise AttributeError(name)
        self.__dict__[name] = frozenset().union(*(c.optimum.cover for c in self._components))
        return self.__dict__[name]

    def __reduce__(self):  # the value alone, not the components
        return RepairSolution, (self.deleted, self.repair_size, self.method, self.optimal)


@dataclass(frozen=True)
class RepairSet:
    """Enumerated repairs (kept tid sets); kind is "s" or "c"."""

    repairs: tuple[frozenset[int], ...]
    kind: str


def solve_min_hitting_set(edge_sets, node_budget=DEFAULT_NODE_BUDGET):
    """Minimum set of elements meeting every edge, or None for an empty edge.

    edge_sets is a sequence of element sets (any sortable hashable elements),
    made a hypergraph by hypergraph_from_edges, so superset edges are dropped,
    and solved by min_hitting_set.  Past node_budget search nodes, the
    ResourceLimitError's best_size and lower_bound bracket the whole optimum.
    """
    edges = [frozenset(e) for e in edge_sets]
    if frozenset() in edges:
        return None
    return min_hitting_set(hypergraph_from_edges(set().union(*edges), edges), node_budget).deleted


def _solve(components, node_budget):
    """The minimum cover of the components (see conflicts.split), and its nodes.

    Each component searched records its Optimum.  A recorded component is
    not searched again, but its recorded nodes still count.  Each search is
    deterministic, so the answer, the node count and an exhausted budget's
    bracket are those of a search of every component.
    """
    nodes = 0
    chosen = []
    for i, component in enumerate(components):
        if (optimum := component.optimum) is None or nodes + optimum.nodes > node_budget:
            # unrecorded, or recorded with more nodes than the budget has left:
            # search, so that the budget runs out where a fresh solve's does
            universe, masks = component.index
            try:
                found, taken = _branch_and_bound(masks, len(universe), node_budget - nodes)
            except ResourceLimitError as exc:
                # solved components are exact; the rest contribute [packing, incumbent]
                rest = [c.index[1] for c in components[i + 1:]]
                raise ResourceLimitError(
                    f"hitting-set search exceeded the node budget ({node_budget} nodes)",
                    best_size=len(chosen) + exc.best_size
                    + sum(_incumbent(m).bit_count() for m in rest),
                    lower_bound=len(chosen) + exc.lower_bound
                    + sum(_scan(m, 0)[1] for m in rest)) from None
            optimum = component.optimum = Optimum(tuple(universe[b] for b in _bits(found)), taken)
        nodes += optimum.nodes
        chosen.extend(optimum.cover)
    return frozenset(chosen), nodes


def _branch_and_bound(masks, n, budget):
    """Smallest cover of masks over n bits and the search nodes it took; past
    budget nodes, a ResourceLimitError brackets this component's optimum."""
    degree = [0] * n
    for m in masks:
        for b in _bits(m):
            degree[b] += 1
    best = _incumbent(masks)
    best_size = best.bit_count()
    nodes = 0
    stack = [(0, 0)]
    while stack:
        cover, size = stack.pop()
        nodes += 1
        if nodes > budget:
            # the root packing is certified: each disjoint edge needs its own element
            raise ResourceLimitError("node budget exceeded", best_size=best_size,
                                     lower_bound=_scan(masks, 0)[1])
        pick, packed = _scan(masks, cover)
        if pick == -1:
            if size < best_size:
                best, best_size = cover, size
        # an unhit edge makes packed at least 1
        elif size + packed < best_size:
            # branch order inside an edge: highest degree first, lower index on
            # ties; pushed last to first, so the first child is searched first
            for b in reversed(sorted(_bits(pick), key=lambda b: -degree[b])):
                stack.append((cover | (1 << b), size + 1))
    return best, nodes


def _incumbent(masks):
    """The smaller of the greedy and the whole-edge cover; greedy on ties."""
    return min(_greedy_cover(masks), _take_whole_edges(masks, 0), key=int.bit_count)


def _scan(masks, cover):
    """One pass over the masks that cover misses, in order: the first smallest
    of them (-1 if none), and how many of them a greedy pass takes pairwise
    disjoint, each needing its own element."""
    pick, pick_size = -1, 0
    packed = blocked = 0
    for m in masks:
        if m & cover:
            continue
        c = m.bit_count()
        if pick == -1 or c < pick_size:
            pick, pick_size = m, c
        if not m & blocked:
            packed += 1
            blocked |= m
    return pick, packed


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy_cover(masks):
    """Repeatedly take the vertex hitting the most unhit edges, the lowest on
    ties.  Each vertex's count of unhit edges falls as they get hit; the heap
    holds every count a vertex has had, and the stale ones are skipped."""
    counts, edges = {}, {}
    for m in masks:
        for b in _bits(m):
            counts[b] = counts.get(b, 0) + 1
            edges.setdefault(b, []).append(m)
    heap = [(-c, b) for b, c in counts.items()]
    heapq.heapify(heap)
    cover = 0
    while heap:
        c, b = heapq.heappop(heap)
        if -c == counts[b]:
            cover |= 1 << b
            for m in edges[b]:
                if m & cover == 1 << b:  # b hits m first
                    for v in _bits(m):
                        counts[v] -= 1
                        if v != b and counts[v]:
                            heapq.heappush(heap, (-counts[v], v))
    return cover


def _take_whole_edges(edges, cover):
    """Add every edge that cover does not meet yet, edges taken in order.

    The edges added are pairwise disjoint, so from an empty start the result
    is at most d times the optimum (local ratio, before its prune); rounding
    repairs a caller's cover with it.  Works on int masks and tid sets; a
    set passed as cover is extended in place.
    """
    for e in edges:
        if not e & cover:
            cover |= e
    return cover


def min_hitting_set(hg: ConflictHypergraph,
                    node_budget=DEFAULT_NODE_BUDGET) -> RepairSolution:
    """Smallest deletion set covering every solving edge; always optimal.

    This is the endogenous solve with every tid deletable, over hg's
    components.  hg keeps its Answer, and one derived from a solved parent
    searches only its parts.  A budget short of the nodes, or a part that
    runs out, walks every component, as a fresh search does.  The deletion
    set is built from the components on first read.
    """
    answer, size = hg._answer, None
    if answer is not None:
        nodes = answer.nodes - sum(c.optimum.nodes for c in answer.replaced)
        try:
            found, taken = _solve(answer.parts, node_budget - nodes)
        except ResourceLimitError:  # so does the search of every component below
            pass
        else:
            nodes += taken
            size = answer.size + len(found) - sum(len(c.optimum.cover) for c in answer.replaced)
    if size is None or nodes > node_budget:  # a part ran out, or the budget is short
        found, nodes = _solve(hg.components, node_budget)
        size = len(found)
    hg.__dict__["_answer"] = Answer(size, nodes)
    solution = object.__new__(RepairSolution)
    solution.__dict__.update(repair_size=hg.size - size, method="exact", optimal=True,
                             _components=hg.components)
    return solution


def min_endogenous_hitting_set(hg: ConflictHypergraph, endogenous,
                               node_budget=DEFAULT_NODE_BUDGET):
    """Like min_hitting_set but only endogenous tids may be deleted.

    Returns None when some conflict contains no endogenous tid at all, in
    which case no allowed deletion set can restore consistency.  A component
    of hg inside the partition is solved as it is, with any Optimum recorded
    on it; any other is restricted to the endogenous tids and split again.
    Restriction never merges components, so sorted by smallest element the
    parts are those a split of all restricted edges gives.
    """
    endogenous = frozenset(endogenous)
    parts = []
    for component in hg.components:
        if all(e <= endogenous for e in component):
            parts.append(component)
            continue
        edges = {e & endogenous for e in component}
        if frozenset() in edges:
            return None
        # edges by smallest element: each part's first edge holds its own (_first)
        parts += split(sorted(edges, key=min))
    parts.sort(key=_first)
    deleted = _solve(parts, node_budget)[0]
    return RepairSolution(deleted, hg.size - len(deleted), "exact", True)


def enumerate_s_repairs(instance: Instance, constraints: ConstraintSet,
                        limit=ENUM_LIMIT, hypergraph=None) -> RepairSet:
    """All subset-maximal consistent sub-instances, as kept tid sets.

    Exhaustive over the conflicting tids, hence gated by limit on their
    number.  Facts outside every conflict belong to every repair.
    """
    hg = hypergraph or build_hypergraph(instance, constraints)
    all_tids = set(instance.tids)
    repairs = [frozenset(all_tids - deleted)
               for deleted in enumerate_minimal_hitting_sets(hg.solving_edges, limit)]
    repairs.sort(key=_canonical)
    return RepairSet(tuple(repairs), "s")


def enumerate_minimal_hitting_sets(edge_sets, max_elements=22):
    """All minimal sets meeting every edge, canonically ordered.

    Berge's rule: of the minimal hitting sets of the edges so far, those
    meeting the next edge stay and the others grow by each of its elements;
    the antichain of these is the answer for one more edge.  Capped by the
    number of elements in the edges.
    """
    _gate_elements(edge_sets, max_elements)
    sets = [frozenset()]
    for e in edge_sets:
        sets = antichain([s for s in sets if s & e]
                         + [s | {v} for s in sets if not s & e for v in e])
    return tuple(sorted(sets, key=lambda s: (len(s), _canonical(s))))


def _gate_elements(edge_sets, max_elements):
    union = set().union(*edge_sets)
    if len(union) > max_elements:
        raise ResourceLimitError(
            f"{len(union)} elements exceed the enumeration limit {max_elements}")


def enumerate_c_repairs(instance: Instance, constraints: ConstraintSet,
                        limit=ENUM_LIMIT, hypergraph=None) -> RepairSet:
    """The maximum-cardinality repairs: largest kept sets among the maximal ones."""
    s = enumerate_s_repairs(instance, constraints, limit, hypergraph)
    top = max((len(r) for r in s.repairs), default=0)
    return RepairSet(tuple(r for r in s.repairs if len(r) == top), "c")
