"""Conflict hypergraphs: subset-minimal violation sets of an instance.

Vertices are tids.  Every satisfying assignment of a constraint contributes
its image (the set of matched tids) as a candidate edge; a candidate is kept
only if it is subset-minimal, i.e. no proper subset still violates the same
constraint.  A violating subset of an image contains the image of a
satisfying assignment, so the minimal images are the antichain of all images.

Deleting one vertex from every solving edge is exactly what a deletion
repair must do, so minimum hitting sets of the solving edges are the object
every measure in this package is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

from . import evaluation
from .errors import InputError
from .model import ConstraintSet, DenialConstraint, Instance


@dataclass(frozen=True, slots=True)
class Hyperedge:
    """A minimal violation set, labeled with the constraint it violates."""

    tids: frozenset[int]
    constraint: str

    def key(self):
        return tuple(sorted(self.tids))


class Component(tuple):
    """Edges, in their given order.  index, built on first use and kept, is
    their sorted elements and their distinct bit masks over those, sorted."""

    @cached_property
    def index(self) -> tuple[list, list[int]]:
        universe = sorted(set().union(*self))
        bit = {u: 1 << i for i, u in enumerate(universe)}
        return universe, sorted({sum(bit[u] for u in e) for e in self})


@dataclass(frozen=True)
class ConflictHypergraph:
    """All minimal violations of an instance, in canonical order.

    edges keeps one entry per (constraint, tid set) pair.  solving_edges is
    the deduplicated antichain across constraints: supersets of other edges
    are dropped since any hitting set already covers them.  d is the largest
    solving edge size (0 when the instance is consistent).

    Three more members carry work for later calls and take no part in
    equality.  components splits the solving edges on first use and keeps
    the parts for every solver.  _optima maps each component to its
    minimum cover and search nodes, from this hypergraph's solve or, until
    then, from its parent's (see exact.min_hitting_set).  _index is the
    evaluation.FactIndex the edges were found with, None for a hypergraph
    built from edge sets; an update derives the next index from it (see
    updates.incremental_hypergraph).
    """

    vertices: frozenset[int]
    edges: tuple[Hyperedge, ...]
    solving_edges: tuple[frozenset[int], ...]
    d: int
    _optima: dict | None = field(default=None, init=False, compare=False, repr=False,
                                 hash=False)
    _index: evaluation.FactIndex | None = field(default=None, init=False, compare=False,
                                                repr=False, hash=False)

    @property
    def is_consistent(self) -> bool:
        return not self.solving_edges

    @cached_property
    def components(self) -> list[Component]:
        """The solving edges split into connected components (see split)."""
        return split(self.solving_edges)

    def dump_lines(self) -> list[str]:
        """Diagnostic dump: one line per edge, `<constraint>: tid,tid,...`."""
        return [f"{e.constraint}: {','.join(str(t) for t in e.key())}"
                for e in self.edges]


def antichain(sets) -> list:
    """The subset-minimal members of a collection of sets, duplicates dropped.

    Sets are taken by size.  The smallest have no proper subset among them
    and are all kept.  Each set kept is filed under its smallest element once
    a larger size follows.  A proper subset of s holds its own smallest
    element, which is in s, so s is checked only against the sets filed
    under its elements.
    """
    by_min: dict = {}
    kept: list = []
    last: list = []
    for _, group in groupby(sorted(set(sets), key=len), key=len):
        for s in last:
            by_min.setdefault(min(s), []).append(s)
        if kept:
            group = [s for s in group
                     if not any(o < s for t in s for o in by_min.get(t, ()))]
        last = list(group)
        kept += last
    return kept


def split(edges) -> list[Component]:
    """The connected components of a sequence of distinct edges, in order of
    smallest element; each keeps its edges in their given order."""
    incident = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)
    seen = set()
    components = []
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
        components.append(Component([edges[i] for i in sorted(component)]))
    return components


def constraint_edges(index, dc: DenialConstraint, inserted=None, known=()) -> list[Hyperedge]:
    """Minimal violation sets of dc: the antichain of known edges and the
    images of dc's satisfying assignments, or, given inserted facts, of those
    that match one of them (see evaluation.images).

    known must hold dc's minimal violation sets among the facts not inserted.
    """
    images = evaluation.images(index, dc, inserted)
    images.update(known)
    return [Hyperedge(s, dc.name) for s in antichain(images)]


def assemble(vertices, hyperedges, constraint_order) -> ConflictHypergraph:
    """Canonicalize edges and compute the solving antichain and d.

    constraint_order names every edge's constraint, each once; edges go by
    it, then by their tids.  Edges are assumed subset-minimal within their
    own constraint; supersets across constraints (and duplicates) are
    dropped from solving_edges here.
    """
    order = {name: i for i, name in enumerate(constraint_order)}
    edges = tuple(sorted(set(hyperedges), key=lambda e: (order[e.constraint], e.key())))
    solving = sorted(antichain(e.tids for e in edges), key=lambda s: tuple(sorted(s)))
    d = max((len(s) for s in solving), default=0)
    return ConflictHypergraph(frozenset(vertices), edges, tuple(solving), d)


def build_hypergraph(instance: Instance, constraints: ConstraintSet) -> ConflictHypergraph:
    """Enumerate all minimal violation sets of the instance."""
    index = evaluation.FactIndex(instance.facts)
    hyperedges = []
    for dc in constraints:
        hyperedges += constraint_edges(index, dc)
    return _carry(assemble(instance.tids, hyperedges, [c.name for c in constraints]), index)


def _carry(hg: ConflictHypergraph, index, optima=None) -> ConflictHypergraph:
    """hg with the index it was built with and the component optima handed to it."""
    object.__setattr__(hg, "_index", index)
    object.__setattr__(hg, "_optima", optima)
    return hg


def hypergraph_from_edges(vertices, edge_sets) -> ConflictHypergraph:
    """Build a hypergraph directly from tid sets (synthetic/benchmark input)."""
    vertices = frozenset(vertices)
    sets = []
    for e in edge_sets:
        s = frozenset(e)
        if not s:
            raise InputError("empty edge")
        if not s <= vertices:
            raise InputError(f"edge {sorted(s)} not within vertex set")
        sets.append(Hyperedge(s, "synthetic"))
    return assemble(vertices, sets, ["synthetic"])


def vertex_degrees(hg: ConflictHypergraph) -> dict[int, int]:
    """Number of solving edges through each vertex; all vertices included."""
    degrees = {t: 0 for t in sorted(hg.vertices)}
    for s in hg.solving_edges:
        for t in s:
            degrees[t] += 1
    return degrees
