"""Conflict hypergraphs: subset-minimal violation sets of an instance.

Vertices are tids.  Every satisfying assignment of a constraint contributes
its image (the set of matched tids) as a candidate edge; a candidate is kept
only if it is subset-minimal, i.e. no proper subset still violates the same
constraint.  A violating subset of an image contains the image of a
satisfying assignment, so the minimal images are the antichain of all images.

Deleting one vertex from every solving edge is exactly what a deletion
repair must do, so minimum hitting sets of the solving edges are the object
every measure in this package is built on; an exact solve records them as
each component's Optimum (cover, nodes) and each hypergraph version's Answer
(size, nodes, parts).

A build keeps each constraint's minimal images as plain tid sets: an
FD-shaped constraint's key-group pairs (evaluation._key_groups), any
other's antichain of joined images (evaluation.images).  The solving edges
are their antichain, sorted once in canonical order, and split into
components in one union-find pass, except that a single FD's key groups are
its components as they are.  Given its components, as that build and every
derived version are, a hypergraph reads its solving edges from them.  The
sets are its value: labeled edges are built from them only when read, and
a derived version's sets by a build of its instance.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, groupby
from typing import NamedTuple

from . import evaluation
from .errors import InputError
from .model import ConstraintSet, FactIndex, Instance, _reroot


@dataclass(frozen=True, slots=True)
class Hyperedge:
    """A minimal violation set, labeled with the constraint it violates."""

    tids: frozenset[int]
    constraint: str

    def key(self):
        return _canonical(self.tids)


class Optimum(NamedTuple):
    """A solved component's minimum cover, sorted, and the search nodes it
    took: one for a component closed by formula (see exact._closed_cover)."""

    cover: tuple
    nodes: int


class Component(tuple):
    """Edges, in their given order: a split's, or one key group's pairs in
    canonical order (see build_hypergraph).  index, built on first use and
    kept, is their sorted elements and their distinct bit masks over those,
    sorted; a solve that closes the component by formula does not build it."""

    optimum: Optimum | None = None  # set by a solve, closed or searched

    @cached_property
    def index(self) -> tuple[list, list[int]]:
        universe = sorted(set().union(*self))
        bit = {u: 1 << i for i, u in enumerate(universe)}
        return universe, sorted({sum(map(bit.__getitem__, e)) for e in self})


class Answer(NamedTuple):
    """A hypergraph version's minimum cover size and search nodes, less those
    of parts, its components still to solve; with no parts it is settled,
    and derive hands it on (see derive)."""

    size: int
    nodes: int
    parts: tuple[Component, ...] = ()


@dataclass(frozen=True)
class ConflictHypergraph:
    """All minimal violations of an instance, in canonical order.

    Its value is vertices and _sets, each constraint's name and its minimal
    tid sets, in constraint order: what the constructor takes and a pickle
    carries.  edges, one labeled entry per (constraint, tid set) pair in
    canonical order, is built from _sets on first read, and with vertices
    it is what equality, hashing and repr read.  Only the conflicts
    command reads it otherwise.  One that derive makes reads its _sets
    from a build of _instance, the instance version it was derived with,
    and builds its vertex set on first read from that version's tid map.

    solving_edges, the antichain of the sets across constraints (a set
    that hits it hits every edge), d, the largest solving edge size (0 when
    the instance is consistent), components, the solving edges split for
    every solver, _solving_count, their number, and size, that of the
    vertices, are computed on first read and kept.  A build of a single FD
    is given its components (see build_hypergraph).  One that an update
    derives (see derive) is given the last three, the components the delta
    did not reach being the parent's own, optimum and all.  One given its
    components reads its solving edges from them, sorted.  _answer is its
    Answer, from derive or exact.min_hitting_set, and _report its exact
    MeasureReport from measures._g3, keyed by (n, node_budget).  _lookups
    is the map of each conflicting tid to its component, and only this
    module reads it.  Built once from the components of a version that no
    derive made, it is handed on and moved back as a tid map is (see
    model._reroot), so a version kept alive keeps every later one alive.
    The join index the edges are found with is the instance's own.
    """

    vertices: frozenset[int]
    edges: tuple[Hyperedge, ...]
    _lookups = _link = _instance = _constraints = _answer = _report = None  # not fields

    def __init__(self, vertices, sets):  # the labeled edges are built on first read
        self.__dict__.update(vertices=frozenset(vertices), _sets=sets)

    def __getattr__(self, name):  # labeled edges, or a derived version's sets or vertex set
        if name == "edges":
            value = tuple(Hyperedge(s, label) for label, sets in self._sets
                          for s in sorted(sets, key=_canonical))
        elif name == "_sets" and self._instance is not None:
            value = build_hypergraph(self._instance, self._constraints)._sets
        elif name == "vertices" and self._instance is not None:
            value = frozenset(self._instance._live())
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def __copy__(self):  # a copy of the version that holds the maps would share them
        return self

    def __reduce__(self):  # the value alone, not the versions its link reaches
        return ConflictHypergraph, (self.vertices, self._sets)

    @property
    def is_consistent(self) -> bool:
        return not self.solving_edges

    @cached_property
    def solving_edges(self) -> tuple[frozenset[int], ...]:
        if "components" in self.__dict__:  # given: by a derive or a single FD's build
            sets = chain.from_iterable(self.components)
        else:
            sets = antichain(chain.from_iterable(sets for _, sets in self._sets))
        return tuple(sorted(sets, key=_canonical))

    @cached_property
    def size(self) -> int:
        return len(self.vertices)

    @cached_property
    def d(self) -> int:
        return max(map(len, self.solving_edges), default=0)

    @cached_property
    def components(self) -> list[Component]:
        """The solving edges split into connected components (see split)."""
        return split(self.solving_edges)

    @cached_property
    def _solving_count(self) -> int:  # a derived version is given it (see derive)
        return sum(map(len, self.components))


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
    smallest element; each keeps its edges in their given order.

    One union-find pass: each element maps to the member list of its
    component, headed by its smallest member.  An edge merges the lists of
    its elements, the shorter into the longer, whose members it relabels,
    so an element is relabeled at most log2(n) times.  A second pass files
    each edge under the head of its list.
    """
    members = {}
    for e in edges:
        big = None
        for v in e:
            m = members.get(v)
            if m is None:
                m = members[v] = [v]
            if big is None:
                big = m
            elif m is not big:
                if len(m) > len(big):
                    big, m = m, big
                big += m
                for u in m:
                    members[u] = big
                if m[0] < big[0]:  # the smaller head leads the merged list
                    at = len(big) - len(m)
                    big[0], big[at] = big[at], big[0]
    groups = {}
    for e in edges:
        for v in e:  # any element names the component
            break
        groups.setdefault(members[v][0], []).append(e)
    return [Component(groups[head]) for head in sorted(groups)]


def assemble(vertices, hyperedges, constraint_order) -> ConflictHypergraph:
    """The hypergraph of these labeled edges, their tid sets grouped by constraint.

    constraint_order names every edge's constraint, each once; edges go by
    it, then by their tids.  Edges are assumed subset-minimal within their
    own constraint; supersets across constraints are left to solving_edges.
    """
    sets = {name: set() for name in constraint_order}
    for e in hyperedges:
        sets[e.constraint].add(e.tids)
    return ConflictHypergraph(vertices, tuple(sets.items()))


def _canonical(s):
    """The canonical sort key of a tid set: its sorted tids."""
    return tuple(sorted(s))


def _first(component):
    """A component's smallest element, which its canonically first edge holds."""
    return min(component[0])


def build_hypergraph(instance: Instance, constraints: ConstraintSet) -> ConflictHypergraph:
    """Enumerate all minimal violation sets of the instance, kept unlabeled:
    an FD-shaped constraint's pairs from its key groups
    (evaluation._key_groups), already an antichain, and any other
    constraint's antichain of images (evaluation.images).

    A single FD's key groups are its components as they are, each group's
    pairs in canonical order and the groups by smallest tid.  No canonical
    sort of all the pairs and no split runs unless the solving or the
    labeled edges are read.
    """
    index = instance._live_index()
    sets = []
    for dc in constraints:
        groups = evaluation._key_groups(index, dc)
        sets.append((dc.name, antichain(evaluation.images(index, dc)) if groups is None
                     else list(chain.from_iterable(groups))))
    hg = ConflictHypergraph(instance.tids, tuple(sets))
    if len(sets) == 1 and groups is not None:
        hg.__dict__["components"] = sorted(map(Component, groups), key=_first)
    return hg


def derive(hg: ConflictHypergraph, instance: Instance, inserted, deleted,
           constraints: ConstraintSet) -> ConflictHypergraph:
    """The hypergraph after a delta, derived from hg, the hypergraph before it.

    instance is the instance after the delta.  inserted holds the facts the
    delta inserts, with fresh tids, and deleted is the frozenset of the tids
    it deletes.  New edges are each constraint's minimal violation sets
    among the images that hold an inserted tid (see evaluation.images),
    joined in instance's fact index and seeded from one FactIndex of the
    inserted facts for all constraints; a delta that inserts nothing joins
    nothing.  Only the solving edges are kept, and only what the delta
    reaches is touched:
    - the components that hold a deleted tid or meet a new edge are
      reached; the rest are handed on as they are, optimum and all;
    - the solving edges through a deleted tid go, and the others stay
      solving, since every new edge holds an inserted tid;
    - a new edge is solving if it holds no other new edge and no surviving
      solving edge of a reached component: a surviving solving edge it
      held would meet it, so its component is reached, and a surviving
      edge it held would hold a surviving solving edge;
    - the reached components are split again with the new solving edges,
      so the components hold every solving edge and the result reads its
      solving edges from them.
    Surviving components keep their canonical places, and the new ones are
    put in by key.  hg's settled Answer goes on less the reached components'
    cover sizes and nodes, the new ones its parts.  hg's tid -> component
    map is moved to the result, and hg links to it (see ConflictHypergraph).
    """
    _reroot(hg, _shift_lookups, "_lookups")
    if hg._lookups is None:  # built once per hypergraph that no derive made
        hg.__dict__["_lookups"] = {}
        _shift_lookups(hg._lookups, (), hg.components)
    owner = hg._lookups
    found = []
    if inserted:  # a delta that inserts nothing joins nothing
        index, seed = instance._live_index(), FactIndex(inserted)
        for dc in constraints:
            found += antichain(evaluation.images(index, dc, seed))
    hit = {}
    for t in chain(deleted, *found):
        c = owner.get(t)
        if c is not None:
            hit[_first(c)] = c
    out = tuple(hit.values())
    kept = [s for c in out for s in c if s.isdisjoint(deleted)]
    below = set(kept) if found else ()
    new_solving = [e for e in antichain(found) if not any(
        frozenset(s) in below for k in range(1, len(e)) for s in combinations(e, k))]
    # with no new solving edge each part is cut from one component, in its canonical order
    parts = tuple(split(sorted(kept + new_solving, key=_canonical) if new_solving else kept))
    _shift_lookups(owner, out, parts)
    derived = object.__new__(ConflictHypergraph)  # vertex set and sets built on first read
    derived.__dict__.update(size=len(instance), _instance=instance, _constraints=constraints,
                            components=_splice(hg.components, out, parts),
                            _solving_count=hg._solving_count - sum(map(len, out))
                            + sum(map(len, parts)), _lookups=owner)
    if hg._answer is not None and not hg._answer.parts:  # settled
        derived.__dict__["_answer"] = Answer(
            hg._answer.size - sum(len(c.optimum.cover) for c in out),
            hg._answer.nodes - sum(c.optimum.nodes for c in out), parts)
    hg.__dict__.update(_lookups=None, _link=(derived, out, parts))
    return derived


def _shift_lookups(owner, out, into) -> None:
    """Take the components out out of owner, the tid -> component map, and
    put the components into in."""
    for c in out:
        for t in set().union(*c):
            del owner[t]
    for c in into:
        owner.update(dict.fromkeys(set().union(*c), c))


def _splice(components, drop, add):
    """A copy of components, in order of smallest element, less those in drop
    and with those in add put in by it.  Each is found by bisection, as
    model._shift finds a fact in its bucket.  Smallest elements are distinct,
    but a component added may have that of one dropped, so drops go first."""
    out = list(components)
    for c in drop:
        del out[bisect_left(out, _first(c), key=_first)]
    for c in add:
        insort(out, c, key=_first)
    return out


def hypergraph_from_edges(vertices, edge_sets) -> ConflictHypergraph:
    """Build a hypergraph directly from tid sets (synthetic/benchmark input).
    The sets are only deduplicated: a superset edge stays among its edges."""
    vertices = frozenset(vertices)
    sets = set()
    for e in edge_sets:
        s = frozenset(e)
        if not s:
            raise InputError("empty edge")
        if not s <= vertices:
            raise InputError(f"edge {sorted(s)} not within vertex set")
        sets.add(s)
    return ConflictHypergraph(vertices, (("synthetic", sets),))


def vertex_degrees(hg: ConflictHypergraph) -> dict[int, int]:
    """Number of solving edges through each vertex; all vertices included."""
    degrees = dict.fromkeys(sorted(hg.vertices), 0)
    degrees.update(Counter(chain.from_iterable(hg.solving_edges)))  # keeps the key order
    return degrees
