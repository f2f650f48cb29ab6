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
(size, nodes, replaced, parts).

A build keeps each constraint's minimal images as plain tid sets: an
FD-shaped constraint's key-group pairs (evaluation._key_groups), any
other's antichain of joined images (evaluation.images).  The solving edges
are their antichain, which one constraint's sets already are, sorted once
in canonical order, and split into components in one union-find pass,
except that a single FD's key groups are its components as they are.  The
labeled edges are built from the sets only when read, and those of a
version an update derives from its tid -> edges map.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
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
    """A hypergraph version's minimum cover size and its components' search
    nodes.  One derived from a solved parent is given the parent's, with the
    parent's components that the delta replaced and the new parts."""

    size: int
    nodes: int
    replaced: tuple[Component, ...] = ()
    parts: tuple[Component, ...] = ()


@dataclass(frozen=True)
class ConflictHypergraph:
    """All minimal violations of an instance, in canonical order.

    edges keeps one entry per (constraint, tid set) pair.  With vertices,
    these are the fields: the hypergraph's value, and all equality compares.
    One that build_hypergraph or hypergraph_from_edges makes keeps instead
    _sets, each constraint's name and tid sets, and one that derive makes
    its tid -> edges map; either builds its labeled edges on first read.
    Only the conflicts command, equality, hashing, pickling and the first
    derive from a build read them.

    solving_edges, the antichain of the edges' tid sets across constraints
    (a set that hits it hits every edge), d, the largest solving edge size
    (0 when the instance is consistent), components, the solving edges
    split for every solver, _solving_count, their number, and size, that
    of the vertices, are computed on first read and kept.  A build of a
    single FD is given its components (see build_hypergraph).  One that an
    update derives (see derive) is given the last three, the components
    the delta did not reach being the parent's own, optimum and all.  It
    builds its vertex set on first read from the tid map of _instance, the
    instance version it was derived with.  _answer is its Answer once
    exact.min_hitting_set solves it, and _report its exact MeasureReport
    from measures._g3, keyed by (n, node_budget).  _lookups maps
    each conflicting tid to its edges and to its component, and only this
    module reads it.  Built once from the edges of a hypergraph that no
    derive made, it is handed on and moved back as an instance's tid map is
    (see model._reroot), so a version kept alive keeps every later one
    alive.  The join index the edges are found with is the instance's own.
    """

    vertices: frozenset[int]
    edges: tuple[Hyperedge, ...]
    _lookups = _link = _instance = _constraints = _answer = _report = _sets = None  # not fields
    _minimal = False  # whether _sets is one constraint's antichain, as built

    def __getattr__(self, name):  # labeled edges or a derived version's vertex set, on first read
        if name == "edges" and self._sets is not None:
            value = tuple(Hyperedge(s, label) for label, sets in self._sets
                          for s in sorted(sets, key=_canonical))
        elif name == "edges" and self._instance is not None:
            _reroot(self, _shift_lookups, "_lookups")
            value = tuple(sorted(set().union(*self._lookups[0].values()),
                                 key=_edge_key(c.name for c in self._constraints)))
        elif name == "vertices" and self._instance is not None:
            value = frozenset(self._instance._live())
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def __copy__(self):  # a copy of the version that holds the maps would share them
        return self

    def __reduce__(self):  # the value alone, not the versions its link reaches
        return ConflictHypergraph, (self.vertices, self.edges)

    @property
    def is_consistent(self) -> bool:
        return not self.solving_edges

    @cached_property
    def solving_edges(self) -> tuple[frozenset[int], ...]:
        if self._sets is None:  # given labeled edges: by assemble, a copy or a derive
            sets = antichain(e.tids for e in self.edges)
        elif self._minimal:
            sets = self._sets[0][1]
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
    """The hypergraph of these edges, deduplicated in canonical order.

    constraint_order names every edge's constraint, each once; edges go by
    it, then by their tids.  Edges are assumed subset-minimal within their
    own constraint; supersets across constraints are left to solving_edges.
    """
    edges = tuple(sorted(set(hyperedges), key=_edge_key(constraint_order)))
    return ConflictHypergraph(frozenset(vertices), edges)


def _edge_key(constraint_order):
    """The canonical sort key of a labeled edge: its constraint's place in
    constraint_order, then its sorted tids."""
    order = {name: i for i, name in enumerate(constraint_order)}
    return lambda e: (order[e.constraint], _canonical(e.tids))


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
    hg = _built(instance.tids, tuple(sets), len(sets) == 1)
    if len(sets) == 1 and groups is not None:
        hg.__dict__["components"] = sorted(map(Component, groups), key=_first)
    return hg


def _built(vertices, sets, minimal) -> ConflictHypergraph:
    """The hypergraph of sets, (constraint name, tid sets) pairs in constraint
    order; minimal says the pairs are one, whose sets are an antichain."""
    hg = object.__new__(ConflictHypergraph)  # its labeled edges are built on first read
    hg.__dict__.update(vertices=frozenset(vertices), _sets=sets, _minimal=minimal)
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
    nothing.  Only what the delta reaches is touched:
    - the edges through a deleted tid go; an edge found stays out if an edge
      of its constraint that survives is a proper subset of it;
    - the surviving solving edges stay solving, since every new edge holds
      an inserted tid; a new edge is solving if it holds no surviving edge
      and no other new edge;
    - the components that hold a deleted tid or meet a new solving edge are
      split again with the new solving edges, and the rest are handed on as
      they are, optimum and all, so the components hold every solving edge.
    Surviving components keep their canonical places, and the new ones are
    put in by key.  hg's tid -> edges and tid -> component maps are moved to
    the result, which builds its labeled edges from them when read, and hg
    links to it (see ConflictHypergraph).
    """
    _reroot(hg, _shift_lookups, "_lookups")
    if hg._lookups is None:  # built once per hypergraph that no derive made
        hg.__dict__["_lookups"] = ({}, {})
        _shift_lookups(hg._lookups, ((), (), ()), ((), hg.edges, hg.components))
    incident, owner = hg._lookups
    found = []
    if inserted:  # a delta that inserts nothing joins nothing
        index, seed = instance._live_index(), FactIndex(inserted)
        for dc in constraints:
            found += [Hyperedge(s, dc.name)
                      for s in antichain(evaluation.images(index, dc, inserted, seed))]
    dropped = set().union(*[incident.get(t, ()) for t in deleted])
    # a dropped edge holds a deleted tid, so it is a subset of no found edge
    added, fresh = [], set()
    for e in found:
        below = {o.constraint for t in e.tids for o in incident.get(t, ()) if o.tids < e.tids}
        if e.constraint not in below:
            added.append(e)
            if not below:
                fresh.add(e.tids)
    new_solving = antichain(fresh)
    hit = {}
    for t in chain(deleted, *new_solving):
        c = owner.get(t)
        if c is not None:
            hit[_first(c)] = c
    kept = [s for c in hit.values() for s in c if s.isdisjoint(deleted)]
    parts = tuple(split(sorted(kept + new_solving, key=_canonical)))
    out, into = (deleted, dropped, tuple(hit.values())), ({f.tid for f in inserted}, added, parts)
    _shift_lookups(hg._lookups, out, into)
    derived = object.__new__(ConflictHypergraph)  # vertex set and edges built on first read
    derived.__dict__.update(size=len(instance), _instance=instance, _constraints=constraints,
                            components=_splice(hg.components, out[2], parts, _first),
                            _solving_count=hg._solving_count - sum(map(len, out[2]))
                            + sum(map(len, parts)), _lookups=hg._lookups)
    if hg._answer is not None and not (hg._answer.replaced or hg._answer.parts):  # solved
        derived.__dict__["_answer"] = hg._answer._replace(replaced=out[2], parts=parts)
    hg.__dict__.update(_lookups=None, _link=(derived, out, into))
    return derived


def _shift_lookups(maps, out, into) -> None:
    """Take out's labeled edges and components out of maps, the tid -> edges
    and tid -> component maps, and put into's in.  Each is a (tids, edges,
    components) triple, its edges all those through its tids, whose edge
    sets are thus popped whole."""
    (incident, owner), (tids, edges, components) = maps, out
    for t in tids:
        incident.pop(t, None)
    for e in edges:
        for t in e.tids.difference(tids):
            incident[t].remove(e)
            if not incident[t]:
                del incident[t]
    for t in set().union(*chain.from_iterable(components)):
        del owner[t]
    for e in into[1]:
        for t in e.tids:
            incident.setdefault(t, set()).add(e)
    for c in into[2]:
        owner.update(dict.fromkeys(set().union(*c), c))


def _splice(items, drop, add, key):
    """items, in ascending key order, without those in drop and with those in
    add put in by key, as a list; the runs between are copied as slices.
    Keys are distinct, but an item added may have the key of one dropped."""
    marks = []
    for dropping, xs in ((True, drop), (False, add)):
        for x in xs:
            k = key(x)
            marks.append((bisect_left(items, k, key=key), dropping, k, x))
    out, start = [], 0
    # an item added goes before the item at its place, which may be dropped
    for at, dropping, _, x in sorted(marks):
        out += items[start:at]
        if dropping:
            start = at + 1
        else:
            out.append(x)
            start = at
    out += items[start:]
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
    return _built(vertices, (("synthetic", sets),), False)


def vertex_degrees(hg: ConflictHypergraph) -> dict[int, int]:
    """Number of solving edges through each vertex; all vertices included."""
    degrees = dict.fromkeys(sorted(hg.vertices), 0)
    degrees.update(Counter(chain.from_iterable(hg.solving_edges)))  # keeps the key order
    return degrees
