"""Instance updates: deltas, incremental conflict maintenance, measure bounds.

A delta inserts rows and deletes tids.  It is checked in O(delta) (see
model.Instance.check_delta), and the conflicts after it are derived from
those before it by the delta rule of counting/DRed view maintenance: keep
what the delta did not touch.  New edges come from the assignments that use
at least one inserted fact: each atom in turn is seeded with the inserted
facts while the other atoms are looked up in the updated instance's index.
An assignment seen under several seeds yields one image.  conflicts.derive
finds them, drops the edges through a deleted tid, puts the new ones in by
key and splits again only the components the delta reaches.  The other
components are handed on with the Optimum a solve recorded on each, and a
solved version's Answer with them, so the next solve searches the changed
components only and walks no other (see exact.min_hitting_set).

Each instance version holds one tid map and one fact index, and each
hypergraph version its tid maps: handed on, edited in place and moved back
by model._reroot, so any version can be derived from in time that follows
the deltas.  A delta is checked once: after apply_update, the updated
instance and the delta's facts are read back from the parent's link.  Only
the atoms an inserted fact can match are joined, and the vertex set and
the labeled edges are built only when read.  Still growing with the
instance, at C speed: the copy of the component sequence around the changes.

One private body stands behind `incmeter update` and both bound checks.
Every update path checks the whole delta there once, whether or not
hypergraphs are handed in.  It then builds or reuses the hypergraph before,
derives the one after through incremental_hypergraph and solves both, the
one before first, so the second solve reuses the optima of the components
they share; a side that inc_deg_g3 measured already reads its kept report.
For a pure delta it turns the relative update size eps into exact-rational
sandwich inequalities between the two measures.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction

from . import conflicts, exact, measures
from .conflicts import ConflictHypergraph, build_hypergraph
from .errors import InputError
from .model import ConstraintSet, Instance, _tid


@dataclass(frozen=True)
class UpdateDelta:
    """Rows to insert (predicate, values) and tids to delete."""

    insertions: tuple[tuple[str, tuple[str, ...]], ...]
    deletions: frozenset[int]

    @property
    def is_insert_only(self) -> bool:
        return not self.deletions and bool(self.insertions)

    @property
    def is_delete_only(self) -> bool:
        return not self.insertions and bool(self.deletions)


@dataclass(frozen=True)
class BoundInequality:
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class BoundCheckReport:
    """Exact before/after measures and the inequalities tying them together.

    applicable is False when the relative update size leaves the derivation's
    premises (empty instance, or eps >= 1); the bounds list is empty then.
    deleted_all_isolated reports whether every deleted tid was conflict-free,
    which is what licenses the strengthened deletion bound.
    """

    direction: str
    epsilon: Fraction
    before: Fraction
    after: Fraction
    applicable: bool
    bounds: tuple[BoundInequality, ...]
    deleted_all_isolated: bool | None = None

    def all_hold(self) -> bool:
        return all(b.holds for b in self.bounds)

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "epsilon": str(self.epsilon),
            "before": str(self.before),
            "after": str(self.after),
            "applicable": self.applicable,
            "deleted_all_isolated": self.deleted_all_isolated,
            "bounds": [{"name": b.name, "lhs": str(b.lhs), "rhs": str(b.rhs),
                        "holds": b.holds} for b in self.bounds],
        }


_INSERT_RE = re.compile(r"\+\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*\Z")
_DELETE_RE = re.compile(r"-\s*([0-9]+)\s*\Z")


def parse_delta(text: str) -> UpdateDelta:
    """Parse a delta file: `+ pred(v1, v2)` inserts, `- tid` deletes.

    Lines starting with # are comments.  Values are trimmed; CSV-style
    double quoting protects embedded commas or quotes.
    """
    insertions = []
    deletions = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("+"):
            m = _INSERT_RE.match(line)
            if not m:
                raise InputError("expected + pred(v1, ...)", line=lineno)
            inner = m.group(2)
            if not inner.strip():
                raise InputError("insertion needs at least one value", line=lineno)
            try:
                fields = next(csv.reader(io.StringIO(inner), skipinitialspace=True))
            except csv.Error as exc:  # a value past csv's field size limit
                raise InputError(f"malformed values: {exc}", line=lineno) from None
            insertions.append((m.group(1), tuple(v.strip() for v in fields)))
        elif line.startswith("-"):
            m = _DELETE_RE.match(line)
            if not m:
                raise InputError("expected - tid", line=lineno)
            try:
                deletions.add(_tid(m.group(1)))
            except InputError as exc:
                raise InputError(str(exc), line=lineno) from None
        else:
            raise InputError(f"expected '+' or '-', got {line[0]!r}", line=lineno)
    return UpdateDelta(tuple(insertions), frozenset(deletions))


def apply_update(instance: Instance, delta: UpdateDelta) -> Instance:
    """New instance with deletions applied and insertions given fresh tids.

    Fresh tids continue above the previous maximum, in insertion order, so
    existing tids never change meaning.  Only the deleted tids and the
    inserted rows are checked (see Instance.derive).
    """
    return instance.derive(delta.insertions, delta.deletions)


def incremental_hypergraph(hg: ConflictHypergraph, instance: Instance,
                           delta: UpdateDelta,
                           constraints: ConstraintSet) -> ConflictHypergraph:
    """Conflicts of the updated instance, reusing the edges that survive.

    hg must be the hypergraph of instance.  The updated instance, whose fact
    index the new edges are joined in, is the one apply_update made with
    this very delta if instance still links to it, else it is derived,
    checking only the delta (see Instance.check_delta).  This is the one
    path to conflicts.derive, which is given the deleted tids as a frozenset.
    hg's untouched components are the result's own, so an optimum that a
    solve of either records on one serves both (see conflicts.derive); hg's
    edges and components are left as they are.
    """
    inserted, gone, after = instance._delta(delta.insertions, delta.deletions)
    if after is None:
        after = instance._derive(inserted, gone)
    return conflicts.derive(hg, after, inserted, frozenset(gone), constraints)


def _measure_delta(instance: Instance, delta: UpdateDelta, constraints: ConstraintSet,
                   node_budget, hg_before=None, hg_after=None):
    """The exact g3 report on each side of a delta, the size after it and,
    for a pure delta, its BoundCheckReport; eps = changed rows/|instance|.
    Every update path checks the whole delta here once, before anything is
    solved, whether or not hypergraphs are handed in: in O(delta) when
    instance links to the child apply_update made with it (see
    Instance._delta).  A missing hg_before is built, a missing hg_after
    derived from it."""
    inserted, gone, child = instance._delta(delta.insertions, delta.deletions)
    if hg_before is None:
        hg_before = build_hypergraph(instance, constraints)
    if hg_after is None:
        if child is None:  # made here, so incremental_hypergraph reads it back from the link
            instance._derive(inserted, gone)
        hg_after = incremental_hypergraph(hg_before, instance, delta, constraints)
    before = measures._g3(hg_before, len(instance), node_budget=node_budget)
    after = measures._g3(hg_after, hg_after.size, node_budget=node_budget)
    bounds = None
    if delta.is_insert_only or delta.is_delete_only:
        # a delete-only delta drops exactly the solving edges through a deleted
        # tid and makes none, so equal counts mean it dropped none
        isolated = (hg_after._solving_count == hg_before._solving_count
                    if delta.deletions else None)
        bounds = _sandwich("delete" if delta.deletions else "insert", len(instance),
                           len(inserted) + len(gone), before.value, after.value, isolated)
    return before, after, hg_after.size, bounds


def _sandwich(direction, n, k, before, after, isolated) -> BoundCheckReport:
    """The report of a pure delta of k rows on an instance of n, eps = k/n.
    With before = b/nb and after = a/na, each side is one exact Fraction:
      after/(1-eps)        = a*n / (na*(n-k))
      before/(1-eps)       = b*n / (nb*(n-k))
      before + eps/(1+eps) = (b*(n+k) + k*nb) / (nb*(n+k))
      after/(1-eps) + eps  = (a*n*n + k*na*(n-k)) / (na*n*(n-k))
    """
    eps = Fraction(k, n) if n else Fraction(0)
    if not 0 < k < n:
        return BoundCheckReport(direction, eps, before, after, False, (), isolated)
    (b, nb), (a, na) = before.as_integer_ratio(), after.as_integer_ratio()
    scaled = Fraction(a * n, na * (n - k))
    if direction == "insert":
        bounds = [("upper", after, Fraction(b * (n + k) + k * nb, nb * (n + k))),
                  ("lower", before, scaled)]
    else:
        bounds = [("upper", after, Fraction(b * n, nb * (n - k))),
                  ("lower", before, Fraction(a * n * n + k * na * (n - k), na * n * (n - k)))]
        if isolated:
            bounds.append(("lower_isolated", before, scaled))
    return BoundCheckReport(direction, eps, before, after, True,
                            tuple(BoundInequality(*b) for b in bounds), isolated)


def check_insertion_bounds(instance: Instance, delta: UpdateDelta,
                           constraints: ConstraintSet,
                           node_budget=exact.DEFAULT_NODE_BUDGET,
                           hg_before=None, hg_after=None) -> BoundCheckReport:
    """Sandwich the post-insertion measure by the pre-insertion one.

    With eps = inserted/|D| < 1:
      upper: after <= before + eps/(1+eps)
      lower: before <= after/(1-eps)
    """
    if not delta.is_insert_only:
        raise InputError("insertion bounds need a pure insertion delta")
    return _measure_delta(instance, delta, constraints, node_budget, hg_before, hg_after)[3]


def check_deletion_bounds(instance: Instance, delta: UpdateDelta,
                          constraints: ConstraintSet,
                          node_budget=exact.DEFAULT_NODE_BUDGET,
                          hg_before=None, hg_after=None) -> BoundCheckReport:
    """Sandwich the post-deletion measure by the pre-deletion one.

    With eps = deleted/|D| < 1:
      upper: after <= before/(1-eps)
      lower: before <= after/(1-eps) + eps
      lower_isolated: before <= after/(1-eps), valid when every deleted tid
      sat in no conflict
    """
    if not delta.is_delete_only:
        raise InputError("deletion bounds need a pure deletion delta")
    return _measure_delta(instance, delta, constraints, node_budget, hg_before, hg_after)[3]
