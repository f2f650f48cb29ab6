"""Attribute-level repairs: restore consistency by blanking individual cells.

Writing the reserved NULL placeholder into a cell makes every join,
comparison, or constant match through that cell fail, and can never create
new violations.  A violating assignment therefore dies exactly when one of
its "breaking" cells is blanked: a cell matched by a constant, by a shared
(join) variable, or by a variable used in a comparison.  Minimum-change
repairs are minimum hitting sets over these breaking-cell sets, and the
measure normalizes the change count by the number of cells in the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import evaluation, exact
from .conflicts import antichain
from .measures import MeasureReport, _empty_report
from .model import Const, ConstraintSet, DenialConstraint, Instance

CELL_LIMIT = 24


@dataclass(frozen=True, order=True)
class CellChange:
    """One cell to blank: a tid and a 1-based attribute position."""

    tid: int
    position: int


@dataclass(frozen=True)
class NullRepairSolution:
    """A smallest consistency-restoring set of cell changes."""

    changes: frozenset[CellChange]
    atv: int  # total number of cells in the instance


def _breaking_positions(dc: DenialConstraint) -> dict[int, set[int]]:
    """Per atom index, the 1-based positions whose blanking kills a match."""
    occurrences: dict[str, int] = {}
    for atom in dc.atoms:
        for term in atom.terms:
            if not isinstance(term, Const):
                occurrences[term.name] = occurrences.get(term.name, 0) + 1
    compared = set()
    for cmp in dc.comparisons:
        compared |= cmp.variables()
    out = {}
    for i, atom in enumerate(dc.atoms):
        positions = set()
        for j, term in enumerate(atom.terms, start=1):
            if isinstance(term, Const):
                positions.add(j)
            elif occurrences[term.name] >= 2 or term.name in compared:
                positions.add(j)
        out[i] = positions
    return out


def cell_conflicts(instance: Instance, constraints: ConstraintSet):
    """Breaking-cell sets, one per violating assignment, as a minimal antichain.

    An empty entry means some violation has no breakable cell at all (a pure
    existence conflict); blanking can never repair such an instance.
    """
    index = evaluation.FactIndex(instance.facts)
    edges: set[frozenset[CellChange]] = set()
    irreparable = False
    for dc in constraints:
        positions = _breaking_positions(dc)
        for assignment in evaluation.iter_satisfying_assignments(index, dc):
            cells = set()
            for i, fact in enumerate(assignment):
                for j in positions[i]:
                    cells.add(CellChange(fact.tid, j))
            if not cells:
                irreparable = True
            else:
                edges.add(frozenset(cells))
    minimal = antichain(edges)
    minimal.sort(key=lambda e: tuple(sorted(e)))
    return tuple(minimal), irreparable


def min_null_changes(instance: Instance, constraints: ConstraintSet,
                     node_budget=exact.DEFAULT_NODE_BUDGET):
    """Smallest set of cells to blank, or None when blanking cannot repair.

    Past node_budget the ResourceLimitError brackets the smallest blanking.
    """
    edges, irreparable = cell_conflicts(instance, constraints)
    if irreparable:
        return None
    changes = exact.solve_min_hitting_set(edges, None, node_budget)
    return NullRepairSolution(frozenset(changes), _atv(instance))


def minimal_null_repairs(instance: Instance, constraints: ConstraintSet,
                         cell_limit=CELL_LIMIT):
    """All minimal blanking sets (diagnostic counterpart of repair enumeration)."""
    edges, irreparable = cell_conflicts(instance, constraints)
    if irreparable:
        return ()
    return exact.enumerate_minimal_hitting_sets(edges, cell_limit)


def _atv(instance: Instance) -> int:
    return sum(len(f.values) for f in instance.facts)


def inc_deg_g3_null(instance: Instance, constraints: ConstraintSet,
                    node_budget=exact.DEFAULT_NODE_BUDGET) -> MeasureReport:
    """Fraction of cells a smallest consistency-restoring blanking touches.

    Pinned to 1 when some conflict has no breakable cell.
    """
    atv = _atv(instance)
    if atv == 0:
        return _empty_report("g3_null", NullRepairSolution(frozenset(), 0))
    sol = min_null_changes(instance, constraints, node_budget)
    if sol is None:
        return MeasureReport("g3_null", atv, atv, True, "exact", None,
                             note="some conflict has no breakable cell; "
                                  "blanking cannot restore consistency")
    return MeasureReport("g3_null", len(sol.changes), atv, True, "exact", sol)
