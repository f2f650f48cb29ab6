"""Attribute-level repairs: restore consistency by blanking individual cells.

Writing the reserved NULL placeholder into a cell makes every join,
comparison, or constant match through that cell fail, and can never create
new violations.  A violating assignment therefore dies exactly when one of
its "breaking" cells is blanked: a cell matched by a constant, by a shared
(join) variable, or by a variable used in a comparison.  The breaking-cell
sets make a ConflictHypergraph over cells, whose exact.min_hitting_set is a
minimum-change repair; the measure divides its size by the cell count.

Cell conflicts come from the ordered join plan of evaluation._join, which
matches interchangeable atoms in ascending tid order only.  Their swap keeps
constants, variable occurrence counts and compared variables, so such atoms
break at equal positions and an assignment and its swap at the same cells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import evaluation, exact
from .conflicts import hypergraph_from_edges
from .measures import MeasureReport, _empty_report
from .model import Const, ConstraintSet, DenialConstraint, Instance, Var

CELL_LIMIT = 24


class CellChange(NamedTuple):
    """One cell to blank: a tid and a 1-based attribute position."""

    tid: int
    position: int


@dataclass(frozen=True)
class NullRepairSolution:
    """A smallest consistency-restoring set of cell changes."""

    changes: frozenset[CellChange]
    atv: int  # total number of cells in the instance


def _breaking_positions(dc: DenialConstraint) -> list[list[int]]:
    """Per atom, the 1-based positions whose blanking kills a match, ascending."""
    occurrences = Counter(t for atom in dc.atoms for t in atom.terms if isinstance(t, Var))
    compared = set().union(*(c.variables() for c in dc.comparisons))
    return [[j for j, t in enumerate(atom.terms, start=1)
             if isinstance(t, Const) or occurrences[t] >= 2 or t.name in compared]
            for atom in dc.atoms]


def cell_conflicts(instance: Instance, constraints: ConstraintSet):
    """Breaking-cell sets, one per violating assignment, as a minimal antichain.

    An empty entry means some violation has no breakable cell at all (a pure
    existence conflict); blanking can never repair such an instance.
    """
    hg, irreparable = _cell_hypergraph(instance, constraints)
    return hg.solving_edges, irreparable


def _cell_hypergraph(instance: Instance, constraints: ConstraintSet):
    """The breaking-cell hypergraph, and whether some violation has no breakable cell."""
    index = instance._live_index()
    edges: set[frozenset[CellChange]] = set()
    for dc in constraints:
        cells = [(i, j) for i, positions in enumerate(_breaking_positions(dc))
                 for j in positions]
        evaluation._join(index, dc, None, True, None, lambda assignment: edges.add(
            frozenset([CellChange(assignment[i][0], j) for i, j in cells])))
    irreparable = frozenset() in edges
    edges.discard(frozenset())
    return hypergraph_from_edges(set().union(*edges), edges), irreparable


def min_null_changes(instance: Instance, constraints: ConstraintSet,
                     node_budget=exact.DEFAULT_NODE_BUDGET):
    """Smallest set of cells to blank, or None when blanking cannot repair.

    Past node_budget the ResourceLimitError brackets the smallest blanking.
    """
    hg, irreparable = _cell_hypergraph(instance, constraints)
    if irreparable:
        return None
    return NullRepairSolution(exact.min_hitting_set(hg, node_budget).deleted, _atv(instance))


def minimal_null_repairs(instance: Instance, constraints: ConstraintSet):
    """All minimal blanking sets (diagnostic counterpart of repair enumeration)."""
    edges, irreparable = cell_conflicts(instance, constraints)
    if irreparable:
        return ()
    return exact.enumerate_minimal_hitting_sets(edges, CELL_LIMIT)


def _atv(instance: Instance) -> int:
    return sum(len(row[2]) for row in instance._live().values())


def inc_deg_g3_null(instance: Instance, constraints: ConstraintSet,
                    node_budget=exact.DEFAULT_NODE_BUDGET) -> MeasureReport:
    """Fraction of cells a smallest consistency-restoring blanking touches.

    Pinned to 1 when some conflict has no breakable cell.
    """
    sol = min_null_changes(instance, constraints, node_budget)
    atv = _atv(instance) if sol is None else sol.atv  # the cells are counted once
    if atv == 0:
        return _empty_report("g3_null", NullRepairSolution(frozenset(), 0))
    if sol is None:
        return MeasureReport("g3_null", atv, atv, True, "exact", None,
                             note="some conflict has no breakable cell; "
                                  "blanking cannot restore consistency")
    return MeasureReport("g3_null", len(sol.changes), atv, True, "exact", sol)
