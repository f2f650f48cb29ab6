"""Measuring database inconsistency under denial constraints.

The package builds conflict hypergraphs from denial constraints, computes
exact and approximate minimum deletion repairs, derives inconsistency
measures (tuple-, endogenous-, and attribute-level), maintains conflicts
incrementally under updates with certified measure bounds, and emits
logic programs whose optimal answer sets are the minimum repairs.
"""

from .approx import (FractionalCover, local_ratio_hitting_set, lp_fractional_cover,
                     randomized_rounding_hitting_set)
from .aspgen import AspProgram, emit_repair_program, run_brave_distances, run_external_solver
from .conflicts import (ConflictHypergraph, Hyperedge, assemble, build_hypergraph,
                        hypergraph_from_edges, vertex_degrees)
from .errors import (IncMeterError, InputError, ResourceLimitError,
                     SolverUnavailableError)
from .exact import (RepairSet, RepairSolution, enumerate_c_repairs,
                    enumerate_minimal_hitting_sets, enumerate_s_repairs,
                    min_endogenous_hitting_set, min_hitting_set, solve_min_hitting_set)
from .measures import (MeasureReport, inc_deg_g3, inc_deg_g3_endogenous,
                       measure_count_all, measure_count_srep, measure_jaccard)
from .model import (NULL, Atom, Comparison, Const, ConstraintSet, DenialConstraint,
                    Fact, Instance, Predicate, Schema, Var, load_instance,
                    parse_constraints, parse_schema)
from .nullrep import (CellChange, NullRepairSolution, cell_conflicts, inc_deg_g3_null,
                      min_null_changes, minimal_null_repairs)
from .updates import (BoundCheckReport, BoundInequality, UpdateDelta, apply_update,
                      check_deletion_bounds, check_insertion_bounds,
                      incremental_hypergraph, parse_delta)

__version__ = "0.1.0"
