"""Time a full build and solve of the FD workload, stage by stage.

    PYTHONPATH=src python tests/build_scaling.py

The workload is tests/conftest.py::fd_key_groups(Random(1), n), rel(A, B, C)
under `fd key : rel : A -> B`, at n = 10^4 and 10^5 rows.  Each run makes
a fresh instance and writes it as CSV text (untimed), then times four
stages: load_instance of that text, build_hypergraph on the loaded
instance, the first read of .components (under one FD, the key groups the
build took; else the solving antichain, its canonical sort and the split),
and exact.min_hitting_set on the result; the total is the three stages
from build to solve.  Then the first read of
.solving_edges is timed on the version that one delta, a row in and a row
out, derives from a build of 10^4 rows; it reads them from its components,
and must equal a rebuild's.  Last, nullrep.cell_conflicts, the null
measure's build of the same shape over cells, is timed on fresh 10^4-row
instances.  Times are taken with
time.perf_counter with the cyclic collector on, as a CLI run has it, and
printed as the min and max ms over the runs.  The same three stages are
then timed on one skewed key group (tests/conftest.py::skewed_key_group) of
250 and 1000 rows, whose components close by formula; its answer must be
the rows less the largest B-class.

The report is informational: the exit status is 0 whatever it shows.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import csv_sources, fd_key_groups, skewed_key_group  # noqa: E402

from incmeter import (UpdateDelta, apply_update, build_hypergraph, cell_conflicts,  # noqa: E402
                      incremental_hypergraph, load_instance, min_hitting_set)

SIZES = ((10_000, 5), (100_000, 3))  # (rows, runs)
SKEWED = ((250, 5), (1000, 3))  # (rows of the one key group, runs)
DERIVED_ROWS, DERIVED_RUNS = 10_000, 5
CELL_ROWS, CELL_RUNS = 10_000, 5
STAGES = ("build", "components", "solve")


def timed(call, *args):
    """What call returns, and the ms it took."""
    start = time.perf_counter()
    result = call(*args)
    return result, 1000 * (time.perf_counter() - start)


def fd_workload(n):
    """fd_key_groups(Random(1), n)."""
    return fd_key_groups(random.Random(1), n)


def measure(workload, n, runs):
    """The edge and component counts, and per stage and in total the ms of
    each run, on workload(n): constraints, instance and optimum."""
    spent = {stage: [] for stage in ("load", *STAGES, "total")}
    for _ in range(runs):
        constraints, made, optimum = workload(n)
        instance, loaded = timed(load_instance, csv_sources(made), made.schema)
        assert instance == made
        spent["load"].append(loaded)
        hg, built = timed(build_hypergraph, instance, constraints)
        components, split = timed(lambda: hg.components)
        solution, solved = timed(min_hitting_set, hg)
        assert len(solution.deleted) == optimum
        for stage, took in zip(STAGES, (built, split, solved)):
            spent[stage].append(took)
        spent["total"].append(built + split + solved)
    return len(hg.solving_edges), len(components), spent


def derived_read(n, runs):
    """The ms of each run's first read of solving_edges on the version one
    delta derives from a build of fd_workload(n)."""
    times = []
    delta = UpdateDelta((("rel", ("k1", "b9", "c-new")),), frozenset({1}))
    for _ in range(runs):
        constraints, instance, _ = fd_workload(n)
        derived = incremental_hypergraph(build_hypergraph(instance, constraints), instance,
                                         delta, constraints)
        edges, took = timed(lambda: derived.solving_edges)
        rebuilt = build_hypergraph(apply_update(instance, delta), constraints)
        assert edges == rebuilt.solving_edges
        times.append(took)
    return times


def span(times):
    return f"{min(times):.0f}-{max(times):.0f}"


def main():
    columns = ("load", *STAGES, "total")
    print(f"ms per stage, min-max over the runs, collector on "
          f"(Python {sys.version.split()[0]})")
    print(f"{'rows':>7} {'runs':>4} {'edges':>7} {'components':>10} "
          + " ".join(f"{c:>11}" for c in columns))
    for workload, sizes in ((fd_workload, SIZES), (skewed_key_group, SKEWED)):
        print(workload.__name__)
        for n, runs in sizes:
            edges, components, spent = measure(workload, n, runs)
            print(f"{n:>7} {runs:>4} {edges:>7} {components:>10} "
                  + " ".join(f"{span(spent[c]):>11}" for c in columns))
    times = derived_read(DERIVED_ROWS, DERIVED_RUNS)
    print(f"first solving_edges read, derived from {DERIVED_ROWS} rows by one delta, "
          f"{DERIVED_RUNS} runs: {span(times)} ms")
    times = []
    for _ in range(CELL_RUNS):
        constraints, instance, _ = fd_key_groups(random.Random(1), CELL_ROWS)
        times.append(timed(cell_conflicts, instance, constraints)[1])
    print(f"cell_conflicts at {CELL_ROWS} rows, {CELL_RUNS} runs: {span(times)} ms")


if __name__ == "__main__":
    main()
