"""Time a full build and solve of the FD workload, stage by stage.

    PYTHONPATH=src python tests/build_scaling.py

The workload is tests/conftest.py::fd_key_groups(Random(1), n), rel(A, B, C)
under `fd key : rel : A -> B`, at n = 10^4 and 10^5 rows.  Each run loads a
fresh instance (untimed), then times three stages on it: build_hypergraph,
the first read of .components (the solving antichain, its canonical sort
and the split), and exact.min_hitting_set on the result.  Last,
nullrep.cell_conflicts, the null measure's build of the same shape over
cells, is timed on fresh 10^4-row instances.  Times are taken with
time.perf_counter with the cyclic collector on, as a CLI run has it, and
printed as the min and max ms over the runs.

The report is informational: the exit status is 0 whatever it shows.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import fd_key_groups  # noqa: E402

from incmeter import build_hypergraph, cell_conflicts, min_hitting_set  # noqa: E402

SIZES = ((10_000, 5), (100_000, 3))  # (rows, runs)
CELL_ROWS, CELL_RUNS = 10_000, 5
STAGES = ("build", "components", "solve")


def timed(call, *args):
    """What call returns, and the ms it took."""
    start = time.perf_counter()
    result = call(*args)
    return result, 1000 * (time.perf_counter() - start)


def measure(n, runs):
    """The edge and component counts, and per stage and in total the ms of
    each run."""
    spent = {stage: [] for stage in (*STAGES, "total")}
    for _ in range(runs):
        constraints, instance, optimum = fd_key_groups(random.Random(1), n)
        hg, built = timed(build_hypergraph, instance, constraints)
        components, split = timed(lambda: hg.components)
        solution, solved = timed(min_hitting_set, hg)
        assert len(solution.deleted) == optimum
        for stage, took in zip(STAGES, (built, split, solved)):
            spent[stage].append(took)
        spent["total"].append(built + split + solved)
    return len(hg.solving_edges), len(components), spent


def span(times):
    return f"{min(times):.0f}-{max(times):.0f}"


def main():
    columns = (*STAGES, "total")
    print(f"ms per stage, min-max over the runs, collector on "
          f"(Python {sys.version.split()[0]})")
    print(f"{'rows':>7} {'runs':>4} {'edges':>7} {'components':>10} "
          + " ".join(f"{c:>11}" for c in columns))
    for n, runs in SIZES:
        edges, components, spent = measure(n, runs)
        print(f"{n:>7} {runs:>4} {edges:>7} {components:>10} "
              + " ".join(f"{span(spent[c]):>11}" for c in columns))
    times = []
    for _ in range(CELL_RUNS):
        constraints, instance, _ = fd_key_groups(random.Random(1), CELL_ROWS)
        times.append(timed(cell_conflicts, instance, constraints)[1])
    print(f"cell_conflicts at {CELL_ROWS} rows, {CELL_RUNS} runs: {span(times)} ms")


if __name__ == "__main__":
    main()
