"""Time one update delta at two instance sizes, stage by stage.

    PYTHONPATH=src python tests/delta_scaling.py

The workload is tests/conftest.py::fd_key_groups(Random(1), n), rel(A, B, C)
under `fd key : rel : A -> B`, at n = 1000 and 16000 rows.  Each delta
deletes one live row and inserts one new row, both drawn from Random(2).  It
goes through apply_update, then incremental_hypergraph on the same delta,
then measures._g3 on the hypergraph after it.  A second delta then deletes
one more live row, drawn from the same generator: it is applied and derived
untimed, and the fourth stage is check_deletion_bounds on it with both
hypergraphs handed in, as the stream of perfbench/ hands them.  The solve
stage measured the hypergraph before it, so the check reads that side's
kept report (see measures._g3) and solves only the side after.  The first
pair of deltas, and the build and solve of the starting hypergraph, are a
warm-up; the next 40 pairs are timed with time.perf_counter, and the
collector is switched off inside each pair only.  Printed: the mean ms per
pair of each stage and in total, and the ratio of the 16000-row figure to
the 1000-row one.  An update whose cost follows the delta keeps each ratio
near 1.

At both sizes, a what-if delta is then timed: from a version, two deltas of
a row in and a row out are derived, and a third from that version, two
links behind the newest one, so the tid maps are moved back along both
(see model._reroot).  The mean ms of the 40 what-ifs after a warm-up is
printed.  Last come deltas timed once each, in 3 rounds, with the collector
on, as a CLI run has it:
- a delta of a tenth of the rows each way (5000 rows out and 5000 in) on
  fd_key_groups(Random(1), 50000), derived from the solved build, and a
  build, components included, of a fresh Instance of the facts after it;
- on tests/conftest.py::skewed_key_group(1000), one component of 1000 rows,
  a one-row insert derived from the build, and then a one-row delete.

The report is informational: the exit status is 0 whatever it shows.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import fd_key_groups, skewed_key_group  # noqa: E402

from incmeter import (apply_update, build_hypergraph, check_deletion_bounds,  # noqa: E402
                      incremental_hypergraph)
from incmeter.measures import _g3  # noqa: E402
from incmeter.model import Instance  # noqa: E402
from incmeter.updates import UpdateDelta  # noqa: E402

SIZES = (1000, 16000)
DELTAS = 40
STAGES = ("apply_update", "derive", "solve", "bounds")
BULK_ROWS, SKEWED_ROWS, ROUNDS = 50000, 1000, 3


def timed(call, *args, **kwargs):
    """What call returns, and the seconds it took."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - start


def measure(n):
    """The number of components after the run, and the mean ms per pair of
    deltas of each stage and of the four together."""
    constraints, instance, _ = fd_key_groups(random.Random(1), n)
    hg = build_hypergraph(instance, constraints)
    _g3(hg, len(instance))
    rng, live, top = random.Random(2), list(instance.tids), n
    spent = dict.fromkeys(STAGES, 0.0)
    for i in range(DELTAS + 1):
        gone = live.pop(rng.randrange(len(live)))
        top += 1
        live.append(top)
        row = ("rel", (f"k{rng.randrange(n // 4)}", f"b{rng.randrange(3)}", f"d{i}"))
        delta = UpdateDelta((row,), frozenset((gone,)))
        delete = UpdateDelta((), frozenset((live.pop(rng.randrange(len(live))),)))
        gc.disable()
        try:
            after, applied = timed(apply_update, instance, delta)
            hg, derived = timed(incremental_hypergraph, hg, instance, delta, constraints)
            solved = timed(_g3, hg, len(after))[1]
            instance, hg_before = apply_update(after, delete), hg
            hg = incremental_hypergraph(hg_before, after, delete, constraints)
            checked = timed(check_deletion_bounds, after, delete, constraints,
                            hg_before=hg_before, hg_after=hg)[1]
        finally:
            gc.enable()
        if i:  # the first pair is the warm-up
            for stage, took in zip(STAGES, (applied, derived, solved, checked)):
                spent[stage] += took
    means = {stage: 1000 * s / DELTAS for stage, s in spent.items()}
    means["total"] = sum(means.values())
    return len(hg.components), means


def what_if(n):
    """The mean ms of a delta derived from the grandparent of the newest
    version, each delta a row in and a row out of the FD workload."""
    constraints, instance, _ = fd_key_groups(random.Random(1), n)
    hg = build_hypergraph(instance, constraints)
    rng = random.Random(3)
    pool = rng.sample(instance.tids, 3 * (DELTAS + 1))  # each tid deleted once, on one branch
    spent = 0.0
    for i in range(DELTAS + 1):
        deltas = [UpdateDelta((("rel", (f"k{rng.randrange(n // 4)}", f"b{rng.randrange(3)}",
                                        f"w{i}.{j}")),), frozenset((pool.pop(),)))
                  for j in range(3)]
        newest, held = hg, instance
        for delta in deltas[:2]:
            newest = incremental_hypergraph(newest, held, delta, constraints)
            held = apply_update(held, delta)
        gc.disable()
        try:
            hg, took = timed(incremental_hypergraph, hg, instance, deltas[2], constraints)
        finally:
            gc.enable()
        instance = apply_update(instance, deltas[2])
        if i:  # the first what-if is the warm-up
            spent += took
    return 1000 * spent / DELTAS


def bulk(rng):
    """The ms of a delta of a tenth of the rows each way derived from the
    solved build, and of a build of a fresh instance after it."""
    constraints, instance, _ = fd_key_groups(random.Random(1), BULK_ROWS)
    hg = build_hypergraph(instance, constraints)
    _g3(hg, len(instance))
    k = BULK_ROWS // 10
    rows = tuple(("rel", (f"k{rng.randrange(BULK_ROWS // 4)}", f"b{rng.randrange(3)}", f"n{j}"))
                 for j in range(k))
    delta = UpdateDelta(rows, frozenset(rng.sample(instance.tids, k)))
    after = apply_update(instance, delta)
    derived = timed(incremental_hypergraph, hg, instance, delta, constraints)[1]
    fresh = Instance(after.schema, after.facts)
    rebuilt = timed(lambda: build_hypergraph(fresh, constraints).components)[1]
    return 1000 * derived, 1000 * rebuilt


def skewed():
    """The ms of a one-row insert into one skewed key group, derived from
    its build, and of a one-row delete derived after it."""
    constraints, instance, _ = skewed_key_group(SKEWED_ROWS)
    hg = build_hypergraph(instance, constraints)
    spent = []
    for delta in (UpdateDelta((("rel", ("k", "b0", "new")),), frozenset()),
                  UpdateDelta((), frozenset((1,)))):
        after = apply_update(instance, delta)
        hg, took = timed(incremental_hypergraph, hg, instance, delta, constraints)
        instance = after
        spent.append(1000 * took)
    return spent


def main():
    columns = (*STAGES, "total")
    print(f"ms per pair of deltas, mean of {DELTAS} after a warm-up "
          f"(Python {sys.version.split()[0]})")
    print(f"{'rows':>6} {'components':>10} " + " ".join(f"{c:>12}" for c in columns))
    results = {}
    for n in SIZES:
        components, means = results[n] = measure(n)
        print(f"{n:>6} {components:>10} " + " ".join(f"{means[c]:>12.3f}" for c in columns))
    (_, small), (_, large) = (results[n] for n in SIZES)
    print(f"{'ratio':>6} {'':>10} " + " ".join(f"{large[c] / small[c]:>12.2f}" for c in columns))
    print("what-if delta from the grandparent, mean ms: "
          + ", ".join(f"{what_if(n):.3f} at {n} rows" for n in SIZES))
    rng, runs = random.Random(4), {}
    for _ in range(ROUNDS):
        for name, took in zip(("10% delta", "rebuild", "skewed insert", "skewed delete"),
                              (*bulk(rng), *skewed())):
            runs.setdefault(name, []).append(took)
    print(f"ms in each of {ROUNDS} rounds, collector on: " + "; ".join(
        f"{name} {' / '.join(f'{t:.0f}' for t in took)}" for name, took in runs.items()))


if __name__ == "__main__":
    main()
