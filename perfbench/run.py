"""Benchmark for incmeter: one seeded workload per run, answers checked.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from anywhere inside a checkout; it imports the program from the
checkout's `src/` and writes scratch files under `.perfbench/`.  One client
runs ops back to back in a single process (a closed loop, no threads).  An
op is one CLI command, one library solve or one delta.  The timed region is
each op's call; the oracle checks and the host-speed probe (probe.py) run
between ops, outside it.  Reported times are scaled to a fixed host speed;
the raw ones are printed as *_raw.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
every op on both paths, the traced one inside spans, and prints the
per-layer metrics.  The last line of output is one JSON object with the
metrics that BENCHMARK.json declares.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7
# a run's timed calls may take this many times --seconds before it is cut short
MAX_SLOWDOWN = 3
# op_ms_tail's percentile per workload, with at least ten samples beyond it
# in a run.  On scan it falls in the middle of the 2k-row ops; p75, at their
# top, spread by 16-17% of its median over ten seeds.  On solve
# a higher one would rest on the slowest one or two of a run's LP
# instances.  On stream p98 and p99.5 spread by 19-28% of their median over
# ten seeds: they rest on the bursts of ops that a shared host slows down
# together, too briefly for the probe to see.
TAIL_PERCENTILE = {"scan": 70, "solve": 90, "stream": 90}

# per-layer metrics that are totals over the run rather than means per observation
RUN_TOTALS = {"exact.budget_exhausted"}
RATIOS = {"approx.lp_gap", "approx.local_ratio_over_opt", "approx.randomized_over_opt",
          "updates.incremental_over_rebuild"}
# spans of work that only the traced run does; left out of the overhead
BENCH_ONLY = {"conflicts.assemble", "conflicts.rebuild", "bench.observe"}
# Each per-layer metric with the end-to-end metric it should move, and where.
LAYER_METRICS = {
    "model.parse_ms": "rows_per_s on scan",
    "model.load_ms": "rows_per_s on scan",
    "model.rows": "count: facts loaded",
    "conflicts.build_ms": "measure_ms_p50, conflicts_ms_p50, rows_per_s on scan; "
                          "very little on solve",
    "conflicts.assemble_ms": "conflicts_ms_p50 on scan, op_ms_p50 on stream",
    "conflicts.edges": "count",
    "conflicts.solving_edges": "count",
    "conflicts.components": "count",
    "conflicts.largest_component": "count",
    "exact.solve_ms": "measure_ms_p50 and ops_per_s on solve, op_ms_p50 on stream",
    "exact.endogenous_ms": "endogenous_ms_p50 on solve",
    "exact.enumerate_ms": "enum_ms_p50 on solve",
    "exact.budget_exhausted": "error_rate on solve",
    "exact.deleted": "count",
    "approx.lp_ms": "randomized_ms_p50 on solve",
    "approx.round_ms": "randomized_ms_p50 on solve",
    "approx.local_ratio_ms": "reported as is",
    "approx.lp_gap": "ratio: exact objective / dual_bound",
    "approx.local_ratio_over_opt": "ratio with the optimum as base",
    "approx.randomized_over_opt": "ratio with the optimum as base",
    "measures.count_all_ms": "enum_ms_p50 on solve",
    "measures.jaccard_ms": "enum_ms_p50 on solve",
    "nullrep.cell_conflicts_ms": "enum_ms_p50 on solve",
    "nullrep.solve_ms": "enum_ms_p50 on solve",
    "updates.apply_ms": "op_ms_p50, op_ms_tail on stream",
    "updates.incremental_ms": "op_ms_p50, op_ms_tail on stream",
    "updates.bounds_ms": "op_ms_p50, op_ms_tail on stream",
    "updates.edges_added": "count per delta",
    "updates.edges_dropped": "count per delta",
    "updates.incremental_over_rebuild": "ratio on every 10th delta",
    "aspgen.emit_ms": "emit_ms_p50 on scan",
    "aspgen.render_ms": "emit_ms_p50 on scan",
    "aspgen.statements": "count",
    "trace.overhead_pct": "traced against untraced wall time",
}
LATENCY_CLASSES = {
    "scan": ("measure", "conflicts", "emit"),
    "solve": ("measure", "endogenous", "randomized", "enum", "local_ratio", "lp"),
    "stream": (),
}


def import_program():
    if not (ROOT / "src" / "incmeter" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'incmeter'}")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


@dataclass
class Result:
    op: object
    traced: bool
    seconds: float
    ok: bool
    problems: list
    pass_no: int = 0
    factor: float = 1.0  # host speed scale at the op, see probe.py

    @property
    def scaled(self):
        return self.seconds * self.factor


def call(op, traced, tracer):
    """Run one path of an op; returns the result with the oracle's verdict."""
    start = time.perf_counter()
    try:
        if traced:
            with tracer.span("op"):
                code, payload = op.traced(tracer)
        else:
            code, payload = op.run()
    except Exception:  # a crash is a failed op, reported with its traceback
        return Result(op, traced, time.perf_counter() - start, False,
                      [traceback.format_exc()])
    seconds = time.perf_counter() - start
    if code == 2 and op.budget_limited:
        return Result(op, traced, seconds, False, [])  # the known defect: failed, not wrong
    problems = op.check(payload) if code == 0 else [f"exit {code}: {str(payload).strip()[:300]}"]
    return Result(op, traced, seconds, not problems, problems)


def planned_passes(workload, seconds, traced):
    """How many passes a run makes: a fixed number, sized from `seconds`.

    The work of a run depends only on the seed and `seconds`, never on the
    host's speed, so two runs of the same code and seed attempt the same ops
    and see the same failures.  A traced run times every op twice and so
    makes half as many passes.  Whole cycles are run, so every generated
    input weighs the same.
    """
    budget = seconds / 2 if traced else seconds
    passes = workload.cycle * max(1, round(budget / (workload.cycle * workload.pass_s)))
    return passes if workload.repeat else min(passes, len(workload.passes))


def measure(workload, seconds, tracer, speed):
    """Closed loop: ops back to back over a fixed number of passes.

    Returns the results and the number of passes run to the end.  With a
    tracer each op runs on both paths, alternating which goes first.  The
    host's speed is probed between ops, outside the timed calls, and just
    before and after each long op.  On a host so slow that the timed calls
    exceed MAX_SLOWDOWN x `seconds`, the run stops at the end of the pass it
    is in.
    """
    results = []
    busy = 0.0
    passes = planned_passes(workload, seconds, tracer is not None)
    for pass_no in range(passes):
        for op in workload.passes[pass_no % len(workload.passes)]:
            first = len(results) % 4 == 0
            for traced in [False] if tracer is None else [not first, first]:
                if traced:
                    tracer.op = len(results)
                before = speed.refresh(force=op.long)
                result = call(op, traced, tracer)
                result.pass_no = pass_no
                result.factor = (before + speed.refresh(force=op.long)) / 2
                results.append(result)
                busy += result.seconds
        if busy >= MAX_SLOWDOWN * seconds:
            return results, pass_no + 1
    return results, passes


def percentile(values, level):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(level / 100 * len(ordered)), 1) - 1]


def per_pass_rates(results, passes, seconds_of):
    """Median over whole passes of successful ops and rows per timed second."""
    ops, rows, seconds = [0] * passes, [0] * passes, [0.0] * passes
    for r in results:
        if r.pass_no < passes:
            seconds[r.pass_no] += seconds_of(r)
            if r.ok:
                ops[r.pass_no] += 1
                rows[r.pass_no] += r.op.rows
    return (statistics.median(o / s for o, s in zip(ops, seconds)),
            statistics.median(n / s for n, s in zip(rows, seconds)))


def end_to_end(name, results, passes, setup):
    """Metrics from scaled times, plus the same figures from raw times."""
    ok = [r for r in results if r.ok]
    # with no success there is no latency to report; time the failures instead
    timed = ok or results
    metrics = {}
    for suffix, seconds_of in (("", lambda r: r.scaled), ("_raw", lambda r: r.seconds)):
        ms = [seconds_of(r) * 1000 for r in timed]
        tail = percentile(ms, TAIL_PERCENTILE[name])
        ops_per_s, rows_per_s = per_pass_rates(results, max(passes, 1), seconds_of)
        metrics.update({
            "setup_s" + suffix: (statistics.median(setup[suffix]), "s"),
            "ops_per_s" + suffix: (ops_per_s, "1/s"),
            "rows_per_s" + suffix: (rows_per_s, "1/s"),
            "op_ms_p50" + suffix: (statistics.median(ms), "ms"),
            "op_ms_tail" + suffix: (tail, "ms"),
        })
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["error_rate"] = ((len(results) - len(ok)) / len(results), "ratio")
    metrics["host_speed"] = (statistics.median(r.factor for r in results), "ratio")
    beyond = len(ms) - math.ceil(TAIL_PERCENTILE[name] / 100 * len(ms))
    notes = [f"op_ms_tail is p{TAIL_PERCENTILE[name]} of {len(ms)} successful ops, "
             f"{beyond} beyond it",
             f"ops_per_s and rows_per_s are medians over {passes} passes",
             f"setup_s is the median of {len(setup[''])} set-ups",
             f"error_rate is {len(results) - len(ok)} failed of {len(results)} attempted ops",
             "times are scaled by host_speed (see probe.py); *_raw are unscaled"]
    for kind in LATENCY_CLASSES[name]:
        times = [r.scaled * 1000 for r in ok if r.op.kind == kind]
        if times:
            metrics[f"{kind}_ms_p50"] = (statistics.median(times), "ms")
            notes.append(f"{kind}_ms_p50 over {len(times)} ops")
    return metrics, notes


def per_layer(results, tracer):
    traced = [r for r in results if r.traced]
    untraced_s = sum(r.seconds for r in results if not r.traced)
    extra = sum(tracer.total(name) for name in BENCH_ONLY)
    traced_s = sum(r.seconds for r in traced) - extra
    self_ms = {k: v * 1000 for k, v in tracer.self_times().items()}
    metrics, absent = {}, []
    for name in LAYER_METRICS:
        if name == "trace.overhead_pct":
            continue
        if name.endswith("_ms"):
            span = name[:-3]
            if span in self_ms:
                metrics[name] = (self_ms[span] / len(traced), "ms")
                continue
        elif name in tracer.counts:
            values = tracer.counts[name]
            total = sum(values)
            value = total if name in RUN_TOTALS else total / len(values)
            metrics[name] = (float(value), "ratio" if name in RATIOS else "count")
            continue
        absent.append(f"{name}: absent, no op of this workload calls it")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1), "%")
    notes = [f"layer times are self ms per traced op, over {len(traced)} traced ops",
             f"spans kept in memory: {len(tracer.spans)}"] + absent
    return metrics, notes


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[section]]


def run(name, seed, seconds, trace):
    from probe import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        speed = HostSpeed()
        # The input files are written once, untimed: the kernel's cost of
        # creating them drifts with the file system's state, by up to 4x
        # over minutes of runs, and is not the program's work.
        WORKLOADS[name](seed, work, trace)
        setup = {"": [], "_raw": []}
        for _ in range(SETUP_REPS):
            before = speed.refresh(force=True)
            start = time.perf_counter()
            workload = WORKLOADS[name](seed, work, trace, write=False)
            setup["_raw"].append(time.perf_counter() - start)
            factor = (before + speed.refresh(force=True)) / 2
            setup[""].append(setup["_raw"][-1] * factor)
        tracer = Tracer() if trace else None
        results, passes = measure(workload, seconds, tracer, speed)
        problems = workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics, notes = per_layer(results, tracer)
        out = ROOT / ".perfbench" / "spans" / f"{name}-seed{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(out)
        notes.append(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(name, results, passes, setup)
    wrong = [p for r in results for p in r.problems] + problems
    failed = sum(not r.ok for r in results) + len(problems)
    print(f"== {name} seed={seed} trace={trace}")
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"{metric:34s} {value:18.6f} {unit}")
    for note in notes:
        print(f"# {note}")
    for problem in wrong[:20]:
        print(f"! {problem}")
    names = declared("per_layer" if trace else "end_to_end")
    return {"correct": not wrong, "attempted": len(results), "failed": failed,
            "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in names}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "solve", "stream", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    names = ("scan", "solve", "stream") if args.workload == "all" else (args.workload,)
    for name in names:
        result = run(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
