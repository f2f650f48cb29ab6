"""Record the benchmark's figures over several seeds into baseline.json.

    python3 perfbench/baseline.py --seeds 10 --seconds 20 --label "seed commit"

Runs run.py once per workload and seed with --trace 0, then once per
workload with --trace 1, each in a child process that it waits for.  For
every metric it records the median and quartiles over the seeds, and the
spread: the distance between the quartiles as a share of the median.  It
prints each spread next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"(\S+)\s+(-?\d+\.\d+) (\S+)\Z")
RUN_TIMEOUT_S = 300


def run_once(workload, seed, seconds, trace):
    """Every metric line of one run, and its result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            metrics[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    return metrics, json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from run import LAYER_METRICS

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = {}
    for name in args.workloads.split(","):
        runs = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        values = {}
        for metrics, _ in runs:
            for metric, m in metrics.items():
                values.setdefault(metric, ([], m["unit"]))[0].append(m["value"])
        traced, traced_result = run_once(name, seeds[0], args.seconds, 1)
        workloads[name] = {
            "why": why[name],
            "correct": [r["correct"] for _, r in runs],
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "metrics": {k: {"unit": unit, **summary(v)} for k, (v, unit) in values.items()},
            "traced": {"seed": seeds[0], "correct": traced_result["correct"],
                       "metrics": traced},
        }
        for metric, s in workloads[name]["metrics"].items():
            bound = bounds.get(metric)
            verdict = "" if bound is None or s["spread"] is None else (
                "steady" if s["spread"] < bound / 3 else
                "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{name:7s} {metric:22s} median {s['median']:12.4f} "
                  f"spread {s['spread'] or 0:.4f} bound {bound} {verdict}", flush=True)
    baseline = {
        "label": args.label,
        "setup": "closed loop, one client, one process, no threads; a fixed "
                 f"number of passes per run, sized from --seconds {args.seconds}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": seeds,
        "workloads": workloads,
        "layer_map": LAYER_METRICS,
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
