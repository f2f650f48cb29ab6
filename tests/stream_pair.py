"""Time one stream session on this tree and on another, delta by delta.

    PYTHONPATH=src python tests/stream_pair.py OTHER_SRC [--seed S] [--deltas N]

OTHER_SRC is the src directory of a second tree, for instance the parent
commit's, unpacked with `git archive HEAD^ src | tar -x -C DIR`.  Its
incmeter package is loaded under the name incmeter_base, next to this
tree's incmeter, in one process.  Each side opens a library session on one
seeded instance of perfbench/gen.scan_instance (1000 rows) and applies the
same N deltas of a seeded perfbench/gen.DeltaStream, as the untraced path of
the benchmark's stream workload does: parse_delta, apply_update,
incremental_hypergraph, inc_deg_g3, and the bound check of a pure delta
with both hypergraphs handed in.  The sides alternate which runs first on
each delta, so a slow spell of a shared host falls on both.

It asserts that both sides give the same deleted tids, instance size and
bound report (its dataclass fields, which both trees share) on every delta,
and the same labeled edges at the end.  It
prints each side's mean microseconds per delta and their ratio, this tree's
over the other's.  Paired this way, two copies of one tree read about 0.99.

The file name does not match test_*.py, so pytest does not collect it.
It uses the standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402

import incmeter  # noqa: E402


def load_package(src: Path, name: str):
    """The incmeter package under src, imported as the package name."""
    init = src / "incmeter" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's library session over the stream's instance."""

    def __init__(self, package, rows):
        self.pkg = package
        schema = package.parse_schema(gen.SCAN_SCHEMA)
        self.constraints = package.parse_constraints(gen.SCAN_CONSTRAINTS, schema)
        sources = {pred: "\n".join([gen.HEADERS[pred]] + [",".join(r) for r in table]) + "\n"
                   for pred, table in rows.items()}
        self.instance = package.load_instance(sources, schema)
        self.hg = package.build_hypergraph(self.instance, self.constraints)
        self.spent = 0.0

    def apply(self, text):
        """Apply one delta, timed; its deleted tids, size and bound report."""
        pkg, constraints = self.pkg, self.constraints
        start = time.perf_counter()
        delta = pkg.parse_delta(text)
        after = pkg.apply_update(self.instance, delta)
        hg_after = pkg.incremental_hypergraph(self.hg, self.instance, delta, constraints)
        deleted = pkg.inc_deg_g3(after, constraints, hg_after).witness.deleted
        check = (pkg.check_insertion_bounds if delta.is_insert_only
                 else pkg.check_deletion_bounds if delta.is_delete_only else None)
        bounds = None
        if check is not None:
            bounds = check(self.instance, delta, constraints,
                           pkg.exact.DEFAULT_NODE_BUDGET, self.hg, hg_after)
        self.spent += time.perf_counter() - start
        self.instance, self.hg = after, hg_after
        return sorted(deleted), len(after), bounds and dataclasses.astuple(bounds)

    def edges(self):
        return [(e.constraint, sorted(e.tids)) for e in self.hg.edges]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--deltas", type=int, default=3000)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    rows = gen.scan_instance(rng, 1000)
    stream = gen.DeltaStream(random.Random(rng.random()), rows)
    texts = [stream.next_delta() for _ in range(args.deltas)]
    this = Side(incmeter, rows)
    other = Side(load_package(args.other_src, "incmeter_base"), rows)
    for i, text in enumerate(texts):
        first, second = (this, other) if i % 2 == 0 else (other, this)
        a, b = first.apply(text), second.apply(text)
        assert a == b, f"delta {i}: the trees disagree: {a} against {b}"
    assert this.edges() == other.edges(), "the trees' labeled edges differ at the end"
    ours, theirs = (1e6 * side.spent / len(texts) for side in (this, other))
    print(f"stream seed {args.seed}, {len(texts)} deltas, answers identical "
          f"(Python {sys.version.split()[0]})")
    print(f"this tree   {ours:9.1f} us per delta")
    print(f"other tree  {theirs:9.1f} us per delta")
    print(f"ratio       {ours / theirs:9.3f}")


if __name__ == "__main__":
    main()
