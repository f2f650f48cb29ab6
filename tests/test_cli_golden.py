"""CLI outputs compared byte for byte with recorded golden files.

Each case runs one command on one bundle and compares what it printed
(stdout on success, stderr otherwise) with tests/golden/cli/<case>.json,
after removing the run's elapsed_ms.  Witnesses, edge order and number
formatting are all part of the comparison.

To record the golden files again after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from incmeter.cli import main
from incmeter.model import load_instance, parse_constraints, parse_schema
from incmeter.nullrep import CellChange, cell_conflicts

from oracles import apply_changes, consistent
from test_cli import (FD_CONSTRAINTS, FD_CSVS, FD_SCHEMA, NULL_CONSTRAINTS, NULL_CSVS,
                      NULL_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS, PQR_SCHEMA, write_bundle)

GOLDEN = Path(__file__).parent / "golden" / "cli"

SEEDED_SCHEMA = "rel(A, B, C)\nlink(C, D)\n"
SEEDED_CONSTRAINTS = ("fd key : rel : A -> B\n"
                      "dc hop : !exists rel(x, y, z), link(z, y)\n")


def seeded_bundle(seed=7, rows=60):
    """About 60 rows: FD key groups of two or three rows with two B values,
    plus link rows that close a join with some rel rows."""
    rng = random.Random(seed)
    rel = set()
    while len(rel) < rows - 8:
        rel.add((f"k{rng.randrange(20)}", f"b{rng.randrange(2)}", f"c{rng.randrange(12)}"))
    link = set()
    while len(link) < 8:
        link.add((f"c{rng.randrange(12)}", f"b{rng.randrange(2)}"))
    csvs = {"rel": "A,B,C\n" + "".join(",".join(r) + "\n" for r in sorted(rel)),
            "link": "C,D\n" + "".join(",".join(r) + "\n" for r in sorted(link))}
    endogenous = "".join(f"{t}\n" for t in range(1, rows + 1) if rng.random() < 0.6)
    return csvs, endogenous


SEEDED_CSVS, SEEDED_ENDOGENOUS = seeded_bundle()

# name: (schema, constraints, csvs, endogenous file, insertion delta, deletion delta)
BUNDLES = {
    "pqr": (PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS, "3\n4\n", "+ q(e, w)\n", "- 2\n"),
    "fd": (FD_SCHEMA, FD_CONSTRAINTS, FD_CSVS, "1\n3\n", "+ rel(a, e, d)\n", "- 2\n"),
    "null": (NULL_SCHEMA, NULL_CONSTRAINTS, NULL_CSVS, "3\n4\n5\n", "+ s(a4)\n", "- 1\n"),
    "seeded": (SEEDED_SCHEMA, SEEDED_CONSTRAINTS, SEEDED_CSVS, SEEDED_ENDOGENOUS,
               "+ rel(k3, b1, c5)\n+ rel(k40, b0, c1)\n+ link(c2, b0)\n",
               "- 4\n- 17\n- 33\n"),
}

# name: argv before the bundle options
COMMANDS = {
    "measure-exact": ["measure"],
    "measure-local-ratio": ["measure", "--solver", "local-ratio"],
    "measure-randomized": ["measure", "--solver", "randomized", "--seed", "7"],
    "measure-endogenous-db": ["measure", "--semantics", "endogenous"],
    "measure-endogenous-endo": ["measure", "--semantics", "endogenous",
                                "--normalization", "endogenous"],
    "measure-null": ["measure", "--semantics", "null"],
    "conflicts": ["conflicts"],
    "repairs-s": ["repairs", "--enumerate", "s"],
    "repairs-c": ["repairs", "--enumerate", "c"],
    "alt-measures": ["alt-measures"],
    "update-insert": ["update", "--check-bounds", "--delta", "{insert}"],
    "update-delete": ["update", "--check-bounds", "--delta", "{delete}"],
}

# 52 of the seeded bundle's facts conflict, past the enumeration limit of 16,
# so these cases exit 2 and their golden file holds the error line
LIMITED = {("seeded", "repairs-s"), ("seeded", "repairs-c"), ("seeded", "alt-measures")}

CASES = sorted((b, c) for b in BUNDLES for c in COMMANDS)

_ELAPSED = re.compile(r',\n  "elapsed_ms": [-+.0-9e]+(?=\n\}\n\Z)')


def run_case(tmp_path, bundle, command):
    """(exit code, printed text without elapsed_ms) of one case."""
    schema, constraints, csvs, endogenous, insert, delete = BUNDLES[bundle]
    base = write_bundle(tmp_path, schema, constraints, csvs, endogenous)
    (tmp_path / "insert.txt").write_text(insert)
    (tmp_path / "delete.txt").write_text(delete)
    argv = [a.format(insert=tmp_path / "insert.txt", delete=tmp_path / "delete.txt")
            for a in COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + base)
    if code != 0:
        return code, err.getvalue()
    text, removed = _ELAPSED.subn("", out.getvalue())
    assert removed == 1, "elapsed_ms is expected as the last top-level key"
    json.loads(text)
    return code, text


@pytest.mark.parametrize("bundle,command", CASES)
def test_cli_output_matches_golden(tmp_path, bundle, command):
    code, text = run_case(tmp_path, bundle, command)
    assert code == (2 if (bundle, command) in LIMITED else 0)
    golden = (GOLDEN / f"{bundle}.{command}.json").read_text(encoding="utf-8")
    assert text == golden


def test_seeded_bundle_separates_local_ratio_from_exact():
    def golden(command):
        return json.loads((GOLDEN / f"seeded.{command}.json").read_text())

    # the pruned local-ratio answer may reach the optimum, so the recorded
    # method and certification, not the sizes, show which solver ran (the
    # strict gap is pinned on a library case in test_approx.py)
    exact, local_ratio = golden("measure-exact"), golden("measure-local-ratio")
    assert exact["denominator"] == local_ratio["denominator"] == 60
    assert (exact["method"], exact["exact"]) == ("exact", True)
    assert (local_ratio["method"], local_ratio["exact"]) == ("local_ratio", False)
    assert exact["numerator"] <= local_ratio["numerator"]


def test_seeded_null_golden_is_a_certified_optimum():
    # pairwise-disjoint cell conflicts each need a blanked cell of their own,
    # so a packing as large as the recorded blanking proves it smallest
    golden = json.loads((GOLDEN / "seeded.measure-null.json").read_text())
    schema = parse_schema(SEEDED_SCHEMA)
    cs = parse_constraints(SEEDED_CONSTRAINTS, schema)
    instance = load_instance(SEEDED_CSVS, schema)
    edges, _ = cell_conflicts(instance, cs)
    blocked, packing = set(), 0
    for e in edges:
        if not e & blocked:
            packing += 1
            blocked |= e
    changes = [CellChange(c["tid"], c["position"]) for c in golden["witness_changes"]]
    assert packing == golden["numerator"] == len(changes) == 19
    assert consistent(apply_changes(instance, changes), cs)


def record():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for bundle, command in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, text = run_case(Path(tmp), bundle, command)
        assert code == (2 if (bundle, command) in LIMITED else 0), (bundle, command, text)
        (GOLDEN / f"{bundle}.{command}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    record()
