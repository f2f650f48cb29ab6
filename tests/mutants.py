"""Re-run the recorded mutation checks: each mutant must fail the tests named
for it.

    python tests/mutants.py [NAME ...]

MUTANTS is one table.  A row names a mutant, the module it changes, an exact
snippet of that module's source, the snippet's replacement, and the test
node ids that the change must make fail.  For each row (or only those
named), src/ and tests/ are copied to a temporary directory, the snippet is
replaced there, and the named ids run with pytest in a subprocess over the
copy.  A mutant is killed when the tests fail, survived when they pass, and
stale when the snippet does not occur exactly once in the module or pytest
cannot run the ids (a renamed test, say): a stale row names code or tests
that have since changed, and the table needs mending.  The working tree is
only read.

The report is informational: the exit status is 0 whatever the outcomes.
Only the standard library is used, apart from pytest, which runs the ids.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


EVALUATION, CONFLICTS, EXACT, MODEL = (f"src/incmeter/{m}.py"
                                       for m in ("evaluation", "conflicts", "exact", "model"))
EAGER_REFERENCE = "tests/test_conflicts.py::test_built_edges_match_the_eager_reference"
KEY_GROUPS = "tests/test_evaluation.py::test_key_groups_equal_the_join_and_a_build_joins_no_fd"
BAD_ROW = ("tests/test_model.py::"
           "test_load_instance_gives_a_bad_row_the_row_checks_message_and_its_line[{}]")

MUTANTS = (
    # the FD key-group read and the shape that admits a constraint to it
    Mutant("key groups keep equal dependent values", EVALUATION,
           "for g in bucket[k:] if g[2][d] != value]", "for g in bucket[k:]]",
           (EAGER_REFERENCE, KEY_GROUPS,
            "tests/test_conflicts.py::test_lazy_edges_compare_hash_and_copy_as_eager_ones")),
    Mutant("key groups skip two-fact buckets", EVALUATION,
           "if len(bucket) > 1:", "if len(bucket) > 2:", (EAGER_REFERENCE, KEY_GROUPS)),
    Mutant("an order comparison passes as an FD", EVALUATION,
           'if c.op != "!=" or', 'if c.op not in ("!=", "<") or',
           ("tests/test_evaluation.py::test_fd_shapes_are_read_from_the_constraint",)),
    Mutant("a constant passes as an FD variable", EVALUATION,
           "isinstance(s, Var) and isinstance(t, Var)",
           "isinstance(s, (Var, Const)) and isinstance(t, (Var, Const))",
           ("tests/test_evaluation.py::test_fd_shapes_are_read_from_the_constraint",
            KEY_GROUPS)),
    Mutant("a single FD's key groups are not its components", CONFLICTS,
           'hg.__dict__["components"] = sorted(map(Component, groups), key=_first)', "pass",
           ("tests/test_conflicts.py::test_components_match_an_independent_split",)),
    # a delta's seeded join and its new solving edges
    Mutant("a delta seeds both atoms of an interchangeable pair", EVALUATION,
           "skip = {i for cls in _classes(constraint) for i in cls[1:]}", "skip = set()",
           ("tests/test_updates.py::test_an_insert_seeds_only_the_atoms_of_its_relations",)),
    Mutant("a new edge above another constraint's edge is solving", CONFLICTS,
           "            if not below:\n", "            if True:\n",
           ("tests/test_updates.py::test_a_new_edge_over_a_surviving_solving_edge_is_not_solving",
            "tests/test_acceptance.py::test_c5_incremental_conflict_maintenance")),
    # the closed cover of a complete multipartite component
    Mutant("the closed cover keeps the tied class of smallest tid", EXACT,
           "key=lambda c: (len(c), min(c))", "key=lambda c: (len(c), -min(c))",
           ("tests/test_exact.py::test_a_closed_cover_is_the_searched_cover_at_one_node",)),
    Mutant("any pair component closes by formula", EXACT,
           "if any(len(near) != len(around) - len(c) for near, c in classes.items()):",
           "if False:",
           ("tests/test_exact.py::test_only_complete_multipartite_pair_components_close",)),
    # the loader's bulk row test, which stands for _walk's per-row rule
    Mutant("the loader lets a duplicate row through", MODEL,
           "len(set(body)) < len(body) or not", "not",
           (BAD_ROW.format("duplicate row"), "tests/test_model.py::test_load_instance_errors")),
    Mutant("the loader lets a row of another arity through", MODEL,
           " or not set(map(len, body)) <= {pred.arity}", "",
           (BAD_ROW.format("arity"),)),
    Mutant("the loader lets NULL through", MODEL,
           "\n                or not {NULL}.isdisjoint(chain.from_iterable(body)))", ")",
           (BAD_ROW.format("reserved value"), "tests/test_model.py::test_load_instance_errors")),
)


def run(mutant: Mutant) -> tuple[str, str]:
    """The mutant's outcome, killed, survived or stale, and a note."""
    source = (ROOT / mutant.module).read_text(encoding="utf-8")
    found = source.count(mutant.snippet)
    if found != 1:
        return "stale", f"snippet found {found} times in {mutant.module}"
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        Path(tmp, mutant.module).write_text(
            source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--rootdir", tmp, *mutant.tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    last = (done.stdout.strip().splitlines() or ["no output"])[-1]
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "stale")
    return outcome, last


def main(argv=None) -> int:
    names = set(argv or ())
    unknown = names.difference(m.name for m in MUTANTS)
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}")
        return 0
    tally: dict[str, int] = {}
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, note = run(mutant)
        tally[outcome] = tally.get(outcome, 0) + 1
        print(f"{outcome:<9} {mutant.name}: {note}", flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
