"""Re-run the recorded mutation checks: each mutant must fail the tests named
for it.

    python tests/mutants.py [NAME ...]

MUTANTS is one table.  A row names a mutant, the module it changes, an exact
snippet of that module's source, the snippet's replacement, and the test
node ids that the change must make fail.  For each row (or only those
named), src/, tests/ and README.md, which some tests read, are copied to a
temporary directory, the snippet is replaced there, and the named ids run
with pytest in a subprocess over the copy.  A mutant is killed when the
tests fail, survived when they pass, and stale when the snippet does not
occur exactly once in the module or pytest cannot run the ids (a renamed
test, say): a stale row names code or tests that have since changed, and the
table needs mending.  The working tree is only read.

The exit status is 0 when every mutant run is killed and 1 when any
survives or is stale, so a run can gate a build; it is also 1 for an
unknown mutant name.
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


EVALUATION, CONFLICTS, EXACT, MODEL, MEASURES, UPDATES, CLI, APPROX = (
    f"src/incmeter/{m}.py" for m in (
        "evaluation", "conflicts", "exact", "model", "measures", "updates", "cli", "approx"))
C4 = "tests/test_acceptance.py::test_c4_update_bound_inequalities"
C5 = "tests/test_acceptance.py::test_c5_incremental_conflict_maintenance"
DERIVED_UNBUILT = ("tests/test_conflicts.py::"
                   "test_a_derived_version_solves_without_building_its_labeled_edges")
EAGER_REFERENCE = "tests/test_conflicts.py::test_built_edges_match_the_eager_reference"
KEY_GROUPS = "tests/test_evaluation.py::test_key_groups_equal_the_join_and_a_build_joins_no_fd"
NEW_OVER_SURVIVING = ("tests/test_updates.py::"
                      "test_a_new_edge_over_a_surviving_solving_edge_is_not_solving")
BAD_ROW = ("tests/test_model.py::"
           "test_load_instance_gives_a_bad_row_the_row_checks_message_and_its_line[{}]")
REFERENCE_LOADER = "tests/test_model.py::test_loading_matches_the_reference_loader"
PINNED_COUNT = "tests/test_approx.py::test_length_scheme_iteration_count_is_pinned"
GOLDEN = "tests/test_cli_golden.py::test_cli_output_matches_golden[{}]"

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
    Mutant("a seeded join runs for a relation the seed holds no fact of", EVALUATION,
           "if first not in skip and seed.table(atom.predicate, ()):", "if first not in skip:",
           ("tests/test_updates.py::test_an_insert_seeds_only_the_atoms_of_its_relations",)),
    Mutant("a full join stops ordering interchangeable atoms", EVALUATION,
           "classes = _classes(constraint) if first is None else ()", "classes = ()",
           ("tests/test_evaluation.py::"
            "test_plans_fold_fixed_values_and_pair_interchangeable_atoms",)),
    Mutant("a new edge over a surviving solving edge is solving", CONFLICTS,
           "frozenset(s) in below", "False",
           (NEW_OVER_SURVIVING, C5)),
    Mutant("a new edge is tested against no surviving solving edge", CONFLICTS,
           "below = set(kept) if found else ()", "below = ()",
           (NEW_OVER_SURVIVING, C5)),
    Mutant("a new edge is tested against too few of its subsets", CONFLICTS,
           "range(1, len(e))", "range(1, len(e) - 1)",
           (C5, "tests/test_updates.py::"
            "test_delete_only_and_one_relation_deltas_match_a_rebuild_on_the_corpus")),
    Mutant("a derive leaves the new solving edges out of its components", CONFLICTS,
           "kept + new_solving", "kept",
           (C5, DERIVED_UNBUILT,
            "tests/test_updates.py::test_a_chain_of_mixed_deltas_at_scale_matches_a_rebuild")),
    Mutant("a delete-only derive cuts its parts out of order", CONFLICTS,
           "if new_solving else kept))", "if new_solving else kept[::-1]))",
           (C5, "tests/test_updates.py::"
            "test_delete_only_and_one_relation_deltas_match_a_rebuild_on_the_corpus")),
    Mutant("a derive keeps the replaced components' nodes", CONFLICTS,
           "hg._answer.nodes - sum(c.optimum.nodes for c in out), parts)",
           "hg._answer.nodes, parts)",
           ("tests/test_exact.py::"
            "test_a_derived_version_is_handed_the_answer_and_the_components_replaced",
            "tests/test_exact.py::"
            "test_closed_covers_and_nodes_agree_across_versions_of_the_same_edges",
            NEW_OVER_SURVIVING)),
    Mutant("a derive appends its new components", CONFLICTS,
           "insort(out, c, key=_first)", "out.append(c)",
           (C5, DERIVED_UNBUILT,
            "tests/test_updates.py::test_a_chain_of_scan_shaped_deltas_matches_a_rebuild")),
    # the pickled value, the labeled edges and the split
    Mutant("a pickle carries all but the last constraint's sets", CONFLICTS,
           "(self.vertices, self._sets)", "(self.vertices, self._sets[:-1])",
           ("tests/test_conflicts.py::test_lazy_edges_compare_hash_and_copy_as_eager_ones",
            "tests/test_updates.py::test_a_pickled_or_deep_copied_version_is_its_value_alone")),
    Mutant("labeled edges go in reversed constraint order", CONFLICTS,
           "for label, sets in self._sets", "for label, sets in reversed(self._sets)",
           (EAGER_REFERENCE, "tests/test_cli.py::test_conflicts",
            "tests/test_conflicts.py::test_lazy_edges_compare_hash_and_copy_as_eager_ones")),
    Mutant("the larger head leads a merged member list", CONFLICTS,
           "if m[0] < big[0]:", "if m[0] > big[0]:",
           ("tests/test_conflicts.py::test_split_matches_the_depth_first_reference",
            "tests/test_conflicts.py::test_components_match_an_independent_split")),
    # the closed cover of a complete multipartite component
    Mutant("the closed cover keeps the tied class of smallest tid", EXACT,
           "key=lambda c: (len(c), min(c))", "key=lambda c: (len(c), -min(c))",
           ("tests/test_exact.py::test_a_closed_cover_is_the_searched_cover_at_one_node",)),
    Mutant("any pair component closes by formula", EXACT,
           "if any(len(near) != len(around) - len(c) for near, c in classes.items()):",
           "if False:",
           ("tests/test_exact.py::test_only_complete_multipartite_pair_components_close",)),
    Mutant("an exhausted budget brackets a closable component by search bounds", EXACT,
           "    if (cover := _closed_cover(component)) is not None:\n"
           "        return len(cover), len(cover)\n", "",
           ("tests/test_cli.py::test_budget_exhaustion_exits_2_on_key_groups",
            "tests/test_exact.py::"
            "test_an_exhausted_budget_brackets_closable_components_by_their_size")),
    # positivity, the kept report and the update bounds
    Mutant("g3 reads one-tid edges as consistent", MEASURES,
           '    if n == 0:\n        return _empty_report("g3")\n    if solver',
           '    if n == 0 or hg.d == 1:\n        return _empty_report("g3")\n    if solver',
           ("tests/test_postulates.py::"
            "test_a_measure_is_positive_exactly_on_inconsistent_instances",
            "tests/test_measures.py::test_g3_value_definition_on_random_instances")),
    Mutant("a kept report is read under another node budget", MEASURES,
           "hg._report[0] == (n, node_budget)", "hg._report[0][0] == n",
           ("tests/test_updates.py::"
            "test_a_bound_check_after_inc_deg_g3_reads_each_versions_kept_report",)),
    Mutant("the insertion upper bound drops its eps/(1+eps) term", UPDATES,
           "Fraction(b * (n + k) + k * nb, nb * (n + k))", "Fraction(b, nb)",
           (C4, "tests/test_updates.py::test_the_bound_sides_equal_their_fraction_arithmetic",
            "tests/test_postulates.py::test_the_update_bounds_hold_on_every_single_fact_delta")),
    # a delta read back from the link and the buckets it edits
    Mutant("a link matches a delta by its sizes", MODEL,
           "link[3:] == ((rows, deletions),)",
           "link[3:] and tuple(map(len, link[3])) == (len(rows), len(deletions))",
           ("tests/test_updates.py::test_a_re_presented_delta_is_read_from_the_link_by_value",
            "tests/test_updates.py::test_another_delta_from_the_parent_is_checked_in_full")),
    Mutant("a bucket gains a fact at its end", MODEL,
           "insort(table.setdefault(key(f[2]), []), f, key=_TID)",
           "table.setdefault(key(f[2]), []).append(f)",
           ("tests/test_updates.py::test_what_if_deltas_from_older_versions_match_a_rebuild",
            "tests/test_model.py::test_each_version_of_a_derive_chain_rereads_its_facts")),
    # the loader's bulk row test, which stands for _walk's per-row rule
    Mutant("the loader lets a duplicate row through", MODEL,
           "len(set(body)) < len(body) or not", "not",
           (BAD_ROW.format("duplicate row"), "tests/test_model.py::test_load_instance_errors")),
    Mutant("the loader lets a row of another arity through", MODEL,
           " or not set(map(len, body)) <= {pred.arity}", "",
           (BAD_ROW.format("arity"),)),
    Mutant("the loader lets NULL through", MODEL,
           "\n                or NULL in text and not {NULL}.isdisjoint("
           "chain.from_iterable(body)))", ")",
           (BAD_ROW.format("reserved value"), "tests/test_model.py::test_load_instance_errors")),
    Mutant("the loader checks for NULL only where the text has none", MODEL,
           "or NULL in text and not", "or NULL not in text and not",
           (BAD_ROW.format("reserved value"), REFERENCE_LOADER)),
    # the split of unquoted text, the loader's rows as the index, and JSON keys
    Mutant("the loader splits quoted text", MODEL,
           """quoted, limit = '"' in text or""", "quoted, limit =",
           (REFERENCE_LOADER,)),
    Mutant("a loaded index takes each relation's rows reversed", MODEL,
           "groups[name] = batch", "groups[name] = batch[::-1]",
           ("tests/test_model.py::test_a_loaded_instance_seeds_its_index_from_the_loaders_rows",)),
    Mutant("a walked dict writes an int key unquoted", CLI,
           "return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))",
           "return encode_basestring_ascii(key) if isinstance(key, str) else json.dumps(key)",
           ("tests/test_cli.py::test_json_output_matches_the_indenting_encoder_byte_for_byte",)),
    # a measure's and a bound check's JSON objects, built in the CLI alone
    Mutant("a null witness's cells are left out of the measure object", CLI,
           "elif isinstance(report.witness, nullrep.NullRepairSolution):", "elif False:",
           (*map(GOLDEN.format, ("fd-measure-null", "null-measure-null", "pqr-measure-null",
                                 "seeded-measure-null")),
            "tests/test_measures.py::test_report_json_shape")),
    Mutant("each bound writes its rhs as its lhs", CLI,
           '"lhs": str(b.lhs)', '"lhs": str(b.rhs)',
           (*map(GOLDEN.format, ("pqr-update-delete", "pqr-update-insert",
                                 "seeded-update-delete", "seeded-update-insert")),
            "tests/test_updates.py::test_the_bound_sides_equal_their_fraction_arithmetic")),
    # the length scheme's stop at its first exactly certified iterate
    Mutant("the length scheme runs until every edge sum reaches 1", APPROX,
           "if total * top <= bar * taken * low or low >= 1.0:", "if low >= 1.0:",
           (PINNED_COUNT, "tests/test_approx.py::"
            "test_the_smallest_eps_certifies_a_benchmark_shaped_graph_in_a_second")),
    Mutant("the float test alone stops the length scheme", APPROX,
           "if certificate[1] <= (1 + eps) * certificate[2]:", "if True:",
           ("tests/test_approx.py::test_certification_retries_at_half_the_step",)),
    Mutant("the load maximum is read before the step's update", APPROX,
           "load[v] += 1\n            top = max(top, load[v])",
           "top = max(top, load[v])\n            load[v] += 1",
           (PINNED_COUNT,
            "tests/test_approx.py::test_benchmark_shaped_components_certify_at_the_first_rung")),
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
        shutil.copy(ROOT / "README.md", tmp)
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
        return 1
    tally: dict[str, int] = {}
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, note = run(mutant)
        tally[outcome] = tally.get(outcome, 0) + 1
        print(f"{outcome:<9} {mutant.name}: {note}", flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items())))
    return 0 if set(tally) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
