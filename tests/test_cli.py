import argparse
import contextlib
import json
import random
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from incmeter import cli, measures
from incmeter.cli import main

from conftest import shallow_stack

PQR_SCHEMA = "p(A)\nq(A, B)\nr(A, C)\n"
PQR_CONSTRAINTS = ("dc no_pq : !exists p(x), q(x, y)\n"
                   "dc no_pr : !exists p(x), r(x, y)\n")
PQR_CSVS = {"p": "A\na\ne\n", "q": "A,B\na,b\n", "r": "A,C\na,c\n"}

FD_SCHEMA = "rel(A, B, C)\n"
FD_CONSTRAINTS = "fd f1 : rel : A -> B\nfd f2 : rel : C -> B\n"
FD_CSVS = {"rel": "A,B,C\na,b,d\na,e,c\na,b,c\n"}

NULL_SCHEMA = "s(A)\nr(A, B)\n"
NULL_CONSTRAINTS = "dc no_sr : !exists s(x), r(x, y)\n"
NULL_CSVS = {"s": "A\na2\na3\n", "r": "A,B\na3,a1\na3,a4\na3,a5\n"}


def write_bundle(tmp_path, schema, constraints, csvs, endogenous=None):
    (tmp_path / "schema.txt").write_text(schema)
    (tmp_path / "constraints.txt").write_text(constraints)
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    for name, text in csvs.items():
        (data / f"{name}.csv").write_text(text)
    if endogenous is not None:
        (data / "endogenous.txt").write_text(endogenous)
    return ["--schema", str(tmp_path / "schema.txt"),
            "--constraints", str(tmp_path / "constraints.txt"),
            "--data", str(data)]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_measure_json(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    payload = run_json(capsys, ["measure"] + base)
    assert set(payload) == {"command", "kind", "numerator", "denominator",
                            "decimal", "exact", "witness_deleted_tids", "method",
                            "normalization", "note", "witness_changes", "elapsed_ms"}
    assert payload["command"] == "measure"
    assert payload["kind"] == "g3"
    assert (payload["numerator"], payload["denominator"]) == (1, 4)
    assert payload["witness_deleted_tids"] == [1]
    assert payload["exact"] is True


def test_measure_text(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    assert main(["measure", "--format", "text"] + base) == 0
    out = capsys.readouterr().out
    assert "g3 = 1/4 (0.25)" in out
    assert "deleted tids: 1" in out


def test_measure_approximate_solvers(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    lr = run_json(capsys, ["measure", "--solver", "local-ratio"] + base)
    assert lr["exact"] is False and lr["method"] == "local_ratio"
    rr = run_json(capsys, ["measure", "--solver", "randomized", "--seed", "2"] + base)
    assert rr["exact"] is False and rr["numerator"] >= 1


def test_measure_endogenous_default_file(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS,
                        endogenous="3\n4\n# comment\n")
    payload = run_json(capsys, ["measure", "--semantics", "endogenous"] + base)
    assert (payload["numerator"], payload["denominator"]) == (2, 4)
    assert payload["witness_deleted_tids"] == [3, 4]
    alt = run_json(capsys, ["measure", "--semantics", "endogenous",
                            "--normalization", "endogenous"] + base)
    assert (alt["numerator"], alt["denominator"]) == (2, 2)
    assert alt["normalization"] == "endogenous_size"


def test_measure_endogenous_explicit_file(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    endo = tmp_path / "mine.txt"
    endo.write_text("2\n4\n")
    payload = run_json(capsys, ["measure", "--semantics", "endogenous",
                                "--endogenous", str(endo)] + base)
    assert (payload["numerator"], payload["denominator"]) == (4, 4)
    assert "no endogenous" in payload["note"]


def test_measure_null_semantics(tmp_path, capsys):
    base = write_bundle(tmp_path, NULL_SCHEMA, NULL_CONSTRAINTS, NULL_CSVS)
    payload = run_json(capsys, ["measure", "--semantics", "null"] + base)
    assert payload["kind"] == "g3_null"
    assert (payload["numerator"], payload["denominator"]) == (1, 8)
    assert payload["witness_changes"] == [{"tid": 5, "position": 1}]
    assert payload["witness_deleted_tids"] is None


def test_measure_flags_outside_their_semantics_are_bad_input(tmp_path, capsys):
    # endogenous and null semantics are solved exactly, and only endogenous
    # semantics has an endogenous normalization: anywhere else these flags
    # would be ignored, so they are refused before any file is read
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS, endogenous="3\n4\n")
    for argv, message in (
            (["--semantics", "endogenous", "--solver", "randomized", "--eps", "1/1000000"],
             "--solver randomized needs --semantics tuple; endogenous semantics is solved exactly"),
            (["--semantics", "null", "--solver", "local-ratio"],
             "--solver local-ratio needs --semantics tuple; null semantics is solved exactly"),
            (["--normalization", "endogenous"],
             "--normalization endogenous needs --semantics endogenous, not tuple"),
            (["--semantics", "null", "--normalization", "endogenous"],
             "--normalization endogenous needs --semantics endogenous, not null"),
            # only the randomized solver reads --eps, --seed and --reps
            (["--eps", "1/1000000", "--seed", "9"], "--eps needs --solver randomized, not exact"),
            (["--solver", "local-ratio", "--seed", "9"],
             "--seed needs --solver randomized, not local-ratio"),
            (["--semantics", "null", "--eps", "1/1000000"],
             "--eps needs --solver randomized, not exact"),
            (["--semantics", "endogenous", "--solver", "exact", "--reps", "5"],
             "--reps needs --solver randomized, not exact")):
        assert main(["measure", "--format", "json"] + argv + base[:4] + ["--data", "void"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "input", "message": message}
    # the values a semantics runs by stay accepted when named
    for argv, method in ((["--semantics", "endogenous", "--solver", "exact"], "exact"),
                         (["--semantics", "null", "--normalization", "db"], "exact"),
                         (["--solver", "randomized", "--normalization", "db"], "randomized")):
        assert run_json(capsys, ["measure"] + argv + base)["method"] == method
    # the randomized solver's flags, named at their defaults, change nothing
    named, unnamed = (run_json(capsys, ["measure", "--solver", "randomized"] + flags + base)
                      for flags in (["--eps", "1/10", "--seed", "0", "--reps", "5"], []))
    assert named.pop("elapsed_ms") >= 0 and unnamed.pop("elapsed_ms") >= 0 and named == unnamed


def test_repairs(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    s = run_json(capsys, ["repairs"] + base)
    assert s["kind"] == "s" and s["count"] == 2
    assert s["repairs"] == [[1, 2], [2, 3, 4]]
    c = run_json(capsys, ["repairs", "--enumerate", "c"] + base)
    assert c["repairs"] == [[2, 3, 4]]
    assert main(["repairs", "--enum-limit", "2"] + base) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource-limit"


def test_alt_measures(tmp_path, capsys):
    base = write_bundle(tmp_path, FD_SCHEMA, FD_CONSTRAINTS, FD_CSVS)
    payload = run_json(capsys, ["alt-measures"] + base)
    by_kind = {m["kind"]: m for m in payload["measures"]}
    assert (by_kind["count_srep"]["numerator"],
            by_kind["count_srep"]["denominator"]) == (2, 8)
    assert (by_kind["count_all"]["numerator"],
            by_kind["count_all"]["denominator"]) == (3, 8)
    assert by_kind["jaccard"]["decimal"] == 1.0


def test_alt_measures_print_the_counts_of_a_large_instance(tmp_path, capsys):
    # 3 conflicting facts among 15 004: count_all is 3 * 2^15001 / 2^15004,
    # whose terms have more than the 4300 digits Python prints by default
    csvs = dict(PQR_CSVS, p="A\na\ne\n" + "".join(f"x{i}\n" for i in range(15_000)))
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, csvs)
    assert main(["alt-measures", "--format", "text"] + base) == 0
    lines = capsys.readouterr().out.splitlines()
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:  # main put its cap back, so the expected line lifts it too
        sys.set_int_max_str_digits(0)
    try:
        assert lines[1] == f"count_all = {3 << 15_001}/{1 << 15_004} (0.375)"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert lines[2] == "jaccard = 3/15004 (0.000199947)"


def test_conflicts(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    payload = run_json(capsys, ["conflicts"] + base)
    assert payload["consistent"] is False
    assert payload["edges"] == [{"constraint": "no_pq", "tids": [1, 3]},
                                {"constraint": "no_pr", "tids": [1, 4]}]
    assert payload["solving_edges"] == [[1, 3], [1, 4]]
    assert payload["d"] == 2
    assert payload["degrees"] == {"1": 2, "2": 0, "3": 1, "4": 1}
    assert main(["conflicts", "--format", "text"] + base) == 0
    text = capsys.readouterr().out
    assert text.splitlines() == ["no_pq: 1,3", "no_pr: 1,4"]


def test_update_with_bounds(tmp_path, capsys, monkeypatch):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    delta = tmp_path / "delta.txt"
    delta.write_text("+ q(e, w)\n")
    solves, g3 = [], measures._g3
    monkeypatch.setattr(measures, "_g3", lambda *a, **k: solves.append(1) or g3(*a, **k))
    payload = run_json(capsys, ["update", "--delta", str(delta),
                                "--check-bounds"] + base)
    # the bounds are read from the one solve of each side
    assert len(solves) == 2
    assert payload["size_before"] == 4 and payload["size_after"] == 5
    assert payload["measure_before"]["numerator"] == 1
    assert payload["measure_after"]["numerator"] == 2
    assert payload["bounds"]["applicable"] is True
    assert all(b["holds"] for b in payload["bounds"]["bounds"])


def test_update_mixed_delta_rejects_bounds(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    delta = tmp_path / "delta.txt"
    delta.write_text("+ q(e, w)\n- 2\n")
    ok = run_json(capsys, ["update", "--delta", str(delta)] + base)
    assert ok["bounds"] is None and ok["size_after"] == 4
    assert main(["update", "--delta", str(delta), "--check-bounds"] + base) == 1
    assert "pure insertion or pure deletion" in capsys.readouterr().err
    # refused before anything is solved, so no budget can run out first
    assert main(["update", "--delta", str(delta), "--check-bounds",
                 "--node-budget", "0", "--format", "json"] + base) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_update_refuses_a_bad_delta_before_any_budget_runs_out(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    delta = tmp_path / "delta.txt"
    for text, code, error in (("+ q(e, NULL)\n", 1, "input"), ("- 9\n", 1, "input"),
                              ("+ q(e, w)\n", 2, "resource-limit")):
        delta.write_text(text)
        for extra in ([], ["--check-bounds"]):
            assert main(["update", "--delta", str(delta), "--node-budget", "0",
                         "--format", "json"] + extra + base) == code
            assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no process-wide cap on printing ints")
@pytest.mark.parametrize("cap", [4300, 5000])
def test_alt_measures_put_the_digit_cap_back(tmp_path, capsys, cap):
    base = write_bundle(tmp_path, FD_SCHEMA, FD_CONSTRAINTS, FD_CSVS)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cap)
    try:
        run_json(capsys, ["alt-measures"] + base)
        assert sys.get_int_max_str_digits() == cap
    finally:
        sys.set_int_max_str_digits(before)


def test_emit_asp_stdout_is_raw_program(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    assert main(["emit-asp", "--style", "normal"] + base) == 0
    out = capsys.readouterr().out
    assert out.startswith("p(1,a).")
    assert ":~ del(T)." in out
    assert "#maxint = 100." in out


def test_emit_asp_output_file(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    target = tmp_path / "program.lp"
    payload = run_json(capsys, ["emit-asp", "--output", str(target),
                                "--no-weak"] + base)
    assert set(payload) == {"command", "output", "statements", "execution", "elapsed_ms"}
    assert payload["output"] == str(target)
    assert payload["execution"] is None
    text = target.read_text()
    assert ":~" not in text and "dist(N)" in text


def test_emit_asp_execute(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    script = tmp_path / "fakedlv"
    script.write_text("#!/bin/sh\necho 'Best model: {del(1), dist(1)}'\n"
                      "echo 'Cost ([Weight:Level]): <[1:1]>'\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    payload = run_json(capsys, ["emit-asp", "--execute",
                                "--solver-path", str(script)] + base)
    assert payload["execution"] == {"dist": 1, "deleted": [1], "cost": 1}


def test_emit_asp_execute_without_solver(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("INCMETER_ASP_SOLVER", raising=False)
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    assert main(["emit-asp", "--execute"] + base) == 1
    assert "no external solver" in capsys.readouterr().err


def test_input_errors_exit_1(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    assert main(["measure", "--schema", str(tmp_path / "nope.txt")] + base[2:]) == 1
    assert "schema file not found" in capsys.readouterr().err
    assert main(["measure"] + base[:4] + ["--data", str(tmp_path / "void")]) == 1
    assert "data directory not found" in capsys.readouterr().err
    (tmp_path / "data" / "stray.csv").write_text("A\nx\n")
    assert main(["measure"] + base) == 1
    assert "does not match any schema predicate" in capsys.readouterr().err
    (tmp_path / "data" / "stray.csv").unlink()
    (tmp_path / "data" / "endogenous.txt").write_text("abc\n")
    assert main(["measure"] + base) == 1
    assert "not a tid" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["schema.txt", "constraints.txt", "data/q.csv",
                                    "data/endogenous.txt", "delta.txt"])
def test_a_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, target):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS, endogenous="1\n")
    delta = tmp_path / "delta.txt"
    delta.write_text("+ q(e, w)\n")
    bad = tmp_path / target
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    assert main(["update", "--delta", str(delta), "--format", "json"] + base) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert err["message"].startswith("cannot read ") and str(bad) in err["message"]


@pytest.mark.parametrize("output", ["data", "missing/program.lp"],
                         ids=["directory", "missing parent"])
def test_emit_asp_output_that_cannot_be_written_is_bad_input(tmp_path, capsys, output):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    target = tmp_path / output
    assert main(["emit-asp", "--output", str(target), "--format", "json"] + base) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert err["message"].startswith("cannot write --output file: ")
    assert str(target) in err["message"]


@pytest.mark.parametrize("endogenous, message", [
    ("1_0\n", "line 1: not a tid: '1_0'"),  # int() reads it as 10
    ("1\n\n# deletable\n+3  # comment\n", "line 4: not a tid: '+3'"),
])
def test_endogenous_file_takes_the_tids_load_instance_takes(tmp_path, capsys,
                                                            endogenous, message):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS, endogenous)
    assert main(["measure", "--semantics", "endogenous", "--format", "text"] + base) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("target, text, message", [
    ("data/q.csv", "A,B\na,b\nc," + "d" * 140_000 + "\n",
     "line 3: q: malformed csv: field larger than field limit (131072)"),
    ("data/endogenous.txt", "1\n" + "9" * 5000 + "\n",
     "line 2: tid of 5000 digits is too long"),
    ("delta.txt", "+ q(e, " + "w" * 140_000 + ")\n",
     "line 1: malformed values: field larger than field limit (131072)"),
    ("delta.txt", "# drop\n- " + "9" * 5000 + "\n", "line 2: tid of 5000 digits is too long"),
], ids=["csv field", "endogenous tid", "delta value", "delta tid"])
def test_input_past_a_parsers_size_limit_is_bad_input(tmp_path, capsys, target, text,
                                                      message):
    # csv refuses a field over its limit, and int() a string of more digits
    # than the interpreter's cap, with errors of their own
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    delta = tmp_path / "delta.txt"
    delta.write_text("+ q(e, w)\n")
    (tmp_path / target).write_text(text)
    command = ["update", "--delta", str(delta)] if target == "delta.txt" else ["measure"]
    assert main(command + ["--format", "json"] + base) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "input", "message": message}


def test_an_order_test_on_a_value_past_the_digit_cap(tmp_path, capsys):
    # int() refuses more digits than the interpreter's cap: the comparison
    # calls that bad input, and a program quotes the value, as one over #maxint
    long = "9" * 5000
    base = write_bundle(tmp_path, "r(A, B)\n", "dc o : !exists r(x, y), r(x, z), y < z\n",
                        {"r": f"A,B\na,{long}\na,1\n"})
    for command in ("measure", "conflicts"):
        assert main([command, "--format", "json"] + base) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "input", "message": "value of 5000 digits is too long"}
    assert main(["emit-asp", "--format", "json"] + base) == 0
    out = capsys.readouterr().out
    assert f'r(1,a,"{long}").' in out.splitlines() and "r(2,a,1)." in out.splitlines()


def test_measure_empty_data_directory(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, {})
    payload = run_json(capsys, ["measure"] + base)
    assert (payload["numerator"], payload["denominator"]) == (0, 1)
    assert "consistent" in payload["note"]


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["measure"]) == 1
    assert main(["measure", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_error_rendering_follows_format(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    bad = ["measure", "--schema", str(tmp_path / "nope.txt")] + base[2:]
    assert main(bad) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input" and "schema file" in err["message"]
    assert main(bad + ["--format", "text"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # out-of-range flags are bad input, not a library traceback or a budget
    # error; an explicit --format also covers errors raised while parsing
    for argv, message in (
            (["measure", "--reps=0"], "--reps must be at least 1, got 0"),
            (["measure", "--eps=0"], "--eps must be positive, got 0"),
            (["measure", "--eps=-1/2"], "--eps must be positive, got -1/2"),
            (["measure", "--node-budget", "-5"], "--node-budget must be at least 0, got -5"),
            (["repairs", "--enum-limit", "-1"], "--enum-limit must be at least 0, got -1"),
            (["alt-measures", "--enum-limit=-1"], "--enum-limit must be at least 0, got -1"),
            (["measure", "--format", "json", "--eps", "abc"], "not a fraction: 'abc'"),
            (["measure", "--format=json", "--bogus"], "unrecognized arguments: --bogus")):
        assert main(argv + base) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "input", "message": message}
    monkey_free = ["emit-asp", "--execute", "--solver-path", "/no/such"] + base
    assert main(monkey_free) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "solver-unavailable"


def test_budget_exhaustion_exits_2(tmp_path, capsys):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    assert main(["measure", "--node-budget", "0"] + base) == 2
    assert "budget" in capsys.readouterr().err
    assert main(["measure", "--node-budget", "0", "--format", "json"] + base) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "resource-limit"
    assert 0 < error["lower_bound"] <= error["best_size"]
    assert main(["measure", "--solver", "randomized", "--eps", "1/5000"] + base) == 2


def test_budget_exhaustion_exits_2_on_key_groups(tmp_path, capsys):
    # two key groups under one FD, each of three B-classes of two rows
    # (optimum 4 each, root packing 3): each closes by formula at one node,
    # so 0 nodes run out at the first and 1 at the second; a group that
    # closes is bracketed by its exact 4 on both sides, searched or not
    rows = "A,B,C\n" + "".join(f"a{i % 2},b{i % 3},c{i}\n" for i in range(12))
    base = write_bundle(tmp_path, FD_SCHEMA, "fd f1 : rel : A -> B\n", {"rel": rows})
    for budget, bracket in (("0", (8, 8)), ("1", (8, 8))):
        assert main(["measure", "--node-budget", budget, "--format", "json"] + base) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "resource-limit"
        assert (error["lower_bound"], error["best_size"]) == bracket
    assert main(["measure", "--node-budget", "2", "--format", "json"] + base) == 0
    assert json.loads(capsys.readouterr().out)["numerator"] == 8


def test_a_deep_search_exits_2_with_its_bracket(tmp_path, capsys):
    # group a_i is a triangle under A -> B; B -> C joins its last row to the
    # next group's first: 150 triangles in a chain, 599 edges, optimum 300
    rows = ["A,B,C"]
    for i in range(150):
        before = f"b{i - 1}" if i else "start"
        rows += [f"a{i},{before},1", f"a{i},g{i},0", f"a{i},b{i},0"]
    base = write_bundle(tmp_path, FD_SCHEMA, "fd f1 : rel : A -> B\nfd f2 : rel : B -> C\n",
                        {"rel": "\n".join(rows) + "\n"})
    with shallow_stack():
        code = main(["measure", "--node-budget", "1000", "--format", "json"] + base)
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "resource-limit"
    assert (error["best_size"], error["lower_bound"]) == (300, 225)


def test_large_eps_is_accepted(tmp_path, capsys):
    # 1e400 is past the float range, and a step above 1 would be too coarse
    # for the LP to take any
    base = write_bundle(tmp_path, FD_SCHEMA, FD_CONSTRAINTS, FD_CSVS)
    for eps in ("10000", "1e400"):
        payload = run_json(capsys, ["measure", "--solver", "randomized", "--eps", eps] + base)
        assert payload["exact"] is False and payload["numerator"] >= 1


def test_console_script_round_trip(tmp_path):
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    proc = subprocess.run([sys.executable, "-m", "incmeter.cli", "measure"] + base,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["numerator"] == 1


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; no parsed flag may carry over
    base = write_bundle(tmp_path, PQR_SCHEMA, PQR_CONSTRAINTS, PQR_CSVS)
    runs = (["measure", "--solver", "randomized"] + base, ["measure"] + base,
            ["measure", "--format", "text"] + base, ["measure", "--solver", "nope"] + base)

    def payload(out):
        # elapsed_ms is the one field that differs between runs
        return {k: v for k, v in json.loads(out).items() if k != "elapsed_ms"}

    for argv in runs:
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "incmeter.cli"] + argv,
                               capture_output=True, text=True)
        assert (code, err) == (fresh.returncode, fresh.stderr)
        if code != 0:
            assert out == fresh.stdout == ""
            assert "invalid choice: 'nope'" in err
        elif "text" in argv:
            assert out == fresh.stdout
        else:
            assert payload(out) == payload(fresh.stdout)


def _reference_dumps(payload):
    """The JSON printer before the bulk one: json's pure-Python encoder, which
    indent selects."""
    return json.dumps(payload, indent=2)


@contextlib.contextmanager
def _uncapped():
    """Lift the cap on printing long ints, as _emit does while it prints."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


# str keys, and int keys, which JSON writes as their decimal strings
_KEYS = ("command", "tids", "", "caf\u00e9", "\u2603 \"q\"", "a\\b\nc", "\U0001f600",
         0, -7, 2 ** 64)


def _random_value(rng, depth):
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([True, False, None, 0, -1, 0.0, -0.0, 1e300, 2.5e-8,
                           float("inf"), float("-inf"), float("nan")])
    if kind == 1:
        return rng.randrange(-10 ** 12, 10 ** 12) if rng.random() < 0.97 else (
            rng.choice([1, -1]) * 7 ** rng.randint(5100, 5400))  # over 4300 digits
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind in (3, 4):
        return "".join(rng.choice("ab Z\"\\/\n\t\x00\x7f\u00e9\u2603\U0001f600")
                       for _ in range(rng.randrange(6)))
    n = rng.randrange(6)
    if kind == 5:
        return [rng.randrange(10 ** 6) for _ in range(n)]
    if kind == 6:
        return tuple(_random_value(rng, depth + 1) for _ in range(n))
    if kind == 7:
        return [_random_value(rng, depth + 1) for _ in range(n)]
    return {rng.choice(_KEYS): _random_value(rng, depth + 1) for _ in range(n)}


def test_json_output_matches_the_indenting_encoder_byte_for_byte(capsys):
    rng = random.Random(23)
    args = argparse.Namespace(format="json")
    for _ in range(20_000):
        payload = {rng.choice(_KEYS): _random_value(rng, 1) for _ in range(rng.randrange(5))}
        cli._emit(args, time.perf_counter(), payload, ())
        with _uncapped():  # _emit printed with the cap lifted and put it back
            assert capsys.readouterr().out == _reference_dumps(payload) + "\n"
    # the top level may be any value, and a flat container of any length
    for value in ([], {}, (), "x", 3, None, [1, True], list(range(5000)),
                  {str(i): i for i in range(5000)}, [[]] * 3, [{}, [()]]):
        assert cli._dumps(value) == _reference_dumps(value)


def test_every_golden_payload_prints_as_recorded():
    golden = sorted((Path(__file__).parent / "golden" / "cli").glob("*.json"))
    assert golden
    for path in golden:
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert cli._dumps(payload) == _reference_dumps(payload), path.name


def test_conflicts_of_a_2k_row_instance_print_as_the_indenting_encoder(
        tmp_path, capsys, monkeypatch):
    rng = random.Random(11)
    rows = "".join(f"k{rng.randrange(500)},b{rng.randrange(3)},c{i}\n" for i in range(2000))
    base = write_bundle(tmp_path, FD_SCHEMA, FD_CONSTRAINTS, {"rel": "A,B,C\n" + rows})
    printed = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda payload: printed.append(
        (dumps(payload), _reference_dumps(payload))) or printed[-1][0])
    payload = run_json(capsys, ["conflicts"] + base)
    assert len(payload["vertices"]) > 1900 and len(payload["edges"]) > 1000
    [(text, reference)] = printed
    assert text == reference
