import random
import re
import stat
from itertools import chain
from pathlib import Path

import pytest

from incmeter.aspgen import (AspProgram, emit_repair_program, parse_best_model,
                             parse_brave_answers, run_brave_distances, run_external_solver)
from incmeter.errors import InputError, SolverUnavailableError
from incmeter.model import Fact, Instance, Predicate, Schema, parse_constraints, parse_schema

from oracles import normalize_tokens

GOLDEN = Path(__file__).parent / "golden" / "repair_program_reference.lp"

CANNED_BEST = """DLV [build BEN/Dec 17 2012]

Best model: {p_a(1,a,d), q_a(3,a,b,s), del(1), dist(1)}
Cost ([Weight:Level]): <[1:1]>
"""


def test_normal_style_matches_reference_listing(pqr):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs, style="normal")
    assert normalize_tokens(program.render()) == \
        normalize_tokens(GOLDEN.read_text())


def test_disjunctive_style_structure(pqr):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs, style="disjunctive")
    text = program.render()
    assert "p(1,a)." in program.facts and "q(3,a,b)." in program.facts
    # one rule per constraint, alternatives joined in the head
    disj = [r for r in program.rules if " v " in r]
    assert len(disj) == 2
    assert "p_a(T, X, d) v q_a(T2, X, Y, d) :- p(T, X), q(T2, X, Y)." in disj
    # a stays rule and a deletion projection per predicate
    assert sum(", s) :- " in r for r in program.rules) == 3
    assert sum(r.startswith("del(T) :- ") for r in program.rules) == 3
    assert ":~ del(T)." in text


def test_counting_block_toggles(pqr):
    _, cs, inst = pqr
    bare = emit_repair_program(inst, cs, with_count=False, with_weak=False)
    assert bare.counting == () and bare.weak == ()
    assert not any(r.startswith("del(") for r in bare.rules)
    weak_only = emit_repair_program(inst, cs, with_count=False, with_weak=True)
    assert weak_only.counting == ()
    assert any(r.startswith("del(") for r in weak_only.rules)
    count_only = emit_repair_program(inst, cs, with_count=True, with_weak=False)
    assert count_only.weak == ()
    assert any(line.startswith("dist(N)") for line in count_only.counting)
    with pytest.raises(InputError):
        emit_repair_program(inst, cs, style="nonsense")


def test_counting_guards_are_asymmetric(pqr):
    # cardDB sums base-table counts that may exceed maxint's #int range, so
    # it carries no #int guard; cardRepDB keeps one
    _, cs, inst = pqr
    counting = emit_repair_program(inst, cs, style="normal").counting
    carddb = next(l for l in counting if l.startswith("cardDB"))
    cardrep = next(l for l in counting if l.startswith("cardRepDB"))
    assert "#int" not in carddb
    assert cardrep.startswith("cardRepDB(N) :- #int(N),")


def test_maxint_tracks_instance_size_and_tids():
    schema = parse_schema("p(A)\n")
    cs = parse_constraints("dc c : !exists p(x), p(y), x != y\n", schema)
    big = Instance(schema, tuple(Fact(i + 1, "p", (str(i),)) for i in range(150)))
    program = emit_repair_program(big, cs)
    assert "#maxint = 151." in program.counting
    sparse = Instance(schema, (Fact(500, "p", ("a",)),))
    assert "#maxint = 501." in emit_repair_program(sparse, cs).counting
    small = Instance(schema, (Fact(1, "p", ("a",)),))
    assert "#maxint = 100." in emit_repair_program(small, cs).counting


def test_value_rendering():
    schema = parse_schema("p(A)\n")
    cs = parse_constraints("dc c : !exists p(x), p(y), x != y\n", schema)
    rows = ("ok", "Upper", "has space", "99", "150", "007", 'quo"te', "back\\slash",
            "1\u0663")
    inst = Instance(schema, tuple(Fact(i + 1, "p", (v,)) for i, v in enumerate(rows)))
    facts = emit_repair_program(inst, cs).facts
    assert facts[0] == "p(1,ok)."
    assert facts[1] == 'p(2,"Upper").'
    assert facts[2] == 'p(3,"has space").'
    assert facts[3] == "p(4,99)."     # integer within #maxint
    assert facts[4] == 'p(5,"150").'  # integer beyond #maxint
    assert facts[5] == 'p(6,"007").'  # leading zero is not a DLV integer
    assert facts[6] == 'p(7,"quo\\"te").'
    assert facts[7] == 'p(8,"back\\\\slash").'
    assert facts[8] == 'p(9,"1\u0663").'  # int("1\u0663") == 13, but not a DLV integer


_REF_BARE_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_REF_BARE_INT_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


def _reference_facts(instance):
    """The fact lines as emit_repair_program wrote them before values were
    sorted out in bulk: every distinct value rendered on its own."""
    maxint = max(100, len(instance) + 1,
                 max((f.tid for f in instance.facts), default=0) + 1)

    def render(value):
        if _REF_BARE_IDENT_RE.match(value):
            return value
        if _REF_BARE_INT_RE.match(value) and int(value) <= maxint:
            return value
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'

    text = dict.fromkeys(chain.from_iterable(f.values for f in instance.facts))
    for value in text:
        text[value] = render(value)
    return tuple(f"{p}({tid},{','.join(map(text.__getitem__, values))})."
                 for tid, p, values in instance.facts)


# values needing quotes or escapes, holding newlines (some whose lines are
# each bare), with a leading capital, ints on both sides of #maxint and
# digits outside ASCII
_ODD_VALUES = ("ok", "x_1Y", "", "Upper", "has space", 'quo"te', "back\\slash",
               'both\\"', "a\nb", "ab\n", "\nab", "a\n\nb", "A\nb", "a\r", "\r\n",
               "0", "7", "00", "007", "-3", "99", "100", "101", "102", "10000",
               "1\u0663", "\u0663", "\u00e9t\u00e9", "caf\u00e9", "_x", "x-y", "x.y")


@pytest.mark.parametrize("seed", range(40))
def test_fact_rendering_matches_the_value_by_value_reference(seed):
    rng = random.Random(seed)
    schema = parse_schema("p(A)\nq(A, B)\n")
    cs = parse_constraints("dc c : !exists p(x), q(x, y)\n", schema)
    pool = _ODD_VALUES + tuple(f"v{i}" for i in range(rng.randrange(1, 200)))
    rows = {(name, tuple(rng.choice(pool) for _ in range(arity)))
            for name, arity in (("p", 1), ("q", 2)) * rng.randrange(1, 150)}
    inst = Instance(schema, tuple(Fact(i + 1, p, v) for i, (p, v) in enumerate(sorted(rows))))
    assert emit_repair_program(inst, cs).facts == _reference_facts(inst)
    odd = inst.derive([("p", (v,)) for v in _ODD_VALUES if ("p", (v,)) not in rows], [])
    assert emit_repair_program(odd, cs).facts == _reference_facts(odd)


# "a b" needs quotes, while 7 and a lowercase name such as "ok" are bare
@pytest.mark.parametrize("style, rules", [
    ("disjunctive", ['p_a(T, X, "a b", d) v q_a(T2, X, Y, d) :- '
                     'p(T, X, "a b"), q(T2, X, Y), Y != 7, Y != ok.']),
    ("normal", ['p_a(T, X, "a b", d) :- p(T, X, "a b"), q(T2, X, Y), Y != 7, Y != ok, '
                'not q_a(T2, X, Y, d).',
                'q_a(T, X, Y, d) :- q(T, X, Y), p(T2, X, "a b"), Y != 7, Y != ok, '
                'not p_a(T2, X, "a b", d).']),
])
def test_constraint_constants_render_as_values(style, rules):
    schema = parse_schema("p(A, B)\nq(A, B)\n")
    cs = parse_constraints('dc c : !exists p(x, "a b"), q(x, y), y != 7, y != "ok"\n', schema)
    program = emit_repair_program(Instance(schema, ()), cs, style=style)
    assert list(program.rules[:len(rules)]) == rules
    assert program.rules[len(rules)].startswith("p_a(T, X, Y, s) :- ")


def test_predicate_name_restrictions():
    cs = parse_constraints("dc c : !exists ok(x), ok(y), x != y\n",
                           parse_schema("ok(A)\n"))
    bad = Schema((Predicate("Caps", ("A",)),))
    with pytest.raises(InputError):
        emit_repair_program(Instance(bad, ()), cs)
    reserved = Schema((Predicate("del", ("A",)),))
    with pytest.raises(InputError):
        emit_repair_program(Instance(reserved, ()), cs)
    twin = Schema((Predicate("p", ("A",)), Predicate("p_a", ("B",))))
    with pytest.raises(InputError):
        emit_repair_program(Instance(twin, ()), cs)


def test_render_separates_sections_with_blank_lines(pqr):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs)
    text = program.render()
    assert text.endswith(".\n") or text.endswith(").\n")
    assert "\n\n" in text
    assert AspProgram(("a.",), (), (), ("b.",)).render() == "a.\n\nb.\n"


def test_normalize_tokens_properties():
    a = normalize_tokens("p(X) :- q(X, Y).  r(Z).")
    b = normalize_tokens("p(First):-q(First,Second).\nr(Anything).")
    assert a == b
    # renaming resets per statement, so cross-statement identity is ignored
    assert normalize_tokens("p(X). q(X).") == normalize_tokens("p(A). q(B).")
    # constants and structure still matter
    assert normalize_tokens("p(a).") != normalize_tokens("p(b).")
    assert normalize_tokens("p(X) :- q(X).") != normalize_tokens("p(X) :- r(X).")
    # comments and whitespace vanish
    assert normalize_tokens("p(a). % trailing\n") == normalize_tokens("p(a).")
    with pytest.raises(InputError):
        normalize_tokens("p(a) @ q(b).")


def test_parse_best_model_variants():
    dist, deleted, cost = parse_best_model(CANNED_BEST)
    assert (dist, deleted, cost) == (1, frozenset({1}), 1)
    # without the marker, the last model block is used and cost stays None
    plain = "{del(2), del(5), dist(2)}\n"
    dist, deleted, cost = parse_best_model(plain)
    assert (dist, deleted, cost) == (2, frozenset({2, 5}), None)
    nodist = "Best model: {p_a(1,a,d), del(3)}\n"
    assert parse_best_model(nodist) == (None, frozenset({3}), None)
    with pytest.raises(InputError):
        parse_best_model("no models here\n")


def test_parse_brave_answers_variants():
    assert parse_brave_answers("dist(1), dist(2)\ndist(2)\n") == frozenset({1, 2})
    assert parse_brave_answers("  1\n2\n") == frozenset({1, 2})
    assert parse_brave_answers("nothing\n") == frozenset()


def test_solver_resolution_failures(pqr, monkeypatch, tmp_path):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs)
    monkeypatch.delenv("INCMETER_ASP_SOLVER", raising=False)
    with pytest.raises(SolverUnavailableError):
        run_external_solver(program)
    with pytest.raises(SolverUnavailableError):
        run_external_solver(program, solver_path="/no/such/binary")
    monkeypatch.setenv("INCMETER_ASP_SOLVER", "/also/missing")
    with pytest.raises(SolverUnavailableError):
        run_brave_distances(program)
    # executable but not a program: no #! line, so exec fails with ENOEXEC
    script = tmp_path / "noshebang"
    script.write_text("echo 'Best model: {}'\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    with pytest.raises(SolverUnavailableError, match="^solver failed to run: "):
        run_external_solver(program, solver_path=str(script))


def fake_solver(tmp_path) -> str:
    """A stand-in solver that keeps its program file as brave.lp or best.lp."""
    script = tmp_path / "fakedlv"
    script.write_text(
        "#!/bin/sh\n"
        "for last; do :; done\n"
        'if [ "$1" = "-brave" ]; then\n'
        f'  cp "$last" "{tmp_path}/brave.lp"\n'
        "  echo 'dist(1), dist(2)'\n"
        "else\n"
        f'  cp "$last" "{tmp_path}/best.lp"\n'
        "  cat <<'EOF'\n" + CANNED_BEST + "EOF\n"
        "fi\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(script)


def test_external_solver_round_trip(pqr, tmp_path):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs, style="normal")
    binary = fake_solver(tmp_path)
    result = run_external_solver(program, solver_path=binary)
    assert result == {"dist": 1, "deleted": frozenset({1}), "cost": 1}
    assert run_brave_distances(program, solver_path=binary) == frozenset({1, 2})


def test_solver_gets_the_program_of_its_mode(pqr, tmp_path):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs)
    binary = fake_solver(tmp_path)
    run_external_solver(program, solver_path=binary)
    run_brave_distances(program, solver_path=binary)
    best = (tmp_path / "best.lp").read_text()
    brave = (tmp_path / "brave.lp").read_text()
    assert best.endswith("\n\n:~ del(T).\n") and "?" not in best
    # brave mode drops the weak constraint and asks the query in its place
    assert brave == best.replace(":~ del(T).", "dist(X)?")
