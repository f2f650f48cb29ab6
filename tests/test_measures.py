import itertools
import random
from fractions import Fraction

import pytest

from incmeter import cli
from incmeter.conflicts import build_hypergraph
from incmeter.errors import InputError, ResourceLimitError
from incmeter.exact import enumerate_s_repairs
from incmeter.measures import (MeasureReport, inc_deg_g3, inc_deg_g3_endogenous,
                               measure_count_all, measure_count_srep,
                               measure_jaccard)
from incmeter.model import Fact, Instance
from incmeter.nullrep import inc_deg_g3_null

from conftest import random_bundle
from oracles import consistent, restrict


def test_g3_pqr(pqr):
    _, cs, inst = pqr
    rep = inc_deg_g3(inst, cs)
    assert rep.kind == "g3"
    assert (rep.numerator, rep.denominator) == (1, 4)
    assert rep.value == Fraction(1, 4)
    assert rep.exact and rep.method == "exact"
    assert rep.witness.deleted == frozenset({1})


def test_g3_fd(fd):
    _, cs, inst = fd
    rep = inc_deg_g3(inst, cs)
    assert (rep.numerator, rep.denominator) == (1, 3)
    assert rep.witness.deleted == frozenset({2})


def test_g3_consistent_and_empty(pqr):
    schema, cs, inst = pqr
    ok = inc_deg_g3(restrict(inst, {2, 3, 4}), cs)
    assert ok.value == 0 and ok.numerator == 0
    assert (ok.numerator, ok.denominator) == (0, 3)
    for measure in (inc_deg_g3, inc_deg_g3_endogenous, measure_jaccard):
        empty = measure(Instance(schema, ()), cs)
        assert (empty.numerator, empty.denominator) == (0, 1)
        assert "consistent" in empty.note
    # a zero denominator reads as 0, not a ZeroDivisionError
    assert MeasureReport("g3", 0, 0, True, "exact").value == 0


def test_g3_value_definition_on_random_instances():
    # numerator equals the gap between |D| and the largest consistent subset
    rng = random.Random(300)
    for _ in range(60):
        cs, inst = random_bundle(rng, max_rows=8)
        rep = inc_deg_g3(inst, cs)
        tids = list(inst.tids)
        best_kept = 0
        for r in range(len(tids), -1, -1):
            if any(consistent(restrict(inst, keep), cs)
                   for keep in itertools.combinations(tids, r)):
                best_kept = r
                break
        assert rep.numerator == len(tids) - best_kept
        # empty instances report denominator 1 so the ratio stays well formed
        assert rep.denominator == max(len(tids), 1)


def test_g3_approximate_solvers_flip_the_exact_flag(pqr):
    _, cs, inst = pqr
    lr = inc_deg_g3(inst, cs, solver="local-ratio")
    assert not lr.exact and lr.method == "local_ratio"
    assert lr.value >= Fraction(1, 4)
    rr = inc_deg_g3(inst, cs, solver="randomized", seed=3)
    assert not rr.exact and rr.method == "randomized"
    assert rr.value >= Fraction(1, 4)
    with pytest.raises(InputError):
        inc_deg_g3(inst, cs, solver="nonsense")


def test_g3_endogenous(pqr):
    _, cs, inst = pqr
    schema = inst.schema
    half = Instance(schema, inst.facts, frozenset({3, 4}))
    rep = inc_deg_g3_endogenous(half, cs)
    assert rep.kind == "g3_endogenous"
    assert (rep.numerator, rep.denominator) == (2, 4)
    assert rep.witness.deleted == frozenset({3, 4})
    assert rep.note is None
    # the vertex shared by both conflicts is itself endogenous
    direct = Instance(schema, inst.facts, frozenset({1, 3}))
    assert inc_deg_g3_endogenous(direct, cs).value == Fraction(1, 4)


def test_g3_endogenous_irreparable(pqr):
    _, cs, inst = pqr
    blocked = Instance(inst.schema, inst.facts, frozenset({2, 4}))
    rep = inc_deg_g3_endogenous(blocked, cs)
    assert rep.value == 1
    assert rep.witness is None
    assert "no endogenous" in rep.note


def test_g3_endogenous_normalization(pqr):
    _, cs, inst = pqr
    half = Instance(inst.schema, inst.facts, frozenset({3, 4}))
    alt = inc_deg_g3_endogenous(half, cs, normalization="endogenous_size")
    assert alt.normalization == "endogenous_size"
    assert (alt.numerator, alt.denominator) == (2, 2)
    with pytest.raises(InputError):
        inc_deg_g3_endogenous(half, cs, normalization="nope")


def test_count_srep_fd(fd):
    _, cs, inst = fd
    rep = measure_count_srep(inst, cs)
    assert (rep.numerator, rep.denominator) == (2, 8)
    assert rep.value == Fraction(1, 4)


def _inconsistent_subsets(inst, cs):
    # independent oracle: check every sub-instance directly
    tids = list(inst.tids)
    return sum(
        1 for r in range(len(tids) + 1)
        for keep in itertools.combinations(tids, r)
        if not consistent(restrict(inst, keep), cs))


def test_count_all_fd(fd):
    _, cs, inst = fd
    rep = measure_count_all(inst, cs)
    assert (rep.numerator, rep.denominator) == (3, 8)
    assert rep.numerator == _inconsistent_subsets(inst, cs)


def test_count_all_with_conflict_free_facts(pqr):
    # conflicts {1,3} and {1,4}; p(e) and the added p facts are in none, so
    # 3 of the 7 facts conflict and each inconsistent mask stands for 2^4
    schema, cs, inst = pqr
    extra = (Fact(5, "p", ("f",)), Fact(6, "p", ("g",)), Fact(7, "q", ("z", "h")))
    wide = Instance(schema, inst.facts + extra)
    edges = build_hypergraph(wide, cs).solving_edges
    assert edges == (frozenset({1, 3}), frozenset({1, 4}))
    rep = measure_count_all(wide, cs)
    assert (rep.numerator, rep.denominator) == (3 * 2 ** 4, 2 ** 7)
    assert rep.numerator == _inconsistent_subsets(wide, cs)


def test_count_all_matches_direct_count_on_random_instances():
    rng = random.Random(301)
    for _ in range(30):
        cs, inst = random_bundle(rng, max_rows=7)
        rep = measure_count_all(inst, cs)
        assert rep.numerator == _inconsistent_subsets(inst, cs)
        assert rep.denominator == 2 ** len(inst.tids)


def test_jaccard(pqr, fd):
    _, cs, inst = pqr
    rep = measure_jaccard(inst, cs)
    assert rep.kind == "jaccard"
    # s-repairs {1,2} and {2,3,4} share only tid 2, so 1 - 1/4
    assert rep.value == Fraction(3, 4)
    _, cs2, inst2 = fd
    assert measure_jaccard(inst2, cs2).value == 1


def test_jaccard_agrees_with_repair_core():
    rng = random.Random(302)
    for _ in range(40):
        cs, inst = random_bundle(rng, max_rows=8)
        if not inst.tids:
            continue
        rep = measure_jaccard(inst, cs)
        reps = enumerate_s_repairs(inst, cs)
        core = set(inst.tids)
        for r in reps.repairs:
            core &= set(r)
        assert rep.value == 1 - Fraction(len(core), len(inst.tids))


def test_variant_measures_on_consistent_data(pqr):
    _, cs, inst = pqr
    ok = restrict(inst, {2, 3, 4})
    # a consistent instance has exactly one maximal consistent subset: itself
    assert measure_count_srep(ok, cs).value == Fraction(1, 8)
    assert measure_count_all(ok, cs).value == 0
    assert measure_jaccard(ok, cs).value == 0


def test_enumeration_gate_applies(fd):
    # all 3 facts conflict; Jaccard enumerates nothing, so it has no gate
    _, cs, inst = fd
    for fn in (measure_count_srep, measure_count_all):
        with pytest.raises(ResourceLimitError):
            fn(inst, cs, limit=2)
    assert measure_jaccard(inst, cs, limit=2) == measure_jaccard(inst, cs, limit=3)


def test_enumeration_gate_counts_conflicting_facts_only(pqr):
    # 20 conflict-free p facts take pqr from 4 to 24 facts, past the default
    # limit of 16, while the 3 conflicting facts stay under it
    schema, cs, inst = pqr
    extra = 20
    wide = Instance(schema, inst.facts + tuple(
        Fact(5 + i, "p", (f"x{i}",)) for i in range(extra)))
    free = set(range(5, 5 + extra)) | {2}
    reps = enumerate_s_repairs(wide, cs)
    assert [sorted(r) for r in reps.repairs] == [sorted(free | {1}),
                                                 sorted(free | {3, 4})]
    count_srep = measure_count_srep(wide, cs)
    assert (count_srep.numerator, count_srep.denominator) == (2, 2 ** 24)
    count_all = measure_count_all(wide, cs)
    narrow = measure_count_all(inst, cs)
    assert (count_all.numerator, count_all.denominator) == (
        narrow.numerator << extra, narrow.denominator << extra)
    assert measure_jaccard(wide, cs).value == Fraction(3, 24)


def test_report_json_shape(pqr, nullb):
    """The CLI writes a measure's ten keys in one order for every witness
    kind: deleted tids for a deletion repair, blanked cells for a null one."""
    keys = ["kind", "numerator", "denominator", "decimal", "exact",
            "witness_deleted_tids", "method", "normalization", "note", "witness_changes"]
    _, cs, inst = pqr
    d = cli._measure_payload(inc_deg_g3(inst, cs))
    assert list(d) == keys
    assert d["kind"] == "g3"
    assert d["numerator"] == 1 and d["denominator"] == 4
    assert d["decimal"] == 0.25
    assert d["witness_deleted_tids"] == [1] and d["witness_changes"] is None
    d = cli._measure_payload(inc_deg_g3_endogenous(inst, cs, normalization="endogenous_size"))
    assert list(d) == keys
    assert (d["kind"], d["normalization"]) == ("g3_endogenous", "endogenous_size")
    assert d["witness_deleted_tids"] == [1] and d["witness_changes"] is None
    _, cs, inst = nullb
    d = cli._measure_payload(inc_deg_g3_null(inst, cs))
    assert list(d) == keys
    assert (d["kind"], d["numerator"], d["denominator"]) == ("g3_null", 1, 8)
    assert d["witness_deleted_tids"] is None
    assert d["witness_changes"] == [{"tid": 2, "position": 1}]


def test_reports_reuse_supplied_hypergraph(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    assert inc_deg_g3(inst, cs, hypergraph=hg).value == Fraction(1, 4)
