import copy
import dataclasses
import gc
import itertools
import pickle
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from incmeter import cli, conflicts, evaluation, exact, measures, updates
from incmeter.conflicts import ConflictHypergraph, build_hypergraph
from incmeter.errors import InputError, ResourceLimitError
from incmeter.evaluation import FactIndex
from incmeter.exact import min_hitting_set
from incmeter.model import Fact, Instance, load_instance, parse_constraints, parse_schema
from incmeter.nullrep import cell_conflicts
from incmeter.updates import (UpdateDelta, apply_update, check_deletion_bounds,
                              check_insertion_bounds, incremental_hypergraph,
                              parse_delta)

from conftest import count_searches, fd_key_groups, random_bundle, scan_shaped
from oracles import restrict
from test_conflicts import _reference_edges


def test_parse_delta_forms():
    delta = parse_delta(
        "# add a row, drop a tid\n"
        "+ q(e, w)\n"
        "-2\n"
        "+ r(\"v,1\", \"said \"\"hi\"\"\")\n"
        "\n"
        "-  7\n")
    assert delta.insertions == (("q", ("e", "w")), ("r", ("v,1", 'said "hi"')))
    assert delta.deletions == frozenset({2, 7})
    assert not delta.is_insert_only and not delta.is_delete_only


def test_parse_delta_direction_flags():
    insert, delete = parse_delta("+ p(a)\n"), parse_delta("- 3\n")
    assert insert.is_insert_only is True and insert.is_delete_only is False
    assert delete.is_delete_only is True and delete.is_insert_only is False
    empty = parse_delta("# nothing\n")
    assert empty.is_insert_only is False and empty.is_delete_only is False


def test_parse_delta_errors():
    for bad in ("+ q()", "+ q(", "+ q", "- abc", "-", "- \u0663", "~ junk", "q(a)"):
        with pytest.raises(InputError):
            parse_delta(bad + "\n")
    err = None
    try:
        parse_delta("+ q(a)\n- oops\n")
    except InputError as exc:
        err = exc
    assert err is not None and err.line == 2
    # past csv's field size limit, and past the interpreter's cap on int digits
    for text, message in (("+ q(a, " + "b" * 140_000 + ")",
                           "line 2: malformed values: field larger than field limit (131072)"),
                          ("- " + "9" * 5000, "line 2: tid of 5000 digits is too long")):
        with pytest.raises(InputError) as info:
            parse_delta("- 1\n" + text + "\n")
        assert (str(info.value), info.value.line) == (message, 2)


def test_apply_update_assigns_fresh_tids(pqr):
    _, cs, inst = pqr
    delta = parse_delta("+ q(e, w)\n+ p(z)\n- 2\n")
    after = apply_update(inst, delta)
    assert after.tids == (1, 3, 4, 5, 6)
    assert after.fact(5).predicate == "q" and after.fact(5).values == ("e", "w")
    assert after.fact(6).predicate == "p" and after.fact(6).values == ("z",)
    # the original instance is untouched
    assert inst.tids == (1, 2, 3, 4)
    # deleting the top tid does not let a fresh fact reuse it
    top = parse_delta("- 4\n+ p(z)\n")
    after = apply_update(inst, top)
    assert after.tids == (1, 2, 3, 5)
    assert after.fact(5).values == ("z",)
    assert incremental_hypergraph(build_hypergraph(inst, cs), inst, top, cs) == \
        build_hypergraph(after, cs)


def test_apply_update_validation(pqr):
    _, cs, inst = pqr
    with pytest.raises(InputError):
        apply_update(inst, parse_delta("- 99\n"))
    with pytest.raises(InputError):
        apply_update(inst, parse_delta("+ nosuch(a)\n"))
    with pytest.raises(InputError):
        apply_update(inst, parse_delta("+ q(a)\n"))  # arity
    with pytest.raises(InputError):
        apply_update(inst, parse_delta("+ p(NULL)\n"))
    with pytest.raises(InputError):
        apply_update(inst, parse_delta("+ p(a)\n"))  # duplicates existing row
    with pytest.raises(InputError):
        apply_update(inst, parse_delta("+ p(y)\n+ p(y)\n"))
    # re-inserting a row whose tid was deleted is allowed
    redo = apply_update(inst, parse_delta("- 1\n+ p(a)\n"))
    assert redo.fact(5).values == ("a",)


def test_derive_rejects_unknown_tids(pqr):
    _, _, inst = pqr
    with pytest.raises(InputError) as info:
        inst.derive((), {99})
    assert str(info.value) == "cannot delete unknown tid(s) [99]"
    with pytest.raises(InputError, match=r"\[7, 99\]"):
        inst.derive((("p", ("z",)),), {1, 7, 99})


def test_derive_takes_a_repeated_tid_once(pqr):
    _, _, inst = pqr
    assert inst.derive((), [2, 2]) == inst.derive((), [2])
    with pytest.raises(InputError) as info:
        inst.derive((), [99, 2, 99])
    assert str(info.value) == "cannot delete unknown tid(s) [99]"


def test_apply_update_shrinks_endogenous(pqr):
    _, cs, inst = pqr
    part = Instance(inst.schema, inst.facts, frozenset({1, 2}))
    after = apply_update(part, parse_delta("- 2\n+ p(z)\n"))
    assert after.endogenous == frozenset({1})


def test_incremental_matches_rebuild_on_worked_example(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    delta = parse_delta("+ q(e, w)\n")
    inc = incremental_hypergraph(hg, inst, delta, cs)
    full = build_hypergraph(apply_update(inst, delta), cs)
    assert inc == full
    assert sorted(sorted(e.tids) for e in inc.edges) == [[1, 3], [1, 4], [2, 5]]


def test_incremental_matches_rebuild_on_random_mixed_deltas():
    rng = random.Random(777)
    domain = ["a", "b", "c", "d"]
    for _ in range(120):
        cs, inst = random_bundle(rng)
        hg = build_hypergraph(inst, cs)
        kept_tids = list(inst.tids)
        deletions = set(rng.sample(kept_tids, min(len(kept_tids), rng.randint(0, 2))))
        taken = {(f.predicate, f.values) for f in inst.facts if f.tid not in deletions}
        insertions = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.7:
                row = ("r", (rng.choice(domain), rng.choice(domain)))
            else:
                row = ("s", (rng.choice(domain),))
            if row not in taken:
                taken.add(row)
                insertions.append(row)
        delta = UpdateDelta(tuple(insertions), frozenset(deletions))
        inc = incremental_hypergraph(hg, inst, delta, cs)
        full = build_hypergraph(apply_update(inst, delta), cs)
        assert inc == full


def test_a_hypergraph_without_an_index_derives_the_rebuilt_one():
    # a pickled copy keeps the value alone; the index its edges were found
    # with is the instance's, so the copy loses nothing
    rng = random.Random(778)
    for _ in range(60):
        cs, inst = random_bundle(rng)
        hg = pickle.loads(pickle.dumps(build_hypergraph(inst, cs)))
        assert "_index" not in vars(hg) and inst._fact_index is not None
        deletions = frozenset(rng.sample(inst.tids, min(len(inst.tids), rng.randint(0, 2))))
        taken = {(f.predicate, f.values) for f in inst.facts if f.tid not in deletions}
        rows = {("r", (rng.choice("abcd"), rng.choice("abcd"))) for _ in range(3)} - taken
        delta = UpdateDelta(tuple(sorted(rows)), deletions)
        _check_against_rebuild(incremental_hypergraph(hg, inst, delta, cs),
                               apply_update(inst, delta), cs)


def test_insertion_bounds_worked_example(pqr):
    _, cs, inst = pqr
    rep = check_insertion_bounds(inst, parse_delta("+ q(e, w)\n"), cs)
    assert rep.direction == "insert" and rep.applicable
    assert rep.epsilon == Fraction(1, 4)
    assert rep.before == Fraction(1, 4) and rep.after == Fraction(2, 5)
    by_name = {b.name: b for b in rep.bounds}
    assert set(by_name) == {"upper", "lower"}
    assert by_name["upper"].rhs == Fraction(9, 20)
    assert by_name["lower"].rhs == Fraction(8, 15)
    assert all(b.holds for b in rep.bounds)


def test_deletion_bounds_worked_example(pqr):
    _, cs, inst = pqr
    rep = check_deletion_bounds(inst, parse_delta("- 2\n"), cs)
    assert rep.direction == "delete" and rep.applicable
    assert rep.epsilon == Fraction(1, 4)
    assert rep.before == Fraction(1, 4) and rep.after == Fraction(1, 3)
    assert rep.deleted_all_isolated is True
    by_name = {b.name: b for b in rep.bounds}
    assert set(by_name) == {"upper", "lower", "lower_isolated"}
    # the general upper bound is tight here
    assert by_name["upper"].rhs == Fraction(1, 3)
    assert by_name["lower_isolated"].rhs == Fraction(4, 9)
    assert all(b.holds for b in rep.bounds)


def test_deleting_a_conflict_member_drops_the_strengthened_bound(pqr):
    _, cs, inst = pqr
    rep = check_deletion_bounds(inst, parse_delta("- 1\n"), cs)
    assert rep.deleted_all_isolated is False
    assert {b.name for b in rep.bounds} == {"upper", "lower"}
    assert rep.after == 0
    assert all(b.holds for b in rep.bounds)


def test_bounds_reject_wrong_direction(pqr):
    _, cs, inst = pqr
    with pytest.raises(InputError):
        check_insertion_bounds(inst, parse_delta("- 1\n"), cs)
    with pytest.raises(InputError):
        check_insertion_bounds(inst, parse_delta("+ p(z)\n- 1\n"), cs)
    with pytest.raises(InputError):
        check_deletion_bounds(inst, parse_delta("+ p(z)\n"), cs)


def test_deletion_bounds_reject_unknown_tid_with_prebuilt_hypergraphs(pqr):
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    with pytest.raises(InputError, match="99"):
        check_deletion_bounds(inst, parse_delta("- 99\n"), cs,
                              hg_before=hg, hg_after=hg)


@pytest.mark.parametrize("check, text", [
    (check_insertion_bounds, "+ rel(k0, b9, new)\n"),
    (check_deletion_bounds, "- 1\n"),
], ids=["insert", "delete"])
def test_the_after_side_searches_only_the_components_the_delta_changed(
        monkeypatch, check, text):
    cs, inst, optimum = fd_key_groups(random.Random(7), 300)
    delta = parse_delta(text)
    hg_before = build_hypergraph(inst, cs)
    hg_after = build_hypergraph(apply_update(inst, delta), cs)
    searches = count_searches(monkeypatch)
    want = check(inst, delta, cs, hg_before=hg_before, hg_after=hg_after)
    components = len(searches)  # one search per component on each side
    assert want.before == Fraction(optimum, 300) and components > 100
    searches.clear()
    # the after side shares the before side's untouched components, and so
    # the optima its solve records: it searches only the one key group the
    # delta touched, not all of them again
    assert check(inst, delta, cs) == want
    assert components // 2 < len(searches) <= components // 2 + 1


@pytest.mark.parametrize("text, message", [
    ("+ rel(k0, NULL, c)\n", "uses the reserved value NULL"),
    ("+ rel(k0, b0)\n", "has 2 values, rel expects 3"),
    (None, "duplicate row"),  # the row of tid 1
    ("+ nope(a)\n", "unknown predicate 'nope'"),
    ("- 999\n", "cannot delete unknown tid"),
], ids=["null", "arity", "duplicate", "predicate", "tid"])
def test_a_bad_delta_is_refused_before_anything_is_solved(monkeypatch, text, message):
    cs, inst, _ = fd_key_groups(random.Random(7), 300)
    delta = parse_delta(text or f"+ rel({', '.join(inst.fact(1).values)})\n")
    check = check_insertion_bounds if delta.is_insert_only else check_deletion_bounds
    with pytest.raises(InputError, match=message) as refused:
        apply_update(inst, delta)
    hg = build_hypergraph(inst, cs)
    searches = count_searches(monkeypatch)
    # the whole delta is checked whether or not hypergraphs are handed in
    for handed in ({}, {"hg_before": hg, "hg_after": hg}):
        with pytest.raises(InputError) as info:
            check(inst, delta, cs, node_budget=0, **handed)
        assert str(info.value) == str(refused.value)
    assert not searches
    # a good delta of the same direction runs the budget out
    good = parse_delta("+ rel(k0, b9, new)\n" if delta.is_insert_only else "- 1\n")
    with pytest.raises(ResourceLimitError):
        check(inst, good, cs, node_budget=0)


def test_bounds_inapplicable_outside_premises(pqr):
    schema, cs, inst = pqr
    # deleting everything: eps = 1
    rep = check_deletion_bounds(inst, parse_delta("- 1\n- 2\n- 3\n- 4\n"), cs)
    assert not rep.applicable and rep.bounds == ()
    # inserting into an empty instance
    empty = Instance(schema, ())
    rep2 = check_insertion_bounds(empty, parse_delta("+ p(a)\n"), cs)
    assert not rep2.applicable and rep2.bounds == ()
    # inserting as many rows as the instance holds: eps = 1
    small = restrict(inst, {1})
    rep3 = check_insertion_bounds(small, parse_delta("+ p(z)\n"), cs)
    assert not rep3.applicable


def test_bound_report_json_shape(pqr):
    _, cs, inst = pqr
    d = cli._bounds_payload(check_deletion_bounds(inst, parse_delta("- 2\n"), cs))
    assert list(d) == ["direction", "epsilon", "before", "after", "applicable",
                       "deleted_all_isolated", "bounds"]
    assert d["epsilon"] == "1/4"
    assert all(set(b) == {"name", "lhs", "rhs", "holds"} for b in d["bounds"])


def test_bounds_hold_on_random_updates():
    rng = random.Random(901)
    checked_ins = checked_del = 0
    for _ in range(80):
        cs, inst = random_bundle(rng, max_rows=8)
        if not inst.tids:
            continue
        # one random insertion that does not duplicate a row
        taken = {(f.predicate, f.values) for f in inst.facts}
        for a, b in itertools.product("abcd", repeat=2):
            if ("r", (a, b)) not in taken:
                ins = UpdateDelta((("r", (a, b)),), frozenset())
                rep = check_insertion_bounds(inst, ins, cs)
                if rep.applicable:
                    assert all(b.holds for b in rep.bounds)
                    checked_ins += 1
                break
        dele = UpdateDelta((), frozenset({rng.choice(inst.tids)}))
        rep = check_deletion_bounds(inst, dele, cs)
        if rep.applicable:
            assert all(b.holds for b in rep.bounds)
            checked_del += 1
    assert checked_ins > 50 and checked_del > 50


def _fresh_after(inst, delta):
    """The updated instance built from scratch: every fact validated again."""
    missing = delta.deletions.difference(inst.tids)
    if missing:
        raise InputError(f"cannot delete unknown tid(s) {sorted(missing)}")
    start = inst.tids[-1] + 1 if inst.tids else 1
    facts = [f for f in inst.facts if f.tid not in delta.deletions]
    facts += [Fact(tid, pred, values)
              for tid, (pred, values) in enumerate(delta.insertions, start)]
    return Instance(inst.schema, tuple(facts), inst.endogenous - delta.deletions, inst.declared)


def _outcome(update, inst, delta):
    try:
        return update(inst, delta), None
    except InputError as exc:
        return None, str(exc)


def _rebuilt(inst):
    """inst built anew from its facts, with a fact index of its own."""
    return Instance(inst.schema, inst.facts, inst.endogenous, inst.declared)


def _check_tables(version):
    """Every table built in version's fact index equals a fresh index's, each
    bucket holding the same facts in tid order, and it lacks none of the
    tables a fresh index starts with."""
    index, fresh = version._live_index(), FactIndex(version.facts)
    for (predicate, positions), table in index._indexes.items():
        assert table == fresh.table(predicate, positions)
    assert fresh._indexes.keys() <= index._indexes.keys()


def _check_carried_state(hg_before, inst, delta, cs, after):
    """The hypergraph handed on along a chain against one built anew.

    Its edges, components, the built tables of the index it was joined in
    (see _check_tables) and its solve must equal those of a fresh build; the
    index is the one inst handed on to after, and deriving again gives an
    equal result.
    """
    hg = incremental_hypergraph(hg_before, inst, delta, cs)
    assert inst._fact_index is None and after._fact_index is not None
    assert incremental_hypergraph(hg_before, inst, delta, cs) == hg
    fresh = build_hypergraph(_rebuilt(after), cs)
    assert hg == fresh
    assert [tuple(c) for c in hg.components] == [tuple(c) for c in fresh.components]
    _check_tables(after)
    assert min_hitting_set(hg) == min_hitting_set(fresh)
    # the same cover and search nodes for every component
    assert [c.optimum for c in hg.components] == [c.optimum for c in fresh.components]
    return hg


def test_derived_instances_match_fresh_ones_along_random_delta_chains():
    """Each step of a delta chain is checked against the instance built anew.

    Rows deleted earlier in the chain come back, rows inserted two deltas
    earlier come again, and some rows or tids are malformed; the derived
    instance must accept and reject exactly what a fresh build does.  The
    hypergraph, index and component optima each step hands on are checked
    against a fresh build too (see _check_carried_state).
    """
    rng = random.Random(4242)
    domain = ["a", "b", "c", "d", "e"]
    seen = dict.fromkeys(("reinserted", "dup_of_two_back", "accepted"), 0)
    # an error message fragment for each way a delta can be rejected
    reasons = {"duplicate row": 0, "reserved value": 0, "values,": 0,
               "unknown predicate": 0, "cannot delete": 0}
    for _ in range(200):
        cs, inst = random_bundle(rng)
        if inst.tids and rng.random() < 0.5:
            part = rng.sample(inst.tids, rng.randint(1, len(inst.tids)))
            inst = Instance(inst.schema, inst.facts, frozenset(part))
        hg = build_hypergraph(inst, cs)
        min_hitting_set(hg)
        gone, inserted = [], []  # rows deleted so far; rows inserted per delta
        while len(inserted) < 10:  # ten accepted deltas, with the rejected between
            rows = []
            for _ in range(rng.randint(0, 3)):
                kind = rng.random()
                if kind < 0.15 and gone:
                    rows.append(rng.choice(gone))
                elif kind < 0.3 and len(inserted) >= 2 and inserted[-2]:
                    rows.append(rng.choice(inserted[-2]))
                elif kind < 0.35:
                    rows.append(rng.choice([("r", ("a", "NULL")), ("s", ("a", "b")),
                                            ("t", ("a",)), ("r", ("a",))]))
                elif kind < 0.7:
                    rows.append(("r", (rng.choice(domain), rng.choice(domain))))
                else:
                    rows.append(("s", (rng.choice(domain),)))
            deletions = set(rng.sample(inst.tids, min(len(inst.tids), rng.randint(0, 2))))
            if rng.random() < 0.05:
                deletions.add(inst.tids[-1] + 7 if inst.tids else 7)
            delta = UpdateDelta(tuple(rows), frozenset(deletions))
            want, want_err = _outcome(_fresh_after, inst, delta)
            got, got_err = _outcome(apply_update, inst, delta)
            assert got_err == want_err
            kept = {(f.predicate, f.values) for f in inst.facts if f.tid not in deletions}
            if len(inserted) >= 2 and kept & set(rows) & set(inserted[-2]):
                assert got_err is not None
                seen["dup_of_two_back"] += got_err.startswith("duplicate row")
            if want is None:
                reasons[next(r for r in reasons if r in want_err)] += 1
                continue
            seen["accepted"] += 1
            seen["reinserted"] += any(r in gone for r in rows)
            assert got == want
            assert got.facts == want.facts and got.tids == want.tids
            assert got.endogenous == want.endogenous
            assert got.effective_endogenous() == want.effective_endogenous()
            assert all(got.fact(t) == want.fact(t) for t in want.tids)
            for t in deletions:
                with pytest.raises(InputError):
                    got.fact(t)
            hg = _check_carried_state(hg, inst, delta, cs, got)
            gone += [(inst.fact(t).predicate, inst.fact(t).values) for t in deletions]
            inserted.append(rows)
            inst = got
    # every case the docstring names happened often
    assert all(n > 100 for n in seen.values()), seen
    assert all(n > 20 for n in reasons.values()), reasons


def test_a_derivation_validates_no_fact_again(pqr, monkeypatch):
    _, _, inst = pqr
    calls = []
    post_init = Instance.__post_init__
    monkeypatch.setattr(Instance, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    Instance(inst.schema, inst.facts)
    assert len(calls) == 1
    after = apply_update(inst, parse_delta("+ q(e, w)\n- 2\n"))
    after = apply_update(after, parse_delta("+ p(z)\n"))
    assert len(calls) == 1
    assert after.tids == (1, 3, 4, 5, 6)


def test_a_delta_chain_keeps_no_earlier_generation_alive():
    # a hypergraph, its answer or an instance that linked to its parent
    # would keep every generation of a long session alive, while the one
    # fact index is handed on.  With parent_read_last the session derives
    # the instance first and then the hypergraph from the parent, as
    # perfbench's stream session does, so the hypergraph is joined in the
    # child that the parent links to; otherwise the hypergraph's derive
    # makes a child, and apply_update takes the tid map back to make a
    # sibling
    for parent_read_last in (False, True):
        cs, inst, _ = fd_key_groups(random.Random(3), 200)
        hg = build_hypergraph(inst, cs)
        min_hitting_set(hg)  # so each version starts from its parent's answer
        first = [weakref.ref(x) for x in (inst, hg)]
        index = weakref.ref(inst._fact_index)
        rng = random.Random(5)
        for i in range(200):
            row = ("rel", (f"k{rng.randrange(50)}", f"b{rng.randrange(3)}", f"x{i}"))
            delta = UpdateDelta((row,), frozenset({rng.choice(inst.tids)}))
            if parent_read_last:
                after = apply_update(inst, delta)
                hg = incremental_hypergraph(hg, inst, delta, cs)
                inst = after
            else:
                hg = incremental_hypergraph(hg, inst, delta, cs)
                inst = apply_update(inst, delta)
            min_hitting_set(hg)
        gc.collect()
        assert [ref() for ref in first] == [None, None]
        assert index() is inst._live_index()


def test_an_update_hands_the_tid_map_and_the_index_tables_on():
    # a copy of either would make every delta cost O(n)
    cs, inst, _ = fd_key_groups(random.Random(2), 200)
    hg = build_hypergraph(inst, cs)
    by_tid, index = inst._by_tid, inst._fact_index
    tables = dict(index._indexes)
    delta = UpdateDelta((("rel", ("k1", "b0", "new")),), frozenset({inst.tids[3]}))
    after = apply_update(inst, delta)
    assert after._by_tid is by_tid and after._fact_index is index
    hg_after = incremental_hypergraph(hg, inst, delta, cs)
    assert tables and all(after._live_index()._indexes[k] is t for k, t in tables.items())
    assert inst._fact_index is None and "_index" not in vars(hg)
    _check_against_rebuild(hg_after, after, cs)


def test_versions_of_a_delta_chain_read_as_fresh_builds_in_any_order():
    """Derived instances share one tid map and one fact index, handed from
    version to version as they are read.  Random delta trees over
    random_bundle are read in mixed order, parents, grandparents and children
    alike, and each read must agree with a fresh build of that version.  The
    reads that join (build_hypergraph, nullrep.cell_conflicts and
    incremental_hypergraph) run in the handed-on index, and after each read
    that uses the index its tables must equal those of a fresh index."""
    rng = random.Random(97)
    seen = dict.fromkeys(("siblings", "top_deleted", "emptied", "rerooting_reads",
                          "joined_children"), 0)
    for _ in range(120):
        cs, inst = random_bundle(rng)
        schema = inst.schema
        declared = bool(inst.tids) and rng.random() < 0.5
        endo = set(rng.sample(inst.tids, rng.randint(1, len(inst.tids)))) if declared else set()
        inst = Instance(schema, inst.facts, frozenset(endo))
        # each version with its facts and endogenous tids, and how many children it has
        versions = [(inst, list(inst.facts), endo, 0)]
        for _ in range(25):
            i = rng.randrange(len(versions))
            version, facts, endo, children = versions[i]
            fresh = Instance(schema, tuple(facts), frozenset(endo), declared)
            if rng.random() < 0.4:
                tids = [f.tid for f in facts]
                if tids and rng.random() < 0.2:  # the largest tid, and no insert
                    rows, deletions = (), {tids[-1]}
                    seen["top_deleted"] += 1
                else:
                    deletions = set(rng.sample(tids, min(len(tids), rng.randint(0, 2))))
                    live = {f[1:] for f in facts if f.tid not in deletions}
                    rows = {("r", (rng.choice("abcd"), rng.choice("abcd")))
                            for _ in range(rng.randint(0, 2))} - live
                    rows = sorted(rows)
                inserted = fresh.check_delta(rows, deletions)
                # a copy that shared the tid map would see its twin's deltas
                child = (copy.copy(version) if rng.random() < 0.2 else version).derive(
                    rows, deletions)
                kept = [f for f in facts if f.tid not in deletions] + inserted
                seen["siblings"] += children == 1
                seen["emptied"] += bool(declared and endo and endo <= deletions)
                versions[i] = (version, facts, endo, children + 1)
                versions.append((child, kept, endo - deletions, 0))
                continue
            seen["rerooting_reads"] += version._link is not None  # it holds no tid map
            read = rng.randrange(10)
            if read == 0:
                assert [version.fact(f.tid) for f in facts] == facts
                with pytest.raises(InputError):
                    version.fact(facts[-1].tid + 1 if facts else 1)
            elif read == 1:
                rows = [("r", ("a", "e")), ("s", ("e",))]
                if facts:
                    rows.append(facts[0][1:])  # a duplicate, unless the deletion takes it
                deletions = {f.tid for f in facts[:rng.randint(0, 1)]}
                want, got = (_outcome(lambda v, d: v.check_delta(rows, d), v, deletions)
                             for v in (fresh, version))
                assert got == want
            elif read == 2:
                assert version.facts == fresh.facts == tuple(facts)
            elif read == 3:
                assert version.tids == fresh.tids
            elif read == 4:
                assert len(version) == len(facts)
            elif read == 5:
                assert version.effective_endogenous() == (endo if declared else set(fresh.tids))
            elif read == 6:
                assert version == fresh and version.endogenous == endo
            elif read == 7:
                assert build_hypergraph(version, cs) == build_hypergraph(fresh, cs)
            elif read == 8:
                assert cell_conflicts(version, cs) == cell_conflicts(fresh, cs)
            else:
                deletions = {f.tid for f in facts if rng.random() < 0.2}
                live = {f[1:] for f in facts if f.tid not in deletions}
                rows = sorted({("r", (rng.choice("abcd"), rng.choice("abcd")))
                               for _ in range(rng.randint(0, 2))} - live)
                delta = UpdateDelta(tuple(rows), frozenset(deletions))
                got = incremental_hypergraph(build_hypergraph(version, cs), version, delta, cs)
                want = incremental_hypergraph(build_hypergraph(fresh, cs), fresh, delta, cs)
                rebuilt = build_hypergraph(_fresh_after(fresh, delta), cs)
                assert got == want == rebuilt
                assert ([tuple(c) for c in got.components] == [tuple(c) for c in want.components]
                        == [tuple(c) for c in rebuilt.components])
                seen["joined_children"] += 1
            if read in (1, 7, 8, 9):
                _check_tables(version)
    assert all(n > 20 for n in seen.values()), seen


def test_the_first_version_of_a_long_chain_reads_as_it_was():
    # reading it undoes every later delta along the links, in a loop: a
    # recursive walk would overflow the stack
    schema = parse_schema("p(A)\n")
    first = version = Instance(schema, (Fact(1, "p", ("a",)),))
    for i in range(3 * sys.getrecursionlimit()):
        version = version.derive([("p", (f"v{i}",))], [i + 1] if i % 2 else [])
    assert first.effective_endogenous() == {1} and first.fact(1) == Fact(1, "p", ("a",))
    assert len(version.tids) == len(version) == 1 + 3 * sys.getrecursionlimit() // 2


def test_deleting_every_endogenous_tid_leaves_nothing_deletable():
    schema = parse_schema("rel(A, B, C)\n")
    cs = parse_constraints("fd f1 : rel : A -> B\nfd f2 : rel : C -> B\n", schema)
    sources = {"rel": "A,B,C\na,b,d\na,e,c\na,b,c\n"}
    inst = load_instance(sources, schema, [1])
    assert measures.inc_deg_g3_endogenous(inst, cs).value == 1
    after = apply_update(inst, parse_delta("- 1"))
    assert after.endogenous == frozenset() and after.effective_endogenous() == frozenset()
    assert after == Instance(schema, after.facts, frozenset(), declared=True)
    assert after != Instance(schema, after.facts) and dataclasses.replace(after) == after
    # the conflict of tids 2 and 3 holds no endogenous tid, so no repair is allowed
    for normalization in ("db_size", "endogenous_size"):
        assert measures.inc_deg_g3_endogenous(after, cs, normalization=normalization).value == 1
    consistent = apply_update(after, parse_delta("- 2"))
    assert measures.inc_deg_g3_endogenous(consistent, cs, normalization="endogenous_size") \
        .value == 0
    assert apply_update(after, parse_delta("+ rel(f, g, h)")).effective_endogenous() == set()
    # an empty partition at load still means none was declared
    for endogenous in (None, []):
        assert load_instance(sources, schema, endogenous).effective_endogenous() == {1, 2, 3}


def test_a_corpus_with_its_partition_deleted_measures_one_or_zero(corpus):
    rng = random.Random(31)
    conflicted = 0
    for item in corpus:
        tids = item.instance.tids
        if not tids:
            continue
        part = frozenset(rng.sample(tids, rng.randint(1, len(tids))))
        inst = Instance(item.instance.schema, item.instance.facts, part)
        after = apply_update(inst, UpdateDelta((), part))
        conflict = not build_hypergraph(after, item.constraints).is_consistent
        conflicted += conflict
        for normalization in ("db_size", "endogenous_size"):
            assert measures.inc_deg_g3_endogenous(
                after, item.constraints, normalization=normalization).value == conflict
    assert conflicted > 50


def _check_against_rebuild(hg, inst, cs):
    """hg's edges, components and g3 against a rebuild and a fresh solve."""
    fresh = build_hypergraph(_rebuilt(inst), cs)
    assert (hg.edges, hg.solving_edges) == (fresh.edges, fresh.solving_edges)
    assert hg == fresh
    assert [tuple(c) for c in hg.components] == [tuple(c) for c in fresh.components]
    assert measures._g3(hg, len(inst)) == measures._g3(fresh, len(inst))
    assert [c.optimum for c in hg.components] == [c.optimum for c in fresh.components]


def test_a_chain_of_mixed_deltas_at_scale_matches_a_rebuild():
    cs, inst, _ = fd_key_groups(random.Random(1), 10 ** 4)
    hg = build_hypergraph(inst, cs)
    measures._g3(hg, len(inst))
    rng = random.Random(11)
    gone = []  # rows deleted so far, some inserted again
    for i in range(1, 51):
        deletions = frozenset(rng.sample(inst.tids, rng.randint(0, 3)))
        rows = [("rel", (f"k{rng.randrange(2500)}", f"b{rng.randrange(3)}", f"x{i}.{j}"))
                for j in range(rng.randint(0 if deletions else 1, 3))]
        if gone and rng.random() < 0.3:
            rows.append(gone.pop(rng.randrange(len(gone))))
        delta = UpdateDelta(tuple(rows), deletions)
        hg = incremental_hypergraph(hg, inst, delta, cs)
        gone += [inst.fact(t)[1:] for t in deletions]
        inst = apply_update(inst, delta)
        if i % 10 == 0:
            _check_against_rebuild(hg, inst, cs)
        else:
            measures._g3(hg, len(inst))


def test_a_bulk_delta_and_a_what_if_one_from_its_parent_match_a_rebuild():
    """A delta of a tenth of the rows each way, and a second (what-if) delta
    from the same parent hypergraph, each match a rebuild and a fresh solve."""
    cs, inst, _ = fd_key_groups(random.Random(1), 4000)
    hg = build_hypergraph(inst, cs)
    measures._g3(hg, len(inst))
    rng = random.Random(12)
    for run in ("bulk", "what-if"):
        rows = tuple(("rel", (f"k{rng.randrange(1000)}", f"b{rng.randrange(3)}", f"{run}{j}"))
                     for j in range(400))
        delta = UpdateDelta(rows, frozenset(rng.sample(inst.tids, 400)))
        after = apply_update(inst, delta)
        _check_against_rebuild(incremental_hypergraph(hg, inst, delta, cs), after, cs)


def _check_maps(hg):
    """hg holds its tid -> component map, and it equals the one built from
    its components, each tid's component the very object in hg.components."""
    assert {t: id(c) for t, c in hg._lookups.items()} == {
        t: id(c) for c in hg.components for t in set().union(*c)}


def _fd_delta(rng, inst, i, keys):
    """Up to two rows out and up to two in, one at least, on rel(A, B, C)."""
    deletions = frozenset(rng.sample(inst.tids, rng.randint(0, 2)))
    rows = tuple(("rel", (f"k{rng.randrange(keys)}", f"b{rng.randrange(3)}", f"w{i}.{j}"))
                 for j in range(rng.randint(0 if deletions else 1, 2)))
    return UpdateDelta(rows, deletions)


def test_what_if_deltas_from_older_versions_match_a_rebuild(monkeypatch):
    """Deltas along a chain, what-if deltas from the parent and the
    grandparent of its newest version, and reads of older instances, in a
    seeded order: each hypergraph derived matches a rebuild and a fresh
    solve, and holds the maps a build from its components gives.  The maps
    are built from a root's components once, and each later shift, forward
    or back, moves the components of one version missing from another: no
    component that both share."""
    shifts = []

    def shift(owner, out, into, shift=conflicts._shift_lookups):
        held = {id(c) for c in owner.values()}  # the components of the version held
        shift(owner, out, into)
        shifts.append((held, {id(c) for c in owner.values()}, out, into))

    monkeypatch.setattr(conflicts, "_shift_lookups", shift)
    cs, inst, _ = fd_key_groups(random.Random(2), 400)
    root = build_hypergraph(inst, cs)
    measures._g3(root, len(inst))
    chain, rng, steps = [(inst, root, inst.facts)], random.Random(13), Counter()
    versions = [root]
    for i in range(80):
        step = rng.choice(("chain", "parent", "grandparent", "read"))
        back = {"chain": 1, "parent": 2, "grandparent": 3}.get(step, 0)
        if back > len(chain):
            step, back = "chain", 1
        steps[step] += 1
        if step == "read":
            older, _, facts = rng.choice(chain)
            assert [older.fact(f.tid) for f in facts] == list(facts)
            continue
        inst, hg, _ = chain[-back]
        delta = _fd_delta(rng, inst, i, 100)
        hg = incremental_hypergraph(hg, inst, delta, cs)
        after = apply_update(inst, delta)
        _check_maps(hg)
        _check_against_rebuild(hg, after, cs)
        if step == "chain":
            chain.append((after, hg, after.facts))
        versions.append(hg)
    assert min(steps.values()) >= 10
    assert shifts[0][2] == () and shifts[0][3] is root.components
    held = {frozenset(map(id, v.components)) for v in versions}
    for was, now, out, into in shifts[1:]:
        assert was in held and now in held and into is not root.components
        assert sorted(map(id, out)) == sorted(was - now)
        assert sorted(map(id, into)) == sorted(now - was)


def test_a_copy_of_a_hypergraph_is_the_hypergraph():
    """The same delete derived from a hypergraph version that holds its
    maps, and then from a copy of it, matches a rebuild each time: the copy
    is the version itself, so it does not share the maps that moved on."""
    cs, inst, _ = fd_key_groups(random.Random(3), 400)
    hg = incremental_hypergraph(build_hypergraph(inst, cs), inst,
                                UpdateDelta((), frozenset(inst.tids[:2])), cs)
    inst = apply_update(inst, UpdateDelta((), frozenset(inst.tids[:2])))
    assert hg._lookups is not None
    delete = UpdateDelta((), frozenset(inst.tids[:40]))
    after = apply_update(inst, delete)
    for version in (hg, copy.copy(hg)):
        _check_against_rebuild(incremental_hypergraph(version, inst, delete, cs), after, cs)
    assert copy.copy(hg) is hg


def test_a_pickled_or_deep_copied_version_is_its_value_alone():
    """A joined instance, a linked parent instance, a parent hypergraph and a
    derived one each come back from pickle and from deepcopy equal to
    themselves and unlinked, so neither the fact index nor the versions a
    link reaches are copied; a delta derived from a hypergraph that came
    back matches a rebuild."""
    cs, inst, _ = fd_key_groups(random.Random(4), 400)
    rng = random.Random(14)
    hg, delta = build_hypergraph(inst, cs), _fd_delta(rng, inst, 0, 100)
    min_hitting_set(hg)
    derived = incremental_hypergraph(hg, inst, delta, cs)
    after = apply_update(inst, delta)  # joined: it holds the fact index
    assert after._fact_index is not None and inst._link is not None and hg._link is not None
    solution = min_hitting_set(derived)  # its deleted set is built on first read
    assert "deleted" not in vars(solution) and derived._answer is not None
    fresh = build_hypergraph(_rebuilt(after), cs)
    # the value alone: a solved version with its instance and answer is an
    # unsolved rebuild, to ==, hash and repr
    assert (derived, hash(derived), repr(derived)) == (fresh, hash(fresh), repr(fresh))
    for version in (after, inst, hg, derived, solution):
        for twin in (pickle.loads(pickle.dumps(version)), copy.deepcopy(version)):
            assert twin == version and twin is not version
            assert all(getattr(twin, a, None) is None
                       for a in ("_link", "_answer", "_instance", "_components"))
    assert solution == min_hitting_set(fresh) and vars(solution)["deleted"]
    second = _fd_delta(rng, after, 1, 100)
    twin, twin_after = (pickle.loads(pickle.dumps(v)) for v in (derived, after))
    _check_against_rebuild(incremental_hypergraph(twin, twin_after, second, cs),
                           _fresh_after(after, second), cs)


def test_no_update_path_builds_the_solving_edge_view():
    """A hypergraph's value is its vertices and edges, and solving_edges is a
    view of the edges that no update path builds: along a chain of deltas
    through apply_update, incremental_hypergraph, inc_deg_g3 and both bound
    checks, no derived version reads it, nor builds its vertex set."""
    assert [f.name for f in dataclasses.fields(ConflictHypergraph)] == ["vertices", "edges"]
    cs, inst, _ = fd_key_groups(random.Random(5), 400)
    hg, rng, derived, checks = build_hypergraph(inst, cs), random.Random(15), [], Counter()
    for i in range(40):
        delta = _fd_delta(rng, inst, i, 100)
        hg_after = incremental_hypergraph(hg, inst, delta, cs)
        if delta.is_insert_only or delta.is_delete_only:
            check = check_insertion_bounds if delta.is_insert_only else check_deletion_bounds
            checks[check] += 1
            rep = check(inst, delta, cs, hg_before=hg, hg_after=hg_after)
            assert all(b.holds for b in rep.bounds)
        inst, hg = apply_update(inst, delta), hg_after
        assert measures.inc_deg_g3(inst, cs, hg).value == \
            measures.inc_deg_g3(_rebuilt(inst), cs).value
        derived.append(hg)
    assert len(checks) == 2 and min(checks.values()) >= 5, checks
    assert not [v for v in derived if {"solving_edges", "vertices"} & vars(v).keys()]


def test_derived_vertex_sets_read_in_any_order_as_a_rebuild():
    """A chain of 40 deltas and a what-if delta from every fourth version's
    parent, each version solved and bound-checked as an update session
    does; no vertex set is built on the way, and then each is read, in a
    seeded shuffled order, as a rebuild from its own facts gives it."""
    cs, inst, _ = fd_key_groups(random.Random(6), 400)
    hg, rng = build_hypergraph(inst, cs), random.Random(16)
    versions, parent = [], None
    for i in range(40):
        if i % 4 == 3:  # a what-if delta from the parent of the newest version
            what_if = _fd_delta(rng, parent[0], 100 + i, 100)
            hg_what_if = incremental_hypergraph(parent[1], parent[0], what_if, cs)
            versions.append((hg_what_if, apply_update(parent[0], what_if).facts))
            measures._g3(hg_what_if, hg_what_if.size)
        delta = _fd_delta(rng, inst, i, 100)
        after = apply_update(inst, delta)
        hg_after = incremental_hypergraph(hg, inst, delta, cs)
        assert measures.inc_deg_g3(after, cs, hg_after).value == \
            measures.inc_deg_g3(_rebuilt(after), cs).value
        if delta.is_insert_only or delta.is_delete_only:
            check = check_insertion_bounds if delta.is_insert_only else check_deletion_bounds
            rep = check(inst, delta, cs, hg_before=hg, hg_after=hg_after)
            assert all(b.holds for b in rep.bounds)
        parent, inst, hg = (inst, hg), after, hg_after
        versions.append((hg, after.facts))
    assert not [v for v, _ in versions if "vertices" in vars(v)]
    rng.shuffle(versions)
    for hg, facts in versions:
        assert hg.vertices == build_hypergraph(Instance(inst.schema, facts), cs).vertices
        assert hg.size == len(facts) and hg == build_hypergraph(Instance(inst.schema, facts), cs)


def _fresh_search(edges, node_budget):
    """A search of freshly split components: the deleted set and node total,
    or the [best_size, lower_bound] bracket where the budget runs out."""
    components = conflicts.split(list(set(edges)))
    try:
        nodes = exact._solve(components, node_budget)[1]
    except ResourceLimitError as exc:
        return exc.best_size, exc.lower_bound
    return frozenset().union(*(c.optimum.cover for c in components)), nodes


def _check_answer(hg):
    """hg's exact solves against fresh searches of its solving edges: first
    at a budget one node short of the total, which runs out, then at the
    total and the default, and once more short, after hg has kept its answer."""
    deleted, total = _fresh_search(hg.solving_edges, exact.DEFAULT_NODE_BUDGET)
    short = _fresh_search(hg.solving_edges, total - 1)
    for budget in (total - 1, total, exact.DEFAULT_NODE_BUDGET, total - 1):
        try:
            sol = min_hitting_set(hg, budget)
            got = sol.deleted, hg._answer[1]
        except ResourceLimitError as exc:
            got = exc.best_size, exc.lower_bound
        assert got == (short if budget < total else (deleted, total))
    assert hg._answer[:2] == (len(deleted), total)


def test_each_version_starts_from_its_parents_answer_on_the_corpus(corpus):
    """Two mixed deltas in a chain from each corpus instance, each version
    derived from a solved parent: its answer, node total and brackets are a
    fresh search's."""
    rng, handed = random.Random(5252), 0
    for item in corpus:
        inst, cs = item.instance, item.constraints
        hg = build_hypergraph(inst, cs)
        min_hitting_set(hg)
        for _ in range(2):
            live = {f[1:] for f in inst.facts}
            deletions = frozenset(rng.sample(inst.tids, min(len(inst.tids), rng.randint(0, 2))))
            rows = {("r", tuple(rng.choices("abcd", k=2))) for _ in range(rng.randint(0, 2))}
            rows |= {("s", (rng.choice("abcd"),)) for _ in range(rng.randint(0, 1))}
            delta = UpdateDelta(tuple(sorted(rows - live)), deletions)
            hg = incremental_hypergraph(hg, inst, delta, cs)
            inst = apply_update(inst, delta)
            handed += hg._answer is not None
            _check_answer(hg)
    assert handed == 2 * len(corpus)


def test_each_version_starts_from_its_parents_answer_at_scale(monkeypatch):
    """Along a chain of FD deltas at 10^4 rows, each version derived from a
    solved parent searches only the parts its delta made, and its answer,
    node total and brackets are a fresh search's."""
    cs, inst, _ = fd_key_groups(random.Random(7), 10 ** 4)
    hg = build_hypergraph(inst, cs)
    min_hitting_set(hg)
    rng, searches = random.Random(17), count_searches(monkeypatch)
    for i in range(6):
        delta = _fd_delta(rng, inst, i, 2500)
        hg = incremental_hypergraph(hg, inst, delta, cs)
        inst = apply_update(inst, delta)
        parts = hg._answer.parts
        if i % 2:  # else the first solve runs out, as a fresh one does
            searches.clear()
            min_hitting_set(hg)
            assert len(searches) == len(parts) <= 4
        _check_answer(hg)
    assert hg == build_hypergraph(_rebuilt(inst), cs)


def test_a_new_edge_over_a_surviving_solving_edge_is_not_solving():
    schema = parse_schema("r(A, B)\ns(A)\n")
    cs = parse_constraints("dc lone : !exists s(x), x = \"a\"\n"
                           "dc pair : !exists r(x, y), s(x)\n", schema)
    inst = Instance(schema, (Fact(1, "s", ("a",)), Fact(2, "s", ("b",))))
    hg = build_hypergraph(inst, cs)
    assert hg.solving_edges == (frozenset({1}),)
    delta = parse_delta("+ r(a, c)\n+ r(b, c)\n")
    hg = incremental_hypergraph(hg, inst, delta, cs)
    inst = apply_update(inst, delta)
    _check_against_rebuild(hg, inst, cs)
    # {1, 3} is pair's edge, but it holds lone's {1}, which stays solving
    assert [(e.constraint, e.key()) for e in hg.edges] == [
        ("lone", (1,)), ("pair", (1, 3)), ("pair", (2, 4))]
    assert hg.solving_edges == (frozenset({1}), frozenset({2, 4}))
    delta = parse_delta("- 1\n")
    hg = incremental_hypergraph(hg, inst, delta, cs)
    _check_against_rebuild(hg, apply_update(inst, delta), cs)
    # the new image {1, 2, 4} holds lone's {1} and meets link's {2, 3} through
    # 2 alone, so it is not solving, and both components are split again
    schema = parse_schema("s(A)\nu(A)\nt(A, B)\n")
    cs = parse_constraints("dc lone : !exists s(x), x = \"a\"\n"
                           "dc link : !exists s(x), u(x)\n"
                           "dc tri : !exists s(x), s(y), t(x, y)\n", schema)
    inst = Instance(schema, (Fact(1, "s", ("a",)), Fact(2, "s", ("b",)), Fact(3, "u", ("b",))))
    hg = build_hypergraph(inst, cs)
    min_hitting_set(hg)
    delta = parse_delta("+ t(a, b)\n")
    hg = incremental_hypergraph(hg, inst, delta, cs)
    inst = apply_update(inst, delta)
    fresh = build_hypergraph(inst, cs)
    assert [(e.constraint, e.key()) for e in fresh.edges] == [
        ("lone", (1,)), ("link", (2, 3)), ("tri", (1, 2, 4))]
    assert min_hitting_set(hg).deleted == min_hitting_set(fresh).deleted
    assert hg._answer.nodes == fresh._answer.nodes
    _check_against_rebuild(hg, inst, cs)


def test_two_constraints_with_one_tid_set_give_one_solving_edge():
    schema = parse_schema("rel(A, B, C)\n")
    cs = parse_constraints("fd f1 : rel : A -> B\nfd f2 : rel : A -> C\n", schema)
    inst = Instance(schema, (Fact(1, "rel", ("a", "b", "c")), Fact(2, "rel", ("e", "b", "c"))))
    hg = build_hypergraph(inst, cs)
    for text in ("+ rel(a, b2, c2)\n", "+ rel(e, b, c3)\n", "- 1\n+ rel(a, b, c)\n", "- 2\n"):
        delta = parse_delta(text)
        hg = incremental_hypergraph(hg, inst, delta, cs)
        inst = apply_update(inst, delta)
        _check_against_rebuild(hg, inst, cs)
        if inst.tids == (1, 2, 3):
            assert [(e.constraint, e.key()) for e in hg.edges] == [("f1", (1, 3)),
                                                                  ("f2", (1, 3))]
            assert hg.solving_edges == (frozenset({1, 3}),)


# --- a delta's work, done once and only where it reaches ---------------------

def _scan_delta(rng, inst, i):
    """A delete-only delta, or one that inserts into one relation and may delete."""
    deletions = frozenset(rng.sample(inst.tids, rng.randint(1, 3)))
    relation = rng.choice(["delete", "rel", "ord", "cust"])
    if relation == "delete":
        return UpdateDelta((), deletions)
    values = {"rel": lambda j: (f"k{rng.randrange(12)}", f"b{rng.randrange(3)}", f"x{i}.{j}"),
              "ord": lambda j: (f"p{i}.{j}", f"u{rng.randrange(10)}"),
              "cust": lambda j: (f"w{i}.{j}", rng.choice(["closed", "open"]))}[relation]
    rows = tuple((relation, values(j)) for j in range(rng.randint(1, 2)))
    return UpdateDelta(rows, deletions if rng.random() < 0.3 else frozenset())


def _count_joins(monkeypatch):
    """A list that gets (constraint name, seeded atom) for each evaluation._join call."""
    calls = []
    join = evaluation._join
    monkeypatch.setattr(evaluation, "_join", lambda index, dc, first, *rest: calls.append(
        (dc.name, first)) or join(index, dc, first, *rest))
    return calls


def test_a_delete_only_delta_runs_no_join(monkeypatch, pqr):
    """It joins nothing and calls evaluation.images for no constraint."""
    _, cs, inst = pqr
    hg = build_hypergraph(inst, cs)
    calls, images = _count_joins(monkeypatch), evaluation.images
    assert images(FactIndex(inst.facts), next(iter(cs)), FactIndex([])) == set()
    monkeypatch.setattr(evaluation, "images", lambda *args: calls.append(args) or images(*args))
    delta = parse_delta("- 2\n- 3\n")
    hg_after = incremental_hypergraph(hg, inst, delta, cs)
    assert calls == []
    _check_against_rebuild(hg_after, apply_update(inst, delta), cs)


def test_an_insert_seeds_only_the_atoms_of_its_relations(monkeypatch):
    cs, inst = scan_shaped(random.Random(8), 300)
    hg = build_hypergraph(inst, cs)
    calls = _count_joins(monkeypatch)
    for rows, seeded in (([("ord", ("o-new", "u1"))], [("closed", 0)]),
                         ([("cust", ("u-new", "closed"))], [("closed", 1)]),
                         ([("rel", ("k1", "b9", "c-new"))], [("key", 0)]),
                         ([("ord", ("o-2", "u2")), ("cust", ("u-2", "open"))],
                          [("closed", 0), ("closed", 1)])):
        calls.clear()
        delta = UpdateDelta(tuple(rows), frozenset())
        hg = incremental_hypergraph(hg, inst, delta, cs)
        assert calls == seeded
        inst = apply_update(inst, delta)
        _check_against_rebuild(hg, inst, cs)


def test_an_insert_delta_builds_one_seed_index_for_all_its_constraints(monkeypatch, corpus):
    cs, inst = scan_shaped(random.Random(9), 300)
    hg = build_hypergraph(inst, cs)
    built, init = [], FactIndex.__init__
    monkeypatch.setattr(FactIndex, "__init__",
                        lambda self, facts: built.append(1) or init(self, facts))
    delta = UpdateDelta((("rel", ("k1", "b9", "c-new")), ("ord", ("o-new", "u1"))), frozenset())
    derived = incremental_hypergraph(hg, inst, delta, cs)
    assert len(cs) == 2 and len(built) == 1
    monkeypatch.undo()
    _check_against_rebuild(derived, apply_update(inst, delta), cs)
    # on an insert delta of each corpus instance, the images seeded from the
    # one index equal those each constraint's own index of the rows gives
    calls, images = [], evaluation.images

    def recorded(index, dc, seed=None):
        own = seed and FactIndex(f for p in seed._keyed for f in seed.table(p, ()).get((), ()))
        calls.append((images(index, dc, seed), images(index, dc, own), seed))
        return calls[-1][0]

    monkeypatch.setattr(evaluation, "images", recorded)
    rng, deltas = random.Random(6161), 0
    for item in corpus:
        inst, cs = item.instance, item.constraints
        rows = {("r", tuple(rng.choices("abcd", k=2))), ("s", (rng.choice("abcd"),))}
        delta = UpdateDelta(tuple(sorted(rows - {f[1:] for f in inst.facts})), frozenset())
        if not delta.insertions:
            continue
        hg = build_hypergraph(inst, cs)
        calls.clear()
        incremental_hypergraph(hg, inst, delta, cs)
        assert len(calls) == len(cs) and len({id(seed) for _, _, seed in calls}) == 1
        assert all(got == want for got, want, _ in calls)
        deltas += 1
    assert deltas > 450, deltas


def test_delete_only_and_one_relation_deltas_match_a_rebuild_on_the_corpus(corpus):
    rng = random.Random(5151)
    kinds = Counter()
    for item in corpus:
        inst, cs = item.instance, item.constraints
        live = {f[1:] for f in inst.facts}
        deltas = [UpdateDelta((), frozenset(rng.sample(inst.tids, min(len(inst.tids),
                                                                     rng.randint(1, 2)))))]
        for relation, arity in (("r", 2), ("s", 1)):
            rows = {(relation, tuple(rng.choices("abcd", k=arity)))
                    for _ in range(rng.randint(1, 3))} - live
            deltas.append(UpdateDelta(tuple(sorted(rows)), frozenset()))
        for delta in deltas:
            if delta.insertions or delta.deletions:
                kinds[delta.insertions[0][0] if delta.insertions else "delete"] += 1
                _check_against_rebuild(
                    incremental_hypergraph(build_hypergraph(inst, cs), inst, delta, cs),
                    apply_update(inst, delta), cs)
    assert min(kinds.values()) > 300, kinds


def test_a_chain_of_scan_shaped_deltas_matches_a_rebuild(monkeypatch):
    calls = _count_joins(monkeypatch)
    for seed in range(3):
        rng = random.Random(seed)
        cs, inst = scan_shaped(rng, 240)
        hg = build_hypergraph(inst, cs)
        for i in range(40):
            delta = _scan_delta(rng, inst, i)
            after = apply_update(inst, delta)
            calls.clear()
            hg = incremental_hypergraph(hg, inst, delta, cs)
            relations = {p for p, _ in delta.insertions}
            # the FD's class is seeded once; closed's atoms one per relation
            assert sorted(calls) == sorted(
                [("key", 0)] * ("rel" in relations) + [("closed", 0)] * ("ord" in relations)
                + [("closed", 1)] * ("cust" in relations))
            inst = after
            _check_against_rebuild(hg, inst, cs)


def _count_checks(monkeypatch):
    calls = []
    check = Instance._walk
    monkeypatch.setattr(Instance, "_walk",
                        lambda self, *args: calls.append(1) or check(self, *args))
    return calls


def test_an_applied_delta_is_neither_checked_nor_rerooted_again(monkeypatch):
    cs, inst = scan_shaped(random.Random(12), 300)
    hg = build_hypergraph(inst, cs)
    checks = _count_checks(monkeypatch)
    rng = random.Random(13)
    for i in range(30):
        facts = inst.facts
        delta = _scan_delta(rng, inst, i)
        after = apply_update(inst, delta)
        checks.clear()
        hg = incremental_hypergraph(hg, inst, delta, cs)
        assert checks == [] and inst._by_tid is None and after._by_tid is not None
        fresh = Instance(inst.schema, facts)
        assert incremental_hypergraph(build_hypergraph(fresh, cs), fresh, delta, cs) == hg
        inst = after
    _check_against_rebuild(hg, inst, cs)


def test_another_delta_from_the_parent_is_checked_in_full(monkeypatch, pqr):
    _, cs, inst = pqr
    fresh = Instance(inst.schema, inst.facts)
    applied = parse_delta("+ q(e, w)\n- 2\n")
    checks = _count_checks(monkeypatch)
    for text in ("+ q(e, w)\n", "- 2\n", "+ q(e, w)\n- 2\n- 3\n", "+ q(e, w)\n+ p(z)\n- 2\n",
                 "+ p(z)\n+ q(e, w)\n- 2\n", "+ q(e, v)\n- 2\n", "+ p(a)\n", "+ p(z)\n- 99\n",
                 "+ q(e)\n", "+ p(NULL)\n", "+ nosuch(a)\n", "+ q(e, w)\n+ q(e, w)\n"):
        delta = parse_delta(text)
        want, want_err = _outcome(
            lambda v, d: incremental_hypergraph(build_hypergraph(v, cs), v, d, cs), fresh, delta)
        apply_update(inst, applied)
        checks.clear()
        got, got_err = _outcome(
            lambda v, d: incremental_hypergraph(build_hypergraph(fresh, cs), v, d, cs),
            inst, delta)
        assert (got, got_err) == (want, want_err), text
        # the rows are checked unless a tid is unknown
        assert checks or "unknown tid" in got_err, text
    bad = UpdateDelta((("p", ("z", 5)),), frozenset())
    with pytest.raises(InputError) as info:
        apply_update(inst, bad)
    assert str(info.value) == "row p('z', 5) has a value that is not a str"


def test_a_delta_that_undoes_a_link_read_back_gets_fresh_tids(pqr):
    # reading the parent leaves the child a link back to it, which drops the
    # inserted fact and restores the deleted one; a delta that does the same
    # gives the restored row a fresh tid, so it is checked, not read from there
    _, cs, inst = pqr
    delta = parse_delta("+ p(z)\n- 2\n")
    child, hg = apply_update(inst, delta), build_hypergraph(_fresh_after(inst, delta), cs)
    restored = inst.fact(2)
    assert child._link[0] is inst
    undo = UpdateDelta((restored[1:],), frozenset({5}))
    hg = incremental_hypergraph(hg, child, undo, cs)
    after = apply_update(child, undo)
    assert after.tids == (1, 3, 4, 6) and after.fact(6) == Fact(6, *restored[1:])
    _check_against_rebuild(hg, after, cs)


def test_deriving_one_delta_twice_gives_two_siblings(pqr):
    _, cs, inst = pqr
    delta = parse_delta("+ q(e, w)\n+ p(z)\n- 2\n")
    facts, want = inst.facts, _fresh_after(inst, delta)
    first, second = apply_update(inst, delta), apply_update(inst, delta)
    assert first is not second and first == second == want
    # each read moves the tid map to the version read
    for version, facts, gone in ((first, want.facts, 2), (second, want.facts, 2),
                                 (inst, facts, 5), (second, want.facts, 2),
                                 (first, want.facts, 2), (inst, facts, 5)):
        assert [version.fact(f.tid) for f in facts] == list(facts)
        with pytest.raises(InputError):
            version.fact(gone)
    assert first.facts == second.facts == want.facts and inst.tids == (1, 2, 3, 4)
    grand = [apply_update(v, parse_delta("- 5\n")) for v in (first, second)]
    assert grand[0] == grand[1] == _fresh_after(want, parse_delta("- 5\n"))
    assert first.tids == second.tids == (1, 3, 4, 5, 6)
    _check_against_rebuild(incremental_hypergraph(build_hypergraph(inst, cs), inst, delta, cs),
                           second, cs)


def _rel_fd(extra=""):
    """rel(A, B, C) under fd f : rel : A -> B, with the rows a,b,1 and a,d,2."""
    schema = parse_schema("rel(A, B, C)\n")
    cs = parse_constraints("fd f : rel : A -> B\n" + extra, schema)
    return cs, load_instance({"rel": "A,B,C\na,b,1\na,d,2\n"}, schema)


def test_a_delta_row_is_read_as_a_tuple_of_strings():
    listed = UpdateDelta((("rel", ["x", "y", "z"]),), frozenset())
    cs, inst = _rel_fd()
    hg = incremental_hypergraph(build_hypergraph(inst, cs), inst, listed, cs)
    after = apply_update(inst, listed)
    assert after.fact(3) == Fact(3, "rel", ("x", "y", "z"))
    _check_against_rebuild(hg, after, cs)
    # and read from the link that apply_update leaves
    _check_against_rebuild(incremental_hypergraph(build_hypergraph(inst, cs), inst, listed, cs),
                           after, cs)
    cs, inst = _rel_fd("dc o : !exists rel(x, y, z), rel(x, y2, z2), z < z2\n")
    for row in (("a", "b", 5), ["a", 5, "c"], ("a", ("b",), "c")):
        bad = UpdateDelta((("rel", row),), frozenset({1}))
        for update in (apply_update, lambda i, d: incremental_hypergraph(
                build_hypergraph(i, cs), i, d, cs), lambda i, d: check_insertion_bounds(
                i, UpdateDelta(d.insertions, frozenset()), cs)):
            with pytest.raises(InputError) as info:
                update(inst, bad)
            assert str(info.value) == f"row rel{tuple(row)!r} has a value that is not a str"


def test_a_delta_row_given_as_one_str_is_refused():
    # "xyz" for ("x", "y", "z") would otherwise be read as its characters
    cs, inst = _rel_fd()
    bad = UpdateDelta((("rel", "xyz"),), frozenset())
    message = "row rel gives the str 'xyz' for its values"
    for applied in (False, True):
        if applied:  # the link of the characters' delta does not stand in for it
            apply_update(inst, UpdateDelta((("rel", ("x", "y", "z")),), frozenset()))
        for update in (apply_update, lambda i, d: incremental_hypergraph(
                build_hypergraph(i, cs), i, d, cs)):
            with pytest.raises(InputError) as info:
                update(inst, bad)
            assert str(info.value) == message
    assert inst.tids == (1, 2)


def test_the_isolated_flag_matches_a_walk_of_the_solving_edges_on_the_corpus(corpus):
    rng = random.Random(2828)
    chained = random.Random(2829)  # the second deltas' draws
    seen = Counter()
    for item in corpus:
        inst, cs = item.instance, item.constraints
        if len(inst) < 2:
            continue
        delta = UpdateDelta((), frozenset(rng.sample(inst.tids, rng.randint(1, 2))))
        # the walk of every solving edge before the delta that the flag replaced
        walk = all(e.isdisjoint(delta.deletions) for e in item.hg.solving_edges)
        rebuilt = build_hypergraph(_fresh_after(inst, delta), cs)
        for hg_after in (None, rebuilt):
            report = check_deletion_bounds(inst, delta, cs, hg_before=build_hypergraph(inst, cs),
                                           hg_after=hg_after)
            assert report.deleted_all_isolated is walk
        seen[walk] += 1
        # a second delete-only delta from the first one's derived version,
        # each handed in as the stream does
        after = apply_update(inst, delta)
        if len(after) < 2:
            continue
        hg_before = incremental_hypergraph(build_hypergraph(inst, cs), inst, delta, cs)
        second = UpdateDelta((), frozenset(chained.sample(after.tids, chained.randint(1, 2))))
        walk = all(e.isdisjoint(second.deletions) for e in rebuilt.solving_edges)
        apply_update(after, second)
        hg_after = incremental_hypergraph(hg_before, after, second, cs)
        report = check_deletion_bounds(after, second, cs, hg_before=hg_before, hg_after=hg_after)
        assert report.deleted_all_isolated is walk
        fresh = build_hypergraph(_fresh_after(_fresh_after(inst, delta), second), cs)
        assert hg_after._solving_count == len(fresh.solving_edges)
        seen["second", walk] += 1
    assert min(seen.values()) > 100, seen


def _reference_sandwich(direction, n, k, before, after, isolated):
    """The bound report's fields, with the bounds written as Fraction arithmetic."""
    eps = Fraction(k, n) if n else Fraction(0)
    if not 0 < eps < 1:
        return direction, eps, before, after, False, [], isolated
    scaled = after / (1 - eps)
    if direction == "insert":
        bounds = [("upper", after, before + eps / (1 + eps)), ("lower", before, scaled)]
    else:
        bounds = [("upper", after, before / (1 - eps)), ("lower", before, scaled + eps)]
        if isolated:
            bounds.append(("lower_isolated", before, scaled))
    return direction, eps, before, after, True, bounds, isolated


def test_the_bound_sides_equal_their_fraction_arithmetic():
    rng = random.Random(909)
    seen = Counter()
    for _ in range(4000):
        n = rng.choice([0, 1, 2, rng.randint(3, 40), rng.randint(41, 10 ** 6)])
        if n > 1 and rng.random() < 0.6:
            k = rng.randint(1, n - 1)
        else:
            k = rng.choice([0, n, n + rng.randint(1, 3)])
        direction = rng.choice(["insert", "delete"])
        if rng.random() < 0.5:  # measures of the instances either side of the delta
            n_after = max(n + (k if direction == "insert" else -k), 1)
            before = Fraction(rng.randint(0, n), n) if n else Fraction(0)
            after = Fraction(rng.randint(0, n_after), n_after)
        else:
            before, after = (Fraction(rng.randint(0, 50), rng.randint(1, 50)) for _ in "ab")
        isolated = rng.choice([True, False]) if direction == "delete" else None
        got = updates._sandwich(direction, n, k, before, after, isolated)
        want = _reference_sandwich(direction, n, k, before, after, isolated)
        assert (got.direction, got.epsilon, got.before, got.after, got.applicable,
                [(b.name, b.lhs, b.rhs) for b in got.bounds], got.deleted_all_isolated) == want
        assert [b.holds for b in got.bounds] == [lhs <= rhs for _, lhs, rhs in want[5]]
        assert all(type(x) is Fraction for b in got.bounds for x in (b.lhs, b.rhs))
        assert cli._bounds_payload(got)["bounds"] == [
            {"name": name, "lhs": str(lhs), "rhs": str(rhs), "holds": lhs <= rhs}
            for name, lhs, rhs in want[5]]
        seen[got.applicable, direction, "lower_isolated" in {b.name for b in got.bounds}] += 1
        seen["n=0" if n == 0 else "k=0" if k == 0 else "k>=n" if k >= n else "inside"] += 1
    assert min(seen.values()) > 100, seen


def _count_solves(monkeypatch):
    """A list that gets one entry per exact._solve call."""
    calls = []
    solve = exact._solve
    monkeypatch.setattr(exact, "_solve", lambda *args: calls.append(1) or solve(*args))
    return calls


def test_a_bound_check_after_inc_deg_g3_reads_each_versions_kept_report(monkeypatch):
    """Along a chain of FD deltas measured as an update session does, the
    bound checks solve nothing: each version is solved once, by inc_deg_g3,
    and the checks give what they give with no hypergraph handed in.  A
    smaller budget or another instance size is not served from the report."""
    cs, inst, _ = fd_key_groups(random.Random(6), 400)
    hg, rng = build_hypergraph(inst, cs), random.Random(16)
    solves = _count_solves(monkeypatch)
    report, checked = measures.inc_deg_g3(inst, cs, hg), 0
    for i in range(40):
        delta = _fd_delta(rng, inst, i, 100)
        after = apply_update(inst, delta)
        hg_after = incremental_hypergraph(hg, inst, delta, cs)
        check = (check_insertion_bounds if delta.is_insert_only
                 else check_deletion_bounds if delta.is_delete_only else None)
        want = check and check(_rebuilt(inst), delta, cs)
        solves.clear()
        report_after = measures.inc_deg_g3(after, cs, hg_after)
        if check is not None:
            got = check(inst, delta, cs, hg_before=hg, hg_after=hg_after)
            assert got == want and (got.before, got.after) == (report.value, report_after.value)
            checked += 1
        assert len(solves) == 1 and measures._g3(hg_after, len(after)) is report_after
        inst, hg, report = after, hg_after, report_after
    assert checked >= 10
    nodes, n = hg._answer.nodes, len(inst)
    assert nodes > 1
    with pytest.raises(ResourceLimitError) as info:
        measures._g3(hg, n, node_budget=nodes - 1)
    assert (info.value.best_size, info.value.lower_bound) == _fresh_search(
        hg.solving_edges, nodes - 1)
    solves.clear()
    other = measures._g3(hg, n + 1)
    assert solves and (other.numerator, other.denominator) == (report.numerator, n + 1)


def test_a_re_presented_delta_is_read_from_the_link_by_value(monkeypatch, pqr):
    """A delta equal to the one derive applied, in other containers, is read
    back from the link with no check; one of the same size with another row
    or tid is checked in full, and so is the caller's list of rows when it
    was changed after derive."""
    _, cs, inst = pqr
    fresh = Instance(inst.schema, inst.facts)
    checks = _count_checks(monkeypatch)
    rows, deletions = [("q", ["e", "w"])], [2]
    child = inst.derive(rows, deletions)
    assert checks
    for again in ((tuple(rows), frozenset(deletions)), ([("q", ("e", "w"))], iter([2, 2]))):
        checks.clear()
        assert inst._delta(*again)[2] is child and checks == []
        assert inst.check_delta(*again) == [Fact(5, "q", ("e", "w"))]
    for text in ("+ q(e, v)\n- 2\n", "+ q(e, w)\n- 3\n", "+ p(w)\n- 2\n", "+ q(e, w)\n- 1\n"):
        delta = parse_delta(text)
        checks.clear()
        assert inst._delta(delta.insertions, delta.deletions)[2] is None and checks, text
        assert inst.check_delta(delta.insertions, delta.deletions) == \
            fresh.check_delta(delta.insertions, delta.deletions)
    apply_update(inst, parse_delta("- 3\n"))  # a sibling: the link now leads there
    child = inst.derive(rows, deletions)
    rows[0][1][1] = "v"
    checks.clear()
    assert inst._delta(rows, deletions)[2] is None and checks
    assert inst.check_delta(rows, deletions) == [Fact(5, "q", ("e", "v"))]
    rows.append(("p", ("z",)))
    checks.clear()
    assert inst._delta(rows, deletions)[2] is None and checks
    assert inst.check_delta(rows, deletions) == [Fact(5, "q", ("e", "v")), Fact(6, "p", ("z",))]
    assert child.facts == _fresh_after(inst, parse_delta("+ q(e, w)\n- 2\n")).facts


def test_derives_build_no_labeled_edge_and_later_reads_match_the_reference(monkeypatch):
    """A chain of deltas from a two-constraint build and one from a
    single-FD build construct no Hyperedge: neither a root's labeled edges
    nor any derived version's.  Read afterwards, each version's edges, in a
    seeded shuffled order and so mostly after later deltas, equal the eager
    reference of a fresh instance of its facts, and ==, hash, pickle and
    deepcopy see that value."""
    made, labeled = [], conflicts.Hyperedge
    monkeypatch.setattr(conflicts, "Hyperedge", lambda *args: made.append(args) or labeled(*args))
    cases = ((*scan_shaped(random.Random(10), 300), _scan_delta),
             (*fd_key_groups(random.Random(10), 300)[:2],
              lambda rng, inst, i: _fd_delta(rng, inst, i, 75)))
    rng, versions = random.Random(20), []
    for cs, inst, delta_of in cases:
        root = hg = build_hypergraph(inst, cs)
        for i in range(30):
            delta = delta_of(rng, inst, i)
            after = apply_update(inst, delta)
            hg_after = incremental_hypergraph(hg, inst, delta, cs)
            measures.inc_deg_g3(after, cs, hg_after)
            if delta.is_insert_only or delta.is_delete_only:
                check = check_insertion_bounds if delta.is_insert_only else check_deletion_bounds
                check(inst, delta, cs, exact.DEFAULT_NODE_BUDGET, hg, hg_after)
            inst, hg = after, hg_after
            versions.append((hg, cs, inst.schema, inst.facts))
        assert not made and "edges" not in vars(root)
    assert not [v for v, *_ in versions if "edges" in vars(v)]
    monkeypatch.undo()
    rng.shuffle(versions)
    for version, cs, schema, facts in versions:
        fresh = Instance(schema, facts)
        want, rebuilt = _reference_edges(fresh, cs), build_hypergraph(fresh, cs)
        assert version.edges == want and version == rebuilt and hash(version) == hash(rebuilt)
        for twin in (pickle.loads(pickle.dumps(version)), copy.deepcopy(version)):
            assert twin == version and twin.edges == want
