import itertools
import random
from fractions import Fraction

import pytest

from incmeter import nullrep
from incmeter.errors import ResourceLimitError
from incmeter.measures import inc_deg_g3
from incmeter.model import (NULL, Fact, Instance, parse_constraints,
                            parse_schema)
from incmeter.nullrep import (CellChange, cell_conflicts, inc_deg_g3_null,
                              min_null_changes, minimal_null_repairs)

from conftest import fd_key_groups, random_bundle
from oracles import apply_changes, consistent, restrict


def as_pairs(changes):
    return sorted((c.tid, c.position) for c in changes)


def test_worked_example(nullb):
    _, cs, inst = nullb
    sol = min_null_changes(inst, cs)
    assert as_pairs(sol.changes) == [(2, 1)]
    assert sol.atv == 8
    rep = inc_deg_g3_null(inst, cs)
    assert (rep.numerator, rep.denominator) == (1, 8)
    assert rep.value == Fraction(1, 8)
    # blanking competes against deleting: one tuple out of five
    assert inc_deg_g3(inst, cs).value == Fraction(1, 5)


def test_minimal_blanking_sets(nullb):
    _, cs, inst = nullb
    reps = minimal_null_repairs(inst, cs)
    assert [as_pairs(r) for r in reps] == [[(2, 1)], [(3, 1), (4, 1), (5, 1)]]


def test_applying_the_solution_restores_consistency(nullb):
    _, cs, inst = nullb
    sol = min_null_changes(inst, cs)
    fixed = apply_changes(inst, sol.changes)
    assert consistent(fixed, cs)
    blanked = {f.tid: f for f in fixed}[2]
    assert blanked.values[0] == NULL


def test_minimality_of_each_blanking_set(nullb):
    _, cs, inst = nullb
    for r in minimal_null_repairs(inst, cs):
        assert consistent(apply_changes(inst, r), cs)
        for drop in r:
            assert not consistent(apply_changes(inst, r - {drop}), cs)


def test_null_join_semantics():
    schema = parse_schema("s(A)\nr(A, B)\n")
    cs = parse_constraints("dc c : !exists s(x), r(x, y)\n", schema)
    facts = (Fact(1, "s", ("a",)), Fact(2, "r", (NULL, "b")))
    # NULL never joins, so the conflict is gone
    assert consistent(facts, cs)
    alive = (Fact(1, "s", ("a",)), Fact(2, "r", ("a", NULL)))
    # y occurs once, so binding it to NULL is harmless: still violating
    assert not consistent(alive, cs)


def test_null_comparison_and_constant_semantics():
    schema = parse_schema("t(A, B)\n")
    lt = parse_constraints("dc c : !exists t(x, y), x < y\n", schema)
    assert consistent((Fact(1, "t", (NULL, "b")),), lt)
    assert not consistent((Fact(1, "t", ("a", "b")),), lt)
    const = parse_constraints('dc c : !exists t("a", y)\n', schema)
    assert consistent((Fact(1, "t", (NULL, "b")),), const)
    assert not consistent((Fact(1, "t", ("a", "b")),), const)


def test_breaking_cells_cover_constants_joins_and_comparisons():
    schema = parse_schema("t(A, B)\n")
    # position 1 breaks the constant match, position 2 breaks the comparison
    cs = parse_constraints('dc c : !exists t("a", y), y < 5\n', schema)
    inst = Instance(schema, (Fact(1, "t", ("a", "3")),))
    edges, irreparable = cell_conflicts(inst, cs)
    assert not irreparable
    assert [as_pairs(e) for e in edges] == [[(1, 1), (1, 2)]]
    sol = min_null_changes(inst, cs)
    assert len(sol.changes) == 1
    assert consistent(apply_changes(inst, sol.changes), cs)


def test_pure_existence_conflict_is_irreparable():
    schema = parse_schema("t(A)\n")
    cs = parse_constraints("dc none : !exists t(x)\n", schema)
    inst = Instance(schema, (Fact(1, "t", ("a",)),))
    edges, irreparable = cell_conflicts(inst, cs)
    assert irreparable
    assert min_null_changes(inst, cs) is None
    assert minimal_null_repairs(inst, cs) == ()
    rep = inc_deg_g3_null(inst, cs)
    assert rep.value == 1
    assert "no breakable cell" in rep.note


def test_consistent_and_empty_instances(nullb):
    schema, cs, inst = nullb
    ok = restrict(inst, {1, 3, 4, 5})
    rep = inc_deg_g3_null(ok, cs)
    assert rep.value == 0 and rep.denominator == 7
    empty = inc_deg_g3_null(Instance(schema, ()), cs)
    assert (empty.numerator, empty.denominator) == (0, 1)
    assert "consistent" in empty.note


def test_the_cells_are_counted_once_per_measure(nullb, monkeypatch):
    schema, cs, inst = nullb
    t_schema = parse_schema("t(A)\n")
    irreparable = (Instance(t_schema, (Fact(1, "t", ("a",)),)),
                   parse_constraints("dc none : !exists t(x)\n", t_schema))
    calls, atv = [], nullrep._atv
    monkeypatch.setattr(nullrep, "_atv", lambda instance: calls.append(1) or atv(instance))
    for instance, constraints in ((inst, cs), irreparable, (Instance(schema, ()), cs)):
        calls.clear()
        rep = inc_deg_g3_null(instance, constraints)
        assert len(calls) == 1, rep


def test_many_cells_are_solved_and_the_node_budget_brackets_them():
    # 30 symmetric pairs r(i, j), r(j, i): 120 cells, 30 disjoint conflicts
    schema = parse_schema("r(A, B)\n")
    cs = parse_constraints("dc c : !exists r(x, y), r(y, x), x != y\n", schema)
    rows = [Fact(i + 1, "r", (str(i), str(99 - i))) for i in range(30)] + \
           [Fact(i + 31, "r", (str(99 - i), str(i))) for i in range(30)]
    inst = Instance(schema, tuple(rows))
    rep = inc_deg_g3_null(inst, cs)
    assert (rep.numerator, rep.denominator) == (30, 120)
    assert consistent(apply_changes(inst, rep.witness.changes), cs)
    with pytest.raises(ResourceLimitError) as info:
        min_null_changes(inst, cs, node_budget=5)
    assert info.value.lower_bound <= 30 <= info.value.best_size


def test_single_fd_blanking_matches_the_closed_form():
    # each conflict is {t1.A, t1.B, t2.A, t2.B}, so a smallest blanking takes
    # one cell of each fact in a smallest vertex cover: the deletion optimum
    for seed in range(1, 4):
        cs, inst, optimum = fd_key_groups(random.Random(seed), 1000)
        rep = inc_deg_g3_null(inst, cs)
        assert (rep.numerator, rep.denominator) == (optimum, 3 * len(inst))


def test_blanking_never_creates_new_violations():
    # nulling is monotone: applying any subset of cells of any instance can
    # only remove violations, never add them
    rng = random.Random(66)
    for _ in range(40):
        cs, inst = random_bundle(rng, max_rows=6)
        if not inst.facts:
            continue
        all_cells = [CellChange(f.tid, p + 1)
                     for f in inst.facts for p in range(len(f.values))]
        before = consistent(inst.facts, cs)
        picks = rng.sample(all_cells, min(3, len(all_cells)))
        after = consistent(apply_changes(inst, picks), cs)
        if before:
            assert after


def test_min_null_changes_matches_subset_oracle():
    # brute force over cell subsets in ascending size confirms optimality
    rng = random.Random(67)
    confirmed = 0
    for _ in range(40):
        cs, inst = random_bundle(rng, max_rows=5)
        try:
            sol = min_null_changes(inst, cs)
        except ResourceLimitError:
            continue
        cells = [CellChange(f.tid, p + 1)
                 for f in inst.facts for p in range(len(f.values))]
        best = None
        for k in range(len(cells) + 1):
            for combo in itertools.combinations(cells, k):
                if consistent(apply_changes(inst, combo), cs):
                    best = k
                    break
            if best is not None:
                break
        if sol is None:
            assert best is None
        else:
            assert len(sol.changes) == best
            confirmed += 1
    assert confirmed > 20


def test_apply_changes_rejects_unknown_cells(nullb):
    _, _, inst = nullb
    with pytest.raises(KeyError):
        apply_changes(inst, [CellChange(99, 1)])
