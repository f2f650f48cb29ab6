"""Acceptance suite: prints one [acceptance] line per criterion.

Each criterion is a test that prints PASS/FAIL (or SKIP) straight to the
terminal, then asserts, so a plain pytest run shows the checklist while the
exit status still reflects it.
"""

import itertools
import os
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

import pytest

from incmeter.approx import local_ratio_hitting_set, randomized_rounding_hitting_set
from incmeter.aspgen import emit_repair_program, run_brave_distances, run_external_solver
from incmeter.conflicts import build_hypergraph, hypergraph_from_edges
from incmeter.exact import enumerate_c_repairs, enumerate_s_repairs, min_hitting_set
from incmeter.measures import inc_deg_g3, inc_deg_g3_endogenous
from incmeter.model import Fact, Instance, parse_constraints, parse_schema
from incmeter.nullrep import inc_deg_g3_null, minimal_null_repairs
from incmeter.updates import (UpdateDelta, apply_update, check_deletion_bounds,
                              check_insertion_bounds, incremental_hypergraph)

from conftest import brute_force_min_hitting_set, fd_key_groups
from oracles import normalize_tokens

GOLDEN = Path(__file__).parent / "golden" / "repair_program_reference.lp"


def report(capsys, cid, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {cid} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{cid} {label} failed{suffix}"


def report_skip(capsys, cid, label, detail):
    with capsys.disabled():
        print(f"[acceptance] {cid} {label}: SKIP ({detail})")


def timed(fn):
    start = time.perf_counter()
    return fn(), time.perf_counter() - start


def test_c1_worked_examples(capsys, pqr, fd, nullb):
    _, cs, inst = pqr
    schema = inst.schema
    failures = []

    def check(name, fn, expect):
        got, secs = timed(fn)
        if got != expect:
            failures.append(f"{name}: got {got}, want {expect}")
        elif secs >= 1.0:
            failures.append(f"{name}: took {secs:.2f}s")

    check("join measure", lambda: inc_deg_g3(inst, cs).value, Fraction(1, 4))
    check("join witness", lambda: inc_deg_g3(inst, cs).witness.deleted,
          frozenset({1}))
    check("maximal repairs",
          lambda: [sorted(r) for r in enumerate_s_repairs(inst, cs).repairs],
          [[1, 2], [2, 3, 4]])
    check("largest repair is unique",
          lambda: [sorted(r) for r in enumerate_c_repairs(inst, cs).repairs],
          [[2, 3, 4]])

    half = Instance(schema, inst.facts, frozenset({3, 4}))
    check("restricted deletions", lambda: inc_deg_g3_endogenous(half, cs).value,
          Fraction(1, 2))
    blocked = Instance(schema, inst.facts, frozenset({2, 4}))
    check("blocked conflict", lambda: inc_deg_g3_endogenous(blocked, cs).value,
          Fraction(1))
    check("blocked conflict is flagged",
          lambda: "no endogenous" in (inc_deg_g3_endogenous(blocked, cs).note or ""),
          True)
    # this split is sometimes described as having no repair at all, but both
    # conflicts pass through tid 1 and tid 1 is deletable here, so by the
    # definition a single deletion suffices and the value is 1/4; the split
    # that truly has no repair is the complementary one checked above
    shared = Instance(schema, inst.facts, frozenset({1, 3}))
    check("shared deletable vertex", lambda: inc_deg_g3_endogenous(shared, cs).value,
          Fraction(1, 4))
    check("endogenous-count normalization",
          lambda: inc_deg_g3_endogenous(half, cs, normalization="endogenous_size").value,
          Fraction(1))

    _, cs2, inst2 = fd
    check("key-violation measure", lambda: inc_deg_g3(inst2, cs2).value,
          Fraction(1, 3))
    check("largest repair",
          lambda: [sorted(r) for r in enumerate_c_repairs(inst2, cs2).repairs],
          [[1, 3]])

    _, cs3, inst3 = nullb
    check("cell blanking measure", lambda: inc_deg_g3_null(inst3, cs3).value,
          Fraction(1, 8))
    check("tuple deletion on the same data", lambda: inc_deg_g3(inst3, cs3).value,
          Fraction(1, 5))

    report(capsys, "C1", "worked examples", not failures,
           "; ".join(failures) if failures else "13 checks, each under 1s")


def test_c2_exact_optimum_certification(capsys, corpus):
    # recomputes everything from the raw instances so the elapsed time below
    # covers the whole campaign, not just the comparisons
    start = time.perf_counter()
    bad = []
    for i, item in enumerate(corpus):
        n = len(item.instance)
        hg = build_hypergraph(item.instance, item.constraints)
        opt = min_hitting_set(hg)
        brute = brute_force_min_hitting_set(hg)
        if len(opt.deleted) != len(brute.deleted):
            bad.append(f"#{i}: solver vs brute force")
            continue
        creps = enumerate_c_repairs(item.instance, item.constraints,
                                    hypergraph=hg)
        biggest = max((len(r) for r in creps.repairs), default=0)
        if len(opt.deleted) != n - biggest:
            bad.append(f"#{i}: solver vs largest repair")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    detail = (f"{len(corpus)} instances agree with both oracles in {elapsed:.1f}s"
              if ok else "; ".join(bad[:5]) or f"too slow: {elapsed:.1f}s")
    report(capsys, "C2", "exact optimum vs independent oracles", ok, detail)


def test_c3_approximation_guarantees(capsys, corpus):
    inconsistent = lr_ok = rr_valid = rr_within = 0
    for i, item in enumerate(corpus):
        hg = item.hg
        if hg.is_consistent:
            continue
        inconsistent += 1
        opt = len(item.opt.deleted)
        lr = local_ratio_hitting_set(hg)
        if (all(lr.deleted & e for e in hg.solving_edges)
                and opt <= len(lr.deleted) <= hg.d * opt):
            lr_ok += 1
        rr = randomized_rounding_hitting_set(hg, seed=i)
        if all(rr.deleted & e for e in hg.solving_edges):
            rr_valid += 1
            if len(rr.deleted) <= hg.d * opt:
                rr_within += 1
    ok = (inconsistent > 0 and lr_ok == inconsistent
          and rr_valid == inconsistent
          and rr_within >= 0.95 * inconsistent)
    report(capsys, "C3", "approximation guarantees", ok,
           f"local-ratio within factor d {lr_ok}/{inconsistent}, "
           f"randomized valid {rr_valid}/{inconsistent}, "
           f"within factor d {rr_within}/{inconsistent} (need 95%)")


def test_c4_update_bound_inequalities(capsys, corpus):
    rng = random.Random(424242)
    checked = held = isolated_seen = 0
    for item in corpus:
        inst = item.instance
        if len(inst.tids) < 2:
            continue
        taken = {(f.predicate, f.values) for f in inst.facts}
        for a, b in itertools.product("abcd", repeat=2):
            if ("r", (a, b)) not in taken:
                delta = UpdateDelta((("r", (a, b)),), frozenset())
                rep = check_insertion_bounds(inst, delta, item.constraints,
                                             hg_before=item.hg)
                if rep.applicable:
                    checked += 1
                    held += all(b.holds for b in rep.bounds)
                break
        k = rng.randint(1, max(1, len(inst.tids) - 1))
        dels = frozenset(rng.sample(inst.tids, min(k, len(inst.tids) - 1)))
        rep = check_deletion_bounds(inst, UpdateDelta((), dels), item.constraints,
                                    hg_before=item.hg)
        if rep.applicable:
            checked += 1
            held += all(b.holds for b in rep.bounds)
            isolated_seen += bool(rep.deleted_all_isolated)
    ok = checked >= 500 and held == checked and isolated_seen > 50
    report(capsys, "C4", "update bound inequalities", ok,
           f"{held}/{checked} hold ({isolated_seen} with the strengthened "
           f"deletion bound)")


def test_c5_incremental_conflict_maintenance(capsys, corpus):
    rng = random.Random(535353)
    domain = "abcd"
    agreed = total = 0
    for item in corpus:
        inst = item.instance
        deletions = set(rng.sample(inst.tids,
                                   min(len(inst.tids), rng.randint(0, 2))))
        taken = {(f.predicate, f.values) for f in inst.facts
                 if f.tid not in deletions}
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
        inc = incremental_hypergraph(item.hg, inst, delta, item.constraints)
        after = apply_update(inst, delta)
        # built anew, so that the rebuild joins in a fact index of its own
        full = build_hypergraph(Instance(after.schema, after.facts), item.constraints)
        total += 1
        # a derived version's labeled edges are a build of its instance, so
        # derive is checked on the components it maintains, which hold its
        # solving edges
        agreed += (inc == full and [tuple(c) for c in inc.components]
                   == [tuple(c) for c in full.components])
    ok = total >= 500 and agreed == total
    report(capsys, "C5", "incremental conflict maintenance", ok,
           f"{agreed}/{total} mixed deltas match a full rebuild")


def test_c6_repair_program_emission(capsys, pqr):
    _, cs, inst = pqr
    program = emit_repair_program(inst, cs, style="normal")
    golden_ok = (normalize_tokens(program.render())
                 == normalize_tokens(GOLDEN.read_text()))
    binary = (os.environ.get("INCMETER_ASP_SOLVER")
              or shutil.which("dlv-complex") or shutil.which("dlv"))
    if not binary or not shutil.which(binary):
        report(capsys, "C6", "repair program emission", golden_ok,
               "token-level match with the reference listing; external solver "
               "not installed, execution leg skipped")
        return
    result = run_external_solver(program, binary)
    brave = run_brave_distances(program, binary)
    exec_ok = (result["dist"] == 1 and len(result["deleted"]) == 1
               and brave == frozenset({1, 2}))
    report(capsys, "C6", "repair program emission", golden_ok and exec_ok,
           f"token match and solver run: best dist {result['dist']}, "
           f"achievable distances {sorted(brave)}")


def test_c7_scaling(capsys):
    # planted key violations: 5 keys with 3 mutually conflicting rows (two
    # deletions each), 5 keys with 2 (one each), filler rows up to 200, so
    # the optimum is 15 while the matching lower bound is only 10
    rows = []
    for g in range(5):
        for j in range(3):
            rows.append((f"k{g}", f"v{j}", f"p{len(rows)}"))
    for g in range(5):
        for j in range(2):
            rows.append((f"m{g}", f"v{j}", f"p{len(rows)}"))
    while len(rows) < 200:
        rows.append((f"f{len(rows)}", "v0", f"p{len(rows)}"))
    schema = parse_schema("rel(A, B, C)\n")
    cs = parse_constraints("fd key : rel : A -> B\n", schema)
    inst = Instance(schema, tuple(Fact(i + 1, "rel", r)
                                  for i, r in enumerate(rows)))
    sol, t_exact = timed(lambda: min_hitting_set(build_hypergraph(inst, cs)))
    exact_ok = len(sol.deleted) == 15 and t_exact < 10

    rng = random.Random(9)
    edge_sets = {frozenset(rng.sample(range(10_000), 3)) for _ in range(50_000)}

    def big_local_ratio():
        hg = hypergraph_from_edges(range(10_000), edge_sets)
        return hg, local_ratio_hitting_set(hg)

    (hg_big, lr), t_lr = timed(big_local_ratio)
    lr_ok = (all(lr.deleted & e for e in hg_big.solving_edges) and t_lr < 5)

    # conflict detection on 20k rows shaped like the scan benchmark: planted
    # key groups under an FD, and orders of closed customers; the edge count
    # is the mixed-B pairs per group plus the orders of closed customers
    rng = random.Random(11)
    rel, fd_pairs = [], 0
    for g in range(200):
        bs = [rng.choice("xy") for _ in range(rng.randint(2, 6))]
        fd_pairs += bs.count("x") * bs.count("y")
        rel += [(f"k{g}", b, f"c{len(rel) + i}") for i, b in enumerate(bs)]
    while len(rel) < 6000:
        rel.append((f"a{len(rel)}", rng.choice("xy"), f"c{len(rel)}"))
    closed = set(rng.sample(range(3000), 150))
    customers = [rng.randrange(3000) for _ in range(11_000)]
    join_pairs = sum(c in closed for c in customers)
    rows = ([("rel", r) for r in rel]
            + [("cust", (f"u{i}", "closed" if i in closed else "open"))
               for i in range(3000)]
            + [("ord", (f"o{i}", f"u{c}")) for i, c in enumerate(customers)])
    scan_schema = parse_schema("rel(A, B, C)\nord(O, C)\ncust(C, S)\n")
    scan_cs = parse_constraints(
        'fd key : rel : A -> B\n'
        'dc closed : !exists ord(o, c), cust(c, s), s = "closed"\n', scan_schema)
    scan = Instance(scan_schema, tuple(Fact(i + 1, p, v)
                                       for i, (p, v) in enumerate(rows)))
    hg_scan, t_scan = timed(lambda: build_hypergraph(scan, scan_cs))
    scan_ok = len(hg_scan.edges) == fd_pairs + join_pairs and t_scan < 5

    # all minimal blankings at the 24-cell enumeration cap: 6 symmetric pairs
    # r(i, j), r(j, i), each conflict broken by one of its 4 cells, so 4^6 answers
    sym_schema = parse_schema("r(A, B)\n")
    sym_cs = parse_constraints("dc c : !exists r(x, y), r(y, x), x != y\n", sym_schema)
    sym = Instance(sym_schema, tuple(
        [Fact(i + 1, "r", (str(i), str(99 - i))) for i in range(6)]
        + [Fact(i + 7, "r", (str(99 - i), str(i))) for i in range(6)]))
    blankings, t_null = timed(lambda: minimal_null_repairs(sym, sym_cs))
    null_ok = (len(blankings) == 4 ** 6 and all(len(b) == 6 for b in blankings)
               and t_null < 5)

    # the exact solver against the single-FD closed form at 10^4 rows
    fd_cs, fd_inst, fd_opt = fd_key_groups(random.Random(1), 10_000)
    fd_sol, t_fd = timed(lambda: min_hitting_set(build_hypergraph(fd_inst, fd_cs)))
    fd_ok = len(fd_sol.deleted) == fd_opt and t_fd < 5
    # blanking meets the same closed form: a smallest vertex cover, one cell each
    fd_null, t_fd_null = timed(lambda: inc_deg_g3_null(fd_inst, fd_cs))
    fd_null_ok = ((fd_null.numerator, fd_null.denominator) == (fd_opt, 3 * len(fd_inst))
                  and t_fd_null < 5)

    report(capsys, "C7", "scaling",
           exact_ok and lr_ok and scan_ok and null_ok and fd_ok and fd_null_ok,
           f"200-row exact optimum 15 in {t_exact:.2f}s, "
           f"{len(edge_sets)}-edge greedy cover in {t_lr:.2f}s, "
           f"{len(scan)}-row conflict detection ({len(hg_scan.edges)} edges) "
           f"in {t_scan:.2f}s, {len(blankings)} minimal 24-cell blankings "
           f"in {t_null:.2f}s, {len(fd_inst)}-row single-FD optimum {fd_opt} "
           f"(closed form) in {t_fd:.2f}s, blanking {fd_null.numerator} of "
           f"{fd_null.denominator} cells in {t_fd_null:.2f}s")


def test_c8_complexity_classification(capsys):
    report_skip(capsys, "C8", "complexity classification",
                "proof-level claim with no runtime artifact to test")
    pytest.skip("nothing executable to verify")
