"""The scan, solve and stream workloads: their ops, both call paths and checks.

Every op has two paths.  The untraced path is what a user runs: the CLI's
`main` in-process for commands, the public library calls for the update
session.  The traced path makes the same public calls one layer at a time,
each inside a span, and calls the solver the way the measure does
internally, so each layer's time is measured from outside.  Both paths
return (exit code, payload); a payload is the CLI's JSON text or a dict
with the same keys, and the op's check compares it with the oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import gen
import oracle
from spans import NullTracer
from incmeter import (ResourceLimitError, apply_update, build_hypergraph,
                      check_deletion_bounds, check_insertion_bounds,
                      emit_repair_program, hypergraph_from_edges, inc_deg_g3,
                      incremental_hypergraph, load_instance, local_ratio_hitting_set,
                      lp_fractional_cover, measure_count_all, measure_jaccard,
                      parse_constraints, parse_delta, parse_schema,
                      randomized_rounding_hitting_set)
from incmeter import cli, conflicts, exact, nullrep

# Each pass of scan and solve runs on inputs of its own, so a run averages
# over several instances per op rather than over one draw of the seed.
SCAN_SIZES = (1000, 2000, 4000)
SCAN_PASSES = 5
SOLVE_PASSES = 15
STREAM_BASE = 1000
STREAM_DELTAS = 4000
STREAM_WINDOW = 100  # deltas per pass, the unit of throughput
# The ROADMAP FD shape at a size where the seed commit's exact solver runs
# out of this budget on about 97% of instances; the op then fails in well
# under a second instead of searching for minutes.
ROADMAP_ROWS = 160
ROADMAP_BUDGET = 4000
LP_EPS = Fraction(1, 10)
REBUILD_EVERY = 10


@dataclass
class Op:
    kind: str           # latency class, reported as <kind>_ms_p50
    rows: int           # input facts the op reads
    run: object         # untraced path: () -> (code, payload)
    traced: object      # traced path: (tracer) -> (code, payload)
    check: object       # payload -> list of problems
    budget_limited: bool = False
    # an op of 40 ms or more, long enough for the host's speed to change
    # during it: the host-speed probe runs just before and just after it
    long: bool = False


def _json(payload):
    return json.loads(payload) if isinstance(payload, str) else payload


class Case:
    """One generated instance: its input files, facts and oracle answers."""

    def __init__(self, name, rows, schema, constraints, endogenous=None):
        self.name = name
        self.rows = rows
        self.schema = schema
        self.constraints = constraints
        self.endogenous = endogenous
        self.facts = gen.tid_facts(rows)
        self.root = self.dir = None

    def write(self, root: Path, files=True):
        """Write the data directory; the schema and constraint files are shared.

        With `files` false the files are taken to be there already, written
        by an earlier set-up from the same seed.
        """
        self.root, self.dir = root, root / self.name
        if not files:
            return
        for name, text in (("schema.txt", self.schema),
                           ("constraints.txt", self.constraints)):
            if not (root / name).is_file():
                (root / name).write_text(text, encoding="utf-8")
        gen.write_instance(self.dir, self.rows, self.endogenous)

    def argv(self, command, *extra):
        return [command, "--schema", str(self.root / "schema.txt"),
                "--constraints", str(self.root / "constraints.txt"),
                "--data", str(self.dir), *extra]

    @cached_property
    def edges(self):
        return oracle.conflict_edges(self.facts)

    @cached_property
    def edge_sets(self):
        return [e for _, e in self.edges]

    @cached_property
    def opt(self):
        return oracle.min_deletions(self.facts)

    @cached_property
    def tiny(self):
        return oracle.TinyInstance(self.facts)


# --- the untraced path ------------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() if code == 0 else err.getvalue()


# --- the traced path --------------------------------------------------------

def load_case(tr, case):
    """What the CLI does before any command: parse, read files, load."""
    schema_text = (case.root / "schema.txt").read_text(encoding="utf-8")
    constraints_text = (case.root / "constraints.txt").read_text(encoding="utf-8")
    with tr.span("model.parse"):
        schema = parse_schema(schema_text)
    with tr.span("model.parse"):
        constraints = parse_constraints(constraints_text, schema)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(case.dir.glob("*.csv"))}
    endo_path = case.dir / "endogenous.txt"
    endo = None
    if endo_path.is_file():
        endo = [int(t) for t in endo_path.read_text(encoding="utf-8").split()]
    with tr.span("model.load"):
        instance = load_instance(sources, schema, endo)
    tr.count("model.rows", len(instance))
    return constraints, instance


def observe(tr, hg, constraints):
    """Counts of a hypergraph, plus a timed re-run of the public assemble."""
    with tr.span("conflicts.assemble"):
        conflicts.assemble(hg.vertices, hg.edges, [c.name for c in constraints])
    with tr.span("bench.observe"):
        tr.count("conflicts.edges", len(hg.edges))
        tr.count("conflicts.solving_edges", len(hg.solving_edges))
        sizes = component_sizes(hg.solving_edges)
        tr.count("conflicts.components", len(sizes))
        tr.count("conflicts.largest_component", max(sizes, default=0))


def component_sizes(edges):
    """Vertex counts of the connected components that hold an edge."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        first, *rest = e
        for v in rest:
            parent[find(v)] = find(first)
    sizes = {}
    for v in list(parent):
        root = find(v)
        sizes[root] = sizes.get(root, 0) + 1
    return list(sizes.values())


def build(tr, constraints, instance):
    with tr.span("conflicts.build"):
        hg = build_hypergraph(instance, constraints)
    observe(tr, hg, constraints)
    return hg


def measure_payload(numerator, denominator, deleted):
    return {"numerator": numerator, "denominator": denominator,
            "witness_deleted_tids": None if deleted is None else sorted(deleted)}


def traced_measure(tr, case, solver, budget=exact.DEFAULT_NODE_BUDGET):
    constraints, instance = load_case(tr, case)
    hg = build(tr, constraints, instance)
    if solver == "exact":
        try:
            with tr.span("exact.solve"):
                sol = exact.min_hitting_set(hg, budget)
        except ResourceLimitError:
            tr.count("exact.budget_exhausted", 1)
            return 2, None
        tr.count("exact.deleted", len(sol.deleted))
    elif solver == "local-ratio":
        with tr.span("approx.local_ratio"):
            sol = local_ratio_hitting_set(hg)
        with tr.span("bench.observe"):
            tr.count("approx.local_ratio_over_opt", len(sol.deleted) / case.opt)
    else:
        with tr.span("approx.lp"):
            cover = lp_fractional_cover(hg, LP_EPS)
        with tr.span("approx.round"):
            sol = randomized_rounding_hitting_set(hg, LP_EPS, 0, 5, cover)
        with tr.span("bench.observe"):
            tr.count("approx.randomized_over_opt", len(sol.deleted) / case.opt)
    return 0, measure_payload(len(sol.deleted), len(instance), sol.deleted)


def traced_endogenous(tr, case):
    constraints, instance = load_case(tr, case)
    hg = build(tr, constraints, instance)
    with tr.span("exact.endogenous"):
        sol = exact.min_endogenous_hitting_set(hg, instance.effective_endogenous())
    n = len(instance)
    if sol is None:
        return 0, measure_payload(n, n, None)
    return 0, measure_payload(len(sol.deleted), n, sol.deleted)


def traced_null(tr, case):
    constraints, instance = load_case(tr, case)
    with tr.span("nullrep.cell_conflicts"):
        edges, _ = nullrep.cell_conflicts(instance, constraints)
    with tr.span("nullrep.solve"):
        changes = exact.solve_min_hitting_set(edges)
    return 0, {"numerator": len(changes),
               "denominator": sum(len(f.values) for f in instance.facts),
               "witness_changes": [{"tid": c.tid, "position": c.position}
                                   for c in changes]}


def traced_alt_measures(tr, case):
    constraints, instance = load_case(tr, case)
    hg = build(tr, constraints, instance)
    n = len(instance)
    with tr.span("exact.enumerate"):
        reps = exact.enumerate_s_repairs(instance, constraints, n, hg)
    with tr.span("measures.count_all"):
        count_all = measure_count_all(instance, constraints, n, hg)
    with tr.span("measures.jaccard"):
        jaccard = measure_jaccard(instance, constraints, n, hg)
    return 0, {"measures": [
        {"kind": "count_srep", "numerator": len(reps.repairs), "denominator": 2 ** n},
        {"kind": "count_all", "numerator": count_all.numerator,
         "denominator": count_all.denominator},
        {"kind": "jaccard", "numerator": jaccard.numerator,
         "denominator": jaccard.denominator}]}


def traced_repairs(tr, case, which):
    constraints, instance = load_case(tr, case)
    hg = build(tr, constraints, instance)
    enumerate_repairs = (exact.enumerate_s_repairs if which == "s"
                         else exact.enumerate_c_repairs)
    with tr.span("exact.enumerate"):
        reps = enumerate_repairs(instance, constraints, len(instance), hg)
    return 0, {"kind": reps.kind, "repairs": [sorted(r) for r in reps.repairs]}


def traced_conflicts(tr, case):
    constraints, instance = load_case(tr, case)
    hg = build(tr, constraints, instance)
    return 0, {"consistent": hg.is_consistent, "vertices": sorted(hg.vertices),
               "edges": [{"constraint": e.constraint, "tids": sorted(e.tids)}
                         for e in hg.edges],
               "solving_edges": [sorted(s) for s in hg.solving_edges], "d": hg.d}


def traced_emit(tr, case, output: Path):
    constraints, instance = load_case(tr, case)
    with tr.span("aspgen.emit"):
        program = emit_repair_program(instance, constraints)
    with tr.span("aspgen.render"):
        text = program.render()
    output.write_text(text, encoding="utf-8")
    statements = (len(program.facts) + len(program.rules) + len(program.counting)
                  + len(program.weak))
    tr.count("aspgen.statements", statements)
    return 0, {"statements": statements}


# --- checks -----------------------------------------------------------------

def check_deletion(n, edge_sets, payload, want, bound=None):
    """A measure answer over n facts: its count, and a witness hitting every conflict.

    With a bound the count may lie anywhere in [want, bound * want].
    """
    p = _json(payload)
    problems = []
    deleted = p["witness_deleted_tids"]
    if p["denominator"] != n:
        problems.append(f"denominator {p['denominator']} != {n} facts")
    if deleted is None or len(deleted) != p["numerator"]:
        problems.append("witness size differs from the numerator")
    elif not oracle.hits_all(deleted, edge_sets):
        problems.append("witness misses a conflict")
    if bound is None and p["numerator"] != want:
        problems.append(f"measured {p['numerator']} deletions, oracle says {want}")
    if bound is not None and not want <= p["numerator"] <= bound * want:
        problems.append(f"{p['numerator']} deletions outside [{want}, {bound}*{want}]")
    return problems


def check_case(case, payload, bound=None):
    return check_deletion(len(case.facts), case.edge_sets, payload, case.opt, bound)


def check_endogenous(case, payload):
    p = _json(payload)
    n = len(case.facts)
    cost = oracle.endogenous_cost(case.facts, case.endogenous)
    if cost is None:
        return [] if (p["numerator"], p["denominator"]) == (n, n) else [
            f"irreparable instance measured {p['numerator']}/{p['denominator']}, not 1"]
    problems = check_deletion(n, case.edge_sets, p, cost)
    if not set(p["witness_deleted_tids"] or ()) <= case.endogenous:
        problems.append("witness deletes an exogenous fact")
    return problems


def check_conflicts(case, payload):
    p = _json(payload)
    got = {(e["constraint"], frozenset(e["tids"])) for e in p["edges"]}
    problems = []
    if got != case.edges or len(p["edges"]) != len(case.edges):
        problems.append(f"{len(p['edges'])} edges, oracle has {len(case.edges)}")
    if {frozenset(s) for s in p["solving_edges"]} != set(case.edge_sets):
        problems.append("solving edges differ from the oracle's conflicts")
    if p["vertices"] != [t for t, _, _ in case.facts]:
        problems.append("vertex set is not the instance's tids")
    if p["consistent"] != (not case.edges) or p["d"] != (2 if case.edges else 0):
        problems.append("consistency flag or d is wrong")
    return problems


def check_emit(case, output: Path, payload):
    lines = [ln for ln in output.read_text(encoding="utf-8").splitlines() if ln.strip()]
    facts = {f"{pred}({tid},{','.join(values)})." for tid, pred, values in case.facts}
    problems = []
    if {ln for ln in lines if ln in facts} != facts:
        problems.append("program facts differ from the instance")
    if sum(" v " in ln for ln in lines) != len(case.constraints.splitlines()):
        problems.append("not one disjunctive rule per constraint")
    if _json(payload)["statements"] != len(lines):
        problems.append("statement count differs from the written program")
    return problems


def check_alt_measures(case, payload):
    tiny, n = case.tiny, len(case.facts)
    want = {"count_srep": (len(tiny.s_repairs), 2 ** n),
            "count_all": (tiny.inconsistent, 2 ** n), "jaccard": (tiny.jaccard, n)}
    got = {m["kind"]: (m["numerator"], m["denominator"]) for m in _json(payload)["measures"]}
    return [] if got == want else [f"alt-measures {got} != brute force {want}"]


def check_repairs(case, payload, which):
    want = case.tiny.s_repairs if which == "s" else case.tiny.c_repairs
    got = _json(payload)["repairs"]
    return [] if got == want else [f"{len(got)} {which}-repairs, brute force finds {len(want)}"]


def check_null(case, payload):
    p = _json(payload)
    want = case.tiny.min_blanked_cells()
    problems = []
    if (p["numerator"], p["denominator"]) != (want, 3 * len(case.facts)):
        problems.append(f"blanked {p['numerator']}/{p['denominator']} cells, "
                        f"brute force says {want}/{3 * len(case.facts)}")
    if len(p["witness_changes"]) != p["numerator"] or not case.tiny.blanking_repairs(
            p["witness_changes"]):
        problems.append("cell changes do not repair the instance")
    return problems


# --- workloads --------------------------------------------------------------

class Workload:
    """The passes of one workload: lists of ops, each on freshly generated inputs.

    A run makes a fixed number of passes, in whole cycles of `cycle` passes.
    `pass_s` is about the seconds of timed calls one pass takes on a 2-vCPU
    shared VM; it sizes a run from --seconds.  With `repeat` the run goes
    round the passes as often as it needs; without it the run takes them in
    order, at most once each.  With `write` false the input files are
    taken to be there already, written by an earlier set-up from the same
    seed into the same root.
    """

    repeat = True
    cycle = 1
    pass_s = 1.0

    def __init__(self, seed, root: Path, traced: bool, write=True):
        self.root = root
        self.write = write
        if write:
            root.mkdir(parents=True)
        self.traced = traced
        self.passes = self.setup(random.Random(seed))

    def finish(self):
        """Checks that need the whole run; returns problems."""
        return []


def cli_op(kind, case, argv, traced, check, long=False):
    """An op running one CLI command on a case; traced(tr, case), check(case, payload)."""
    return Op(kind, len(case.facts), lambda: run_cli(case.argv(*argv)),
              lambda tr: traced(tr, case), lambda p: check(case, p), long=long)


def warm(cases):
    """Parse and load every written instance once, as import warm-up."""
    for case in cases:
        load_case(NullTracer(), case)


class Scan(Workload):
    """CLI measure / conflicts / emit-asp on 1k-4k-row join+FD instances."""

    cycle = SCAN_PASSES
    pass_s = 4.8

    def setup(self, rng):
        cases = [Case(f"scan{r}-{n}", gen.scan_instance(rng, n), gen.SCAN_SCHEMA,
                      gen.SCAN_CONSTRAINTS)
                 for r in range(SCAN_PASSES) for n in SCAN_SIZES]
        for case in cases:
            case.write(self.root, self.write)
        warm(cases)
        ops = []
        for case in cases:
            out = self.root / f"{case.name}.dlv"
            ops += [
                cli_op("measure", case, ["measure"],
                       lambda tr, c: traced_measure(tr, c, "exact"), check_case, long=True),
                cli_op("conflicts", case, ["conflicts"], traced_conflicts, check_conflicts,
                       long=True),
                cli_op("emit", case, ["emit-asp", "--output", str(out)],
                       lambda tr, c, o=out: traced_emit(tr, c, o),
                       lambda c, p, o=out: check_emit(c, o, p)),
            ]
        per_pass = 3 * len(SCAN_SIZES)
        return [ops[i:i + per_pass] for i in range(0, len(ops), per_pass)]


class Solve(Workload):
    """Solver-bound ops on small dense FD instances and 3-uniform hypergraphs."""

    cycle = SOLVE_PASSES
    pass_s = 0.83

    def setup(self, rng):
        return [self.one_pass(rng, f"p{i}") for i in range(SOLVE_PASSES)]

    def one_pass(self, rng, tag):
        def fd(name, rows, endogenous=None):
            return Case(f"{tag}-{name}", rows, gen.FD_SCHEMA, gen.FD_CONSTRAINTS,
                        endogenous)

        dense100 = fd("dense100", gen.fd_instance(rng, 100, 10))
        dense60 = fd("dense60", gen.fd_instance(rng, 60, 6))
        rows = gen.fd_instance(rng, 80, 8)
        endo80 = fd("endo80", rows, gen.endogenous_tids(rng, rows, False))
        rows = gen.fd_instance(rng, 60, 6)
        endo60 = fd("endo60", rows, gen.endogenous_tids(rng, rows, True))
        rand30 = fd("rand30", gen.fd_instance(rng, 30, 5))
        tiny16 = fd("tiny16", gen.enum_instance(rng, 16, (4, 3, 3)))
        tiny12 = fd("tiny12", gen.enum_instance(rng, 12, (3, 3, 2)))
        roadmap = fd("roadmap", gen.roadmap_instance(rng, ROADMAP_ROWS))
        cases = [dense100, dense60, endo80, endo60, rand30, tiny16, tiny12, roadmap]
        for case in cases:
            case.write(self.root, self.write)
        warm(cases)

        ops = []
        for case in (dense100, dense60):
            ops.append(cli_op("measure", case, ["measure"],
                              lambda tr, c: traced_measure(tr, c, "exact"), check_case))
        for case in (endo80, endo60):
            ops.append(cli_op("endogenous", case,
                              ["measure", "--semantics", "endogenous"],
                              traced_endogenous, check_endogenous))
        ops.append(cli_op("randomized", rand30, ["measure", "--solver", "randomized"],
                          lambda tr, c: traced_measure(tr, c, "randomized"),
                          lambda c, p: check_case(c, p, 2), long=True))
        ops.append(cli_op("local_ratio", dense100, ["measure", "--solver", "local-ratio"],
                          lambda tr, c: traced_measure(tr, c, "local-ratio"),
                          lambda c, p: check_case(c, p, 2)))
        for case in (tiny16, tiny12):
            ops.append(cli_op("enum", case, ["alt-measures"], traced_alt_measures,
                              check_alt_measures))
            ops.append(cli_op("enum", case, ["measure", "--semantics", "null"],
                              traced_null, check_null))
        for case, which in ((tiny16, "s"), (tiny12, "c")):
            ops.append(cli_op("enum", case, ["repairs", "--enumerate", which],
                              lambda tr, c, w=which: traced_repairs(tr, c, w),
                              lambda c, p, w=which: check_repairs(c, p, w)))
        for vertices, edges in ((16, 40), (14, 30)):
            ops += hypergraph_ops(vertices, gen.uniform_hypergraph(rng, vertices, edges))
        op = cli_op("measure", roadmap,
                    ["measure", "--node-budget", str(ROADMAP_BUDGET)],
                    lambda tr, c: traced_measure(tr, c, "exact", ROADMAP_BUDGET),
                    check_case, long=True)
        op.budget_limited = True
        ops.append(op)
        return ops


def hypergraph_ops(vertices, edges):
    """Library LP and local ratio on one synthetic hypergraph."""
    vs = range(1, vertices + 1)
    sets = [frozenset(e) for e in edges]
    opt = []

    def optimum():
        if not opt:
            opt.append(oracle.brute_min_cover(sets))
        return opt[0]

    def lp(tr):
        with tr.span("conflicts.from_edges"):
            hg = hypergraph_from_edges(vs, edges)
        with tr.span("approx.lp"):
            cover = lp_fractional_cover(hg, LP_EPS)
        tr.count("approx.lp_gap", cover.objective / cover.dual_bound)
        return 0, {"weights": cover.weights, "objective": cover.objective,
                   "dual_bound": cover.dual_bound}

    def local_ratio(tr):
        with tr.span("conflicts.from_edges"):
            hg = hypergraph_from_edges(vs, edges)
        with tr.span("approx.local_ratio"):
            sol = local_ratio_hitting_set(hg)
        with tr.span("bench.observe"):
            tr.count("approx.local_ratio_over_opt", len(sol.deleted) / optimum())
        return 0, {"deleted": sol.deleted}

    def check_lp(p):
        return oracle.check_fraction_cover(sets, p["weights"], p["objective"],
                                           p["dual_bound"], LP_EPS, optimum())

    def check_local_ratio(p):
        if not oracle.hits_all(p["deleted"], sets):
            return ["local-ratio cover misses an edge"]
        if len(p["deleted"]) > 3 * optimum():
            return [f"local ratio took {len(p['deleted'])} > 3 * {optimum()}"]
        return []

    return [Op("lp", vertices, lambda: lp(NullTracer()), lp, check_lp, long=True),
            Op("local_ratio", vertices, lambda: local_ratio(NullTracer()),
               local_ratio, check_local_ratio)]


class Session:
    """A long-lived library session over one instance, updated delta by delta."""

    def __init__(self, case, tr):
        self.constraints, self.instance = load_case(tr, case)
        with tr.span("conflicts.build"):
            self.hg = build_hypergraph(self.instance, self.constraints)
        self.applied = 0

    def apply(self, text, tr, traced):
        """Apply one delta; the untraced path measures through inc_deg_g3."""
        before, hg_before = self.instance, self.hg
        with tr.span("updates.apply"):
            delta = parse_delta(text)
        with tr.span("updates.apply"):
            after = apply_update(before, delta)
        with tr.span("updates.incremental"):
            start = time.perf_counter()
            hg_after = incremental_hypergraph(hg_before, before, delta, self.constraints)
            incremental = time.perf_counter() - start
        if traced:
            observe(tr, hg_after, self.constraints)
            with tr.span("exact.solve"):
                deleted = exact.min_hitting_set(hg_after).deleted
            tr.count("exact.deleted", len(deleted))
            with tr.span("bench.observe"):
                old = {e.key() for e in hg_before.edges}
                new = {e.key() for e in hg_after.edges}
                tr.count("updates.edges_added", len(new - old))
                tr.count("updates.edges_dropped", len(old - new))
        else:
            deleted = inc_deg_g3(after, self.constraints, hg_after).witness.deleted
        bounds = None
        check = (check_insertion_bounds if delta.is_insert_only
                 else check_deletion_bounds if delta.is_delete_only else None)
        if check is not None:
            with tr.span("updates.bounds"):
                bounds = check(before, delta, self.constraints,
                               exact.DEFAULT_NODE_BUDGET, hg_before, hg_after)
        if traced and self.applied % REBUILD_EVERY == 0:
            with tr.span("conflicts.rebuild"):
                start = time.perf_counter()
                build_hypergraph(after, self.constraints)
                rebuild = time.perf_counter() - start
            tr.count("updates.incremental_over_rebuild", incremental / rebuild)
        self.instance, self.hg = after, hg_after
        self.applied += 1
        return 0, {"index": self.applied - 1, "numerator": len(deleted),
                   "denominator": len(after), "witness_deleted_tids": sorted(deleted),
                   "bounds": bounds}


class StreamOracle:
    """Replays delta texts on its own copy of the facts; answers per delta.

    Answers must be asked for in delta order; only the sizes and optima of
    earlier deltas are kept, with the conflicts of the latest one.
    """

    def __init__(self, facts, texts):
        self.facts = {tid: (pred, values) for tid, pred, values in facts}
        self.texts = texts
        self.sizes = [(len(facts), oracle.min_deletions(facts))]
        self.edge_sets = None

    def answer(self, index):
        """(facts, optimum) before and after delta `index`, and its conflicts."""
        while len(self.sizes) <= index + 1:
            text = self.texts[len(self.sizes) - 1]
            next_tid = max(self.facts) + 1
            lines = text.splitlines()
            for line in lines:
                if line.startswith("-"):
                    del self.facts[int(line[1:])]
            for line in lines:
                if line.startswith("+"):
                    pred, rest = line[1:].strip().split("(", 1)
                    values = tuple(v.strip() for v in rest.rstrip(")").split(","))
                    self.facts[next_tid] = (pred, values)
                    next_tid += 1
            facts = [(t, p, v) for t, (p, v) in sorted(self.facts.items())]
            self.sizes.append((len(facts), oracle.min_deletions(facts)))
            self.edge_sets = [e for _, e in oracle.conflict_edges(facts)]
        return self.sizes[index], self.sizes[index + 1], self.edge_sets


class Stream(Workload):
    """One library session applying small seeded deltas, in order."""

    repeat = False
    pass_s = 0.65

    def setup(self, rng):
        self.case = Case("stream", gen.scan_instance(rng, STREAM_BASE), gen.SCAN_SCHEMA,
                         gen.SCAN_CONSTRAINTS)
        self.case.write(self.root, self.write)
        deltas = gen.DeltaStream(random.Random(rng.random()), self.case.rows)
        texts = [deltas.next_delta() for _ in range(STREAM_DELTAS)]
        self.oracle = StreamOracle(self.case.facts, texts)
        self.sessions = {}
        ops = []
        if self.traced:
            ops.append(Op("open", len(self.case.facts),
                          lambda: self._open("untraced", NullTracer()),
                          lambda tr: self._open("traced", tr), lambda p: []))
        else:
            self._open("untraced", NullTracer())
        for text in texts:
            rows = len(text.splitlines())
            ops.append(Op("delta", rows,
                          lambda t=text: self.sessions["untraced"].apply(
                              t, NullTracer(), False),
                          lambda tr, t=text: self.sessions["traced"].apply(t, tr, True),
                          self.check_delta))
        return [ops[i:i + STREAM_WINDOW] for i in range(0, len(ops), STREAM_WINDOW)]

    def _open(self, name, tr):
        self.sessions[name] = Session(self.case, tr)
        return 0, {}

    def check_delta(self, p):
        (n_before, opt_before), (n, opt), edge_sets = self.oracle.answer(p["index"])
        problems = check_deletion(n, edge_sets, p, opt)
        bounds = p["bounds"]
        if bounds is not None:
            if not all(b.holds for b in bounds.bounds):
                problems.append("an update bound does not hold")
            if (bounds.before, bounds.after) != (Fraction(opt_before, n_before),
                                                 Fraction(opt, n)):
                problems.append("bound report measures differ from the oracle")
        return problems

    def finish(self):
        problems = []
        for name, session in self.sessions.items():
            rebuilt = build_hypergraph(session.instance, session.constraints)
            if (rebuilt.edges, rebuilt.solving_edges) != (session.hg.edges,
                                                          session.hg.solving_edges):
                problems.append(f"{name} session: incremental conflicts differ "
                                f"from a rebuild after {session.applied} deltas")
        return problems


WORKLOADS = {"scan": Scan, "solve": Solve, "stream": Stream}
