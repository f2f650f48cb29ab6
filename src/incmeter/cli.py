"""Command line interface; every JSON object that it prints is built here.

Inputs are a schema file, a constraint file, and a data directory holding
one <predicate>.csv per nonempty relation (plus an optional endogenous.txt
listing deletable tids).  Successful runs print one JSON object with a fixed
key set per command (or a plain-text rendering with --format text); errors
go to stderr with exit code 1 for bad input and 2 for exhausted budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import aspgen, exact, measures, nullrep, updates
from .conflicts import build_hypergraph, vertex_degrees
from .errors import IncMeterError, InputError
from .model import _tid, load_instance, parse_constraints, parse_schema


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route through InputError
    # so usage problems share exit code 1 with other bad input
    def error(self, message):
        raise InputError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a fraction: {text!r}") from None


@functools.cache
def build_parser() -> _Parser:
    """The incmeter argument parser, built once per process: parsing leaves
    it unchanged, so every call of main shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--schema", required=True, help="schema file")
    common.add_argument("--constraints", required=True, help="constraint file")
    common.add_argument("--data", required=True, help="directory of <pred>.csv files")
    common.add_argument("--endogenous", help="file of deletable tids "
                                             "(default: endogenous.txt in the data dir)")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--node-budget", type=int, default=exact.DEFAULT_NODE_BUDGET)

    parser = _Parser(prog="incmeter",
                     description="inconsistency measurement under denial constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[common],
                       help="inconsistency degree of the instance")
    p.add_argument("--solver", choices=("exact", "local-ratio", "randomized"),
                   default="exact", help="local-ratio and randomized need "
                                         "--semantics tuple (default: %(default)s)")
    p.add_argument("--semantics", choices=("tuple", "endogenous", "null"),
                   default="tuple")
    p.add_argument("--normalization", choices=("db", "endogenous"), default="db",
                   help="endogenous needs --semantics endogenous (default: %(default)s)")
    p.add_argument("--eps", type=_fraction, help="randomized: certified LP gap (default: 1/10)")
    p.add_argument("--seed", type=int, help="randomized: seed of the thresholds (default: 0)")
    p.add_argument("--reps", type=int, help="randomized: thresholds tried, best kept (default: 5)")

    enum_limit = dict(type=int, default=exact.ENUM_LIMIT,
                      help="most conflicting facts to enumerate over (default: %(default)s)")
    p = sub.add_parser("repairs", parents=[common], help="enumerate repairs")
    p.add_argument("--enumerate", choices=("s", "c"), default="s", dest="which")
    p.add_argument("--enum-limit", **enum_limit)

    p = sub.add_parser("alt-measures", parents=[common],
                       help="counting and Jaccard measure variants")
    p.add_argument("--enum-limit", **enum_limit)

    p = sub.add_parser("emit-asp", parents=[common],
                       help="emit the repair logic program")
    p.add_argument("--style", choices=("disjunctive", "normal"), default="disjunctive")
    p.add_argument("--no-count", action="store_true")
    p.add_argument("--no-weak", action="store_true")
    p.add_argument("--output", help="write the program here instead of stdout")
    p.add_argument("--execute", action="store_true",
                   help="run the external solver on the program")
    p.add_argument("--solver-path", help="solver binary (default: $INCMETER_ASP_SOLVER)")

    p = sub.add_parser("update", parents=[common],
                       help="apply a delta and recompute incrementally")
    p.add_argument("--delta", required=True, help="delta file (+ rows, - tids)")
    p.add_argument("--check-bounds", action="store_true")

    sub.add_parser("conflicts", parents=[common], help="dump the conflict hypergraph")
    return parser


@functools.cache
def _format_parser() -> _Parser:
    """An explicit --format alone, read first so that usage errors follow it."""
    pre = _Parser(add_help=False)
    pre.add_argument("--format", default="text")
    return pre


def _read(path_str: str, what: str) -> str:
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"{what} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None


def _load_bundle(args):
    schema = parse_schema(_read(args.schema, "schema"))
    constraints = parse_constraints(_read(args.constraints, "constraints"), schema)
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise InputError(f"data directory not found: {data_dir}")
    sources = {}
    for path in sorted(data_dir.glob("*.csv")):
        name = path.stem
        if name not in schema:
            raise InputError(f"{path.name} does not match any schema predicate")
        sources[name] = _read(str(path), "csv")
    endo = None
    endo_path = Path(args.endogenous) if args.endogenous else data_dir / "endogenous.txt"
    if args.endogenous or endo_path.is_file():
        endo = _parse_endogenous(_read(str(endo_path), "endogenous"))
    return constraints, load_instance(sources, schema, endo)


def _parse_endogenous(text: str) -> list[int]:
    tids = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            try:
                tids.append(_tid(line))
            except InputError as exc:
                raise InputError(str(exc), line=lineno) from None
    return tids


_CONTAINERS = (dict, list, tuple)
# the scalars written without a json.dumps call each, as json.dumps writes them
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: a str quoted, an int or other
    scalar as its JSON text in quotes."""
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def _dumps(payload) -> str:
    """json.dumps(payload, indent=2), byte for byte, for keys of str, int,
    float, bool or None, without the pure-Python encoder that indent runs: a
    list of ints is joined, any other container of no containers goes to the
    C encoder, whose item separator carries the indent, and the rest is
    walked, its str and int scalars written by the encoder's own functions."""
    out, stack = [], []
    items, sep, comma, close = iter(((None, payload),)), "", "", ""
    while True:
        for key, value in items:  # key: a dict key as printed, or None in a list
            out.append(sep)
            sep = comma
            if key is not None:
                out += [key, ": "]
            if not value or not isinstance(value, _CONTAINERS):
                out.append(_SCALARS.get(type(value), json.dumps)(value))
                continue
            pad = "\n" + "  " * (len(stack) + 1)
            opener, end = "{}" if isinstance(value, dict) else "[]"
            end = pad[:-2] + end
            types = set(map(type, value.values() if opener == "{" else value))
            if types == {int} and opener == "[":
                out += [opener, pad, ("," + pad).join(map(int.__repr__, value)), end]
            elif not any(map(issubclass, types, repeat(_CONTAINERS))):
                flat = json.JSONEncoder(separators=("," + pad, ": ")).encode(value)
                out += [opener, pad, flat[1:-1], end]
            else:  # walked, on the stack, before the rest of items
                stack.append((items, comma, close))
                items = (zip(map(_json_key, value), value.values())
                         if opener == "{" else zip(repeat(None), value))
                out.append(opener)
                sep, comma, close = pad, "," + pad, end
                break
        else:
            out.append(close)
            if not stack:
                return "".join(out)
            items, comma, close = stack.pop()
            sep = comma


def _emit(args, start: float, payload: dict, text_lines) -> None:
    payload["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
    # 2^|D| counts outgrow the default cap of 4300 digits on printing an int:
    # lift the process-wide cap (0 is none) while printing, lazy lines included
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(_dumps(payload))
        else:
            for line in text_lines:
                print(line)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _measure_payload(report: measures.MeasureReport) -> dict:
    # the witness: a deletion repair's tids or a null repair's cells, sorted
    deleted = changes = None
    if isinstance(report.witness, exact.RepairSolution):
        deleted = sorted(report.witness.deleted)
    elif isinstance(report.witness, nullrep.NullRepairSolution):
        changes = [{"tid": c.tid, "position": c.position}
                   for c in sorted(report.witness.changes)]
    return {"kind": report.kind, "numerator": report.numerator,
            "denominator": report.denominator, "decimal": float(report.value),
            "exact": report.exact, "witness_deleted_tids": deleted, "method": report.method,
            "normalization": report.normalization, "note": report.note,
            "witness_changes": changes}


def _bounds_payload(bounds: updates.BoundCheckReport) -> dict:
    return {"direction": bounds.direction, "epsilon": str(bounds.epsilon),
            "before": str(bounds.before), "after": str(bounds.after),
            "applicable": bounds.applicable,
            "deleted_all_isolated": bounds.deleted_all_isolated,
            "bounds": [{"name": b.name, "lhs": str(b.lhs), "rhs": str(b.rhs),
                        "holds": b.holds} for b in bounds.bounds]}


def _check_flags(args) -> None:
    """Refuse out-of-range numeric flags, and measure flags the chosen
    semantics or solver would ignore, as bad input."""
    for flag, least in (("node_budget", 0), ("enum_limit", 0), ("reps", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise InputError(f"--{flag.replace('_', '-')} must be at least {least}, "
                             f"got {value}")
    if getattr(args, "eps", None) is not None and args.eps <= 0:
        raise InputError(f"--eps must be positive, got {args.eps}")
    if args.command != "measure":
        return
    if args.semantics != "tuple" and args.solver != "exact":
        raise InputError(f"--solver {args.solver} needs --semantics tuple; "
                         f"{args.semantics} semantics is solved exactly")
    if args.semantics != "endogenous" and args.normalization != "db":
        raise InputError(f"--normalization {args.normalization} needs "
                         f"--semantics endogenous, not {args.semantics}")
    for flag in ("eps", "seed", "reps"):  # None unless given
        if getattr(args, flag) is not None and args.solver != "randomized":
            raise InputError(f"--{flag} needs --solver randomized, not {args.solver}")


def _cmd_measure(args, constraints, instance):
    if args.semantics == "tuple":
        given = {f: v for f in ("eps", "seed", "reps") if (v := getattr(args, f)) is not None}
        report = measures.inc_deg_g3(instance, constraints, solver=args.solver,
                                     node_budget=args.node_budget, **given)
    elif args.semantics == "endogenous":
        norm = "db_size" if args.normalization == "db" else "endogenous_size"
        report = measures.inc_deg_g3_endogenous(instance, constraints,
                                                normalization=norm,
                                                node_budget=args.node_budget)
    else:
        report = nullrep.inc_deg_g3_null(instance, constraints,
                                         node_budget=args.node_budget)
    payload = {"command": "measure", **_measure_payload(report)}
    lines = [f"{report.kind} = {report.numerator}/{report.denominator}"
             f" ({float(report.value):.6g})",
             f"method: {report.method}  exact: {report.exact}"]
    if payload["witness_deleted_tids"] is not None:
        lines.append("deleted tids: " + " ".join(map(str, payload["witness_deleted_tids"])))
    if payload["witness_changes"] is not None:
        lines.append("cell changes: " + " ".join(
            f"{c['tid']}:{c['position']}" for c in payload["witness_changes"]))
    if report.note:
        lines.append("note: " + report.note)
    return payload, lines


def _cmd_repairs(args, constraints, instance):
    if args.which == "s":
        reps = exact.enumerate_s_repairs(instance, constraints, args.enum_limit)
    else:
        reps = exact.enumerate_c_repairs(instance, constraints, args.enum_limit)
    listed = [sorted(r) for r in reps.repairs]
    payload = {"command": "repairs", "kind": reps.kind, "count": len(listed),
               "repairs": listed}
    lines = [f"{reps.kind}-repairs: {len(listed)}"]
    lines += ["  {" + ", ".join(map(str, r)) + "}" for r in listed]
    return payload, lines


def _cmd_alt_measures(args, constraints, instance):
    hg = build_hypergraph(instance, constraints)
    reports = [
        measures.measure_count_srep(instance, constraints, args.enum_limit, hg),
        measures.measure_count_all(instance, constraints, args.enum_limit, hg),
        measures.measure_jaccard(instance, constraints, hypergraph=hg),
    ]
    payload = {"command": "alt-measures",
               "measures": [_measure_payload(r) for r in reports]}
    lines = (f"{r.kind} = {r.numerator}/{r.denominator} ({float(r.value):.6g})"
             for r in reports)  # lazy, so _emit formats the counts uncapped
    return payload, lines


def _cmd_conflicts(args, constraints, instance):
    hg = build_hypergraph(instance, constraints)
    degrees = vertex_degrees(hg)  # every vertex, in sorted order
    payload = {
        "command": "conflicts",
        "consistent": hg.is_consistent,
        "vertices": list(degrees),
        "edges": [{"constraint": e.constraint, "tids": sorted(e.tids)}
                  for e in hg.edges],
        "solving_edges": list(map(sorted, hg.solving_edges)),
        "d": hg.d,
        "max_degree": max(degrees.values(), default=0),
        "degrees": degrees,  # int keys, which JSON writes as their decimal strings
    }
    # lazy, so that only --format text builds the lines
    return payload, (f"{e.constraint}: {','.join(map(str, e.key()))}" for e in hg.edges)


def _cmd_update(args, constraints, instance):
    delta = updates.parse_delta(_read(args.delta, "delta"))
    if args.check_bounds and not (delta.is_insert_only or delta.is_delete_only):
        # refused before anything is solved
        raise InputError("--check-bounds needs a pure insertion or pure deletion delta")
    before_m, after_m, size_after, bounds = updates._measure_delta(
        instance, delta, constraints, args.node_budget)
    if not args.check_bounds:
        bounds = None
    payload = {
        "command": "update",
        "size_before": len(instance),
        "size_after": size_after,
        "measure_before": _measure_payload(before_m),
        "measure_after": _measure_payload(after_m),
        "bounds": _bounds_payload(bounds) if bounds else None,
    }
    lines = [
        f"size: {len(instance)} -> {size_after}",
        f"measure: {before_m.numerator}/{before_m.denominator} -> "
        f"{after_m.numerator}/{after_m.denominator}",
    ]
    if bounds:
        lines.append(f"epsilon: {bounds.epsilon}  applicable: {bounds.applicable}")
        for b in bounds.bounds:
            lines.append(f"  {b.name}: {b.lhs} <= {b.rhs}  holds: {b.holds}")
    return payload, lines


def _cmd_emit_asp(args, constraints, instance):
    program = aspgen.emit_repair_program(instance, constraints, style=args.style,
                                         with_count=not args.no_count,
                                         with_weak=not args.no_weak)
    text = program.render()
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write --output file: {exc}") from None
    elif not args.execute:
        sys.stdout.write(text)
        return None
    execution = None
    if args.execute:
        result = aspgen.run_external_solver(program, args.solver_path)
        execution = {"dist": result["dist"],
                     "deleted": sorted(result["deleted"]),
                     "cost": result["cost"]}
    payload = {"command": "emit-asp",
               "output": args.output,
               "statements": len(program.facts) + len(program.rules)
               + len(program.counting) + len(program.weak),
               "execution": execution}
    lines = [f"wrote {args.output}" if args.output else "program not written"]
    if execution:
        lines.append(f"dist: {execution['dist']}  deleted: {execution['deleted']}")
    return payload, lines


_COMMANDS = {
    "measure": _cmd_measure,
    "repairs": _cmd_repairs,
    "alt-measures": _cmd_alt_measures,
    "emit-asp": _cmd_emit_asp,
    "update": _cmd_update,
    "conflicts": _cmd_conflicts,
}


def _fail(fmt: str, exc: IncMeterError) -> None:
    if fmt == "json":
        payload = {"error": exc.code, "message": str(exc)}
        # an exhausted budget still brackets the optimum: [lower_bound, best_size]
        for key in ("best_size", "lower_bound"):
            value = getattr(exc, key, None)
            if value is not None:
                payload[key] = value
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    fmt = "text"
    try:
        fmt = _format_parser().parse_known_args(argv)[0].format
        args = build_parser().parse_args(argv)
        fmt = args.format
        _check_flags(args)
        start = time.perf_counter()
        constraints, instance = _load_bundle(args)
        out = _COMMANDS[args.command](args, constraints, instance)
        if out is not None:
            _emit(args, start, *out)
        return 0
    except IncMeterError as exc:
        _fail(fmt, exc)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
