"""Emit disjunctive logic programs whose optimal models are minimum repairs.

Every schema predicate p gets an annotated twin p_a carrying the tid, the
original arguments, and a final d (deleted) or s (stays) flag.  Each
constraint becomes either one disjunctive rule (some matched fact must be
deleted) or, in the normal rewriting, one rule per atom with the other
disjuncts pushed negated into the body.  A counting block derives the size
distance between the database and the repair, and a weak constraint on
deletions makes optimal answer sets the minimum repairs, so an external
solver in brave mode answers which distances are achievable and its best
model realizes the minimum.

The output targets the DLV dialect: #maxint, #count/#sum aggregates, weak
constraints, and bare lowercase constants.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

from .errors import InputError, SolverUnavailableError
from .model import Const, ConstraintSet, Instance

RESERVED_HEADS = ("del", "numDel", "cardPred", "cardDB", "cardRepDB", "cardRep", "dist")

_BARE_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_BARE_INT_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")  # \d would match non-ASCII digits
# in text of one value per line, each line that is not a bare identifier
_NOT_BARE_LINE_RE = re.compile(r"^(?![a-z][A-Za-z0-9_]*$).*", re.MULTILINE)

# user variables are drawn from this pool in first-occurrence order; tid
# variables are named T, T2, T3, ... so the pools can never collide
_VAR_POOL = ("X", "Y", "Z", "W", "U", "V")


@dataclass(frozen=True)
class AspProgram:
    """A program in sections; render() produces solver-ready text."""

    facts: tuple[str, ...]
    rules: tuple[str, ...]
    counting: tuple[str, ...]
    weak: tuple[str, ...]

    def render(self) -> str:
        sections = (self.facts, self.rules, self.counting, self.weak)
        blocks = ["\n".join(lines) for lines in sections if lines]
        return "\n\n".join(blocks) + "\n"


def _user_var(pool_index: int) -> str:
    base = _VAR_POOL[pool_index % len(_VAR_POOL)]
    round_ = pool_index // len(_VAR_POOL)
    return base if round_ == 0 else f"{base}{round_}"


def _render_value(value: str, maxint: int) -> str:
    if _BARE_IDENT_RE.match(value):
        return value
    # a value longer than maxint is larger, and int() refuses very long ones
    if _BARE_INT_RE.match(value) and len(value) <= len(str(maxint)) and int(value) <= maxint:
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _check_names(instance: Instance) -> None:
    names = set(instance.schema.predicate_names)
    for name in sorted(names):
        if not _BARE_IDENT_RE.match(name):
            raise InputError(
                f"predicate {name!r} is not a valid program identifier; "
                "use lowercase names")
        if name in RESERVED_HEADS:
            raise InputError(f"predicate {name!r} collides with a generated head")
        if f"{name}_a" in names:
            raise InputError(
                f"predicate {name}_a collides with the annotated twin of {name}")


def emit_repair_program(instance: Instance, constraints: ConstraintSet,
                        style: str = "disjunctive", with_count: bool = True,
                        with_weak: bool = True) -> AspProgram:
    """Build the repair program for an instance and its constraints.

    style picks the disjunctive encoding or its normal-rule rewriting.  The
    counting block (with_count) derives dist, the deletion count between the
    database and the repair; with_weak adds the weak constraint that makes
    optimal models minimum repairs (deletion rules are emitted for either).
    """
    if style not in ("disjunctive", "normal"):
        raise InputError(f"unknown style {style!r}")
    _check_names(instance)
    maxint = max(100, len(instance) + 1, instance.tids[-1] + 1 if instance else 0)

    # the distinct values that may need quotes, found in one pass over their
    # lines; a value that holds a newline spans lines, so it is taken whole
    rows = list(instance._rows())
    values = set(chain.from_iterable(map(itemgetter(2), rows)))
    lines = "\n".join(values)
    odd = values.intersection(_NOT_BARE_LINE_RE.findall(lines))
    if lines.count("\n") >= len(values):
        odd.update(v for v in values if "\n" in v)
    text = {v: _render_value(v, maxint) for v in odd}
    facts = tuple(f"{p}({tid},{','.join(map(text.get, vs, vs) if text else vs)})."
                  for tid, p, vs in rows)

    rules = []
    for dc in constraints:
        rules.extend(_constraint_rules(dc, style, maxint))
    # each predicate's name and the variables of its attributes
    preds = [(p.name, ", ".join(map(_user_var, range(p.arity))))
             for p in instance.schema.predicates]
    for name, vs in preds:
        rules.append(f"{name}_a(T, {vs}, s) :- {name}(T, {vs}), "
                     f"not {name}_a(T, {vs}, d).")
    if with_count or with_weak:
        for name, vs in preds:
            rules.append(f"del(T) :- {name}_a(T, {vs}, d).")

    counting = []
    if with_count:
        counting.append(f"#maxint = {maxint}.")
        counting.append("numDel(N) :- #int(N), #count{T : del(T)} = N.")
        for name, vs in preds:
            counting.append(f"cardPred({name},N) :- #int(N), "
                            f"#count{{T : {name}(T, {vs})}} = N.")
        counting.append("cardDB(N) :- #sum{X,P : cardPred(P,X)} = N.")
        for name, vs in preds:
            counting.append(f"cardRep({name},N) :- #int(N), "
                            f"#count{{T : {name}_a(T, {vs}, s)}} = N.")
        counting.append("cardRepDB(N) :- #int(N), #sum{X,P : cardRep(P,X)} = N.")
        counting.append("dist(N) :- #int(N), cardDB(A), cardRepDB(B), N = A - B.")

    weak = (":~ del(T).",) if with_weak else ()
    return AspProgram(facts, tuple(rules), tuple(counting), weak)


_ASP_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _constraint_rules(dc, style, maxint):
    var_name = {}
    for atom in dc.atoms:
        for term in atom.terms:
            if not isinstance(term, Const) and term.name not in var_name:
                var_name[term.name] = _user_var(len(var_name))

    def term_str(term):
        if isinstance(term, Const):
            return _render_value(term.value, maxint)
        return var_name[term.name]

    def plain(atom, tid):
        args = [tid] + [term_str(t) for t in atom.terms]
        return f"{atom.predicate}({', '.join(args)})"

    def annotated(atom, tid, flag):
        args = [tid] + [term_str(t) for t in atom.terms] + [flag]
        return f"{atom.predicate}_a({', '.join(args)})"

    comparisons = [f"{term_str(c.left)} {_ASP_OPS[c.op]} {term_str(c.right)}"
                   for c in dc.comparisons]

    if style == "disjunctive":
        tids = [f"T{i}" if i > 1 else "T" for i in range(1, len(dc.atoms) + 1)]
        head = " v ".join(annotated(a, t, "d") for a, t in zip(dc.atoms, tids))
        body = [plain(a, t) for a, t in zip(dc.atoms, tids)] + comparisons
        return [f"{head} :- {', '.join(body)}."]

    rules = []
    for i, atom in enumerate(dc.atoms):
        # the other atoms in their order, with tids T2, T3, ...
        others = [(a, f"T{n}") for n, a in enumerate(dc.atoms[:i] + dc.atoms[i + 1:], start=2)]
        body = [plain(atom, "T")] + [plain(a, t) for a, t in others] + comparisons
        body += [f"not {annotated(a, t, 'd')}" for a, t in others]
        rules.append(f"{annotated(atom, 'T', 'd')} :- {', '.join(body)}.")
    return rules


# ---------------------------------------------------------------------------
# external solving


def _best_model_section(output: str):
    matches = list(re.finditer(r"Best model:\s*\{(.*?)\}", output, re.DOTALL))
    if not matches:
        matches = list(re.finditer(r"\{(.*?)\}", output, re.DOTALL))
    if not matches:
        return None
    return matches[-1].group(1)


def parse_best_model(output: str):
    """Extract (dist, deleted tids, cost) from solver output text.

    dist and cost are None when absent (e.g. counting disabled).
    """
    section = _best_model_section(output)
    if section is None:
        raise InputError("no model found in solver output")
    deleted = {int(m.group(1)) for m in re.finditer(r"\bdel\((\d+)\)", section)}
    dist = None
    m = re.search(r"\bdist\((\d+)\)", section)
    if m:
        dist = int(m.group(1))
    cost = None
    m = re.search(r"Cost \(\[Weight:Level\]\):\s*<\[(\d+):(\d+)\]>", output)
    if m:
        cost = int(m.group(1))
    return dist, frozenset(deleted), cost


def parse_brave_answers(output: str) -> frozenset[int]:
    """Distances reported by a brave query over dist(X)."""
    hits = {int(m.group(1)) for m in re.finditer(r"\bdist\((\d+)\)", output)}
    if not hits:
        # some builds answer bare integers, one per line
        hits = {int(m.group(1)) for m in re.finditer(r"^\s*(\d+)\s*$",
                                                     output, re.MULTILINE)}
    return frozenset(hits)


def _resolve_solver(solver_path):
    path = solver_path or os.environ.get("INCMETER_ASP_SOLVER")
    if not path:
        raise SolverUnavailableError(
            "no external solver configured (set INCMETER_ASP_SOLVER)")
    resolved = shutil.which(path)
    if not resolved:
        raise SolverUnavailableError(f"solver {path!r} not found or not executable")
    return resolved


def _run(solver_path, flags, text):
    """Run the solver with flags on text written to a temporary program file."""
    binary = _resolve_solver(solver_path)
    with tempfile.NamedTemporaryFile("w", suffix=".dlv", delete=False) as handle:
        handle.write(text)
    try:
        proc = subprocess.run([binary, *flags, handle.name],
                              capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise SolverUnavailableError(f"solver failed to run: {exc}") from exc
    finally:
        os.unlink(handle.name)
    return proc.stdout + "\n" + proc.stderr


def run_external_solver(program: AspProgram, solver_path=None) -> dict:
    """Solve the program with an external binary; report the best model.

    Returns {"dist": int|None, "deleted": frozenset[int], "cost": int|None}.
    Raises SolverUnavailableError when no usable binary is configured.
    """
    output = _run(solver_path, [], program.render())
    dist, deleted, cost = parse_best_model(output)
    return {"dist": dist, "deleted": deleted, "cost": cost}


def run_brave_distances(program: AspProgram, solver_path=None) -> frozenset[int]:
    """Ask the solver, in brave mode, which repair distances are achievable."""
    text = replace(program, weak=()).render() + "\ndist(X)?\n"
    return parse_brave_answers(_run(solver_path, ["-brave"], text))
