"""List the lines of src/incmeter/ that no Tier-1 test runs, or with
--bench the functions that no benchmark workload calls.

    PYTHONPATH=src python tests/untraced_lines.py
    PYTHONPATH=src python tests/untraced_lines.py --bench

Runs the Tier-1 suite in this process under sys.settrace, tracing line
events only in frames of the package, and prints `module.py:line: source`
for each line that holds code but never ran, then a count.  A line that
runs at import (a def, a class body, a constant) counts as run, since
tracing starts before the tests import the package.  Code that runs only in
a subprocess is not seen; the body of a module's `if __name__ == "__main__":`
block, which CLI tests run that way, is left out of the list.
The report is informational: the exit status is 0 whatever the tests do.
Tracing slows the package several times over, so a test with a time limit
may fail here; its lines up to the failure still count.

With --bench it runs `perfbench/run.py --workload W --seed 1 --seconds 1`
for W = scan, solve and stream in this process, untraced runs as the gated
benchmark makes, and records each function of the package called, by a
tracer that sees calls only.  It prints `module.py:line: name` for each
function, method or nested function whose body no run entered (a lambda or
a comprehension is not listed), then a count.  The exit status is 0 here too.

Only the standard library is used, apart from pytest, which runs the suite.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import runpy
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "incmeter"


def code_lines(path: Path) -> set[int]:
    """The lines of a module that hold code: those its code objects map an
    instruction to, in the module's body and every function and class, less
    the body of an `if __name__ == "__main__":` block."""
    source = path.read_text(encoding="utf-8")
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.difference_update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def functions(path: Path):
    """(first line, dotted name) of each function of a module, nested ones
    included, lambdas and comprehensions left out."""
    todo = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
    while todo:
        code, prefix = todo.pop()
        for c in code.co_consts:
            if isinstance(c, CodeType):
                name = prefix + c.co_name
                if c.co_flags & inspect.CO_OPTIMIZED and not c.co_name.startswith("<"):
                    yield c.co_firstlineno, name
                todo.append((c, name + "."))


@contextlib.contextmanager
def tracing(start):
    """Trace this thread and any it starts with start, stdout sent to stderr."""
    threading.settrace(start)
    sys.settrace(start)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the report
            yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_bench() -> set[tuple[str, int]]:
    """Run each benchmark workload for one untraced second; the functions of
    the package called, as (file name, first line)."""
    prefix = str(PACKAGE) + "/"
    called = set()

    def start(frame, event, _):
        if frame.f_code.co_filename.startswith(prefix):
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    bench = runpy.run_path(str(TESTS.parent / "perfbench" / "run.py"), run_name="perfbench")
    with tracing(start):
        for workload in ("scan", "solve", "stream"):
            bench["main"](["--workload", workload, "--seed", "1", "--seconds", "1"])
    return called


def report_bench() -> None:
    called = run_bench()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in sorted(functions(path)):
            if (str(path), line) not in called:
                print(f"{path.name}:{line}: {name}")
                missed += 1
    print(f"{missed} function(s) of {PACKAGE.relative_to(TESTS.parent)} "
          "no benchmark workload called")


def run_traced() -> dict[str, set[int]]:
    """Run the Tier-1 suite under the tracer; the lines run, by file name."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, _):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, _):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    with tracing(start):
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     str(TESTS)])
    return ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="list the functions no benchmark workload calls")
    if parser.parse_args(argv).bench:
        report_bench()
        return 0
    ran = run_traced()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(code_lines(path) - ran.get(str(path), set())):
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} line(s) of {PACKAGE.relative_to(TESTS.parent)} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
