"""The package imports nothing outside the standard library, and the test
oracles nothing of the package but its model and errors."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

from incmeter import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "incmeter"


def _absolute_imports(path):
    """The modules path imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = [f"{path.name}: {name}" for path in modules
               for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_oracles_share_no_code_with_the_engine():
    # an oracle that ran on the join engine would check the engine against itself
    package = {name for name in _absolute_imports(ROOT / "tests" / "oracles.py")
               if name.split(".")[0] == "incmeter"}
    assert package <= {"incmeter.model", "incmeter.errors"}


def test_modules_use_every_module_level_import():
    # __init__.py imports to re-export; every other module imports to use
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert not unused


def test_only_evaluations_extend_calls_itself():
    # a recursion as deep as the data ends in RecursionError past about 1000
    # levels; extend's depth is one constraint's atom count.  Only calls by
    # plain name count: super().__init__ and a.variables() are not recursion
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name for call in ast.walk(node)):
                recursive.append(f"{path.stem}.{node.name}")
    assert recursive == ["evaluation.extend"]


def _names(tree):
    """The names a tree uses, reads of attributes and imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_every_public_definition_is_used_or_exported():
    # a function or class that only tests call belongs in tests/; an import
    # into __init__.py is an export
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [f"{module}: {node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and named[node.name] == Counter(_names(node))[node.name]]
    assert unused == []


def test_readme_library_use_names_every_export():
    # a test-only helper re-exported from __init__.py shows up here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert exported
    assert [name for name in exported if not re.search(rf"`{name}`", section)] == []


def test_readme_exit_codes_name_every_error_code_and_status():
    # a new error class, or a changed code or exit status, shows up here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.IncMeterError)]
    assert classes
    missing = [c.code for c in classes if f"`{c.code}`" not in paragraph]
    missing += [c.exit_status for c in classes
                if not re.search(rf"\b{c.exit_status} ", paragraph)]
    assert missing == []
