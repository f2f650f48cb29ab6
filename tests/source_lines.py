"""Count the code, docstring and comment lines of each module of a package.

    python tests/source_lines.py [DIRECTORY]

DIRECTORY defaults to src/incmeter.  A code line holds a token of Python
source other than a comment; the lines of a module, class or function
docstring (found with ast) are docstring lines, not code, and a line that
holds only a comment is a comment line.  What is left is blank.  A change
that only deletes comments or docstrings lowers no code count, so this is
the count to read when asking whether the code shrank.

The report is informational: the exit status is 0 whatever the counts.
Only the standard library is used.  The file name does not match
test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "incmeter"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int, int, int]:
    """(code, docstring, comment, blank) line counts of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docs
    comments -= code | docs
    total = len(source.splitlines())
    return len(code), len(docs), len(comments), total - len(code | docs | comments)


def main(argv=None) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, counts(path.read_text(encoding="utf-8")))
            for path in sorted(directory.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(c for _, c in rows))))))
    print(f"{'module':<16}{'code':>7}{'docstring':>11}{'comment':>9}{'blank':>7}")
    for name, (code, docs, comments, blank) in rows:
        print(f"{name:<16}{code:>7}{docs:>11}{comments:>9}{blank:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
