"""Count the code lines of Python modules: the lines that hold a token
other than a comment, a docstring or whitespace.

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default:
src/composite_dna).  It prints one 'count path' line per module, sorted
by path, then the total.  A docstring is the string that opens a module,
class or function body; a line is counted once however many tokens it
holds, so a statement split over three lines counts three.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/composite_dna")]
    files = sorted(
        file
        for path in paths
        for file in ([path] if path.is_file() else path.rglob("*.py"))
    )
    total = 0
    for file in files:
        count = code_lines(file)
        total += count
        print(f"{count:6d} {file}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
