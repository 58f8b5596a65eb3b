"""List the package statements that no test runs: a pytest plugin.

    PYTHONPATH=src:tools python -m pytest -q -p unreached [PYTEST ARGS]

From pytest's configuration to its terminal summary the plugin line-traces,
with sys.settrace, every frame whose code lies in src/composite_dna, and
then prints one 'file:line source' line for each statement that no test
ran, by file and line.  It needs only the standard library, since
coverage.py is not installed.  A statement is an ast statement other than
a docstring, a def or class line, a global or nonlocal declaration (which
compiles to no code), the body of an ``if __name__ == "__main__":`` guard
and a __main__.py module, which run only as a script.  Code that tests run
in a subprocess, such as the demos, is not traced, so what only they reach
is listed.  A run that lists any statement exits 1, as failed tests do,
so a CI step can require that every package statement runs.  Tracing
every line makes the run several times slower.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "composite_dna"

_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, _BODIES)
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statement_lines(source: str) -> list[int]:
    """The first line of each statement of a module's source that importing
    or calling it can run (see the module docstring), in line order."""
    lines = set()

    def visit(parent):
        for node in ast.iter_child_nodes(parent):
            if _is_main_guard(node):
                continue
            if isinstance(node, ast.stmt) and not (
                isinstance(node, _NO_CODE) or _is_docstring(node, parent)
            ):
                lines.add(node.lineno)
            visit(node)

    visit(ast.parse(source))
    return sorted(lines)


def unreached(source: str, ran: set[int]) -> list[tuple[int, str]]:
    """(line, source text) of each statement of a module whose first line
    is not in ran."""
    text = source.splitlines()
    return [(line, text[line - 1].strip()) for line in statement_lines(source) if line not in ran]


class LineTracer:
    """The lines run in the modules under root, traced from start to stop;
    stop puts back the trace function that start replaced."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.ran: dict[Path, set[int]] = {}
        # code file name -> the lines run of its module, or None outside root
        self._lines: dict[str, set[int] | None] = {}
        self._before = None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._lines:
            path = Path(name).resolve()
            inside = path.is_relative_to(self.root)
            self._lines[name] = self.ran.setdefault(path, set()) if inside else None
        return None if self._lines[name] is None else self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self._lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def start(self):
        self._before = sys.gettrace()
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._before)

    def report(self) -> list[str]:
        """'file:line source' for each statement under root that did not
        run, the file named from root's parent."""
        return [
            f"{path.relative_to(self.root.parent)}:{line} {text}"
            for path in sorted(self.root.rglob("*.py"))
            if path.name != "__main__.py"
            for line, text in unreached(path.read_text(encoding="utf-8"), self.ran.get(path, set()))
        ]


class _Plugin:
    """Traces root from its creation to the terminal summary, which lists
    what did not run and then fails a session that had passed."""

    def __init__(self, root: Path = PACKAGE):
        self.tracer = LineTracer(root)
        self.tracer.start()

    def pytest_sessionstart(self, session):
        self.session = session

    def pytest_terminal_summary(self, terminalreporter):
        self.tracer.stop()
        found = self.tracer.report()
        terminalreporter.section(f"{len(found)} package statements no test ran")
        for line in found:
            terminalreporter.write_line(line)
        if found and self.session.exitstatus == 0:
            self.session.exitstatus = 1


def pytest_configure(config):
    config.pluginmanager.register(_Plugin(), "unreached-tracer")
