"""The benchmark's trace targets and the demos keep working, no new
runtime ``assert`` enters the library, the library does not depend on its
command-line front end, and no module reaches into a sibling's private
names other than the shared decoding steps of ``_codec``.

The traced benchmark run patches every ``(module, attribute)`` in
``perfbench/tracing.py``'s TARGETS, so each must still name something in
``composite_dna``, and a roundtrip through ``cli.main`` must still reach the
patched decoders, and a traced deletion decode must still count each row
syndrome it evaluates; each demo, and the README's library quick start,
must still run to completion.  ``python -O`` strips assert statements, so
no module of the package may hold one.  The code-line counter,
``tools/code_lines.py``, is pinned on a small fixture.  Every brute-force
``_reference_*`` oracle in the package is named by a test, every package
definition is reached by a walk from the package's roots (``cli.main``,
module-level code, the exports, the oracles and the dunders) or has a
reason on a short allow-list, and ``__all__`` is the sorted exports.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    """Each target is where the tracer patches it: a method in its class's
    own namespace, or a function that its module defines as a global (the
    tracer swaps every global bound to it), so alphabet.word_from_text
    stays one whatever reads the codebook text.  A fold or rename of a
    traced name fails here, not only in a traced benchmark run.  TARGETS
    is read from the tracer's source (ast.literal_eval), running none of it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    targets = ast.literal_eval(value)
    assert ("alphabet", "word_from_text") in [target[:2] for target in targets]
    for module_name, attribute, _bucket, _key in targets:
        obj = importlib.import_module(f"composite_dna.{module_name}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"composite_dna.{module_name}.{attribute}"
            owner, obj = obj, getattr(obj, part)
        assert callable(obj), f"composite_dna.{module_name}.{attribute}"
        if "." in attribute:
            assert part in vars(owner), f"composite_dna.{module_name}.{attribute}"
        else:
            assert inspect.isfunction(obj) and obj.__module__ == owner.__name__, attribute


def test_traced_verify_code_prints_what_an_untraced_one_does(capsys, tmp_path):
    import composite_dna
    from composite_dna import cli

    book = tmp_path / "book.txt"
    book.write_text("2 2 3\n000\n011\n\n2 2 3\n0,1,2\n")
    argv = ["verify-code", "--model", "sub-total", "--e", "1", "--in", str(book)]
    plain = (cli.main(argv), capsys.readouterr().out)
    tracer = load_tracing().Tracer()
    tracer.install(composite_dna)
    try:
        tracer.active = True
        traced = (cli.main(argv), capsys.readouterr().out)
        tracer.active = False
    finally:
        tracer.restore()
    assert traced == plain and plain[1].startswith("verdict: false\n")
    spans = {name for _, _, name, _, _ in tracer.spans}
    assert {"cli.main", "channel.oracle_is_code"} <= spans


def test_tracer_counts_the_decodes_of_a_cli_roundtrip(capsys):
    import composite_dna
    from composite_dna import channel, cli
    from composite_dna.families import FAMILIES

    argv = "roundtrip --family c2d --k 3 --t 2 --m 4 --trials 1 --seed 1"
    tracer = load_tracing().Tracer()
    tracer.install(composite_dna)
    try:
        tracer.active = True
        code = cli.main(argv.split())
        tracer.active = False
    finally:
        tracer.restore()
    assert code == 0 and "PASS" in capsys.readouterr().out
    family = FAMILIES["c2d"]
    spec = family.spec(k=3, t=2, m=4)
    ((_, payload),) = family.messages(spec, 1, 1)
    word = family.encode(payload, spec)
    distinct = len(list(channel.outputs(word, family.model(spec))))
    assert tracer.counts["codes_deletion.encodes"] == 1
    assert tracer.counts["codes_deletion.decodes"] == distinct > 1


def _traced_syndrome_evals(decode, *args):
    """decode(*args) under the tracer, and the VT syndromes it evaluated."""
    import composite_dna
    from composite_dna import cli  # noqa: F401, the tracer looks up every module it patches

    tracer = load_tracing().Tracer()
    tracer.install(composite_dna)
    try:
        tracer.active = True
        decoded = decode(*args)
        tracer.active = False
    finally:
        tracer.restore()
    return decoded, tracer.counts["vt_core.syndrome_evals"]


def test_traced_decodes_count_each_row_syndrome_once():
    """A t-row deletion decode evaluates VT once per intact row, once in each
    row decoder and once per repaired row, and certifies from those values.
    The c2d spec is built, and its row code used by the encoder, before the
    tracer is installed: a row code that bound the syndrome kernel when it
    was built would read fewer evaluations than it makes."""
    from composite_dna import ReceivedRows, Word
    from composite_dna.codes_deletion import (
        C2DSpec, c1d_decode, c1d_encode, c2d_decode, c2d_encode,
    )

    def drop(word, hits):  # row -> position of its lost symbol
        rows = [row[: hits[i]] + row[hits[i] + 1 :] if i in hits else row
                for i, row in enumerate(word.rows())]
        return ReceivedRows(rows, word.q, word.n)

    c1d = c1d_encode((0, 1, 2, 2, 1, 0), 0, 2, 8)
    assert _traced_syndrome_evals(c1d_decode, drop(c1d, {1: 3}), 0) == (c1d, 3)

    spec = C2DSpec(4, 2, 192)
    payload = Word.from_ranks([(7 * j) % 5 for j in range(192)], 2, 4)
    received = drop(c2d_encode(payload, spec), {0: 50, 2: 131})
    assert _traced_syndrome_evals(c2d_decode, received, spec) == (payload, 6)


def run_python(*args):
    """A python process on args, with the package's sources on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    done = run_python("-c", block)
    assert done.returncode == 0, done.stderr


def _imports_the_cli(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {alias.name for alias in node.names}
            if module in (".cli", "composite_dna.cli") or (
                module in (".", "composite_dna") and "cli" in names
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name == "composite_dna.cli" for alias in node.names):
                return True
    return False


def test_only_the_entry_point_imports_the_cli():
    modules = sorted((SRC / "composite_dna").glob("*.py"))
    importers = [path.stem for path in modules if _imports_the_cli(path)]
    assert importers == ["__main__"]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    done = run_python(str(ROOT / "demos" / demo))
    assert done.returncode == 0, done.stderr


def _private_imports(path: Path) -> list[str]:
    """'module <- source.name' for each underscore name that the module at
    path imports from a sibling module of the package other than _codec."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if not module.startswith("composite_dna."):
                continue
            module = module.removeprefix("composite_dna.")
        for alias in node.names:
            source = module or alias.name  # "from . import x" imports module x
            if source != "_codec" and alias.name.startswith("_"):
                found.append(f"{path.stem} <- {source}.{alias.name}")
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted((SRC / "composite_dna").glob("*.py"))
    assert [hit for path in modules for hit in _private_imports(path)] == []


def test_every_reference_implementation_is_named_by_a_test():
    """Each fast path keeps its brute-force _reference_* oracle, and a test
    module must name it, so an oracle that no test compares against fails
    here rather than rotting."""
    references = sorted(
        node.name
        for path in (SRC / "composite_dna").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_reference_")
    )
    tests = [path.read_text() for path in (ROOT / "tests").glob("*.py")]
    assert references
    unnamed = [
        name for name in references
        if not any(re.search(rf"\b{name}\b", text) for text in tests)
    ]
    assert unnamed == []


def test_all_is_the_sorted_init_imports():
    """__init__ derives __all__ from its globals: it is exactly the names
    that its imports from the package's modules bind, sorted, and no
    submodule, which those imports also bind on the package."""
    import types

    import composite_dna

    init = ast.parse((SRC / "composite_dna" / "__init__.py").read_text())
    imported = sorted(
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    )
    assert composite_dna.__all__ == imported and len(imported) == 65
    assert not any(isinstance(getattr(composite_dna, name), types.ModuleType)
                   for name in composite_dna.__all__)


# package definitions that no root reaches (test_package_code_has_a_caller),
# each kept for a reason; an entry that gains a caller fails the test, so
# the list shrinks as entries gain callers
NO_CALLER_ALLOWED = {
    "compose_base": "public inverse of expand_base; the codes compose through _codec",
    "schur_eval": "the paper's Schur polynomial, checked against tableau counts",
    "vandermonde_shape_det": "the paper's shape-shifted Vandermonde determinant",
    "all_submatrices_invertible": "the exhaustive check behind f(k, t), ROADMAP item 2",
    "asym_bound_thm3": "a paper bound with no CLI family yet, ROADMAP item 10",
    "asym_bound_even_e": "a paper bound with no CLI family yet, ROADMAP item 10",
    "bound_m_gt_q": "a paper bound with no CLI family yet, ROADMAP item 10",
    "deletion_ball": "the paper's D_t(x), a set view of the row outputs",
    "hamming_sphere": "the Hamming sphere, a set view of the row outputs",
    "runs": "the paper's r(x), in the deletion ball size formulas",
    "outputs": "int-tuple view of packed_outputs; the tests would repeat it",
    "psi": "the paper's difference transform, which the tests check qary_vt_syndrome against",
    "psi_inverse": "the inverse of the difference transform psi",
    "doll_F": "the paper's binary F-map of the enumeration code",
    "HammingFamily.codewords": "enumerates the inner code C(l) for its tests",
    "EquivalenceMap.inverse": "the inverse of each equivalence map, for its tests",
}


def _names(nodes) -> set:
    """The names read below nodes: a variable as ("name", id), an
    attribute as ("attr", attr)."""
    return {
        ("name", sub.id) if isinstance(sub, ast.Name) else ("attr", sub.attr)
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def _reads(function) -> set:
    """The names that a function's code reads (_names), less its own: the
    parameters and the names it assigns, its nested functions' too, which
    a read of the same name finds before any module-level definition."""
    own = {
        ("name", sub.arg if isinstance(sub, ast.arg) else sub.id)
        for sub in ast.walk(function)
        if isinstance(sub, ast.arg)
        or isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)
    }
    return _names([function]) - own


def _package_definitions():
    """(definitions, roots): each module-level function and class and each
    method of such a class, by qualified name, with the names that reach it
    (a module-level definition its name, a method its attribute) and the
    names its code reads (_reads); and the names read by the code that runs
    without a caller: module-level statements, class bodies outside their
    methods, the __init__ imports, cli.main, the _reference_* oracles and
    the dunders that Python calls."""
    definitions, roots = {}, {("name", "main")}

    def define(qualified, by, node):
        assert qualified not in definitions, f"{qualified} is defined twice"
        reads = _reads(node) if isinstance(node, ast.FunctionDef) else set()
        definitions[qualified] = (by, reads)
        name = qualified.rpartition(".")[2]
        if name.startswith("_reference_") or (name.startswith("__") and name.endswith("__")):
            roots.update(by)

    for path in (SRC / "composite_dna").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _names([node])
                if path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                    roots |= {("name", alias.name) for alias in node.names}
                continue
            define(node.name, {("name", node.name)}, node)
            if isinstance(node, ast.ClassDef):
                roots |= _names(node.bases + node.decorator_list)
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        define(f"{node.name}.{sub.name}", {("attr", sub.name)}, sub)
                    else:
                        roots |= _names([sub])
    return definitions, roots


def _reached(definitions, roots) -> set:
    """The qualified names of the definitions that the roots reach, reading
    each reached definition's names in turn."""
    reached, names, frontier = set(), set(), set(roots)
    while frontier:
        names |= frontier
        found = {qualified for qualified, (by, _) in definitions.items()
                 if qualified not in reached and by & frontier}
        reached |= found
        frontier = set().union(*(definitions[q][1] for q in found)) - names
    return reached


def test_package_code_has_a_caller():
    """A walk from the package's roots (_package_definitions) reaches each
    definition, or the definition is on NO_CALLER_ALLOWED; an entry is
    itself a root of the walk, so what only it reads passes, but no other
    root may reach it.  A name reaches every definition of that name: a
    variable that is no parameter or local a module-level function or
    class, an attribute a method."""
    definitions, roots = _package_definitions()
    assert sorted(set(NO_CALLER_ALLOWED) - set(definitions)) == []
    assert sorted(_reached(definitions, roots) & set(NO_CALLER_ALLOWED)) == []
    allowed = set().union(*(definitions[qualified][0] for qualified in NO_CALLER_ALLOWED))
    assert sorted(set(definitions) - _reached(definitions, roots | allowed)) == []


# modules still allowed a runtime assert: none, so the test covers every module
ASSERT_ALLOWED: set[str] = set()


def test_no_asserts_outside_the_allow_list():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "composite_dna").glob("*.py"))
        if path.stem not in ASSERT_ALLOWED
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# a module of 6 code lines: its docstrings, comments and blank lines are not
# counted, a statement split over lines counts each of them, and a string
# that does not open a body is code
CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line
NOTE = """not a docstring"""


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        return (1 +
                2)
'''


def test_code_line_counter_counts_the_fixture(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    (tmp_path / "pkg").mkdir()
    module = tmp_path / "pkg" / "shape.py"
    module.write_text(CODE_LINES_FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    assert counter.code_lines(module) == 6
    assert counter.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["0", str(tmp_path / "pkg" / "empty.py")],
        ["6", str(module)],
        ["6", "total"],
    ]
