"""Source-level guards on the library code."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thetalab"


def test_no_assert_statements():
    """Invariants raise coded errors; python -O strips assert statements."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dataclasses_import():
    """Value types are slotted classes; importing dataclasses costs every CLI start."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_cli_import_leaves_mpmath_unloaded():
    """Only floating output needs mpmath and only --format json needs json;
    exact subcommands skip both imports, and nothing loads dataclasses."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = ("import sys, thetalab.cli; "
            "print([m for m in ('mpmath', 'dataclasses', 'json') if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_typing_unloaded():
    """Annotations are strings under `from __future__ import annotations`, so
    no module needs typing; -S keeps site hooks from importing it first."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, thetalab.cli; print('typing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fields_hold_no_arithmetic_methods():
    """Elements combine with Python operators; a field only normalises, inverts
    and takes square roots."""
    from thetalab.fields import PrimeField, RationalField

    for cls in (RationalField, PrimeField):
        assert {"add", "sub", "mul", "neg", "div"} & set(vars(cls)) == set(), cls


def test_readme_lists_every_error_code():
    """README's error codes are the codes of every ThetaLabError subclass
    plus the two the CLI gives to ValueError and ZeroDivisionError."""
    from thetalab.errors import ThetaLabError

    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"thetalab.{path.stem}")
    classes, todo = [], [ThetaLabError]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    codes = {cls().code for cls in classes} | {"INVALID_INPUT", "DIVISION_BY_ZERO"}
    listed = re.search(r"Error codes:(.*?)\.\s", (ROOT / "README.md").read_text(), re.DOTALL)
    assert listed is not None
    assert set(re.findall(r"`([A-Z][A-Z_]+)`", listed.group(1))) == codes


# Names that stay in the library although no program path reaches them.
UNREFERENCED_ALLOWED = {
    "canonical_class": "K = 2*infinity, the canonical class the Riemann-Roch "
                       "and Serre duality checks name",
    "evaluate": "HilbertFit.evaluate: acceptance test C02 evaluates the fit, and "
                "the Verlinde numbers at every level (ROADMAP item 1) give it a program caller",
    "zeta": "Cyclo.zeta is the constructor for a root of unity; the tracer names it in a string",
}


def test_every_library_name_has_a_program_reference():
    """Each function, class and method defined in the library is used by the
    library or the benchmark: an AST name, attribute or import, not a string.
    A method counts only through an attribute reference, and a bare name in a
    benchmark file that the file itself defines as a function is that file's
    own function, not the library's.  Code that only tests reach is deleted,
    not kept for them."""
    defined, methods = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                methods.update(item.name for item in node.body
                               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined[node.name] = f"{path.name}:{node.lineno}"
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = set()
        if path.parent.name == "perfbench":
            own = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in own:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))
    unreferenced = {
        name: where for name, where in defined.items()
        if name not in attributes and (name in methods or name not in names)
    }
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED), unreferenced


# Report source labels that name no attribute of their module, with the reason.
STALE_SOURCE_ALLOWED = {
    "verlinde.verlinde_p2": "p(2) now comes from verlinde(2); perfbench/audit.py pins the "
                            "label's bytes until the benchmark's next change",
}


def test_every_report_source_names_a_library_attribute():
    """A row's source label is `module.name`; a label that outlives the
    function it names fails here instead of passing silently."""
    from thetalab import report

    stale = set()
    for row in report.build_report():
        module, _, name = row.source.partition(".")
        if not hasattr(importlib.import_module(f"thetalab.{module}"), name):
            stale.add(row.source)
    assert stale == set(STALE_SOURCE_ALLOWED)
