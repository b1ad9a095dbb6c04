"""Source-level guards on the library code."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thetalab"


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


def test_fields_hold_no_arithmetic_methods():
    """Elements combine with Python operators; a field only normalises, inverts
    and takes square roots."""
    from thetalab.fields import PrimeField, RationalField

    for cls in (RationalField, PrimeField):
        assert {"add", "sub", "mul", "neg", "div"} & set(vars(cls)) == set(), cls
