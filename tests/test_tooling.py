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


def test_polys_is_the_one_polynomial_kernel():
    """Poly holds a polynomial and has no arithmetic; the coefficient-list
    functions of polys are the only polynomial kernel in the library; and
    the test oracles take nothing from it but Poly, so they stay an
    independent reference."""
    from thetalab.polys import Poly

    arithmetic = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__neg__", "__divmod__", "__floordiv__", "__mod__", "__truediv__",
                  "__pow__", "monic", "divides", "gcd", "xgcd", "derivative"}
    assert arithmetic & set(vars(Poly)) == set()
    kernel = {"trim", "add", "sub", "mul", "scale", "quo_rem", "divmod", "powmod", "gcd", "xgcd",
              "derivative", "horner"}
    helpers = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py")) if path.name != "polys.py"
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in kernel
    ]
    assert helpers == []
    imports = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracles.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imports += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [(alias.name, None) for alias in node.names]
    assert [i for i in imports if "polys" in str(i)] == [("thetalab.polys", "Poly")]


# Functions outside polys that keep their own coefficient loop, with the
# reason the kernel does not serve them.
COEFFICIENT_LOOPS_ALLOWED = {
    "exact._reduce": "keeps Phi_N's sparse tail cached per N: on a cyclo_sin input polys.quo_rem, "
                     "which skips zero divisor coefficients, took 18-38 us against 9-13 us at "
                     "N = 148 and 156, 2.0-3.2x slower over N = 40 to 156 (BENCH_sparse_kernel.json)",
    "exact.Cyclo.__mul__": "skips the zero coefficients of both factors: through polys.mul, which "
                           "skips them too but returns Fractions over Q that Cyclo turns back into "
                           "ints, a product of two sines took 34-41 against 13-17 us at N = 148 "
                           "and 156, 2.4-2.8x slower (BENCH_sparse_kernel.json)",
}


def coefficient_loops(tree, module):
    """Qualified names of the functions in module's tree that do
    X[...] += a * b or X[...] -= a * b inside two nested for loops: a
    private polynomial product or long division."""
    found = set()

    def visit(node, name, loops):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}", 0)
                continue
            if (loops >= 2 and isinstance(child, ast.AugAssign)
                    and isinstance(child.target, ast.Subscript)
                    and isinstance(child.op, (ast.Add, ast.Sub))
                    and isinstance(child.value, ast.BinOp) and isinstance(child.value.op, ast.Mult)):
                found.add(name)
            visit(child, name, loops + isinstance(child, ast.For))

    visit(tree, module, 0)
    return found


def test_no_private_coefficient_loops():
    """Polynomial products and long divisions outside polys are the kernel's
    functions, except the measured carve-outs in COEFFICIENT_LOOPS_ALLOWED."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "polys.py":
            found |= coefficient_loops(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(found) == sorted(COEFFICIENT_LOOPS_ALLOWED)


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
    "evaluate": "HilbertFit.evaluate: acceptance test C02 evaluates the fit, and "
                "the Verlinde numbers at every level (ROADMAP item 4) give it a program caller",
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


def defaulted_parameters(tree):
    """(call name, position, parameter) for each parameter with a default in
    the module's tree.  The call name of an __init__ is its class's name;
    the position counts the arguments a call writes (self and cls are not
    written), and is None for a keyword-only parameter."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skipped = 1 if cls and not static else 0
                name = cls if child.name == "__init__" else child.name
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found.extend((name, i - skipped, arg.arg)
                             for i, arg in enumerate(positional[first:], first))
                found.extend((name, None, arg.arg)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def passes(call, position, parameter):
    """Whether the call writes the parameter: by position, by keyword, or
    through a starred argument."""
    if position is not None and (len(call.args) > position
                                 or any(isinstance(a, ast.Starred) for a in call.args)):
        return True
    return any(k.arg in (parameter, None) for k in call.keywords)


def test_every_keyword_default_is_passed_by_a_program_call():
    """A parameter with a default is a knob; some call in the library or the
    benchmark sets it, or it is a constant.  A call matches a function by
    name, and a class's __init__ by the class name."""
    parameters = [
        (path.stem, *found)
        for path in sorted(SRC.glob("*.py"))
        for found in defaulted_parameters(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert parameters
    calls = {}
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{module}.{name}({parameter})" for module, name, position, parameter in parameters
        if not any(passes(call, position, parameter) for call in calls.get(name, ()))
    ]
    assert unset == []


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


def test_every_bench_record_has_the_common_keys():
    """Each root BENCH_*.json is a benchmark record: what changed, the
    claim, the command, the method, and whether bytecode was precompiled."""
    import json

    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        missing = {"change", "claim", "command", "method", "precompiled"} - set(record)
        assert not missing, (path.name, missing)
