"""Source-level guards on the library code."""
import ast
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
