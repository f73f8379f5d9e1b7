"""Checks over the package source itself."""

import ast
from pathlib import Path

import ownet


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so an invariant must be a check that raises."""
    modules = sorted(Path(ownet.__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert modules and found == [], found
