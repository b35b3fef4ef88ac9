"""Source-level guards over the library modules."""

import ast
from pathlib import Path

import bbranching

SOURCES = sorted(Path(bbranching.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so correctness checks in the
    # library raise AssertionError explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, f"assert statements in the library: {found}"
