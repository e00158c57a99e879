"""Checks on the package source itself."""

import ast
from pathlib import Path

import tvskein

SRC = Path(tvskein.__file__).parent


def test_no_assert_statements():
    # checks must raise named exceptions: python -O strips assert statements
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
