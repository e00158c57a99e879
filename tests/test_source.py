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


def test_fraction_field_stays_off_the_production_path():
    # Q(A) serves the Laurent arithmetic, the ring descriptors and the
    # recoupling oracles; no other module may name it
    allowed = {"laurent.py", "rings.py", "recoupling.py"}
    banned = {"LaurentFrac", "LaurentFracField", "QA", "poly_gcd"}

    def names(node):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname

    found = [f"{path.relative_to(SRC)}:{node.lineno} {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in allowed
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in names(node) if name in banned]
    assert not found, found
