"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def names(node):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
        yield node.asname


def test_fraction_field_stays_off_the_production_path():
    # Q(A) serves the Laurent arithmetic, the ring descriptors and the
    # recoupling oracles; no other module may name it
    allowed = {"laurent.py", "rings.py", "recoupling.py"}
    banned = {"LaurentFrac", "LaurentFracField", "QA", "poly_gcd"}
    found = [f"{path.relative_to(SRC)}:{node.lineno} {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in allowed
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in names(node) if name in banned]
    assert not found, found


def test_cable_stays_off_the_knot_scalars_path():
    # a knot's colored brackets come from the fusion basis; the cable, its
    # kinks and the Jones-Wenzl projector serve only as its oracle
    banned = {"cable_word", "jones_wenzl", "add_word_kinks"}
    production = {
        "skein.py": {"knot_scalars", "KnotScalars", "colored_bracket"},
        "recoupling.py": {"braid_block", "half_twist", "factored_e"}}
    seen, found = set(), []
    for fname, defs in production.items():
        for top in ast.parse((SRC / fname).read_text(), fname).body:
            if getattr(top, "name", None) not in defs:
                continue
            seen.add(top.name)
            found += [f"{fname} {top.name}:{node.lineno} {name}"
                      for node in ast.walk(top) for name in names(node)
                      if name in banned]
    assert seen == set().union(*production.values())
    assert not found, found


def test_numpy_is_not_imported():
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and not node.level:
            return [node.module]
        return []

    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if any(name.split(".")[0] == "numpy" for name in imported(node))]
    assert not found, found


def test_double_command_loads_neither_numpy_nor_golden():
    # a fresh interpreter, so that no other test's imports count
    code = ("import io, sys, tvskein.cli\n"
            "code = tvskein.cli.run(['double', '--J', 'U', '--k', '1', "
            "'--p', '5', '--format', 'json'], io.StringIO())\n"
            "print(code, sorted(m for m in ('numpy', 'tvskein.golden') "
            "if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "0 []", res.stdout
