"""Checks on the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import tvskein

SRC = Path(tvskein.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"


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
    elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
        yield node.asname


def imported(node):
    """(dotted name, level) of every module an import node may load.

    ``from a import b`` may load a and a.b; a relative name has no dots
    in front and a level above 0.
    """
    if isinstance(node, ast.Import):
        return [(alias.name, 0) for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = [node.module] if node.module else []
        return [(".".join(base + [alias.name]), node.level)
                for alias in node.names] + [(m, node.level) for m in base]
    return []


def test_fraction_field_stays_off_the_production_path():
    # Q(A) and the Euclid inverse over Q[A] are oracles: only the oracles
    # module may define or name them
    allowed = {"oracles.py"}
    banned = {"LaurentFrac", "LaurentFracField", "QA", "poly_gcd",
              "_poly_divmod", "_poly_mul", "_poly_sub"}
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
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if any(not level and name.split(".")[0] == "numpy"
                    for name, level in imported(node))]
    assert not found, found


def test_oracles_and_dataclasses_stay_off_the_import_path():
    # only golden may import the oracles, and no module imports
    # dataclasses (with inspect, ast and dis it costs every process ~12 ms)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for name, level in imported(node):
                if "oracles" in name.split(".") and rel != "golden.py":
                    found.append(f"{rel}:{node.lineno} imports oracles")
                if not level and name.split(".")[0] == "dataclasses":
                    found.append(f"{rel}:{node.lineno} imports dataclasses")
    assert not found, found


def test_double_command_loads_neither_numpy_nor_golden():
    # a fresh interpreter, so that no other test's imports count
    banned = ("dataclasses", "inspect", "numpy", "tvskein.golden",
              "tvskein.oracles")
    code = ("import io, sys, tvskein.cli\n"
            "code = tvskein.cli.run(['double', '--J', 'U', '--k', '1', "
            "'--p', '5', '--format', 'json'], io.StringIO())\n"
            f"print(code, sorted(m for m in {banned!r} "
            "if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "0 []", res.stdout


def test_appendix_a_check_loads_no_oracles():
    # no check suite compiles the oracles module, which sets the peak
    # memory of a check command: the symbolic composed products need MPoly
    # alone, and branched8 and witten11 read ``identities``
    code = ("import io, sys, tvskein.cli, tvskein.golden\n"
            "for name in tvskein.golden.SUITES:\n"
            "    code = tvskein.cli.run(['check', '--suite', name], "
            "io.StringIO())\n"
            "    print(name, code, 'tvskein.oracles' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    from tvskein.golden import SUITES
    assert res.stdout.splitlines() == [f"{name} 0 False" for name in SUITES], \
        res.stdout


def test_golden_import_loads_no_oracles():
    # the library benchmark workers import golden; the oracles, the largest
    # module, and the helpers of the check suites load only inside the
    # suites that use them
    code = ("import sys, tvskein.golden\n"
            "print(sorted({'tvskein.oracles', 'tvskein.identities',\n"
            "              'tvskein.mpoly'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "[]", res.stdout


def test_names_perfbench_reads_exist(monkeypatch):
    # the benchmark worker reads these names of the package; a deletion or
    # rename shows here, not first as failed operations of a benchmark run
    layers = ("skein", "tqft", "diagram")
    read = set()
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in layers:
            read.add((f"tvskein.{node.value.id}", node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "tvskein":
            read |= {(node.module, alias.name) for alias in node.names}
    assert {mod for mod, _ in read} >= {f"tvskein.{m}" for m in layers}
    missing = [f"{mod}.{name}" for mod, name in sorted(read)
               if not hasattr(importlib.import_module(mod), name)
               and importlib.util.find_spec(f"{mod}.{name}") is None]
    # the pd_scalar operations read getattr(knot_scalars(pd), what)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tvskein.skein import KnotScalars
    whats = {op.params["what"] for seed in (1, 2)
             for op in workloads.companions_ops(seed)
             if op.kind == "pd_scalar"}
    assert whats
    missing += [f"KnotScalars.{what}" for what in sorted(whats)
                if not hasattr(KnotScalars, what)]
    assert not missing, missing


def _is_product(expr, names=()):
    """a * b, or a name in ``names`` (names bound to a product)."""
    return (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult)
            or isinstance(expr, ast.Name) and expr.id in names)


def _accumulates_product(node, names):
    """``acc = acc + a * b``, ``acc = a * b + acc``, ``acc = acc - a * b``
    or ``acc += a * b``, also where the sum is one arm of a conditional
    expression."""
    def update(value, target):
        if isinstance(value, ast.IfExp):
            return update(value.body, target) or update(value.orelse, target)
        if not (isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Add, ast.Sub))):
            return False
        return (ast.unparse(value.left) == target
                and _is_product(value.right, names)
                or isinstance(value.op, ast.Add)
                and ast.unparse(value.right) == target
                and _is_product(value.left, names))

    if isinstance(node, ast.AugAssign):
        return (isinstance(node.op, (ast.Add, ast.Sub))
                and _is_product(node.value, names))
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return update(node.value, ast.unparse(node.targets[0]))
    return False


def _pairwise_product_sums(sites):
    """Loops in the named functions that accumulate products pairwise,
    and the (module, function) pairs found."""
    found, seen = set(), set()
    for module, funcs in sites.items():
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if not (isinstance(node, ast.FunctionDef) and node.name in funcs):
                continue
            seen.add((module, node.name))
            names = {n.targets[0].id for n in ast.walk(node)
                     if isinstance(n, ast.Assign)
                     and isinstance(n.targets[0], ast.Name)
                     and _is_product(n.value)}
            found |= {f"{module}:{n.lineno} in {node.name}"
                      for loop in ast.walk(node)
                      if isinstance(loop, (ast.For, ast.While))
                      for n in ast.walk(loop)
                      if _accumulates_product(n, names)}
    assert seen == {(m, f) for m, fs in sites.items() for f in fs}
    return sorted(found)


def test_one_dot_kernel_per_ring():
    # every sum of products over a ring goes through ``ring.dot``: no
    # helper of its own and no loop that accumulates products
    sites = {"cyclo.py": {"constants"},
             "matring.py": {"_berkowitz", "berkowitz_charpoly"},
             "polyalg.py": {"__mul__", "power_sums", "tensor_product"},
             "tqft.py": {"_channel_sums", "branched_series"}}
    found = _pairwise_product_sums(sites)
    found += [f"{module} defines _row_dot" for module in sites
              for node in ast.walk(ast.parse((SRC / module).read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "_row_dot"]
    assert not found, found
    assert "_row_dot" not in (SRC / "matring.py").read_text()


def test_dense_kernels_run_on_the_integer_image(monkeypatch):
    # over Z[A,A^-1] and k_p, Berkowitz and the matrix product run on
    # Python ints (``ring.image``), not on ``ring.dot``, and Z[A,A^-1] has
    # no fused dot of its own
    from tvskein.cyclo import CycloElem
    from tvskein.laurent import A
    from tvskein.matring import RingMatrix, berkowitz_charpoly
    from tvskein.rings import ZA, CycloField, LaurentRing, Ring, kp_field
    assert "dot" not in vars(LaurentRing)

    def no_dot(*args):
        raise AssertionError("ring.dot called")

    monkeypatch.setattr(Ring, "dot", no_dot)
    monkeypatch.setattr(CycloField, "dot", no_dot)
    for ring, x in ((ZA, A), (kp_field(7), CycloElem.a_power(7, 1))):
        m = RingMatrix(ring, [[x, 1], [2, x]])
        assert berkowitz_charpoly(m).degree() == 2
        assert (m * m)[0, 1] == x * 2


def test_timed_operations_import_no_module():
    # a tvskein module first imported inside a timed benchmark operation
    # is compiled there and shows up only as a slower run: after the
    # worker's own import, one operation of each kind of every library
    # workload imports nothing more of tvskein
    code = (
        "import sys, worker, workloads\n"
        "mods = worker._import_program()\n"
        "before = {m for m in sys.modules if m.split('.')[0] == 'tvskein'}\n"
        "ops = {}\n"
        "for wl in workloads.LIBRARY_WORKLOADS:\n"
        "    for op in workloads.library_ops(wl, 1):\n"
        "        ops.setdefault((op.kind, op.params.get('p') is None), op)\n"
        "worker._inputs(list(ops.values()))\n"
        "for op in ops.values():\n"
        "    try:\n"
        "        worker._execute(mods, op)\n"
        "    except Exception:\n"
        "        if not op.expect_failure:\n"
        "            raise\n"
        "print(sorted(k for k, _ in ops))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tvskein'\n"
        "             and m not in before))\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(SRC.parent), str(PERFBENCH))))
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=300,
                         capture_output=True, text=True, check=True)
    kinds, new = res.stdout.splitlines()[-2:]
    assert kinds == str(["colored", "double", "pd_scalar", "tangle",
                         "tangle"]), res.stdout
    assert new == "[]", res.stdout


def test_fusion_sums_lift_once():
    # a fusion-basis sum collects its terms and lifts them once, in
    # ``QFactored.sum``: the j-sum of a braid block, each label's sum per
    # generator and the closure of ``colored_bracket``, and Tet's z-sum
    # (its level branch is one ``kp_field(p).dot``)
    sites = {"recoupling.py": {"braid_block", "tet"},
             "skein.py": {"colored_bracket"}}
    found = _pairwise_product_sums(sites)
    assert not found, found


def _is_row_update(node):
    """``x - f * y`` or ``x -= f * y``."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Sub) and _is_product(node.right)
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
            and _is_product(node.value))


def test_one_row_update_kernel():
    # elimination runs forward once, with ``ring.axpy`` as its only row
    # update: no Gauss-Jordan pass, no norm taken conjugate by conjugate,
    # and no matring function with an x - f * y loop of its own
    for module, gone in (("matring.py", "_rref"), ("cyclo.py", "_conjugations")):
        tree = ast.parse((SRC / module).read_text())
        assert gone not in {n for node in ast.walk(tree) for n in names(node)}
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp)
    found, calls = set(), set()
    for fn in ast.walk(ast.parse((SRC / "matring.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        found |= {f"matring.py:{n.lineno} in {fn.name}"
                  for loop in ast.walk(fn) if isinstance(loop, loops)
                  for n in ast.walk(loop) if _is_row_update(n)}
        if any(isinstance(n, ast.Attribute) and n.attr == "axpy"
               for n in ast.walk(fn)):
            calls.add(fn.name)
    assert not found, sorted(found)
    assert calls >= {"_echelon", "_back_substitute"}, calls


def test_one_name_per_job():
    # the similarity class comes from the elimination kernel, Horner's rule
    # is written once, and no engine method or alias is left unused
    gone = {"matring.py": "_smith_polys", "polyalg.py": "_slope",
            "skein.py": "run_word", "recoupling.py": "unknot_value"}
    found = [f"{module} {name}" for module, name in gone.items()
             if name in {n for node in ast.walk(ast.parse(
                 (SRC / module).read_text())) for n in names(node)}]
    # each cyclotomic object has one construction: Phi_n is
    # laurent.cyclotomic_poly, Phi_d(A^4) is read off it, every sum of A_p
    # powers folds through cyclo._fold_rows, and (-A)^e is an A_p power
    gone_anywhere = {"_from_powers", "_level_data", "_neg_a_power"}
    trees = {path.relative_to(SRC): ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    found += [f"{path}:{node.lineno} {name}" for path, tree in trees.items()
              for node in ast.walk(tree) for name in names(node)
              if name in gone_anywhere]
    defs = [(str(path), node) for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name in ("cyclotomic_poly", "_phi4")]
    assert sorted((path, node.name) for path, node in defs) == \
        [("laurent.py", "_phi4"), ("laurent.py", "cyclotomic_poly")], \
        [f"{path}:{node.lineno} {node.name}" for path, node in defs]
    found += [f"laurent.py:{sub.lineno} _phi4 divides"
              for _, node in defs if node.name == "_phi4"
              for sub in ast.walk(node) if "exact_div" in names(sub)]
    assert not found, found


def test_kappa_grade_lives_only_on_the_branched_record():
    # a k_p element is num / den in Q(A_p); kappa^3 is carried only by
    # tqft.BranchedValue, beside the A-part of <K_d>_p
    from tvskein.cyclo import CycloElem
    assert CycloElem.__slots__ == ("p", "num", "den")
    banned = {"grade", "eta", "kappa3"}
    found = [f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "tqft.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in banned]
    assert not found, found


def test_one_route_per_level_for_the_double():
    # every double at p >= 3 is the general sum: the closed forms at
    # p = 5 and 6, the tensor split at p = 2p' and the level maps it reads
    # are oracles, and no pairing L is inverted: the plain and the colored
    # doubles form L^-1 B without L, and the colored route B L_c^-1 is an
    # oracle too
    moved = {"map_i", "map_j", "z5_matrix", "z5_color2_scalar",
             "tensor_double", "s_kd", "general_B_matrix", "_pattern_product",
             "colored_B_matrix", "inverse", "solve"}
    tree = ast.parse((SRC / "tqft.py").read_text())
    found = sorted(f"tqft.py:{node.lineno} {name}" for node in ast.walk(tree)
                   for name in names(node) if name in moved)
    found += sorted(moved & set(tvskein.__all__))
    assert not found, found


def test_one_invariant_record():
    # ``flat_decompose`` builds the one invariant record, which stores Z,
    # Gamma and the flat part and reads the flat rank and D from Gamma; the
    # value records and the tangle record are made only from what fixes
    # them.  No copy of the record and no second constructor is left
    import inspect

    from tvskein import matring, tqft
    gone = {"make_invariant", "trivial_invariant", "general_matrix",
            "from_normalized"}
    tree = ast.parse((SRC / "tqft.py").read_text())
    found = sorted(f"tqft.py:{node.lineno} {name}" for node in ast.walk(tree)
                   for name in names(node) if name in gone)
    found += [f"{path.relative_to(SRC)}:{node.lineno} FlatDecomposition"
              for path in sorted(SRC.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if "FlatDecomposition" in names(node)]
    assert not found, found
    assert tqft.TVInvariant is tvskein.TVInvariant is matring.TVInvariant
    assert list(inspect.signature(matring.TVInvariant).parameters) == \
        ["matrix", "gamma", "flat_matrix"]
    # the tangle record, too, derives what its word, Q(T) and Gamma fix
    assert list(inspect.signature(tqft.TangleInvariant).parameters) == \
        ["word", "q_matrix", "gamma"]
    assert tqft.BranchedValue.__slots__ == ("d", "normalized")
    assert tqft.CoverValue.__slots__ == ("d", "value", "sigma_d")
