"""Each checker accepts the program's answer and rejects a deliberately
wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import io
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tvskein import cli, skein, tqft  # noqa: E402
from tvskein.cyclo import CycloElem  # noqa: E402
from tvskein.data import example45_word  # noqa: E402
from tvskein.diagram import SliceWord  # noqa: E402
from tvskein.laurent import LaurentPoly  # noqa: E402
from tvskein.polyalg import RingPoly, power_sums  # noqa: E402
from tvskein.rings import kp_field  # noqa: E402


def _failures(fn, *args, **kwargs):
    log = checks.Log()
    fn(log, *args, **kwargs)
    assert log.count > 0
    return log.failures


def _cli_json(argv):
    out = io.StringIO()
    assert cli.run(argv, out) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def inv_u15():
    return tqft.double_invariant("U", 1, 5)


def test_parse_and_reduce():
    assert checks.parse_laurent("-A^-16 + 2 - 1/2*A^4") == \
        {-16: -1, 0: 2, 4: Fraction(-1, 2)}
    # A^10 = 1 and A^4 = A^3 - A^2 + A - 1 in k_5
    assert checks.reduce_laurent({10: 1}, 5) == checks.reduce_laurent({0: 1}, 5)
    assert checks.reduce_laurent({4: 1}, 5) == (-1, 1, -1, 1)
    with pytest.raises(ValueError):
        checks.parse_laurent("2*B")


def test_period_check(inv_u15):
    gamma = checks.kp_vectors(inv_u15.gamma.coeffs)
    assert checks.norm_period(gamma, 5) == 10
    assert not _failures(checks.check_period, "ok", gamma, 5, 10, 40)
    assert _failures(checks.check_period, "wrong", gamma, 5, 5, 40)
    assert _failures(checks.check_period, "missed", gamma, 5, None, 40)
    # above the bound the program must report None
    assert not _failures(checks.check_period, "bound", gamma, 5, None, 8)
    # x^2 - 3x + 1 has no root of unity: no period
    one = (Fraction(1), 0, 0, 0)
    assert checks.norm_period([one, (Fraction(-3), 0, 0, 0), one], 5) is None
    assert _failures(checks.check_period, "none", [one, (Fraction(-3), 0, 0, 0), one],
                     5, 6, 40)


def test_tv_invariant_check(inv_u15):
    assert not _failures(checks.check_tv_invariant, "ok", inv_u15, 5)
    k5 = kp_field(5)
    wrong = RingPoly(k5, [CycloElem.one(5), CycloElem.one(5), CycloElem.one(5)])
    fake = SimpleNamespace(gamma=inv_u15.gamma, matrix=inv_u15.matrix,
                           flat_rank=inv_u15.flat_rank, period=inv_u15.period,
                           power_sums=lambda d: power_sums(wrong, d))
    assert _failures(checks.check_tv_invariant, "sums", fake, 5)


def test_printed_tables(inv_u15):
    c0, c1 = oracle.PROP510[1]
    gamma = checks.kp_vectors(inv_u15.gamma.coeffs)
    assert checks.gamma_matches(gamma, 5, [c0, c1])
    c0, c1 = oracle.PROP510[2]
    assert not checks.gamma_matches(gamma, 5, [c0, c1])
    rt = checks.kp_vectors(tqft.double_invariant("RT", 2, 5).gamma.coeffs)
    assert checks.gamma_matches(rt, 5, oracle.GAMMA5["RT"][2])
    assert not checks.gamma_matches(rt, 5, oracle.GAMMA5["LT"][2])


def test_torus_bundle_check():
    for r in (3, 4):
        f8 = checks.kp_vectors(tqft.double_invariant("U", 1, 2 * r).gamma.coeffs)
        rt = checks.kp_vectors(tqft.double_invariant("U", -1, 2 * r).gamma.coeffs)
        w_rt = checks.witten_matrix_numeric("RT", r)
        w_f8 = checks.witten_matrix_numeric("F8", r)
        assert checks.charpoly_matches_numeric(w_rt, rt, 2 * r)
        assert checks.charpoly_matches_numeric(w_f8, f8, 2 * r)
        wrong = [(rt[0][0] + 1,) + rt[0][1:]] + rt[1:]
        assert not checks.charpoly_matches_numeric(w_rt, wrong, 2 * r)


def _tangle_parts(word):
    n = word.bottom // 2
    return (tqft.tangle_invariant(word), skein.closure_B(word),
            skein.pairing_matrix_D(n))


def test_tangle_checks():
    ex = example45_word()
    ti, b, d = _tangle_parts(ex)
    assert not _failures(checks.check_tangle, "ex45", ti, b, d, printed=True)
    other = SliceWord.parse(workloads.TANGLE_CATALOGUE[0])
    ti2, b2, d2 = _tangle_parts(other)
    assert not _failures(checks.check_tangle, "word", ti2, b2, d2)
    # another word's Q(T) against this word's B(T)
    bad = SimpleNamespace(**dict(vars(ti2), q_matrix=ti2.q_matrix.transpose()
                                 if ti2.q_matrix != ti2.q_matrix.transpose()
                                 else ti2.q_matrix * 2))
    assert _failures(checks.check_tangle, "swap", bad, b2, d2)
    bad = SimpleNamespace(**dict(vars(ti2), wrapping=None))
    assert _failures(checks.check_tangle, "wrap", bad, b2, d2)
    bad_gamma = RingPoly(ti2.gamma.ring, list(ti2.gamma.coeffs[:-2])
                         + [ti2.gamma.coeffs[-2] + LaurentPoly.one(),
                            ti2.gamma.coeffs[-1]])
    bad = SimpleNamespace(**dict(vars(ti2), gamma=bad_gamma))
    assert _failures(checks.check_tangle, "gamma", bad, b2, d2)
    # a correct tangle that is not Example 4.5 fails the printed checks
    assert _failures(checks.check_tangle, "printed", ti2, b2, d2, printed=True)


def test_specialization_check():
    ti, inv = tqft.tangle_invariant(example45_word(), 7)
    assert not _failures(checks.check_specialization, "ok", ti, inv, 7)
    wrong = SimpleNamespace(gamma=RingPoly(inv.gamma.ring, list(inv.gamma.coeffs[1:])
                                           + [inv.gamma.coeffs[-1]]))
    assert _failures(checks.check_specialization, "bad", ti, wrong, 7)


def test_library_round_checks():
    """check_results rejects a wrong colored bracket and a wrong Gamma_5."""
    mods = worker._import_program()
    ops = workloads.companions_ops(1)
    pick = [op for op in ops if op.label in (
        "knot_scalars(RT).colored(2)", "knot_scalars(LT).colored(2)",
        "knot_scalars(F8).colored(2)")]
    good = [(op, worker._execute(mods, op), None, 0.0) for op in pick]
    log = checks.Log()
    worker.check_results(mods, good, log)
    assert log.count and not log.failures
    rt, _, f8 = (res for _, res, _, _ in good)
    a2 = LaurentPoly({2: 1})
    tampered = [(pick[0], rt, None, 0.0), (pick[1], rt, None, 0.0),
                (pick[2], f8 * a2, None, 0.0)]
    log = checks.Log()
    worker.check_results(mods, tampered, log)
    text = " ".join(log.failures)
    assert "bar of <RT_2>" in text and "bar-invariant" in text
    g5 = next(op for op in ops if op.kind == "double" and op.params["J"] == "F8")
    res = tqft.double_invariant("LT", g5.params["k"], 5)
    log = checks.Log()
    worker.check_results(mods, [(g5, res, None, 0.0)], log)
    assert any("Gamma_5 table" in f for f in log.failures)
    # an operation that fails without being expected to
    log = checks.Log()
    worker.check_results(mods, [(g5, None, "ValueError: x", 0.0)], log)
    assert log.failures


def test_colored_value_check():
    val = skein.knot_scalars("RT").colored(2)
    assert not _failures(checks.check_colored, "ok", 2, val)
    assert _failures(checks.check_colored, "bad", 2, val + LaurentPoly.one())


def test_cli_double_and_covers():
    obj = _cli_json(["double", "--J", "U", "--k", "3", "--p", "5", "--format", "json"])
    log = checks.Log()
    _, eig = checks.check_cli_double(log, "ok", obj)
    assert not log.failures
    bad = dict(obj, period=7)
    assert _failures(checks.check_cli_double, "period", bad)
    bad = dict(obj, eigen=[{"re": 1.0, "im": 0.0}] * len(obj["eigen"]))
    assert _failures(checks.check_cli_double, "eigen", bad)
    rows = _cli_json(["covers", "--J", "U", "--k", "3", "--p", "5", "--d", "1..20",
                      "--format", "json"])
    assert not _failures(checks.check_cli_covers, "ok", rows, 5, eig)
    assert not _failures(checks.check_d17, "ok", rows, branched=False)
    swapped = [dict(r) for r in rows]
    swapped[16]["value"], swapped[15]["value"] = rows[15]["value"], rows[16]["value"]
    assert _failures(checks.check_cli_covers, "bad", swapped, 5, eig)
    assert _failures(checks.check_d17, "bad", swapped, branched=False)
    br = _cli_json(["covers", "--J", "U", "--k", "3", "--p", "5", "--d", "1..17",
                    "--branched", "--format", "json"])
    assert not _failures(checks.check_d17, "ok", br, branched=True)
    assert not _failures(checks.check_branched_d1, "ok", br, 5)
    bad = [dict(r) for r in br]
    bad[0]["eta_normalized"] = bad[1]["eta_normalized"]
    assert _failures(checks.check_branched_d1, "d1", bad, 5)
    bad[16]["eta_normalized"] = bad[15]["eta_normalized"]
    assert _failures(checks.check_d17, "d17", bad, branched=True)


def test_cli_rt_cycle():
    rows = _cli_json(["covers", "--J", "U", "--k", "-1", "--p", "5", "--d", "1..40",
                      "--format", "json"])
    assert not _failures(checks.check_rt_cycle, "ok", rows)
    bad = [dict(r) for r in rows]
    bad[30]["value"] = bad[29]["value"]
    assert _failures(checks.check_rt_cycle, "period", bad)


def test_cli_sum_and_tangle():
    obj = _cli_json(["sum", "--left", "D(1,U)", "--right", "D(1,U)", "--p", "5",
                     "--format", "json"])
    assert not _failures(checks.check_cli_sum, "ok", obj)
    other = _cli_json(["sum", "--left", "D(-1,U)", "--right", "D(1,U)", "--p", "5",
                       "--format", "json"])
    assert _failures(checks.check_cli_sum, "other", other)
    path = os.path.join(os.path.dirname(HERE), run.EXAMPLE45)
    obj = _cli_json(["tangle", path, "--p", "7", "--format", "json"])
    assert not _failures(checks.check_cli_tangle, "ok", obj, 7)
    assert _failures(checks.check_cli_tangle, "wrap", dict(obj, wrapping=2), 7)


def test_cli_round_checks():
    """check_cli rejects disagreeing Brieskorn values and failing commands."""
    cmds = [c for c in workloads.cli_commands(1, run.EXAMPLE45)
            if c.kind in ("brieskorn", "check")]
    outs = []
    for c in cmds:
        buf = io.StringIO()
        code = cli.run(c.argv, buf)
        outs.append((buf.getvalue(), code))
    log = checks.Log()
    run.check_cli(cmds, outs, log)
    assert log.count and not log.failures
    b1 = json.loads(outs[0][0])
    other = json.dumps(dict(b1, value=json.loads(
        _cli_out(["brieskorn", "--c", str(b1["c"] + 1), "--p", "5",
                  "--format", "json"]))["value"]))
    log = checks.Log()
    run.check_cli(cmds, [outs[0], (other, 0)] + outs[2:], log)
    assert any("c + 30" in f for f in log.failures)
    log = checks.Log()
    run.check_cli(cmds, outs[:2] + [("suite x: FAIL", 1)] + outs[3:], log)
    assert any("exit code" in f for f in log.failures)


def _cli_out(argv):
    out = io.StringIO()
    assert cli.run(argv, out) == 0
    return out.getvalue()
