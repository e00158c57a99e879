import io
import json

import pytest

from tvskein.cli import run, validate_invariant_json
from tvskein.cyclo import CycloElem


def _run(argv):
    buf = io.StringIO()
    rc = run(argv, out=buf)
    return rc, buf.getvalue()


def test_bracket_word_file(tmp_path):
    f = tmp_path / "unknot.sw"
    f.write_text("2n=0; cup 1; cap 1\n")
    rc, out = _run(["bracket", str(f)])
    assert rc == 0
    assert "-A^-2 - A^2" in out


def test_bracket_pd_file(tmp_path):
    f = tmp_path / "rt.pd"
    f.write_text('{"crossings": [[4,2,5,1,"+"],[6,4,1,3,"+"],[2,6,3,5,"+"]]}')
    rc, out = _run(["bracket", str(f)])
    assert rc == 0 and "<D>" in out


def test_double_from_pd_file(tmp_path):
    f = tmp_path / "rt.pd"
    f.write_text('{"crossings": [[4,2,5,1,"+"],[6,4,1,3,"+"],[2,6,3,5,"+"]]}')
    args = ["--k", "1", "--p", "5", "--format", "json"]
    rc, from_pd = _run(["double", "--J", str(f)] + args)
    assert rc == 0
    assert from_pd == _run(["double", "--J", "RT"] + args)[1]
    rc, from_pd = _run(["covers", "--J", str(f), "--d", "1..4"] + args)
    assert rc == 0
    assert from_pd == _run(["covers", "--J", "RT", "--d", "1..4"] + args)[1]


def test_colored_trefoil_double_at_level_7():
    # <RT_c> for c <= 5 come from the fusion basis in milliseconds; by
    # cable and Jones-Wenzl projector this command took minutes.  The Gamma
    # printed is that of B L_c^-1 with L_c inverted
    from tvskein.oracles import colored_double_by_inverse
    rc, out = _run(["double", "--J", "RT", "--k", "0", "--p", "7",
                    "--color", "2"])
    want = colored_double_by_inverse("RT", 0, 7, 2).gamma
    assert rc == 0 and f"Gamma = {want}\n" in out, out


def test_tangle_command(tmp_path):
    f = tmp_path / "straight.sw"
    f.write_text("2n=4\n")
    rc, out = _run(["tangle", str(f)])
    assert rc == 0
    assert "wrapping = 4" in out


def test_double_text_and_json():
    rc, out = _run(["double", "--J", "U", "--k", "1", "--p", "5"])
    assert rc == 0 and "period = 10" in out
    rc, out = _run(["double", "--J", "U", "--k", "1", "--p", "5",
                    "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert validate_invariant_json(obj)
    assert obj["flatRank"] == 2 and obj["period"] == 10


_VALID = {"p": 5, "gamma": [{"xExp": 0, "coeff": "1"}], "D": "1",
          "flatRank": 2, "matrix": [["1", "A"]],
          "eigen": [{"re": 0.5, "im": -1}], "period": None}


@pytest.mark.parametrize("key, value", [
    ("D", None),                             # None drops the key
    ("matrix", ["ab"]),                      # a row that is a string
    ("matrix", 5),
    ("gamma", ""),
    ("gamma", [{"xExp": 0}]),                # a term without its coeff
    ("p", True),                             # JSON booleans are not integers
    ("flatRank", True),
    ("eigen", [{"re": True, "im": 0.0}]),
    ("eigen", [1]),
    ("period", 2.0),
], ids=["D-missing", "matrix-row-str", "matrix-int", "gamma-str",
        "gamma-no-coeff", "p-bool", "flatRank-bool", "eigen-re-bool",
        "eigen-int", "period-float"])
def test_invariant_json_schema_violations(key, value):
    assert validate_invariant_json(_VALID)
    obj = {k: v for k, v in _VALID.items() if k != key}
    if value is not None:
        obj[key] = value
    with pytest.raises(ValueError, match="schema violation"):
        validate_invariant_json(obj)


def test_covers_value_and_csv():
    rc, out = _run(["covers", "--J", "U", "--k", "3", "--p", "5",
                    "--d", "17..17"])
    assert rc == 0 and "188 + 152*A + 136*A^2" in out
    rc, out = _run(["covers", "--J", "U", "--k", "1", "--p", "5",
                    "--d", "1..3", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,") and len(lines) == 4


def test_branched_covers_cli():
    rc, out = _run(["covers", "--J", "U", "--k", "1", "--p", "5",
                    "--d", "1..2", "--branched", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert [r["d"] for r in rows] == [1, 2]
    # branched_d1_identity: the eta-normalised d = 1 value is 1
    assert CycloElem.parse(rows[0]["eta_normalized"]) == CycloElem.one(5)


@pytest.mark.parametrize("argv, want", [
    (["covers", "--J", "U", "--k", "3", "--p", "5", "--d", "1..3",
      "--branched"],
     "d = 1: (1) * kappa^0 @ p=5   "
     "[value: (3/5 - 1/5*A + 4/5*A^2 - 2/5*A^3) * kappa^3 @ p=5]\n"
     "d = 2: (A - A^2) * kappa^0 @ p=5   "
     "[value: (4/5 - 3/5*A + 2/5*A^2 - 1/5*A^3) * kappa^3 @ p=5]\n"
     "d = 3: (-1 - A^3) * kappa^0 @ p=5   "
     "[value: (-A^2) * kappa^3 @ p=5]\n"),
    # p = 2p' with p' odd: the route through level p' = 5
    (["covers", "--J", "U", "--k", "3", "--p", "10", "--d", "1..2",
      "--branched"],
     "d = 1: (1) * kappa^0 @ p=10   [value: (1/10 - 1/10*A - 1/5*A^2 "
     "+ 1/5*A^3 - 1/5*A^4 - 3/10*A^5 + 1/10*A^6 + 2/5*A^7) * kappa^3 @ p=10]\n"
     "d = 2: (-A^2 - A^6) * kappa^0 @ p=10   [value: (-3/10 + 3/10*A "
     "+ 1/10*A^2 - 1/10*A^3 + 1/10*A^4 + 2/5*A^5 + 1/5*A^6 - 1/5*A^7) "
     "* kappa^3 @ p=10]\n"),
    # u = 1 at p = 4: kappa^3 folds to +1, so value = normalized
    (["covers", "--J", "RT", "--k", "1", "--p", "4", "--d", "1..2",
      "--branched"],
     "d = 1: (1) * kappa^0 @ p=4\nd = 2: (1) * kappa^0 @ p=4\n"),
    # the mirror: bar(kappa^3) = u^-1 kappa^3
    (["brieskorn", "--c", "-7", "--p", "5"],
     "<Sigma(2,3,-7)>_5 = (3/5 - 6/5*A - 1/5*A^2 - 2/5*A^3) * kappa^3 @ p=5\n"),
    # kappa^3 folds to -1 at p = 3
    (["brieskorn", "--c", "-5", "--p", "3"],
     "<Sigma(2,3,-5)>_3 = (-1) * kappa^0 @ p=3\n"),
])
def test_kappa_carrying_text(argv, want):
    # the only outputs whose kappa-grade is not 0 print kappa^3 or, folded,
    # kappa^0
    assert _run(argv) == (0, want)


def test_empty_cover_range():
    for extra in ([], ["--branched"]):
        rc, _ = _run(["covers", "--J", "U", "--k", "1", "--p", "5",
                      "--d", "3..2"] + extra)
        assert rc == 2


def test_determinism():
    argv = ["double", "--J", "RT", "--k", "2", "--p", "5", "--format", "json"]
    rc1, out1 = _run(argv)
    rc2, out2 = _run(argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_validation_exit_code(tmp_path):
    f = tmp_path / "bad.sw"
    f.write_text("2n=4; cross+ 9\n")
    rc, _ = _run(["bracket", str(f)])
    assert rc == 2
    rc, _ = _run(["double", "--J", "NOSUCH", "--k", "0", "--p", "5"])
    assert rc == 2
    # cover degrees start at d = 1
    for d in (["--d", "0..2"], ["--d=-2..1"]):
        for extra in ([], ["--branched"]):
            rc, _ = _run(["covers", "--J", "U", "--k", "1", "--p", "5"]
                         + d + extra)
            assert rc == 2, (d, extra)
    # colors outside 0 <= c < q, odd or even, are validation errors
    for color in ("99", "-1", "4", "-2"):
        rc, _ = _run(["double", "--J", "U", "--k", "1", "--p", "5",
                      "--color", color])
        assert rc == 2, color
    rc, _ = _run(["sum", "--left", "D(1,U)", "--right", "D(1,U)", "--p", "5",
                  "--color", "99"])
    assert rc == 2


def test_unsupported_specialization_exit_code(tmp_path):
    f = tmp_path / "straight.sw"
    f.write_text("2n=4\n")
    rc, _ = _run(["tangle", str(f), "--p", "6"])
    assert rc == 3


def test_check_suite():
    rc, out = _run(["check", "--suite", "appendixA"])
    assert rc == 0 and "PASS" in out
    rc, _ = _run(["check", "--suite", "nope"])
    assert rc == 2


def test_failed_internal_check_exit_code(monkeypatch, capsys):
    import tvskein.tqft as tqft
    from tvskein.polyalg import RingPoly
    # a composed product that cannot match Gamma fails the connected sum
    monkeypatch.setattr(tqft, "tensor_product",
                        lambda f, g: RingPoly(f.ring, [f.ring.one] * 2))
    rc, _ = _run(["sum", "--left", "D(1,U)", "--right", "D(1,U)",
                  "--p", "5"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: connected sum")
    assert err.count("\n") == 1


def test_sum_with_large_gamma_coefficients():
    # Gamma has degree 14 and embedded coefficients up to 6.0e9
    rc, out = _run(["sum", "--left", "D(1,RT)", "--right", "D(2,F8)",
                    "--p", "7"])
    assert rc == 0, out
    eigen = next(line for line in out.splitlines()
                 if line.startswith("eigenvalues = "))
    assert eigen.count(",") == 13


def test_failed_root_check_prints_nothing(monkeypatch, capsys):
    import tvskein.matring as matring
    from tvskein.polyalg import InvariantCheckError

    def failing(gamma):
        raise InvariantCheckError("root polishing failed")

    monkeypatch.setattr(matring, "numeric_roots", failing)
    rc, out = _run(["double", "--J", "U", "--k", "1", "--p", "5"])
    assert rc == 4 and out == ""
    assert capsys.readouterr().err == \
        "internal check failed: root polishing failed\n"


def test_duplicate_root_exits_4(monkeypatch, capsys):
    from test_polyalg import _first_guess_twice
    _first_guess_twice(monkeypatch)
    rc, out = _run(["double", "--J", "U", "--k", "6", "--p", "9"])
    assert rc == 4 and out == ""
    assert "Vieta's sum" in capsys.readouterr().err


def test_singular_pairing_exit_code(monkeypatch):
    import tvskein.tqft as tqft
    from tvskein.matring import RingMatrix
    from tvskein.rings import kp_field
    # the pairing's verdict is cached per (J, p, c); the patched L is
    # read on a cold cache
    tqft._pairing.cache_clear()
    monkeypatch.setattr(tqft, "general_L_matrix",
                        lambda j_ref, p: RingMatrix.zero(kp_field(p), 3, 3))
    rc, _ = _run(["double", "--J", "U", "--k", "1", "--p", "7"])
    assert rc == 3


# the LT code; read with any sign taken as -1, each bad-sign variant below
# is a valid diagram, so only the sign check can reject it
LT_PD = [[1, 4, 2, 5, "-"], [3, 6, 4, 1, "-"], [5, 2, 6, 3, "-"]]


@pytest.mark.parametrize("body", [
    [[a, b, c, d, "x"] for a, b, c, d, _ in LT_PD],
    [LT_PD[0][:4] + [0]] + LT_PD[1:],
    [LT_PD[0][:4] + [2]] + LT_PD[1:],
    [1, 2],
    {"crossings": 5},
    "abc",
    {"crossings": [], "free_loops": -1},
    {"crossings": [], "free_loops": True},
    {"crossings": LT_PD, "free_loops": 2.9},
])
def test_malformed_pd_exit_code(tmp_path, capsys, body):
    f = tmp_path / "bad.pd"
    f.write_text(json.dumps(body))
    rc, _ = _run(["bracket", str(f)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
