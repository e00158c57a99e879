import io
import json

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
    # a composed product that cannot match Gamma fails the tensor split
    monkeypatch.setattr(tqft, "tensor_product",
                        lambda f, g: RingPoly(f.ring, [f.ring.one] * 2))
    rc, _ = _run(["double", "--J", "U", "--k", "1", "--p", "10"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: tensor splitting")
    assert err.count("\n") == 1


def test_singular_pairing_exit_code(monkeypatch):
    import tvskein.tqft as tqft
    from tvskein.matring import RingMatrix
    from tvskein.rings import kp_field
    monkeypatch.setattr(tqft, "general_L_matrix",
                        lambda j_ref, p, cd=None: RingMatrix.zero(
                            kp_field(p), 3, 3))
    rc, _ = _run(["double", "--J", "U", "--k", "1", "--p", "7"])
    assert rc == 3
