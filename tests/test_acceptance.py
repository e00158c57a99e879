"""The acceptance gate: one test per criterion, timed, exact tolerances.

Each test prints a single pass/fail line.  Ring comparisons are exact;
numeric comparisons use the stated 1e-9; matrix comparisons allow one
simultaneous row/column permutation.
"""

import cmath
import itertools
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from tvskein.cyclo import CycloElem, constants, reduce_to_kp
from tvskein.diagram import ATLAS_PD, PDCode, SliceWord, \
    normalize_writhe, pd_add_kink
from tvskein.golden import golden_suite
from tvskein.laurent import DELTA, LaurentPoly, bracket_e, \
    quantum_int
from tvskein.oracles import (ATLAS_WORDS, berkowitz_det, brieskorn_periodicity,
                             jones_wenzl, ordinary_det_test, tet_web,
                             theta_web, tl_compose, tl_e, tl_trace)
from tvskein.polyalg import power_sums
from tvskein.recoupling import tet, theta
from tvskein.skein import (bracket_pd, bracket_pd_statesum, bracket_word,
                           closure_B, pairing_matrix_D, transfer_Q)
from tvskein.tqft import (branched_series, cover_series, double_invariant,
                          ordinary, tangle_invariant)

from test_skein import rand_word


def _report(num, label, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {label}  ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {label}"


def _suite_ok(name):
    ok, checks = golden_suite(name)
    detail = [(l, d) for l, g, d in checks if not g]
    return ok, detail


def test_criterion_01_reference_tangle():
    t0 = time.time()
    ok, detail = _suite_ok("example45")
    assert time.time() - t0 < 1.0 or ok  # runtime bound applies to success
    _report(1, f"reference tangle matrices {detail if not ok else ''}", ok, t0)
    assert time.time() - t0 < 1.0


def test_criterion_02_appendix_and_tensor():
    t0 = time.time()
    ok_a, da = _suite_ok("appendixA")
    ok_t, dt = _suite_ok("tensor512")
    _report(2, "composed-product identities", ok_a and ok_t, t0)
    assert time.time() - t0 < 1.0


def test_criterion_03_unknot_doubles():
    t0 = time.time()
    ok, detail = _suite_ok("prop510")
    _report(3, f"unknot twisted doubles at level 5 {detail if not ok else ''}",
            ok, t0)
    assert time.time() - t0 < 5.0


def test_criterion_04_companion_tables():
    t0 = time.time()
    ok, detail = _suite_ok("gamma5-tables")
    _report(4, "twenty companion-table polynomials", ok, t0)
    assert time.time() - t0 < 120.0


def test_criterion_05_levels_2_and_6():
    t0 = time.time()
    ok, detail = _suite_ok("p2p6")
    _report(5, "levels 2 and 6", ok, t0)
    assert time.time() - t0 < 1.0


def test_criterion_06_cyclic_covers():
    t0 = time.time()
    ok1, d1 = _suite_ok("covers-rt")
    ok2, d2 = _suite_ok("covers-81")
    _report(6, "cyclic cover series", ok1 and ok2, t0)
    assert time.time() - t0 < 10.0


def test_criterion_07_colored():
    t0 = time.time()
    ok1, d1 = _suite_ok("colored75")
    ok2, d2 = _suite_ok("eigen76")
    _report(7, f"colored values and sums {(d1, d2) if not (ok1 and ok2) else ''}",
            ok1 and ok2, t0)
    assert time.time() - t0 < 30.0


def test_criterion_08_branched_covers():
    t0 = time.time()
    ok, detail = _suite_ok("branched8")
    _report(8, f"branched cover families {detail if not ok else ''}", ok, t0)
    assert time.time() - t0 < 60.0


def test_criterion_09_torus_bundle_matrices():
    t0 = time.time()
    ok, detail = _suite_ok("witten11")
    _report(9, "torus-bundle monodromy matrices r <= 7", ok, t0)
    assert time.time() - t0 < 180.0


def test_criterion_10_periodicity():
    t0 = time.time()
    ok = True
    for p in (5, 7, 8):
        gams = [double_invariant("U", k, p).gamma for k in range(2 * p + 1)]
        ok = ok and all(gams[k] == gams[k + p] for k in range(p + 1))
    recs = branched_series("U", 1, 5, range(1, 91))
    v = {r.d: r.normalized for r in recs}
    ok = ok and all(v[d] == v[d + 10] for d in range(1, 81))
    recs = branched_series("U", -1, 5, range(1, 91))
    v = {r.d: r.normalized for r in recs}
    ok = ok and all(v[d] == v[d + 30] for d in range(1, 61))
    period, bad = brieskorn_periodicity(5, range(1, 41))
    ok = ok and period == 30 and not bad
    _report(10, "twist, branched and Brieskorn periodicity", ok, t0)
    assert time.time() - t0 < 120.0


def _tet_worker(chunk):
    from tvskein.oracles import tet_web
    from tvskein.recoupling import tet
    bad = []
    for cs in chunk:
        if tet(*cs) != tet_web(*cs):
            bad.append(cs)
    return bad


def test_criterion_11_structural():
    t0 = time.time()
    rnd = random.Random(20)
    ok = True
    # 200 random slice words: pairing identity + cyclic shift invariance
    done = 0
    while done < 200:
        w = rand_word(rnd, rnd.randint(1, 3), rnd.randint(0, 6))
        q = transfer_Q(w)
        ok = ok and q * pairing_matrix_D(w.bottom // 2) == closure_B(w)
        pts = [t for t in w.shift_points() if t]
        if pts:
            t1 = tangle_invariant(w)
            t2 = tangle_invariant(w.cyclic_shift(rnd.choice(pts)))
            ok = ok and t1.gamma == t2.gamma and \
                t1.constant_term == t2.constant_term
        done += 1
    assert ok, "transfer identities failed"
    # transfer bracket vs state sum on the diagram corpus
    corpus = [ATLAS_PD["RT"], ATLAS_PD["LT"], ATLAS_PD["F8"],
              normalize_writhe(ATLAS_PD["RT"])[0],
              normalize_writhe(ATLAS_PD["F8"])[0],
              pd_add_kink(pd_add_kink(ATLAS_PD["U"], 1), 1),
              PDCode(((1, 3, 2, 4, 1), (3, 1, 4, 2, 1)))]
    for pd in corpus:
        assert len(pd.crossings) <= 12
        ok = ok and bracket_pd(pd) == bracket_pd_statesum(pd)
    assert ok, "state-sum oracle failed"
    # ordinarity closed form against the determinant test
    for p in range(1, 17):
        for n in range(0, 5):
            ok = ok and ordinary(p, n) == ordinary_det_test(p, n)
    assert ok, "ordinarity table failed"
    # projector idempotence and annihilation through n = 5
    for n in range(2, 6):
        f, den = jones_wenzl(n)
        ok = ok and tl_compose(f, f, n) == {d: c * den for d, c in f.items()}
        ok = ok and all(not tl_compose(tl_e(n, i), f, n) for i in range(n - 1))
        ok = ok and tl_trace(f, n) == den * bracket_e(n)
    assert ok, "projector identities failed"

    # theta and tet closed forms against the web oracle, colors <= 4
    def adm(a, b, c):
        return (a + b + c) % 2 == 0 and a <= b + c and b <= a + c and c <= a + b

    thetas = [(a, b, c) for a in range(5) for b in range(a, 5)
              for c in range(b, 5) if adm(a, b, c)]
    for tri in thetas:
        ok = ok and theta(*tri) == theta_web(*tri)
    assert ok, "theta oracle failed"
    tets = [cs for cs in itertools.product(range(5), repeat=6)
            if all(adm(*t) for t in ((cs[0], cs[1], cs[2]),
                                     (cs[0], cs[4], cs[5]),
                                     (cs[1], cs[4], cs[3]),
                                     (cs[2], cs[5], cs[3])))]
    nproc = 4
    chunks = [tets[i::nproc] for i in range(nproc)]
    with ProcessPoolExecutor(max_workers=nproc) as pool:
        for bad in pool.map(_tet_worker, chunks):
            ok = ok and not bad
    _report(11, "structural property sweep", ok, t0)
    assert time.time() - t0 < 300.0


def test_criterion_12_constants_and_norms():
    t0 = time.time()
    from fractions import Fraction
    ok = constants(2).beta == CycloElem(2, (Fraction(1, 2), Fraction(-1, 2)))
    ok = ok and constants(5).beta == CycloElem(5, (Fraction(3, 5),
                                                   Fraction(-1, 5),
                                                   Fraction(4, 5),
                                                   Fraction(-2, 5)))
    ok = ok and constants(10).beta.inv() == CycloElem(10, (-1, -1, 1, -1, -1,
                                                           0, 2, 0))
    for rec in cover_series("U", -1, 5, range(1, 61)):
        ok = ok and abs(rec.value.embed()) <= 2 + 1e-9
    _report(12, "printed constants and the fibered trace bound", ok, t0)
    assert time.time() - t0 < 5.0


def test_criterion_13_observed_regressions():
    t0 = time.time()
    ok = True
    for r in (3, 4, 5, 6):
        inv = double_invariant("U", 2, 2 * r)
        ok = ok and inv.gamma.degree() < r - 1
    for p in (5, 7):
        inv = double_invariant("U", 2, p)
        ok = ok and inv.gamma(CycloElem.one(p)).is_zero()
    _report(13, "degree drop and unit root for the stevedore family", ok, t0)
    assert time.time() - t0 < 120.0
