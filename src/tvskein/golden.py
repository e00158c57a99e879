"""Embedded reference values and the suites that recompute them.

Every suite returns a list of (check name, passed, detail) triples; all
comparisons are exact ring equalities unless a check is explicitly
numeric.  Matrix comparisons allow one simultaneous row/column
permutation (the matching-basis order is a convention, the invariants
are not).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb

from .cyclo import CycloElem, reduce_to_kp
from .laurent import LaurentPoly

from .polyalg import RingPoly, power_sums, tensor_product
from .rings import MPoly, MPolyRing, kp_field
from .skein import closure_B, transfer_Q
from .tqft import (branched_d1_identity, branched_series,
                   colored_double_invariant, connected_sum, cover_series,
                   double_invariant, make_invariant, s_kd, witten_check)


def _kp(p, text, grade=0):
    return reduce_to_kp(LaurentPoly.parse(text), p, grade)


def _poly5(const_text, lin_text):
    k5 = kp_field(5)
    return RingPoly(k5, [_kp(5, const_text), _kp(5, lin_text), CycloElem.one(5)])


# -- printed reference data ---------------------------------------------------

EX45_Q = [["-1 - A^-4", "-A^-2 + A^6"],
          ["A^-10 - A^-6 + 3*A^-2 + A^2 - A^6 + 2*A^10 - A^14",
           "A^-12 - A^-8 + 2 - 2*A^4 + A^12 - A^16"]]
EX45_B = [["-A^-8 - 2*A^-4 - 2 - 2*A^4 - A^8", "A^2 + 2*A^6 + A^10"],
          ["A^-10 + 3*A^-6 + 4*A^-2 + 4*A^2 + 3*A^6 + A^10",
           "A^-16 - A^-8 - A^-4 - 2 - 2*A^4 - 2*A^8 - A^20"]]
EX45_D = "-A^-16 + A^-12 + 2 - 2*A^4 - A^16 + A^20"
EX45_G1 = "-A^-12 + A^-8 + A^-4 - 1 + 2*A^4 - A^12 + A^16"

GAMMA5_TABLES = {
    "RT": [("1 + 2*A^2 - 2*A^3", "-2 + A - 2*A^2 + A^3"),
           ("-A^3", "-2 + A^3"),
           ("1 + A - A^2", "-1 + A - A^2 + 2*A^3"),
           ("1 - 2*A - A^3", "-1 + A"),
           ("-A + A^2 + A^3", "-A")],
    "LT": [("2 - 2*A - A^3", "A^3"),
           ("-1 - A + A^2", "-1 + A - A^2"),
           ("1 + 2*A^2 - A^3", "-1 - A"),
           ("A - A^2 - A^3", "-2 + A - 2*A^2 + 2*A^3"),
           ("1", "-2 + A + A^3")],
    "F8": [("-3 + 2*A - 2*A^2 + 3*A^3", "-A^2"),
           ("3 + 2*A^2 - A^3", "-2 - A^2"),
           ("1 - 2*A - A^3", "-2 - A^2 + 2*A^3"),
           ("1 + 2*A^2 - A^3", "-2 + 2*A - A^2 + 2*A^3"),
           ("1 - 2*A - 3*A^3", "A^2")],
    "RT#LT": [("-6 + 4*A - 4*A^2 + 6*A^3", "-A + A^2 - 2*A^3"),
              ("6 + A + A^2", "-1 - A - 2*A^2 + A^3"),
              ("1 - 5*A + A^2 - 2*A^3", "-4 + 2*A - 2*A^2 + 2*A^3"),
              ("2 - A + 5*A^2 - A^3", "-1 + A^2 + 2*A^3"),
              ("-A - A^2 - 6*A^3", "2*A - A^2 + A^3")],
}

PROP75 = {0: None, 1: "1", 2: "1 - A^3", 3: "1 - A - A^3", 4: "-A^2"}

RT_COVER_CYCLE = ["-A^4", "A^3", "2*A^2", "A", "-1", "-2*A^-1", "A^3", "-A^2",
                  "-2*A", "-1", "A^-1", "-2*A^3", "-A^2", "A", "2"]

COVERS_81_D17 = "188 + 152*A + 136*A^2"
BRANCHED_81_D17 = "1175 + 762*A + 1123*A^2"


def _perm_variants(mat):
    """A 2x2 matrix and its simultaneous row/column swap."""
    yield mat
    yield [[mat[1][1], mat[1][0]], [mat[0][1], mat[0][0]]]


def _matrix_equal_upto_perm(got, expect_texts):
    exp = [[LaurentPoly.parse(t) for t in row] for row in expect_texts]
    g = [[got[i, j] for j in range(got.cols)] for i in range(got.rows)]
    for cand in _perm_variants(exp):
        if all(g[i][j] == cand[i][j] for i in range(2) for j in range(2)):
            return True
    return False


# -- suites -------------------------------------------------------------------


def suite_example45():
    from .data import example45_word
    out = []
    word = example45_word()
    if word is None:
        return [("example45: reference tangle word available", False,
                 "no slice word reproducing the reference matrices is bundled")]
    q = transfer_Q(word)
    b = closure_B(word)
    out.append(("Q(T) matches up to permutation",
                _matrix_equal_upto_perm(q, EX45_Q), None))
    out.append(("B(T) matches up to permutation",
                _matrix_equal_upto_perm(b, EX45_B), None))
    from .tqft import tangle_invariant
    ti = tangle_invariant(word)
    out.append(("D(L) exact", ti.constant_term == LaurentPoly.parse(EX45_D),
                str(ti.constant_term)))
    gamma = RingPoly(ti.gamma.ring, [LaurentPoly.parse(EX45_D),
                                     LaurentPoly.parse(EX45_G1),
                                     LaurentPoly.one()])
    out.append(("Gamma(L) exact", ti.gamma == gamma, str(ti.gamma)))
    out.append(("wrapping number is four", ti.wrapping == 4, ti.wrapping))
    return out


def suite_prop510():
    out = []
    k5 = kp_field(5)
    one = CycloElem.one(5)
    targets = {
        0: RingPoly(k5, [-one, one]),
        1: _poly5("1", "-A - A^-1"),
        2: _poly5("A^-1", "-1 - A^-1"),
        3: _poly5("A^-1", "-1 - A^-2"),
        4: _poly5("A^-2", "-A^-1"),
    }
    for k in range(5):
        inv = double_invariant("U", k, 5)
        out.append((f"Gamma_5(D_(5n+{k})(U)) exact",
                    inv.gamma == targets[k], str(inv.gamma)))
    inv1 = double_invariant("U", 1, 5)
    e_exp = [cmath.exp(-1j * cmath.pi / 5), cmath.exp(1j * cmath.pi / 5)]
    ok = _multiset_close(inv1.numeric_eigen, e_exp)
    out.append(("eigenvalues at k=1 are A, Abar", ok, None))
    inv2 = double_invariant("U", 2, 5)
    ok = _multiset_close(inv2.numeric_eigen, [1, cmath.exp(-1j * cmath.pi / 5)])
    out.append(("eigenvalues at k=2 are 1, Abar", ok, None))
    inv4 = double_invariant("U", 4, 5)
    prim15 = [cmath.exp(1j * cmath.pi * (1 / 3 - 1 / 5)),
              cmath.exp(-1j * cmath.pi * (1 / 3 + 1 / 5))]
    ok = _multiset_close(inv4.numeric_eigen, prim15)
    ok = ok and all(abs(z ** 15 - 1) < 1e-9 and abs(z ** 5 - 1) > 1e-3
                    and abs(z ** 3 - 1) > 1e-3 for z in inv4.numeric_eigen)
    out.append(("eigenvalues at k=4 are primitive 15th roots", ok, None))
    out.append(("period certificate k=4 -> 15", inv4.period == 15, inv4.period))
    out.append(("period certificate k=1 -> 10", inv1.period == 10, inv1.period))
    return out


def _multiset_close(got, expect, tol=1e-9):
    got = list(got)
    for e in expect:
        hit = None
        for i, g in enumerate(got):
            if abs(g - e) < tol:
                hit = i
                break
        if hit is None:
            return False
        got.pop(hit)
    return not got


def suite_gamma5_tables():
    out = []
    for j_name, rows in GAMMA5_TABLES.items():
        for k, (c0, c1) in enumerate(rows):
            inv = double_invariant(j_name, k, 5)
            target = _poly5(c0, c1)
            out.append((f"Gamma_5(D_(5n+{k})({j_name}))",
                        inv.gamma == target, str(inv.gamma)))
    return out


def suite_p2p6():
    out = []
    k2, k6 = kp_field(2), kp_field(6)
    x2 = RingPoly(k2, [CycloElem.one(2), -CycloElem.one(2), CycloElem.one(2)])
    x6 = RingPoly(k6, [CycloElem.one(6), -CycloElem.one(6), CycloElem.one(6)])
    for j_name in ("U", "RT", "F8"):
        for k in (0, 1, 2, 3):
            inv2 = double_invariant(j_name, k, 2)
            inv6 = double_invariant(j_name, k, 6)
            if k % 2 == 0:
                ok2 = inv2.flat_rank == 1 and inv2.gamma.degree() == 1 \
                    and inv2.gamma.coeff(0) == -CycloElem.one(2)
                ok6 = inv6.flat_rank == 1 and inv6.gamma.coeff(0) == -CycloElem.one(6)
            else:
                ok2 = inv2.gamma == x2
                ok6 = inv6.gamma == x6
            out.append((f"Z_2(D_{k}({j_name}))", ok2, str(inv2.gamma)))
            out.append((f"Z_6(D_{k}({j_name}))", ok6, str(inv6.gamma)))
    return out


def suite_tensor512():
    out = []
    inv = double_invariant("U", 9, 10)
    k10 = kp_field(10)
    a = CycloElem.a_power(10, 1)
    target = RingPoly(k10, [-(a ** 6), -(a ** 2), CycloElem.zero(10),
                            a ** 4, CycloElem.one(10)])
    out.append(("Gamma_10 of the odd 4-twisted double is the printed quartic",
                inv.gamma == target, str(inv.gamma)))
    # the same quartic as an explicit composed product
    i_part = RingPoly(k10, [CycloElem.one(10), -CycloElem.one(10), CycloElem.one(10)])
    j_part = RingPoly(k10, [a ** 8, a ** 4, CycloElem.one(10)])
    out.append(("composed product of the level factors",
                tensor_product(i_part, j_part) == target, None))
    return out


def suite_appendixA():
    out = []
    r4 = MPolyRing(4)
    a0, a1, b0, b1 = (MPoly.var(4, i) for i in range(4))
    one = r4.one
    p1 = RingPoly(r4, [a0, one])
    q1 = RingPoly(r4, [b0, one])
    out.append(("deg 1 x deg 1",
                tensor_product(p1, q1) == RingPoly(r4, [-(a0 * b0), one]), None))
    q2 = RingPoly(r4, [b0, b1, one])
    out.append(("deg 1 x deg 2",
                tensor_product(p1, q2) == RingPoly(r4, [a0 * a0 * b0, -(a0 * b1), one]),
                None))
    p2 = RingPoly(r4, [a0, a1, one])
    rhs = RingPoly(r4, [a0 * a0 * b0 * b0, -(a0 * a1 * b0 * b1),
                        a0 * b1 * b1 + a1 * a1 * b0 - 2 * a0 * b0,
                        -(a1 * b1), one])
    out.append(("deg 2 x deg 2", tensor_product(p2, q2) == rhs, None))
    return out


def suite_covers_rt():
    out = []
    cov = cover_series("U", -1, 5, range(1, 16))
    ok = all(rec.value == _kp(5, t) for rec, t in zip(cov, RT_COVER_CYCLE))
    out.append(("fifteen-value cycle exact", ok, None))
    rec6 = cov[5]
    out.append(("three-torus value 2 after the kappa correction",
                rec6.corrected == CycloElem.from_int(5, 2)
                and rec6.sigma_d == -8, rec6.sigma_d))
    cov90 = cover_series("U", -1, 5, range(1, 91))
    v = {r.d: r.value for r in cov90}
    out.append(("cover values have period 15",
                all(v[d] == v[d + 15] for d in range(1, 76)), None))
    # the (6.5) closed form for the untwisted double of the figure eight
    g = double_invariant("F8", 0, 5).gamma
    lam = _kp(5, "-1 + 12*A + 12*A^-1 - 8*A^2 - 8*A^-2")
    ok = True
    for d in range(1, 13):
        acc = CycloElem.zero(5)
        for r in range(0, d // 2 + 1):
            acc = acc + lam ** r * ((-1) ** r * comb(d, 2 * r))
        closed = CycloElem.a_power(5, 2 * d) * acc * Fraction(1, 2 ** (d - 1))
        ok = ok and power_sums(g, d)[d] == closed
    out.append(("binomial closed form equals the recursion, d <= 12", ok, None))
    # the level-6 and level-2 tables for d <= 24
    ok6 = ok2 = True
    for k in (0, 1, 2, 3):
        for rec in cover_series("RT", k, 6, range(1, 25)):
            ok6 = ok6 and rec.value == CycloElem.from_int(6, s_kd(k, rec.d))
        for rec in cover_series("RT", k, 2, range(1, 25)):
            ok2 = ok2 and rec.value == CycloElem.from_int(2, s_kd(k, rec.d))
    out.append(("level-6 cover table, d <= 24", ok6, None))
    out.append(("level-2 cover table, d <= 24", ok2, None))
    return out


def suite_covers_81():
    out = []
    rec = cover_series("U", 3, 5, [17])[0]
    out.append(("d = 17 cover of the 3-twisted double exact",
                rec.value == _kp(5, COVERS_81_D17), rec.value.apart_str()))
    return out


def suite_colored75():
    out = []
    for k in range(5):
        inv = colored_double_invariant("U", k, 5, 2)
        if PROP75[k] is None:
            out.append((f"color-2 value at k={k} vanishes",
                        inv.flat_rank == 0, inv.flat_rank))
        else:
            val = -inv.gamma.coeff(0)
            out.append((f"color-2 value at k={k}",
                        inv.flat_rank == 1 and val == _kp(5, PROP75[k]),
                        str(inv.gamma)))
    for c in (1, 3):
        inv = colored_double_invariant("U", 2, 5, c)
        out.append((f"odd color {c} vanishes", inv.flat_rank == 0, None))
    for c in (2,):
        inv = colored_double_invariant("U", 0, 7, c)
        out.append((f"unknot color-{c} invariant vanishes at p=7",
                    inv.flat_rank == 0, None))
    return out


def suite_eigen76():
    out = []
    k5 = kp_field(5)
    one = CycloElem.one(5)
    a = CycloElem.a_power(5, 1)
    ab = CycloElem.a_power(5, -1)

    def color_map(k):
        return {c: colored_double_invariant("U", k, 5, c) for c in (0, 2)}

    rt = color_map(-1)
    f8 = color_map(1)
    lt = {c: make_invariant(inv.matrix.bar(), 5) for c, inv in rt.items()}
    cases = {
        "RT#LT": (connected_sum(rt, lt, 5),
                  RingPoly(k5, [-one, one]) ** 3 * RingPoly(k5, [one, one, one]),
                  [1, 1, 1, cmath.exp(2j * cmath.pi / 3),
                   cmath.exp(-2j * cmath.pi / 3)]),
        "F8#F8": (connected_sum(f8, f8, 5),
                  RingPoly(k5, [-one, one]) ** 3
                  * RingPoly(k5, [one, -(a ** 2 + ab ** 2), one]),
                  [1, 1, 1, cmath.exp(2j * cmath.pi / 5),
                   cmath.exp(-2j * cmath.pi / 5)]),
        "RT#RT": (connected_sum(rt, rt, 5),
                  RingPoly(k5, [-(a ** 4), one])
                  * RingPoly(k5, [-(ab ** 2), one]) ** 2
                  * RingPoly(k5, [ab ** 4, ab ** 2, one]),
                  [cmath.exp(4j * cmath.pi / 5),
                   cmath.exp(-2j * cmath.pi / 5),
                   cmath.exp(-2j * cmath.pi / 5),
                   cmath.exp(1j * (2 * cmath.pi / 3 - 2 * cmath.pi / 5)),
                   cmath.exp(-1j * (2 * cmath.pi / 3 + 2 * cmath.pi / 5))]),
    }
    for name, (inv, cert, eig) in cases.items():
        out.append((f"{name}: exact eigenvalue certificate",
                    inv.gamma == cert, str(inv.gamma)))
        out.append((f"{name}: numeric multiset within 1e-9",
                    _multiset_close(inv.numeric_eigen, eig), None))
    u = color_map(0)
    ku = connected_sum(rt, u, 5)
    out.append(("K # U = K", ku.gamma == double_invariant("U", -1, 5).gamma, None))
    return out


def suite_branched8():
    out = []
    a = CycloElem.a_power(5, 1)
    ab = CycloElem.a_power(5, -1)
    one = CycloElem.one(5)
    c2 = _kp(5, "1 - A + A^4")

    g_rt = double_invariant("U", -1, 5).gamma
    recs = branched_series("U", -1, 5, range(1, 13))
    ok = all(rec.normalized ==
             power_sums(g_rt, rec.d)[rec.d] + ((-1) ** rec.d) * c2 * a ** (2 * rec.d)
             for rec in recs)
    out.append(("trefoil branched family, d <= 12", ok, None))

    recs = branched_series("U", 1, 5, range(1, 13))
    ok = all(rec.normalized == a ** rec.d + ab ** rec.d + c2 for rec in recs)
    out.append(("figure-eight branched family, d <= 12", ok, None))

    z = _kp(5, "1 - A^3")
    recs = branched_series("U", 2, 5, range(1, 13))
    ok = all(rec.normalized == one + ab ** rec.d + c2 * z ** rec.d for rec in recs)
    out.append(("stevedore branched family, d <= 12", ok, None))

    g_df8 = double_invariant("F8", 0, 5).gamma
    w = _kp(5, "A^3 + A^4")
    recs = branched_series("F8", 0, 5, range(1, 13))
    ok = all(rec.normalized ==
             power_sums(g_df8, rec.d)[rec.d] + c2 * w ** rec.d for rec in recs)
    out.append(("untwisted double of the figure eight, d <= 12", ok, None))

    rec = branched_series("U", 3, 5, [17])[0]
    out.append(("branched d = 17 value of the 3-twisted double",
                rec.normalized == _kp(5, BRANCHED_81_D17),
                rec.normalized.apart_str()))

    for p in (5, 6, 7, 8):
        out.append((f"d = 1 trace identity at p={p}",
                    branched_d1_identity("U", 3, p), None))
    for j_name in ("F8", "RT"):
        out.append((f"d = 1 trace identity at p=5 for D_0({j_name})",
                    branched_d1_identity(j_name, 0, 5), None))

    recs = branched_series("RT", 1, 3, [1, 4, 7])
    out.append(("level-3 branched value is -1",
                all(r.value == CycloElem.from_int(3, -1) for r in recs), None))

    recs = branched_series("U", 1, 5, range(1, 91))
    v = {r.d: r.normalized for r in recs}
    out.append(("figure-eight branched period 10",
                all(v[d] == v[d + 10] for d in range(1, 81)), None))
    recs = branched_series("U", -1, 5, range(1, 91))
    v = {r.d: r.normalized for r in recs}
    out.append(("trefoil branched period 30",
                all(v[d] == v[d + 30] for d in range(1, 61)), None))
    return out


def suite_witten11():
    out = []
    for r in (3, 4, 5, 6, 7):
        res = witten_check(r)
        for knot, (ok, cp, gam) in res.items():
            out.append((f"torus-bundle matrix vs Gamma_{2*r}({knot})", ok,
                        str(cp) if not ok else None))
    return out


SUITES = {
    "example45": suite_example45,
    "prop510": suite_prop510,
    "gamma5-tables": suite_gamma5_tables,
    "p2p6": suite_p2p6,
    "tensor512": suite_tensor512,
    "covers-rt": suite_covers_rt,
    "covers-81": suite_covers_81,
    "colored75": suite_colored75,
    "eigen76": suite_eigen76,
    "branched8": suite_branched8,
    "witten11": suite_witten11,
    "appendixA": suite_appendixA,
}


def golden_suite(name):
    """Run one bundled suite; returns (all passed, list of checks)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    checks = SUITES[name]()
    return all(ok for _, ok, _ in checks), checks
