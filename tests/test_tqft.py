import cmath
import random

import pytest

from tvskein.cyclo import CycloElem, constants, map_j, reduce_to_kp
from tvskein.diagram import SliceWord
from tvskein.laurent import LaurentFrac, LaurentPoly
from tvskein.matring import RingMatrix, berkowitz_det, flat_decompose
from tvskein.polyalg import RingPoly, numeric_roots, power_sums
from tvskein.rings import QA, ZA, kp_field
from tvskein.skein import catalan, closure_B, pairing_matrix_D, transfer_Q
from tvskein.tqft import (ColorData, UnsupportedSpecialization, _frac_to_kp,
                          branched_series, colored_double_invariant,
                          cover_series, double_invariant, general_double,
                          ordinary, ordinary_det_test, s_kd,
                          seifert_matrix_double, signature_at, tangle_invariant,
                          tau5_sigma_independent, tau5_value, total_signature,
                          witten_check, z5_color2_scalar)

from test_skein import rand_word


def test_ordinary_closed_form_vs_det():
    for p in range(1, 17):
        for n in range(0, 5):
            assert ordinary(p, n) == ordinary_det_test(p, n), (p, n)
    assert ordinary(10, 2) and not ordinary(6, 2)
    # 2r is special with respect to r - 1
    for r in (2, 3, 4):
        assert not ordinary(2 * r, r - 1) or r - 1 == 0


def test_color_data():
    cd = ColorData.at(5)
    assert cd.q == 4 and cd.good_colors() == [0, 2]
    assert cd.S(2) == [2] and cd.S(0) == [0, 2]
    cd8 = ColorData.at(8)
    assert cd8.q == 3 and cd8.good_colors() == [0, 1, 2]
    assert cd8.S(2) == [1]
    assert not cd8.small(2, 2, 2)       # sum = 2q is not small


def test_identity_tangle():
    w = SliceWord(4, ())
    ti = tangle_invariant(w)
    # normalized charpoly of the identity is (x-1)^c(n)
    x = RingPoly(ti.gamma.ring, [LaurentPoly({0: -1}), LaurentPoly.one()])
    assert ti.gamma == x * x
    assert ti.flat_rank == catalan(2)


def test_cyclic_shift_invariance():
    rnd = random.Random(12)
    done = 0
    while done < 30:
        w = rand_word(rnd, rnd.randint(1, 3), rnd.randint(1, 6))
        pts = [t for t in w.shift_points() if t]
        if not pts:
            continue
        t1 = tangle_invariant(w)
        t2 = tangle_invariant(w.cyclic_shift(rnd.choice(pts)))
        assert t1.gamma == t2.gamma
        assert t1.constant_term == t2.constant_term
        done += 1


def test_special_p_raises():
    w = SliceWord(4, ())
    with pytest.raises(UnsupportedSpecialization):
        tangle_invariant(w, 6)      # p = 6 is special with respect to n = 2
    tangle_invariant(w, 10)         # ordinary level works


def test_wrapping_of_straight_strands():
    w = SliceWord(4, ())
    ti = tangle_invariant(w)
    assert ti.wrapping == 4 and ti.wrapping_bound_ok


def test_double_trivial_levels():
    for p in (1, 3, 4):
        inv = double_invariant("RT", 2, p)
        assert inv.flat_rank == 1
        assert inv.gamma.degree() == 1


def test_general_matches_closed_form_level5():
    for j_name in ("U", "RT"):
        for k in (0, 2):
            gen = general_double(j_name, k, 5)
            fast = double_invariant(j_name, k, 5)
            assert gen.gamma == fast.gamma
            assert gen.constant_term == fast.constant_term


def test_twist_periodicity_in_k():
    # Gamma_p(D_k(U)) has period p in k, exhaustively for k = 0..2p
    for p in (5, 7, 8):
        gammas = [double_invariant("U", k, p).gamma for k in range(2 * p + 1)]
        for k in range(p + 1):
            assert gammas[k] == gammas[k + p], (p, k)


def test_colored_periodicity_in_k():
    vals = [colored_double_invariant("U", k, 7, 2).gamma for k in range(0, 15)]
    for k in range(8):
        assert vals[k] == vals[k + 7]


def test_colored_hypothesis_error_reporting():
    # <U_c> = <e_c> never vanishes at these levels, so build a failing case
    # by hand: at p = 3 the basis is {e_0} and nothing vanishes; instead
    # check that odd colors vanish and that bad colors raise
    for c in (1, 3):
        inv = colored_double_invariant("U", 1, 5, c)
        assert inv.flat_rank == 0                # odd colors vanish
    from tvskein.recoupling import ColorError
    with pytest.raises(ColorError):
        colored_double_invariant("U", 1, 5, 4)   # out of color range at p=5


def test_color2_scalar_reading():
    # the derived parenthesization matches the printed color-2 values;
    # the literal one does not (recorded mismatch)
    pack = constants(5)
    target = reduce_to_kp(LaurentPoly.parse("1 - A^3"), 5)
    assert z5_color2_scalar("U", 2) == target
    from tvskein.skein import knot_scalars
    s = knot_scalars("U")
    mu = pack.mu[1]
    one = CycloElem.one(5)
    a, ab = CycloElem.a_power(5, 1), CycloElem.a_power(5, -1)
    bk = reduce_to_kp(s.b_k(2), 5)
    literal = (a + ab) * (pack.beta * (one + mu ** 5) * bk - one)
    assert literal != target


def test_signatures():
    v_rt = seifert_matrix_double(-1)
    assert signature_at(v_rt, 1, 2).sigma == -2
    assert total_signature(v_rt, 1) == 0
    assert total_signature(v_rt, 6) == -8
    # degenerate omega flagged at the sixth roots of unity
    assert signature_at(v_rt, 1, 6).degenerate
    # periodic-monodromy congruence: sigma_(s+1) = sigma_7 = 0 mod 8
    assert total_signature(v_rt, 7) % 8 == 0
    # nonnegative twisting gives identically zero signatures
    for k in (0, 1, 2, 3):
        assert total_signature(seifert_matrix_double(k), 9) == 0


def test_fibered_unit_circle_and_trace_norm():
    # roots of Gamma_5 for the fibered doubles lie on the unit circle
    for k in (1, 4):
        inv = double_invariant("U", k, 5)
        assert all(abs(abs(z) - 1) < 1e-9 for z in inv.numeric_eigen)
    # |cover values| <= rank V_5(torus) = 2 for d <= 60
    for k, name in ((-1, "RT"), (1, "F8")):
        for rec in cover_series("U", k, 5, range(1, 61)):
            assert abs(rec.value.embed()) <= 2 + 1e-9, (name, rec.d)


def test_mirror_symmetry_of_invariants():
    # the figure-eight classes are bar-invariant
    inv = double_invariant("U", 1, 5)
    assert inv.gamma.bar() == inv.gamma
    # bar of the trefoil class is the mirror class
    rt = double_invariant("U", -1, 5)
    from tvskein.tqft import make_invariant
    lt = make_invariant(rt.matrix.bar(), 5)
    assert lt.gamma == rt.gamma.bar()


def test_degree_drop_for_stevedore_family():
    # deg Gamma_2r(D_2(U)) < r - 1 for 3 <= r <= 6
    for r in (3, 4, 5, 6):
        inv = double_invariant("U", 2, 2 * r)
        assert inv.gamma.degree() < r - 1, (r, str(inv.gamma))


def test_one_is_root_for_stevedore():
    for p in (5, 7):
        inv = double_invariant("U", 2, p)
        val = inv.gamma(CycloElem.one(p))
        assert val.is_zero(), p


def test_tensor_consistency_level10():
    inv10 = double_invariant("U", 3, 10)
    inv5 = double_invariant("U", 3, 5)
    ps10 = power_sums(inv10.gamma, 8)
    ps5 = power_sums(inv5.gamma, 8)
    from tvskein.tqft import s_kd
    for d in range(1, 9):
        assert ps10[d] == map_j(ps5[d], 5) * s_kd(3, d)


def test_tau5():
    a, b = tau5_sigma_independent("U", 1, 3)
    assert abs(a - b) < 1e-9
    v = tau5_value("U", 1, 3)
    assert abs(v - a) < 1e-9


def test_branched_unsupported_level():
    with pytest.raises(ValueError):
        branched_series("U", 1, 2, [1])


def test_trace_powers_match_newton_on_invariants():
    # Prop 1.7 route (matrix powers) equals the recursion from Gamma
    from tvskein.matring import trace_powers
    for j_name, k, p in (("U", 3, 5), ("RT", 1, 5), ("U", 1, 8)):
        inv = double_invariant(j_name, k, p)
        deg = max(inv.gamma.degree(), 1)
        tp = trace_powers(inv.matrix, 2 * deg)
        ps = power_sums(inv.gamma, 2 * deg)
        assert all(tp[d] == ps[d] for d in range(1, 2 * deg + 1))
    # the printed d = 17 value through the matrix-power route
    inv = double_invariant("U", 3, 5)
    tp = trace_powers(inv.matrix, 17)
    assert tp[17] == reduce_to_kp(LaurentPoly.parse("188 + 152*A + 136*A^2"), 5)


def test_matrix_periods_exact_powering():
    from tvskein.matring import matrix_period
    inv4 = double_invariant("U", 4, 5)
    assert matrix_period(inv4.matrix, 20) == 15
    inv_rt = double_invariant("U", -1, 5)
    m = matrix_period(inv_rt.matrix, 20)
    assert m is not None and 15 % m == 0


def test_invariant_factors_lazy(monkeypatch):
    import tvskein.tqft as tqft
    from tvskein.matring import flat_decompose, similarity_invariants
    calls = []

    def counted(mat):
        calls.append(mat)
        return similarity_invariants(mat)

    monkeypatch.setattr(tqft, "similarity_invariants", counted)
    inv = double_invariant("U", 1, 7)
    assert calls == []
    expect = similarity_invariants(flat_decompose(inv.matrix).flat_matrix)
    assert inv.invariant_factors == expect
    assert inv.invariant_factors == expect
    assert len(calls) == 1


def test_invariant_factors_stable_under_shift():
    rnd = random.Random(21)
    done = 0
    while done < 10:
        w = rand_word(rnd, 2, rnd.randint(1, 5))
        pts = [t for t in w.shift_points() if t]
        if not pts:
            continue
        from tvskein.matring import flat_decompose, similarity_invariants
        from tvskein.laurent import LaurentFrac
        from tvskein.rings import QA
        from tvskein.skein import transfer_Q
        q1 = transfer_Q(w).map(lambda x: LaurentFrac(x), QA)
        q2 = transfer_Q(w.cyclic_shift(rnd.choice(pts))).map(
            lambda x: LaurentFrac(x), QA)
        f1 = similarity_invariants(flat_decompose(q1).flat_matrix)
        f2 = similarity_invariants(flat_decompose(q2).flat_matrix)
        assert f1 == f2
        done += 1


class _SyntheticScalars:
    """Stand-in companion data: <J_r> is an arbitrary Laurent polynomial."""

    name = "synthetic"

    def __init__(self, seed):
        self.seed = seed

    def colored(self, r):
        rnd = random.Random(self.seed * 100 + r)
        return LaurentPoly({rnd.randint(-12, 12): rnd.randint(-4, 4)
                            for _ in range(4)} or {0: 1})


def _literal_general_B(s, k, p):
    """B(J, k) as the printed quadruple sum over (s, r, r')."""
    from tvskein.recoupling import full_twist
    cd = ColorData.at(p)
    pack = constants(p)
    n = pack.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = CycloElem.zero(p)
            for sc in range(n):
                tw = pack.mu[sc] ** ((2 * k + 1) % (4 * p))
                inner = CycloElem.zero(p)
                for r in cd.colors():
                    if not cd.small(i, r, sc):
                        continue
                    t1 = reduce_to_kp(full_twist(r, i, sc), p) * \
                        reduce_to_kp(s.colored(r), p)
                    for rp in cd.colors():
                        if not cd.small(j, rp, sc):
                            continue
                        t2 = reduce_to_kp(full_twist(rp, j, sc), p) \
                            ** (k % (2 * p)) * reduce_to_kp(s.colored(rp), p)
                        inner = inner + t1 * t2 * pack.bracket_e[sc].inv()
                acc = acc + pack.bracket_e[sc] * tw * inner
            row.append(acc * pack.beta)
        rows.append(row)
    return rows


def _literal_colored_B(s, k, p, c):
    """The colored B matrix as the printed quadruple sum over (s, r, r')."""
    from tvskein.laurent import LaurentFrac
    from tvskein.recoupling import full_twist, tet, theta
    cd = ColorData.at(p)
    pack = constants(p)
    S = cd.S(c)
    rows = []
    for i in S:
        row = []
        for j in S:
            acc = CycloElem.zero(p)
            for sc in range(pack.n):
                if not cd.small(c, sc, sc):
                    continue
                tw = pack.mu[sc] ** ((2 * k + 1) % (4 * p))
                inner = CycloElem.zero(p)
                for r in cd.colors():
                    if not cd.small(i, r, sc):
                        continue
                    c1 = LaurentFrac(full_twist(r, i, sc)) / theta(r, i, sc) \
                        * tet(c, i, i, r, sc, sc)
                    t1 = _frac_to_kp(c1, p) * reduce_to_kp(s.colored(r), p)
                    for rp in cd.colors():
                        if not cd.small(j, rp, sc):
                            continue
                        c2 = tet(c, j, j, rp, sc, sc) / theta(rp, j, sc) \
                            / theta(c, sc, sc)
                        t2 = _frac_to_kp(c2, p) \
                            * reduce_to_kp(full_twist(rp, j, sc), p) \
                            ** (k % (2 * p)) * reduce_to_kp(s.colored(rp), p)
                        inner = inner + t1 * t2
                acc = acc + pack.bracket_e[sc] * tw * inner
            row.append(acc * pack.beta)
        rows.append(row)
    return rows


def _entries(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


@pytest.mark.parametrize("p", [7, 8, 9])
def test_factorised_B_equals_quadruple_sum(monkeypatch, p):
    import tvskein.tqft as tqft
    from tvskein.tqft import colored_B_matrix, general_B_matrix
    for seed in (None, 1):
        s = tqft._scalars("U") if seed is None else _SyntheticScalars(seed)
        monkeypatch.setattr(tqft, "_scalars", lambda ref, s=s: s)
        for k in (-3, 2, p + 1):
            assert _entries(general_B_matrix("U", k, p)) == \
                _literal_general_B(s, k, p), (p, seed, k)
        for k in (-1, 3):
            assert _entries(colored_B_matrix("U", k, p, 2)) == \
                _literal_colored_B(s, k, p, 2), (p, seed, k)


def test_numeric_eigen_lazy(monkeypatch):
    import tvskein.tqft as tqft
    calls = []

    def counted(gamma):
        calls.append(gamma)
        return numeric_roots(gamma)

    monkeypatch.setattr(tqft, "numeric_roots", counted)
    cover_series("U", 1, 7, range(1, 4))
    branched_series("U", 1, 5, [1, 2])
    inv = double_invariant("U", 1, 5)
    assert calls == []
    eig = inv.numeric_eigen
    assert inv.numeric_eigen is eig and len(eig) == inv.flat_rank
    assert len(calls) == 1


def test_named_checks_in_tensor_split_and_connected_sum(monkeypatch):
    import tvskein.tqft as tqft
    from tvskein.polyalg import InvariantCheckError
    from tvskein.tqft import connected_sum, tensor_double
    blocks = {c: colored_double_invariant("U", 1, 5, c)
              for c in ColorData.at(5).good_colors()}
    # a composed product that cannot match Gamma
    monkeypatch.setattr(tqft, "tensor_product",
                        lambda f, g: RingPoly(f.ring, [f.ring.one] * 2))
    with pytest.raises(InvariantCheckError, match="tensor splitting"):
        tensor_double("U", 1, 10)
    with pytest.raises(InvariantCheckError, match="connected sum"):
        connected_sum(blocks, blocks, 5)


def test_tangle_gamma_and_wrapping_match_QA_oracles():
    # Gamma(L) over Z[A^+-1] against the flat decomposition of Q(T) over
    # Q(A); the wrapping test against the determinant of B(T)
    rnd = random.Random(41)
    singular = 0
    for _ in range(60):
        n = rnd.choice((2, 3))
        w = rand_word(rnd, n, rnd.randint(1, 6))
        ti = tangle_invariant(w)
        fd = flat_decompose(transfer_Q(w).map(LaurentFrac, QA))
        assert ti.gamma == RingPoly(ZA, [c.as_laurent()
                                         for c in fd.gamma.coeffs])
        assert ti.flat_rank == fd.flat_rank
        wraps = not berkowitz_det(closure_B(w)).is_zero()
        assert ti.wrapping == (2 * n if wraps else None)
        singular += not wraps
    assert 0 < singular < 60


def test_pairing_matrix_nonsingular_over_ZA():
    # det D(n) != 0 in Z[A^+-1] (Ko-Smolinsky), so det B(T) = 0 exactly
    # when det Q(T) = 0: the fact the tangle wrapping test rests on
    for n in range(5):
        assert not berkowitz_det(pairing_matrix_D(n)).is_zero(), n


def test_tensor_split_at_level_14():
    # j_7 is a ring map, so the split passes its own check for every twist
    for k in range(-3, 8):
        inv14 = double_invariant("U", k, 14)
        inv7 = double_invariant("U", k, 7)
        ps14 = power_sums(inv14.gamma, 6)
        ps7 = power_sums(inv7.gamma, 6)
        for d in range(1, 7):
            assert ps14[d] == map_j(ps7[d], 7) * s_kd(k, d), (k, d)


def test_singular_pairing_is_unsupported(monkeypatch):
    import tvskein.tqft as tqft
    monkeypatch.setattr(tqft, "general_L_matrix",
                        lambda j_ref, p, cd=None: RingMatrix.zero(
                            kp_field(p), constants(p).n, constants(p).n))
    with pytest.raises(UnsupportedSpecialization, match="singular"):
        general_double("U", 1, 7)
    monkeypatch.setattr(tqft, "colored_L_matrix",
                        lambda j_ref, p, c, cd=None: RingMatrix.zero(
                            kp_field(p), 1, 1))
    with pytest.raises(UnsupportedSpecialization, match="singular"):
        colored_double_invariant("U", 1, 7, 2)
