import cmath
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from tvskein import polyalg
from tvskein.cyclo import CycloElem
from tvskein.data import example45_word
from tvskein.laurent import cyclotomic_poly
from tvskein.matring import RingMatrix, berkowitz_charpoly
from tvskein.oracles import (MPoly, MPolyRing, full_rational_norm,
                             trace_powers)
from tvskein.polyalg import (InvariantCheckError, NormUnavailable, RingPoly,
                             numeric_roots, power_sums, root_periodicity,
                             tensor_product)
from tvskein.rings import QQ, kp_field
from tvskein.tqft import double_invariant, tangle_invariant


def test_power_sums_symbolic():
    r = MPolyRing(2)
    s1, s2 = MPoly.var(2, 0), MPoly.var(2, 1)
    g = RingPoly(r, [s2, -s1, r.one])
    ps = power_sums(g, 3)
    assert ps[1] == s1
    assert ps[2] == s1 * s1 - 2 * s2
    assert ps[3] == s1 * s1 * s1 - 3 * s1 * s2


def test_power_sums_single_root():
    ps = power_sums(RingPoly(QQ, [-1, 1]), 6)
    assert all(ps[d] == 1 for d in range(1, 7))


def test_power_sums_companion_oracle():
    rnd = random.Random(3)
    for _ in range(20):
        coeffs = [Fraction(rnd.randint(-4, 4)) for _ in range(3)] + [Fraction(1)]
        g = RingPoly(QQ, coeffs)
        comp = RingMatrix.zero(QQ, 3, 3)
        for i in range(1, 3):
            comp[i, i - 1] = QQ.one
        for i in range(3):
            comp[i, 2] = -g.coeff(i)
        tp = trace_powers(comp, 12)
        ps = power_sums(g, 12)
        assert all(tp[d] == ps[d] for d in range(1, 13))


def test_tensor_product_examples():
    r = MPolyRing(4)
    a0, a1, b0, b1 = (MPoly.var(4, i) for i in range(4))
    p1 = RingPoly(r, [a0, r.one])
    q2 = RingPoly(r, [b0, b1, r.one])
    assert tensor_product(p1, q2) == RingPoly(r, [a0 * a0 * b0, -(a0 * b1), r.one])
    t = tensor_product(RingPoly(QQ, [-2, 1]), RingPoly(QQ, [-3, 1]))
    assert t == RingPoly(QQ, [-6, 1])
    with pytest.raises(ValueError):
        tensor_product(RingPoly(QQ, [1, 2]), RingPoly(QQ, [-3, 1]))


def companion(poly):
    """Companion matrix of a monic polynomial: its charpoly is ``poly``."""
    n = poly.degree()
    return RingMatrix(poly.ring, [
        [Fraction(int(i == j + 1)) for j in range(n - 1)] + [-poly.coeff(i)]
        for i in range(n)])


def test_tensor_product_properties():
    rnd = random.Random(4)

    def rand_monic(deg):
        return RingPoly(QQ, [Fraction(rnd.randint(-3, 3))
                             for _ in range(deg)] + [Fraction(1)])

    for _ in range(200):
        dp, dq = rnd.randint(1, 3), rnd.randint(1, 3)
        p, q = rand_monic(dp), rand_monic(dq)
        t = tensor_product(p, q)
        assert t.degree() == dp * dq
        assert tensor_product(q, p) == t
        # constant term: resultant-style sign bookkeeping
        ct = ((-1) ** (dp * dq)) * ((-1) ** dp * p.coeff(0)) ** dq * \
            ((-1) ** dq * q.coeff(0)) ** dp
        assert t.coeff(0) == ct
        # roots of t are the products of roots: traces of powers of the
        # Kronecker product of companion matrices, no Newton identities
        kron = companion(p).kron(companion(q))
        assert trace_powers(kron, 12).values == power_sums(t, 12).values

    # associativity on a few triples
    for _ in range(10):
        p, q, r = rand_monic(2), rand_monic(2), rand_monic(1)
        assert tensor_product(tensor_product(p, q), r) == \
            tensor_product(p, tensor_product(q, r))


@pytest.mark.parametrize("ring", [QQ, kp_field(5)], ids=["Q", "k5"])
def test_tensor_product_is_kronecker_charpoly(ring):
    # an oracle independent of power sums: the eigenvalues of A (x) B are
    # the pairwise products of those of A and B
    rnd = random.Random(5)

    def entry():
        if ring is QQ:
            return Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
        return CycloElem(5, tuple(rnd.randint(-2, 2) for _ in range(4)))

    def rand_matrix():
        n = rnd.randint(1, 3)
        return RingMatrix(ring, [[entry() for _ in range(n)] for _ in range(n)])

    for _ in range(40):
        a, b = rand_matrix(), rand_matrix()
        assert berkowitz_charpoly(a.kron(b)) == \
            tensor_product(berkowitz_charpoly(a), berkowitz_charpoly(b))
    assert tensor_product(RingPoly.one(ring), RingPoly(ring, [2, 1])) == \
        RingPoly.one(ring)


def test_numeric_roots_cyclotomic():
    k5 = kp_field(5)
    ab = CycloElem.a_power(5, 1) + CycloElem.a_power(5, -1)
    g = RingPoly(k5, [k5.one, -ab, k5.one])
    roots = numeric_roots(g)
    expect = sorted([cmath.exp(1j * cmath.pi / 5), cmath.exp(-1j * cmath.pi / 5)],
                    key=lambda z: (round(abs(z), 9), round(cmath.phase(z), 9)))
    assert all(abs(a - b) < 1e-9 for a, b in zip(roots, expect))
    # double root
    g2 = RingPoly(QQ, [1, -2, 1])
    assert all(abs(z - 1) < 1e-7 for z in numeric_roots(g2))


def test_named_check_failures(monkeypatch):
    # x^2 + 1 has f'(0) = 0, so a root guess of 0 cannot be polished
    monkeypatch.setattr(polyalg, "_aberth", lambda cs: [0j, 0j])
    with pytest.raises(InvariantCheckError, match="root polishing failed"):
        numeric_roots(RingPoly(QQ, [1, 0, 1]))


def test_root_order_at_minus_one_ignores_noise_sign(monkeypatch):
    # a root at -1 has argument -pi or +pi as the noise in its imaginary
    # part is negative or positive; both sort it last among modulus 1, in
    # the square-free sort and in the sort after the repeated-root split.
    # Over k_12 the Newton polish keeps the noise of the guess -1 -+ 1e-13i
    k12 = kp_field(12)
    a2, a6 = CycloElem.a_power(12, 2), CycloElem.a_power(12, 6)
    plus_one = RingPoly(k12, [k12.one, k12.one])
    simple = plus_one * RingPoly(k12, [-a2, k12.one]) \
        * RingPoly(k12, [-a6, k12.one])
    for gamma in (simple, simple * plus_one):
        orders = []
        for noise in (-1e-13j, 1e-13j):
            guesses = [-1 + noise, cmath.exp(1j * cmath.pi / 6), 1j]
            monkeypatch.setattr(polyalg, "_aberth",
                                lambda cs, g=guesses: g[:len(cs) - 1])
            orders.append([(round(z.real, 6), round(z.imag, 6))
                           for z in numeric_roots(gamma)])
        assert orders[0] == orders[1], orders
        assert orders[0][-1] == (-1, 0), orders


def _pair_up(roots, expect, tol):
    """Whether roots and expect agree as multisets, each within tol."""
    left = list(roots)
    for w in expect:
        if not left:
            return False
        z = min(left, key=lambda z: abs(z - w))
        if abs(z - w) >= tol:
            return False
        left.remove(z)
    return not left


def test_numeric_roots_of_cyclotomic_polynomials():
    for m in range(1, 31):
        expect = [cmath.exp(2j * cmath.pi * k / m)
                  for k in range(1, m + 1) if gcd(k, m) == 1]
        roots = numeric_roots(RingPoly(QQ, cyclotomic_poly(m)))
        assert _pair_up(roots, expect, 1e-9), m


def _random_int_polys():
    rnd = random.Random(13)
    out = []
    for _ in range(200):
        cs = [rnd.randint(-4, 4) for _ in range(rnd.randint(1, 12))]
        cs.append(rnd.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        out.append(cs)
    return out


def test_numeric_roots_satisfy_vieta():
    for cs in _random_int_polys():
        n = len(cs) - 1
        roots = numeric_roots(RingPoly(QQ, cs))
        assert len(roots) == n
        total, prod = sum(roots), 1
        for z in roots:
            prod *= z
        assert abs(total + cs[-2] / cs[-1]) < 1e-8, cs
        assert abs(prod - (-1) ** n * cs[0] / cs[-1]) < 1e-8, cs
        for z in roots:
            acc = 0
            for c in reversed(cs):
                acc = acc * z + c
            assert abs(acc) < 1e-8, cs


def test_numeric_roots_of_large_coefficients_satisfy_vieta():
    # coefficients near 1e9, as in Gamma of D_1(RT) # D_2(F8) at p = 7:
    # the residuals and Vieta's relations hold relative to the sizes
    rnd = random.Random(17)
    for _ in range(40):
        n = rnd.randint(2, 14)
        cs = [rnd.randint(-10 ** 9, 10 ** 9) for _ in range(n)]
        cs.append(rnd.choice([-7, -1, 1, 3, 20]))
        roots = numeric_roots(RingPoly(QQ, cs))
        assert len(roots) == n
        size = sum(abs(z) for z in roots)
        assert abs(sum(roots) + cs[-2] / cs[-1]) < 1e-9 * size, cs
        prod = 1
        for z in roots:
            prod *= z
            acc = scale = 0
            for c in reversed(cs):
                acc = acc * z + c
                scale = scale * max(1, abs(z)) + abs(c)
            assert abs(acc) < 1e-8 * scale, cs
        assert abs(prod - (-1) ** n * cs[0] / cs[-1]) < 1e-9 * abs(prod), cs


def test_numeric_roots_of_level_gammas_satisfy_vieta():
    # Aberth's guesses for Gamma of D_6(U) at p = 9 once met in one root:
    # both then pass the residual check, and only Vieta's sum shows it
    for p in (7, 9, 12):
        for k in range(2 * p):
            gamma = double_invariant("U", k, p).gamma
            roots = numeric_roots(gamma)
            cs = [c.embed() for c in gamma.coeffs]
            assert abs(sum(roots) + cs[-2] / cs[-1]) < \
                1e-9 * max(1, sum(abs(z) for z in roots)), (p, k)


def _first_guess_twice(monkeypatch):
    """Make Aberth's second guess a copy of its first."""
    aberth = polyalg._aberth

    def twice(cs):
        zs = aberth(cs)
        return zs[:1] * 2 + zs[2:]

    monkeypatch.setattr(polyalg, "_aberth", twice)


def test_duplicate_root_fails_vieta_check(monkeypatch):
    # Gamma of D_6(U) at p = 9 has the roots 0.6096-0.8158i and
    # -1.5493+1.1578i; two guesses polished onto the first both pass the
    # residual check, and Vieta's sum rejects the pair
    gamma = double_invariant("U", 6, 9).gamma
    assert len(numeric_roots(gamma)) == 2
    _first_guess_twice(monkeypatch)
    with pytest.raises(InvariantCheckError, match="Vieta's sum"):
        numeric_roots(gamma)


def test_numeric_roots_match_numpy():
    np = pytest.importorskip("numpy")
    for cs in _random_int_polys():
        expect = [complex(z) for z in np.roots(cs[::-1])]
        assert _pair_up(numeric_roots(RingPoly(QQ, cs)), expect, 1e-9), cs


def test_root_periodicity():
    k5 = kp_field(5)
    ab = CycloElem.a_power(5, 1) + CycloElem.a_power(5, -1)
    g = RingPoly(k5, [k5.one, -ab, k5.one])
    assert root_periodicity(g) == 10
    assert root_periodicity(RingPoly(QQ, [-1, 1])) == 1
    # roots of x^2 - x + 1 are primitive sixth roots
    assert root_periodicity(RingPoly(QQ, [1, -1, 1])) == 6
    # no certificate for a non-unit root
    assert root_periodicity(RingPoly(QQ, [-2, 1])) is None


def _int_poly(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_root_periodicity_cyclotomic_products():
    phi79 = _int_poly(cyclotomic_poly(7), cyclotomic_poly(9))
    assert root_periodicity(RingPoly(QQ, phi79)) == 63
    # over k_5 the period 63 lies above the old scan bound 8p = 40
    assert root_periodicity(RingPoly(kp_field(5), phi79)) == 63
    # repeated factors
    phi3 = cyclotomic_poly(3)
    assert root_periodicity(RingPoly(QQ, _int_poly(phi3, phi3,
                                                    cyclotomic_poly(4)))) == 12
    # integral and reciprocal, but its roots are real and off the circle
    assert root_periodicity(RingPoly(QQ, [1, -3, 1])) is None
    # non-integral
    assert root_periodicity(RingPoly(QQ, [Fraction(-1, 2), 1])) is None


def _totients(n):
    phi = list(range(n + 1))
    for q in range(2, n + 1):
        if phi[q] == q:
            for j in range(q, n + 1, q):
                phi[j] -= phi[j] // q
    return phi


PHI = _totients(2 * 48 * 48)


def _scan_period(poly):
    """Every m <= 2 deg^2 in turn, each Phi_m divided out while it fits
    (phi(m)^2 >= m / 2 bounds the orders)."""
    deg, period = len(poly) - 1, 1
    for m in range(1, 2 * deg * deg + 1):
        while len(poly) > PHI[m]:
            q = polyalg._divide_exact(poly, cyclotomic_poly(m))
            if q is None:
                break
            poly, period = q, period * m // gcd(period, m)
    return period if len(poly) == 1 else None


# Lehmer's polynomial: reciprocal, integral, a root off the unit circle
LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def test_cyclotomic_period_matches_scan():
    rnd = random.Random(48)
    orders = [m for m in range(1, len(PHI)) if PHI[m] <= 48]
    for trial in range(60):
        ms, deg = [], 0
        while True:
            m = rnd.choice(orders)
            if deg + PHI[m] > 48:
                break
            ms.append(m)
            deg += PHI[m]
        poly = _int_poly(*[cyclotomic_poly(m) for m in ms])
        period = 1
        for m in ms:
            period = period * m // gcd(period, m)
        assert polyalg._cyclotomic_period(poly) == period == _scan_period(poly)
        if deg + 10 <= 48:
            poly = _int_poly(poly, LEHMER if trial % 2 else [1, -3, 1])
            assert polyalg._cyclotomic_period(poly) is None
            assert _scan_period(poly) is None
        half = [rnd.randint(-2, 2) for _ in range(rnd.randint(1, 12))]
        recip = [1] + half + half[::-1][1:] + [1]
        assert polyalg._cyclotomic_period(recip) == _scan_period(recip)


def test_root_periodicity_unsupported_coefficients():
    r = MPolyRing(1)
    with pytest.raises(NormUnavailable):
        root_periodicity(RingPoly(r, [MPoly.var(1, 0), r.one]))


def _divides_unit_power(gamma, m):
    """Whether gamma divides (x^m - 1)^deg(gamma), reducing mod gamma."""
    ring = gamma.ring
    xm1 = RingPoly(ring, [-ring.one] + [ring.zero] * (m - 1) + [ring.one])
    acc = RingPoly.one(ring)
    for _ in range(gamma.degree()):
        acc = (acc * xm1).divmod(gamma)[1]
    return acc.is_zero()


def _prime_divisors(m):
    return [q for q in range(2, m + 1)
            if m % q == 0 and all(q % r for r in range(2, q))]


# period-less Gamma: every Gamma_5 table double, U at the two classes of
# the levels workload without a period, and Example 4.5 at p = 7
PERIODLESS = ([(j, k, 5) for j in ("RT", "LT", "F8", "RT#LT")
               for k in range(5)]
              + [("U", 3, 5), ("U", 3, 7), ("example45", None, 7)])
PERIOD_CASES = ([("U", 4, 5, 15), ("U", 1, 5, 10)]
                + [case + (None,) for case in PERIODLESS])


# ids name the level only where it is not 5
@pytest.mark.parametrize("j_ref,k,p,expect", PERIOD_CASES, ids=[
    "-".join(map(str, (j, k) + ((f"p{p}",) if p != 5 else ()) + (m,)))
    for j, k, p, m in PERIOD_CASES])
def test_root_periodicity_divisibility_oracle(j_ref, k, p, expect):
    if j_ref == "example45":
        gamma = tangle_invariant(example45_word(), p)[1].gamma
    else:
        gamma = double_invariant(j_ref, k, p).gamma
    m = root_periodicity(gamma)
    assert m == expect
    if m is None:
        assert not any(_divides_unit_power(gamma, n) for n in range(1, 41))
        # rejected from its own coefficients, before the norm
        assert not polyalg._unit_roots_possible(p, gamma.coeffs)
        return
    assert _divides_unit_power(gamma, m)
    assert not any(_divides_unit_power(gamma, m // q)
                   for q in _prime_divisors(m))


def test_period_less_companion_doubles_need_no_norm(monkeypatch):
    # the 20 doubles of the Gamma_5 tables have no period, and conditions
    # 1 and 2 of root_periodicity show it without the norm
    def no_norm(gamma):
        raise AssertionError("the norm was taken")

    monkeypatch.setattr(polyalg, "_rational_norm", no_norm)
    for j_ref in ("RT", "LT", "F8", "RT#LT"):
        for k in range(5):
            assert double_invariant(j_ref, k, 5).period is None, (j_ref, k)


def _unit_root_gamma(rnd, p):
    """A random monic Gamma over k_p whose roots are roots of unity, from
    factors x - A^e, x^2 - (A^a + A^-a) x + 1 and Phi_m(x), and the lcm
    of the orders of its roots."""
    ring, n = kp_field(p), 2 * p
    gamma, period = RingPoly.one(ring), 1
    for _ in range(rnd.randint(1, 3)):
        kind = rnd.randrange(3)
        if kind == 2:
            m = rnd.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
            factor, order = RingPoly(ring, cyclotomic_poly(m)), m
        else:
            a = rnd.randrange(n)
            u, ubar = CycloElem.a_power(p, a), CycloElem.a_power(p, -a)
            factor = (RingPoly(ring, [-u, ring.one]) if kind == 0 else
                      RingPoly(ring, [ring.one, -(u + ubar), ring.one]))
            order = n // gcd(a, n)
        gamma, period = gamma * factor, lcm(period, order)
    return gamma, period


@pytest.mark.parametrize("p", range(1, 14))
def test_unit_root_gamma_passes_the_coefficient_conditions(p):
    rnd = random.Random(290 + p)
    for _ in range(6):
        gamma, period = _unit_root_gamma(rnd, p)
        assert polyalg._unit_roots_possible(p, gamma.coeffs), str(gamma)
        assert root_periodicity(gamma) == period, str(gamma)
    # integral and reciprocal with c_0 = 1: it passes both conditions, and
    # only the norm shows its real roots (3 +- sqrt 5) / 2 off the circle
    gamma = RingPoly(kp_field(p), [1, -3, 1])
    assert polyalg._unit_roots_possible(p, gamma.coeffs)
    assert root_periodicity(gamma) is None


# -- the norm from Gamma's field of definition ---------------------------------


def _level_gamma(rnd, p, kind, deg=3):
    """A monic Gamma over k_p with integer coefficients: rational ones,
    ones in Q(A + A^-1), generic ones in Q(A), or generic ones after a
    first one in Q(A + A^-1)."""
    ring = kp_field(p)
    real = CycloElem.a_power(p, 1) + CycloElem.a_power(p, -1)
    cs = []
    for _ in range(deg):
        a, b, c = (rnd.randint(-3, 3) for _ in range(3))
        if kind == "rational":
            cs.append(ring.coerce(a))
        elif kind == "real":
            cs.append(real * real * a + real * b + c)
        else:
            cs.append(CycloElem.a_power(p, rnd.randint(1, 2 * p - 1)) * a
                      + CycloElem.a_power(p, 1) * b + c)
    if kind != "rational":
        # one coefficient that generates the field of the kind
        cs[0] = real if kind == "real" else CycloElem.a_power(p, 1)
    if kind == "mixed":
        # the first coefficient is fixed by A -> A^-1, the next is not
        cs = [real] + cs
    return RingPoly(ring, cs + [ring.one])


@pytest.mark.parametrize("p", [5, 7, 8, 9, 12])
def test_norm_from_field_of_definition_is_a_root_of_the_full_norm(
        monkeypatch, p):
    # N_(k_p/Q)(Gamma) = N_(K/Q)(Gamma)^|H| for K = k_p^H, H the units j
    # with sigma_j fixing Gamma: |H| = phi(2p), 2 and 1 for rational,
    # real-subfield and generic coefficients (1 also when only the first
    # coefficient is real), and Newton needs r phi(2p) / |H| power sums
    rnd = random.Random(70 + p)
    phi = len(cyclotomic_poly(2 * p)) - 1
    asked = []
    real_power_sums = polyalg.power_sums

    def counted(gamma, d_max):
        asked.append(d_max)
        return real_power_sums(gamma, d_max)

    monkeypatch.setattr(polyalg, "power_sums", counted)
    for kind, h in (("rational", phi), ("real", 2), ("generic", 1),
                    ("mixed", 1)):
        for deg in (1, 2, 3):
            gamma = _level_gamma(rnd, p, kind, deg)
            r = gamma.degree()
            assert polyalg._stabiliser_order(p, gamma.coeffs) == h, kind
            del asked[:]
            norm = polyalg._rational_norm(gamma)
            assert asked == [r * phi // h], kind
            assert len(norm) == r * phi // h + 1
            assert _int_poly(*[norm] * h) == full_rational_norm(gamma), \
                (kind, deg)
        # c_0 + 1/2 has the norm (odd) / 2^phi(2p), so the norm of Gamma is
        # not integral, and neither is the norm from K
        half = RingPoly(gamma.ring, [gamma.coeffs[0] + Fraction(1, 2)]
                        + gamma.coeffs[1:])
        assert full_rational_norm(half) is None, kind
        assert polyalg._rational_norm(half) is None, kind


@pytest.mark.parametrize("j_ref", ["U", "RT", "LT"])
def test_root_periodicity_matches_full_norm_oracle(j_ref):
    for p in range(3, 13):
        for k in range(-p, p):
            inv = double_invariant(j_ref, k, p)
            if not inv.flat_rank:
                continue
            norm = full_rational_norm(inv.gamma)
            want = None if norm is None else polyalg._cyclotomic_period(norm)
            assert inv.period == root_periodicity(inv.gamma) == want, \
                (j_ref, p, k)
