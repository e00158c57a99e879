import random
from fractions import Fraction

import pytest

from tvskein.cyclo import CycloElem
from tvskein.laurent import (A, DELTA, MU, LaurentPoly, QFactored, _phi4,
                             _power, bracket_e, cyclotomic_poly, mu_eig,
                             quantum_int)
from tvskein.matring import RingMatrix
from tvskein.oracles import LaurentFrac, poly_gcd
from tvskein.polyalg import RingPoly
from tvskein.rings import QQ, ZA, Ring, kp_field


def test_binomial_square():
    x = A + A.bar()
    assert x * x == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_delta_bar_symmetric():
    assert DELTA.bar() == DELTA


def test_hopf_value_expansion():
    h = -DELTA * (A ** 4 + A ** -4)
    assert h == LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})


def test_parse_roundtrip():
    samples = [
        "-A^-16 + A^-12 + 2 - 2*A^4 - A^16 + A^20",
        "0",
        "3/5 - 1/5*A + 4/5*A^2",
        "A",
        "-A^-1",
    ]
    for s in samples:
        p = LaurentPoly.parse(s)
        assert LaurentPoly.parse(str(p)) == p
    assert str(LaurentPoly.parse(samples[0])) == samples[0]


def test_ring_axioms_random():
    rnd = random.Random(0)

    def rand_poly():
        return LaurentPoly({rnd.randint(-6, 6): rnd.randint(-4, 4)
                            for _ in range(rnd.randint(0, 5))})

    for _ in range(200):
        x, y, z = rand_poly(), rand_poly(), rand_poly()
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x.bar().bar() == x
        assert (x * y).bar() == x.bar() * y.bar()


def test_image_product_equals_the_generic_sum():
    # a row times a column over Z[A,A^-1] runs on the integer image; it
    # must equal the generic sum of products, with zero, int and Fraction
    # entries among the polynomials
    rnd = random.Random(7)

    def coeff():
        c = rnd.randint(-4, 4)
        return Fraction(c, rnd.randint(1, 3)) if rnd.random() < 0.3 else c

    def entry():
        kind = rnd.randrange(6)
        if kind == 0:
            return LaurentPoly()
        if kind == 1:
            return rnd.randint(-3, 3)
        if kind == 2:
            return coeff()
        return LaurentPoly({rnd.randint(-6, 6): coeff()
                            for _ in range(rnd.randint(1, 4))})

    def row_times_column(xs, ys):
        return (RingMatrix(ZA, [xs]) * RingMatrix(ZA, [[y] for y in ys]))[0, 0]

    for _ in range(400):
        n = rnd.randint(1, 6)
        xs, ys = [entry() for _ in range(n)], [entry() for _ in range(n)]
        got = row_times_column(xs, ys)
        assert type(got) is LaurentPoly and all(got.terms.values())
        assert got == Ring.dot(ZA, xs, ys), (xs, ys)
    # terms that cancel leave no zero coefficient behind
    x = LaurentPoly({-2: 3, 1: Fraction(1, 2)})
    for xs, ys in (([x, -x], [A, A]), ([A, -1], [A ** -1, 1]),
                   ([Fraction(1, 2), Fraction(1, 2), -1], [x, x, x]),
                   ([0, x], [x, 0])):
        assert row_times_column(xs, ys).terms == {}


def test_exact_div():
    w = LaurentPoly.parse("-2 + A^-16 - A^-8 - A^-4 - 2*A^4 - 2*A^8 - A^20")
    q = w.exact_div(DELTA)
    assert q * DELTA == w
    with pytest.raises(ValueError):
        (A + 1).exact_div(DELTA)


def test_quantum_integers():
    assert quantum_int(1) == LaurentPoly.one()
    assert quantum_int(2) == LaurentPoly({2: 1, -2: 1})
    assert bracket_e(1) == -quantum_int(2)
    assert bracket_e(1) == DELTA
    assert mu_eig(1) == MU
    assert quantum_int(0).is_zero()
    # [n] * (A^2 - A^-2) == A^2n - A^-2n
    for n in range(1, 8):
        lhs = quantum_int(n) * LaurentPoly({2: 1, -2: -1})
        assert lhs == LaurentPoly({2 * n: 1, -2 * n: -1})


def test_poly_gcd_and_frac():
    p = DELTA * (A ** 4 - 1)
    q = DELTA * (A ** 2 + 3)
    g = poly_gcd(p, q)
    assert p.exact_div(g) is not None
    f = LaurentFrac(p, q)
    assert f == LaurentFrac(A ** 4 - 1, A ** 2 + 3)
    assert (f / f) == LaurentFrac(1)
    assert (f - f).is_zero()
    x = LaurentFrac(1, quantum_int(2))
    assert (x * quantum_int(2)).as_laurent() == LaurentPoly.one()


def _types(*polys):
    return {type(c) for x in polys for c in x.terms.values()}


def test_integral_inputs_keep_int_coefficients():
    rnd = random.Random(3)

    def rand_poly():
        return LaurentPoly({rnd.randint(-6, 6): rnd.randint(-4, 4)
                            for _ in range(rnd.randint(1, 5))})

    for _ in range(100):
        x, y = rand_poly(), rand_poly()
        if y.is_zero():
            continue
        xy = x * y
        assert _types(x + y, xy, xy.exact_div(y), x ** 3) <= {int}
        # with a monic y the monic gcd is integral
        y = y + LaurentPoly({y.max_exp() + 1: 1})
        g = poly_gcd(x * y, y * (A + 2))
        assert _types(g) == {int} and (x * y).exact_div(g) * g == x * y
    f = LaurentFrac(DELTA * (A ** 4 - 1), DELTA * (A ** 2 + 3) * A ** 5)
    assert _types(f.num, f.den) == {int}
    assert f.den == A ** 2 + 3
    assert _types(LaurentFrac(2 * A + 4, -2 * A).num) == {int}
    assert type(A.coeff(7)) is int and A.coeff(7) == 0
    assert _types(LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 3)})) == \
        {int, Fraction}


def test_coefficient_division_is_exact():
    q = LaurentPoly({0: 3}).exact_div(LaurentPoly({0: 2}))
    assert q.terms == {0: Fraction(3, 2)}
    assert type(q.coeff(0)) is Fraction
    assert (2 * A) ** -2 == LaurentPoly({-2: Fraction(1, 4)})
    assert type(((2 * A) ** -2).coeff(-2)) is Fraction
    inv = (-A) ** -3
    assert inv == LaurentPoly({-3: -1}) and _types(inv) == {int}
    h = LaurentFrac(1, 2 * A + 4)
    assert h.den == A + 2 and h.num == LaurentPoly({0: Fraction(1, 2)})


def test_power_matches_repeated_products():
    # one square-and-multiply loop serves every type with a ``__pow__``
    k7 = kp_field(7)
    x = CycloElem(7, (Fraction(1, 3), 2, 0, -1))
    cases = [
        (A - 2 * A.bar() + 3, LaurentPoly.one()),
        (x, CycloElem.one(7)),
        (RingPoly(k7, [x ** 6, 2, CycloElem.a_power(7, 3)]),
         RingPoly.one(k7)),
        (RingMatrix(QQ, [[1, 2], [3, Fraction(1, 2)]]),
         RingMatrix.identity(QQ, 2)),
    ]
    for base, one in cases:
        acc = one
        for n in range(12):
            assert base ** n == acc == _power(base, n, one), (base, n)
            acc = acc * base
        with pytest.raises(ValueError, match="negative power"):
            _power(base, -1, one)
    # the negative branches: monomials and k_p invert, the rest raise
    assert (-2 * A ** 3) ** -2 == LaurentPoly({-6: Fraction(1, 4)})
    with pytest.raises(ValueError, match="non-monomial"):
        (A + 1) ** -1
    assert x ** -3 == x.inv() ** 3 and x ** -3 * x ** 3 == CycloElem.one(7)
    for base, _ in cases[2:]:
        with pytest.raises(ValueError, match="negative power"):
            base ** -2


def _phi4_oracle(d):
    """Phi_d(A^4) from the cyclotomic coefficients of the level rings."""
    return LaurentPoly({4 * i: c for i, c in enumerate(cyclotomic_poly(d))})


def test_quantum_integers_factor_over_phi_d():
    # [k] = A^(2-2k) prod_(d | k, d > 1) Phi_d(A^4)
    for k in range(1, 41):
        prod = LaurentPoly({2 - 2 * k: 1})
        for d in range(2, k + 1):
            if not k % d:
                prod = prod * _phi4_oracle(d)
        assert prod == quantum_int(k), k
        if k > 1:
            assert _phi4(k) == _phi4_oracle(k), k


def test_phi4_is_the_quantum_integer_over_its_smaller_factors():
    # Phi_d(A^4), read off the cyclotomic coefficients, against the exact
    # quotient A^(2d-2) [d] / prod Phi_e(A^4) over the divisors 1 < e < d
    for d in range(2, 41):
        want = LaurentPoly({2 * d - 2: 1}) * quantum_int(d)
        for e in range(2, d):
            if not d % e:
                want = want.exact_div(_phi4(e))
        assert _phi4(d) == want, d


def _rand_qfactored(rnd, ds=range(2, 9)):
    poly = LaurentPoly({rnd.randint(-8, 8): rnd.randint(-3, 3)
                        for _ in range(rnd.randint(0, 4))})
    return QFactored(poly, {d: rnd.randint(-3, 3)
                            for d in rnd.sample(ds, rnd.randint(0, 4))})


def _same_value(x, y):
    return x.num * y.den == y.num * x.den


def test_sum_is_the_fold_of_binary_adds():
    rnd = random.Random(26)
    for _ in range(60):
        terms = [_rand_qfactored(rnd) for _ in range(rnd.randint(0, 6))]
        fold = QFactored(0)
        for t in terms:
            fold = fold + t
        total = QFactored.sum(terms)
        assert _same_value(total, fold)
        # and the sum of the fractions num / den over their product
        common = LaurentPoly.one()
        for t in terms:
            common = common * t.den
        expect = LaurentPoly()
        for t in terms:
            expect = expect + t.num * common.exact_div(t.den)
        assert total.num * common == expect * total.den
        # the lift is to the least exponent of each Phi_d over the terms
        for d, e in total.exps.items():
            assert e == min(t.exps.get(d, 0) for t in terms if t.poly), d


def test_reduction_keeps_the_value_and_cancels_every_factor_it_can():
    rnd = random.Random(27)
    cancelled = 0
    for _ in range(60):
        x = _rand_qfactored(rnd)
        # plant Phi_d factors in P, more or fewer than the denominator has
        for d, e in x.exps.items():
            planted = _phi4_oracle(d) ** rnd.randint(0, abs(e) + 1)
            x = QFactored(x.poly * planted, x.exps)
        r = x.reduced()
        assert _same_value(r, x)
        cancelled += r.exps != x.exps
        for d, e in r.exps.items():
            if e < 0:
                with pytest.raises(ValueError):
                    r.poly.exact_div(_phi4_oracle(d))
    assert cancelled > 10, cancelled
