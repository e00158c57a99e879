import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

from tvskein.cyclo import (CycloElem, _a_powers, _axpy, _dot, _monomial_sum,
                           _norm_steps, constants, level_degree,
                           reduce_to_kp, u_element)
from tvskein.laurent import DELTA, LaurentPoly, cyclotomic_poly
from tvskein.oracles import euclid_inverse, in_ring, level_d, map_i, map_j


def test_reduction_examples():
    # long division by the 10th cyclotomic polynomial
    assert CycloElem.a_power(5, 4) == CycloElem(5, (-1, 1, -1, 1))
    d5 = reduce_to_kp(DELTA, 5)
    assert d5 == CycloElem(5, (0, 0, -1, 1))        # A^3 - A^2
    assert reduce_to_kp(LaurentPoly({2: 1}), 2) == CycloElem.from_int(2, -1)


def test_power_table_matches_repeated_multiplication():
    for p in (5, 7, 9, 12):
        a = CycloElem(p, (0, 1))
        ainv = a.inv()
        table = _a_powers(p)
        assert len(table) == 2 * p
        up, down = CycloElem.one(p), CycloElem.one(p)
        for e in range(41):
            for x, k in ((up, e), (down, -e)):
                assert CycloElem.a_power(p, k) == x, (p, k)
                assert CycloElem(p, table[k % (2 * p)]) == x, (p, k)
                assert reduce_to_kp(LaurentPoly({k: 3}), p) == x * 3, (p, k)
            up, down = up * a, down * ainv
        rnd = random.Random(p)
        for _ in range(20):
            terms = {rnd.randint(-40, 40): rnd.randint(-5, 5) for _ in range(6)}
            expect = CycloElem.zero(p)
            for e, c in terms.items():
                expect = expect + (a ** e if e >= 0 else ainv ** -e) * c
            assert reduce_to_kp(LaurentPoly(terms), p) == expect


def test_printed_beta_values():
    assert constants(2).beta == CycloElem(2, (Fraction(1, 2), Fraction(-1, 2)))
    b5 = constants(5).beta
    assert b5 == CycloElem(5, (Fraction(3, 5), Fraction(-1, 5),
                               Fraction(4, 5), Fraction(-2, 5)))
    binv = constants(10).beta.inv()
    assert binv == CycloElem(10, (-1, -1, 1, -1, -1, 0, 2, 0))


def test_constant_pack_invariants():
    for p in range(2, 17):
        pack = constants(p)
        # mu(s) and <e_s> match their closed forms by construction; check
        # the normalisation identities
        if p >= 3 and pack.n >= 1:
            tot = CycloElem.zero(p)
            s1 = CycloElem.zero(p)
            for s in range(pack.n):
                tot = tot + pack.bracket_e[s] * pack.bracket_e[s]
                s1 = s1 + pack.mu[s] * pack.bracket_e[s] * pack.bracket_e[s]
            # eta^2 sum <e_s>^2 = 1, with eta^2 = beta^2 kappa^6 = beta^2 u
            u = u_element(p)
            assert pack.beta * pack.beta * u * tot == CycloElem.one(p)
            assert pack.beta * s1 == CycloElem.one(p)


def test_monomial_sum_equals_the_power_table_sum():
    # _monomial_sum folds each exponent in one step, through the sparse rows
    # of A_p^deg .. A_p^(2p - 1); the oracle adds whole rows of the dense
    # power table.  Exponents run negative and past 2p, and repeat; at
    # p = 105, p > 2 deg - 1, so rows past the product range are read too
    rnd = random.Random(34)
    for p in [*range(1, 14), 21, 25, 105]:
        n, deg, table = 2 * p, level_degree(p), _a_powers(p)
        for _ in range(12):
            terms = [(rnd.randint(-3 * n, 3 * n), rnd.randint(-9, 9))
                     for _ in range(rnd.randint(0, 2 * n))]
            terms += [(e + n * rnd.randint(-2, 2), rnd.randint(-9, 9))
                      for e, _ in terms[:4]]
            want = [0] * deg
            for e, c in terms:
                for i, t in enumerate(table[e % n]):
                    want[i] += c * t
            got = _monomial_sum(p, terms)
            assert got == want, p
            assert all(type(c) is int for c in got), p


def test_bar_is_ring_involution():
    rnd = random.Random(1)
    for p in (2, 5, 7, 8):
        deg = level_degree(p)
        for _ in range(50):
            x = CycloElem(p, tuple(rnd.randint(-3, 3) for _ in range(deg)))
            y = CycloElem(p, tuple(rnd.randint(-3, 3) for _ in range(deg)))
            assert (x + y).bar() == x.bar() + y.bar()
            assert (x * y).bar() == x.bar() * y.bar()
            assert x.bar().bar() == x


def test_embedding_is_homomorphism():
    rnd = random.Random(2)
    checked = 0
    for p in (2, 5, 6, 7, 10):
        deg = level_degree(p)
        for _ in range(200):
            x = CycloElem(p, tuple(rnd.randint(-3, 3) for _ in range(deg)))
            y = CycloElem(p, tuple(rnd.randint(-3, 3) for _ in range(deg)))
            assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-9
            assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-9
            checked += 2
    assert checked == 2000


def test_cyclotomic_poly_divisor_product():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_trace_is_sum_of_embeddings():
    rnd = random.Random(5)
    for p in (2, 5, 6, 7, 10, 12):
        deg = level_degree(p)
        units = [j for j in range(1, 2 * p) if math.gcd(j, 2 * p) == 1]
        for _ in range(20):
            x = CycloElem(p, tuple(Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
                                   for _ in range(deg)))
            assert abs(x.trace() - sum(x.embed(j) for j in units)) < 1e-9


def test_principal_embedding_values():
    d5 = reduce_to_kp(DELTA, 5)
    assert abs(d5.embed() - (-2 * cmath.cos(2 * cmath.pi / 5))) < 1e-12
    assert abs(CycloElem.a_power(2, 1).embed() - 1j) < 1e-12
    with pytest.raises(ValueError):
        CycloElem.one(5).embed(root_index=5)


def test_transfer_maps():
    assert map_i(CycloElem.a_power(2, 1), 3) == -CycloElem.a_power(6, 3)
    assert map_j(CycloElem.a_power(5, 1), 5) == CycloElem.a_power(10, 6)
    i5 = map_i(CycloElem.a_power(2, 1), 5)
    assert i5 == CycloElem.a_power(10, 5)
    assert i5 ** 2 == -CycloElem.one(10)          # order four
    with pytest.raises(ValueError):
        map_i(CycloElem.a_power(2, 1), 4)


def test_map_j_is_multiplicative():
    # A_p -> A_2p^e is a ring map only if A_2p^e has order 2p
    for p in range(3, 16, 2):
        powers = [CycloElem.a_power(p, a) for a in range(2 * p)]
        images = [map_j(x, p) for x in powers]
        for a in range(2 * p):
            for b in range(2 * p):
                assert map_j(powers[a] * powers[b], p) == \
                    images[a] * images[b], (p, a, b)


def test_in_ring_denominators():
    assert in_ring(constants(5).beta)
    bad = CycloElem(5, (Fraction(1, 3),))
    assert not in_ring(bad)
    assert in_ring(CycloElem(6, (Fraction(1, 8),)))   # d = 2 at p = 6


def test_cyclo_parse_roundtrip():
    for x in (constants(5).beta, CycloElem.a_power(7, 3), CycloElem.zero(2)):
        assert CycloElem.parse(str(x)) == x
    # kappa^3 is carried by tqft.BranchedValue, never by an element
    with pytest.raises(ValueError):
        CycloElem.parse("(1) * kappa^3 @ p=5")


def test_integral_elements_keep_int_coefficients():
    def types(*xs):
        return {type(c) for x in xs for c in x.coeffs}

    rnd = random.Random(5)
    for p in (5, 7, 12):
        for _ in range(20):
            x = reduce_to_kp(LaurentPoly({rnd.randint(-9, 9): rnd.randint(-3, 3)
                                          for _ in range(4)}), p)
            y = CycloElem(p, [rnd.randint(-3, 3) for _ in range(3)])
            assert types(x, y, x * y, x + x, -x, x * 3, x.bar()) == {int}
        # A_p is a unit of Z[A]/(phi_2p): its inverse stays integral
        assert types(CycloElem.a_power(p, 1).inv(), u_element(p).inv()) == {int}
        assert types(CycloElem(p, (Fraction(6, 3), Fraction(0)))) == {int}
    # values with 1/d in them stay Fractions: beta_2 = (1 - A)/2, beta_5
    assert constants(2).beta.coeffs == (Fraction(1, 2), Fraction(-1, 2))
    beta = constants(5).beta
    assert {c.denominator for c in beta.coeffs} == {5}
    assert types(beta * beta.inv(), beta.inv()) == {int}


def test_laurent_poly_over_k2_divides():
    # the Kauffman channel runs LaurentPoly with k_2 coefficients
    one, i = CycloElem.one(2), CycloElem.a_power(2, 1)
    z = LaurentPoly({1: i, -1: -i})
    num = LaurentPoly({3: one, -3: i}) * z
    assert num.exact_div(z) == LaurentPoly({3: one, -3: i})
    assert (LaurentPoly({2: i * 2})) ** -1 == LaurentPoly({-2: -i * Fraction(1, 2)})


def _random_laurent(rnd, den):
    return LaurentPoly({rnd.randint(-30, 30): Fraction(rnd.randint(-9, 9), den)
                        for _ in range(rnd.randint(1, 6))})


def _printed_u_exponent(p):
    # u = A^(-6 - p(p+1)/2), with u = 1 at p = 1 and u = A at p = 2
    return {1: 0, 2: 1}.get(p, -6 - p * (p + 1) // 2)


def test_inverse_matches_euclid_oracle():
    rnd = random.Random(16)
    checked = 0
    for p in range(1, 31):
        deg = level_degree(p)
        one = CycloElem.one(p)
        dens = (1, level_d(p), 2 * p)
        # above p = 17 one draw per denominator: the Euclid oracle is slow there
        draws = [d for d in dens for _ in range(4)] if p < 18 else dens
        for den in draws:
            x = CycloElem(p, [Fraction(rnd.randint(-9, 9), den)
                              for _ in range(deg)])
            if x.is_zero():
                continue
            assert x.inv() == euclid_inverse(x), (p, x)
            assert x * x.inv() == one, (p, x)
            checked += 1
        with pytest.raises(ZeroDivisionError):
            CycloElem.zero(p).inv()
    assert checked > 230


def test_norm_steps_cover_every_unit_once():
    # the tower's cosets g1^i1 g2^i2 .. run through (Z/2p)^x exactly once,
    # and each step order is the least available modulo the steps before
    for p in range(1, 41):
        n = 2 * p
        products = [1]
        for g, e in _norm_steps(p):
            assert e > 1 and pow(g, e, n) in products, (p, g, e)
            sub = set(products)
            assert all(pow(h, i, n) not in sub for h in range(1, n)
                       for i in range(1, e) if h not in sub and math.gcd(h, n) == 1)
            products = [s * pow(g, i, n) % n for s in products for i in range(e)]
        assert sorted(products) == \
            [j for j in range(1, n) if math.gcd(j, n) == 1], p


def test_ring_operations_match_laurent_reduction():
    # sums, differences and products of reduced elements equal the
    # reductions of the Laurent results, over unequal denominators
    rnd = random.Random(6)
    for p in (1, 2, 5, 7, 8, 9, 12, 13):
        u = LaurentPoly({_printed_u_exponent(p): 1})
        assert u_element(p) == reduce_to_kp(u, p), p
        for _ in range(30):
            f = _random_laurent(rnd, rnd.choice((1, level_d(p), 2 * p)))
            g = _random_laurent(rnd, rnd.choice((1, level_d(p), 2 * p)))
            x, y = reduce_to_kp(f, p), reduce_to_kp(g, p)
            assert x + y == reduce_to_kp(f + g, p), (p, f, g)
            assert x - y == reduce_to_kp(f - g, p), (p, f, g)
            assert -x == reduce_to_kp(-f, p), (p, f)
            assert x * y == reduce_to_kp(f * g, p), (p, f, g)


def test_inverse_runs_without_fractions():
    p = 13
    rnd = random.Random(13)
    xs = [constants(p).beta, u_element(p),
          CycloElem(p, [Fraction(rnd.randint(-9, 9), 2 * p) for _ in range(12)])]
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    sys.setprofile(record)
    try:
        for x in xs:
            x.inv()
    finally:
        sys.setprofile(None)
    assert any(f.endswith("cyclo.py") for f in seen), seen
    assert not any(f.endswith("fractions.py") for f in seen), seen


def _naive_dot(p, xs, ys):
    acc = CycloElem.zero(p)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _parts(x):
    return x.num, x.den


def test_dot_matches_naive_sum_of_products():
    # denominators 1, d and 2p; zeros; int and Fraction operands;
    # cancelling pairs that leave a zero
    rnd = random.Random(19)
    for p in range(1, 18):
        deg = level_degree(p)

        def elem(zero=False):
            den = rnd.choice((1, level_d(p), 2 * p))
            return CycloElem(p, [0 if zero else Fraction(rnd.randint(-9, 9), den)
                                 for _ in range(deg)])

        for _ in range(40):
            xs, ys = [], []
            for _ in range(rnd.randint(0, 6)):
                kind = rnd.random()
                if kind < 0.15:
                    x, y = rnd.randint(-5, 5), elem()
                elif kind < 0.25:
                    x, y = elem(), Fraction(rnd.randint(-5, 5), 2 * p)
                elif kind < 0.35:
                    x, y = elem(zero=True), elem()
                else:
                    x, y = elem(), elem()
                xs.append(x)
                ys.append(y)
            if xs and rnd.random() < 0.2:
                xs.append(-xs[0])
                ys.append(ys[0])
            want = _naive_dot(p, xs, ys)
            assert _parts(_dot(p, xs, ys)) == _parts(want), (p, xs, ys)


def test_axpy_matches_naive_row_update():
    # x - f * y entry by entry, with denominators 1, d and 2p, and zeros
    # as x, as y and as f
    rnd = random.Random(22)
    for p in range(1, 18):
        deg = level_degree(p)

        def elem(zero=False):
            den = rnd.choice((1, level_d(p), 2 * p))
            return CycloElem(p, [0 if zero else Fraction(rnd.randint(-9, 9), den)
                                 for _ in range(deg)])

        for _ in range(30):
            f = elem(zero=rnd.random() < 0.05)
            xs, ys = [], []
            for _ in range(rnd.randint(0, 6)):
                kind = rnd.random()
                y = elem(zero=kind < 0.15)
                if kind < 0.3:
                    x = elem(zero=True)
                elif kind < 0.4:
                    x = f * y        # the difference is zero
                else:
                    x = elem()
                xs.append(x)
                ys.append(y)
            want = [x - f * y for x, y in zip(xs, ys)]
            assert [_parts(z) for z in _axpy(p, xs, f, ys)] == \
                [_parts(z) for z in want], (p, xs, f, ys)


def test_dot_edge_cases():
    for p in (1, 2, 7, 12):
        assert _parts(_dot(p, [], [])) == _parts(CycloElem.zero(p))
        x = CycloElem(p, (2, 1))
        zero = CycloElem.zero(p)
        assert _parts(_dot(p, [zero, x], [x, x])) == _parts(x * x)
        assert _parts(_dot(p, [3, Fraction(1, 2)], [Fraction(1, 3), 4])) == \
            _parts(CycloElem.from_int(p, 3))
