import cmath
import math
import random
from fractions import Fraction

import pytest

from tvskein.cyclo import (CycloElem, combine_graded, constants,
                           cyclotomic_poly, fold_kappa3, level_degree, map_i,
                           map_j, reduce_to_kp, u_element)
from tvskein.laurent import DELTA, LaurentPoly


def test_reduction_examples():
    # long division by the 10th cyclotomic polynomial
    assert CycloElem.a_power(5, 4) == CycloElem(5, (-1, 1, -1, 1))
    d5 = reduce_to_kp(DELTA, 5)
    assert d5 == CycloElem(5, (0, 0, -1, 1))        # A^3 - A^2
    assert reduce_to_kp(LaurentPoly({2: 1}), 2) == CycloElem.from_int(2, -1)


def test_power_table_matches_repeated_multiplication():
    from tvskein.cyclo import _a_powers
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
            assert reduce_to_kp(LaurentPoly(terms), p, 2) == \
                CycloElem(p, expect.coeffs, 2)


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
            assert pack.eta * pack.eta * tot == CycloElem.one(p)
            assert pack.beta * s1 == CycloElem.one(p)
        assert pack.beta * pack.kappa3 == pack.eta


def test_grade_discipline():
    pack = constants(5)
    with pytest.raises(ValueError):
        pack.eta + pack.beta          # grade 3 + grade 0
    x = pack.eta * pack.eta           # grade 6 folds to grade 0 via u
    assert x.grade == 0
    assert pack.eta.bar().bar() == pack.eta


def test_bar_is_ring_involution():
    rnd = random.Random(1)
    for p in (2, 5, 7, 8):
        deg = level_degree(p)
        for _ in range(50):
            x = CycloElem(p, tuple(rnd.randint(-3, 3) for _ in range(deg)),
                          3 * rnd.randint(0, 1))
            y = CycloElem(p, tuple(rnd.randint(-3, 3) for _ in range(deg)),
                          x.grade)
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
    with pytest.raises(ValueError):
        CycloElem(5, (1,), 3).trace()


def test_principal_embedding_values():
    d5 = reduce_to_kp(DELTA, 5)
    assert abs(d5.embed() - (-2 * cmath.cos(2 * cmath.pi / 5))) < 1e-12
    assert abs(CycloElem.a_power(2, 1).embed() - 1j) < 1e-12
    eta5 = constants(5).eta.embed()
    assert abs(eta5.imag) < 1e-12 and eta5.real > 0
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
    with pytest.raises(ValueError):
        map_j(constants(5).eta, 5)                # grade 3 rejected
    # combined grading convention
    x = combine_graded(constants(2).eta, constants(5).eta, 5)
    assert x.grade == 3 and x.p == 10


def test_map_j_is_multiplicative():
    # A_p -> A_2p^e is a ring map only if A_2p^e has order 2p
    for p in range(3, 16, 2):
        powers = [CycloElem.a_power(p, a) for a in range(2 * p)]
        images = [map_j(x, p) for x in powers]
        for a in range(2 * p):
            for b in range(2 * p):
                assert map_j(powers[a] * powers[b], p) == \
                    images[a] * images[b], (p, a, b)


def test_kappa_fold_levels():
    assert fold_kappa3(constants(3).kappa3) == CycloElem.from_int(3, -1)
    assert fold_kappa3(constants(4).kappa3) == CycloElem.from_int(4, 1)
    # no folding at generic p
    assert fold_kappa3(constants(5).kappa3).grade == 3


def test_in_ring_denominators():
    assert constants(5).beta.in_ring()
    bad = CycloElem(5, (Fraction(1, 3),))
    assert not bad.in_ring()
    assert CycloElem(6, (Fraction(1, 8),)).in_ring()   # d = 2 at p = 6


def test_cyclo_parse_roundtrip():
    for x in (constants(5).beta, constants(5).eta, CycloElem.a_power(7, 3),
              CycloElem.zero(2)):
        assert CycloElem.parse(str(x)) == x
