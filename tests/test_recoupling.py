import itertools
import random

import pytest

from tvskein.cyclo import CycloElem, UnsupportedSpecialization, reduce_to_kp
from tvskein.laurent import LaurentPoly, bracket_e, quantum_int
from tvskein.oracles import (LaurentFrac, full_twist, jones_wenzl, poly_gcd,
                             tet_web, theta_web, tl_compose, tl_e,
                             tl_identity, tl_trace)
from tvskein.recoupling import ColorError, qfact, tet, theta
from tvskein.tqft import ColorData


def adm(a, b, c):
    return (a + b + c) % 2 == 0 and a <= b + c and b <= a + c and c <= a + b


def test_projectors_small():
    assert jones_wenzl(1) == ({(1, 0): LaurentPoly.one()}, LaurentPoly.one())
    # f_2 = identity + (1/[2]) e_1 (the loop value is -[2]), so its terms
    # are den * identity + u e_1 with den = u [2] for a unit u
    f2, den = jones_wenzl(2)
    ident = (2, 3, 0, 1)
    e = (1, 0, 3, 2)
    assert set(f2) == {ident, e}
    assert f2[ident] == den
    assert f2[e] * f2[e].bar() == LaurentPoly.one()
    assert f2[e] * quantum_int(2) == den


def test_projector_idempotence_and_annihilation():
    for n in range(2, 7):
        f, den = jones_wenzl(n)
        # integral terms over the least denominator
        assert all(type(c) is int for x in f.values() for c in x.terms.values())
        g = den
        for x in f.values():
            g = poly_gcd(g, x)
        assert g == LaurentPoly.one(), n
        assert tl_compose(f, f, n) == {d: x * den for d, x in f.items()}
        for i in range(n - 1):
            assert not tl_compose(tl_e(n, i), f, n)
            assert not tl_compose(f, tl_e(n, i), n)
        assert tl_trace(f, n) == den * bracket_e(n)


def test_temperley_lieb_relations():
    delta = LaurentPoly({2: -1, -2: -1})
    for n in range(6):
        one = tl_identity(n)
        assert tl_compose(one, one, n) == one
        assert tl_trace(one, n) == delta ** n
        e = [tl_e(n, i) for i in range(n - 1)]
        for i, ei in enumerate(e):
            (d, _), = ei.items()
            assert tl_compose(one, ei, n) == ei == tl_compose(ei, one, n)
            assert tl_compose(ei, ei, n) == {d: delta}
            assert tl_trace(ei, n) == delta ** (n - 1)
            for j, ej in enumerate(e):
                if abs(i - j) == 1:
                    assert tl_compose(tl_compose(ei, ej, n), ei, n) == ei
                elif abs(i - j) >= 2:
                    assert tl_compose(ei, ej, n) == tl_compose(ej, ei, n)


def test_f2_kills_capcup_expansion():
    # expand f_2 = 1 + (1/[2]) e_1 and multiply by the cap-cup by hand
    f2, _ = jones_wenzl(2)
    e = tl_e(2, 0)
    prod = tl_compose(e, f2, 2)
    assert prod == {}


def test_theta_values():
    assert theta(1, 1, 0) == LaurentFrac(-quantum_int(2))
    assert theta(2, 2, 0) == LaurentFrac(bracket_e(2))
    assert theta(0, 0, 0) == LaurentFrac(1)
    with pytest.raises(ColorError):
        theta(1, 1, 1)
    with pytest.raises(ColorError):
        theta(1, 1, 4)


def test_full_twist_values():
    assert full_twist(0, 1, 1) == LaurentPoly({-6: 1})
    assert full_twist(2, 1, 1) == LaurentPoly({2: 1})
    assert full_twist(1, 1, 0) == LaurentPoly.one()


def test_theta_against_web_oracle():
    triples = [(a, b, c) for a in range(5) for b in range(a, 5)
               for c in range(b, 5) if adm(a, b, c)]
    for tri in triples:
        assert theta(*tri) == theta_web(*tri), tri


def test_tet_against_web_oracle_sample():
    tuples = [cs for cs in itertools.product(range(4), repeat=6)
              if all(adm(*t) for t in ((cs[0], cs[1], cs[2]),
                                       (cs[0], cs[4], cs[5]),
                                       (cs[1], cs[4], cs[3]),
                                       (cs[2], cs[5], cs[3])))]
    rnd = random.Random(11)
    for cs in rnd.sample(tuples, 30):
        assert tet(*cs) == tet_web(*cs), cs


def test_tet_degenerations():
    # a zero on the outer edge collapses the tetrahedron to a theta
    assert tet(0, 1, 1, 2, 1, 1) == theta(1, 2, 1)
    assert tet(0, 2, 2, 2, 2, 2) == theta(2, 2, 2)


def test_color_level_guard():
    # [1], [2], [3] are nonzero at level 5
    assert not qfact(3, 5).is_zero()
    assert theta(3, 3, 0, 5) == reduce_to_kp(bracket_e(3), 5)
    # [4] vanishes at level 8 and [5] at level 5: no denominator may hold them
    for n, p in ((4, 8), (5, 5)):
        assert qfact(n, p).is_zero()
        with pytest.raises(UnsupportedSpecialization):
            theta(n, n, 0, p)


def test_inverse_factorial_table():
    from tvskein.recoupling import _qfact_inv
    for p in (7, 9, 13):
        for k in range(p):
            assert qfact(k, p) * _qfact_inv((k,), p) == CycloElem.one(p), (p, k)
    # at even p, [p/2]! vanishes and may not stand in a denominator
    assert qfact(4, 8).is_zero() and not qfact(3, 8).is_zero()
    with pytest.raises(UnsupportedSpecialization):
        _qfact_inv((1, 4), 8)


def test_level_free_and_level_branches_agree():
    # one closed formula, two branches: the level-free value, reduced to
    # k_p as num * den^-1, is the value at the level wherever the level's
    # denominator does not vanish
    def agree(fn, args, p):
        try:
            at_level = fn(*args, p)
        except UnsupportedSpecialization:
            return 0
        free = fn(*args)
        assert reduce_to_kp(free.num, p) * reduce_to_kp(free.den, p).inv() \
            == at_level, (fn.__name__, args, p)
        return 1

    for p in (5, 7, 8, 9):
        small = ColorData.at(p).small
        triples = [t for t in itertools.product(range(4), repeat=3)
                   if small(*t)]
        checked = sum(agree(theta, t, p) for t in triples)
        tets = [cs for cs in itertools.product(range(4), repeat=6)
                if all(small(*t) for t in ((cs[0], cs[1], cs[2]),
                                           (cs[0], cs[4], cs[5]),
                                           (cs[1], cs[4], cs[3]),
                                           (cs[2], cs[5], cs[3])))]
        checked += sum(agree(tet, cs, p) for cs in tets)
        assert checked > len(triples), p
