import random
from fractions import Fraction

import pytest

from tvskein.cyclo import CycloElem, level_degree, reduce_to_kp
from tvskein.laurent import DELTA, LaurentPoly
from tvskein.matring import (RingMatrix, _rref, berkowitz_charpoly,
                             berkowitz_det, flat_decompose, inverse,
                             matrix_period, normalized_charpoly, rank,
                             similarity_invariants, solve, trace_powers)
from tvskein.polyalg import RingPoly, power_sums
from tvskein.rings import QQ, ZA, kp_field


def _rand_matrix(rnd, n, lo=-3, hi=3):
    return RingMatrix(QQ, [[Fraction(rnd.randint(lo, hi)) for _ in range(n)]
                           for _ in range(n)])


def test_charpoly_basics():
    ident = RingMatrix.identity(QQ, 2)
    assert berkowitz_charpoly(ident) == RingPoly(QQ, [1, -2, 1])
    nil = RingMatrix(QQ, [[0, 1], [0, 0]])
    assert berkowitz_charpoly(nil) == RingPoly(QQ, [0, 0, 1])
    empty = RingMatrix(QQ, [])
    assert berkowitz_charpoly(empty) == RingPoly.one(QQ)


def test_cayley_hamilton():
    rnd = random.Random(5)
    for n in range(1, 6):
        for _ in range(6):
            m = _rand_matrix(rnd, n)
            cp = berkowitz_charpoly(m)
            z = cp.eval_matrix(m)
            assert all(z[i, j] == 0 for i in range(n) for j in range(n))


def test_det_values():
    d2 = RingMatrix(ZA, [[DELTA * DELTA, DELTA], [DELTA, DELTA * DELTA]])
    assert berkowitz_det(d2) == DELTA ** 4 - DELTA ** 2


def test_flat_decompose():
    nil = RingMatrix(QQ, [[0, 1], [0, 0]])
    fd = flat_decompose(nil)
    assert fd.flat_rank == 0 and fd.gamma == RingPoly.one(QQ)
    rnd = random.Random(6)
    for _ in range(20):
        n = rnd.randint(1, 4)
        m = _rand_matrix(rnd, n, -2, 2)
        fd = flat_decompose(m)
        cp = berkowitz_charpoly(m)
        # x^(n-r) gamma == charpoly exactly
        xpow = RingPoly(QQ, [0] * (n - fd.flat_rank) + [1]) \
            if n > fd.flat_rank else RingPoly.one(QQ)
        assert xpow * fd.gamma == cp
        assert not fd.gamma.coeff(0) == 0 or fd.flat_rank == 0


def test_similarity_invariants():
    diag = RingMatrix.identity(QQ, 2)
    f = similarity_invariants(diag)
    xm1 = RingPoly(QQ, [-1, 1])
    assert f == [xm1, xm1]
    jordan = RingMatrix(QQ, [[1, 1], [0, 1]])
    f2 = similarity_invariants(jordan)
    assert f2 == [RingPoly.one(QQ), RingPoly(QQ, [1, -2, 1])]
    assert f != f2      # distinct lists, hence not similar
    # companion matrix has a single nontrivial factor
    comp = RingMatrix(QQ, [[0, -5], [1, 2]])
    f3 = similarity_invariants(comp)
    assert f3[-1] == berkowitz_charpoly(comp)
    assert all(g == RingPoly.one(QQ) for g in f3[:-1])


def test_similarity_conjugation_invariance():
    rnd = random.Random(7)
    trials = 0
    while trials < 20:
        n = rnd.randint(2, 4)
        m = _rand_matrix(rnd, n, -2, 2)
        s = _rand_matrix(rnd, n, -2, 2)
        try:
            sinv = inverse(s)
        except ZeroDivisionError:
            continue
        conj = s * m * sinv
        assert similarity_invariants(m) == similarity_invariants(conj)
        trials += 1


def test_trace_powers_matches_newton():
    rnd = random.Random(8)
    for _ in range(100):
        m = _rand_matrix(rnd, 4, -2, 2)
        fd = flat_decompose(m)
        tp = trace_powers(m, 10)
        ps = power_sums(fd.gamma, 10)
        assert all(tp[d] == ps[d] for d in range(1, 11))


def test_bar_transpose_symmetry():
    # gamma(bar A^t) == bar(gamma(A)) over k_5
    rnd = random.Random(9)
    ring = kp_field(5)
    for _ in range(10):
        m = RingMatrix(ring, [[CycloElem(5, tuple(rnd.randint(-2, 2)
                                                  for _ in range(4)))
                               for _ in range(3)] for _ in range(3)])
        g1 = normalized_charpoly(m.bar().transpose())
        g2 = normalized_charpoly(m).bar()
        assert g1 == g2


def test_matrix_period():
    assert matrix_period(RingMatrix.identity(QQ, 3), 5) == 1
    rot = RingMatrix(QQ, [[0, -1], [1, 0]])
    assert matrix_period(rot, 10) == 4
    assert matrix_period(rot, 3) is None
    # scalar periodicity reporting
    m, c = matrix_period(rot * Fraction(1), 10, scalars=True)
    assert (m, c) == (2, Fraction(-1))


def _rand_entry(rnd, ring):
    if ring is QQ:
        return Fraction(rnd.randint(-3, 3))
    return CycloElem(ring.p, tuple(rnd.randint(-2, 2)
                                   for _ in range(level_degree(ring.p))))


def _rand_invertible(rnd, ring, r):
    while True:
        g = RingMatrix(ring, [[_rand_entry(rnd, ring) for _ in range(r)]
                              for _ in range(r)])
        if rank(g) == r:
            return g


def _rand_unimodular(rnd, ring, n):
    """A product of unit lower- and upper-triangular integer matrices."""
    low = RingMatrix.identity(ring, n)
    up = RingMatrix.identity(ring, n)
    for i in range(n):
        for j in range(i):
            low[i, j] = ring.coerce(rnd.randint(-2, 2))
            up[j, i] = ring.coerce(rnd.randint(-2, 2))
    return low * up


def _flat_by_full_power(z):
    """The flat matrix in the basis of the pivot columns of Z^n."""
    n = z.rows
    zn = z ** n
    _, piv = _rref(zn)
    basis = RingMatrix(z.ring, [[zn[i, c] for c in piv] for i in range(n)])
    return solve(basis, z * basis)


@pytest.mark.parametrize("ring", [QQ, kp_field(7)], ids=["QQ", "k7"])
def test_flat_decompose_at_fitting_index(ring):
    # Z = U (N + G) U^-1, N one nilpotent Jordan block of index exactly
    # n - r, G invertible: the flat part must equal the Z^n-basis one
    rnd = random.Random(31)
    for n in range(2, 6):
        for r in range(1, n):
            g = _rand_invertible(rnd, ring, r)
            nil = RingMatrix.zero(ring, n - r, n - r)
            for i in range(n - r - 1):
                nil[i, i + 1] = ring.one
            u = _rand_unimodular(rnd, ring, n)
            z = u * nil.direct_sum(g) * inverse(u)
            fd = flat_decompose(z)
            assert fd.flat_rank == r
            assert fd.gamma == berkowitz_charpoly(g)
            assert fd.flat_matrix == _flat_by_full_power(z)


def test_flat_decompose_full_rank_takes_no_power(monkeypatch):
    exponents = []
    power = RingMatrix.__pow__

    def counted(self, k):
        exponents.append(k)
        return power(self, k)

    monkeypatch.setattr(RingMatrix, "__pow__", counted)
    rnd = random.Random(32)
    for ring in (QQ, kp_field(7)):
        z = _rand_invertible(rnd, ring, 4)
        fd = flat_decompose(z)
        assert fd.flat_matrix == z and fd.flat_rank == 4
    assert exponents == []
    # a rank-deficient Z is raised to its Fitting index n - r only
    z = RingMatrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    assert flat_decompose(z).flat_rank == 1
    assert exponents == [2]
