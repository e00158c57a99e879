import random
from fractions import Fraction

import pytest

from tvskein.cyclo import CycloElem, level_degree, reduce_to_kp
from tvskein.laurent import DELTA, LaurentPoly
from tvskein.matring import (RingMatrix, _berkowitz, _echelon,
                             berkowitz_charpoly, flat_decompose, inverse,
                             normalized_charpoly, rank, similarity_invariants,
                             solve)
from tvskein.oracles import (berkowitz_det, eval_matrix, matrix_period,
                             trace_powers)
from tvskein.polyalg import RingPoly, power_sums
from tvskein.rings import QQ, ZA, _digits, kp_field


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
            z = eval_matrix(cp, m)
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


def _companion(ring, f):
    """The companion matrix of a monic f, with minimal polynomial f."""
    d = f.degree()
    return RingMatrix(ring, [[ring.one if i == j + 1 else ring.zero
                              for j in range(d - 1)] + [-f.coeff(i)]
                             for i in range(d)])


@pytest.mark.parametrize("p", [None, 5, 7, 8])
def test_similarity_invariants_of_known_structure(p):
    # a direct sum of companion matrices of a divisor chain s_1 | .. | s_t
    # has the invariant factors 1, .., 1, s_1, .., s_t; its repeated blocks
    # make it non-cyclic, and conjugation by a random invertible matrix
    # must give the same chain back
    rnd = random.Random(31 if p is None else p)
    ring = QQ if p is None else kp_field(p)

    def scalar():
        if p is None:
            return Fraction(rnd.randint(-3, 3))
        return CycloElem(p, tuple(rnd.randint(-2, 2)
                                  for _ in range(level_degree(p))))

    def monic(d):
        return RingPoly(ring, [scalar() for _ in range(d)] + [ring.one])

    for _ in range(6):
        chain = [monic(rnd.randint(1, 2))]
        while sum(f.degree() for f in chain) < 5:
            chain.append(chain[-1] * monic(rnd.choice((0, 0, 1))))
        m = _companion(ring, chain[0])
        for f in chain[1:]:
            m = m.direct_sum(_companion(ring, f))
        n = m.rows
        while True:
            s = RingMatrix(ring, [[scalar() for _ in range(n)]
                                  for _ in range(n)])
            try:
                s_inv = inverse(s)
            except ZeroDivisionError:
                continue
            break
        want = [RingPoly.one(ring)] * (n - len(chain)) + chain
        assert similarity_invariants(m) == want
        assert similarity_invariants(s * m * s_inv) == want


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
    _, piv, _ = _echelon(zn)
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
    # r = n forms no power and eliminates nothing; r < n forms Z^(n-r) by
    # products from Z, with no __pow__, and eliminates [Z^(n-r) | Z^(n-r+1)]
    # once, for the pivots and M together
    import tvskein.matring as matring
    calls = []
    power, echelon = RingMatrix.__pow__, matring._echelon

    def counted_power(self, k):
        calls.append(("pow", k))
        return power(self, k)

    def counted_echelon(mat):
        calls.append(("echelon", mat.rows, mat.cols))
        return echelon(mat)

    rnd = random.Random(32)
    inputs = [_rand_invertible(rnd, ring, 4) for ring in (QQ, kp_field(7))]
    monkeypatch.setattr(RingMatrix, "__pow__", counted_power)
    monkeypatch.setattr(matring, "_echelon", counted_echelon)
    for z in inputs:
        fd = flat_decompose(z)
        assert fd.flat_matrix == z and fd.flat_rank == 4
    assert calls == []
    z = RingMatrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    assert flat_decompose(z).flat_rank == 1
    assert calls == [("echelon", 3, 6)]


def test_flat_decompose_checks_its_pivots(monkeypatch):
    # below full rank the one elimination must give exactly r pivots, all
    # in the Z^(n-r) half: a pivot lost, or one in the Z^(n-r+1) half,
    # raises rather than reading a wrong flat matrix
    import tvskein.matring as matring
    from tvskein.polyalg import InvariantCheckError
    z = RingMatrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    real = matring._echelon
    for bad in (lambda piv: piv[:-1], lambda piv: piv[:-1] + [3]):
        def broken(mat, bad=bad):
            red, piv, invs = real(mat)
            return red, bad(piv), invs
        with monkeypatch.context() as m:
            m.setattr(matring, "_echelon", broken)
            with pytest.raises(InvariantCheckError, match="flat rank"):
                flat_decompose(z)
    assert flat_decompose(z).flat_rank == 1


def test_flat_decompose_of_a_scalar_multiple():
    # the general double splits X and scales by beta: for c != 0 the split
    # of c X is that of X with Gamma's x^i coefficient times c^(r-i), D
    # times c^r, and the flat matrix c X at r = n and c M_X at r < n
    ring = kp_field(7)
    rnd = random.Random(36)
    seen = set()
    for n in range(1, 6):
        for r in (0, rnd.randint(1, n - 1) if n > 1 else 0, n):
            nil = RingMatrix.zero(ring, n - r, n - r)
            for i in range(n - r - 1):
                nil[i, i + 1] = ring.one
            u = _rand_unimodular(rnd, ring, n)
            x = u * nil.direct_sum(_rand_invertible(rnd, ring, r)) * inverse(u)
            c = _rand_entry(rnd, ring) or ring.one
            fx, fc = flat_decompose(x), flat_decompose(x * c)
            assert fx.flat_rank == fc.flat_rank == r
            assert fc.gamma == RingPoly(ring, [a * c ** (r - i) for i, a in
                                               enumerate(fx.gamma.coeffs)])
            assert fc.constant_term == fx.constant_term * c ** r
            assert fc.flat_matrix == (x * c if r == n else fx.flat_matrix * c)
            seen.add((r == 0, 0 < r < n, r == n))
    assert len(seen) == 3


@pytest.mark.parametrize("ring", [QQ, kp_field(7)], ids=["QQ", "k7"])
def test_berkowitz_constant_term_decides_full_rank(ring):
    # flat_decompose reads r = n from the charpoly alone: its constant term
    # is nonzero exactly when Z has rank n
    rnd = random.Random(33)
    seen = {True: 0, False: 0}
    for n in range(1, 6):
        for _ in range(4):
            z = _rand_invertible(rnd, ring, n)
            mid = rnd.randint(0, n - 1)
            low = _random_matrix(rnd, ring, n, mid) * \
                _random_matrix(rnd, ring, mid, n) if mid else \
                RingMatrix.zero(ring, n, n)
            for m in (z, low, _random_matrix(rnd, ring, n)):
                full = rank(m) == n
                assert bool(berkowitz_charpoly(m).constant_term()) == full
                seen[full] += 1
    assert all(seen.values()), seen


def test_berkowitz_constant_term_decides_full_rank_of_doubles():
    from tvskein.tqft import double_invariant
    seen = {True: 0, False: 0}
    for p in range(2, 13):
        for k in range(-p, p):
            z = double_invariant("U", k, p).matrix
            full = rank(z) == z.rows
            assert bool(berkowitz_charpoly(z).constant_term()) == full, (p, k)
            seen[full] += 1
    assert all(seen.values()), seen


def test_flat_decompose_full_rank_runs_no_elimination(monkeypatch):
    import tvskein.matring as matring
    calls = []
    real = matring._echelon

    def counted(mat):
        calls.append(mat.rows)
        return real(mat)

    rnd = random.Random(34)
    inputs = [_rand_invertible(rnd, ring, n)
              for ring in (QQ, kp_field(7)) for n in range(1, 5)]
    monkeypatch.setattr(matring, "_echelon", counted)
    for z in inputs:
        fd = flat_decompose(z)
        assert fd.flat_rank == z.rows and fd.flat_matrix == z
        assert fd.gamma == berkowitz_charpoly(z)
    assert calls == []
    # r < n still eliminates Z^(n-r)
    flat_decompose(RingMatrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
    assert calls


def test_flat_decompose_full_rank_checks_the_trace(monkeypatch):
    import tvskein.matring as matring
    from tvskein.polyalg import InvariantCheckError
    real = matring.berkowitz_charpoly

    def off_by_one(mat):
        # the x^(n-1) coefficient moved by 1; degree and constant term kept
        char = real(mat)
        cs = list(char.coeffs)
        cs[-2] = cs[-2] + 1
        return RingPoly(char.ring, cs)

    rnd = random.Random(35)
    for ring in (QQ, kp_field(7)):
        for n in (2, 3):
            z = _rand_invertible(rnd, ring, n)
            flat_decompose(z)
            with monkeypatch.context() as m:
                m.setattr(matring, "berkowitz_charpoly", off_by_one)
                with pytest.raises(InvariantCheckError, match="trace"):
                    flat_decompose(z)


# -- one dot kernel per ring: naive loops as the reference ---------------------


def _naive_dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _naive_product(a, b):
    return [[_naive_dot(a.ring, row, col) for col in zip(*b.data)]
            for row in a.data]


def _naive_charpoly(mat):
    """Berkowitz with every sum of products written out."""
    ring, n = mat.ring, mat.rows
    char = [ring.one]
    for k in range(1, n + 1):
        row = mat.data[k - 1][:k - 1]
        v = [mat.data[i][k - 1] for i in range(k - 1)]
        t = [ring.one, -mat.data[k - 1][k - 1]]
        while len(t) < k + 1:
            t.append(-_naive_dot(ring, row, v))
            v = [_naive_dot(ring, mat.data[i][:k - 1], v) for i in range(k - 1)]
        new = [ring.zero] * (k + 1)
        for i, ti in enumerate(t):
            for j, cj in enumerate(char):
                if i + j <= k:
                    new[i + j] = new[i + j] + ti * cj
        char = new
    return list(reversed(char))


def _naive_poly_mul(ring, f, g):
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def _naive_power_sums(gamma, d_max):
    """Newton's identities up to the degree, then the recursion."""
    ring, r, c = gamma.ring, gamma.degree(), gamma.coeffs
    s = []
    for d in range(1, d_max + 1):
        acc = ring.zero
        for i in range(1, min(d, r + 1)):
            acc = acc - c[r - i] * s[d - i - 1]
        if d <= r:
            acc = acc - c[r - d] * d
        s.append(acc)
    return s


def _exact(xs):
    """Entries with their representation: the denominator too."""
    return [(x.num, x.den) if isinstance(x, CycloElem) else x for x in xs]


def _random_matrix(rnd, ring, n, m=None):
    """An n x m matrix (m = n by default), a fifth of its entries zero,
    over denominators 1, 2, 3 (Q) or 1, p, 2p (k_p)."""
    cols = range(n if m is None else m)
    if ring is QQ:
        return RingMatrix(QQ, [[Fraction(rnd.randint(-3, 3), rnd.choice((1, 2, 3)))
                                if rnd.random() < 0.8 else 0 for _ in cols]
                               for _ in range(n)])
    p = ring.p
    return RingMatrix(ring, [[CycloElem(
        p, [Fraction(rnd.randint(-3, 3), rnd.choice((1, p, 2 * p)))
            for _ in range(level_degree(p))]) if rnd.random() < 0.8
        else CycloElem.zero(p) for _ in cols] for _ in range(n)])


def _laurent_matrix(rnd, n):
    return RingMatrix(ZA, [[LaurentPoly({rnd.randint(-3, 3): rnd.randint(-2, 2)
                                         for _ in range(2)})
                            for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("ring", [kp_field(7), kp_field(12), QQ, ZA],
                         ids=["k7", "k12", "QQ", "ZA"])
def test_dot_sites_match_naive_loops(ring):
    rnd = random.Random(20)
    for _ in range(3):
        if ring is QQ:
            a, b = _rand_matrix(rnd, 6), _rand_matrix(rnd, 6)
        elif ring is ZA:
            a, b = _laurent_matrix(rnd, 4), _laurent_matrix(rnd, 4)
        else:
            a, b = _random_matrix(rnd, ring, 6), _random_matrix(rnd, ring, 6)
        prod = a * b
        assert [_exact(r) for r in prod.data] == \
            [_exact(r) for r in _naive_product(a, b)]
        char = berkowitz_charpoly(a)
        assert _exact(char.coeffs) == _exact(_naive_charpoly(a))
        other = berkowitz_charpoly(b)
        assert _exact((char * other).coeffs) == \
            _exact(RingPoly(ring, _naive_poly_mul(ring, char.coeffs,
                                                  other.coeffs)).coeffs)
        if ring is not ZA:
            assert _exact(power_sums(char, 20).values) == \
                _exact(_naive_power_sums(char, 20))


# -- the integer image against the ring.dot kernels ----------------------------


def _dot_charpoly(mat):
    return _exact(_berkowitz(mat.data, mat.ring.dot, mat.ring.one)[::-1])


def _dot_product(a, b):
    return [_exact([a.ring.dot(r, c) for c in zip(*b.data)]) for r in a.data]


def _check_image_kernels(a, b):
    assert _exact(berkowitz_charpoly(a).coeffs) == _dot_charpoly(a)
    assert [_exact(r) for r in (a * b).data] == _dot_product(a, b)


@pytest.mark.parametrize("p", [*range(3, 14), 21, 105])
def test_image_kernels_match_dot_kernels_over_kp(p):
    # denominators 1, p, 2p, negative coefficients, and zero rows; at
    # p = 105 (degree 48) the read-back folds A^95 .. A^104 too
    rnd = random.Random(p)
    ring = kp_field(p)
    for n in (0, 1, 1, 2, 3, 5) if p < 100 else (1, 2):
        a = _random_matrix(rnd, ring, n)
        b = _random_matrix(rnd, ring, n, rnd.randint(0, 3))
        if n and rnd.random() < 0.5:
            a.data[rnd.randrange(n)] = [ring.zero] * n
        _check_image_kernels(a, b)


def _laurent_entry(rnd):
    """Zero, or up to four terms at exponents -6..6 with Fraction
    coefficients over denominators 1, 2 and 3."""
    if rnd.random() < 0.2:
        return LaurentPoly()
    return LaurentPoly({rnd.randint(-6, 6): Fraction(rnd.randint(-4, 4),
                                                     rnd.choice((1, 1, 2, 3)))
                        for _ in range(rnd.randint(1, 4))})


def test_image_kernels_match_dot_kernels_over_za():
    rnd = random.Random(33)
    for n in (0, 1, 1, 2, 3, 4, 5):
        for _ in range(4):
            m = rnd.randint(0, 3)
            a = RingMatrix(ZA, [[_laurent_entry(rnd) for _ in range(n)]
                                for _ in range(n)])
            b = RingMatrix(ZA, [[_laurent_entry(rnd) for _ in range(m)]
                                for _ in range(n)])
            if n and rnd.random() < 0.5:
                a.data[rnd.randrange(n)] = [ZA.zero] * n
            _check_image_kernels(a, b)
    # all exponents positive: the image shifts them down to 0
    a = RingMatrix(ZA, [[LaurentPoly({3: 1, 5: -2}), LaurentPoly({4: 1})],
                        [LaurentPoly({7: Fraction(1, 2)}), LaurentPoly()]])
    _check_image_kernels(a, a)


def test_image_kernels_near_the_l1_bound():
    # diag(-R, .., -R) has charpoly (x + R)^n, whose top coefficient R^n
    # is within a factor (1 + 1/R)^n of the bound (1 + R)^n; with R =
    # 2^20 - 2, R^3 sits just under 2^60, the digit range of b = 61.  A row
    # of R's times a column of R's reaches the product bound itself.
    r = 2 ** 20 - 2
    for ring, x in ((kp_field(7), CycloElem.from_int(7, r)),
                    (kp_field(21), CycloElem.from_int(21, r)),
                    (ZA, LaurentPoly({-2: r}))):
        for sign in (-1, 1):
            a = RingMatrix(ring, [[x * sign if i == j else ring.zero
                                   for j in range(3)] for i in range(3)])
            row = RingMatrix(ring, [[x * sign] * 4])
            _check_image_kernels(a, a)
            assert [_exact(y) for y in (row * row.transpose()).data] == \
                _dot_product(row, row.transpose())
            assert berkowitz_charpoly(a).constant_term() == -(x * sign) ** 3
    a = RingMatrix(kp_field(7), [[r, 0, 0], [0, r, 0], [0, 0, r]])
    assert berkowitz_charpoly(a).constant_term() == -r ** 3


def test_digits_read_every_signed_digit():
    rnd = random.Random(8)
    for b in (1, 2, 3, 8, 61):
        half = 1 << (b - 1)
        for count in (1, 2, 5, 40):
            for _ in range(30):
                ds = [rnd.choice((-half, half - 1, 0,
                                  rnd.randrange(-half, half)))
                      for _ in range(count)]
                v = sum(d << (b * k) for k, d in enumerate(ds))
                assert _digits(v, b) == {k: d for k, d in enumerate(ds) if d}


# -- elimination: a naive Gauss-Jordan as the reference ------------------------


def _gauss_jordan(ring, rows):
    """Reduced row echelon form and pivot columns: each pivot row scaled
    to 1 and cleared above and below, one entry at a time."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _naive_solve(a, b):
    """X with a X = b and zero rows at the free columns, or None."""
    red, piv = _gauss_jordan(a.ring, [ra + rb for ra, rb in zip(a.data, b.data)])
    if any(c >= a.cols for c in piv):
        return None
    out = [[a.ring.zero] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(piv):
        out[c] = red[r][a.cols:]
    return out


def _elimination_inputs(rnd, ring):
    """Empty, square, rectangular and rank-deficient matrices."""
    yield RingMatrix(ring, [])
    yield RingMatrix(ring, [[] for _ in range(3)])
    for _ in range(12):
        n, m = rnd.randint(1, 5), rnd.randint(1, 5)
        yield _random_matrix(rnd, ring, n)
        yield _random_matrix(rnd, ring, n, m)
        if min(n, m) > 1:
            mid = rnd.randint(1, min(n, m) - 1)
            yield (_random_matrix(rnd, ring, n, mid)
                   * _random_matrix(rnd, ring, mid, m))


@pytest.mark.parametrize("ring", [QQ, kp_field(7), kp_field(12)],
                         ids=["QQ", "k7", "k12"])
def test_elimination_matches_naive_gauss_jordan(ring):
    rnd = random.Random(23)
    seen = dict.fromkeys(("deficient", "consistent", "inconsistent",
                          "singular", "invertible"), 0)
    for a in _elimination_inputs(rnd, ring):
        red, piv = _gauss_jordan(ring, a.data)
        rows, pivots, invs = _echelon(a)
        assert pivots == piv and rank(a) == len(piv)
        seen["deficient"] += len(piv) < min(a.rows, a.cols)
        for row, c, inv in zip(rows, pivots, invs):
            assert not any(row[:c]) and row[c] * inv == ring.one
        assert not any(x for row in rows[len(pivots):] for x in row)
        assert _gauss_jordan(ring, rows)[0] == red      # the same row space
        # right-hand sides a * X, which is consistent, and a random one,
        # which a deficient a may not meet
        image = a * _random_matrix(rnd, ring, a.cols, 2) if a.cols else \
            RingMatrix.zero(ring, a.rows, 2)
        for b in (image, _random_matrix(rnd, ring, a.rows, 2)):
            want = _naive_solve(a, b)
            if want is None:
                seen["inconsistent"] += 1
                with pytest.raises(ZeroDivisionError):
                    solve(a, b)
                continue
            seen["consistent"] += 1
            got = solve(a, b)
            assert [_exact(r) for r in got.data] == [_exact(r) for r in want]
            assert not a.cols or a * got == b
        if a.rows == a.cols:
            want = _naive_solve(a, RingMatrix.identity(ring, a.rows))
            if want is None:
                seen["singular"] += 1
                with pytest.raises(ZeroDivisionError):
                    inverse(a)
                continue
            seen["invertible"] += 1
            assert [_exact(r) for r in inverse(a).data] == \
                [_exact(r) for r in want]
    assert all(seen.values()), seen
