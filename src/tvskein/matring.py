"""Dense matrices over a commutative coefficient ring.

The characteristic polynomial is computed by the Berkowitz scheme, which
is division-free and therefore valid over Z[A,A^-1] and over the k_p
levels.  Over Z[A,A^-1] and k_p it and the matrix product run on the
ring's integer image, A -> 2^b with b from a proven l1 bound (Kronecker
substitution, von zur Gathen-Gerhard, *Modern Computer Algebra*, 8.4).
Rank, image bases, solves and inverses come
from forward elimination over a field, pivoting on the first nonzero
entry so that every run reproduces the same flat basis; solves, inverses,
the flat matrix and minimal polynomials of vectors then back-substitute.
Every row update is the ring's ``axpy`` and every pivot is inverted once.

``flat_decompose`` splits an endomorphism Z into its nilpotent part and
the automorphism induced on the image of its powers, and returns the
one invariant record, ``TVInvariant``: Z, the normalized characteristic
polynomial Gamma of that automorphism, and its matrix.  The image is
taken at the Fitting index: with r = deg Gamma the nilpotent part has
index at most n - r, so the image is image(Z^(n-r)), and Z itself when
r = n.  Below full rank, Z^(n-r) is formed by products from Z, and one
forward elimination of [Z^(n-r) | Z^(n-r+1)] gives both the flat basis
and the matrix of Z on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, count
from math import prod
from operator import lshift, mul

from .laurent import _power
from .polyalg import (InvariantCheckError, RingPoly, numeric_roots,
                      power_sums, root_periodicity)


class RingMatrix:
    """Rectangular matrix with entries in a descriptor ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = [[ring.coerce(x) if isinstance(x, (int, Fraction)) else x
                      for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged matrix")

    @staticmethod
    def zero(ring, rows, cols):
        return RingMatrix(ring, [[ring.zero] * cols for _ in range(rows)])

    @staticmethod
    def identity(ring, n):
        m = RingMatrix.zero(ring, n, n)
        for i in range(n):
            m.data[i][i] = ring.one
        return m

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, val):
        self.data[ij[0]][ij[1]] = val

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in +")
        return RingMatrix(self.ring, [[a + b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch in *")
            if hasattr(self.ring, "image"):
                return _image_product(self.ring, self.data, other.data)
            dot = self.ring.dot
            bt = list(zip(*other.data))
            return _matrix(self.ring, [[dot(r, c) for c in bt]
                                       for r in self.data])
        if isinstance(other, int):
            other = self.ring.coerce(other)
        return RingMatrix(self.ring, [[a * other for a in r] for r in self.data])

    __rmul__ = __mul__

    def __pow__(self, n):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        return _power(self, n, RingMatrix.identity(self.ring, self.rows))

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for r1, r2 in zip(self.data, other.data)
                for a, b in zip(r1, r2))

    def transpose(self):
        return RingMatrix(self.ring, [list(c) for c in zip(*self.data)]) \
            if self.data else self

    def bar(self):
        return RingMatrix(self.ring, [[self.ring.bar(a) for a in r]
                                      for r in self.data])

    def trace(self):
        acc = self.ring.zero
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def map(self, fn, ring=None):
        return RingMatrix(ring or self.ring, [[fn(a) for a in r] for r in self.data])

    def kron(self, other):
        """Kronecker product (tensor of the underlying automorphisms)."""
        out = []
        for r1 in self.data:
            for r2 in other.data:
                out.append([a * b for a in r1 for b in r2])
        if not out:
            return RingMatrix(self.ring, [])
        return RingMatrix(self.ring, out)

    def direct_sum(self, other):
        n, m = self.rows + other.rows, self.cols + other.cols
        out = RingMatrix.zero(self.ring, n, m)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[i][j] = self.data[i][j]
        for i in range(other.rows):
            for j in range(other.cols):
                out.data[self.rows + i][self.cols + j] = other.data[i][j]
        return out

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(a) for a in r) + "]"
                                 for r in self.data) + "]"

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring.name})"


def _matrix(ring, rows):
    """A RingMatrix on rows of ring elements, taken as they are."""
    out = RingMatrix.__new__(RingMatrix)
    out.ring, out.data, out.rows = ring, rows, len(rows)
    out.cols = len(rows[0]) if rows else 0
    return out


# -- the integer image --------------------------------------------------------


def _int_dot(xs, ys):
    return sum(map(mul, xs, ys))


def _mod_dot(m, xs, ys):
    return sum(map(mul, xs, ys)) % m


def _row_l1(row):
    """The sum of the l1 norms of a row of integer polynomials."""
    return sum(map(abs, chain.from_iterable(row)))


def _at(polys, b):
    """The ints f(2^b) of a matrix of integer polynomials f."""
    return [[sum(map(lshift, f, count(0, b))) for f in row] for row in polys]


def _image_product(ring, left, right):
    """The product of two matrices over a ring with an integer image.

    With left = F / (d A^s) and right = G / (e A^t), the product is
    FG / (d e A^(s+t)).  By ||fg||_1 <= ||f||_1 ||g||_1 (the l1 norm sums
    the coefficients' absolute values), ||(FG)_jk||_1 <= R_j max ||G_lk||_1,
    R_j the sum of the l1 norms of row j of F: below 2^(b-1) for
    b = bit_length(max_j R_j max ||G_lk||_1) + 1, as ``from_image`` needs.
    """
    dl, sl, fl = ring.image(left)
    dr, sr, fr = ring.image(right)
    gmax = max((sum(map(abs, g)) for row in fr for g in row), default=0)
    b = (max(map(_row_l1, fl), default=0) * gmax).bit_length() + 1
    den, shift = dl * dr, sl + sr
    cols = list(zip(*_at(fr, b)))
    return _matrix(ring, [[ring.from_image(_int_dot(r, c), b, den, shift)
                           for c in cols] for r in _at(fl, b)])


# -- characteristic polynomial (division-free) ---------------------------


def _berkowitz(rows, dot, one):
    """Coefficients 1, c_1, .., c_n of det(xI - M), highest first, from
    ``dot``, negation and ``one``: c_i is homogeneous of degree i."""
    n = len(rows)
    char = [one]                      # descending coefficients, 0x0 -> [1]
    for k in range(1, n + 1):
        a = rows[k - 1][k - 1]
        row = rows[k - 1][:k - 1]
        block = [r[:k - 1] for r in rows[:k - 1]]
        v = [r[k - 1] for r in rows[:k - 1]]
        t = [one, -a]
        for _ in range(k - 1):
            t.append(-dot(row, v))
            if len(t) == k + 1:
                break
            v = [dot(r, v) for r in block]
        # len(t) = k + 1 > len(char) = k: the product of t and char
        char = [dot(char, t[i::-1]) for i in range(k + 1)]
    return char


def berkowitz_charpoly(mat):
    """Characteristic polynomial det(xI - A) by the Berkowitz scheme.

    Division-free, so valid over any commutative coefficient ring; the
    0 x 0 matrix has characteristic polynomial 1.  Over a ring with an
    integer image the matrix is F / (d A^s), with c_i = c_i(F) / (d A^s)^i,
    and Berkowitz runs on the ints F(2^b), modulo ``image_modulus(b)``
    where the ring has one (over k_p: every int stays at p b bits).

    The bound: c_i(F) is (-1)^i times the sum of the principal i x i
    minors of F, and a minor on the rows S sums signed products of one
    entry per row, so by ||fg||_1 <= ||f||_1 ||g||_1 its l1 norm is at
    most prod_(j in S) R_j, R_j the sum of the l1 norms of row j of F.
    So ||c_i(F)||_1 <= e_i(R_1, .., R_n) <= prod_j (1 + R_j) < 2^(b-1) for
    b = bit_length(prod_j (1 + R_j)) + 1, as ``from_image`` needs.
    """
    if mat.rows != mat.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    ring = mat.ring
    if not hasattr(ring, "image"):
        return RingPoly(ring, _berkowitz(mat.data, ring.dot, ring.one)[::-1])
    den, shift, polys = ring.image(mat.data)
    b = prod(1 + _row_l1(row) for row in polys).bit_length() + 1
    m = ring.image_modulus(b)
    char = _berkowitz(_at(polys, b),
                      _int_dot if m is None else partial(_mod_dot, m), 1)
    return RingPoly(ring, [ring.from_image(c, b, den ** i, shift * i)
                           for i, c in enumerate(char)][::-1])


def normalized_charpoly(mat):
    """charpoly divided by the largest power of x dividing it."""
    return berkowitz_charpoly(mat).normalized()


# -- elimination over a field ---------------------------------------------


def _echelon(mat):
    """Forward elimination: (rows, pivot columns, pivot inverses).

    Row i < len(pivots) starts with its pivot at column pivots[i]; the
    rows below are zero.  Each pivot is inverted once, and each row below
    it takes the update x - f * y by f = (its entry) * pivot^-1 over the
    columns from the pivot on, through ``ring.axpy``.
    """
    ring = mat.ring
    m = [row[:] for row in mat.data]
    rows = mat.rows
    pivots, invs = [], []
    for c in range(mat.cols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ring.inv(m[r][c])
        tail = m[r][c:]
        for i in range(r + 1, rows):
            if m[i][c]:
                m[i][c:] = ring.axpy(m[i][c:], m[i][c] * inv, tail)
        pivots.append(c)
        invs.append(inv)
    return m, pivots, invs


def rank(mat):
    return len(_echelon(mat)[1])


def inverse(mat):
    if mat.rows != mat.cols:
        raise ValueError("inverse of a non-square matrix")
    return solve(mat, RingMatrix.identity(mat.ring, mat.rows))


def solve(mat, rhs):
    """Solve mat * X = rhs (exact; raises if inconsistent).

    Forward elimination of [mat | rhs], then back substitution from the
    last pivot row up with the stored pivot inverses; a column without a
    pivot gives a zero row of X.
    """
    ring, n = mat.ring, mat.cols
    aug = RingMatrix(ring, [mat.data[i] + rhs.data[i] for i in range(mat.rows)])
    red, piv, invs = _echelon(aug)
    if piv and piv[-1] >= n:
        raise ZeroDivisionError("inconsistent linear system")
    out = RingMatrix.zero(ring, n, rhs.cols)
    for c, row in zip(piv, _back_substitute(ring, red, piv, invs,
                                            [r[n:] for r in red])):
        out.data[c] = row
    return out


def _back_substitute(ring, red, piv, invs, rhs):
    """Rows x_0 .. x_(t-1), t = len(piv), with sum_b red[a][piv[b]] x_b =
    rhs[a] for a forward elimination (red, piv, invs).

    From the last pivot row up, each rhs row takes ``ring.axpy`` by the
    rows solved below it and one product by its pivot inverse.
    """
    xs = [None] * len(piv)
    for a in reversed(range(len(piv))):
        row = rhs[a]
        for b in range(a + 1, len(piv)):
            if red[a][piv[b]]:
                row = ring.axpy(row, red[a][piv[b]], xs[b])
        xs[a] = [x * invs[a] for x in row]
    return xs


# -- flat decomposition -----------------------------------------------------


class TVInvariant:
    """The invariant of an endomorphism Z over a field: its flat part.

    ``flat_matrix`` is the action of Z on a column basis of
    image(Z^(n-r)), and ``gamma`` its normalized (monic) charpoly.  What
    Gamma determines is read from it: the flat rank r = deg Gamma and the
    constant term D = Gamma(0).  ``p`` is the level of a matrix over k_p,
    None over any other ring.  The period, the numeric eigenvalues and the
    similarity invariants are computed on first read.
    """

    def __init__(self, matrix, gamma, flat_matrix):
        self.matrix = matrix
        self.gamma = gamma
        self.flat_matrix = flat_matrix

    def __repr__(self):
        return (f"TVInvariant(matrix={self.matrix!r}, gamma={self.gamma!r}, "
                f"flat_matrix={self.flat_matrix!r})")

    @property
    def p(self):
        return getattr(self.matrix.ring, "p", None)

    @property
    def flat_rank(self):
        return self.gamma.degree()

    @property
    def constant_term(self):
        return self.gamma.constant_term()

    def power_sums(self, d_max):
        return power_sums(self.gamma, d_max)

    @cached_property
    def period(self):
        """The certified period of the roots of Gamma at a level, or None."""
        if self.p is None or not self.flat_rank:
            return None
        return root_periodicity(self.gamma)

    @cached_property
    def invariant_factors(self):
        """Similarity invariants of the flat part.

        The paper's invariant is the similarity class of the flat
        (non-nilpotent) part of Z(E), which Gamma alone does not fix; these
        factors are that class, from the cyclic decomposition of
        ``similarity_invariants``, and
        test_invariant_factors_stable_under_shift checks the theorem with
        them.  They are not yet part of the JSON output.
        """
        return similarity_invariants(self.flat_matrix) if self.flat_rank else []

    @cached_property
    def numeric_eigen(self):
        """Roots of Gamma under A_p -> exp(pi i / p)."""
        if self.p is None or not self.flat_rank:
            return []
        return numeric_roots(self.gamma)


def flat_decompose(z):
    """Split Z into nilpotent and invertible parts over a field ring.

    With r = deg Gamma, the flat part acts on image(Z^(n-r)) in the basis
    B of the pivot columns of P = Z^(n-r).  These are the pivot columns of
    Z^n too, and the matrix is the same, because Z^r commutes with Z and
    is invertible on the image.  P comes from n - r - 1 products by Z, and
    one forward elimination of [P | ZP] gives both the pivots, which must
    number r and all lie in the left half (image(ZP) lies in image(P)),
    and M with B M = Z B, by back substitution against the columns of ZP
    at the pivots; the charpoly of M must be Gamma, and its constant term
    nonzero.  When r = n the charpoly's constant term is nonzero, so Z is
    invertible and is its own flat part: no elimination runs, and the
    check is that the charpoly's x^(n-1) coefficient is -tr Z.
    """
    if z.rows != z.cols:
        raise ValueError("flat decomposition of a non-square matrix")
    ring = z.ring
    n = z.rows
    char = berkowitz_charpoly(z)
    gamma = char.normalized()
    r = gamma.degree()
    if n == 0 or r == 0:
        return TVInvariant(z, RingPoly.one(ring), RingMatrix(ring, []))
    if r == n:
        if gamma.coeff(n - 1) != -z.trace():
            raise InvariantCheckError("charpoly disagrees with the trace")
        return TVInvariant(z, gamma, z)
    zk = z
    for _ in range(n - r - 1):
        zk = zk * z
    zk1 = zk * z
    red, piv, invs = _echelon(RingMatrix(
        ring, [a + b for a, b in zip(zk.data, zk1.data)]))
    if len(piv) != r or piv[-1] >= n:
        raise InvariantCheckError(
            "flat rank disagrees with normalized charpoly degree")
    # action: Z B = B M, with Z B the columns of Z^(n-r+1) at the pivots
    m = RingMatrix(ring, _back_substitute(
        ring, red, piv, invs, [[row[n + c] for c in piv] for row in red[:r]]))
    if berkowitz_charpoly(m) != gamma:
        raise InvariantCheckError("flat charpoly mismatch")
    if not gamma.constant_term():
        raise InvariantCheckError("normalized charpoly has zero constant term")
    return TVInvariant(z, gamma, m)


# -- similarity invariants ---------------------------------------------------


def similarity_invariants(mat):
    """Invariant factors of xI - A over F[x], each dividing the next.

    Returns a list of n monic polynomials, the leading ones equal to 1;
    two square matrices over a field are similar iff their lists agree.
    They come from a cyclic decomposition (Hoffman-Kunze, *Linear
    Algebra*, ch. 7): a vector v whose minimal polynomial f is A's own
    gives the last factor f, and its cyclic subspace K(v) has an
    A-invariant complement, so the factors before f are those of A on
    V / K(v).  One ``solve`` against the Krylov basis of v and the unit
    vectors off its pivots gives that matrix, and the loop runs again.
    """
    if mat.rows != mat.cols:
        raise ValueError("similarity invariants of a non-square matrix")
    ring = mat.ring
    factors, ones = [], 0
    while mat.rows:
        n = mat.rows
        vs, f = _maximal_vector(mat)
        d = f.degree()
        factors.insert(0, f)
        ones += d - 1
        if d == n:
            break
        units = RingMatrix.identity(ring, n).data
        piv = _echelon(RingMatrix(ring, vs[:d]))[1]
        off = [j for j in range(n) if j not in piv]
        basis = RingMatrix(ring, zip(*vs[:d], *(units[j] for j in off)))
        mat = RingMatrix(ring, solve(basis, RingMatrix(
            ring, [[row[j] for j in off] for row in mat.data])).data[d:])
    return [RingPoly.one(ring)] * ones + factors


def _krylov(mat, v):
    """(v, Mv, .., M^n v) and the minimal polynomial f of a vector v != 0.

    In one forward elimination of the columns [v | Mv | .. | M^n v] the
    pivots are the columns 0 .. d - 1, d = deg f: M^d v is the first
    column that depends on those before it, and back substitution writes
    it in them.
    """
    vs = [v]
    for _ in range(mat.rows):
        vs.append([mat.ring.dot(row, vs[-1]) for row in mat.data])
    red, piv, invs = _echelon(RingMatrix(mat.ring, zip(*vs)))
    d = len(piv)
    xs = _back_substitute(mat.ring, red, piv, invs, [[row[d]] for row in red])
    return vs, RingPoly(mat.ring, [-x for x, in xs] + [mat.ring.one])


def _maximal_vector(mat):
    """``_krylov`` of a vector whose minimal polynomial f is mat's own.

    f is the lcm of the minimal polynomials of unit vectors, folded in one
    at a time with gcds and exact divisions only; it is M's own once their
    Krylov vectors span V, and each next unit vector is off the pivots of
    that span, so outside it.  When the unit vector w with minimal polynomial g
    brings primes where g's power exceeds f's, b is the part of g on those
    primes and h = gcd(f, b): a = f / h and b are coprime with
    a b = lcm(f, g), and h(M) v + (g / b)(M) w has minimal polynomial a b.
    """
    ring, n = mat.ring, mat.rows
    units = RingMatrix.identity(ring, n).data
    vs, f = _krylov(mat, units[0])
    span, piv, _ = _echelon(RingMatrix(ring, vs[:f.degree()]))
    while len(piv) < n:
        ws, g = _krylov(mat, units[min(set(range(n)) - set(piv))])
        span, piv, _ = _echelon(RingMatrix(
            ring, span[:len(piv)] + ws[:g.degree()]))
        b = c = g.divmod(g.gcd(f))[0]
        while c.degree():               # b takes all of g on its primes
            c = g.divmod(b)[0].gcd(b)
            b = b * c
        if b.degree():                  # else g divides f
            h, gb = f.gcd(b).coeffs, g.divmod(b)[0].coeffs
            vs, f = _krylov(mat, [ring.dot(h, x) + ring.dot(gb, y)
                                  for x, y in zip(zip(*vs), zip(*ws))])
    return vs, f
