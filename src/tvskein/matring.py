"""Dense matrices over a commutative coefficient ring.

The characteristic polynomial is computed by the Berkowitz scheme, which
is division-free and therefore valid over Z[A,A^-1] and over the k_p
levels.  Rank, image bases and inverses pass through the fraction field
with ordinary elimination, pivoting on the first nonzero entry so that
every run reproduces the same flat basis.

``flat_decompose`` splits an endomorphism Z into its nilpotent part and
the automorphism induced on the image of its powers; the normalized
characteristic polynomial of that automorphism, and its constant term,
are the central invariants of the engine.  The image is taken at the
Fitting index: with r = deg Gamma the nilpotent part has index at most
n - r, so the image is image(Z^(n-r)), and Z itself when r = n.
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass

from .polyalg import InvariantCheckError, PowerSumSeries, RingPoly, _is_zero


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
            zero = self.ring.zero
            out = []
            bt = list(zip(*other.data))
            for r in self.data:
                row = []
                for c in bt:
                    acc = zero
                    for a, b in zip(r, c):
                        if not _is_zero(a) and not _is_zero(b):
                            acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return RingMatrix(self.ring, out)
        if isinstance(other, int):
            other = self.ring.coerce(other)
        return RingMatrix(self.ring, [[a * other for a in r] for r in self.data])

    __rmul__ = __mul__

    def __pow__(self, n):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = RingMatrix.identity(self.ring, self.rows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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


# -- characteristic polynomial (division-free) ---------------------------


def berkowitz_charpoly(mat):
    """Characteristic polynomial det(xI - A) by the Berkowitz scheme.

    Division-free, so valid over any commutative coefficient ring; the
    0 x 0 matrix has characteristic polynomial 1.
    """
    if mat.rows != mat.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    ring = mat.ring
    n = mat.rows
    one, zero = ring.one, ring.zero
    char = [one]                      # descending coefficients, 0x0 -> [1]
    for k in range(1, n + 1):
        a = mat.data[k - 1][k - 1]
        row = mat.data[k - 1][:k - 1]
        col = [mat.data[i][k - 1] for i in range(k - 1)]
        t = [one, -a]
        v = col
        for _ in range(k - 1):
            dot = zero
            for x, y in zip(row, v):
                if not _is_zero(x) and not _is_zero(y):
                    dot = dot + x * y
            t.append(-dot)
            if len(t) == k + 1:
                break
            v = [_row_dot(mat.data[i][:k - 1], v, zero) for i in range(k - 1)]
        new = []
        for i in range(k + 1):
            acc = zero
            for j in range(len(char)):
                ti = i - j
                if 0 <= ti < len(t) and not _is_zero(char[j]):
                    acc = acc + t[ti] * char[j]
            new.append(acc)
        char = new
    return RingPoly(ring, list(reversed(char)))


def _row_dot(row, v, zero):
    acc = zero
    for x, y in zip(row, v):
        if not _is_zero(x) and not _is_zero(y):
            acc = acc + x * y
    return acc


def berkowitz_det(mat):
    """Determinant via charpoly: det(A) = (-1)^n char(0)."""
    c = berkowitz_charpoly(mat)
    ct = c.constant_term()
    return ct if mat.rows % 2 == 0 else -ct


def normalized_charpoly(mat):
    """charpoly divided by the largest power of x dividing it."""
    return berkowitz_charpoly(mat).normalized()


# -- elimination over a field ---------------------------------------------


def _rref(mat):
    """Row-reduce in place (copy); returns (rref matrix, pivot columns)."""
    ring = mat.ring
    m = [row[:] for row in mat.data]
    rows, cols = mat.rows, mat.cols
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not _is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat):
    _, piv = _rref(mat)
    return len(piv)


def inverse(mat):
    if mat.rows != mat.cols:
        raise ValueError("inverse of a non-square matrix")
    ring = mat.ring
    n = mat.rows
    aug = RingMatrix(ring, [mat.data[i] + RingMatrix.identity(ring, n).data[i]
                            for i in range(n)])
    red, piv = _rref(aug)
    if piv[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return RingMatrix(ring, [row[n:] for row in red[:n]])


def solve(mat, rhs):
    """Solve mat * X = rhs (exact; raises if inconsistent)."""
    ring = mat.ring
    aug = RingMatrix(ring, [mat.data[i] + rhs.data[i] for i in range(mat.rows)])
    red, piv = _rref(aug)
    if any(p >= mat.cols for p in piv):
        raise ZeroDivisionError("inconsistent linear system")
    out = RingMatrix.zero(ring, mat.cols, rhs.cols)
    for r, c in enumerate(piv):
        for j in range(rhs.cols):
            out.data[c][j] = red[r][mat.cols + j]
    return out


# -- flat decomposition -----------------------------------------------------


@dataclass
class FlatDecomposition:
    """Nilpotent/automorphism splitting of a square matrix over a field."""

    source: RingMatrix
    flat_rank: int
    flat_matrix: RingMatrix     # action on a column basis of image(Z^(n-r))
    gamma: RingPoly             # normalized charpoly (monic)
    constant_term: object       # D = gamma's constant term


def flat_decompose(z):
    """Split Z into nilpotent and invertible parts over a field ring.

    With r = deg Gamma, the flat part acts on image(Z^(n-r)) in the basis
    of the pivot columns of Z^(n-r).  These are the pivot columns of Z^n
    too, and the matrix is the same, because Z^r commutes with Z and is
    invertible on the image.  When r = n the flat part is Z itself.
    """
    if z.rows != z.cols:
        raise ValueError("flat decomposition of a non-square matrix")
    ring = z.ring
    n = z.rows
    char = berkowitz_charpoly(z)
    gamma = char.normalized()
    r = gamma.degree()
    if n == 0 or r == 0:
        flat = RingMatrix(ring, [])
        return FlatDecomposition(z, 0, flat, RingPoly.one(ring), ring.one)
    zk = z if r == n else z ** (n - r)
    _, piv = _rref(zk)
    if len(piv) != r:
        raise InvariantCheckError(
            "flat rank disagrees with normalized charpoly degree")
    if r == n:
        # M = Z, whose charpoly is the one computed above
        m, gamma_flat = z, char
    else:
        basis = RingMatrix(ring, [[zk.data[i][c] for c in piv]
                                  for i in range(n)])
        # action: Z * basis = basis * M
        m = solve(basis, z * basis)
        gamma_flat = berkowitz_charpoly(m)
    if gamma_flat != gamma:
        raise InvariantCheckError("flat charpoly mismatch")
    d = gamma.constant_term()
    if _is_zero(d):
        raise InvariantCheckError("normalized charpoly has zero constant term")
    return FlatDecomposition(z, r, m, gamma, d)


# -- similarity invariants ---------------------------------------------------


def similarity_invariants(mat):
    """Invariant factors of xI - A over F[x], each dividing the next.

    Returns a list of n monic polynomials (units normalised to 1); two
    square matrices over a field are similar iff their lists agree.
    """
    if mat.rows != mat.cols:
        raise ValueError("similarity invariants of a non-square matrix")
    ring = mat.ring
    n = mat.rows
    if n == 0:
        return []
    x = RingPoly.x(ring)
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            p = RingPoly(ring, [-mat.data[i][j]])
            if i == j:
                p = p + x
            row.append(p)
        m.append(row)
    factors = _smith_polys(m, ring)
    factors = [f.monic() if not f.is_zero() else f for f in factors]
    # canonical order: each divides the next
    return factors


def _smith_polys(m, ring):
    n = len(m)
    out = []
    size = n
    while size > 0:
        # find the nonzero entry of least degree
        best = None
        for i in range(size):
            for j in range(size):
                if not m[i][j].is_zero():
                    if best is None or m[i][j].degree() < m[best[0]][best[1]].degree():
                        best = (i, j)
        if best is None:
            out.extend([RingPoly.zero(ring)] * size)
            break
        bi, bj = best
        m[0], m[bi] = m[bi], m[0]
        for row in m[:size]:
            row[0], row[bj] = row[bj], row[0]
        again = True
        while again:
            again = False
            pivot = m[0][0]
            for i in range(1, size):
                if not m[i][0].is_zero():
                    q, r = m[i][0].divmod(pivot)
                    m[i] = [a - q * b for a, b in zip(m[i][:size], m[0][:size])]
                    if not r.is_zero():
                        m[0], m[i] = m[i], m[0]
                        again = True
                        break
            if again:
                continue
            for j in range(1, size):
                if not m[0][j].is_zero():
                    q, r = m[0][j].divmod(pivot)
                    for row in m[:size]:
                        row[j] = row[j] - q * row[0]
                    if not r.is_zero():
                        for row in m[:size]:
                            row[0], row[j] = row[j], row[0]
                        again = True
                        break
        # ensure pivot divides the rest; else absorb and retry
        pivot = m[0][0]
        clean = True
        for i in range(1, size):
            for j in range(1, size):
                _, r = m[i][j].divmod(pivot)
                if not r.is_zero():
                    m[0] = [a + b for a, b in zip(m[0][:size], m[i][:size])]
                    clean = False
                    break
            if not clean:
                break
        if not clean:
            mm = [row[:size] for row in m[:size]]
            rest = _smith_polys(mm, ring)
            out.extend(rest)
            return out
        out.append(pivot)
        m = [row[1:size] for row in m[1:size]]
        size -= 1
    return out


# -- trace powers and periodicity --------------------------------------------


def trace_powers(mat, d_max):
    """s_d = trace(A^d) for d = 1..d_max (Cayley-Hamilton-free, direct)."""
    if mat.rows != mat.cols:
        raise ValueError("trace powers of a non-square matrix")
    vals = []
    acc = mat
    for _ in range(d_max):
        vals.append(acc.trace())
        acc = acc * mat
    return PowerSumSeries(mat.ring, vals)


def matrix_period(mat, bound, scalars=False):
    """Least m <= bound with (flat part)^m = I, or None.

    With ``scalars=True`` returns (m, c) for the least m with the power
    equal to c * I (reporting kappa-power scalars of periodic maps).
    """
    flat = flat_decompose(mat).flat_matrix
    n = flat.rows
    if n == 0:
        return (1, mat.ring.one) if scalars else 1
    ident = RingMatrix.identity(flat.ring, n)
    acc = flat
    for m in range(1, bound + 1):
        if scalars:
            c = acc.data[0][0]
            if not _is_zero(c) and acc == ident * c:
                return m, c
        if acc == ident:
            return (m, mat.ring.one) if scalars else m
        acc = acc * flat
    return None
