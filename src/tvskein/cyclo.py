"""The coefficient rings k_p = Z[1/d, A, kappa]/(phi_2p(A), kappa^6 - u).

A_p is the residue class of A, an abstract primitive 2p-th root of unity;
no complex value is chosen until ``embed`` is called.  Every quantity the
engine manipulates is kappa-homogeneous, so an element carries an explicit
kappa-grade in 0..5; sums of unequal grades are rejected.  Multiplication
adds grades mod 6, folding each wrap into a factor of u = kappa^6.

Per level p the ring data is

    d = p (p != 3,4,6),  1 (p = 3,4),  2 (p = 6)
    u = A^(-6 - p(p+1)/2) (p != 1,2),  1 (p = 1),  A (p = 2)

The distinguished constants live in ``ConstantPack``: delta, the twist
eigenvalues mu(s), the loop values <e_s>, and beta = kappa^-3 eta.  For
p >= 3 beta is pinned by requiring that the once- and zero-surgered
unknot invariants come out right, which forces

    beta = (sum_s mu(s) <e_s>^2)^-1,      eta = beta kappa^3,

together with the checkable identity eta^2 sum_s <e_s>^2 = 1.  p = 2 has
its own printed value beta = (1 - A)/2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .laurent import LaurentPoly, bracket_e, mu_eig, quantum_int


class InvariantCheckError(ArithmeticError):
    """An internal consistency check of an exact computation failed."""


# -- cyclotomic polynomials -------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients (low->high) of the n-th cyclotomic polynomial.

    For n > 1, phi_n = prod_(d | n) (1 - x^d)^mu(n/d), expanded in exact
    integers as a power series modulo x^(deg + 1); divisors d > deg act
    trivially there.
    """
    if n == 1:
        return (-1, 1)
    deg = n
    for q in _prime_factors(n):
        deg = deg // q * (q - 1)
    out = [1] + [0] * deg
    for d in range(1, deg + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        if mu == 1:
            for i in range(deg, d - 1, -1):
                out[i] -= out[i - d]
        elif mu == -1:
            for i in range(d, deg + 1):
                out[i] += out[i - d]
    return tuple(out)


@lru_cache(maxsize=None)
def _level_data(p):
    """(degree, phi coefficients) for k_p."""
    phi = cyclotomic_poly(2 * p)
    return len(phi) - 1, phi


@lru_cache(maxsize=None)
def _a_powers(p):
    """The reduced coefficient vectors of A_p^e for e = 0 .. 2p - 1.

    Built by shift-and-reduce: A^(e+1) is A^e shifted up one place, with
    the overflowing top coefficient folded back through
    A^deg = -sum_(i < deg) phi_i A^i.  The entries are integers, since
    phi_2p is monic over Z.
    """
    deg, phi = _level_data(p)
    vec = (1,) + (0,) * (deg - 1)
    out = [vec]
    for _ in range(2 * p - 1):
        top = vec[-1]
        vec = (0,) + vec[:-1]
        if top:
            vec = tuple(v - top * phi[i] for i, v in enumerate(vec))
        out.append(vec)
    return tuple(out)


def _monomial_sum(p, terms):
    """sum c * A_p^e over (e, c) pairs, as a grade-0 coefficient list."""
    n = 2 * p
    by_class = {}
    for e, c in terms:
        if c:
            e %= n
            by_class[e] = by_class.get(e, 0) + c
    table = _a_powers(p)
    acc = [0] * level_degree(p)
    for e, c in by_class.items():
        for i, t in enumerate(table[e]):
            if t:
                acc[i] += c * t
    return acc


def level_degree(p):
    return _level_data(p)[0]


def level_d(p):
    if p in (3, 4):
        return 1
    if p == 6:
        return 2
    return p


def _reduce_vec(vec, p):
    deg = level_degree(p)
    table = _a_powers(p)
    out = list(vec[:deg]) + [Fraction(0)] * max(0, deg - len(vec))
    for j in range(deg, len(vec)):
        c = vec[j]
        if c:
            row = table[j % (2 * p)]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


class CycloElem:
    """kappa-graded element of k_p: (A-part, grade) meaning part * kappa^grade."""

    __slots__ = ("p", "coeffs", "grade")

    def __init__(self, p, coeffs, grade=0):
        deg = level_degree(p)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) < deg:
            coeffs = coeffs + (Fraction(0),) * (deg - len(coeffs))
        elif len(coeffs) > deg:
            coeffs = _reduce_vec(coeffs, p)
        self.p = p
        self.coeffs = coeffs
        self.grade = grade % 6

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(p, grade=0):
        return CycloElem(p, (), grade)

    @staticmethod
    def one(p):
        return CycloElem(p, (1,))

    @staticmethod
    def from_int(p, n):
        return CycloElem(p, (n,))

    @staticmethod
    def a_power(p, k):
        """A_p^k for any integer k (A_p has order 2p)."""
        return CycloElem(p, _a_powers(p)[k % (2 * p)])

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def in_ring(self):
        """True if all denominators divide a power of d (honest k_p element)."""
        d = level_d(self.p)
        for c in self.coeffs:
            q = c.denominator
            if q == 1:
                continue
            if d == 1:
                return False
            while q % d == 0:
                q //= d
            # remaining factor must divide a d-power: accept prime factors of d
            g = 1
            while g != q:
                g = q
                for r in _prime_factors(d):
                    while q % r == 0:
                        q //= r
            if q != 1:
                return False
        return True

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CycloElem):
            if isinstance(other, (int, Fraction)):
                return CycloElem(self.p, (other,), 0)
            return None
        if other.p != self.p:
            raise ValueError(f"mixing levels p={self.p} and p={other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.grade != other.grade:
            raise ValueError(
                f"sum of kappa-grades {self.grade} and {other.grade} is not homogeneous")
        return CycloElem(self.p,
                         tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                         self.grade)

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.p, tuple(-c for c in self.coeffs), self.grade)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.p, tuple(c * other for c in self.coeffs), self.grade)
        other = self._check(other)
        if other is None:
            return NotImplemented
        deg = level_degree(self.p)
        vec = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        vec[i + j] += a * b
        out = CycloElem(self.p, _reduce_vec(vec, self.p), self.grade + other.grade)
        wraps, _ = divmod(self.grade + other.grade, 6)
        if wraps:
            u = u_element(self.p)
            for _ in range(wraps):
                out = out._mul_grade0(u)
        return out

    __rmul__ = __mul__

    def _mul_grade0(self, other):
        """Multiply by a grade-0 element without touching the grade."""
        deg = level_degree(self.p)
        vec = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        vec[i + j] += a * b
        return CycloElem(self.p, _reduce_vec(vec, self.p), self.grade)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = CycloElem.one(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self):
        """Inverse in the fraction field (phi_2p is irreducible over Q)."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in k_p")
        deg, phi = _level_data(self.p)
        # extended Euclid in Q[A] for the A-part
        a = list(self.coeffs)
        b = [Fraction(c) for c in phi]
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while any(b):
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # a is now a nonzero constant gcd
        lead = next(c for c in reversed(a) if c)
        inv_apart = CycloElem(self.p, _reduce_vec(tuple(c / lead for c in s0), self.p))
        if self.grade == 0:
            return inv_apart
        # (x kappa^g)^-1 = x^-1 u^-1 kappa^(6-g)
        uinv = u_element(self.p).inv()
        out = inv_apart._mul_grade0(uinv)
        return CycloElem(self.p, out.coeffs, 6 - self.grade)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def bar(self):
        """A -> A^-1, kappa -> kappa^-1 (grade negation with u-folding)."""
        terms = ((-i, c) for i, c in enumerate(self.coeffs))
        out = CycloElem(self.p, _monomial_sum(self.p, terms))
        if self.grade == 0:
            return out
        folded = out._mul_grade0(u_element(self.p).inv())
        return CycloElem(self.p, folded.coeffs, 6 - self.grade)

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.coeffs == other.coeffs and
                (self.grade == other.grade or self.is_zero()))

    def __hash__(self):
        if self.is_zero():
            return hash((self.p, "zero"))
        return hash((self.p, self.coeffs, self.grade))

    def trace(self):
        """Trace of a grade-0 element from k_p to Q: the sum of its
        images under every embedding A_p -> primitive 2p-th root."""
        if self.grade and not self.is_zero():
            raise ValueError("the trace to Q is defined on kappa-grade 0")
        return sum(c * w for c, w in zip(self.coeffs, _trace_vector(self.p)))

    # -- embeddings -----------------------------------------------------

    def embed(self, root_index=1):
        """Complex value under A_p -> exp(pi i root_index / p).

        kappa^3 maps to the square root of u's image chosen so eta is
        positive; kappa itself to a compatible sixth root.
        """
        a, kappa = _embedding(self.p, root_index)
        val = sum(complex(c) * a ** i for i, c in enumerate(self.coeffs))
        if self.grade:
            val *= kappa ** self.grade
        return val

    # -- text form --------------------------------------------------------

    def apart_str(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            neg = c < 0
            c = abs(c)
            if i == 0:
                body = str(c)
            else:
                var = "A" if i == 1 else f"A^{i}"
                body = var if c == 1 else f"{c}*{var}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __str__(self):
        return f"({self.apart_str()}) * kappa^{self.grade} @ p={self.p}"

    def __repr__(self):
        return f"CycloElem({self})"

    @staticmethod
    def parse(text):
        s = text.strip()
        if not (s.startswith("(") and "@ p=" in s):
            raise ValueError(f"malformed k_p element: {text!r}")
        body, _, tail = s.rpartition("@ p=")
        p = int(tail.strip())
        body = body.strip()
        inner, _, kap = body.rpartition("* kappa^")
        grade = int(kap.strip())
        inner = inner.strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ValueError(f"malformed k_p element: {text!r}")
        poly = LaurentPoly.parse(inner[1:-1])
        return reduce_to_kp(poly, p, grade)


def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    while db > 0 and b[db] == 0:
        db -= 1
    q = [Fraction(0)] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if i - db < 0:
            break
        c = a[i] / b[db]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    if all(c == 0 for c in a):
        a = [Fraction(0)]
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)]


def _mobius(n):
    primes = _prime_factors(n)
    prod = 1
    for q in primes:
        prod *= q
    return 0 if prod != n else (-1) ** len(primes)


@lru_cache(maxsize=None)
def _trace_vector(p):
    """Tr(A^i) from k_p to Q for the power basis: Ramanujan sums c_2p(i)."""
    n = 2 * p
    out = []
    for i in range(level_degree(p)):
        g = gcd(n, i)
        out.append(sum(_mobius(n // d) * d
                       for d in range(1, g + 1) if g % d == 0))
    return tuple(out)


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def u_element(p):
    """u = kappa^6 as a grade-0 element of k_p."""
    if p == 1:
        return CycloElem.one(1)
    if p == 2:
        return CycloElem.a_power(2, 1)
    return CycloElem.a_power(p, -6 - p * (p + 1) // 2)


def reduce_to_kp(x, p, grade=0):
    """Reduce a LaurentPoly (or scalar) to its unique k_p representative."""
    if isinstance(x, (int, Fraction)):
        return CycloElem(p, (x,), grade)
    return CycloElem(p, _monomial_sum(p, x.terms.items()), grade)


# -- constants ----------------------------------------------------------


@dataclass(frozen=True)
class ConstantPack:
    """Distinguished constants of the level-p bracket theory."""

    p: int
    n: int                       # floor((p-1)/2) = rank of V(torus), p >= 2
    delta: CycloElem
    mu: tuple                    # mu(s), s = 0..n-1
    bracket_e: tuple             # <e_s>, s = 0..n-1
    beta: CycloElem              # kappa^-3 eta, grade 0
    eta: CycloElem               # grade 3
    kappa3: CycloElem            # the element kappa^3 (grade 3, unit A-part)
    omega_coeffs: tuple          # coefficients of Omega on the e_s basis
    kappa3_fold: int | None      # scalar kappa^3 identifies with when u = 1

    def qint(self, m):
        return reduce_to_kp(quantum_int(m), self.p)


@lru_cache(maxsize=None)
def constants(p):
    """Build the ConstantPack for level p (p=1 returns the trivial pack)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    one = CycloElem.one(p)
    kappa3 = CycloElem(p, one.coeffs, 3)
    if p == 1:
        return ConstantPack(
            p=1, n=0, delta=reduce_to_kp(LaurentPoly({2: -1, -2: -1}), 1),
            mu=(), bracket_e=(), beta=one,
            eta=kappa3, kappa3=kappa3, omega_coeffs=(), kappa3_fold=1)
    n = (p - 1) // 2
    delta = reduce_to_kp(LaurentPoly({2: -1, -2: -1}), p)
    mu = tuple(reduce_to_kp(mu_eig(s), p) for s in range(max(n, 1)))
    br = tuple(reduce_to_kp(bracket_e(s), p) for s in range(max(n, 1)))
    if p == 2:
        # printed special values: Omega_2 = 1 + z/2, beta_2 = (1 - A)/2
        beta = CycloElem(2, (Fraction(1, 2), Fraction(-1, 2)))
        omega = (CycloElem.one(2), CycloElem(2, (Fraction(1, 2),)))
    else:
        s1 = CycloElem.zero(p)
        for s in range(n):
            s1 = s1 + mu[s] * br[s] * br[s]
        if s1.is_zero():
            raise ArithmeticError(f"sum mu(s)<e_s>^2 vanishes at p={p}; "
                                  "beta is not determined")
        beta = s1.inv()
        omega = tuple(br[s] for s in range(n))
    eta = CycloElem(p, beta.coeffs, 3)
    fold = None
    if p in (3, 4) or p == 1:
        # kappa^6 = 1 here; the theory identifies kappa^3 with a sign:
        # -1 at p = 3 (forcing the branched-cover value -1), +1 at p = 4.
        fold = -1 if p == 3 else 1
    # consistency: eta^2 sum <e_s>^2 = 1 for p >= 3
    if p >= 3 and n >= 1:
        tot = CycloElem.zero(p)
        for s in range(n):
            tot = tot + br[s] * br[s]
        if eta * eta * tot != one:
            raise InvariantCheckError(f"eta normalisation failed at p={p}")
    return ConstantPack(p=p, n=n, delta=delta, mu=mu, bracket_e=br, beta=beta,
                        eta=eta, kappa3=kappa3,
                        omega_coeffs=tuple(omega) if p >= 2 else (),
                        kappa3_fold=fold)


def fold_kappa3(x):
    """Replace kappa^3 by its scalar value when u = 1 (p in {1,3,4})."""
    pack = constants(x.p)
    if pack.kappa3_fold is None or x.grade % 3 != 0:
        return x
    if x.grade == 0:
        return x
    return CycloElem(x.p, tuple(c * pack.kappa3_fold for c in x.coeffs), 0)


# -- complex embeddings ---------------------------------------------------


@lru_cache(maxsize=None)
def _embedding(p, root_index):
    """(image of A, image of kappa) for the chosen primitive root."""
    if gcd(root_index, 2 * p) != 1:
        raise ValueError(f"root index {root_index} is not coprime to 2p={2 * p}")
    a = cmath.exp(1j * cmath.pi * root_index / p)
    pack = constants(p)
    u = u_element(p)
    u_val = sum(complex(c) * a ** i for i, c in enumerate(u.coeffs))
    if pack.kappa3_fold is not None:
        target_k3 = complex(pack.kappa3_fold)
    else:
        beta_val = sum(complex(c) * a ** i for i, c in enumerate(pack.beta.coeffs))
        c0 = cmath.sqrt(u_val)
        # pick the sign making eta = beta * kappa^3 a positive real
        target_k3 = c0 if (beta_val * c0).real > 0 else -c0
    # sixth root of u_val whose cube is target_k3
    best, err = None, None
    for j in range(6):
        cand = cmath.exp(1j * (cmath.phase(u_val) + 2 * cmath.pi * j) / 6)
        e = abs(cand ** 3 - target_k3)
        if err is None or e < err:
            best, err = cand, e
    if not err < 1e-9:
        raise InvariantCheckError(f"no compatible sixth root at p={p}")
    return a, best


# -- transfer maps between levels -----------------------------------------


def map_i(x, p):
    """i_p : k_2 -> k_2p (p odd), determined by A_2 -> A_2p^(p^2)."""
    if p % 2 == 0 or p < 3:
        raise ValueError("i_p requires odd p >= 3")
    if x.p != 2:
        raise ValueError("i_p is defined on k_2")
    if x.grade != 0:
        raise ValueError("transfer maps are implemented on kappa-grade 0")
    terms = ((i * p * p, c) for i, c in enumerate(x.coeffs))
    return CycloElem(2 * p, _monomial_sum(2 * p, terms))


def map_j(x, p):
    """j_p : k_p -> k_2p (p odd), determined by A_p -> A_2p^e.

    e is the residue mod 4p with e = 1 (mod p) and e = 2 (mod 4): p + 1
    for p = 1 (mod 4) and 3p + 1 for p = 3 (mod 4).  Then gcd(e, 4p) = 2,
    so A_2p^e is a primitive 2p-th root of unity and j_p is a ring map;
    p + 1 alone fails that for p = 3 (mod 4).
    """
    if p % 2 == 0 or p < 3:
        raise ValueError("j_p requires odd p >= 3")
    if x.p != p:
        raise ValueError(f"j_p at p={p} is defined on k_{p}")
    if x.grade != 0:
        raise ValueError("transfer maps are implemented on kappa-grade 0")
    e = p + 1 if p % 4 == 1 else 3 * p + 1
    terms = ((i * e, c) for i, c in enumerate(x.coeffs))
    return CycloElem(2 * p, _monomial_sum(2 * p, terms))


def combine_graded(x2, xp, p):
    """Map a pair of equal-grade elements of k_2, k_p into k_2p.

    Uses i_p, j_p on A-parts and sends kappa_2^g kappa_p^g to kappa_2p^g,
    the grading convention under which i_p(kappa_2) j_p(kappa_p) = kappa_2p.
    """
    if x2.grade != xp.grade:
        raise ValueError("grades must agree")
    g = x2.grade
    a2 = CycloElem(2, x2.coeffs, 0)
    ap = CycloElem(p, xp.coeffs, 0)
    out = map_i(a2, p) * map_j(ap, p)
    return CycloElem(2 * p, out.coeffs, g)
