"""The coefficient rings k_p = Z[1/d, A, kappa]/(phi_2p(A), kappa^6 - u).

A_p is the residue class of A, an abstract primitive 2p-th root of unity;
no complex value is chosen until ``embed`` is called.  A ``CycloElem`` is
an element of Q(A_p), the kappa-grade 0 part of k_p: Z(E), Gamma, D, the
power sums and the cover values all live there, the cover values because
kappa^(-3 sigma) is the monomial u^(-sigma/2).  Only eta = beta kappa^3
has another grade, so kappa^3 is carried by the one record built from
it, ``tqft.BranchedValue``, as an exponent beside its A-part.

An element is an integer vector in the power basis 1, A, .., A^(deg-1),
deg = deg phi_2p (phi_2p is ``laurent.cyclotomic_poly(2p)``), over one
denominator.  ``_a_powers(p)`` holds A_p^e for e = 0 .. 2p - 1; its rows
from A_p^deg on, kept sparse as ``_fold_rows(p)``, fold every exponent
modulo 2p back to the basis in one step.  ``_monomial_sum`` reduces any
sum of A_p powers through them (``reduce_to_kp``, ``bar`` and the other
Galois maps, ``rings.CycloField.from_image``), and ``_fold`` is its
dense twin for products (``_mul_vec``, ``_dot``, ``_axpy``).

Per level p the ring data is

    d = p (p != 3,4,6),  1 (p = 3,4),  2 (p = 6)
    u = A^(-6 - p(p+1)/2) (p != 1,2),  1 (p = 1),  A (p = 2)

The distinguished constants live in ``ConstantPack``: the twist
eigenvalues mu(s), the loop values <e_s>, beta = kappa^-3 eta, and the
sign that kappa^3 folds to where u = 1.  The loop value delta is not
among them: the skein engine multiplies by it over Z[A,A^-1], before
any reduction to a level.  For p >= 3 beta is pinned by requiring
that the once- and zero-surgered unknot invariants come out right, which
forces

    beta = (sum_s mu(s) <e_s>^2)^-1,      eta = beta kappa^3,

together with the checkable identity eta^2 sum_s <e_s>^2 = 1, that is
beta^2 u sum_s <e_s>^2 = 1.  p = 2 has its own printed value
beta = (1 - A)/2.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .laurent import (LaurentPoly, _coeff_div, _mobius, _power, bracket_e,
                      cyclotomic_poly, mu_eig)


class InvariantCheckError(ArithmeticError):
    """An internal consistency check of an exact computation failed."""


class UnsupportedSpecialization(ValueError):
    """Specialization the theory leaves undefined (special p, D(L)_p = 0)."""


# -- the power basis of k_p -----------------------------------------


def _shifts(p, vec):
    """The reduced vectors of vec * A_p^e for e = 0 .. 2p - 1, from a
    reduced integer vector vec (a tuple).

    Built by shift-and-fold: vec A^(e+1) is vec A^e shifted up one place,
    with the overflowing top coefficient folded back through
    A^deg = -sum_(i < deg) phi_i A^i.  Integer vectors stay integer,
    since phi_2p is monic over Z.
    """
    phi = cyclotomic_poly(2 * p)
    out = [vec]
    for _ in range(2 * p - 1):
        top = vec[-1]
        vec = (0,) + vec[:-1]
        if top:
            vec = tuple(v - top * phi[i] for i, v in enumerate(vec))
        out.append(vec)
    return tuple(out)


@lru_cache(maxsize=None)
def _a_powers(p):
    """The reduced coefficient vectors of A_p^e for e = 0 .. 2p - 1."""
    return _shifts(p, (1,) + (0,) * (level_degree(p) - 1))


@lru_cache(maxsize=None)
def level_degree(p):
    """deg phi_2p, the dimension of k_p over Q; cached, because every
    ``_dot`` and ``_axpy`` reads it."""
    return len(cyclotomic_poly(2 * p)) - 1


@lru_cache(maxsize=None)
def _fold_rows(p):
    """Sparse rows (i, t) of A_p^deg .. A_p^(2p - 1): every exponent
    modulo 2p folds back to the power basis in one step."""
    return tuple(tuple((i, t) for i, t in enumerate(row) if t)
                 for row in _a_powers(p)[level_degree(p):])


def _monomial_sum(p, terms):
    """sum c * A_p^e over (e, c) pairs, as a coefficient list."""
    n, deg, rows = 2 * p, level_degree(p), _fold_rows(p)
    out = [0] * deg
    for e, c in terms:
        e %= n
        if e < deg:
            out[e] += c
        elif c:
            for i, t in rows[e - deg]:
                out[i] += c * t
    return out


def _reduced(p, terms):
    """(num, den) in lowest terms for sum c * A_p^e over (e, c) pairs of
    ints and Fractions: the pairs are brought to one denominator and
    reduced once."""
    terms = list(terms)
    dens = [c.denominator for _, c in terms if type(c) is not int]
    if not dens:
        return tuple(_monomial_sum(p, terms)), 1
    den = lcm(*dens)
    num = _monomial_sum(p, ((e, c.numerator * (den // c.denominator))
                            for e, c in terms))
    g = gcd(den, *num)
    return tuple([c // g for c in num]), den // g


def _mul_vec(p, a, b):
    """The reduced product of two reduced integer vectors of k_p."""
    vec = [0] * (2 * len(a) - 1)
    bnz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bnz:
                vec[i + j] += x * y
    return _fold(p, vec)


def _fold(p, vec):
    """An unreduced vector of length 2 deg - 1 reduced through phi_2p:
    the dense twin of ``_monomial_sum``, over the same ``_fold_rows``."""
    out = vec[:(len(vec) + 1) // 2]
    for row, c in zip(_fold_rows(p), vec[len(out):]):
        if c:
            for i, t in row:
                out[i] += c * t
    return out


def _dot(p, xs, ys):
    """sum x * y over k_p, reduced once rather than once per product.

    The pairs' num vectors convolve into one unreduced integer vector over
    one denominator, rescaled only when a new den comes (delayed
    reduction, as in FFLAS: Dumas-Giorgi-Pernet, ACM TOMS 35(3), 2008).
    int and Fraction operands are constants; pairs with a zero are skipped.
    """
    acc = [0] * (2 * level_degree(p) - 1)
    den = 1
    for x, y in zip(xs, ys):
        xn, xd = ((x.num, x.den) if type(x) is CycloElem
                  else ((x.numerator,), x.denominator))
        yn, yd = ((y.num, y.den) if type(y) is CycloElem
                  else ((y.numerator,), y.denominator))
        if not (any(xn) and any(yn)):
            continue
        d, s = xd * yd, 1
        if d != den:
            m = lcm(den, d)
            if m != den:
                acc = [c * (m // den) for c in acc]
                den = m
            s = m // d
        ynz = [(j, b * s) for j, b in enumerate(yn) if b]
        for i, a in enumerate(xn):
            if a:
                for j, b in ynz:
                    acc[i + j] += a * b
    return CycloElem._make(p, _fold(p, acc), den)


def _axpy(p, xs, f, ys):
    """[x - f * y] over k_p, one fold per entry rather than a product and
    a difference.  f's nonzero coefficients are read once per row; a zero
    y passes x through.
    """
    fnz = [(i, -c) for i, c in enumerate(f.num) if c]
    if not fnz:
        return list(xs)
    pad, out = [0] * (level_degree(p) - 1), []
    for x, y in zip(xs, ys):
        ynz = [(j, b) for j, b in enumerate(y.num) if b]
        if not ynz:
            out.append(x)
            continue
        den = f.den * y.den
        if x.den == den:
            vec = [*x.num, *pad]
        else:
            m = lcm(x.den, den)
            vec = [a * (m // x.den) for a in x.num] + pad
            if m != den:
                ynz = [(j, b * (m // den)) for j, b in ynz]
            den = m
        for i, a in fnz:
            for j, b in ynz:
                vec[i + j] += a * b
        out.append(CycloElem._make(p, _fold(p, vec), den))
    return out


def _galois(p, num, j):
    """sigma_j(num), A -> A^j, on a reduced vector of k_p: an automorphism
    for j a unit mod 2p (j = -1 is the bar involution)."""
    return _monomial_sum(p, ((i * j, c) for i, c in enumerate(num)))


@lru_cache(maxsize=None)
def _norm_steps(p):
    """The tower of (Z/2p)^x that ``CycloElem.inv`` takes the norm through.

    Step (g, e) adds the unit g of least order e modulo the subgroup H of
    the steps before (the least g on a tie): <H, g> is the e cosets g^i H,
    so the products g1^i1 g2^i2 .. (0 <= ik < ek) are the units, once each.
    """
    n = 2 * p
    units = [j for j in range(1, n) if gcd(j, n) == 1]
    sub, steps = {1}, []

    def order(g):
        e, h = 1, g
        while h not in sub:
            e, h = e + 1, h * g % n
        return e

    while len(sub) < len(units):
        g = min((j for j in units if j not in sub), key=order)
        e = order(g)
        sub = {s * pow(g, i, n) % n for s in sub for i in range(e)}
        steps.append((g, e))
    return tuple(steps)


class CycloElem:
    """Element num / den of Q(A_p), the kappa-grade 0 part of k_p.

    num is an integer vector in the power basis 1, A, .., A^(deg-1) over
    one positive denominator den, in lowest terms (a power of d for an
    honest k_p element, 1 for an integral one), so products and sums run
    on ints.  ``coeffs`` reads it as a vector of ``int``s and, where a
    denominator remains, ``Fraction``s.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p, coeffs):
        self.p = p
        self.num, self.den = _reduced(p, enumerate(coeffs))

    @staticmethod
    def _raw(p, num, den):
        """num / den from a reduced vector, in lowest terms."""
        out = CycloElem.__new__(CycloElem)
        out.p = p
        out.num = tuple(num)
        out.den = den
        return out

    @staticmethod
    def _make(p, num, den):
        """As ``_raw``, bringing num / den to lowest terms (den > 0)."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                return CycloElem._raw(p, [c // g for c in num], den // g)
        return CycloElem._raw(p, num, den)

    @property
    def coeffs(self):
        """The A-part as a vector of ints and Fractions."""
        if self.den == 1:
            return self.num
        return tuple(_coeff_div(c, self.den) for c in self.num)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(p):
        return CycloElem(p, ())

    @staticmethod
    def one(p):
        return CycloElem(p, (1,))

    @staticmethod
    def from_int(p, n):
        return CycloElem(p, (n,))

    @staticmethod
    def a_power(p, k):
        """A_p^k for any integer k (A_p has order 2p)."""
        return CycloElem._raw(p, _a_powers(p)[k % (2 * p)], 1)

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    # -- arithmetic ------------------------------------------------------

    def _operand(self, other):
        """other as an element of this level, or None for a foreign type."""
        if type(other) is not CycloElem:
            # int first: isinstance against Fraction runs the ABC machinery
            if isinstance(other, (int, Fraction)):
                return CycloElem(self.p, (other,))
            return None
        if other.p != self.p:
            raise ValueError(f"mixing levels p={self.p} and p={other.p}")
        return other

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, minus):
        if type(other) is not CycloElem or other.p != self.p:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            if minus:
                num = [a - b for a, b in zip(self.num, other.num)]
            else:
                num = [a + b for a, b in zip(self.num, other.num)]
            return CycloElem._make(self.p, num, d1)
        den = lcm(d1, d2)
        m1, m2 = den // d1, (-den if minus else den) // d2
        return CycloElem._make(
            self.p, [a * m1 + b * m2 for a, b in zip(self.num, other.num)],
            den)

    def __neg__(self):
        return CycloElem._raw(self.p, [-c for c in self.num], self.den)

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        p = self.p
        if type(other) is not CycloElem:
            if isinstance(other, int):
                return CycloElem._make(p, [c * other for c in self.num],
                                       self.den)
            if isinstance(other, Fraction):
                return CycloElem._make(
                    p, [c * other.numerator for c in self.num],
                    self.den * other.denominator)
            return NotImplemented
        if other.p != p:
            raise ValueError(f"mixing levels p={p} and p={other.p}")
        return CycloElem._make(p, _mul_vec(p, self.num, other.num),
                               self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, CycloElem.one(self.p))

    def inv(self):
        """Inverse in the fraction field, by the norm to Q.

        The conjugates sigma_j(num), A -> A^j for the units j != 1 mod 2p,
        multiply to c with num * c = N(num), a nonzero integer since
        phi_2p is irreducible over Q; so (num / den)^-1 = den c / N(num).
        The norm climbs the tower of ``_norm_steps``: at a step (g, e) the
        partial norm n, fixed by the subgroup built so far, and c both
        take the product of n's e - 1 conjugates sigma_(g^i)(n), so the
        products number the sum of the step orders, not phi(2p).
        """
        p, num = self.p, self.num
        if not any(num):
            raise ZeroDivisionError("inverting zero in k_p")
        conj, norm = [1] + [0] * (len(num) - 1), list(num)
        for g, e in _norm_steps(p):
            step = None
            for i in range(1, e):
                sigma = _galois(p, norm, pow(g, i, 2 * p))
                step = sigma if step is None else _mul_vec(p, step, sigma)
            conj, norm = _mul_vec(p, conj, step), _mul_vec(p, norm, step)
        if any(norm[1:]):
            raise InvariantCheckError(f"the norm of {self} is not rational")
        den = self.den if norm[0] > 0 else -self.den
        return CycloElem._make(p, [c * den for c in conj], abs(norm[0]))

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def bar(self):
        """A -> A^-1; an automorphism keeps num / den in lowest terms."""
        return CycloElem._raw(self.p, _galois(self.p, self.num, -1), self.den)

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def trace(self):
        """Trace from k_p to Q: the sum of the images under every
        embedding A_p -> primitive 2p-th root."""
        return _coeff_div(sum(c * w for c, w in
                              zip(self.num, _trace_vector(self.p))), self.den)

    # -- embeddings -----------------------------------------------------

    def embed(self, root_index=1):
        """Complex value under A_p -> exp(pi i root_index / p)."""
        a = _embedding(self.p, root_index)
        return sum(complex(c) * a ** i for i, c in enumerate(self.coeffs))

    # -- text form --------------------------------------------------------

    def apart_str(self):
        return str(LaurentPoly(enumerate(self.coeffs)))

    def __str__(self):
        return f"({self.apart_str()}) * kappa^0 @ p={self.p}"

    def __repr__(self):
        return f"CycloElem({self})"

    @staticmethod
    def parse(text):
        s = text.strip()
        if not (s.startswith("(") and "@ p=" in s):
            raise ValueError(f"malformed k_p element: {text!r}")
        body, _, tail = s.rpartition("@ p=")
        p = int(tail.strip())
        inner, _, kap = body.strip().rpartition("* kappa^")
        inner = inner.strip()
        if not (kap.strip() == "0" and inner.startswith("(")
                and inner.endswith(")")):
            raise ValueError(f"malformed k_p element: {text!r}")
        return reduce_to_kp(LaurentPoly.parse(inner[1:-1]), p)


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


def u_exponent(p):
    """m with u = kappa^6 = A_p^m."""
    if p == 1:
        return 0
    if p == 2:
        return 1
    return -6 - p * (p + 1) // 2


@lru_cache(maxsize=None)
def u_element(p):
    """u = kappa^6 as an element of k_p."""
    return CycloElem.a_power(p, u_exponent(p))


def reduce_to_kp(x, p):
    """Reduce a LaurentPoly (or scalar) to its unique k_p representative."""
    if isinstance(x, (int, Fraction)):
        return CycloElem(p, (x,))
    return CycloElem._raw(p, *_reduced(p, x.terms.items()))


# -- constants ----------------------------------------------------------


class ConstantPack:
    """Distinguished constants of the level-p bracket theory."""

    __slots__ = ("p", "n", "mu", "bracket_e", "beta", "kappa3_fold")

    def __init__(self, p, n, mu, bracket_e, beta, kappa3_fold):
        self.p = p
        self.n = n                  # floor((p-1)/2) = rank of V(torus), p >= 2
        self.mu = mu                # mu(s), s = 0..n-1
        self.bracket_e = bracket_e  # <e_s>, s = 0..n-1
        self.beta = beta            # kappa^-3 eta
        # the scalar kappa^3 identifies with when u = 1
        self.kappa3_fold = kappa3_fold

    def __repr__(self):
        return (f"ConstantPack(p={self.p!r}, n={self.n!r}, mu={self.mu!r}, "
                f"bracket_e={self.bracket_e!r}, beta={self.beta!r}, "
                f"kappa3_fold={self.kappa3_fold!r})")


@lru_cache(maxsize=None)
def constants(p):
    """Build the ConstantPack for level p (p=1 returns the trivial pack)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    one = CycloElem.one(p)
    if p == 1:
        return ConstantPack(p=1, n=0, mu=(), bracket_e=(), beta=one,
                            kappa3_fold=1)
    n = (p - 1) // 2
    mu = tuple(reduce_to_kp(mu_eig(s), p) for s in range(max(n, 1)))
    br = tuple(reduce_to_kp(bracket_e(s), p) for s in range(max(n, 1)))
    if p == 2:
        # the printed special value beta_2 = (1 - A)/2
        beta = CycloElem(2, (Fraction(1, 2), Fraction(-1, 2)))
    else:
        s1 = _dot(p, mu, [b * b for b in br])
        if s1.is_zero():
            raise ArithmeticError(f"sum mu(s)<e_s>^2 vanishes at p={p}; "
                                  "beta is not determined")
        beta = s1.inv()
    fold = None
    if p in (3, 4) or p == 1:
        # kappa^6 = 1 here; the theory identifies kappa^3 with a sign:
        # -1 at p = 3 (forcing the branched-cover value -1), +1 at p = 4.
        fold = -1 if p == 3 else 1
    # consistency: eta^2 sum <e_s>^2 = beta^2 u sum <e_s>^2 = 1 for p >= 3
    if p >= 3 and n >= 1:
        if beta * beta * u_element(p) * _dot(p, br, br) != one:
            raise InvariantCheckError(f"eta normalisation failed at p={p}")
    return ConstantPack(p=p, n=n, mu=mu, bracket_e=br, beta=beta,
                        kappa3_fold=fold)


# -- complex embeddings ---------------------------------------------------


@lru_cache(maxsize=None)
def _embedding(p, root_index):
    """The image of A under the chosen primitive root."""
    if gcd(root_index, 2 * p) != 1:
        raise ValueError(f"root index {root_index} is not coprime to 2p={2 * p}")
    return cmath.exp(1j * cmath.pi * root_index / p)
