"""Univariate polynomial algebra over a coefficient ring.

The characteristic polynomial Gamma of a flat transfer matrix drives
everything downstream: power sums of its roots give the invariants of
finite cyclic covers (Newton's identities / the linear recursion), the
composed product combines levels (tensor of similarity classes), and
root-of-unity certificates witness periodicity of the underlying maps.

Polynomials are dense, lowest degree first, over any ring descriptor
from ``rings``.  The composed product is computed exactly from power
sums: its d-th power sum is the product of the factors' d-th power sums,
and Newton's identities turn those back into coefficients, so no
numerical root extraction enters the exact path.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import exp, gcd, log

from .cyclo import (CycloElem, InvariantCheckError, _a_powers, _galois,
                    _mul_vec, level_degree)
from .laurent import _power, cyclotomic_poly
from .rings import QQ, CycloField


class NormUnavailable(ValueError):
    """The coefficients admit no norm to Q that this module computes."""


class RingPoly:
    """Dense polynomial sum_k c_k x^k over a coefficient ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = [ring.coerce(c) if isinstance(c, (int, Fraction)) else c
              for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ring = ring
        self.coeffs = cs

    @staticmethod
    def one(ring):
        return RingPoly(ring, [ring.one])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def leading(self):
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.ring.zero

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    def normalized(self):
        """Strip the highest power of x dividing the polynomial."""
        if not self.coeffs:
            return self
        k = 0
        while not self.coeffs[k]:
            k += 1
        return RingPoly(self.ring, self.coeffs[k:])

    def __add__(self, other):
        other = self._co(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RingPoly(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return RingPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._co(other))

    def __mul__(self, other):
        if not isinstance(other, RingPoly):
            c = self.ring.coerce(other)
            return RingPoly(self.ring, [x * c for x in self.coeffs])
        a, rb = self.coeffs, other.coeffs[::-1]
        n, dot = len(rb), self.ring.dot
        # c_k = sum_i a_i b_(k-i), i from max(0, k - n + 1): zip stops the
        # slices together
        return RingPoly(self.ring, [dot(a[max(0, k - n + 1):],
                                        rb[max(0, n - 1 - k):])
                                    for k in range(len(a) + n - 1)])

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, RingPoly.one(self.ring))

    def __eq__(self, other):
        if not isinstance(other, RingPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and \
            all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(hash(c) if not isinstance(c, Fraction) else c
                          for c in self.coeffs))

    def _co(self, other):
        if isinstance(other, RingPoly):
            return other
        return RingPoly(self.ring, [self.ring.coerce(other)])

    def __call__(self, value):
        """Horner evaluation at a ring element (or compatible object)."""
        return _value(self.coeffs, value) if self.coeffs else self.ring.zero

    def divmod(self, other):
        """Polynomial division; requires a field-like coefficient ring."""
        other = self._co(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = self.ring.inv(other.leading())
        rem = list(self.coeffs)
        dn = other.degree()
        q = [self.ring.zero] * max(0, len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i] * inv_lead
            if not c:
                continue
            q[i - dn] = c
            for j, d in enumerate(other.coeffs):
                rem[i - dn + j] = rem[i - dn + j] - c * d
        return RingPoly(self.ring, q), RingPoly(self.ring, rem)

    def monic(self):
        if self.is_zero():
            return self
        inv_lead = self.ring.inv(self.leading())
        return RingPoly(self.ring, [c * inv_lead for c in self.coeffs])

    def gcd(self, other):
        # monic remainders keep the coefficients small over k_p
        a, b = self, self._co(other)
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, r.monic()
        return a.monic() if not a.is_zero() else a

    def bar(self):
        return RingPoly(self.ring, [self.ring.bar(c) for c in self.coeffs])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(f"({c})")
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if c == self.ring.one else f"({c})*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"RingPoly[{self.ring.name}]({self})"


# -- power sums ---------------------------------------------------------


class PowerSumSeries:
    """Values s_d = sum of d-th root powers, d >= 1, over the ring."""

    def __init__(self, ring, values):
        self.ring = ring
        self.values = list(values)

    def __getitem__(self, d):
        if d < 1 or d > len(self.values):
            raise IndexError(f"s_{d} not computed")
        return self.values[d - 1]

    def __len__(self):
        return len(self.values)


def power_sums(gamma, d_max):
    """Power sums of the root multiset of a monic ``gamma`` up to d_max.

    Newton's identities produce s_1..s_deg; beyond the degree the s_d
    satisfy the linear recursion whose characteristic polynomial is
    gamma itself.
    """
    if not gamma.is_monic():
        raise ValueError("power sums need a monic polynomial")
    r = gamma.degree()
    # s_d = -sum_(i=1)^(min(d,r)) c_(r-i) s_(d-i), with s_0 read as d
    neg = [-c for c in reversed(gamma.coeffs[:-1])]
    s = []
    for d in range(1, d_max + 1):
        s.append(gamma.ring.dot(neg, s[::-1] + [d] if d <= r
                                else s[:-r - 1:-1]))
    return PowerSumSeries(gamma.ring, s)


# -- composed (tensor) product -------------------------------------------


def tensor_product(p, q):
    """Monic polynomial whose roots are the pairwise products of roots.

    Its power sums are t_d = s_d(p) s_d(q), and Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) t_i rebuild its coefficients
    (Bostan-Flajolet-Salvy-Schost, "Fast computation of special
    resultants", J. Symbolic Comput. 41, 2006).  The division by k needs
    a coefficient ring that contains Q, as every ring here does.
    """
    if not (p.is_monic() and q.is_monic()):
        raise ValueError("tensor product needs monic polynomials")
    ring = p.ring
    n = p.degree() * q.degree()
    sp, sq = power_sums(p, n), power_sums(q, n)
    # (-1)^(i-1) t_i
    t = [sp[d] * sq[d] if d % 2 else -(sp[d] * sq[d]) for d in range(1, n + 1)]
    e = [ring.one]
    for k in range(1, n + 1):
        e.append(ring.dot(e[::-1], t) * Fraction(1, k))
    return RingPoly(ring, [-e[n - j] if (n - j) % 2 else e[n - j]
                           for j in range(n + 1)])


# -- numeric roots ---------------------------------------------------------


def derivative(poly):
    return RingPoly(poly.ring, _derivative(poly.coeffs))


def _derivative(cs):
    """The coefficients k c_k, k >= 1, of the derivative of sum c_k x^k."""
    return [cs[k] * k for k in range(1, len(cs))]


def numeric_roots(gamma):
    """Complex roots of gamma under the embedding A_p -> exp(pi i / p).

    Repeated roots are split off exactly (gcd with the derivative over
    the coefficient field) before any numerics, so multiple roots come
    back at full accuracy with exact multiplicities.  The roots of each
    square-free part come from Aberth-Ehrlich iteration in complex
    floating point.  Deterministic ordering by ``_root_key``; each
    root z satisfies |gamma(z)| <= 1e-8 sum_k |c_k| max(1, |z|)^k after
    Newton polishing (see ``_numeric_simple``).
    """
    if gamma.is_zero():
        raise ValueError("numeric roots of the zero polynomial")
    if gamma.degree() < 1:
        return []
    if gamma.ring.is_field and gamma.degree() >= 2:
        g = gamma.monic().gcd(derivative(gamma))
        if g.degree() > 0:
            simple, _ = gamma.monic().divmod(g)
            out = _numeric_simple(simple) + numeric_roots(g.monic())
            out.sort(key=_root_key)
            return out
    return _numeric_simple(gamma)


def _root_key(z):
    """(modulus, argument) rounded to 1e-9, an argument near -pi read as pi:
    a root at -1 sorts last among its modulus whatever its noise's sign."""
    phase = cmath.phase(z)
    return round(abs(z), 9), round(cmath.pi if phase < 1e-9 - cmath.pi
                                   else phase, 9)


def _value(cs, z):
    """Horner's rule: sum cs[k] z^k for a non-empty cs."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * z + c
    return acc


_ABERTH_SWEEPS = 100


def _aberth(cs):
    """Approximate roots of sum_k cs[k] x^k by Aberth-Ehrlich iteration.

    O. Aberth, "Iteration methods for finding all zeros of a polynomial
    simultaneously", Math. Comp. 27 (1973).  The guesses start from
    ``_start``.  Each sweep moves every guess z in place by
    f(z) / (f'(z) - f(z) sum_w 1 / (z - w)) over the other guesses w; the
    sweeps stop when no guess moves by more than 1e-12 (1 + |z|), or after
    _ABERTH_SWEEPS.  Newton polishing follows in ``_numeric_simple``.
    """
    zs, ds = _start(cs), _derivative(cs)
    for _ in range(_ABERTH_SWEEPS):
        moved = False
        for i, z in enumerate(zs):
            f = _value(cs, z)
            den = _value(ds, z) - f * sum(1 / (z - w)
                                          for j, w in enumerate(zs) if j != i)
            if f == 0 or den == 0:
                continue
            step = f / den
            zs[i] = z - step
            moved = moved or abs(step) > 1e-12 * (1 + abs(z))
        if not moved:
            break
    return zs


def _start(cs):
    """Aberth's first guesses, on the circles of the Newton polygon.

    An edge from i to j of the upper convex hull of (k, log |cs[k]|) puts
    j - i guesses evenly on the circle of radius |cs[i] / cs[j]|^(1/(j-i)),
    near the moduli of as many roots, turned by 2 pi i / n + 0.7; zeros
    cs[0..i-1] put i guesses at 0 (D. A. Bini, Numer. Algorithms 13, 1996).
    One circle for all roots leaves the small roots unconverged when the
    moduli span orders of magnitude.  The turn is no rational multiple of
    pi, so no guess is real, no two are conjugate and none sits on a
    symmetry of coefficients in k_p: turned by a rational angle, the two
    guesses for a quadratic Gamma over k_9 met in the first sweep.
    """
    def rise(a, b):
        return (b[1] - a[1]) / (b[0] - a[0])

    hull = []
    for pt in [(k, log(abs(c))) for k, c in enumerate(cs) if c]:
        # drop the last vertex while it lies on or below the new chord
        while len(hull) > 1 and rise(hull[-2], hull[-1]) <= rise(hull[-2], pt):
            hull.pop()
        hull.append(pt)
    n = len(cs) - 1
    zs = [0j] * hull[0][0]
    for (i, a), (j, b) in zip(hull, hull[1:]):
        m, radius = j - i, exp((a - b) / (j - i))
        zs += [radius * cmath.exp(1j * (2 * cmath.pi * (k / m + i / n) + 0.7))
               for k in range(m)]
    return zs


def _numeric_simple(gamma):
    """Roots of a square-free gamma, polished by Newton's method.

    Horner's rule evaluates gamma(z) with an error below about
    2n u sum_k |c_k| |z|^k (Higham, *Accuracy and Stability of Numerical
    Algorithms*, eq. 5.3), so a root is accepted when its residual is below
    1e-8 sum_k |c_k| r^k, r = max(1, |z|): far above rounding, far below
    the residual of an unconverged guess, and scaled with the coefficients,
    where an absolute bound fails once they reach 1e9.  With r >= 1 a root
    at 0 is judged on the coefficients' scale, not on |c_1 z| alone.
    """
    cs = [c.embed() if isinstance(c, CycloElem) else complex(c)
          for c in gamma.coeffs]
    if len(cs) == 1:
        return []
    polished, ds = [], _derivative(cs)
    for z in _aberth(cs):
        for _ in range(50):
            d = _value(ds, z)
            if abs(d) < 1e-14:
                break
            step = _value(cs, z) / d
            z -= step
            if abs(step) < 1e-15:
                break
        polished.append(z)
    size = [abs(c) for c in cs]
    if any(abs(_value(cs, z)) > 1e-8 * _value(size, max(1.0, abs(z)))
           for z in polished):
        raise InvariantCheckError("root polishing failed")
    # two guesses polished onto one root both pass the residual test; the
    # root they missed then leaves Vieta's sum off by about the spacing
    # of the roots, far above the rounding of a sum of n roots
    if abs(sum(polished) + cs[-2] / cs[-1]) > \
            1e-8 * max(1.0, sum(abs(z) for z in polished)):
        raise InvariantCheckError("root polishing failed: the roots miss "
                                  "Vieta's sum")
    polished.sort(key=_root_key)
    return polished


# -- root-of-unity periodicity ----------------------------------------------


def root_periodicity(gamma):
    """Least m with every root of gamma an m-th root of unity, else None.

    Decided exactly, with no bound on m.  Over k_p two necessary
    conditions on gamma's own coefficients c_0 .. c_r come first
    (``_unit_roots_possible``); most gamma without a period fail one of
    them, and get None with no power sum:

    1. c_0 = A_p^e for some e: c_0 is (-1)^r times the product of the
       roots, a root of unity in k_p = Q(A_p), and those are exactly
       the A_p^e.  Roots of unity are algebraic integers, so every c_i
       is integral too.
    2. bar(c_i) = A_p^-e c_(r-i): under every embedding bar is complex
       conjugation, which sends a root of unity lambda to 1 / lambda,
       so bar(gamma) = x^r gamma(1/x) / c_0.

    Otherwise Galois conjugation keeps the order of a root of unity, so
    gamma has the period of its norm N in Q[x] from its field of
    definition (``_rational_norm``), which is tested for being a product
    of cyclotomic polynomials (Bradford-Davenport, "Effective tests for
    cyclotomic polynomials", 1988): a non-integral N has a root that is
    no root of unity; otherwise every Phi_m with phi(m) <= deg is divided
    out as often as it divides, anything left over means None, and the
    period is the lcm of the m divided out.
    """
    if not gamma.is_monic() or not gamma.constant_term():
        raise ValueError("periodicity needs a monic polynomial with "
                         "nonzero constant term")
    if isinstance(gamma.ring, CycloField) and \
            not _unit_roots_possible(gamma.ring.p, gamma.coeffs):
        return None
    norm = _rational_norm(gamma)
    if norm is None:
        return None
    return _cyclotomic_period(norm)


def _unit_roots_possible(p, coeffs):
    """Conditions 1 and 2 of ``root_periodicity`` on a monic gamma over
    k_p: c_0 = A_p^e, and bar(c_i) = A_p^-e c_(r-i) over integral pairs
    for 1 <= i <= r / 2 (the pairs with i > r / 2 are their bars).  The
    coefficient pairs are multiplied only once c_0 has passed."""
    c0 = coeffs[0]
    e = _unit_exponents(p).get(c0.num) if c0.den == 1 else None
    if e is None:
        return False
    unit, r = _a_powers(p)[-e % (2 * p)], len(coeffs) - 1
    for i in range(1, r // 2 + 1):
        a, b = coeffs[i], coeffs[r - i]
        if a.den != 1 or b.den != 1 or \
                _galois(p, a.num, -1) != _mul_vec(p, unit, b.num):
            return False
    return True


@lru_cache(maxsize=None)
def _unit_exponents(p):
    """{reduced vector of A_p^e: e} for e = 0 .. 2p - 1."""
    return {vec: e for e, vec in enumerate(_a_powers(p))}


def _rational_norm(gamma):
    """Integer coefficients of the norm of gamma to Q from its field of
    definition, or None.

    Over k_p, H is the group of units j mod 2p whose sigma_j (A -> A^j)
    fixes every coefficient of gamma, so gamma lies in K[x] for
    K = k_p^H, of degree phi(2p) / |H|, and the norm from k_p is
    N_K(gamma)^|H|: the same roots, so the same period.  The power sums
    of N_K(gamma) are t_d = Tr_K(s_d(gamma)) = Tr(s_d(gamma)) / |H|, and
    Newton's identities k e_k = sum_i (-1)^(i-1) e_(k-i) t_i rebuild it;
    a non-integral t_d or e_k already shows a non-integral norm.
    """
    ring = gamma.ring
    if ring is QQ:
        if any(c.denominator != 1 for c in gamma.coeffs):
            return None
        return [int(c) for c in gamma.coeffs]
    if not isinstance(ring, CycloField):
        raise NormUnavailable(f"no norm to Q from {ring.name}")
    p = ring.p
    h = _stabiliser_order(p, gamma.coeffs)
    deg = gamma.degree() * level_degree(p) // h
    sums = power_sums(gamma, deg)
    t, e = [], [1]
    for k in range(1, deg + 1):
        tk = sums[k].trace()
        if tk.denominator != 1 or tk % h:
            return None
        t.append(tk // h)
        ke = sum((-1) ** (i - 1) * e[k - i] * t[i - 1] for i in range(1, k + 1))
        if ke % k:
            return None
        e.append(ke // k)
    return [(-1) ** (deg - j) * e[deg - j] for j in range(deg + 1)]


def _stabiliser_order(p, coeffs):
    """|H| for the units j mod 2p whose sigma_j fixes every coefficient.

    Rational coefficients are fixed by all of them and j = 1 by
    definition; a j is dropped at the first coefficient it moves.
    """
    moved = [list(c.num) for c in coeffs if any(c.num[1:])]
    n = 2 * p
    return 1 + sum(1 for j in range(2, n) if gcd(j, n) == 1 and
                   all(_galois(p, num, j) == num for num in moved))


def _cyclotomic_period(poly):
    """lcm of the orders of the roots of a monic integer polynomial.

    None unless the polynomial is a product of cyclotomic polynomials.
    Those are reciprocal up to sign (Phi_1 = x - 1 is the only factor
    that flips it), which rejects most other inputs at once.
    """
    if poly[::-1] != poly and poly[::-1] != [-c for c in poly]:
        return None
    period = 1
    for m, phi in _orders(len(poly) - 1):
        while len(poly) > phi:
            q = _divide_exact(poly, cyclotomic_poly(m))
            if q is None:
                break
            poly = q
            period = period * m // gcd(period, m)
    return period if len(poly) == 1 else None


@lru_cache(maxsize=None)
def _orders(deg):
    """The pairs (m, phi(m)) with phi(m) <= deg, m ascending: the products
    of prime powers q^a with prod q^(a-1) (q - 1) <= deg, built one prime
    q <= deg + 1 at a time."""
    found = [(1, 1)]
    for q in range(2, deg + 2):
        if all(q % f for f in range(2, q)):
            for m, phi in found[:]:
                m, phi = m * q, phi * (q - 1)
                while phi <= deg:
                    found.append((m, phi))
                    m, phi = m * q, phi * q
    return tuple(sorted(found))


def _divide_exact(num, den):
    """num / den for integer lists with den monic, or None if inexact."""
    rem = list(num)
    dn = len(den) - 1
    q = [0] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            q[i - dn] = c
            for j in range(dn + 1):
                rem[i - dn + j] -= c * den[j]
    return None if any(rem[:dn]) else q
