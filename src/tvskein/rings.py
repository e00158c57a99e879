"""Lightweight coefficient-ring descriptors used by the generic algebra.

Elements themselves carry the arithmetic through operator overloading;
a descriptor only supplies the ring constants, coercion from integers,
(for field-like rings) inversion, ``dot``, the one sum of products, and
``axpy``, the one row update of elimination.  k_p has its own fused
``dot``.
This keeps the polynomial and matrix code generic over Q, Z[A,A^-1] and
the cyclotomic levels k_p.
The oracles add Q(A) (``oracles.QA``), and ``mpoly`` polynomials in
several variables (``mpoly.MPolyRing``).

Z[A,A^-1] and k_p also have an integer image for ``matring``'s dense
kernels: ``image`` writes a matrix's entries as integer polynomials f in
A, coefficients low to high, x = f(A) / (den A^shift) for one den and
one shift.  ``from_image(v, b, den, shift)`` reads f(A) / (den A^shift)
back from v = f(2^b), given ||f||_1 < 2^(b-1), and from v modulo
``image_modulus(b)`` where that is not None.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .cyclo import CycloElem, _axpy, _dot, _monomial_sum
from .laurent import LaurentPoly, _coeff_div


def _digits(v, b):
    """The nonzero coefficients {k: c_k} of the integer polynomial f with
    v = f(2^b) and every c_k in [-2^(b-1), 2^(b-1)): unique signed digits,
    the lowest v's residue mod 2^b in that range, the rest those of
    (v - c_0) / 2^b.  A run of zero digits is skipped at v's lowest bit."""
    mask, half, full = (1 << b) - 1, 1 << (b - 1), 1 << b
    out, k = {}, 0
    while v:
        d = v & mask
        if not d:
            z = ((v & -v).bit_length() - 1) // b
            k += z
            v >>= b * z
            continue
        v >>= b
        if d >= half:
            d -= full
            v += 1
        out[k] = d
        k += 1
    return out


class Ring:
    """The generic ``dot`` and ``axpy``; k_p has its own kernels."""

    def dot(self, xs, ys):
        """sum x * y over the pairs, skipping zero factors."""
        acc = None
        for x, y in zip(xs, ys):
            if x and y:
                acc = x * y if acc is None else acc + x * y
        return self.zero if acc is None else acc

    @staticmethod
    def axpy(xs, f, ys):
        """[x - f * y] over the pairs: a row update of elimination."""
        return [x - f * y for x, y in zip(xs, ys)]


class RationalRing(Ring):
    name = "Q"
    is_field = True

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def inv(self, x):
        return Fraction(1) / x

    def bar(self, x):
        return x


class LaurentRing(Ring):
    name = "Z[A,A^-1]"
    is_field = False

    @property
    def zero(self):
        return LaurentPoly()

    @property
    def one(self):
        return LaurentPoly.one()

    def coerce(self, x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot coerce {x!r} into Z[A,A^-1]")

    def bar(self, x):
        return x.bar()

    def image(self, rows):
        """Rational coefficients only: den clears every denominator, and
        A^shift brings the least exponent to 0."""
        terms = [x.terms for row in rows for x in row]
        exps = list(chain.from_iterable(terms))
        shift = -min(exps, default=0)
        width = max(exps, default=0) + shift + 1
        den = lcm(*{c.denominator for t in terms for c in t.values()})
        polys = []
        for row in rows:
            out = []
            for x in row:
                if not x.terms:
                    out.append(())
                    continue
                f = [0] * width
                for e, c in x.terms.items():
                    f[e + shift] = c if den == 1 else \
                        c.numerator * (den // c.denominator)
                out.append(f)
            polys.append(out)
        return den, shift, polys

    def image_modulus(self, b):
        return None

    def from_image(self, v, b, den, shift):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e - shift: c if den == 1 else _coeff_div(c, den)
                     for e, c in _digits(v, b).items()}
        return out


class CycloField:
    """k_p with division, on its kappa-grade 0 part Q(A_p): every matrix
    entry and polynomial coefficient the pipeline forms has grade 0."""

    is_field = True

    def __init__(self, p):
        self.p = p
        self.name = f"k_{p}"

    @property
    def zero(self):
        return CycloElem.zero(self.p)

    @property
    def one(self):
        return CycloElem.one(self.p)

    def coerce(self, x):
        if isinstance(x, CycloElem):
            if x.p != self.p:
                raise TypeError(f"level mismatch: {x.p} vs {self.p}")
            return x
        if isinstance(x, (int, Fraction)):
            return CycloElem(self.p, (x,))
        raise TypeError(f"cannot coerce {x!r} into k_{self.p}")

    def inv(self, x):
        return x.inv()

    def bar(self, x):
        return x.bar()

    def dot(self, xs, ys):
        return _dot(self.p, xs, ys)

    def image(self, rows):
        """shift = 0: the power basis has no negative exponent."""
        den = lcm(*(x.den for row in rows for x in row))
        return den, 0, [[x.num if x.den == den
                         else [c * (den // x.den) for c in x.num]
                         for x in row] for row in rows]

    def image_modulus(self, b):
        """2^(bp) + 1, the image of A^p + 1, which phi_2p divides."""
        return (1 << (b * self.p)) + 1

    def from_image(self, v, b, den, shift):
        """With m = 2^(bp) + 1, the image of A^p + 1, v = g(2^b) modulo m
        for g = f mod (A^p + 1).  ||g||_1 <= ||f||_1 < 2^(b-1) and
        deg g < p give |g(2^b)| < 2^(bp-1) < m / 2, so g(2^b) is v's least
        residue; g's p digits then reduce through phi_2p."""
        p = self.p
        m = self.image_modulus(b)
        v %= m
        if v > m >> 1:
            v -= m
        return CycloElem._make(p, _monomial_sum(p, _digits(v, b).items()),
                               den)

    def axpy(self, xs, f, ys):
        return _axpy(self.p, xs, f, ys)


QQ = RationalRing()
ZA = LaurentRing()

_cyclo_fields = {}


def kp_field(p):
    if p not in _cyclo_fields:
        _cyclo_fields[p] = CycloField(p)
    return _cyclo_fields[p]

