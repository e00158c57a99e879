"""Lightweight coefficient-ring descriptors used by the generic algebra.

Elements themselves carry the arithmetic through operator overloading;
a descriptor only supplies the ring constants, coercion from integers,
(for field-like rings) inversion, ``dot``, the one sum of products, and
``axpy``, the one row update of elimination.  Z[A,A^-1] and k_p have
their own fused ``dot``.
This keeps the polynomial and matrix code generic over Q, Z[A,A^-1] and
the cyclotomic levels k_p.
The oracles add Q(A) (``oracles.QA``), and ``mpoly`` polynomials in
several variables (``mpoly.MPolyRing``).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElem, _axpy, _dot
from .laurent import LaurentPoly, _as_laurent


class Ring:
    """The generic ``dot`` and ``axpy``; Z[A,A^-1] has its own ``dot``,
    and k_p its own kernels."""

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

    def dot(self, xs, ys):
        """sum x * y over the pairs, every product added into one
        exponent -> coefficient dict and the zeros dropped at the end."""
        acc = {}
        get = acc.get
        for x, y in zip(xs, ys):
            xt = (x if type(x) is LaurentPoly else _as_laurent(x)).terms
            if not xt:
                continue
            yt = (y if type(y) is LaurentPoly else _as_laurent(y)).terms
            if not yt:
                continue
            for e1, c1 in xt.items():
                for e2, c2 in yt.items():
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: c for e, c in acc.items() if c}
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

    def axpy(self, xs, f, ys):
        return _axpy(self.p, xs, f, ys)


QQ = RationalRing()
ZA = LaurentRing()

_cyclo_fields = {}


def kp_field(p):
    if p not in _cyclo_fields:
        _cyclo_fields[p] = CycloField(p)
    return _cyclo_fields[p]

