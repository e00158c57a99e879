"""Polynomials over Q in a few variables, for the symbolic composed
products of Appendix A.

``golden`` builds RingPolys over ``MPolyRing`` to check
``polyalg.tensor_product`` symbolically; the tests re-read both names
through ``tvskein.oracles``.  They live apart from the oracles so that the
``appendixA`` suite compiles only this module.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import Ring


class MPoly:
    """Sparse multivariate polynomial over Q, for symbolic identities."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        d = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if m in d:
                    c = d[m] + c
                if c:
                    d[m] = c
                elif m in d:
                    del d[m]
        self.terms = d

    @staticmethod
    def var(nvars, i):
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly(nvars, {m: 1})

    @staticmethod
    def const(nvars, c):
        return MPoly(nvars, {tuple([0] * nvars): c})

    def _co(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._co(other)
        if other is None:
            return NotImplemented
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m, 0) + c
            if s:
                d[m] = s
            elif m in d:
                del d[m]
        out = MPoly(self.nvars)
        out.terms = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MPoly(self.nvars)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._co(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._co(other) - self

    def __mul__(self, other):
        other = self._co(other)
        if other is None:
            return NotImplemented
        d = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = d.get(m, 0) + c1 * c2
                if s:
                    d[m] = s
                elif m in d:
                    del d[m]
        out = MPoly(self.nvars)
        out.terms = d
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._co(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        names = "abcdefgh"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(m) if e)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


class MPolyRing(Ring):
    is_field = False

    def __init__(self, nvars):
        self.nvars = nvars
        self.name = f"Q[{nvars} vars]"

    @property
    def zero(self):
        return MPoly(self.nvars)

    @property
    def one(self):
        return MPoly.const(self.nvars, 1)

    def coerce(self, x):
        if isinstance(x, MPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return MPoly.const(self.nvars, x)
        raise TypeError(f"cannot coerce {x!r}")
