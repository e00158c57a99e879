"""Exact arithmetic in Z[A, A^-1].

Every symbolic quantity in the engine ultimately lives here: the bracket
variable A, the loop value delta = -A^2 - A^-2, twist factors mu = -A^3,
bracket polynomials of diagrams, and the entries of transfer matrices.
Polynomials are stored sparsely as {exponent: coefficient} with no zero
coefficients, so equality is exact and canonical.  A coefficient is an
``int``; a quotient that is not integral, as in Q(A), is a ``Fraction``;
any other coefficient object (an element of k_2, say) passes through.
Every division of coefficients goes through ``_coeff_div``, which never
gives a float.

The involution ``bar`` sends A to A^-1 and fixes the rationals.

The cyclotomic polynomials live here too, as integer coefficient
tuples: ``cyclotomic_poly(n)`` is the one construction of Phi_n.  The
level rings k_p reduce modulo Phi_2p, and ``_phi4(d)`` reads Phi_d(A^4)
off Phi_d.

``QFactored`` is a Laurent polynomial P times the coprime factors
Phi_d(A^4) of the quantum integers to signed powers,
[k] = A^(2-2k) prod_(d | k, d > 1) Phi_d(A^4): theta and Tet with
``p=None``, and the fusion-basis colored brackets, are exact in it
without a gcd.  A sum lifts its terms once, to the least common
denominator, and ``reduced`` cancels each Phi_d of the denominator that
divides P.  The fraction field Q(A) is ``oracles.LaurentFrac``: only the
oracles divide there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain


def _coeff(c):
    """An integral Fraction becomes an int; anything else passes through."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _coeff_div(a, b):
    """a / b for coefficients: an int when b divides a, else a Fraction.

    Other coefficient objects divide by their own ``/``.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(a / b)


def _power(base, n, one):
    """base^n by square-and-multiply from ``one``; n < 0 raises ValueError,
    so a type with inverses handles negative powers before calling this."""
    if n < 0:
        raise ValueError(f"negative power {n} needs an inverse")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class LaurentPoly:
    """A finite sum sum_k c_k A^k.

    Each c_k is an ``int``, a ``Fraction`` where a quotient is not
    integral, or an element of another coefficient ring (``CycloElem``
    over k_2 in ``scalars_from_kauffman``).  Sums and products of
    ``Fraction``s may leave an integral ``Fraction``, which compares and
    hashes equal to its ``int``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _coeff(d[e] + c if e in d else c)
                if c:
                    d[e] = c
                elif e in d:
                    del d[e]
        self.terms = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def coeff(self, exp):
        return self.terms.get(exp, 0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            # LaurentPoly first: isinstance against Fraction runs the ABC
            # machinery
            if isinstance(other, (int, Fraction)):
                if not other:
                    return LaurentPoly()
                out = LaurentPoly.__new__(LaurentPoly)
                out.terms = {e: c * other for e, c in self.terms.items()}
                return out
            other = _as_laurent(other)
            if other is NotImplemented:
                return NotImplemented
        d = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                elif e in d:
                    del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.terms) == 1:
                (e, c), = self.terms.items()
                return LaurentPoly({e * n: _coeff_div(1, c ** (-n))})
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        return _power(self, n, LaurentPoly.one())

    def bar(self):
        """The involution A -> A^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    def exact_div(self, other):
        """Divide by ``other``, raising ValueError if not exact."""
        other = _as_laurent(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly()
        # a dense remainder from the top down: num[i] holds A^(low + i)
        low, top = self.min_exp(), self.max_exp()
        num = [0] * (top - low + 1)
        for e, c in self.terms.items():
            num[e - low] = c
        lead = other.max_exp()
        lead_c = other.terms[lead]
        span = lead - other.min_exp()
        rest = [(e - lead, c) for e, c in other.terms.items() if e != lead]
        quot = {}
        for i in range(top - low, span - 1, -1):
            if num[i]:
                q = quot[low + i - lead] = _coeff_div(num[i], lead_c)
                for off, c in rest:
                    num[i + off] -= q * c
        if any(num[:span]):
            raise ValueError("Laurent division is not exact")
        return LaurentPoly(quot)

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- text form ----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            neg = c < 0
            c = abs(c)
            if e == 0:
                body = str(c)
            else:
                var = "A" if e == 1 else f"A^{e}"
                body = var if c == 1 else f"{c}*{var}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    @staticmethod
    def parse(text):
        """Parse the canonical text form (inverse of ``str``)."""
        s = text.replace(" ", "")
        if not s or s == "0":
            return LaurentPoly()
        # split into signed terms
        terms = []
        i = 0
        cur = ""
        while i < len(s):
            ch = s[i]
            if ch in "+-" and cur and cur[-1] not in "+-^":
                terms.append(cur)
                cur = ch
            else:
                cur += ch
            i += 1
        terms.append(cur)
        out = {}
        for t in terms:
            sign = 1
            while t and t[0] in "+-":
                if t[0] == "-":
                    sign = -sign
                t = t[1:]
            if not t:
                raise ValueError(f"malformed term in {text!r}")
            if "A" in t:
                coeff_s, _, rest = t.partition("A")
                coeff_s = coeff_s.rstrip("*")
                coeff = Fraction(coeff_s) if coeff_s else Fraction(1)
                if rest.startswith("^"):
                    exp = int(rest[1:])
                elif rest == "":
                    exp = 1
                else:
                    raise ValueError(f"malformed term in {text!r}")
            else:
                coeff = Fraction(t)
                exp = 0
            out[exp] = out.get(exp, 0) + sign * coeff
        return LaurentPoly(out)


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x})
    return NotImplemented


# -- distinguished elements -------------------------------------------

A = LaurentPoly({1: 1})
ONE = LaurentPoly.one()
DELTA = LaurentPoly({2: -1, -2: -1})       # loop value -A^2 - A^-2
MU = LaurentPoly({3: -1})                  # positive-kink factor -A^3


def quantum_int(n):
    """[n] = (A^2n - A^-2n)/(A^2 - A^-2), a Laurent polynomial."""
    if n < 0:
        return -quantum_int(-n)
    # [n] = A^(2n-2) + A^(2n-6) + ... + A^(2-2n)
    return LaurentPoly({2 * n - 2 - 4 * k: 1 for k in range(n)})


def bracket_e(s):
    """<e_s> = (-1)^s [s+1], the closed loop colored s."""
    v = quantum_int(s + 1)
    return -v if s % 2 else v


def mu_eig(s):
    """mu(s) = (-1)^s A^(s^2+2s), the positive twist eigenvalue on e_s."""
    return LaurentPoly({s * s + 2 * s: -1 if s % 2 else 1})


# -- cyclotomic polynomials -------------------------------------------


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


def _mobius(n):
    primes = _prime_factors(n)
    prod = 1
    for q in primes:
        prod *= q
    return 0 if prod != n else (-1) ** len(primes)


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
def _phi4(d):
    """Phi_d(A^4) for d > 1, read off ``cyclotomic_poly(d)``."""
    return LaurentPoly({4 * i: c for i, c in enumerate(cyclotomic_poly(d))})


@lru_cache(maxsize=None)
def _phi4_power(d, e):
    return _phi4(d) ** e


@lru_cache(maxsize=None)
def _phi4_product(exps):
    """prod Phi_d(A^4)^e over the sorted (d, e) pairs, every e > 0."""
    out = ONE
    for d, e in exps:
        out = out * _phi4_power(d, e)
    return out


def _lift(poly, exps):
    """poly times Phi_d(A^4)^e over the (d, e) pairs, every e >= 0."""
    exps = tuple(sorted((d, e) for d, e in exps if e))
    return poly * _phi4_product(exps) if exps else poly


class QFactored:
    """P * prod_d Phi_d(A^4)^e_d over d > 1, the e_d signed.

    [k] = A^(2-2k) prod_(d | k, d > 1) Phi_d(A^4), so theta, Tet and
    <e_k> are of this form with the monomial folded into P.  The
    Phi_d(A^4) are coprime, so ``sum`` lifts its terms once, to the least
    exponent of each Phi_d: the true least common denominator.
    ``reduced`` cancels the Phi_d of negative exponent that divide P.
    ``num`` has the Phi_d of positive exponent multiplied in, ``den`` is
    the product of the others; only a unit P can be inverted.
    """

    __slots__ = ("poly", "exps")

    def __init__(self, poly, exps=()):
        self.poly = _as_laurent(poly)
        self.exps = ({d: e for d, e in dict(exps).items() if e and d > 1}
                     if self.poly else {})

    @staticmethod
    def of(x):
        return x if isinstance(x, QFactored) else QFactored(x)

    @staticmethod
    def sum(terms):
        """The sum of ``terms``, QFactored or Laurent, with one lift.

        Terms of one exponent vector add first; each group then lifts to
        the least exponent of each Phi_d over all terms (0 where a term
        has no Phi_d).
        """
        terms = [t for t in map(QFactored.of, terms) if t.poly]
        if len(terms) < 2:
            return terms[0] if terms else QFactored(0)
        groups = {}
        for t in terms:
            groups.setdefault(frozenset(t.exps.items()),
                              []).extend(t.poly.terms.items())
        keys = [dict(k) for k in groups]
        low = {d: min(k.get(d, 0) for k in keys) for d in set().union(*keys)}
        lifted = (_lift(LaurentPoly(group),
                        [(d, k.get(d, 0) - e) for d, e in low.items()])
                  for k, group in zip(keys, groups.values()))
        return QFactored(LaurentPoly(chain.from_iterable(
            poly.terms.items() for poly in lifted)), low)

    def reduced(self):
        """The same value with every Phi_d of negative exponent that
        divides P cancelled from both."""
        poly, exps = self.poly, dict(self.exps)
        for d, e in self.exps.items():
            while e < 0:
                try:
                    poly = poly.exact_div(_phi4(d))
                except ValueError:
                    break
                e += 1
            exps[d] = e
        return QFactored(poly, exps)

    def __mul__(self, other):
        other, exps = QFactored.of(other), dict(self.exps)
        for d, e in other.exps.items():
            exps[d] = exps.get(d, 0) + e
        return QFactored(self.poly * other.poly, exps)

    def __add__(self, other):
        return QFactored.sum((self, other))

    def __neg__(self):
        return QFactored(-self.poly, self.exps)

    def __sub__(self, other):
        return self + -QFactored.of(other)

    def inv(self):
        if len(self.poly.terms) != 1:
            raise ValueError(f"{self.poly} is not a unit of Z[A,A^-1]")
        return QFactored(self.poly ** -1,
                         {d: -e for d, e in self.exps.items()})

    def __truediv__(self, other):
        return self * QFactored.of(other).inv()

    @property
    def num(self):
        return _lift(self.poly, [(d, e) for d, e in self.exps.items()
                                 if e > 0])

    @property
    def den(self):
        return _lift(ONE, [(d, -e) for d, e in self.exps.items() if e < 0])

    def __eq__(self, other):
        if not isinstance(other, (QFactored, LaurentPoly, int)):
            return NotImplemented
        return not (self - other).poly
