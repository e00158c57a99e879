"""Second computations that check the library, and nothing else.

No module of the library imports this one: the tests and ``golden`` do.
So none of it is compiled or run when a command computes an invariant.
Each oracle below says what it shares with the code it checks.

* Q(A), the fraction field of Z[A,A^-1]: ``LaurentFrac``, reduced on
  construction by ``poly_gcd`` (a primitive PRS over Z), and its ring
  descriptor ``QA``.  The tests redo linear algebra over it, and the web
  evaluations divide in it.
* ``MPoly`` and ``MPolyRing``, polynomials over Q in a few variables for
  the symbolic composed products, re-exported from ``mpoly``, where the
  ``appendixA`` suite of ``golden`` reads them without this module.
* The Temperley-Lieb algebra TL_n over Z[A,A^-1], the Jones-Wenzl
  projectors (``jones_wenzl``) and the web evaluations ``theta_web`` and
  ``tet_web`` of the closed theta and Tet formulas in ``recoupling``.
  They share the splice kernel ``skein.SkeinEngine``, and its
  process-wide splice memo, with the brackets, and none of the
  quantum-factorial code they check.
* The cabled colored bracket ``cable_colored_bracket``: the blackboard
  cable of a zero-writhe slice word with one projector inserted.  It
  checks ``skein.colored_bracket``, which works in the fusion basis, and
  shares the splice kernel but not the 6j-symbols.
* The inverse in k_p by the extended Euclid against phi_2p
  (``euclid_inverse``), in ``Fraction``s, the test that a denominator is
  a unit of k_p (``in_ring``), and the norm of a polynomial from all of
  k_p to Q as the product of its conjugates (``full_rational_norm``).
* Linear algebra: ``berkowitz_det``, a polynomial at a matrix
  (``eval_matrix``, for Cayley-Hamilton), the traces of matrix powers
  ``trace_powers`` (against ``polyalg.power_sums``) and the period of the
  flat part by repeated products, ``matrix_period``.
* The full twist ``full_twist`` as a Laurent monomial (``tqft`` builds
  it in k_p), the Catalan numbers, and <J> and [[J]] from a Kauffman
  polynomial (``scalars_from_kauffman``).
* Identities of the pipeline: D(n) nonsingular at a level by its rank
  (``ordinary_det_test``), the period 6p of the Brieskorn spheres and
  tau_5 of a branched cover.  The torus-bundle matrices
  (``witten_check``) and the d = 1 branched trace identity, which the
  golden suites check, are in ``identities``.
* The double's closed forms and splitting, which ``tqft`` once used as
  routes and now checks its one general sum against: the Prop 5.9
  matrix (``z5_matrix``) and color-2 scalar (``z5_color2_scalar``) at
  p = 5, and the tensor splitting at p = 2p' with p' odd
  (``tensor_double``) through the level maps ``map_i`` and ``map_j``;
  the plain channel sums L and X by dot products
  (``plain_sums_by_dot``), the route the shift table of ``tqft``
  replaced; and the colored double as B L_c^-1 with L_c inverted
  (``colored_double_by_inverse``), the route ``tqft.colored_matrix``
  replaced.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .cyclo import CycloElem, _monomial_sum, constants, reduce_to_kp
from .diagram import ATLAS_BRAIDS, DiagramError, SliceWord, braid_closure
from .laurent import (ONE, LaurentPoly, QFactored, _as_laurent, _coeff_div,
                      _power, _prime_factors, cyclotomic_poly, mu_eig,
                      quantum_int)
from .matring import (RingMatrix, berkowitz_charpoly, flat_decompose,
                      inverse, rank)
from .mpoly import MPoly, MPolyRing  # noqa: F401 (re-exported)
from .polyalg import PowerSumSeries, RingPoly
from .recoupling import ColorError, _check_adm, tet, theta
from .rings import Ring, kp_field
from .skein import (SkeinEngine, _exact_quotient, bracket_word, knot_scalars,
                    pairing_matrix_D)
from .tqft import (ColorData, _channel_sums, _twist, branched_series,
                   colored_L_matrix, double_invariant, seifert_matrix_double,
                   total_signature)


# -- Q(A): the fraction field -------------------------------------------------
# A Laurent polynomial is shifted so that its lowest exponent is zero, and
# the gcd is taken of the dense coefficient lists.


def _to_dense(p):
    """LaurentPoly -> (shift, dense coefficient list low->high)."""
    if p.is_zero():
        return 0, []
    lo, hi = p.min_exp(), p.max_exp()
    return lo, [p.coeff(e) for e in range(lo, hi + 1)]


def _to_int_primitive(coeffs):
    """Rational list -> primitive integer list (content stripped)."""
    if not coeffs:
        return []
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _int_pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists (dense, low->high)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        if not a[-1]:
            a.pop()
            if not a:
                return []
            continue
        la = a[-1]
        g = gcd(la, lb)
        ma, mb = lb // g, la // g
        # a = ma * a - mb * x^(da-db) * b
        shift = len(a) - 1 - db
        a = [ma * c for c in a]
        for j, bc in enumerate(b):
            a[shift + j] -= mb * bc
        while a and not a[-1]:
            a.pop()
        if not a:
            return []
    return a


def poly_gcd(p, q):
    """Monic gcd of two Laurent polynomials, as an ordinary poly in A.

    Powers of A are units in the Laurent ring, so the gcd is defined up
    to units; we return the monic ordinary-polynomial representative
    with nonzero constant term.  Computed by a primitive PRS over Z.
    """
    _, a = _to_dense(p)
    _, b = _to_dense(q)
    a = _to_int_primitive(a)
    b = _to_int_primitive(b)
    while b:
        r = _int_pseudo_rem(a, b)
        g = 0
        for x in r:
            g = gcd(g, x)
        if g > 1:
            r = [x // g for x in r]
        a, b = b, r
    if not a:
        return LaurentPoly()
    k = 0
    while not a[k]:
        k += 1
    a = a[k:]
    lead = a[-1]
    return LaurentPoly({i: _coeff_div(c, lead) for i, c in enumerate(a) if c})


def _shift_div(p, lo, lead):
    """p A^-lo / lead, dividing each coefficient exactly."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {e - lo: _coeff_div(c, lead) for e, c in p.terms.items()}
    return out


class LaurentFrac:
    """Element of the fraction field Q(A), reduced on construction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_laurent(num)
        den = ONE if den is None else _as_laurent(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly(), ONE
            return
        g = poly_gcd(num, den)
        if g.max_exp() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        # normalise: denominator monic with min exponent 0
        lo, lead = den.min_exp(), den.terms[den.max_exp()]
        if lo or lead != 1:
            num = _shift_div(num, lo, lead)
            den = _shift_div(den, lo, lead)
        self.num, self.den = num, den

    @staticmethod
    def zero():
        return LaurentFrac(0)

    @staticmethod
    def one():
        return LaurentFrac(1)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFrac(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentFrac.__new__(LaurentFrac)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_frac(other) - self

    def __mul__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFrac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_frac(other) / self

    def inv(self):
        return LaurentFrac(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, LaurentFrac.one())

    def bar(self):
        return LaurentFrac(self.num.bar(), self.den.bar())

    def as_laurent(self):
        """Return the underlying LaurentPoly, raising if not integral."""
        return self.num.exact_div(self.den)

    def __eq__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"LaurentFrac({self})"


def _as_frac(x):
    if isinstance(x, LaurentFrac):
        return x
    if isinstance(x, QFactored):
        return LaurentFrac(x.num, x.den)
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return LaurentFrac(x)
    return NotImplemented


class LaurentFracField(Ring):
    name = "Q(A)"
    is_field = True

    @property
    def zero(self):
        return LaurentFrac.zero()

    @property
    def one(self):
        return LaurentFrac.one()

    def coerce(self, x):
        if isinstance(x, LaurentFrac):
            return x
        if isinstance(x, (int, Fraction, LaurentPoly)):
            return LaurentFrac(x)
        raise TypeError(f"cannot coerce {x!r} into Q(A)")

    def inv(self, x):
        return x.inv()

    def bar(self, x):
        return x.bar()


QA = LaurentFracField()


# -- Temperley-Lieb algebra over Z[A,A^-1] ------------------------------------
# An element of TL_n is a dict {diagram: LaurentPoly} where a diagram is a
# matching of 2n points: 0..n-1 the inputs (left to right), n..2n-1 the
# outputs (left to right).  Products, traces, projectors and the web
# oracles run on skein engines, which share the process-wide splice memo.
# Bending the inputs round to the left puts a diagram on a frontier of 2n
# points, inputs n-1..0 then outputs 0..n-1, and a diagram acting on the
# outputs is then a splice block at position n.


def _refold(x, n):
    """Move an element between diagram points and frontier positions.

    Point t sits at position t for t >= n and n-1-t otherwise; the fold is
    its own inverse, and so is this map.
    """
    def fold(t):
        return t if t >= n else n - 1 - t

    return {tuple(fold(d[fold(s)]) for s in range(2 * n)): c
            for d, c in x.items()}


def tl_identity(n):
    return {tuple(list(range(n, 2 * n)) + list(range(n))): LaurentPoly.one()}


def tl_e(n, i):
    """The cap-cup generator e_i joining inputs/outputs i, i+1."""
    pairs = {}
    pairs[i], pairs[i + 1] = i + 1, i
    pairs[n + i], pairs[n + i + 1] = n + i + 1, n + i
    for k in range(n):
        if k not in (i, i + 1):
            pairs[k] = n + k
            pairs[n + k] = k
    diag = tuple(pairs[k] for k in range(2 * n))
    return {diag: LaurentPoly.one()}


def tl_compose(x, y, n):
    """Stack y after x (x's outputs glued to y's inputs)."""
    return _refold(SkeinEngine().insert(_refold(x, n), n, n, y.items()), n)


@lru_cache(maxsize=None)
def jones_wenzl(n):
    """The Jones-Wenzl projector f_n = terms / den in TL_n.

    ``terms`` is a TL_n element over Z[A,A^-1] and ``den`` the least
    denominator, with lowest exponent 0 and a positive leading
    coefficient.  With f_(n-1) = F'/D' the Wenzl recursion reads
        D'^2 [n] f_n = D'[n] (F' x 1) + [n-1] (F' x 1) e_(n-1) (F' x 1)
    and has no division; the content, the gcd of the denominator and
    every coefficient, is divided out once per n.
    """
    if n < 0:
        raise ColorError("negative color")
    if n < 2:
        return tl_identity(n), LaurentPoly.one()
    prev, prev_den = jones_wenzl(n - 1)
    prev = prev.items()
    # f_(n-1) on the first n-1 strands, then e_(n-1) and f_(n-1) again
    eng = SkeinEngine()
    emb = eng.insert(_refold(tl_identity(n), n), n, n - 1, prev)
    mid = eng.cup(eng.cap(emb, 2 * n - 2), 2 * n - 2)
    mid = eng.insert(mid, n, n - 1, prev)
    # loop value of f_k is (-1)^k [k+1], so the Wenzl coefficient
    # -Delta_(n-2)/Delta_(n-1) comes out as +[n-1]/[n]
    scale, coef = prev_den * quantum_int(n), quantum_int(n - 1)
    terms = {m: c * scale for m, c in emb.items()}
    for m, c in mid.items():
        terms[m] = terms[m] + c * coef if m in terms else c * coef
    terms = {m: c for m, c in terms.items() if c}
    den = prev_den * scale
    g = den
    for c in terms.values():
        g = poly_gcd(g, c)
    # poly_gcd is monic with lowest exponent 0, and den has a positive lead
    g = g * LaurentPoly({den.min_exp(): 1})
    return (_refold({m: c.exact_div(g) for m, c in terms.items()}, n),
            den.exact_div(g))


def tl_trace(x, n):
    """Markov trace: close all strands around."""
    eng, states = SkeinEngine(), _refold(x, n)
    for pos in range(n - 1, -1, -1):
        states = eng.cap(states, pos)
    return states.get((), LaurentPoly())


# -- colored webs ---------------------------------------------------------------


def create_block(a, b, c):
    """Planar matching creating bundles [a, b, c] from nothing."""
    _check_adm(a, b, c)
    x = (a + b - c) // 2     # a-b mutual
    y = (b + c - a) // 2     # b-c mutual
    z = (a + c - b) // 2     # a-c mutual (outermost)
    W = a + b + c
    pairs = {}
    for t in range(z):
        pairs[t] = W - 1 - t
        pairs[W - 1 - t] = t
    for t in range(x):
        pairs[a - 1 - t] = a + t
        pairs[a + t] = a - 1 - t
    for t in range(y):
        pairs[a + b - 1 - t] = a + b + t
        pairs[a + b + t] = a + b - 1 - t
    return tuple(pairs[k] for k in range(W))


def split_block(x, y, z):
    """Consume an x-bundle, produce adjacent bundles [y, z]."""
    _check_adm(x, y, z)
    m = (y + z - x) // 2
    ty, tz = y - m, z - m
    pairs = {}
    for t in range(ty):
        pairs[t] = x + t
        pairs[x + t] = t
    for t in range(m):
        pairs[x + y - 1 - t] = x + y + t
        pairs[x + y + t] = x + y - 1 - t
    for t in range(tz):
        pairs[ty + t] = x + y + m + t
        pairs[x + y + m + t] = ty + t
    return tuple(pairs[k] for k in range(x + y + z))


def merge_block(y, z, x):
    """Consume adjacent bundles [y, z], produce an x-bundle."""
    _check_adm(x, y, z)
    m = (y + z - x) // 2
    ty, tz = y - m, z - m
    W_in = y + z
    pairs = {}
    for t in range(ty):
        pairs[t] = W_in + t
        pairs[W_in + t] = t
    for t in range(m):
        pairs[y - 1 - t] = y + t
        pairs[y + t] = y - 1 - t
    for t in range(tz):
        pairs[y + m + t] = W_in + ty + t
        pairs[W_in + ty + t] = y + m + t
    return tuple(pairs[k] for k in range(y + z + x))


def _project(states, den, pos, n):
    """Insert f_n at frontier positions pos.., as its integral terms.

    Returns the new states and the running denominator times f_n's.
    """
    if not n:
        return states, den
    terms, f_den = jones_wenzl(n)
    return SkeinEngine().insert(states, pos, n, terms.items()), den * f_den


def theta_web(a, b, c):
    """Theta net value by literal web evaluation, in Q(A)."""
    _check_adm(a, b, c)
    eng, den = SkeinEngine(), LaurentPoly.one()
    states = eng.apply_block({(): den}, 0, 0, a + b + c, create_block(a, b, c))
    for pos, col in ((0, a), (a, b), (a + b, c)):
        states, den = _project(states, den, pos, col)
    states = eng.apply_block(states, 0, a + b + c, 0, create_block(a, b, c))
    return LaurentFrac(states.get((), LaurentPoly()), den)


def tet_web(A, B, E, D, C, F):
    """Tetrahedral net by literal web evaluation, in Q(A)."""
    for tri in ((A, B, E), (A, C, F), (B, C, D), (E, F, D)):
        _check_adm(*tri)
    eng, den = SkeinEngine(), LaurentPoly.one()
    states = eng.apply_block({(): den}, 0, 0, B + A + E, create_block(B, A, E))
    for pos, col in ((0, B), (B, A), (B + A, E)):
        states, den = _project(states, den, pos, col)
    states = eng.apply_block(states, B, A, C + F, split_block(A, C, F))
    for pos, col in ((B, C), (B + C, F)):
        states, den = _project(states, den, pos, col)
    states = eng.apply_block(states, 0, B + C, D, merge_block(B, C, D))
    states, den = _project(states, den, 0, D)
    states = eng.apply_block(states, 0, D + F + E, 0, create_block(D, F, E))
    return LaurentFrac(states.get((), LaurentPoly()), den)


# -- the cabled colored bracket ---------------------------------------------------


def add_word_kinks(word, count, sign):
    """Append |count| kinks of the given sign to a closed word.

    A kink gadget is placed on strand 1 right after the first cup; the
    gadget [cup 1, cross 2, cap 1] wraps a small loop whose bracket
    factor is mu = -A^3 for sign +1 and mu^-1 for sign -1 (calibrated in
    the tests against the twist eigenvalue convention).
    """
    if count == 0:
        return word
    first_cup = next(i for i, (k, _) in enumerate(word.tokens) if k == "cup")
    gadget = (("cup", 1), ("cross+" if sign > 0 else "cross-", 2), ("cap", 1))
    toks = word.tokens[:first_cup + 1] + gadget * count + word.tokens[first_cup + 1:]
    return SliceWord(word.bottom, toks)


def cable_word(word, strands=2, twists=0):
    """Blackboard cable of a slice word, with full twists inserted.

    Every strand becomes ``strands`` parallel strands; each crossing
    expands to strands^2 crossings, each cup/cap to nested copies.  The
    ``twists`` full twists (sign = sign of twists) are inserted right
    after the first cup group, using 2|twists| crossings for 2-cables.
    """
    s = strands
    tokens = []
    for kind, pos in word.tokens:
        base = (pos - 1) * s + 1
        if kind == "cup":
            for k in range(s):
                tokens.append(("cup", base + k))
        elif kind == "cap":
            # cap nested pairs from innermost out
            for k in range(s):
                tokens.append(("cap", base + (s - 1) - k))
        else:
            # strands at [base, base+2s): cross block of s over block of s
            for a in range(s):
                row = base + (s - 1) - a
                for b in range(s):
                    tokens.append((kind, row + b))
    out = SliceWord(word.bottom * s, tuple(tokens))
    if twists:
        if s != 2:
            raise DiagramError("twist insertion implemented for 2-cables")
        # insert after the full first cable-cup group, where the two
        # parallel copies sit at positions 1 and 2
        first = None
        w = out.bottom
        for i, (k, p) in enumerate(out.tokens):
            w += 2 if k == "cup" else (-2 if k == "cap" else 0)
            if w >= out.bottom + 2 * s:
                first = i
                break
        if first is None:
            raise DiagramError("no cup group to twist about")
        kind = "cross+" if twists > 0 else "cross-"
        gadget = ((kind, 1),) * (2 * abs(twists))
        toks = out.tokens[:first + 1] + gadget + out.tokens[first + 1:]
        out = SliceWord(out.bottom, toks)
    return out


def zero_writhe_word(strands, gens):
    """The closure of a braid, with kinks on strand 1 cancelling its writhe."""
    w = sum(1 if g > 0 else -1 for g in gens)
    return add_word_kinks(braid_closure(strands, gens), abs(w),
                          -1 if w > 0 else 1)


# the atlas knots as 0-framed slice words: RT and LT have 6 crossings
ATLAS_WORDS = {name: zero_writhe_word(*braid)
               for name, braid in ATLAS_BRAIDS.items()}


def cable_colored_bracket(word, color):
    """Bracket of a closed word with its component colored ``color``.

    The component is replaced by ``color`` parallel copies with one
    Jones-Wenzl projector f_c = terms / den inserted as its integral
    terms; the closed evaluation is divided by den once at the end, and
    that division must be exact.
    """
    if color < 0:
        raise DiagramError("negative color")
    if color == 0:
        return LaurentPoly.one()
    if color == 1:
        return bracket_word(word)
    if not word.is_closed():
        raise DiagramError("colored bracket needs a closed diagram")
    cab = cable_word(word, color, 0)
    # insert the projector right after the first cable-cup group
    first = color  # the first original token was a cup -> `color` cup tokens
    terms, den = jones_wenzl(color)
    eng = SkeinEngine()
    states = eng.run_tokens({(): LaurentPoly.one()}, cab.tokens[:first])
    states = eng.insert(states, 0, color, terms.items())
    states = eng.run_tokens(states, cab.tokens[first:])
    return _exact_quotient(states.get((), LaurentPoly()), den,
                           f"the {color}-colored bracket")


# -- linear algebra ------------------------------------------------------------------


def berkowitz_det(mat):
    """Determinant via charpoly: det(A) = (-1)^n char(0)."""
    c = berkowitz_charpoly(mat)
    ct = c.constant_term()
    return ct if mat.rows % 2 == 0 else -ct


def eval_matrix(poly, mat):
    """poly(mat) for a square RingMatrix, by Horner (Cayley-Hamilton)."""
    ident = RingMatrix.identity(poly.ring, mat.rows)
    acc = RingMatrix.zero(poly.ring, mat.rows, mat.rows)
    for c in reversed(poly.coeffs):
        acc = acc * mat + ident * c
    return acc


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


def matrix_period(mat, bound):
    """Least m <= bound with (flat part)^m = I, or None."""
    flat = flat_decompose(mat).flat_matrix
    n = flat.rows
    if n == 0:
        return 1
    ident = RingMatrix.identity(flat.ring, n)
    acc = flat
    for m in range(1, bound + 1):
        if acc == ident:
            return m
        acc = acc * flat
    return None


# -- the Euclid inverse in k_p --------------------------------------------------


def euclid_inverse(x):
    """x^-1 by the extended Euclid in Q[A] against phi_2p, the oracle of
    ``CycloElem.inv`` (the Galois norm); they share the element type."""
    if x.is_zero():
        raise ZeroDivisionError("inverting zero in k_p")
    a, b, s0, s1 = list(x.num), list(cyclotomic_poly(2 * x.p)), [1], [0]
    while any(b):
        q, r = _poly_divmod(a, b)
        a, b, s0, s1 = b, r, s1, _poly_sub(s0, _poly_mul(q, s1))
    # a is now the gcd, a nonzero constant
    return CycloElem(x.p, [_coeff_div(c * x.den, a[0]) for c in s0])


def level_d(p):
    """The d of k_p = Z[1/d, A, kappa]/(phi_2p(A), kappa^6 - u)."""
    if p in (3, 4):
        return 1
    if p == 6:
        return 2
    return p


def in_ring(x):
    """True if the denominator of x divides a power of d (an honest k_p
    element)."""
    q = x.den
    for r in _prime_factors(level_d(x.p)):
        while q % r == 0:
            q //= r
    return q == 1


def _poly_divmod(a, b):
    """(q, r) with a = q b + r in Q[A], for b and r without top zeros."""
    r, n = list(a), len(b) - 1
    q = [0] * max(1, len(r) - n)
    for i in range(len(r) - n - 1, -1, -1):
        q[i] = c = _coeff_div(r[i + n], b[n])
        for j, y in enumerate(b):
            r[i + j] -= c * y
    while len(r) > 1 and not r[-1]:
        r.pop()
    return q, r


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# -- the norm from k_p to Q ----------------------------------------------------------


def full_rational_norm(gamma):
    """The norm of gamma over k_p from all of k_p to Q, as integers low to
    high, or None when it is not integral: the product of the conjugates
    sigma_j(gamma), A -> A^j over every unit j mod 2p, multiplied out in
    k_p[x].  It checks ``polyalg._rational_norm``, which takes the norm
    from gamma's field of definition through power sums and Newton's
    identities, and shares only the k_p arithmetic with it."""
    ring, p = gamma.ring, gamma.ring.p
    norm = RingPoly.one(ring)
    for j in range(1, 2 * p):
        if gcd(j, 2 * p) == 1:
            norm = norm * RingPoly(ring, [
                reduce_to_kp(LaurentPoly((i * j, a)
                                         for i, a in enumerate(c.coeffs)), p)
                for c in gamma.coeffs])
    out = []
    for c in norm.coeffs:
        if any(c.num[1:]):
            raise AssertionError(f"the norm of {gamma} is not rational")
        if c.den != 1:
            return None
        out.append(c.num[0])
    return out


# -- levels, counts and Kauffman polynomials --------------------------------------


def full_twist(r, i, j):
    """mu(r)/(mu(i) mu(j)): one full twist on an (i,j) pair in channel r."""
    return mu_eig(r) * (mu_eig(i) * mu_eig(j)) ** -1


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def scalars_from_kauffman(f_terms):
    """<J> and [[J]] from an externally supplied Kauffman polynomial.

    ``f_terms`` maps (a-exponent, z-exponent) to integer coefficients of
    F_J(a, z), normalised to 1 on the unknot.  The two substitutions are
      <J>   = ((a + a^-1)/z - 1) F_J  at  a = -A^3,    z = A + A^-1
      [[J]] = -((a + a^-1)/z - 1) F_J at  a = -i A^8,  z = i(A^4 - A^-4)
    Both run over k_2 = Q(i), where A_2 = i, and both results are checked
    to be rational.  A negative z-exponent (which a knot's F_J
    does not have) raises ValueError.
    """
    if any(j < 0 for _, j in f_terms):
        raise ValueError("negative z-exponent in a knot's Kauffman polynomial")

    one, i = CycloElem.one(2), CycloElem.a_power(2, 1)

    def substitute(a_val, z_val):
        acc = LaurentPoly()
        for (e, j), coeff in f_terms.items():
            acc = acc + a_val ** e * z_val ** j * LaurentPoly({0: one * coeff})
        pref = (a_val + a_val ** -1).exact_div(z_val) - LaurentPoly({0: one})
        return pref * acc

    def to_rational(p):
        if any(c.coeffs[1] != 0 for c in p.terms.values()):
            raise ValueError("Kauffman substitution left an imaginary part")
        return LaurentPoly({e: c.coeffs[0] for e, c in p.terms.items()})

    br = substitute(LaurentPoly({3: -one}), LaurentPoly({1: one, -1: one}))
    dd = -substitute(LaurentPoly({8: -i}), LaurentPoly({4: i, -4: -i}))
    return to_rational(br), to_rational(dd)


# -- identities of the pipeline ----------------------------------------------------


def ordinary_det_test(p, n):
    """Direct check of ``tqft.ordinary`` from det D(n) in k_p."""
    if n == 0:
        return True
    ring = kp_field(p)
    dn = pairing_matrix_D(n)
    dp = dn.map(lambda x: reduce_to_kp(x, p), ring)
    return rank(dp) == dp.rows


def brieskorn_periodicity(p, window):
    """Check <Sigma(2,3,c)>_p = <Sigma(2,3,c + 6p)>_p over c in window."""
    period = 6 * p
    if p % 2 == 0 and (p // 2) % 2 == 1:
        period = 3 * p          # = 6 r for p = 2r, r odd
    top = max(window) + period
    series = branched_series("U", -1, p, list(range(1, top + 1)))
    by_d = {rec.d: rec.value for rec in series}
    bad = [c for c in window if by_d[c] != by_d[c + period]]
    return period, bad


def tau5_value(j_ref, k, d):
    """tau_5 of the branched cover (D_k(J))_d by the printed conversion.

    Evaluated numerically with v = exp(2 pi i / 40), A_10 = -v^2,
    kappa = v^3 (so kappa^6 = u holds on the nose); the branched value
    carries the structure with sigma(alpha) = 3 sigma_d.
    """
    v = cmath.exp(2j * cmath.pi / 40)
    rec = branched_series(j_ref, k, 10, [d])[0]
    sig = total_signature(seifert_matrix_double(k), d)
    a_val = -v * v
    val = sum(complex(c) * a_val ** i for i, c in enumerate(rec.value.coeffs))
    val *= (v ** 3) ** rec.kappa
    binv = constants(10).beta.inv()
    binv_val = sum(complex(c) * a_val ** i for i, c in enumerate(binv.coeffs))
    sigma_alpha = 3 * sig
    return binv_val * v ** (-9 - 3 * sigma_alpha) * val


# -- the double's closed forms and its tensor splitting --------------------------


def _mu1_power(k):
    """mu(1)^(2k+1) = (-A^3)^(2k+1) in k_5."""
    return -CycloElem.a_power(5, 3 * (2 * k + 1))


def z5_matrix(j_ref, k):
    """Prop-5.9 matrix: beta [[1, <J>], [mu^(2k+1) <J>, mu^(2k+1) b_k]]
    with b_k(J) = A^(2k) [[J]] + A^(-6k).  It shares <J> and [[J]] with
    ``tqft._pattern_matrix``, and none of its channel sums."""
    s = knot_scalars(j_ref)
    br = s.at(1, 5)
    bk = CycloElem.a_power(5, 2 * k) * s.at(2, 5) + CycloElem.a_power(5, -6 * k)
    mk = _mu1_power(k)
    beta = constants(5).beta
    return RingMatrix(kp_field(5), [
        [beta, beta * br],
        [beta * mk * br, beta * mk * bk],
    ])


def z5_color2_scalar(j_ref, k):
    """The level-5 color-2 scalar (A + Abar)(beta(1 + mu^(2k+1) b_k(J)) - 1).

    Derived from the branched d = 1 identity together with the level-5
    trace formula; the alternative parenthesization
    (A + Abar)(beta(1 + mu^(2k+1)) b_k(J) - 1) fails the printed color-2
    values, which the test suite records.
    """
    s = knot_scalars(j_ref)
    a = CycloElem.a_power(5, 1)
    abar = CycloElem.a_power(5, -1)
    bk = CycloElem.a_power(5, 2 * k) * s.at(2, 5) + CycloElem.a_power(5, -6 * k)
    one = CycloElem.one(5)
    inner = constants(5).beta * (one + _mu1_power(k) * bk) - one
    return (a + abar) * inner


def plain_sums_by_dot(j_ref, k, p):
    """L(J) and X(J, k) = diag(mu(s)^(2k+1)) W^T, with L^-1 B = beta X,
    by the dot-product route ``tqft`` took before its shift table: each
    entry one ``ring.dot`` of full-twist monomials, from the Laurent
    ``full_twist``, against the <J_r>_p.  It shares <J_r>_p
    (``KnotScalars.at``) and ``ColorData`` with ``tqft``, not the table."""
    s, cd, ring = knot_scalars(j_ref), ColorData.at(p), kp_field(p)
    basis = range(constants(p).n)

    def sums(power, i, t):
        rs = [r for r in cd.colors() if cd.small(i, r, t)]
        return ring.dot([reduce_to_kp(full_twist(r, i, t) ** power, p)
                         for r in rs], [s.at(r, p) for r in rs])

    mu = [reduce_to_kp(mu_eig(i), p) ** ((2 * k + 1) % (2 * p))
          for i in basis]
    return (RingMatrix(ring, [[sums(1, i, t) for t in basis] for i in basis]),
            RingMatrix(ring, [[mu[i] * sums(k % (2 * p), i, t)
                               for t in basis] for i in basis]))


def colored_double_by_inverse(j_ref, k, p, c):
    """Z_p(D_k(J), c) = B L_c^-1 for an even color c >= 2, the route
    ``tqft.colored_matrix`` replaced: B = beta T1 diag(<e_t> mu(t)^(2k+1))
    C2^T over the channels t with (c, t, t) small admissible, with the
    first channel sum T1 formed, and L_c inverted.  It shares the channel
    sums and L_c with ``tqft``, not the simple current that maps T1 onto
    L_c."""
    cd, pack, ring, s = ColorData.at(p), constants(p), kp_field(p), \
        knot_scalars(j_ref)
    S = cd.S(c)
    chans = [t for t in range(pack.n) if cd.small(c, t, t)]
    ft, ft_k, mu_k = _twist(p), _twist(p, k % (2 * p)), _twist(p, 2 * k + 1)
    t1 = _channel_sums(s, p, cd, S, chans, lambda r, i, t: ft(r, i, t)
                       / theta(r, i, t, p) * tet(c, i, i, r, t, t, p))
    c2 = _channel_sums(s, p, cd, S, chans, lambda r, j, t: ft_k(r, j, t)
                       * tet(c, j, j, r, t, t, p) / theta(r, j, t, p)
                       / theta(c, t, t, p))
    diag = [pack.beta * pack.bracket_e[t] * mu_k(t, 0, 0) for t in chans]
    b = RingMatrix(ring, [[x * d for x, d in zip(row, diag)] for row in t1]) \
        * RingMatrix(ring, c2).transpose()
    return flat_decompose(b * inverse(colored_L_matrix(j_ref, p, c)))


def map_i(x, p):
    """i_p : k_2 -> k_2p (p odd), determined by A_2 -> A_2p^(p^2)."""
    if p % 2 == 0 or p < 3:
        raise ValueError("i_p requires odd p >= 3")
    if x.p != 2:
        raise ValueError("i_p is defined on k_2")
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
    e = p + 1 if p % 4 == 1 else 3 * p + 1
    terms = ((i * e, c) for i, c in enumerate(x.coeffs))
    return CycloElem(2 * p, _monomial_sum(2 * p, terms))


def tensor_double(j_ref, k, p):
    """Z_2p'(K) = i(Z_2(K)) (x) j(Z_p'(K)) for odd p' = p/2 >= 3, from
    the splitting V_2p' = V_2 (x) V_p' (Blanchet-Habegger-Masbaum-Vogel,
    Topology 34, 1995).  It shares the doubles at levels 2 and p' with
    ``tqft``, not the level-p sum it checks."""
    ph = p // 2
    inv2 = double_invariant(j_ref, k, 2)
    invh = double_invariant(j_ref, k, ph)
    ring = kp_field(p)
    g2 = inv2.flat_matrix.map(lambda x: map_i(x, ph), ring)
    gh = invh.flat_matrix.map(lambda x: map_j(x, ph), ring)
    return flat_decompose(g2.kron(gh))
