"""Jones-Wenzl projectors, colored webs, and recoupling coefficients.

The projector f_n is built by the Wenzl recursion inside the 2n-point
Temperley-Lieb algebra over Z[A,A^-1], as integral terms over one
denominator; it is idempotent and killed by every cap-cup generator,
and its closed trace is <e_n> = (-1)^n [n+1].  The algebra has no
gluing code of its own: an element of TL_n is a state of the skein
engine on a frontier of 2n points, and products, traces and the
recursion are splices there.

Colored evaluations come in two flavours that check each other:

* closed formulas for the theta net and the tetrahedral net, written
  once over a table of quantum factorials [k]! and evaluated either
  level-free as a ``QFactored`` (``p=None``, a Laurent polynomial times
  signed powers of quantum integers, with no gcd) or at a level k_p,
  from one factorial table built per level; a [k]! that vanishes at the
  level makes a numerator zero and a denominator raise
  ``UnsupportedSpecialization``, and
* web evaluations that build the same nets out of cups, caps and
  literal projector insertions, and divide by the product of the
  projector denominators at the end, in Q(A).

The tetrahedron tet(A,B,E; D,C,F) has vertex triples (A,B,E), (A,C,F),
(B,C,D), (E,F,D); a zero on the first edge degenerates it to a theta.
The level-free values give the matrices of braid generators in the
fusion basis, ``braid_block``, from which ``skein.colored_bracket``
evaluates the colored brackets of braid closures.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import CycloElem, UnsupportedSpecialization, reduce_to_kp
from .laurent import (LaurentFrac, LaurentPoly, QFactored, bracket_e, mu_eig,
                      poly_gcd, quantum_int)
from .skein import SkeinEngine


class ColorError(ValueError):
    """Inadmissible color data (bad triple or vanishing quantum integer)."""


# -- Temperley-Lieb algebra over Z[A,A^-1] ------------------------------------
# An element of TL_n is a dict {diagram: LaurentPoly} where a diagram is a
# matching of 2n points: 0..n-1 the inputs (left to right), n..2n-1 the
# outputs (left to right).  Products, traces, projectors and the web
# oracles run on one shared skein engine, and so share its splice memo.
# Bending the inputs round to the left puts a diagram on a frontier of 2n
# points, inputs n-1..0 then outputs 0..n-1, and a diagram acting on the
# outputs is then a splice block at position n.

_ENGINE = SkeinEngine()


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
    return _refold(_ENGINE.insert(_refold(x, n), n, n, y.items()), n)


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
    emb = _ENGINE.insert(_refold(tl_identity(n), n), n, n - 1, prev)
    mid = _ENGINE.cup(_ENGINE.cap(emb, 2 * n - 2), 2 * n - 2)
    mid = _ENGINE.insert(mid, n, n - 1, prev)
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
    states = _refold(x, n)
    for pos in range(n - 1, -1, -1):
        states = _ENGINE.cap(states, pos)
    return states.get((), LaurentPoly())


# -- colored web programs -----------------------------------------------------


def _check_adm(a, b, c):
    if (a + b + c) % 2:
        raise ColorError(f"triple ({a},{b},{c}) has odd sum")
    if a > b + c or b > a + c or c > a + b:
        raise ColorError(f"triple ({a},{b},{c}) fails the triangle inequality")


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
    return _ENGINE.insert(states, pos, n, terms.items()), den * f_den


def theta_web(a, b, c):
    """Theta net value by literal web evaluation (the oracle), in Q(A)."""
    _check_adm(a, b, c)
    den = LaurentPoly.one()
    states = _ENGINE.apply_block({(): den}, 0, 0, a + b + c,
                                 create_block(a, b, c))
    for pos, col in ((0, a), (a, b), (a + b, c)):
        states, den = _project(states, den, pos, col)
    states = _ENGINE.apply_block(states, 0, a + b + c, 0, create_block(a, b, c))
    return LaurentFrac(states.get((), LaurentPoly()), den)


def tet_web(A, B, E, D, C, F):
    """Tetrahedral net by literal web evaluation (the oracle), in Q(A)."""
    for tri in ((A, B, E), (A, C, F), (B, C, D), (E, F, D)):
        _check_adm(*tri)
    den = LaurentPoly.one()
    states = _ENGINE.apply_block({(): den}, 0, 0, B + A + E,
                                 create_block(B, A, E))
    for pos, col in ((0, B), (B, A), (B + A, E)):
        states, den = _project(states, den, pos, col)
    states = _ENGINE.apply_block(states, B, A, C + F, split_block(A, C, F))
    for pos, col in ((B, C), (B + C, F)):
        states, den = _project(states, den, pos, col)
    states = _ENGINE.apply_block(states, 0, B + C, D, merge_block(B, C, D))
    states, den = _project(states, den, 0, D)
    states = _ENGINE.apply_block(states, 0, D + F + E, 0, create_block(D, F, E))
    return LaurentFrac(states.get((), LaurentPoly()), den)


# -- closed formulas ----------------------------------------------------------


@lru_cache(maxsize=None)
def _level_qfacts(p):
    """[k]! in k_p for k = 0 .. p - 1."""
    out = [CycloElem.one(p)]
    for k in range(1, p):
        out.append(out[-1] * reduce_to_kp(quantum_int(k), p))
    return tuple(out)


@lru_cache(maxsize=None)
def _level_inv_qfacts(p):
    """[k]!^-1 in k_p for the k where [k]! does not vanish.

    One inverse, of the last nonzero factorial; the others come down the
    table by [k-1]!^-1 = [k]!^-1 [k].
    """
    facts = _level_qfacts(p)
    top = max(k for k, f in enumerate(facts) if not f.is_zero())
    out = [facts[top].inv()]
    for k in range(top, 0, -1):
        out.append(out[-1] * reduce_to_kp(quantum_int(k), p))
    return tuple(reversed(out))


def qfact(n, p=None):
    """Quantum factorial [n]!, a ``QFactored`` for p None and in k_p otherwise.

    At a level p >= 3, [p] = 0, so [n]! vanishes for every n >= p (and
    from [p/2]! on when p is even).
    """
    if p is None:
        return QFactored(1, {k: 1 for k in range(2, n + 1)})
    table = _level_qfacts(p)
    return table[n] if n < len(table) else CycloElem.zero(p)


def _qfact_inv(ns, p):
    """(prod of [n]! over ns)^-1, for the denominator of a closed formula.

    Without a level the exponents of the factorials turn negative; at a
    level a product of entries of the inverse-factorial table, where a
    factorial that vanishes raises ``UnsupportedSpecialization``.
    """
    if p is None:
        den = qfact(0)
        for n in ns:
            den = den * qfact(n)
        return den.inv()
    table = _level_inv_qfacts(p)
    out = CycloElem.one(p)
    for n in ns:
        if n >= len(table):
            raise UnsupportedSpecialization(
                f"a quantum factorial in a recoupling denominator vanishes "
                f"at level {p}")
        out = out * table[n]
    return out


@lru_cache(maxsize=None)
def theta(a, b, c, p=None):
    """Theta net value, a ``QFactored`` (p None) or in k_p."""
    _check_adm(a, b, c)
    x = (a + b - c) // 2
    y = (b + c - a) // 2
    z = (a + c - b) // 2
    num = qfact(x + y + z + 1, p) * qfact(x, p) * qfact(y, p) * qfact(z, p)
    val = num * _qfact_inv((x + y, y + z, x + z), p)
    if (x + y + z) % 2:
        val = -val
    return val


@lru_cache(maxsize=None)
def tet(A, B, E, D, C, F, p=None):
    """Tetrahedral net value, a ``QFactored`` (p None) or in k_p.

    Vertex triples: (A,B,E), (A,C,F), (B,C,D), (E,F,D).
    """
    tris = ((A, B, E), (A, C, F), (B, C, D), (E, F, D))
    for tri in tris:
        _check_adm(*tri)
    a_list = [sum(t) // 2 for t in tris]
    total = A + B + C + D + E + F
    b_list = [(total - A - D) // 2, (total - B - F) // 2, (total - C - E) // 2]
    one = qfact(0, p)
    interior = one
    for bj in b_list:
        for ai in a_list:
            interior = interior * qfact(bj - ai, p)
    acc = one - one
    for z in range(max(a_list), min(b_list) + 1):
        term = qfact(z + 1, p) * _qfact_inv(
            [z - ai for ai in a_list] + [bj - z for bj in b_list], p)
        if z % 2:
            term = -term
        acc = acc + term
    return interior * _qfact_inv((A, B, C, D, E, F), p) * acc


# -- braid generators in the fusion basis -------------------------------------


def half_twist(c, j):
    """lambda(j), a positive crossing of two c-strands fused into j: its
    square is mu(j) / mu(c)^2, and at c = 1 it is -A^-3 or A."""
    sign = -1 if (2 * c - j) // 2 % 2 else 1
    return LaurentPoly({(j * (j + 2) - 2 * c * (c + 2)) // 2: sign})


def factored_e(j):
    """<e_j> = (-1)^j [j+1] as a ``QFactored``."""
    return QFactored(-1 if j % 2 else 1, {j + 1: 1})


@lru_cache(maxsize=None)
def braid_block(c, a, d, sign):
    """sigma_i^sign on the fusion label x between a and d, strands colored c.

    In the left-comb basis strand i fuses into a to give x, and strand
    i+1 fuses into x to give d.  Where the two strands fuse first, into j,
    the crossing is diagonal, lambda(j)^sign, and the 6j-symbols
        F_xj = Tet(x,c,a,j,c,d) <e_j> / (theta(c,c,j) theta(a,j,d)),
        G_jx = Tet(x,c,a,j,c,d) <e_x> / (theta(a,c,x) theta(x,c,d))
    change the basis there and back (G F = 1: no inverse is formed).
    Returns {x: ((y, (F diag G)_xy), ...)}.
    """
    xs = [x for x in range(abs(a - c), a + c + 1, 2)
          if abs(x - c) <= d <= x + c]
    out = {(x, y): QFactored(0) for x in xs for y in xs}
    for j in range(abs(a - d), min(a + d, 2 * c) + 1, 2):
        fj = factored_e(j) * half_twist(c, j) ** sign \
            / (theta(c, c, j) * theta(a, j, d))
        f = {x: tet(x, c, a, j, c, d) * fj for x in xs}
        for y in xs:
            g = tet(y, c, a, j, c, d) * factored_e(y) / (theta(a, c, y)
                                                        * theta(y, c, d))
            for x in xs:
                out[x, y] = f[x] * g + out[x, y]
    return {x: tuple((y, out[x, y]) for y in xs if out[x, y].poly) for x in xs}


def full_twist(r, i, j):
    """mu(r)/(mu(i) mu(j)): one full twist on an (i,j) pair in channel r."""
    return mu_eig(r) * (mu_eig(i) * mu_eig(j)) ** -1


def unknot_value(r):
    """<r> = (-1)^r [r+1], the r-colored unknot."""
    return bracket_e(r)
