"""Recoupling coefficients and braid generators in the fusion basis.

The theta net and the tetrahedral net are closed formulas, written once
over a table of quantum factorials [k]! and evaluated either level-free
as a ``QFactored`` (``p=None``, a Laurent polynomial times signed powers
of quantum integers, with no gcd) or at a level k_p, from one factorial
table built per level; a [k]! that vanishes at the level makes a
numerator zero and a denominator raise ``UnsupportedSpecialization``.
Their oracles, web evaluations with literal Jones-Wenzl projectors, are
``oracles.theta_web`` and ``oracles.tet_web``.

The tetrahedron tet(A,B,E; D,C,F) has vertex triples (A,B,E), (A,C,F),
(B,C,D), (E,F,D); a zero on the first edge degenerates it to a theta.
The level-free values give the matrices of braid generators in the
fusion basis, ``braid_block``, from which ``skein.colored_bracket``
evaluates the colored brackets of braid closures.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import CycloElem, UnsupportedSpecialization, reduce_to_kp
from .laurent import LaurentPoly, QFactored, bracket_e, quantum_int


class ColorError(ValueError):
    """Inadmissible color data (bad triple or vanishing quantum integer)."""


# -- closed formulas ----------------------------------------------------------


def _check_adm(a, b, c):
    if (a + b + c) % 2:
        raise ColorError(f"triple ({a},{b},{c}) has odd sum")
    if a > b + c or b > a + c or c > a + b:
        raise ColorError(f"triple ({a},{b},{c}) fails the triangle inequality")


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


def unknot_value(r):
    """<r> = (-1)^r [r+1], the r-colored unknot."""
    return bracket_e(r)
