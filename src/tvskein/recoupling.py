"""Recoupling coefficients and braid generators in the fusion basis.

The theta net and the tetrahedral net are closed formulas in quantum
factorials [k]!, written once through ``_factorials`` and evaluated
either level-free (``p=None``) or at a level k_p.  Level-free a ratio of
factorials is a ``QFactored`` built from an integer vector, since
[n]! = A^(n-n^2) prod_(1 < d <= n) Phi_d(A^4)^(n // d); Tet's z-sum is
one ``QFactored.sum``, and Tet is reduced once and cached.  At a level
the factorials come from one table built per level, Tet's z-sum is one
``kp_field(p).dot``, and a [k]! that vanishes makes a numerator zero and
a denominator raise ``UnsupportedSpecialization``.  Their oracles, web
evaluations with literal Jones-Wenzl projectors, are
``oracles.theta_web`` and ``oracles.tet_web``.

The tetrahedron tet(A,B,E; D,C,F) has vertex triples (A,B,E), (A,C,F),
(B,C,D), (E,F,D); a zero on the first edge degenerates it to a theta.
The level-free values give the matrices of braid generators in the
fusion basis, ``braid_block``, with every entry reduced and cached, from
which ``skein.colored_bracket`` evaluates the colored brackets of braid
closures.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import CycloElem, UnsupportedSpecialization, reduce_to_kp
from .laurent import LaurentPoly, QFactored, quantum_int
from .rings import kp_field


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


def qfact(n, p):
    """Quantum factorial [n]! in k_p.

    At a level p >= 3, [p] = 0, so [n]! vanishes for every n >= p (and
    from [p/2]! on when p is even).
    """
    table = _level_qfacts(p)
    return table[n] if n < len(table) else CycloElem.zero(p)


def _qfact_inv(ns, p):
    """(prod of [n]! over ns)^-1 in k_p, for the denominator of a closed
    formula: a product of entries of the inverse-factorial table, where a
    factorial that vanishes raises ``UnsupportedSpecialization``.
    """
    table = _level_inv_qfacts(p)
    out = CycloElem.one(p)
    for n in ns:
        if n >= len(table):
            raise UnsupportedSpecialization(
                f"a quantum factorial in a recoupling denominator vanishes "
                f"at level {p}")
        out = out * table[n]
    return out


def _factorials(top, bottom, p, sign=1):
    """sign * prod [n]! over top / prod [n]! over bottom.

    Level-free it is a ``QFactored`` built from an integer vector:
    [n]! = A^(n-n^2) prod_(1 < d <= n) Phi_d(A^4)^(n // d).  At a level
    it is a product of table entries; the denominator is formed first, so
    that one which vanishes raises even where the numerator is zero.
    """
    if p is not None:
        out = _qfact_inv(bottom, p)
        for n in top:
            out = out * qfact(n, p)
        return -out if sign < 0 else out
    vec = [0] * (max((*top, *bottom, 1)) + 1)
    shift = 0
    for ns, s in ((top, 1), (bottom, -1)):
        for n in ns:
            shift += s * (n - n * n)
            for d in range(2, n + 1):
                vec[d] += s * (n // d)
    return QFactored(LaurentPoly({shift: sign}), enumerate(vec))


@lru_cache(maxsize=None)
def theta(a, b, c, p=None):
    """Theta net value, a ``QFactored`` (p None) or in k_p."""
    _check_adm(a, b, c)
    x = (a + b - c) // 2
    y = (b + c - a) // 2
    z = (a + c - b) // 2
    return _factorials((x + y + z + 1, x, y, z), (x + y, y + z, x + z), p,
                       -1 if (x + y + z) % 2 else 1)


@lru_cache(maxsize=None)
def tet(A, B, E, D, C, F, p=None):
    """Tetrahedral net value, a ``QFactored`` (p None) or in k_p.

    Vertex triples: (A,B,E), (A,C,F), (B,C,D), (E,F,D).  The z-sum is
    one ``QFactored.sum`` level-free, reduced with the prefactor, and one
    ``dot`` at a level.
    """
    tris = ((A, B, E), (A, C, F), (B, C, D), (E, F, D))
    for tri in tris:
        _check_adm(*tri)
    a_list = [sum(t) // 2 for t in tris]
    total = A + B + C + D + E + F
    b_list = [(total - A - D) // 2, (total - B - F) // 2, (total - C - E) // 2]
    zs = range(max(a_list), min(b_list) + 1)
    bottoms = [[z - ai for ai in a_list] + [bj - z for bj in b_list]
               for z in zs]
    signs = [-1 if z % 2 else 1 for z in zs]
    if p is None:
        acc = QFactored.sum(_factorials((z + 1,), bottom, None, s)
                            for z, bottom, s in zip(zs, bottoms, signs))
    else:
        acc = kp_field(p).dot([qfact(z + 1, p) for z in zs],
                              [_factorials((), bottom, p, s)
                               for bottom, s in zip(bottoms, signs)])
    val = _factorials([bj - ai for bj in b_list for ai in a_list],
                      (A, B, C, D, E, F), p) * acc
    return val if p is not None else val.reduced()


# -- braid generators in the fusion basis -------------------------------------


def half_twist(c, j):
    """lambda(j), a positive crossing of two c-strands fused into j: its
    square is mu(j) / mu(c)^2, and at c = 1 it is -A^-3 or A."""
    sign = -1 if (2 * c - j) // 2 % 2 else 1
    return LaurentPoly({(j * (j + 2) - 2 * c * (c + 2)) // 2: sign})


def factored_e(j):
    """<e_j> = (-1)^j [j+1] = (-1)^j [j+1]! / [j]! as a ``QFactored``."""
    return _factorials((j + 1,), (j,), None, -1 if j % 2 else 1)


@lru_cache(maxsize=None)
def braid_block(c, a, d, sign):
    """sigma_i^sign on the fusion label x between a and d, strands colored c.

    In the left-comb basis strand i fuses into a to give x, and strand
    i+1 fuses into x to give d.  Where the two strands fuse first, into j,
    the crossing is diagonal, lambda(j)^sign, and the 6j-symbols
        F_xj = Tet(x,c,a,j,c,d) <e_j> / (theta(c,c,j) theta(a,j,d)),
        G_jx = Tet(x,c,a,j,c,d) <e_x> / (theta(a,c,x) theta(x,c,d))
    change the basis there and back (G F = 1: no inverse is formed).
    F and G are reduced, each entry is one sum over j, lifted once, and
    the entry is reduced before the block is cached.
    Returns {x: ((y, (F diag G)_xy), ...)}.
    """
    xs = [x for x in range(abs(a - c), a + c + 1, 2)
          if abs(x - c) <= d <= x + c]
    terms = {(x, y): [] for x in xs for y in xs}
    for j in range(abs(a - d), min(a + d, 2 * c) + 1, 2):
        fj = factored_e(j) * half_twist(c, j) ** sign \
            / (theta(c, c, j) * theta(a, j, d))
        f = {x: (tet(x, c, a, j, c, d) * fj).reduced() for x in xs}
        for y in xs:
            g = tet(y, c, a, j, c, d) * factored_e(y) / (theta(a, c, y)
                                                        * theta(y, c, d))
            g = g.reduced()
            for x in xs:
                terms[x, y].append(f[x] * g)
    out = {xy: QFactored.sum(ts).reduced() for xy, ts in terms.items()}
    return {x: tuple((y, out[x, y]) for y in xs if out[x, y].poly) for x in xs}
