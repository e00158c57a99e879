"""Identities of the pipeline that the ``branched8`` and ``witten11``
golden suites check: the d = 1 branched trace identity, and the
torus-bundle monodromy matrices against Gamma of the doubles of the
unknot.

The suites import this module inside their functions, so importing
``golden`` compiles none of it, and a ``check`` command compiles none of
``oracles``.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElem
from .matring import RingMatrix, normalized_charpoly
from .rings import kp_field
from .tqft import branched_series, double_invariant


def branched_d1_identity(j_ref, k, p):
    """The d = 1 restriction: the colored traces weighted by <e_2i> sum to 1."""
    recs = branched_series(j_ref, k, p, [1])
    return recs[0].normalized == CycloElem.one(p)


def witten_matrix(knot, r):
    """The torus-bundle monodromy matrices over k_2r (r >= 3).

    ``knot`` is "RT" or "F8"; entries are indexed 1 <= j, l <= r - 1 and
    carry the Gauss-sum prefactor.
    """
    p = 2 * r
    ring = kp_field(p)
    gauss = CycloElem.zero(p)
    for m in range(1, 4 * r + 1):
        gauss = gauss + CycloElem.a_power(p, -(m * m))
    sign = 1 if (r + 1) % 2 == 0 else -1
    if knot == "RT":
        pref = CycloElem.a_power(p, 4 - r * r) * Fraction(sign, 4 * r) * gauss
    elif knot == "F8":
        pref = CycloElem.a_power(p, -(r * r)) * Fraction(sign, 4 * r) * gauss
    else:
        raise ValueError("witten matrices are tabulated for RT and F8")
    rows = []
    for j in range(1, r):
        row = []
        for l in range(1, r):
            inner = CycloElem.a_power(p, 2 * l * j) - \
                CycloElem.a_power(p, -2 * l * j)
            # (-A)^e, with the sign folded in as A_p^p = -1
            e = -(l * l) if knot == "RT" else j * j + 2 * l * l
            phase = CycloElem.a_power(p, e + p * (e % 2))
            row.append(pref * phase * inner)
        rows.append(row)
    return RingMatrix(ring, rows)


def witten_check(r):
    """charpoly(w_r(K)) vs Gamma_2r(K) for K in {RT, F8}."""
    out = {}
    for knot, (jref, k) in (("RT", ("U", -1)), ("F8", ("U", 1))):
        w = witten_matrix(knot, r)
        cp = normalized_charpoly(w)
        gam = double_invariant(jref, k, 2 * r).gamma
        out[knot] = (cp == gam, cp, gam)
    return out
