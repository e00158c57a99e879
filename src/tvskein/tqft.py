"""The invariant pipeline.

From a tangle word this module produces the level-free invariants
(transfer matrix, normalized characteristic polynomial Gamma, constant
term D, similarity data) and their specializations to the cyclotomic
levels k_p; from a twisted double D_k(J) it produces the level-p
invariant through the closed matrix forms at p = 2, 5, 6, the tensor
splitting at p = 2p' with p' odd, and the general small-admissible-sum
construction otherwise; and from those it assembles quantum invariants
of cyclic and branched cyclic covers, exact signature bookkeeping, and
the Brieskorn / torus-bundle cross-checks.

Levels where the pairing matrix D(n) degenerates (p special with
respect to n) are rejected with ``UnsupportedSpecialization`` rather
than guessed at.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .cyclo import (CycloElem, constants, fold_kappa3, map_i, map_j,
                    reduce_to_kp, u_element)
from .diagram import DiagramError, KnotRef, SliceWord
from .laurent import LaurentFrac, LaurentPoly
from .matring import (RingMatrix, flat_decompose, inverse, normalized_charpoly,
                      rank, similarity_invariants)
from .polyalg import (InvariantCheckError, RingPoly, numeric_roots,
                      power_sums, root_periodicity, tensor_product)
from .recoupling import ColorError, full_twist, tet, theta, unknot_value
from .rings import kp_field
from .skein import knot_scalars, pairing_matrix_D, transfer_Q


class UnsupportedSpecialization(ValueError):
    """Specialization the theory leaves undefined (special p, D(L)_p = 0)."""


# -- colors -------------------------------------------------------------------


@dataclass(frozen=True)
class ColorData:
    """Admissibility bookkeeping for the level-p colored theory."""

    p: int
    q: int

    @staticmethod
    def at(p):
        if p <= 2:
            q = 2
        elif p % 2 == 0:
            q = (p - 2) // 2
        else:
            q = p - 1
        return ColorData(p, q)

    def colors(self):
        return range(self.q)

    def is_good(self, c):
        if not 0 <= c < self.q:
            return False
        return True if self.p % 2 == 0 else c % 2 == 0

    def good_colors(self):
        return [c for c in self.colors() if self.is_good(c)]

    def admissible(self, i, j, k):
        return ((i + j + k) % 2 == 0 and i <= j + k and j <= i + k
                and k <= i + j)

    def small(self, i, j, k):
        return self.admissible(i, j, k) and i + j + k < 2 * self.q

    def S(self, c):
        """Good colors i with (i, i, c) small admissible."""
        return [i for i in self.good_colors() if self.small(i, i, c)]


def ordinary(p, n):
    """Is the pairing matrix D(n) nonsingular at level p?"""
    if p < 1 or n < 0:
        raise ValueError("need p >= 1, n >= 0")
    if n == 0 or p in (1, 2):
        return True
    if p % 2 == 0:
        return p > 2 * n + 2
    return p > n + 1


def ordinary_det_test(p, n):
    """Direct check of ``ordinary`` from det D(n) in k_p."""
    if n == 0:
        return True
    ring = kp_field(p)
    dn = pairing_matrix_D(n)
    dp = dn.map(lambda x: reduce_to_kp(x, p), ring)
    return rank(dp) == dp.rows


# -- invariant records ----------------------------------------------------------


@dataclass
class TVInvariant:
    """Bundled result of a flat decomposition at (or before) a level."""

    p: int | None
    matrix: RingMatrix
    gamma: RingPoly
    constant_term: object
    flat_rank: int
    flat_matrix: RingMatrix
    period: int | None = None
    notes: dict = field(default_factory=dict)

    def power_sums(self, d_max):
        return power_sums(self.gamma, d_max)

    @cached_property
    def invariant_factors(self):
        """Similarity invariants of the flat part, computed on first read."""
        return similarity_invariants(self.flat_matrix) if self.flat_rank else []

    @cached_property
    def numeric_eigen(self):
        """Roots of Gamma under A_p -> exp(pi i / p), computed on first read."""
        if self.p is None or not self.flat_rank:
            return []
        return numeric_roots(self.gamma)


def make_invariant(matrix, p=None, notes=None):
    """Flat-decompose a transfer matrix and bundle the invariants."""
    fd = flat_decompose(matrix)
    gamma = fd.gamma
    period = None
    if p is not None and fd.flat_rank:
        period = root_periodicity(gamma)
    return TVInvariant(p=p, matrix=matrix, gamma=gamma,
                       constant_term=fd.constant_term,
                       flat_rank=fd.flat_rank, flat_matrix=fd.flat_matrix,
                       period=period, notes=notes or {})


def trivial_invariant(p):
    """The class of the identity on a free rank-one module."""
    ring = kp_field(p)
    m = RingMatrix.identity(ring, 1)
    return make_invariant(m, p)


def zero_invariant(p):
    ring = kp_field(p)
    return make_invariant(RingMatrix(ring, [[ring.zero]]), p)


# -- tangle invariants -----------------------------------------------------------


@dataclass
class TangleInvariant:
    """Level-free data of an even tangle in S^1 x S^2."""

    word: SliceWord
    q_matrix: RingMatrix
    gamma: RingPoly
    constant_term: LaurentPoly
    flat_rank: int
    trace: LaurentPoly          # Hoste-Przytycki image of the closed link
    wrapping: int | None        # certified wrapping number, when available
    wrapping_bound_ok: bool     # c(w/2) >= deg Gamma


def tangle_invariant(word, p=None):
    """Q(T), Gamma(L), D(L) and wrapping data; optionally specialized.

    Gamma(L) is the normalized Berkowitz charpoly of Q(T) over Z[A^+-1],
    which needs no division, and the flat rank is its degree.  The
    closure matrix is B(T) = Q(T) D(n) with det D(n) != 0 in Z[A^+-1]
    (Ko-Smolinsky), so det B(T) != 0, and the wrapping number is 2n,
    exactly when Gamma(L) has the full degree c(n).
    """
    if word.bottom % 2:
        raise DiagramError("even tangles only")
    n = word.bottom // 2
    q = transfer_Q(word)
    gamma = normalized_charpoly(q)
    flat_rank = gamma.degree()
    d_l = gamma.constant_term()
    trace = q.trace()
    wrapping = None
    if n >= 2 and flat_rank == q.rows:
        wrapping = 2 * n
    from .skein import catalan
    bound_ok = True
    if wrapping is not None:
        bound_ok = catalan(wrapping // 2) >= flat_rank
    out = TangleInvariant(word=word, q_matrix=q, gamma=gamma,
                          constant_term=d_l, flat_rank=flat_rank,
                          trace=trace, wrapping=wrapping,
                          wrapping_bound_ok=bound_ok)
    if p is None:
        return out
    if not ordinary(p, n):
        raise UnsupportedSpecialization(
            f"p={p} is special with respect to n={n}")
    dlp = reduce_to_kp(d_l, p)
    if flat_rank > 0 and dlp.is_zero():
        raise UnsupportedSpecialization(f"D(L) vanishes at p={p}")
    ring = kp_field(p)
    qp = q.map(lambda x: reduce_to_kp(x, p), ring)
    return out, make_invariant(qp, p)


# -- twisted doubles --------------------------------------------------------------


def _scalars(j_ref):
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    return knot_scalars(j_ref.symbol if hasattr(j_ref, "symbol") else j_ref)


def z2_matrix(j_ref, k):
    """The level-2 transfer matrix of D_k(J) on the basis {1, z}."""
    ring = kp_field(2)
    pack = constants(2)
    a = CycloElem.a_power(2, 1)
    beta = pack.beta
    sgn = -1 if k % 2 else 1
    half = Fraction(1, 2)
    m = RingMatrix(ring, [
        [beta, beta * 2],
        [beta * a * (sgn * half), beta * a],
    ])
    return m


def z5_matrix(j_ref, k):
    """Prop-5.9 matrix: beta [[1, <J>], [mu^(2k+1) <J>, mu^(2k+1) b_k]]."""
    ring = kp_field(5)
    pack = constants(5)
    s = _scalars(j_ref)
    br = reduce_to_kp(s.bracket, 5)
    bk = reduce_to_kp(s.b_k(k), 5)
    mu = pack.mu[1]
    mk = mu ** ((2 * k + 1) % 10)
    beta = pack.beta
    return RingMatrix(ring, [
        [beta, beta * br],
        [beta * mk * br, beta * mk * bk],
    ])


def _channel_sums(s, p, cd, left, right, *weights):
    """Channel sums of the doubled pattern, one matrix per weight.

    Entry (i, t) of the matrix for ``weight`` is the sum, over the colors
    r with (i, r, t) small admissible, of weight(r, i, t) <J_r> in k_p.
    Each <J_r> is reduced once, and only for the colors some sum reaches:
    a color beyond them can cost minutes of colored bracket.
    """
    brackets = {}
    out = [[[None] * len(right) for _ in left] for _ in weights]
    for a, i in enumerate(left):
        for b, t in enumerate(right):
            accs = [CycloElem.zero(p)] * len(weights)
            for r in cd.colors():
                if not cd.small(i, r, t):
                    continue
                if r not in brackets:
                    brackets[r] = reduce_to_kp(s.colored(r), p)
                for w, weight in enumerate(weights):
                    accs[w] = accs[w] + weight(r, i, t) * brackets[r]
            for w, acc in enumerate(accs):
                out[w][a][b] = acc
    return out


def _twist(p, power=1):
    """The weight (r, i, t) -> full_twist(r, i, t)^power in k_p."""
    return lambda r, i, t: reduce_to_kp(full_twist(r, i, t) ** power, p)


def _pattern_product(left, right, diag, beta, ring):
    """beta * left * diag(diag) * right^T over k_p."""
    rows = []
    for li in left:
        scaled = [x * d for x, d in zip(li, diag)]
        row = []
        for rj in right:
            acc = ring.zero
            for x, y in zip(scaled, rj):
                acc = acc + x * y
            row.append(acc * beta)
        rows.append(row)
    return RingMatrix(ring, rows)


def general_L_matrix(j_ref, p, cd=None):
    """L(J): pairing matrix of the e-basis through the doubled pattern.

    For J = U the printed small-admissible sum; otherwise the same sum
    with the channel loop replaced by the channel-colored bracket of J
    (verified against the level-5 closed form in the test suite).
    """
    cd = cd or ColorData.at(p)
    basis = range(constants(p).n)
    lm, = _channel_sums(_scalars(j_ref), p, cd, basis, basis, _twist(p))
    return RingMatrix(kp_field(p), lm)


def general_B_matrix(j_ref, k, p, cd=None):
    """B(J, k): the twisted side of the general doubled-pattern pairing.

    The sum over the pattern channel s carries <e_s> and <e_s>^-1,
    which cancel, so B = beta U diag(mu(s)^(2k+1)) W^T with
    U[i, s] = sum_r ft(r, i, s) <J_r> and W[j, s] = sum_r ft(r, j, s)^k <J_r>.
    """
    cd = cd or ColorData.at(p)
    pack = constants(p)
    basis = range(pack.n)
    u, w = _channel_sums(_scalars(j_ref), p, cd, basis, basis,
                         _twist(p), _twist(p, k % (2 * p)))
    tw = [pack.mu[t] ** ((2 * k + 1) % (4 * p)) for t in basis]
    return _pattern_product(u, w, tw, pack.beta, kp_field(p))


def double_invariant(j_ref, k, p):
    """Z_p(D_k(J)) as a TVInvariant."""
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    if p < 1:
        raise ValueError("p >= 1")
    if p in (1, 3, 4):
        return trivial_invariant(p)
    if p == 2:
        return make_invariant(z2_matrix(j_ref, k), 2)
    if p == 5:
        return make_invariant(z5_matrix(j_ref, k), 5)
    if p == 6:
        m2 = z2_matrix(j_ref, k)
        m6 = m2.map(lambda x: map_i(x, 3), kp_field(6))
        return make_invariant(m6, 6)
    if p % 2 == 0 and (p // 2) % 2 == 1:
        return tensor_double(j_ref, k, p)
    return general_double(j_ref, k, p)


def tensor_double(j_ref, k, p):
    """Z_2p'(K) = i(Z_2(K)) (x) j(Z_p'(K)) for odd p' = p/2 >= 3."""
    ph = p // 2
    inv2 = make_invariant(z2_matrix(j_ref, k), 2)
    invh = double_invariant(j_ref, k, ph)
    ring = kp_field(p)
    g2 = inv2.flat_matrix.map(lambda x: map_i(x, ph), ring)
    gh = invh.flat_matrix.map(lambda x: map_j(x, ph), ring)
    m = g2.kron(gh)
    inv = make_invariant(m, p)
    # Gamma must agree with the composed product of the level polynomials
    gam2 = RingPoly(ring, [map_i(c, ph) for c in inv2.gamma.coeffs])
    gamh = RingPoly(ring, [map_j(c, ph) for c in invh.gamma.coeffs])
    if inv.gamma != tensor_product(gam2, gamh):
        raise InvariantCheckError(
            "tensor splitting disagrees with the composed product")
    return inv


def general_double(j_ref, k, p):
    """The general small-admissible-sum path (p >= 3)."""
    cd = ColorData.at(p)
    pack = constants(p)
    s = _scalars(j_ref)
    for c in range(pack.n):
        if reduce_to_kp(s.colored(c), p).is_zero():
            raise UnsupportedSpecialization(
                f"<J_{c}> vanishes at p={p}; the doubled-pattern pairing "
                f"is singular for J={s.name}")
    lm = general_L_matrix(j_ref, p, cd)
    bm = general_B_matrix(j_ref, k, p, cd)
    return make_invariant(_pairing_quotient(bm, lm, p), p)


def _pairing_quotient(bm, lm, p):
    """B L^-1; a singular pairing L leaves the level undefined."""
    try:
        lm_inv = inverse(lm)
    except ZeroDivisionError:
        raise UnsupportedSpecialization(
            f"the doubled-pattern pairing is singular at p={p}") from None
    return bm * lm_inv


# -- colored doubles ---------------------------------------------------------------


def _frac_to_kp(x, p):
    """Reduce a Q(A) element into the level-p field."""
    if isinstance(x, LaurentPoly):
        return reduce_to_kp(x, p)
    num = reduce_to_kp(x.num, p)
    den = reduce_to_kp(x.den, p)
    if den.is_zero():
        raise UnsupportedSpecialization(f"pole at level {p}")
    return num * den.inv()


def colored_L_matrix(j_ref, p, c, cd=None):
    """Colored pairing matrix over S(c, p); channel loops carry <J_r>."""
    cd = cd or ColorData.at(p)
    S = cd.S(c)

    def weight(r, i, j):
        coeff = LaurentFrac(full_twist(r, i, j)) / theta(r, i, j) \
            * tet(c, j, j, r, i, i)
        return _frac_to_kp(coeff, p)

    lm, = _channel_sums(_scalars(j_ref), p, cd, S, S, weight)
    return RingMatrix(kp_field(p), lm)


def colored_B_matrix(j_ref, k, p, c, cd=None):
    """The twisted side of the colored pairing, factorised like
    ``general_B_matrix``: beta T1 diag(<e_s> mu(s)^(2k+1)) C2^T over the
    pattern channels s with (c, s, s) small admissible."""
    cd = cd or ColorData.at(p)
    pack = constants(p)
    S = cd.S(c)
    chans = [t for t in range(pack.n) if cd.small(c, t, t)]
    twist_k = _twist(p, k % (2 * p))

    def first(r, i, t):
        coeff = LaurentFrac(full_twist(r, i, t)) / theta(r, i, t) \
            * tet(c, i, i, r, t, t)
        return _frac_to_kp(coeff, p)

    def second(r, j, t):
        coeff = tet(c, j, j, r, t, t) / theta(r, j, t) / theta(c, t, t)
        return _frac_to_kp(coeff, p) * twist_k(r, j, t)

    t1, c2 = _channel_sums(_scalars(j_ref), p, cd, S, chans, first, second)
    tw = [pack.bracket_e[t] * pack.mu[t] ** ((2 * k + 1) % (4 * p))
          for t in chans]
    return _pattern_product(t1, c2, tw, pack.beta, kp_field(p))


def colored_double_invariant(j_ref, k, p, c):
    """Z_p(D_k(J), c) for a good color c."""
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    if p < 3:
        raise ValueError("colored invariants start at p = 3")
    cd = ColorData.at(p)
    if c % 2 == 1:
        return make_invariant(RingMatrix(kp_field(p), []), p,
                              notes={"vanishing": "odd color"})
    if not cd.is_good(c):
        raise ColorError(f"{c} is not a good color at p={p}")
    if c == 0:
        return double_invariant(j_ref, k, p)
    if p == 5 and c == 2:
        return make_invariant(
            RingMatrix(kp_field(5), [[z5_color2_scalar(j_ref, k)]]), 5)
    s = _scalars(j_ref)
    for e in cd.S(c):
        if reduce_to_kp(s.colored(e), p).is_zero():
            raise UnsupportedSpecialization(
                f"<J_{e}> vanishes at p={p} (color-{c} pairing singular)")
    lm = colored_L_matrix(j_ref, p, c, cd)
    bm = colored_B_matrix(j_ref, k, p, c, cd)
    return make_invariant(_pairing_quotient(bm, lm, p), p)


def z5_color2_scalar(j_ref, k):
    """The level-5 color-2 scalar (A + Abar)(beta(1 + mu^(2k+1) b_k(J)) - 1).

    Derived from the branched d = 1 identity together with the level-5
    trace formula; the alternative parenthesization
    (A + Abar)(beta(1 + mu^(2k+1)) b_k(J) - 1) fails the printed color-2
    values, which the test suite records.
    """
    pack = constants(5)
    s = _scalars(j_ref)
    a = CycloElem.a_power(5, 1)
    abar = CycloElem.a_power(5, -1)
    mu = pack.mu[1]
    bk = reduce_to_kp(s.b_k(k), 5)
    one = CycloElem.one(5)
    inner = pack.beta * (one + mu ** ((2 * k + 1) % 10) * bk) - one
    return (a + abar) * inner


# -- connected sums -----------------------------------------------------------------


def connected_sum(left, right, p, outer_color=0):
    """Z_p(K1 # K2, i) from color-indexed invariants of the summands.

    ``left`` and ``right`` map colors to TVInvariants at the same p;
    the result is the block sum over pairs (j, k) with (i, j, k) small
    admissible of the tensor products of flat parts.
    """
    cd = ColorData.at(p)
    ring = kp_field(p)
    blocks = []
    gammas = []
    for j in cd.good_colors():
        for k in cd.good_colors():
            if not cd.small(outer_color, j, k):
                continue
            if j not in left or k not in right:
                raise KeyError(f"missing color blocks ({j}, {k})")
            fl = left[j].flat_matrix
            fr = right[k].flat_matrix
            if fl.rows == 0 or fr.rows == 0:
                continue
            blocks.append(fl.kron(fr))
            gammas.append(tensor_product(left[j].gamma, right[k].gamma))
    if not blocks:
        return make_invariant(RingMatrix(ring, []), p)
    m = blocks[0]
    for b in blocks[1:]:
        m = m.direct_sum(b)
    inv = make_invariant(m, p)
    gam = RingPoly.one(ring)
    for g in gammas:
        gam = gam * g
    if inv.gamma != gam:
        raise InvariantCheckError(
            "connected sum disagrees with the product of block polynomials")
    return inv


# -- cyclic covers ------------------------------------------------------------------


def s_kd(k, d):
    """The level-6 cover table: power sums of the level-2 polynomial."""
    if k % 2 == 0:
        return 1
    return {0: 2, 1: 1, 2: -1, 3: -2, 4: -1, 5: 1}[d % 6]


@dataclass
class CoverValue:
    d: int
    value: CycloElem            # <S^3(K)_d>_p with the induced structure
    sigma_d: int                # total d-signature of the double
    corrected: CycloElem        # kappa^(-3 sigma_d) - normalised value


def cover_series(j_ref, k, p, d_range):
    """<S^3(D_k(J))_d>_p for d in d_range, with signature corrections."""
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    d_max = max(d_range)
    if p in (1, 3, 4):
        vals = {d: CycloElem.one(p) for d in d_range}
    elif p % 2 == 0 and (p // 2) % 2 == 1 and p > 6:
        # tensor route: s_d(2p') = s_d(2) j(s_d(p'))
        ph = p // 2
        sub = double_invariant(j_ref, k, ph)
        ps = power_sums(sub.gamma, d_max)
        vals = {d: map_j(ps[d], ph) * s_kd(k, d) for d in d_range}
    else:
        inv = double_invariant(j_ref, k, p)
        ps = power_sums(inv.gamma, d_max)
        vals = {d: ps[d] for d in d_range}
    seifert = seifert_matrix_double(k)
    out = []
    for d in d_range:
        sig = total_signature(seifert, d)
        if sig % 2:
            raise InvariantCheckError(f"odd total signature {sig} at d={d}")
        # kappa^(-3 sigma_d) = u^(-sigma_d / 2)
        corr = vals[d] * _u_power(p, -sig // 2)
        out.append(CoverValue(d=d, value=vals[d], sigma_d=sig, corrected=corr))
    return out


def _u_power(p, e):
    u = u_element(p)
    return u ** e if e >= 0 else u.inv() ** (-e)


# -- signatures ----------------------------------------------------------------------


def seifert_matrix_double(k):
    """Genus-one Seifert matrix of the k-twisted double."""
    return ((-1, 1), (0, k))


_PI_LO = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)
_PI_HI = _PI_LO + Fraction(1, 10 ** 45)


def _cos_bounds(t):
    """Rational bounds for cos(2 pi t), 0 <= t <= 1/2 (cos decreasing)."""
    def taylor(x, rounding):
        # alternating-ish series with explicit tail bound
        term = Fraction(1)
        acc = Fraction(1)
        x2 = x * x
        for k in range(1, 40):
            term = term * x2 / ((2 * k - 1) * (2 * k))
            acc += term if k % 2 == 0 else -term
        tail = term  # |remainder| <= first dropped term for x < 12
        return acc - tail if rounding < 0 else acc + tail

    x_lo = 2 * _PI_LO * t
    x_hi = 2 * _PI_HI * t
    lo = taylor(x_hi, -1)
    hi = taylor(x_lo, +1)
    return min(lo, hi), max(lo, hi)


_NIVEN = {Fraction(0): Fraction(1), Fraction(1, 6): Fraction(1, 2),
          Fraction(1, 4): Fraction(0), Fraction(1, 3): Fraction(-1, 2),
          Fraction(1, 2): Fraction(-1)}
_NIVEN_ANGLE = {v: t for t, v in _NIVEN.items()}


@lru_cache(maxsize=None)
def _cos_cmp(t, q):
    """Exact sign of cos(2 pi t) - q for rational t, q."""
    t = t % 1
    if t > Fraction(1, 2):
        t = 1 - t
    if t in _NIVEN:
        v = _NIVEN[t]
        return (v > q) - (v < q)
    if q in _NIVEN_ANGLE:
        # cos is strictly decreasing on [0, 1/2]: compare angles exactly
        t0 = _NIVEN_ANGLE[q]
        return (t < t0) - (t > t0)
    lo, hi = _cos_bounds(t)
    if lo > q:
        return 1
    if hi < q:
        return -1
    raise ArithmeticError(
        f"cannot separate cos(2 pi {t}) from {q}; interval [{float(lo)}, {float(hi)}]")


@dataclass
class SignatureValue:
    sigma: int
    degenerate: bool


def signature_at(v, m, d):
    """Tristram-Levine signature at omega = exp(2 pi i m / d), exactly.

    For the genus-one doubling matrix the Hermitian form
    (1 - w) V + (1 - wbar) V^t has trace (k - 1) t and determinant
    -t (k t + 1) with t = 2 - 2cos(2 pi m/d) > 0, so everything reduces
    to one exact comparison of cos(2 pi m/d) against a rational.
    Degenerate omega (det = 0) get the two-sided average convention and
    are flagged.
    """
    (a, b), (c, k) = v
    if (a, b, c) != (-1, 1, 0):
        raise ValueError("signature table is specialised to the doubling matrix")
    trace_sign = (k - 1 > 0) - (k - 1 < 0)
    if k >= 0:
        # k t + 1 > 0 always, so det < 0: eigenvalues of opposite sign
        return SignatureValue(0, False)
    # k < 0: sign(k t + 1) = sign(cos(2 pi m/d) - (1 + 1/(2k)))
    kt1_sign = _cos_cmp(Fraction(m, d), 1 + Fraction(1, 2 * k))
    if kt1_sign > 0:
        return SignatureValue(0, False)
    if kt1_sign < 0:
        return SignatureValue(2 * trace_sign, False)
    return SignatureValue(trace_sign, True)


def total_signature(v, d):
    """sigma_d: sum of signatures at the d-th roots of unity (sigma_1 = 0)."""
    if d <= 1:
        return 0
    return sum(signature_at(v, m, d).sigma for m in range(1, d))


# -- branched covers -------------------------------------------------------------------


@dataclass
class BranchedValue:
    d: int
    normalized: CycloElem       # eta^-1 <K_d>_p  (kappa-grade 0)
    value: CycloElem            # <K_d>_p (grade 3; folded at p in {1,3,4})


def branched_colors(p):
    """Even colors entering the branched-cover sum at level p."""
    if p % 2 == 1:
        return [2 * i for i in range(0, (p - 3) // 2 + 1)]
    return [2 * i for i in range(0, p // 4)]


def branched_series(j_ref, k, p, d_range):
    """<(D_k(J))_d>_p from the colored power sums."""
    if p < 3:
        raise ValueError("branched covers start at p = 3")
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    pack = constants(p)
    d_max = max(d_range)
    if p in (3, 4):
        out = []
        for d in d_range:
            val = pack.eta
            out.append(BranchedValue(d=d, normalized=CycloElem.one(p),
                                     value=fold_kappa3(val)))
        return out
    if p % 2 == 0 and (p // 2) % 2 == 1 and p > 6:
        # eta_2p^-1 <K_d>_2p = s(d, k) j(eta_p'^-1 <K_d>_p')
        ph = p // 2
        sub = branched_series(j_ref, k, ph, d_range)
        out = []
        for rec in sub:
            norm = map_j(rec.normalized, ph) * s_kd(k, rec.d)
            out.append(BranchedValue(d=rec.d, normalized=norm,
                                     value=pack.eta * norm))
        return out
    series = {}
    for c in branched_colors(p):
        inv = colored_double_invariant(j_ref, k, p, c)
        if inv.flat_rank == 0:
            series[c] = None
        else:
            series[c] = power_sums(inv.gamma, d_max)
    out = []
    for d in d_range:
        acc = CycloElem.zero(p)
        for c in branched_colors(p):
            if series[c] is None:
                continue
            acc = acc + reduce_to_kp(unknot_value(c), p) * series[c][d]
        out.append(BranchedValue(d=d, normalized=acc, value=pack.eta * acc))
    return out


def branched_d1_identity(j_ref, k, p):
    """The d = 1 restriction: the colored traces weighted by <e_2i> sum to 1."""
    recs = branched_series(j_ref, k, p, [1])
    return recs[0].normalized == CycloElem.one(p)


# -- cross-checks ------------------------------------------------------------------------


def brieskorn_value(c, p):
    """<Sigma(2,3,c)>_p via the trefoil branched cover (c may be negative)."""
    if c < 0:
        rec = branched_series("U", -1, p, [abs(c)])[0]
        return rec.value.bar()
    if c == 0:
        raise ValueError("c = 0 is not a Brieskorn sphere in this family")
    return branched_series("U", -1, p, [c])[0].value


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


def witten_matrix(knot, r):
    """The torus-bundle monodromy matrices over k_2r (r >= 3).

    ``knot`` is "RT" or "F8"; entries are indexed 1 <= j, l <= r - 1 and
    carry the Gauss-sum prefactor.
    """
    p = 2 * r
    ring = kp_field(p)
    a = CycloElem.a_power(p, 1)
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
            if knot == "RT":
                phase = _neg_a_power(p, -(l * l))
            else:
                phase = _neg_a_power(p, j * j + 2 * l * l)
            row.append(pref * phase * inner)
        rows.append(row)
    return RingMatrix(ring, rows)


def _neg_a_power(p, e):
    """(-A)^e in k_p."""
    v = CycloElem.a_power(p, e)
    return -v if e % 2 else v


def witten_check(r):
    """charpoly(w_r(K)) vs Gamma_2r(K) for K in {RT, F8}."""
    out = {}
    for knot, (jref, k) in (("RT", ("U", -1)), ("F8", ("U", 1))):
        w = witten_matrix(knot, r)
        cp = normalized_charpoly(w)
        gam = double_invariant(jref, k, 2 * r).gamma
        out[knot] = (cp == gam, cp, gam)
    return out


def tau5_value(j_ref, k, d):
    """tau_5 of the branched cover (D_k(J))_d by the printed conversion.

    Evaluated numerically with v = exp(2 pi i / 40), A_10 = -v^2,
    kappa = v^3 (so kappa^6 = u holds on the nose); the branched value
    carries the structure with sigma(alpha) = 3 sigma_d.  The result is
    independent of the sigma input, which ``tau5_sigma_independent``
    demonstrates.
    """
    v = cmath.exp(2j * cmath.pi / 40)
    rec = branched_series(j_ref, k, 10, [d])[0]
    sig = total_signature(seifert_matrix_double(k), d)
    x = rec.value                     # grade-3 element of k_10
    a_val = -v * v
    val = sum(complex(c) * a_val ** i for i, c in enumerate(x.coeffs))
    val *= (v ** 3) ** x.grade
    binv = constants(10).beta.inv()
    binv_val = sum(complex(c) * a_val ** i for i, c in enumerate(binv.coeffs))
    sigma_alpha = 3 * sig
    return binv_val * v ** (-9 - 3 * sigma_alpha) * val


def tau5_sigma_independent(j_ref, k, d):
    """Evaluate the conversion at two structures; the results must agree."""
    v = cmath.exp(2j * cmath.pi / 40)
    rec = branched_series(j_ref, k, 10, [d])[0]
    x = rec.value
    sig0 = 3 * total_signature(seifert_matrix_double(k), d)
    a_val = -v * v
    binv = constants(10).beta.inv()
    binv_val = sum(complex(c) * a_val ** i for i, c in enumerate(binv.coeffs))

    def conv(sigma_shift):
        # changing the structure multiplies the raw value by kappa^shift
        val = sum(complex(c) * a_val ** i for i, c in enumerate(x.coeffs))
        val *= (v ** 3) ** (x.grade + sigma_shift)
        return binv_val * v ** (-9 - 3 * (sig0 + sigma_shift)) * val

    return conv(0), conv(8)
