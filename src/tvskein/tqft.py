"""The invariant pipeline.

From a tangle word this module produces the level-free invariants
(transfer matrix, normalized characteristic polynomial Gamma, constant
term D, similarity data) and their specializations to the cyclotomic
levels k_p; from a twisted double D_k(J) it produces the level-p
invariant by one route per level: the identity at p = 1, the closed
matrix form at p = 2, and the general small-admissible doubled-pattern
sum, read as L^-1 B, at every p >= 3 (at p = 5 that is the matrix of
Prop 5.9), with each colored part read as L_c^-1 B too, so no pairing is
inverted; and from those it assembles quantum invariants of cyclic and
branched cyclic covers, exact signature bookkeeping, and the Brieskorn
sphere values.  Its cross-checks (the Prop 5.9 matrix, the tensor
splitting at p = 2p', the colored B L_c^-1 with L_c inverted, the
torus-bundle matrices, the Brieskorn period, tau_5) are in ``oracles``.

Every level-p invariant is the record of ``matring.flat_decompose``,
``TVInvariant``; the value records ``CoverValue`` and ``BranchedValue``
store only what they are made from, and read the rest from it.

Levels where the pairing matrix D(n) degenerates (p special with
respect to n) are rejected with ``UnsupportedSpecialization`` rather
than guessed at.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import (CycloElem, UnsupportedSpecialization, _shifts,
                    constants, reduce_to_kp, u_exponent)
from .diagram import DiagramError, KnotRef
from .laurent import bracket_e
from .matring import (RingMatrix, TVInvariant, berkowitz_charpoly,
                      flat_decompose, normalized_charpoly)
from .polyalg import InvariantCheckError, RingPoly, power_sums, tensor_product
from .recoupling import ColorError, qfact, tet, theta
from .rings import kp_field
from .skein import knot_scalars, transfer_Q


# -- colors -------------------------------------------------------------------


class ColorData:
    """Admissibility bookkeeping for the level-p colored theory."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self.p, self.q = p, q

    def __eq__(self, other):
        if type(other) is not ColorData:
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"ColorData(p={self.p!r}, q={self.q!r})"

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


# -- tangle invariants -----------------------------------------------------------


class TangleInvariant:
    """Level-free data of an even tangle in S^1 x S^2, from its word,
    Q(T) and Gamma(L).

    The rest is derived here: D(L) and the flat rank from Gamma, ``trace``
    (the Hoste-Przytycki image of the closed link) from Q(T), and
    ``wrapping``, the certified wrapping number 2n where Gamma has the full
    degree c(n) and n >= 2, else None.  The fields stay in ``__dict__`` (no
    slots): the checks of ``perfbench`` copy them with ``vars``.
    """

    def __init__(self, word, q_matrix, gamma):
        self.word = word
        self.q_matrix = q_matrix
        self.gamma = gamma
        self.constant_term = gamma.constant_term()
        self.flat_rank = gamma.degree()
        self.trace = q_matrix.trace()
        n = word.bottom // 2
        self.wrapping = (2 * n if n >= 2 and self.flat_rank == q_matrix.rows
                         else None)

    def __repr__(self):
        return (f"TangleInvariant(word={self.word!r}, "
                f"q_matrix={self.q_matrix!r}, gamma={self.gamma!r}, "
                f"constant_term={self.constant_term!r}, "
                f"flat_rank={self.flat_rank!r}, trace={self.trace!r}, "
                f"wrapping={self.wrapping!r})")


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
    out = TangleInvariant(word, q, normalized_charpoly(q))
    if p is None:
        return out
    if not ordinary(p, n):
        raise UnsupportedSpecialization(
            f"p={p} is special with respect to n={n}")
    dlp = reduce_to_kp(out.constant_term, p)
    if out.flat_rank > 0 and dlp.is_zero():
        raise UnsupportedSpecialization(f"D(L) vanishes at p={p}")
    ring = kp_field(p)
    qp = q.map(lambda x: reduce_to_kp(x, p), ring)
    return out, flat_decompose(qp)


# -- twisted doubles --------------------------------------------------------------


def _scalars(j_ref):
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    return knot_scalars(j_ref.symbol if hasattr(j_ref, "symbol") else j_ref)


def z2_matrix(k):
    """The level-2 transfer matrix of D_k(J), any J, on the basis {1, z}."""
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


@lru_cache(maxsize=None)
def _shifted(s, r, p):
    """Row r of the shift table of J at level p: <J_r>_p A_p^e for
    e = 0 .. 2p - 1, made on first read by shift-and-fold through
    phi_2p (``cyclo._shifts``).  <J_r> lies in Z[A^+-1], so the row is
    integral."""
    x = s.at(r, p)
    if x.den != 1:
        raise InvariantCheckError(f"<{s.name}_{r}> is not integral at p={p}")
    return tuple(CycloElem._raw(p, v, 1) for v in _shifts(p, x.num))


@lru_cache(maxsize=None)
def _channels(cd, i, t):
    """The colors r with (i, r, t) small admissible."""
    return tuple(r for r in cd.colors() if cd.small(i, r, t))


def _channel_sums(s, p, cd, left, right, weight):
    """A channel sum of the doubled pattern, as a list of rows.

    Entry (i, t) sums a term per color r with (i, r, t) small
    admissible, read from row r of the shift table (``_shifted``).  A
    plain weight gives an exponent e, any sign folded in through
    A_p^p = -1, and the term is the table entry <J_r> A_p^e itself: the
    entry is a sum of integer vectors, with no product.  A colored weight
    gives its value w in k_p, and the entry is one ``ring.dot`` of the w
    against the <J_r>.  Only the colors some sum reaches get a row: a
    color beyond them costs a colored bracket (0.17 s for F8 at 6).
    """
    dot, mod = kp_field(p).dot, 2 * p
    out = [[None] * len(right) for _ in left]
    for a, i in enumerate(left):
        for b, t in enumerate(right):
            rs = _channels(cd, i, t)
            rows = [_shifted(s, r, p) for r in rs]
            ws = [weight(r, i, t) for r in rs]
            if ws and type(ws[0]) is int:
                nums = [row[e % mod].num for row, e in zip(rows, ws)]
                out[a][b] = CycloElem._raw(p, [sum(c) for c in zip(*nums)], 1)
            else:
                out[a][b] = dot(ws, [row[0] for row in rows])
    return out


def _twist_exp(p, power=1):
    """The full twist ft^power as an exponent of A_p, for ``_channel_sums``:
    ft = mu(r) / (mu(i) mu(t)) = (-1)^(r+i+t) A^(r(r+2) - i(i+2) - t(t+2)),
    with the sign folded in as A_p^p = -1.  At (t, 0, 0) it is mu(t)^power."""
    def exp(r, i, t):
        return (power * (r * (r + 2) - i * (i + 2) - t * (t + 2))
                + p * ((r + i + t) * power % 2))
    return exp


def _twist(p, power=1):
    """The weight (r, i, t) -> ft^power in k_p, a signed monomial."""
    exp = _twist_exp(p, power)
    return lambda r, i, t: CycloElem.a_power(p, exp(r, i, t))


def general_L_matrix(j_ref, p):
    """L(J): pairing matrix of the e-basis through the doubled pattern.

    For J = U the printed small-admissible sum; otherwise the same sum
    with the channel loop replaced by the channel-colored bracket of J.
    The general route reads only whether it is nonsingular (``_pairing``);
    the test suite checks L (L^-1 B) against the printed quadruple sum B.
    """
    cd = ColorData.at(p)
    basis = range(constants(p).n)
    lm = _channel_sums(_scalars(j_ref), p, cd, basis, basis, _twist_exp(p))
    return RingMatrix(kp_field(p), lm)


def _pattern_matrix(j_ref, k, p):
    """X = diag(mu(s)^(2k+1)) W^T, so that L^-1 B(J, k) = beta X.

    The sum over the pattern channel s carries <e_s> and <e_s>^-1,
    which cancel, so B = beta U diag(mu(s)^(2k+1)) W^T with
    U[i, s] = sum_r ft(r, i, s) <J_r> and W[j, s] = sum_r ft(r, j, s)^k <J_r>.
    U is the pairing L, so Z = B L^-1 is similar to L^-1 B = beta X, and
    a twist sums only W's channels.  W = W^T (ft and small admissibility
    are symmetric in j and s), so entry (s, j) of X is the sum over r of
    <J_r> A^e with mu(s)^(2k+1) ft(r, s, j)^k = A^e: a sum of shift-table
    entries, integral, with no product.
    """
    mu_k, ft_k = _twist_exp(p, 2 * k + 1), _twist_exp(p, k)

    def weight(r, s, j):
        return mu_k(s, 0, 0) + ft_k(r, s, j)

    basis = range(constants(p).n)
    x = _channel_sums(_scalars(j_ref), p, ColorData.at(p), basis, basis,
                      weight)
    return RingMatrix(kp_field(p), x)


def double_invariant(j_ref, k, p):
    """Z_p(D_k(J)) as a TVInvariant: the identity at p = 1, the closed
    form at p = 2, and the general doubled-pattern sum at every p >= 3."""
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    if p < 1:
        raise ValueError("p >= 1")
    if p == 1:
        return flat_decompose(RingMatrix.identity(kp_field(1), 1))
    if p == 2:
        return flat_decompose(z2_matrix(k))
    return general_double(j_ref, k, p)


def general_double(j_ref, k, p):
    """The general small-admissible-sum path (p >= 3).

    X (``_pattern_matrix``) is integral, so it is flat-decomposed rather
    than Z = beta X, and the split is scaled once: with
    Gamma_X = sum c_i x^i of degree r, Gamma_Z has coefficients
    c_i beta^(r-i), D_Z = beta^r D_X, and the flat matrix is Z at r = n
    and beta M_X at r < n (the pivot columns of Z^(n-r) are those of
    X^(n-r), scaled by beta^(n-r)).
    """
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    s = _scalars(j_ref)
    for c in range(constants(p).n):
        if not s.at(c, p):
            raise UnsupportedSpecialization(
                f"<J_{c}> vanishes at p={p}; the doubled-pattern pairing "
                f"is singular for J={s.name}")
    _pairing(j_ref, p, 0)           # raises if L is singular
    x = _pattern_matrix(j_ref, k, p)
    fd = flat_decompose(x)
    r, powers = fd.flat_rank, _beta_powers(p)
    z = x * powers[1]
    gamma = RingPoly(x.ring, [c * powers[r - i]
                              for i, c in enumerate(fd.gamma.coeffs)])
    return TVInvariant(z, gamma,
                       z if r == x.rows else fd.flat_matrix * powers[1])


@lru_cache(maxsize=None)
def _beta_powers(p):
    """beta^0 .. beta^n at level p, n the size of the general matrix."""
    pack = constants(p)
    return tuple(pack.beta ** i for i in range(pack.n + 1))


@lru_cache(maxsize=None)
def _pairing(j_ref, p, c):
    """Raise unless the pairing L of color c is nonsingular at level p.
    L (``general_L_matrix``, or ``colored_L_matrix`` at c >= 2) is built
    once per (J, p, c) and never inverted, and the cache holds None once
    Berkowitz's constant term, det L up to sign, shows it nonsingular."""
    lm = colored_L_matrix(j_ref, p, c) if c else general_L_matrix(j_ref, p)
    if berkowitz_charpoly(lm).constant_term():
        return None
    raise UnsupportedSpecialization(
        f"the doubled-pattern pairing is singular at p={p}")


# -- colored doubles ---------------------------------------------------------------


def colored_L_matrix(j_ref, p, c):
    """Colored pairing matrix over S(c, p); channel loops carry <J_r>."""
    cd = ColorData.at(p)
    S = cd.S(c)
    twist = _twist(p)

    def weight(r, i, j):
        return twist(r, i, j) / theta(r, i, j, p) * tet(c, j, j, r, i, i, p)

    lm = _channel_sums(_scalars(j_ref), p, cd, S, S, weight)
    return RingMatrix(kp_field(p), lm)


def _current_scale(p, c, t):
    """D_t: column t of the first channel sum T1[i, t] = sum_r ft(r, i, t)
    Tet(c, i, i, r, t, t) / theta(r, i, t) <J_r> is D_t L_c[i, sigma(t)].
    For t in S(c), sigma(t) = t and D_t = 1, since Tet(c, i, i, r, t, t) =
    Tet(c, t, t, r, i, i).  An odd t at odd p maps term for term to
    sigma(t) = p - 2 - t under the simple current r -> p - 2 - r: ft keeps
    its value, mu(p - 2 - r) = mu(r), <J_(p-2-r)>_p = <J_r>_p (Kirby-Melvin,
    Invent. Math. 105, 1991), and theta and Tet change by one factor,
        D_t = (-1)^(c/2) [t + c/2 + 1]! [t - c/2]! / ([t]! [t + 1]!)
            = [c]! theta(c, t, t) / ([c/2]!^2 <e_t>).
    """
    if p % 2 == 0 or t % 2 == 0:
        return CycloElem.one(p)
    h = qfact(c // 2, p)
    return qfact(c, p) * theta(c, t, t, p) / (h * h * constants(p).bracket_e[t])


def colored_matrix(j_ref, k, p, c):
    """L_c^-1 B(J, k) for an even color c >= 2, formed without L_c as
    the plain double forms beta X (``_pattern_matrix``).  B = beta T1 diag(<e_t> mu(t)^(2k+1))
    C2^T over the channels t with (c, t, t) small admissible, T1 = L_c M
    with M[sigma(t), t] = D_t (``_current_scale``), and sigma is one to one
    onto S(c).  So row sigma(t) of L_c^-1 B is beta <e_t> mu(t)^(2k+1) D_t
    times column t of C2, and Z = B L_c^-1 is similar to it."""
    cd, pack = ColorData.at(p), constants(p)
    S = cd.S(c)
    # sigma^-1: s < n is its own channel; at odd p, s >= n is p - 2 - s
    chans = [s if s < pack.n else p - 2 - s for s in S]
    twist_k, mu_k = _twist(p, k % (2 * p)), _twist(p, 2 * k + 1)

    def second(r, j, t):
        return tet(c, j, j, r, t, t, p) / theta(r, j, t, p) \
            / theta(c, t, t, p) * twist_k(r, j, t)

    c2 = _channel_sums(_scalars(j_ref), p, cd, S, chans, second)
    scales = [pack.beta * pack.bracket_e[t] * mu_k(t, 0, 0)
              * _current_scale(p, c, t) for t in chans]
    return RingMatrix(kp_field(p), [[w * row[a] for row in c2]
                                    for a, w in enumerate(scales)])


def colored_double_invariant(j_ref, k, p, c):
    """Z_p(D_k(J), c) for a color 0 <= c < q; an odd color gives the
    invariant of the zero module, and any other color raises ColorError."""
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    if p < 3:
        raise ValueError("colored invariants start at p = 3")
    cd = ColorData.at(p)
    if not 0 <= c < cd.q:
        raise ColorError(f"color {c} is outside 0..{cd.q - 1} at p={p}")
    if c % 2 == 1:
        return flat_decompose(RingMatrix(kp_field(p), []))
    if c == 0:
        return double_invariant(j_ref, k, p)
    s = _scalars(j_ref)
    for e in cd.S(c):
        if not s.at(e, p):
            raise UnsupportedSpecialization(
                f"<J_{e}> vanishes at p={p} (color-{c} pairing singular)")
    _pairing(j_ref, p, c)           # raises if L_c is singular
    return flat_decompose(colored_matrix(j_ref, k, p, c))


# -- connected sums -----------------------------------------------------------------


def connected_sum(left, right, p, outer_color=0):
    """Z_p(K1 # K2, i) from color-indexed invariants of the summands.

    ``left`` and ``right`` map colors to TVInvariants at the same p;
    the result is the block sum over pairs (j, k) with (i, j, k) small
    admissible of the tensor products of flat parts.
    """
    cd = ColorData.at(p)
    if not 0 <= outer_color < cd.q:
        raise ColorError(f"color {outer_color} is outside 0..{cd.q - 1} "
                         f"at p={p}")
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
        return flat_decompose(RingMatrix(ring, []))
    m = blocks[0]
    for b in blocks[1:]:
        m = m.direct_sum(b)
    inv = flat_decompose(m)
    gam = RingPoly.one(ring)
    for g in gammas:
        gam = gam * g
    if inv.gamma != gam:
        raise InvariantCheckError(
            "connected sum disagrees with the product of block polynomials")
    return inv


# -- cyclic covers ------------------------------------------------------------------


class CoverValue:
    """<S^3(K)_d>_p with the induced structure (``value``) and the total
    d-signature ``sigma_d`` of the double; ``corrected`` is the value
    normalised by kappa^(-3 sigma_d) = u^(-sigma_d / 2)."""

    __slots__ = ("d", "value", "sigma_d")

    def __init__(self, d, value, sigma_d):
        self.d, self.value, self.sigma_d = d, value, sigma_d

    @property
    def corrected(self):
        p = self.value.p
        return self.value * CycloElem.a_power(
            p, -self.sigma_d // 2 * u_exponent(p))

    def __repr__(self):
        return (f"CoverValue(d={self.d!r}, value={self.value!r}, "
                f"sigma_d={self.sigma_d!r})")


def cover_series(j_ref, k, p, d_range):
    """<S^3(D_k(J))_d>_p for d in d_range, with signature corrections."""
    _check_cover_degrees(d_range)
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    vals = power_sums(double_invariant(j_ref, k, p).gamma, max(d_range))
    seifert = seifert_matrix_double(k)
    out = []
    for d in d_range:
        sig = total_signature(seifert, d)
        if sig % 2:
            raise InvariantCheckError(f"odd total signature {sig} at d={d}")
        out.append(CoverValue(d, vals[d], sig))
    return out


def _check_cover_degrees(d_range):
    if any(d < 1 for d in d_range):
        raise ValueError(f"cover degrees start at d = 1, got {min(d_range)}")


# -- signatures ----------------------------------------------------------------------


def seifert_matrix_double(k):
    """Genus-one Seifert matrix of the k-twisted double."""
    return ((-1, 1), (0, k))


_PI_LO = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)
_PI_HI = _PI_LO + Fraction(1, 10 ** 45)


def _cos_bounds(t):
    """Rational bounds lo <= cos(2 pi t) <= hi, 0 <= t <= 1/2.

    For every x in [2 pi_lo t, 2 pi_hi t] the Taylor term x^(2k)/(2k)!
    lies between a lower and an upper value, kept over the fixed
    denominator 2^192 and rounded outward, so the numbers stay small.
    The tail after the last term is at most that term (x < 12).
    """
    one = 1 << 192
    x2_lo = (2 * _PI_LO * t) ** 2 * one // 1            # floor
    x2_hi = -(-(2 * _PI_HI * t) ** 2 * one // 1)        # ceiling
    term_lo = term_hi = lo = hi = one
    for k in range(1, 40):
        div = (2 * k - 1) * (2 * k) * one
        term_lo = term_lo * x2_lo // div
        term_hi = -(-term_hi * x2_hi // div)
        if k % 2:
            lo, hi = lo - term_hi, hi - term_lo
        else:
            lo, hi = lo + term_lo, hi + term_hi
    return Fraction(lo - term_hi, one), Fraction(hi + term_hi, one)


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


class SignatureValue:
    __slots__ = ("sigma", "degenerate")

    def __init__(self, sigma, degenerate):
        self.sigma, self.degenerate = sigma, degenerate

    def __repr__(self):
        return (f"SignatureValue(sigma={self.sigma!r}, "
                f"degenerate={self.degenerate!r})")


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
    """sigma_d: sum of signatures at the d-th roots of unity (sigma_1 = 0).

    The term at m is zero exactly when cos(2 pi m/d) lies above a
    constant (see signature_at), and the cosine decreases on
    1 <= m <= d/2, so bisection finds the first nonzero term lo with
    O(log d) comparisons.  Further on the cosine lies strictly below the
    constant and the terms are equal; m and d - m give the same term.
    """
    half = d // 2
    lo, hi = 1, half + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if signature_at(v, mid, d).sigma:
            hi = mid
        else:
            lo = mid + 1
    if lo > half:
        return 0
    first = signature_at(v, lo, d).sigma
    if 2 * lo == d:
        return first
    inner = d - 2 * lo - 1          # the m strictly between lo and d - lo
    rest = signature_at(v, lo + 1, d).sigma if inner else 0
    return 2 * first + inner * rest


# -- branched covers -------------------------------------------------------------------


class BranchedValue:
    """<K_d>_p = value * kappa^kappa, from eta^-1 <K_d>_p (``normalized``).

    ``value`` is the A-part beta * normalized, an element of Q(A_p), and
    both it and the kappa exponent are read from ``constants(p)``: the
    exponent is 3, or 0 at p in {1, 3, 4}, where u = 1 and kappa^3 folds
    into ``value`` as the sign ``kappa3_fold``.  This is the one quantity
    of the pipeline whose kappa-grade is not 0.
    """

    __slots__ = ("d", "normalized")

    def __init__(self, d, normalized):
        self.d, self.normalized = d, normalized

    @property
    def value(self):
        pack = constants(self.normalized.p)
        value = pack.beta * self.normalized
        return value if pack.kappa3_fold is None else value * pack.kappa3_fold

    @property
    def kappa(self):
        return 3 if constants(self.normalized.p).kappa3_fold is None else 0

    def bar(self):
        """The value of the mirror: A -> A^-1 and kappa -> kappa^-1.
        eta = beta kappa^3 is bar-invariant, so the mirror's record is
        that of the barred ``normalized``."""
        return BranchedValue(self.d, self.normalized.bar())

    def __str__(self):
        return (f"({self.value.apart_str()}) * kappa^{self.kappa} "
                f"@ p={self.normalized.p}")

    def __repr__(self):
        return (f"BranchedValue(d={self.d!r}, "
                f"normalized={self.normalized!r})")


def branched_series(j_ref, k, p, d_range):
    """<(D_k(J))_d>_p from the colored power sums."""
    if p < 3:
        raise ValueError("branched covers start at p = 3")
    _check_cover_degrees(d_range)
    if isinstance(j_ref, str):
        j_ref = KnotRef.parse(j_ref)
    d_max = max(d_range)
    series = {}
    for c in ColorData.at(p).good_colors():
        if c % 2:
            continue
        inv = colored_double_invariant(j_ref, k, p, c)
        if inv.flat_rank:
            series[c] = power_sums(inv.gamma, d_max)
    loops = [reduce_to_kp(bracket_e(c), p) for c in series]
    return [BranchedValue(d, kp_field(p).dot(loops,
                                             [s[d] for s in series.values()]))
            for d in d_range]


# -- Brieskorn spheres -----------------------------------------------------------


def brieskorn_value(c, p):
    """<Sigma(2,3,c)>_p via the trefoil branched cover (c may be negative),
    as a ``BranchedValue``."""
    if c < 0:
        return branched_series("U", -1, p, [-c])[0].bar()
    if c == 0:
        raise ValueError("c = 0 is not a Brieskorn sphere in this family")
    return branched_series("U", -1, p, [c])[0]
