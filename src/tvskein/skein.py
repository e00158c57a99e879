"""The Kauffman-bracket engine.

States of a computation are formal sums of crossingless matchings of the
current frontier, with coefficients in Z[A,A^-1].  Every event -- cup,
cap, crossing, Jones-Wenzl insertion, a Temperley-Lieb product or trace,
a closure against a mirrored matching -- is one ``splice`` against the
frontier through ``SkeinEngine.apply_block``, the one place that
resolves closed loops into factors of delta = -A^2 - A^-2.  ``splice``
is pure, so its results and the powers of delta are memoised once for
the whole process, and every engine shares them.  A linear combination
of blocks (a crossing, a projector, any TL_n element) is applied by
``SkeinEngine.insert``, which adds every term into one dict.  A knot's
colored brackets come from its braid in the fusion basis, with no cable
and no projector; the cable with a Jones-Wenzl projector is their
oracle, ``oracles.cable_colored_bracket``.

The crossing convention is fixed by the engine's twist bookkeeping:

    cross+  =  A * (identity)  +  A^-1 * (cap then cup)

so that a positive half twist acts on the two-strand through-channel by
A and a closed positive kink contributes mu = -A^3.

For a tangle word T with 2n boundary strands, ``transfer_Q`` expands
D_i u T in the matching basis (a c(n) x c(n) matrix over Z[A,A^-1]) and
``closure_B`` evaluates the closed diagrams D_i u T u m(D_j); the two
satisfy Q(T) D(n) = B(T) with D(n) the loop-counting pairing matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import InvariantCheckError, reduce_to_kp
from .diagram import (ATLAS_BRAIDS, DiagramError, KnotRef, PDCode,
                      _components, braid_closure, pd_to_braid)
from .laurent import DELTA, ONE, LaurentPoly, QFactored, bracket_e, mu_eig
from .matring import RingMatrix
from .recoupling import braid_block, factored_e, half_twist
from .rings import ZA

_A = LaurentPoly({1: 1})
_Ainv = LaurentPoly({-1: 1})


# -- crossingless matchings ------------------------------------------------


@lru_cache(maxsize=None)
def matchings(n):
    """All non-crossing perfect matchings of 2n points, lex-ordered.

    A matching is the tuple m with m[i] the partner of i; the order is
    lexicographic in m, which makes every matrix in the engine
    reproducible.
    """
    if n == 0:
        return ((),)
    res = []
    acc = {}

    def gen(segments):
        # segments: independent point runs that must match internally
        segments = [s for s in segments if s]
        if not segments:
            res.append(tuple(acc[i] for i in range(2 * n)))
            return
        seg = segments[0]
        a = seg[0]
        for idx in range(1, len(seg), 2):
            b = seg[idx]
            acc[a], acc[b] = b, a
            gen([seg[1:idx], seg[idx + 1:]] + segments[1:])
            del acc[a], acc[b]

    gen([tuple(range(2 * n))])
    return tuple(sorted(res))


def mirror_matching(m):
    """Reflect a matching of 2n points across the gluing line."""
    w = len(m)
    return tuple(w - 1 - m[w - 1 - i] for i in range(w))


# -- the splice primitive ---------------------------------------------------


def splice(state_matching, p, c_in, c_out, block):
    """Compose a planar block against frontier positions p..p+c_in-1.

    ``block`` is a matching of c_in + c_out points: 0..c_in-1 are the
    consumed frontier points (left to right), c_in.. are the produced
    points.  Returns (new_matching, closed_loop_count).

    Every strand of the result runs from one end to another, an end
    being a frontier point outside the window or a produced point; it is
    walked from its first end in the new order, through the block and the
    window, to its second.  Window points the walks miss lie on closed
    loops.
    """
    w = len(state_matching)
    stop, shift = p + c_in, c_out - c_in
    out = [None] * (w + shift)
    seen = [False] * c_in
    for s in range(w + shift):
        if out[s] is not None:
            continue
        if p <= s < p + c_out:
            k = c_in + s - p                # start at a produced point
        else:
            i = state_matching[s if s < p else s - shift]
            if not p <= i < stop:
                out[s] = t = i if i < p else i + shift
                out[t] = s
                continue
            k = i - p
            seen[k] = True
        # leave the block at point k's partner, and re-enter it through
        # the window until the strand ends
        while True:
            k = block[k]
            if k >= c_in:
                t = p + k - c_in
                break
            seen[k] = True
            i = state_matching[p + k]
            if not p <= i < stop:
                t = i if i < p else i + shift
                break
            k = i - p
            seen[k] = True
        out[s], out[t] = t, s
    loops = 0
    for k in range(c_in):
        if not seen[k]:
            loops += 1
            while not seen[k]:
                seen[k] = True
                j = state_matching[p + k] - p
                seen[j] = True
                k = block[j]
    return tuple(out), loops


_PAIR = (1, 0)                     # cap: pair the two inputs; cup: the outputs
_ID2 = (2, 3, 0, 1)                # identity on two strands
_TURN = (1, 0, 3, 2)               # cap then cup
_CROSS_TERMS = {True: ((_ID2, _A), (_TURN, _Ainv)),
                False: ((_ID2, _Ainv), (_TURN, _A))}


# The splice memo of every engine: for each (p, c_in, c_out, block), a
# matching -> (spliced matching, loop count) dict.  Like the
# ``braid_block``, theta and Tet caches it is unbounded.
_SPLICES = {}
_DELTA_POWERS = [LaurentPoly.one(), DELTA]


def _delta_power(k):
    while len(_DELTA_POWERS) <= k:
        _DELTA_POWERS.append(_DELTA_POWERS[-1] * DELTA)
    return _DELTA_POWERS[k]


class SkeinEngine:
    """Evaluate slice programs over Z[A,A^-1].

    Every engine reads and fills the process-wide splice memo and powers
    of delta, so a word splices only the (matching, block) pairs that no
    engine has met before.
    """

    def apply_block(self, states, p, c_in, c_out, block, factor=None, *,
                    out=None):
        """Splice ``block`` into every state, times ``factor``.

        The spliced states are added into the dict ``out`` when it is
        given (``insert`` sums its terms so), and ``out`` is returned.
        """
        spliced = _SPLICES.setdefault((p, c_in, c_out, block), {})
        if out is None:
            out = {}
        for m, coeff in states.items():
            hit = spliced.get(m)
            if hit is None:
                hit = spliced[m] = splice(m, p, c_in, c_out, block)
            nm, loops = hit
            val = coeff
            if factor is not None:
                val = val * factor
            if loops:
                val = val * _delta_power(loops)
            if val:
                cur = out.get(nm)
                out[nm] = val if cur is None else cur + val
        return out

    def insert(self, states, pos, n, terms):
        """Apply sum c * block over the (block, c) pairs of a TL_n element.

        Each block consumes the n frontier points from ``pos`` on and
        produces n new ones in their place; every term adds into one dict.
        """
        out = {}
        for block, coeff in terms:
            self.apply_block(states, pos, n, n, block, coeff, out=out)
        return {m: c for m, c in out.items() if c}

    def cap(self, states, pos):
        return self.apply_block(states, pos, 2, 0, _PAIR)

    def cup(self, states, pos):
        return self.apply_block(states, pos, 0, 2, _PAIR)

    def cross(self, states, pos, positive=True):
        return self.insert(states, pos, 2, _CROSS_TERMS[positive])

    def run_tokens(self, states, tokens):
        for kind, pos in tokens:
            p = pos - 1
            if kind == "cup":
                states = self.cup(states, p)
            elif kind == "cap":
                states = self.cap(states, p)
            elif kind == "cross+":
                states = self.cross(states, p, True)
            elif kind == "cross-":
                states = self.cross(states, p, False)
            else:
                raise DiagramError(f"unknown token {kind!r}")
        return states


# -- pairing matrix and transfer matrices -----------------------------------


def _close(eng, states, m):
    """Glue the mirror image of matching m onto the frontier of ``states``."""
    closed = eng.apply_block(states, 0, len(m), 0, mirror_matching(m))
    return closed.get((), LaurentPoly())


def pairing_matrix_D(n):
    """Lickorish's matrix: (i,j) entry delta^(loops of D_i glued m(D_j))."""
    eng = SkeinEngine()
    ms = matchings(n)
    return RingMatrix(ZA, [[_close(eng, {mi: LaurentPoly.one()}, mj)
                            for mj in ms] for mi in ms])


def transfer_Q(word):
    """The tangle transfer matrix Q(T) on the matching basis."""
    if word.bottom % 2:
        raise DiagramError("transfer needs an even number of strands")
    n = word.bottom // 2
    eng = SkeinEngine()
    ms = matchings(n)
    index = {m: k for k, m in enumerate(ms)}
    rows = []
    for mi in ms:
        states = eng.run_tokens({mi: LaurentPoly.one()}, word.tokens)
        row = [LaurentPoly()] * len(ms)
        for m, c in states.items():
            row[index[m]] = c
        rows.append(row)
    return RingMatrix(ZA, rows)


def closure_B(word):
    """B(T): brackets of the closed diagrams D_i u T u m(D_j)."""
    eng = SkeinEngine()
    ms = matchings(word.bottom // 2)
    rows = []
    for mi in ms:
        states = eng.run_tokens({mi: LaurentPoly.one()}, word.tokens)
        rows.append([_close(eng, states, mj) for mj in ms])
    return RingMatrix(ZA, rows)


def bracket_word(word):
    """Kauffman bracket of a closed slice word (<empty> = 1)."""
    if not word.is_closed():
        raise DiagramError("bracket needs a closed diagram")
    return SkeinEngine().run_tokens({(): LaurentPoly.one()},
                                    word.tokens).get((), LaurentPoly())


# -- planar-diagram brackets -------------------------------------------------


def bracket_pd_statesum(pd):
    """Brute-force 2^c state sum (oracle; keep c <= 14)."""
    c = len(pd.crossings)
    if c > 14:
        raise DiagramError("state-sum oracle limited to 14 crossings")
    total = LaurentPoly()
    for mask in range(1 << c):
        # an A-smoothing (a set bit) joins (a, b) and (c, d) and weighs A,
        # a B-smoothing joins (b, c) and (d, a) and weighs A^-1
        comp = _components(
            pair for k, (a, b, cc, d, _s) in enumerate(pd.crossings)
            for pair in (((a, b), (cc, d)) if mask >> k & 1
                         else ((b, cc), (d, a))))
        exp = 2 * bin(mask).count("1") - c
        loops = len(set(comp.values())) + pd.free_loops
        total = total + LaurentPoly({exp: 1}) * _delta_power(loops)
    return total


def bracket_pd(pd):
    """Kauffman bracket of a planar diagram, lowered to a closed braid."""
    return bracket_word(braid_closure(*pd_to_braid(pd)))


# -- colored brackets and knot scalars ----------------------------------------


def _exact_quotient(num, den, what):
    """num / den where the theory makes the division exact.

    An inexact division means a wrong intermediate value, so it raises
    ``InvariantCheckError``.
    """
    try:
        return num.exact_div(den)
    except ValueError as e:
        raise InvariantCheckError(f"{what}: division by {den} is not "
                                  "exact") from e


def colored_bracket(strands, gens, color):
    """<J_c>: the closure of a braid, every strand colored c, framing 0.

    A vector of the left-comb fusion basis is a label sequence a_0 = c,
    a_1, ..., a_(n-1) with each (a_(i-1), c, a_i) admissible.  sigma_1
    is diagonal, lambda(a_1); sigma_i acts on a_(i-1) by ``braid_block``
    (Kauffman-Lins 1994, ch. 10; Masbaum-Vogel 1994).  Each generator
    collects the terms of every label and sums them once, a
    ``QFactored.sum``.  The closure weighs each diagonal entry by
    <e_(a_(n-1))> and sums once, and mu(c)^-w undoes the writhe.  One
    exact division ends it; an inexact one raises
    ``InvariantCheckError``.  At c = 0 the closure is the empty diagram,
    so <J_0> = 1 with no walk.
    """
    if color < 0:
        raise DiagramError("negative color")
    if any(not 0 < abs(g) < strands for g in gens):
        raise DiagramError(f"a generator of {gens} is off {strands} strands")
    if color == 0:
        return ONE
    c = color
    labels = [(c,)]
    for _ in range(strands - 1):
        labels = [lab + (x,) for lab in labels
                  for x in range(abs(lab[-1] - c), lab[-1] + c + 1, 2)]
    last, closure = len(gens) - 1, []
    for start in labels:
        # row ``start`` of the braid's matrix, each entry one sum per
        # generator; of the last product only the diagonal entry counts
        row = {start: QFactored(1)}
        for k, g in enumerate(gens):
            i, sign = abs(g), 1 if g > 0 else -1
            out = {}
            for lab, v in row.items():
                moves = (braid_block(c, lab[i - 2], lab[i], sign)[lab[i - 1]]
                         if i > 1 else ((c, half_twist(c, lab[1]) ** sign),))
                for y, m in moves:
                    key = lab[:i - 1] + (y,) + lab[i:]
                    if k < last or key == start:
                        out.setdefault(key, []).append(v * m)
            row = {key: QFactored.sum(terms) for key, terms in out.items()}
        if start in row:
            closure.append(factored_e(start[-1]) * row[start])
    total = QFactored.sum(closure)
    w = sum(1 if g > 0 else -1 for g in gens)
    return _exact_quotient(total.num, total.den,
                           f"the {c}-colored bracket") * mu_eig(c) ** -w


class KnotScalars:
    """The bracket data a twisted double needs: the colored brackets <J_c>.

    <J> and [[J]] are the colors 1 and 2; one cache holds them all, and a
    second their images in the levels k_p.
    """

    def __init__(self, name, braid=None, colored_fn=None):
        self.name = name
        self.braid = braid
        self._colored_fn = colored_fn
        self._colored = {}
        self._level = {}

    @property
    def bracket(self):
        """<J> = <J_1>: bracket of the zero-writhe diagram."""
        return self.colored(1)

    @property
    def double0(self):
        """[[J]] = <J_2>: the 0-framed 2-cable bracket minus 1."""
        return self.colored(2)

    def colored(self, c):
        """<J_c>: the c-colored bracket of the zero-writhe diagram."""
        if c not in self._colored:
            if self._colored_fn is not None:
                self._colored[c] = self._colored_fn(c)
            else:
                self._colored[c] = colored_bracket(*self.braid, c)
        return self._colored[c]

    def at(self, c, p):
        """<J_c> in k_p, reduced once per (c, p)."""
        if (c, p) not in self._level:
            self._level[c, p] = reduce_to_kp(self.colored(c), p)
        return self._level[c, p]


_SCALAR_CACHE = {}


def knot_scalars(ref):
    """Scalars for an atlas knot, a connected sum, or a PD knot diagram."""
    if isinstance(ref, PDCode):
        if not ref.is_knot():
            raise DiagramError("knot scalars need a knot diagram, got "
                               f"{ref.component_count()} components")
        if ref not in _SCALAR_CACHE:
            _SCALAR_CACHE[ref] = KnotScalars("<pd>", braid=pd_to_braid(ref))
        return _SCALAR_CACHE[ref]
    if isinstance(ref, str):
        ref = KnotRef.parse(ref)
    if ref.symbol in _SCALAR_CACHE:
        return _SCALAR_CACHE[ref.symbol]
    if ref.is_double():
        raise DiagramError("scalars of a twisted double are not needed; "
                           "pass the companion knot")
    parts = ref.summands()
    if len(parts) == 1:
        out = KnotScalars(parts[0], braid=ATLAS_BRAIDS[parts[0]])
    else:
        # <(J1 # J2)_c> = <J1_c><J2_c> / <e_c>
        subs = [knot_scalars(p) for p in parts]

        def colored_fn(c):
            acc = subs[0].colored(c)
            for s in subs[1:]:
                acc = _exact_quotient(acc * s.colored(c), bracket_e(c),
                                      f"the {c}-colored connected sum")
            return acc

        out = KnotScalars(ref.symbol, colored_fn=colored_fn)
    _SCALAR_CACHE[ref.symbol] = out
    return out
