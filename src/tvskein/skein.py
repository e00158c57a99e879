"""The Kauffman-bracket engine.

States of a computation are formal sums of crossingless matchings of the
current frontier, with Laurent-polynomial coefficients.  Every event --
cup, cap, crossing, or Jones-Wenzl insertion -- is one application of a
planar splice against the frontier, resolving closed loops into factors
of delta = -A^2 - A^-2.

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

from fractions import Fraction
from functools import lru_cache

from .diagram import DiagramError, PDCode, SliceWord, cable_word, normalize_writhe
from .laurent import DELTA, LaurentPoly

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


def catalan(n):
    from math import comb
    return comb(2 * n, n) // (n + 1)


def mirror_matching(m):
    """Reflect a matching of 2n points across the gluing line."""
    w = len(m)
    return tuple(w - 1 - m[w - 1 - i] for i in range(w))


def glue_loops(m1, m2):
    """Number of closed loops when matchings m1 and m2 are glued."""
    w = len(m1)
    seen = [False] * w
    loops = 0
    for start in range(w):
        if seen[start]:
            continue
        loops += 1
        i = start
        while not seen[i]:
            seen[i] = True
            j = m1[i]
            seen[j] = True
            i = m2[j]
    return loops


# -- the splice primitive ---------------------------------------------------


def splice(state_matching, p, c_in, c_out, block):
    """Compose a planar block against frontier positions p..p+c_in-1.

    ``block`` is a matching of c_in + c_out points: 0..c_in-1 are the
    consumed frontier points (left to right), c_in.. are the produced
    points.  Returns (new_matching, closed_loop_count).
    """
    w = len(state_matching)
    outside = [i for i in range(w) if not p <= i < p + c_in]

    def new_index(node):
        kind, v = node
        if kind == "F":
            return v if v < p else v - c_in + c_out
        return p + v  # output j

    # edges
    def m_edge(i):
        return state_matching[i]

    def block_edge(k):
        # k indexes the block point (0..c_in+c_out-1); returns partner
        return block[k]

    visited_f = [False] * w
    visited_out = [False] * c_out
    pairs = {}

    def is_block_f(i):
        return p <= i < p + c_in

    # endpoints: outside frontier points and output points
    endpoints = [("F", i) for i in outside] + [("N", j) for j in range(c_out)]
    for node in endpoints:
        kind, v = node
        if kind == "F" and visited_f[v]:
            continue
        if kind == "N" and visited_out[v]:
            continue
        # walk the path
        if kind == "F":
            visited_f[v] = True
            cur = ("m", v)
        else:
            visited_out[v] = True
            cur = ("b", c_in + v)
        while True:
            if cur[0] == "m":
                nxt = m_edge(cur[1])
                visited_f[nxt] = True
                if is_block_f(nxt):
                    cur = ("b", nxt - p)
                else:
                    end = ("F", nxt)
                    break
            else:
                nxt = block_edge(cur[1])
                if nxt >= c_in:
                    visited_out[nxt - c_in] = True
                    end = ("N", nxt - c_in)
                    break
                visited_f[p + nxt] = True
                cur = ("m", p + nxt)
        a, b = new_index(node), new_index(end)
        pairs[a] = b
        pairs[b] = a
    loops = 0
    for i in range(c_in):
        if not visited_f[p + i]:
            # trace the closed cycle
            loops += 1
            cur = p + i
            while not visited_f[cur]:
                visited_f[cur] = True
                j = m_edge(cur)
                visited_f[j] = True
                nb = block_edge(j - p)
                cur = p + nb
    new_w = w - c_in + c_out
    return tuple(pairs[i] for i in range(new_w)), loops


_CAP = (1, 0)                      # block for cap: pair the two inputs
_CUP = (1, 0)                      # block for cup: pair the two outputs
_ID2 = (2, 3, 0, 1)                # identity on two strands
_TURN = (1, 0, 3, 2)               # cap then cup


class SkeinEngine:
    """Evaluate slice programs over a coefficient ring."""

    def __init__(self, ring=None, delta=None, a=None, a_inv=None):
        if ring is None:
            from .rings import ZA
            ring = ZA
        self.ring = ring
        self.delta = delta if delta is not None else ring.coerce(DELTA)
        self.a = a if a is not None else ring.coerce(_A)
        self.a_inv = a_inv if a_inv is not None else ring.coerce(_Ainv)

    def _merge(self, states, matching, coeff):
        cur = states.get(matching)
        states[matching] = coeff if cur is None else cur + coeff

    def apply_block(self, states, p, c_in, c_out, block, factor=None):
        out = {}
        for m, coeff in states.items():
            nm, loops = splice(m, p, c_in, c_out, block)
            val = coeff
            if factor is not None:
                val = val * factor
            for _ in range(loops):
                val = val * self.delta
            if not _zero(val):
                self._merge(out, nm, val)
        return out

    def cap(self, states, pos):
        return self.apply_block(states, pos, 2, 0, _CAP)

    def cup(self, states, pos):
        return self.apply_block(states, pos, 0, 2, _CUP)

    def cross(self, states, pos, positive=True):
        ident = self.apply_block(states, pos, 2, 2, _ID2,
                                 self.a if positive else self.a_inv)
        turn = self.apply_block(states, pos, 2, 2, _TURN,
                                self.a_inv if positive else self.a)
        for m, c in turn.items():
            self._merge(ident, m, c)
        return {m: c for m, c in ident.items() if not _zero(c)}

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

    def run_word(self, word, start=None):
        states = start or {tuple(): self.ring.one}
        return self.run_tokens(states, word.tokens)


def _zero(x):
    z = getattr(x, "is_zero", None)
    return z() if callable(z) else not x


# -- pairing matrix and transfer matrices -----------------------------------


def pairing_matrix_D(n, ring=None):
    """Lickorish's matrix: (i,j) entry delta^(loops of D_i glued m(D_j))."""
    from .matring import RingMatrix
    from .rings import ZA
    ring = ring or ZA
    delta = ring.coerce(DELTA)
    ms = matchings(n)
    rows = []
    for mi in ms:
        row = []
        for mj in ms:
            loops = glue_loops(mi, mirror_matching(mj))
            val = ring.one
            for _ in range(loops):
                val = val * delta
            row.append(val)
        rows.append(row)
    return RingMatrix(ring, rows)


def transfer_Q(word, ring=None):
    """The tangle transfer matrix Q(T) on the matching basis."""
    from .matring import RingMatrix
    from .rings import ZA
    ring = ring or ZA
    if word.bottom % 2:
        raise DiagramError("transfer needs an even number of strands")
    n = word.bottom // 2
    eng = SkeinEngine(ring)
    ms = matchings(n)
    index = {m: k for k, m in enumerate(ms)}
    rows = []
    for mi in ms:
        states = eng.run_tokens({mi: ring.one}, word.tokens)
        row = [ring.zero] * len(ms)
        for m, c in states.items():
            row[index[m]] = c
        rows.append(row)
    return RingMatrix(ring, rows)


def closure_B(word, ring=None):
    """B(T): brackets of the closed diagrams D_i u T u m(D_j)."""
    from .matring import RingMatrix
    from .rings import ZA
    ring = ring or ZA
    n = word.bottom // 2
    eng = SkeinEngine(ring)
    ms = matchings(n)
    delta = ring.coerce(DELTA)
    rows = []
    for mi in ms:
        states = eng.run_tokens({mi: ring.one}, word.tokens)
        row = []
        for mj in ms:
            mjm = mirror_matching(mj)
            acc = ring.zero
            for m, c in states.items():
                loops = glue_loops(m, mjm)
                val = c
                for _ in range(loops):
                    val = val * delta
                acc = acc + val
            row.append(acc)
        rows.append(row)
    return RingMatrix(ring, rows)


def bracket_word(word, ring=None):
    """Kauffman bracket of a closed slice word (<empty> = 1)."""
    from .rings import ZA
    ring = ring or ZA
    if not word.is_closed():
        raise DiagramError("bracket needs a closed diagram")
    eng = SkeinEngine(ring)
    states = eng.run_word(word)
    return states.get((), ring.zero)


# -- planar-diagram brackets -------------------------------------------------


def bracket_pd_statesum(pd, ring=None):
    """Brute-force 2^c state sum (oracle; keep c <= 14)."""
    from .rings import ZA
    ring = ring or ZA
    c = len(pd.crossings)
    if c > 14:
        raise DiagramError("state-sum oracle limited to 14 crossings")
    delta = ring.coerce(DELTA)
    total = ring.zero
    for mask in range(1 << c):
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(x, y):
            parent.setdefault(x, x)
            parent.setdefault(y, y)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        exp = 0
        for k, (a, b, cc, d, _s) in enumerate(pd.crossings):
            if mask >> k & 1:          # A-smoothing joins (a,b), (c,d)
                exp += 1
                union(a, b)
                union(cc, d)
            else:                       # B-smoothing joins (b,c), (d,a)
                exp -= 1
                union(b, cc)
                union(d, a)
        arcs = {x for cr in pd.crossings for x in cr[:4]}
        loops = len({find(x) for x in arcs}) + pd.free_loops
        term = ring.coerce(LaurentPoly({exp: 1}))
        for _ in range(loops):
            term = term * delta
        total = total + term
    return total


def pd_to_word(pd):
    """Convert a planar diagram to a closed slice word by a greedy sweep.

    Places one crossing at a time, always attaching along a contiguous
    run of open arcs; backtracks over placement orders when the greedy
    choice gets stuck.  Raises DiagramError if no sweep is found.
    """
    if not pd.crossings:
        toks = []
        for _ in range(pd.free_loops):
            toks += [("cup", 1), ("cap", 1)]
        return SliceWord(0, tuple(toks))

    n = len(pd.crossings)

    def attempt(order):
        tokens = []
        frontier = []              # open arc labels on the disk boundary

        def rotate_to(r):
            # the frontier lives on a circle; rotating the basepoint is free
            nonlocal frontier
            r %= max(len(frontier), 1)
            if r:
                tokens.append(("rot", r, len(frontier)))
                frontier = frontier[r:] + frontier[:r]

        for ci in order:
            a, b, c, d, _s = pd.crossings[ci]
            slots = [a, b, c, d]
            # which slots attach: arcs already on frontier
            attach = [k for k in range(4)
                      if slots[k] in frontier and slots.count(slots[k]) == 1]
            # pick a contiguous ccw run of slots to attach
            k_down = len(attach)
            placed = False
            for rot in range(4):
                run = [(rot + t) % 4 for t in range(k_down)]
                if sorted(run) != sorted(attach):
                    continue
                # ccw down-slots must meet the boundary circle left to right
                pos = [frontier.index(slots[k]) for k in run]
                w = len(frontier)
                if not pos:
                    continue
                if any((pos[t] - pos[0]) % w != t for t in range(k_down)):
                    continue
                if pos[0] + k_down > w:
                    rotate_to(pos[0])
                    p = 0
                else:
                    p = pos[0]
                up = [(rot + k_down + t) % 4 for t in range(4 - k_down)]
                up_arcs = list(reversed([slots[k] for k in up]))
                tokens.append(("pd-cross", p, k_down, run[0]))
                frontier[p:p + k_down] = up_arcs
                placed = True
                break
            if not placed:
                if k_down == 0 and not frontier:
                    # start a fresh region
                    tokens.append(("pd-cross", 0, 0, 0))
                    frontier[0:0] = list(reversed([slots[k] for k in range(4)]))
                    placed = True
                else:
                    return None
            # close arcs whose both ends are now open (cyclically adjacent)
            changed = True
            while changed:
                changed = False
                w = len(frontier)
                for i in range(w):
                    j = (i + 1) % w
                    if w >= 2 and frontier[i] == frontier[j]:
                        if j == 0:
                            rotate_to(i)
                            i, j = 0, 1
                        tokens.append(("cap", i + 1))
                        del frontier[i:i + 2]
                        changed = True
                        break
            # a same-arc pair stuck apart is a failed embedding
            from collections import Counter
            cnt = Counter(frontier)
            if any(v > 1 for v in cnt.values()):
                return None
        if frontier:
            return None
        return tokens

    import itertools
    orders = [list(range(n))]
    tried = 0
    best = attempt(orders[0])
    if best is None:
        for perm in itertools.permutations(range(n)):
            tried += 1
            if tried > 50000:
                break
            best = attempt(list(perm))
            if best is not None:
                break
    if best is None:
        raise DiagramError("no planar sweep found for this diagram")
    # expand pd-cross pseudo-tokens into cup/cap/cross via smoothing blocks
    return _expand_pd_tokens(best, pd)


def _expand_pd_tokens(tokens, pd):
    """Lower pd-cross pseudo-tokens into an evaluable program.

    A placed crossing becomes one generalised event; the engine handles
    it directly, so here we only repackage.
    """
    return _PDProgram(tokens, pd.free_loops)


class _PDProgram:
    """Internal: a swept planar diagram ready for evaluation."""

    def __init__(self, tokens, free_loops):
        self.tokens = tokens
        self.free_loops = free_loops


def bracket_pd(pd, ring=None):
    """Kauffman bracket of a planar diagram via the sweep engine."""
    from .rings import ZA
    ring = ring or ZA
    prog = pd_to_word(pd)
    if isinstance(prog, SliceWord):
        return bracket_word(prog, ring)
    eng = SkeinEngine(ring)
    states = {tuple(): ring.one}
    for tok in prog.tokens:
        if tok[0] == "cap":
            states = eng.cap(states, tok[1] - 1)
        elif tok[0] == "rot":
            _, r, w = tok
            states = {_rotate_matching(m, r): c for m, c in states.items()}
        else:
            _, p, k_down, rot0 = tok
            states = _apply_pd_cross(eng, states, p, k_down, rot0)
    val = states.get((), ring.zero)
    for _ in range(prog.free_loops):
        val = val * eng.delta
    return val


def _rotate_matching(m, r):
    """Rotate the disk-boundary basepoint: position i becomes i - r."""
    w = len(m)
    if not w:
        return m
    r %= w
    return tuple((m[(i + r) % w] - r) % w for i in range(w))


def _apply_pd_cross(eng, states, p, k_down, rot0):
    """Apply a swept crossing: A and B smoothings as planar blocks.

    Slots 0..3 are the PD positions (ccw from incoming under); the
    attached run is rot0..rot0+k_down-1 (mod 4), appearing reversed on
    the frontier at positions p..p+k_down-1.  The A-smoothing joins
    slots (0,1) and (2,3); B joins (1,2) and (3,0).
    """
    down = [(rot0 + t) % 4 for t in range(k_down)]
    up = [(rot0 + k_down + t) % 4 for t in range(4 - k_down)]
    # ccw down-slots sit left to right; ccw up-slots emerge right to left
    slot_to_block = {}
    for t, s in enumerate(down):
        slot_to_block[s] = t
    for t, s in enumerate(up):
        slot_to_block[s] = k_down + (4 - k_down - 1 - t)
    out = None
    for pairs, factor in ((((0, 1), (2, 3)), eng.a),
                          (((1, 2), (3, 0)), eng.a_inv)):
        block = [None] * 4
        for x, y in pairs:
            bx, by = slot_to_block[x], slot_to_block[y]
            block[bx] = by
            block[by] = bx
        res = eng.apply_block(states, p, k_down, 4 - k_down, tuple(block), factor)
        if out is None:
            out = res
        else:
            for m, c in res.items():
                eng._merge(out, m, c)
    return {m: c for m, c in out.items() if not _zero(c)}


# -- colored brackets and knot scalars ----------------------------------------


def colored_bracket(word, color):
    """Bracket of a closed word with its component colored ``color``.

    The component is replaced by ``color`` parallel copies with one
    Jones-Wenzl projector inserted; the result is an exact Laurent
    polynomial (the projector denominators cancel in closed diagrams
    of this shape only after the final division, which is checked).
    """
    from .recoupling import WebEngine

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
    eng = WebEngine()
    states = {tuple(): eng.ring.one}
    states = eng.run_tokens(states, cab.tokens[:first])
    states = eng.proj(states, 0, color)
    states = eng.run_tokens(states, cab.tokens[first:])
    return eng.value(states).as_laurent()


class KnotScalars:
    """The bracket data a twisted double needs: <J>, [[J]], b_k, colored."""

    def __init__(self, name, word=None, bracket=None, double0=None,
                 colored_fn=None):
        self.name = name
        self.word = word
        self._bracket = bracket
        self._double0 = double0
        self._colored_fn = colored_fn
        self._colored = {}

    @property
    def bracket(self):
        """<J>: bracket of the zero-writhe diagram."""
        if self._bracket is None:
            self._bracket = bracket_word(self.word)
        return self._bracket

    @property
    def double0(self):
        """[[J]] = c_0(J) - 1, the reduced 2-cable bracket."""
        if self._double0 is None:
            c0 = bracket_word(cable_word(self.word, 2, 0))
            self._double0 = c0 - LaurentPoly.one()
        return self._double0

    def c_k(self, k):
        """c_k(J) = A^(8k) [[J]] + 1."""
        return LaurentPoly({8 * k: 1}) * self.double0 + LaurentPoly.one()

    def b_k(self, k):
        """b_k(J) = A^(2k) [[J]] + A^(-6k)."""
        return LaurentPoly({2 * k: 1}) * self.double0 + LaurentPoly({-6 * k: 1})

    def colored(self, c):
        """<J_c>: the c-colored bracket of the zero-writhe diagram."""
        if c not in self._colored:
            if self._colored_fn is not None:
                self._colored[c] = self._colored_fn(c)
            else:
                self._colored[c] = colored_bracket(self.word, c)
        return self._colored[c]


_SCALAR_CACHE = {}


def knot_scalars(ref):
    """Scalars for an atlas knot, a connected sum, or a raw diagram."""
    from .diagram import ATLAS_WORDS, KnotRef
    from .laurent import bracket_e

    if isinstance(ref, SliceWord):
        if not ref.is_closed():
            raise DiagramError("knot scalars need a closed diagram")
        return KnotScalars("<word>", word=ref)
    if isinstance(ref, PDCode):
        pd0, _ = normalize_writhe(ref)
        word = pd_to_word(pd0)
        if not isinstance(word, SliceWord):
            raise DiagramError("diagram could not be swept to a slice word")
        return KnotScalars("<pd>", word=word)
    if isinstance(ref, str):
        ref = KnotRef.parse(ref)
    if ref.symbol in _SCALAR_CACHE:
        return _SCALAR_CACHE[ref.symbol]
    if ref.is_double():
        raise DiagramError("scalars of a twisted double are not needed; "
                           "pass the companion knot")
    parts = ref.summands()
    if len(parts) == 1:
        if parts[0] == "U":
            out = KnotScalars("U", word=ATLAS_WORDS["U"],
                              colored_fn=lambda c: bracket_e(c))
            _SCALAR_CACHE["U"] = out
            return out
        out = KnotScalars(parts[0], word=ATLAS_WORDS[parts[0]])
        _SCALAR_CACHE[parts[0]] = out
        return out
    subs = [knot_scalars(p) for p in parts]
    br = subs[0].bracket
    dd = subs[0].double0
    for s in subs[1:]:
        br = (br * s.bracket).exact_div(DELTA)
        dd = (dd * s.double0).exact_div(DELTA * DELTA - LaurentPoly.one())

    def colored_fn(c):
        acc = subs[0].colored(c)
        for s in subs[1:]:
            acc = (acc * s.colored(c)).exact_div(bracket_e(c))
        return acc

    out = KnotScalars(ref.symbol, bracket=br, double0=dd,
                      colored_fn=colored_fn)
    _SCALAR_CACHE[ref.symbol] = out
    return out


def scalars_from_kauffman(f_terms):
    """<J> and [[J]] from an externally supplied Kauffman polynomial.

    ``f_terms`` maps (a-exponent, z-exponent) to integer coefficients of
    F_J(a, z), normalised to 1 on the unknot.  The two substitutions are
      <J>   = ((a + a^-1)/z - 1) F_J  at  a = -A^3,    z = A + A^-1
      [[J]] = -((a + a^-1)/z - 1) F_J at  a = -i A^8,  z = i(A^4 - A^-4)
    and both results are certified to land in Z[A, A^-1].  A negative
    z-exponent (which a knot's F_J does not have) raises ValueError.
    """
    from fractions import Fraction as _F

    if any(j < 0 for _, j in f_terms):
        raise ValueError("negative z-exponent in a knot's Kauffman polynomial")

    class _G:
        """Gaussian-rational coefficient: re + im*i."""

        __slots__ = ("re", "im")

        def __init__(self, re=0, im=0):
            self.re, self.im = _F(re), _F(im)

        def __add__(self, o):
            o = o if isinstance(o, _G) else _G(o)
            return _G(self.re + o.re, self.im + o.im)

        __radd__ = __add__

        def __neg__(self):
            return _G(-self.re, -self.im)

        def __sub__(self, o):
            o = o if isinstance(o, _G) else _G(o)
            return _G(self.re - o.re, self.im - o.im)

        def __rsub__(self, o):
            return _G(o) - self

        def __mul__(self, o):
            o = o if isinstance(o, _G) else _G(o)
            return _G(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

        __rmul__ = __mul__

        def __truediv__(self, o):
            o = o if isinstance(o, _G) else _G(o)
            n = o.re * o.re + o.im * o.im
            return _G((self.re * o.re + self.im * o.im) / n,
                      (o.re * self.im - self.re * o.im) / n)

        def __eq__(self, o):
            o = o if isinstance(o, _G) else _G(o)
            return self.re == o.re and self.im == o.im

        def __bool__(self):
            return bool(self.re or self.im)

        def __hash__(self):
            return hash((self.re, self.im))

        def __lt__(self, o):
            return False

        def __abs__(self):
            return self

        def __str__(self):
            return f"{self.re}+{self.im}i"

    def substitute(a_val, z_val):
        # evaluate ((a+a^-1)/z - 1) * F at Laurent values over Gaussian coeffs
        a_inv = LaurentPoly({-e: c for e, c in a_val.terms.items()})
        # a_val is a Gaussian-coefficient monomial: invert directly
        (ea, ca), = a_val.terms.items()
        a_inv = LaurentPoly({-ea: _G(1) / ca})
        acc = LaurentPoly()
        for (i, j), coeff in f_terms.items():
            term = LaurentPoly({0: _G(coeff)})
            base = a_val if i >= 0 else a_inv
            for _ in range(abs(i)):
                term = term * base
            for _ in range(j):
                term = term * z_val
            acc = acc + term
        pref = (a_val + a_inv).exact_div(z_val) - LaurentPoly({0: _G(1)})
        return pref * acc

    mu3 = LaurentPoly({3: _G(-1)})
    z1 = LaurentPoly({1: _G(1), -1: _G(1)})
    br = substitute(mu3, z1)
    a2 = LaurentPoly({8: _G(0, -1)})
    z2 = LaurentPoly({4: _G(0, 1), -4: _G(0, -1)})
    dd = -substitute(a2, z2)

    def to_rational(p):
        out = {}
        for e, c in p.terms.items():
            if c.im != 0:
                raise ValueError("Kauffman substitution left an imaginary part")
            out[e] = c.re
        return LaurentPoly(out)

    return to_rational(br), to_rational(dd)
