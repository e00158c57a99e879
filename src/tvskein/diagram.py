"""Combinatorial encodings of tangles and knot diagrams.

A ``SliceWord`` encodes a tangle in a strip as a sequence of elementary
events read left to right: ``cup i`` inserts a matched pair of strands at
position i, ``cap i`` joins strands i and i+1, and ``cross+ i`` /
``cross- i`` cross them.  Words with equal start and end width close up
around the S^1 factor to tangles in S^1 x S^2; words from width 0 to 0
are closed diagrams in the 2-sphere.

``PDCode`` carries planar-diagram data: one 4-tuple of arc labels per
crossing, listed counterclockwise starting at the incoming understrand,
plus the crossing sign.  Crossingless unknot components are tracked
separately in ``free_loops``.  ``pd_to_braid`` lowers a PD code to a
closed braid, which ``braid_closure`` turns into a slice word.

The atlas fixes the knots the twisted-double pipeline quotes by symbol:
U, RT, LT, F8 and connected sums, each backed by a braid.
"""

from __future__ import annotations

import json
import re

from .cyclo import InvariantCheckError


class DiagramError(ValueError):
    """Malformed slice word or planar diagram data."""


TOKEN_KINDS = ("cup", "cap", "cross+", "cross-")


class SliceWord:
    """Tangle in a strip: bottom width and an event list."""

    __slots__ = ("bottom", "tokens")

    def __init__(self, bottom, tokens):
        self.bottom, self.tokens = bottom, tokens
        if bottom < 0 or bottom % 2:
            raise DiagramError(f"bottom width must be even and >= 0, got {bottom}")
        w = bottom
        for t, (kind, pos) in enumerate(tokens):
            if kind == "cup":
                if not 1 <= pos <= w + 1:
                    raise DiagramError(
                        f"token {t}: cup {pos} out of range at width {w}")
                w += 2
            elif kind == "cap":
                if not 1 <= pos <= w - 1:
                    raise DiagramError(
                        f"token {t}: cap {pos} out of range at width {w}")
                w -= 2
            elif kind in ("cross+", "cross-"):
                if not 1 <= pos <= w - 1:
                    raise DiagramError(
                        f"token {t}: {kind} {pos} needs two strands at width {w}")
            else:
                raise DiagramError(f"token {t}: unknown kind {kind!r}")
        if w != bottom:
            raise DiagramError(
                f"final width {w} differs from bottom width {bottom}")

    def __eq__(self, other):
        if type(other) is not SliceWord:
            return NotImplemented
        return (self.bottom, self.tokens) == (other.bottom, other.tokens)

    def __hash__(self):
        return hash((self.bottom, self.tokens))

    def __repr__(self):
        return f"SliceWord(bottom={self.bottom!r}, tokens={self.tokens!r})"

    # -- derived data ---------------------------------------------------

    def widths(self):
        """Width after each token (length = len(tokens) + 1)."""
        w = self.bottom
        out = [w]
        for kind, _ in self.tokens:
            if kind == "cup":
                w += 2
            elif kind == "cap":
                w -= 2
            out.append(w)
        return out

    def crossing_count(self):
        return sum(1 for k, _ in self.tokens if k.startswith("cross"))

    def max_width(self):
        return max(self.widths())

    def is_closed(self):
        return self.bottom == 0

    # -- operations -----------------------------------------------------

    def mirror(self):
        """Swap all crossings (the diagram of the mirror image)."""
        swap = {"cross+": "cross-", "cross-": "cross+"}
        return SliceWord(self.bottom, tuple(
            (swap.get(k, k), p) for k, p in self.tokens))

    def cyclic_shift(self, t):
        """Rotate the word at token boundary t (width there must match)."""
        if self.widths()[t] != self.bottom:
            raise DiagramError(f"width at token {t} differs from boundary")
        return SliceWord(self.bottom, self.tokens[t:] + self.tokens[:t])

    def shift_points(self):
        """Token boundaries where a cyclic shift is legal."""
        ws = self.widths()
        return [t for t in range(len(self.tokens)) if ws[t] == self.bottom]

    # -- text form --------------------------------------------------------

    def __str__(self):
        toks = "; ".join(f"{k} {p}" for k, p in self.tokens)
        return f"2n={self.bottom}" + (f"; {toks}" if toks else "")

    @staticmethod
    def parse(text):
        body = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                body.append(line)
        s = "; ".join(body)
        parts = [p.strip() for p in s.split(";") if p.strip()]
        if not parts or not parts[0].replace(" ", "").startswith("2n="):
            raise DiagramError("slice word must start with '2n=<width>'")
        try:
            bottom = int(parts[0].split("=", 1)[1])
        except ValueError:
            raise DiagramError(f"bad width in {parts[0]!r}") from None
        tokens = []
        for p in parts[1:]:
            m = re.fullmatch(r"(cup|cap|cross\+|cross-)\s+(\d+)", p)
            if not m:
                raise DiagramError(f"unrecognised token {p!r}")
            tokens.append((m.group(1), int(m.group(2))))
        return SliceWord(bottom, tuple(tokens))


def braid_closure(strands, braid_word):
    """Closed slice word of a braid closure.

    ``braid_word`` is a list of nonzero ints: +i means cross+ on braid
    strands (i, i+1), -i means cross-.
    """
    tokens = [("cup", i) for i in range(1, strands + 1)]
    for g in braid_word:
        i = abs(g)
        if not 1 <= i < strands:
            raise DiagramError(f"braid generator {g} out of range")
        tokens.append(("cross+" if g > 0 else "cross-", strands + i))
    tokens += [("cap", i) for i in range(strands, 0, -1)]
    return SliceWord(0, tuple(tokens))


def pd_to_braid(pd):
    """The diagram as a closed braid ``(strands, generators)``.

    Vogel's algorithm ("Representation of links by braids: a new
    algorithm", Comment. Math. Helv. 65, 1990).  The arcs are oriented
    a -> c through the under strand, and d -> b (sign +1) or b -> d
    (sign -1) through the over strand.  While some face has edges of two
    different Seifert circles that run the same way round it, a
    Reidemeister II move across that face adds two crossings of opposite
    sign; the number of circles stays the same, and Vogel's height
    argument gives termination.  The circles are then nested coherently
    and become the strands.  ``generators`` follows ``braid_closure``:
    +i is a crossing of sign +1 between strands i and i+1.  The connected
    pieces of a split diagram lie side by side, and free loops are idle
    strands.
    """
    comp = _components((row[0], arc) for row in pd.crossings
                       for arc in row[1:4])
    entered = {}
    for row in pd.crossings:
        for s in _IN_SLOTS[row[4]]:
            entered[row[s]] = entered.get(row[s], 0) + 1
    for arc in comp:
        if entered.get(arc) != 1:
            end = "entered" if arc in entered else "left"
            raise DiagramError(f"arc {arc} is {end} at both ends")
    pieces = {}
    for row in pd.crossings:
        pieces.setdefault(comp[row[0]], []).append(row)
    strands, gens = pd.free_loops, []
    for rows in pieces.values():
        s, g = _vogel(rows)
        gens += [v + strands if v > 0 else v - strands for v in g]
        strands += s
    return strands, gens


def _components(joins):
    """{label: representative} for the classes the pairs ``joins`` make.

    Two labels share a representative exactly when a chain of joins links
    them; the labels are keyed in the order they are first met.
    """
    parent = {}

    def root(v):
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        return v

    for x, y in joins:
        x = root(x)
        parent[x] = root(y)
    return {v: root(v) for v in parent}


# Slots are 0..3 = a..d, counterclockwise.  The incoming slots of a
# crossing by sign, and the Seifert smoothing: each incoming slot joins
# the adjacent outgoing slot.
_IN_SLOTS = {1: (0, 3), -1: (0, 1)}
_SMOOTH = {1: {0: 1, 3: 2}, -1: {0: 3, 1: 2}}


def _vogel(crossings):
    """Braid of one connected diagram, given as PD rows."""
    label = {}
    rows = [[label.setdefault(a, len(label)) for a in x[:4]]
            for x in crossings]
    signs = [x[4] for x in crossings]
    while True:
        pic = _SeifertPicture(rows, signs)
        move = pic.defect()
        if move is None:
            return pic.braid()
        x_arc, y_arc, along = move
        # x passes over y twice; x keeps its label up to the first new
        # crossing, y up to the first it meets, and four fresh labels
        # name the rest
        n = 2 * len(rows)
        x2, x3, y2, y3 = n, n + 1, n + 2, n + 3
        for arc, last in ((x_arc, x3), (y_arc, y3)):
            hx, hs = pic.head[arc]
            rows[hx][hs] = last
        if along:
            rows += [[y2, x_arc, y3, x2], [y_arc, x3, y2, x2]]
            signs += [-1, 1]
        else:
            rows += [[y2, x2, y3, x_arc], [y_arc, x2, y2, x3]]
            signs += [1, -1]


class _SeifertPicture:
    """Orientation, Seifert circles and faces of a connected diagram.

    A dart (x, s) leaves crossing x through slot s along the arc
    ``rows[x][s]``; it runs along the arc when s is the arc's tail.
    Following the arc to its far end (y, t) and turning to the next slot
    (y, t + 1) walks round a face.  Circles and faces are named by their
    first arc and dart.
    """

    def __init__(self, rows, signs):
        self.rows, self.signs = rows, signs
        self.ends = {}
        for x, row in enumerate(rows):
            for s, arc in enumerate(row):
                self.ends.setdefault(arc, []).append((x, s))
        self.head = {arc: e if e[1] in _IN_SLOTS[signs[e[0]]] else f
                     for arc, (e, f) in self.ends.items()}
        self.circle = {}
        for start in self.ends:
            arc = start
            while arc not in self.circle:
                self.circle[arc] = start
                arc = self.next_arc(arc)
        self.face_of, self.faces = {}, {}
        for start in ((x, s) for x in range(len(rows)) for s in range(4)):
            dart = start
            while dart not in self.face_of:
                self.face_of[dart] = start
                self.faces.setdefault(start, []).append(dart)
                y, t = self.far_end(dart)
                dart = (y, (t + 1) % 4)
        if len(self.faces) != len(rows) + 2:
            raise DiagramError("PD code does not describe a planar diagram")

    def next_arc(self, arc):
        """The arc after ``arc`` on its Seifert circle."""
        x, t = self.head[arc]
        return self.rows[x][_SMOOTH[self.signs[x]][t]]

    def far_end(self, dart):
        e, f = self.ends[self.rows[dart[0]][dart[1]]]
        return f if e == dart else e

    def circle_of(self, dart):
        return self.circle[self.rows[dart[0]][dart[1]]]

    def defect(self):
        """(x, y, along) for two edges of different circles that run the
        same way round a face, or None when there is no such face."""
        for darts in self.faces.values():
            first = {}
            for x, s in darts:
                arc = self.rows[x][s]
                along = self.head[arc] != (x, s)
                if along not in first:
                    first[along] = arc
                elif self.circle[first[along]] != self.circle[arc]:
                    return first[along], arc, along
        return None

    def braid(self):
        """Read the braid off coherently nested circles.

        A chain of faces from a face bounded by one circle crosses each
        circle once, at its cut arc; the crossings on each circle are
        listed from there, and a crossing is read off once it heads the
        lists of both its circles.
        """
        face = next(darts for darts in self.faces.values()
                    if len({self.circle_of(d) for d in darts}) == 1)
        lists, done = [], set()
        while True:
            fresh = [d for d in face if self.circle_of(d) not in done]
            if not fresh:
                break
            done.add(self.circle_of(fresh[0]))
            cut = arc = self.rows[fresh[0][0]][fresh[0][1]]
            order = []
            while not order or arc != cut:
                order.append(self.head[arc][0])
                arc = self.next_arc(arc)
            lists.append(order)
            face = self.faces[self.face_of[self.far_end(fresh[0])]]
        pos = [0] * len(lists)
        word = []
        while len(word) < len(self.rows):
            heads = {}
            for i, order in enumerate(lists):
                if pos[i] < len(order):
                    heads.setdefault(order[pos[i]], []).append(i)
            ready = [(x, ij) for x, ij in heads.items() if len(ij) == 2]
            if not ready:
                raise InvariantCheckError("no crossing heads the lists of "
                                          "both its circles")
            for x, (i, j) in ready:
                word.append(self.signs[x] * (i + 1))
                pos[i] += 1
                pos[j] += 1
        return len(lists), word


# -- planar diagram codes ------------------------------------------------


class PDCode:
    """Planar diagram: 4-tuples of arc labels (ccw from incoming under)."""

    __slots__ = ("crossings", "free_loops")

    def __init__(self, crossings, free_loops=0):
        # crossings: ((a, b, c, d, sign), ...) with sign in {+1, -1}
        self.crossings, self.free_loops = crossings, free_loops
        if type(free_loops) is not int or free_loops < 0:
            raise DiagramError(f"free_loops must be an integer >= 0, not "
                               f"{free_loops!r}")
        seen = {}
        for idx, x in enumerate(crossings):
            if len(x) != 5 or x[4] not in (1, -1):
                raise DiagramError(f"crossing {idx}: need 4 arcs and a sign")
            for a in x[:4]:
                seen[a] = seen.get(a, 0) + 1
        bad = [a for a, k in seen.items() if k != 2]
        if bad:
            raise DiagramError(f"arc labels not appearing exactly twice: {bad}")

    def __eq__(self, other):
        if type(other) is not PDCode:
            return NotImplemented
        return ((self.crossings, self.free_loops)
                == (other.crossings, other.free_loops))

    def __hash__(self):
        return hash((self.crossings, self.free_loops))

    def __repr__(self):
        return (f"PDCode(crossings={self.crossings!r}, "
                f"free_loops={self.free_loops!r})")

    def writhe(self):
        return sum(x[4] for x in self.crossings)

    def component_count(self):
        """Number of link components (plus free loops)."""
        # arcs join at crossings: under passes a<->c, over passes b<->d
        comp = _components(pair for a, b, c, d, _ in self.crossings
                           for pair in ((a, c), (b, d)))
        return len(set(comp.values())) + self.free_loops

    def is_knot(self):
        return self.component_count() == 1

    # -- text form -----------------------------------------------------

    def to_json(self):
        return json.dumps({
            "crossings": [[a, b, c, d, "+" if s > 0 else "-"]
                          for a, b, c, d, s in self.crossings],
            "free_loops": self.free_loops,
        })

    @staticmethod
    def parse(text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise DiagramError(f"bad PD JSON: {e}") from None
        if isinstance(obj, list):
            obj = {"crossings": obj, "free_loops": 0}
        if not isinstance(obj, dict) or \
                not isinstance(obj.get("crossings", []), list):
            raise DiagramError("PD JSON must be a list of crossings or an "
                               "object with a 'crossings' list")
        crossings = []
        for row in obj.get("crossings", []):
            if not isinstance(row, list) or len(row) != 5 or \
                    not all(isinstance(x, int) for x in row[:4]):
                raise DiagramError(f"PD row {row!r} needs [a,b,c,d,sign] "
                                   "with integer arc labels")
            a, b, c, d, s = row
            if isinstance(s, bool) or s not in ("+", "-", 1, -1):
                raise DiagramError(f"PD row {row!r}: the sign must be "
                                   "'+', '-', 1 or -1")
            crossings.append((a, b, c, d, 1 if s in ("+", 1) else -1))
        return PDCode(tuple(crossings), obj.get("free_loops", 0))


def pd_add_kink(pd, sign):
    """Insert one Reidemeister-I kink of the given sign on some arc.

    The kink layouts are fixed so that a +1 kink multiplies the bracket
    by mu = -A^3 (and changes the writhe by +1).
    """
    if not pd.crossings:
        if pd.free_loops < 1:
            raise DiagramError("no strand to put a kink on")
        # a bare loop with one kink
        if sign > 0:
            return PDCode(((2, 2, 1, 1, 1),), pd.free_loops - 1)
        return PDCode(((1, 2, 2, 1, -1),), pd.free_loops - 1)
    nxt = 1 + max(a for x in pd.crossings for a in x[:4])
    target = pd.crossings[0][0]
    fresh = nxt
    crossings = []
    replaced = False
    for a, b, c, d, s in pd.crossings:
        if not replaced and a == target:
            a = fresh
            replaced = True
        crossings.append((a, b, c, d, s))
    loop = nxt + 1
    if sign > 0:
        kink = (loop, loop, fresh, target, 1)
    else:
        kink = (target, loop, loop, fresh, -1)
    return PDCode(tuple(crossings) + (kink,), pd.free_loops)


def normalize_writhe(pd):
    """Return (zero-writhe diagram, original writhe) for a knot diagram."""
    if not pd.is_knot():
        raise DiagramError("writhe normalisation needs a knot diagram "
                           "(link writhe depends on orientations)")
    w = pd.writhe()
    out = pd
    for _ in range(abs(w)):
        out = pd_add_kink(out, -1 if w > 0 else 1)
    return out, w


# -- the atlas ------------------------------------------------------------


ATLAS_BRAIDS = {
    "U": (1, ()),
    "RT": (2, (1, 1, 1)),
    "LT": (2, (-1, -1, -1)),
    "F8": (3, (1, -2, 1, -2)),
}


# small PD codes used by the oracle suite (all writhe-normalised forms
# are derived from these programmatically)
ATLAS_PD = {
    "U": PDCode((), free_loops=1),
    "RT": PDCode(((4, 2, 5, 1, 1), (6, 4, 1, 3, 1), (2, 6, 3, 5, 1))),
    "LT": PDCode(((1, 4, 2, 5, -1), (3, 6, 4, 1, -1), (5, 2, 6, 3, -1))),
    "F8": PDCode(((4, 2, 5, 1, 1), (8, 6, 1, 5, 1),
                  (6, 3, 7, 4, -1), (2, 7, 3, 8, -1))),
}


class KnotRef:
    """Reference to an atlas knot, a connected sum, or a twisted double."""

    __slots__ = ("symbol", "parts")

    def __init__(self, symbol, parts=()):
        self.symbol, self.parts = symbol, parts

    def __eq__(self, other):
        if type(other) is not KnotRef:
            return NotImplemented
        return (self.symbol, self.parts) == (other.symbol, other.parts)

    def __hash__(self):
        return hash((self.symbol, self.parts))

    def __repr__(self):
        return f"KnotRef(symbol={self.symbol!r}, parts={self.parts!r})"

    @staticmethod
    def parse(text):
        s = text.strip()
        if "#" in s:
            parts = tuple(p.strip() for p in s.split("#"))
            for p in parts:
                if p not in ATLAS_BRAIDS:
                    raise DiagramError(f"unknown atlas symbol {p!r}")
            return KnotRef("#".join(parts), parts)
        m = re.fullmatch(r"D\(\s*(-?\d+)\s*,\s*(.+)\s*\)", s)
        if m:
            inner = KnotRef.parse(m.group(2))
            return KnotRef(f"D({m.group(1)},{inner.symbol})",
                           (int(m.group(1)), inner))
        if s in ATLAS_BRAIDS:
            return KnotRef(s, (s,))
        raise DiagramError(f"unknown knot reference {text!r}")

    def is_double(self):
        return self.symbol.startswith("D(")

    def summands(self):
        if self.is_double():
            raise DiagramError("not a connected sum of atlas knots")
        return self.parts

    def __str__(self):
        return self.symbol
