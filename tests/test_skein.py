import random

import pytest

from tvskein.cyclo import CycloElem, reduce_to_kp
from tvskein.diagram import (ATLAS_BRAIDS, ATLAS_PD, DiagramError, PDCode,
                             SliceWord, _components, braid_closure,
                             normalize_writhe, pd_add_kink, pd_to_braid)
from tvskein.laurent import (A, DELTA, MU, LaurentPoly, QFactored, bracket_e,
                             quantum_int)
from tvskein.oracles import (ATLAS_WORDS, add_word_kinks, berkowitz_det,
                             cable_colored_bracket, cable_word, catalan,
                             scalars_from_kauffman, zero_writhe_word)
from tvskein.rings import ZA
from tvskein.skein import (KnotScalars, SkeinEngine, bracket_pd,
                           bracket_pd_statesum, bracket_word, closure_B,
                           colored_bracket, knot_scalars, matchings,
                           mirror_matching, pairing_matrix_D, splice,
                           transfer_Q)

RT_BRACKET = DELTA * LaurentPoly({-16: -1, -12: 1, -4: 1})
F8_BRACKET = DELTA * LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
HOPF = LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})


def b_k(s, k):
    """b_k(J) = A^(2k) [[J]] + A^(-6k), the 2-cable bracket with k twists."""
    return LaurentPoly({2 * k: 1}) * s.colored(2) + LaurentPoly({-6 * k: 1})


def rand_word(rnd, n, extra):
    toks, w = [], 2 * n
    for _ in range(extra):
        opts = [("cup",)]
        if w >= 2:
            opts += [("cap",), ("cross+",), ("cross-",)]
        kind = rnd.choice(opts)[0]
        if kind == "cup":
            toks.append((kind, rnd.randint(1, w + 1)))
            w += 2
        elif kind == "cap":
            toks.append((kind, rnd.randint(1, w - 1)))
            w -= 2
        else:
            toks.append((kind, rnd.randint(1, w - 1)))
    while w > 2 * n:
        toks.append(("cap", rnd.randint(1, w - 1)))
        w -= 2
    while w < 2 * n:
        toks.append(("cup", rnd.randint(1, w + 1)))
        w += 2
    return SliceWord(2 * n, tuple(toks))


def word_to_pd(word):
    """PD code of a closed slice word, each component oriented by a walk.

    Tokens stack bottom to top and frontier positions run left to right,
    so the slots of a crossing are SW, SE, NE, NW counterclockwise.  The
    identity smoothing of ``cross+`` carries A, so its under strand is
    SE-NW; ``cross-`` passes under along SW-NE.
    """
    parent = []

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    def fresh():
        parent.append(len(parent))
        return len(parent) - 1

    frontier, slots, kinds = [], [], []
    for kind, pos in word.tokens:
        i = pos - 1
        if kind == "cup":
            n = fresh()
            frontier[i:i] = [n, n]
        elif kind == "cap":
            parent[find(frontier[i])] = find(frontier[i + 1])
            del frontier[i:i + 2]
        else:
            nw, ne = fresh(), fresh()
            slots.append((frontier[i], frontier[i + 1], ne, nw))
            kinds.append(kind)
            frontier[i:i + 2] = [nw, ne]
    ends = {}
    for x, row in enumerate(slots):
        for k, seg in enumerate(row):
            ends.setdefault(find(seg), []).append((x, k))
    free = len({find(u) for u in range(len(parent))}) - len(ends)
    # walk each component: enter at (x, k), leave at the opposite slot
    entered = set()
    for x0 in range(len(slots)):
        for k0 in range(4):
            if (x0, k0) in entered or (x0, (k0 + 2) % 4) in entered:
                continue
            x, k = x0, k0
            while (x, k) not in entered:
                entered.add((x, k))
                out = (x, (k + 2) % 4)
                e, f = ends[find(slots[x][out[1]])]
                x, k = f if e == out else e
    label = {root: i + 1 for i, root in enumerate(ends)}
    rows = []
    for x, row in enumerate(slots):
        under = (1, 3) if kinds[x] == "cross+" else (0, 2)
        a = next(k for k in under if (x, k) in entered)
        sign = 1 if (x, (a + 3) % 4) in entered else -1
        rows.append(tuple(label[find(row[(a + j) % 4])] for j in range(4))
                    + (sign,))
    return PDCode(tuple(rows), free)


def seifert_circle_count(pd):
    """Loops of the oriented smoothing: the A-smoothing at a positive
    crossing, the B-smoothing at a negative one."""
    parent = {}

    def find(u):
        while parent.setdefault(u, u) != u:
            u = parent[u]
        return u

    for a, b, c, d, sign in pd.crossings:
        for u, v in (((a, b), (c, d)) if sign > 0 else ((b, c), (d, a))):
            parent[find(u)] = find(v)
    arcs = {a for x in pd.crossings for a in x[:4]}
    return len({find(a) for a in arcs}) + pd.free_loops


def braid_components(strands, gens):
    perm = list(range(strands))
    for g in gens:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return cycles


def test_matchings_counts_and_order():
    assert [len(matchings(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert matchings(2) == ((1, 0, 3, 2), (3, 2, 1, 0))
    # brute-force oracle at n = 5: all pairings filtered for crossings
    def crossing_free(m):
        n2 = len(m)
        return not any(i < j < m[i] < m[j] for i in range(n2)
                       for j in range(i + 1, n2))
    assert all(crossing_free(m) for m in matchings(5))
    assert catalan(5) == 42


def test_pairing_matrix():
    d1 = pairing_matrix_D(1)
    assert d1[0, 0] == DELTA
    d2 = pairing_matrix_D(2)
    assert d2[0, 0] == DELTA ** 2 and d2[0, 1] == DELTA
    det = berkowitz_det(d2)
    assert det == DELTA ** 4 - DELTA ** 2
    # degree of det D(n) in delta is n c(n)
    for n in (1, 2, 3, 4):
        det = berkowitz_det(pairing_matrix_D(n))
        assert det.max_exp() == 2 * n * catalan(n)   # delta^... has A-degree 2


def test_transfer_examples():
    ident = transfer_Q(SliceWord(4, ()))
    assert ident[0, 0] == LaurentPoly.one() and ident[0, 1].is_zero()
    single = transfer_Q(SliceWord(2, (("cross+", 1),)))
    assert single[0, 0] == LaurentPoly({-3: -1})     # mu^-1


def test_b_equals_qd_and_straight_strands():
    rnd = random.Random(10)
    for _ in range(40):
        w = rand_word(rnd, rnd.randint(1, 3), rnd.randint(0, 6))
        q, b = transfer_Q(w), closure_B(w)
        assert q * pairing_matrix_D(w.bottom // 2) == b
    w = SliceWord(6, ())
    assert closure_B(w) == pairing_matrix_D(3)


def test_bracket_values():
    assert bracket_word(ATLAS_WORDS["U"]) == DELTA
    assert bracket_word(braid_closure(2, [1, 1])) == HOPF
    assert bracket_word(ATLAS_WORDS["RT"]) == RT_BRACKET
    assert bracket_word(ATLAS_WORDS["LT"]) == RT_BRACKET.bar()
    assert bracket_word(ATLAS_WORDS["F8"]) == F8_BRACKET
    with pytest.raises(DiagramError):
        bracket_word(SliceWord(2, ()))


def test_zero_writhe_bracket_even_powers():
    for name in ("U", "RT", "LT", "F8"):
        br = bracket_word(ATLAS_WORDS[name])
        assert all(e % 2 == 0 for e in br.terms)


def test_kink_factors():
    u = ATLAS_WORDS["U"]
    assert bracket_word(add_word_kinks(u, 1, +1)) == MU * DELTA
    assert bracket_word(add_word_kinks(u, 1, -1)) == LaurentPoly({-3: -1}) * DELTA


def test_pd_brackets_and_oracle():
    for name in ("RT", "LT", "F8"):
        pd = ATLAS_PD[name]
        assert bracket_pd(pd) == bracket_pd_statesum(pd)
        pd0, w = normalize_writhe(pd)
        assert bracket_pd(pd0) == bracket_word(ATLAS_WORDS[name])
        # normalisation changes the bracket by the kink factor mu^-w
        assert bracket_pd(pd0) == MU ** (-w) * bracket_pd(pd) if w <= 0 else \
            bracket_pd(pd0) == LaurentPoly({-3: -1}) ** w * bracket_pd(pd)
    k = pd_add_kink(ATLAS_PD["U"], +1)
    assert bracket_pd_statesum(k) == MU * DELTA


def test_knot_scalars_anchors():
    u = knot_scalars("U")
    assert u.bracket == DELTA
    assert u.double0 == DELTA * DELTA - LaurentPoly.one()
    assert u.colored(2) == quantum_int(3)
    # <J>_2 = 2 and [[J]]_2 = 3 for every knot
    for name in ("U", "RT", "LT", "F8", "RT#LT"):
        s = knot_scalars(name)
        assert reduce_to_kp(s.bracket, 2) == CycloElem.from_int(2, 2)
        assert reduce_to_kp(s.double0, 2) == CycloElem.from_int(2, 3)
        # b_k at level 2 alternates as (-1)^k 4
        for k in (0, 1, 2, 5):
            bk2 = reduce_to_kp(b_k(s, k), 2)
            assert bk2 == CycloElem.from_int(2, 4 * (-1) ** k)
        # b_k at level p has period p
        for p in (5, 7):
            for k in (0, 1, 3):
                assert reduce_to_kp(b_k(s, k), p) == reduce_to_kp(b_k(s, k + p), p)


def random_braid_knots(rnd, count, strand_choices, max_gens):
    out = []
    while len(out) < count:
        strands = rnd.choice(strand_choices)
        gens = [rnd.choice((1, -1)) * rnd.randint(1, strands - 1)
                for _ in range(rnd.randint(1, max_gens))]
        if braid_components(strands, gens) == 1:
            out.append((strands, tuple(gens)))
    return out


# the 2- and 3-strand braid knots that the 2-cable test draws
RANDOM_KNOTS = random_braid_knots(random.Random(7), 12, (2, 3), 5)
SQUARE = (3, (1, 1, 1, -2, -2, -2))


def test_connected_sum_scalars():
    # the square knot as one braid closure, sigma_1^3 sigma_2^-3, against
    # the connected-sum rule of knot_scalars; the cable oracle at c = 3
    # takes seconds, the fusion basis at c = 4 milliseconds
    word = zero_writhe_word(*SQUARE)
    sq = knot_scalars("RT#LT")
    assert bracket_word(word) == sq.bracket
    assert cable_colored_bracket(word, 2) == sq.double0
    for c in range(5):
        assert colored_bracket(*SQUARE, c) == sq.colored(c), c


def test_double0_via_cable_matches_b_k_channels():
    # the 2-cable of a 0-framed knot diagram with k full twists has bracket
    # A^(2k)[[J]] + A^(-6k); at k = 0 it is [[J]] + 1, where the scalars
    # take [[J]] = <J_2> from the Jones-Wenzl projector f_2 = 1 + [2]^-1 e_1
    cases = [(ATLAS_WORDS[name], knot_scalars(name))
             for name in ("RT", "LT", "F8")]
    cases += [(zero_writhe_word(*knot_scalars(pd).braid), knot_scalars(pd))
              for pd in ATLAS_PD.values()]
    # the square knot as one braid closure, against the connected-sum rule
    cases.append((zero_writhe_word(*SQUARE), knot_scalars("RT#LT")))
    cases += [(zero_writhe_word(*braid), KnotScalars("<braid>", braid=braid))
              for braid in RANDOM_KNOTS]
    for word, s in cases:
        assert bracket_word(word) == s.bracket
        assert bracket_word(cable_word(word, 2, 0)) - LaurentPoly.one() == \
            s.double0
        for k in (1, -1):
            assert bracket_word(cable_word(word, 2, k)) == b_k(s, k)
    rt = knot_scalars("RT")
    assert bracket_word(cable_word(ATLAS_WORDS["RT"], 2, 2)) == b_k(rt, 2)


def test_two_cable_bracket_evaluated_once(monkeypatch):
    # <J_2>, [[J]] and b_k read one cache entry, so a twisted double of F8
    # evaluates its 2-cable bracket once, by either route
    import tvskein.skein as skein
    from tvskein.tqft import double_invariant

    cable = cable_word(ATLAS_WORDS["F8"], 2, 0)
    colored, bracket = skein.colored_bracket, skein.bracket_word
    two_cable = []

    def counting_colored(strands, gens, c):
        two_cable.append(c == 2)
        return colored(strands, gens, c)

    def counting_bracket(word):
        two_cable.append(word == cable)
        return bracket(word)

    monkeypatch.setattr(skein, "colored_bracket", counting_colored)
    monkeypatch.setattr(skein, "bracket_word", counting_bracket)
    monkeypatch.setattr(skein, "_SCALAR_CACHE", {})
    s = knot_scalars("F8")
    s.colored(2), s.double0, b_k(s, 3)
    double_invariant("F8", 3, 5)
    assert sum(two_cable) == 1


def test_colored_bracket_small():
    for colored, u, rt, lt in (
            (cable_colored_bracket, ATLAS_WORDS["U"], ATLAS_WORDS["RT"],
             ATLAS_WORDS["LT"]),
            (lambda braid, c: colored_bracket(*braid, c), ATLAS_BRAIDS["U"],
             ATLAS_BRAIDS["RT"], ATLAS_BRAIDS["LT"])):
        assert colored(u, 0) == LaurentPoly.one()
        assert colored(u, 1) == DELTA
        assert colored(u, 2) == quantum_int(3)
        rt2 = colored(rt, 2)
        assert rt2.bar() == colored(lt, 2)
    with pytest.raises(DiagramError):
        colored_bracket(2, (1, 2), 1)
    with pytest.raises(DiagramError):
        colored_bracket(2, (1,), -1)


def test_zero_color_bracket_is_one_without_a_walk(monkeypatch):
    # the 0-colored closure is the empty diagram, so <J_0> = 1 and the
    # fusion-basis walk (its braid blocks and half twists) never runs
    import tvskein.skein as skein

    def refuse(*args):
        raise AssertionError("fusion-basis walk at color 0")

    for name in ("braid_block", "half_twist", "factored_e"):
        monkeypatch.setattr(skein, name, refuse)
    braids = [ATLAS_BRAIDS[name] for name in ("U", "RT", "LT", "F8")]
    braids += RANDOM_KNOTS + random_braid_knots(random.Random(9), 6, (4, 5), 9)
    for braid in braids:
        assert colored_bracket(*braid, 0) == LaurentPoly.one(), braid
    for name in ("U", "RT", "LT", "F8"):
        s = KnotScalars(name, braid=ATLAS_BRAIDS[name])
        assert s.colored(0) == LaurentPoly.one(), name
    with pytest.raises(DiagramError):
        colored_bracket(2, (1, 2), 0)


def test_fusion_basis_matches_cable_oracle():
    # the random 2- and 3-strand knots at c <= 3, and 4-strand knots at
    # c <= 2 (the cable of a 4-strand closure at c = 3 has a 24-point
    # frontier and takes 13-14 s per knot)
    fours = random_braid_knots(random.Random(4), 4, (4,), 6)
    for braids, cmax in ((RANDOM_KNOTS, 3), (fours, 2)):
        for braid in braids:
            word = zero_writhe_word(*braid)
            for c in range(1, cmax + 1):
                assert colored_bracket(*braid, c) == \
                    cable_colored_bracket(word, c), (braid, c)


def test_fusion_basis_identities():
    rt, lt, f8 = (ATLAS_BRAIDS[name] for name in ("RT", "LT", "F8"))
    for c in range(8):
        assert colored_bracket(*lt, c) == colored_bracket(*rt, c).bar(), c
    for c in range(6):
        f8c = colored_bracket(*f8, c)
        assert f8c == f8c.bar(), c
    # at A = 1 every knot's c-colored bracket is that of the unknot
    for braid in [rt, lt, f8, SQUARE] + RANDOM_KNOTS:
        for c in range(5):
            at_one = sum(colored_bracket(*braid, c).terms.values())
            assert at_one == (-1) ** c * (c + 1), (braid, c)
    assert all(colored_bracket(1, (), c) == bracket_e(c) for c in range(8))


def test_colored_bracket_builds_no_QA_value(monkeypatch):
    # the projector is built over Z[A,A^-1] and the bracket divides once:
    # a cold projector cache builds no LaurentFrac, and a warm one runs
    # no poly_gcd (that runs only in the projector's content step); the
    # fusion basis, from cold theta, Tet and block caches, builds neither
    import tvskein.oracles as oracles
    import tvskein.recoupling as recoupling
    cases = [(ATLAS_WORDS["RT"], 3), (ATLAS_WORDS["F8"], 2)]
    want = [cable_colored_bracket(w, c) for w, c in cases]
    fusion = [(ATLAS_BRAIDS["RT"], 5), (ATLAS_BRAIDS["F8"], 3)]
    want_fusion = [colored_bracket(*b, c) for b, c in fusion]

    def refuse(*args, **kwargs):
        raise AssertionError("Q(A) on the colored-bracket path")

    monkeypatch.setattr(oracles, "LaurentFrac", refuse)
    oracles.jones_wenzl.cache_clear()
    assert [cable_colored_bracket(w, c) for w, c in cases] == want
    monkeypatch.setattr(oracles, "poly_gcd", refuse)
    assert [cable_colored_bracket(w, c) for w, c in cases] == want
    for cached in (recoupling.theta, recoupling.tet, recoupling.braid_block):
        cached.cache_clear()
    assert [colored_bracket(*b, c) for b, c in fusion] == want_fusion


def test_inexact_divisions_raise_invariant_check(monkeypatch):
    import tvskein.oracles as oracles
    import tvskein.recoupling as recoupling
    import tvskein.skein as skein
    from tvskein.polyalg import InvariantCheckError

    # a wrong projector term leaves the closing division inexact (at c = 2
    # a wrong term would not show: both closures there are multiples of den)
    terms, den = oracles.jones_wenzl(3)
    wrong = dict(terms)
    (ident, _), = oracles.tl_identity(3).items()
    wrong[ident] = wrong[ident] + LaurentPoly.one()
    monkeypatch.setattr(oracles, "jones_wenzl", lambda n: (wrong, den))
    with pytest.raises(InvariantCheckError):
        cable_colored_bracket(ATLAS_WORDS["RT"], 3)
    # a wrong theta or Tet value leaves the fusion basis's division inexact
    theta, tet = recoupling.theta, recoupling.tet
    three = QFactored(1, {3: 1})
    for name, wrong_fn in (("theta", lambda *a: theta(*a) * three),
                           ("tet", lambda *a: tet(*a) + 1)):
        recoupling.braid_block.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(recoupling, name, wrong_fn)
                with pytest.raises(InvariantCheckError):
                    colored_bracket(*ATLAS_BRAIDS["F8"], 2)
        finally:
            recoupling.braid_block.cache_clear()
    # summands with wrong colored brackets: <RT_2><LT_2> / <e_2> is inexact
    monkeypatch.setattr(skein, "_SCALAR_CACHE", {})
    for name in ("RT", "LT"):
        skein._SCALAR_CACHE[name] = KnotScalars(
            name, colored_fn=lambda c: LaurentPoly.one())
    with pytest.raises(InvariantCheckError):
        knot_scalars("RT#LT").colored(2)


def test_kauffman_channel():
    br, dd = scalars_from_kauffman({(0, 0): 1})
    assert br == DELTA and dd == DELTA * DELTA - LaurentPoly.one()
    # right-handed trefoil table entry (Kauffman normalisation)
    f_rt = {(-2, 0): -2, (-4, 0): -1, (-3, 1): 1, (-5, 1): 1,
            (-2, 2): 1, (-4, 2): 1}
    br, dd = scalars_from_kauffman(f_rt)
    rt = knot_scalars("RT")
    assert br == rt.bracket
    assert dd == rt.double0


def test_kauffman_negative_z_exponent_rejected():
    # range(j) with j < 0 used to drop such terms without a word
    with pytest.raises(ValueError, match="negative z-exponent"):
        scalars_from_kauffman({(0, 0): 1, (1, -1): 1})


def test_random_diagrams_lower_to_braids():
    # closed words of at most 8 tokens: split pieces, free loops, links,
    # and diagrams that need Vogel moves.  Longer words reach 9 Seifert
    # circles, and the bracket of a closure grows like catalan(strands).
    rnd = random.Random(5)
    moved = 0
    for _ in range(60):
        word = rand_word(rnd, 0, rnd.randint(1, 8))
        pd = word_to_pd(word)
        assert bracket_pd(pd) == bracket_word(word) == bracket_pd_statesum(pd)
        strands, gens = pd_to_braid(pd)
        assert sum(1 if g > 0 else -1 for g in gens) == pd.writhe()
        assert braid_components(strands, gens) == pd.component_count()
        assert strands == seifert_circle_count(pd)
        moved += len(gens) > len(pd.crossings)
    assert moved >= 20


def test_pd_knot_scalars_match_atlas():
    for name in ("RT", "LT", "F8"):
        pd = ATLAS_PD[name]
        s, ref = knot_scalars(pd), knot_scalars(name)
        assert s.bracket == ref.bracket
        assert s.double0 == ref.double0
        assert s.colored(2) == ref.colored(2)
        # cached by value
        assert knot_scalars(PDCode.parse(pd.to_json())) is s
    hopf = PDCode(((1, 3, 2, 4, 1), (3, 1, 4, 2, 1)))
    with pytest.raises(DiagramError, match="knot diagram"):
        knot_scalars(hopf)


def test_transfer_vs_statesum_corpus():
    corpus = [ATLAS_PD["RT"], ATLAS_PD["LT"], ATLAS_PD["F8"],
              normalize_writhe(ATLAS_PD["RT"])[0],
              normalize_writhe(ATLAS_PD["F8"])[0],
              pd_add_kink(pd_add_kink(ATLAS_PD["U"], 1), -1),
              PDCode(((1, 3, 2, 4, 1), (3, 1, 4, 2, 1)))]
    for pd in corpus:
        assert len(pd.crossings) <= 12
        assert bracket_pd(pd) == bracket_pd_statesum(pd)


def test_splice_memo_matches_direct_splices(monkeypatch):
    # the process-wide splice memo, shared across 50 random words, against
    # an empty memo per token, whose splices all run afresh; a second pass
    # over the words splices nothing
    import tvskein.skein as skein
    calls = []
    real = skein.splice

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(skein, "splice", counted)
    rnd = random.Random(11)
    words = [rand_word(rnd, rnd.randint(0, 3), rnd.randint(4, 14))
             for _ in range(50)]
    direct = []
    for w in words:
        states = {m: ZA.one for m in matchings(w.bottom // 2)}
        for tok in w.tokens:
            monkeypatch.setattr(skein, "_SPLICES", {})
            states = SkeinEngine().run_tokens(states, [tok])
        direct.append(states)
    n_direct = len(calls)
    monkeypatch.setattr(skein, "_SPLICES", {})
    counts = []
    for _ in range(2):
        for w, want in zip(words, direct):
            start = {m: ZA.one for m in matchings(w.bottom // 2)}
            assert SkeinEngine().run_tokens(start, w.tokens) == want
        counts.append(len(calls) - n_direct - sum(counts))
    assert 0 < counts[0] < n_direct
    assert counts[0] == len(set(calls[n_direct:]))
    assert counts[1] == 0


def all_pairings(points):
    """Every perfect matching of ``points``, crossing ones included."""
    if not points:
        yield {}
        return
    a = points[0]
    for b in points[1:]:
        for rest in all_pairings([x for x in points[1:] if x != b]):
            yield {**rest, a: b, b: a}


def test_splice_matches_composition_by_components():
    # gluing is the union of the state's arcs and the block's: label
    # frontier point i by i and produced point j by w + j; a class with two
    # ends of the glued frontier is a strand, one with none a closed loop.
    # Every non-crossing state of <= 6 points, every window and every
    # pairing of <= 4 produced points with the consumed ones
    cases = 0
    for n in range(4):
        w = 2 * n
        for m in matchings(n):
            for p in range(w + 1):
                for c_in in range(w - p + 1):
                    for c_out in range(c_in % 2, 5, 2):
                        # the glued frontier's points, in their new order
                        new = [*range(p), *range(w, w + c_out),
                               *range(p + c_in, w)]
                        size = c_in + c_out
                        label = [p + k if k < c_in else w + k - c_in
                                 for k in range(size)]
                        for pairing in all_pairings(list(range(size))):
                            block = tuple(pairing[k] for k in range(size))
                            comp = _components(
                                [(i, m[i]) for i in range(w)]
                                + [(label[k], label[block[k]])
                                   for k in range(size)])
                            strands = {}
                            for s, e in enumerate(new):
                                strands.setdefault(comp[e], []).append(s)
                            want = [None] * len(new)
                            for a, b in strands.values():
                                want[a], want[b] = b, a
                            loops = len(set(comp.values())) - len(strands)
                            assert splice(m, p, c_in, c_out, block) == \
                                (tuple(want), loops), (m, p, block)
                            cases += 1
    assert cases == 10061
