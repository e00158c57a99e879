import json

import pytest

from tvskein.diagram import (ATLAS_PD, DiagramError, KnotRef, PDCode,
                             SliceWord, _components, braid_closure,
                             normalize_writhe, pd_add_kink, pd_to_braid)
from tvskein.oracles import ATLAS_WORDS, add_word_kinks, cable_word


def test_parse_print_roundtrip():
    w = SliceWord.parse("2n=4; cap 2; cup 2")
    assert w.bottom == 4 and w.tokens == (("cap", 2), ("cup", 2))
    assert SliceWord.parse(str(w)) == w
    for word in ATLAS_WORDS.values():
        assert SliceWord.parse(str(word)) == word


def test_width_validation():
    with pytest.raises(DiagramError):
        SliceWord.parse("2n=4; cross+ 4")
    with pytest.raises(DiagramError):
        SliceWord.parse("2n=4; cap 4")
    with pytest.raises(DiagramError):
        SliceWord.parse("2n=4; cup 1")          # ends at width 6
    with pytest.raises(DiagramError):
        SliceWord.parse("2n=3")
    with pytest.raises(DiagramError):
        SliceWord.parse("cap 1")


def test_comments_and_whitespace():
    text = "# reference tangle\n2n=4\ncross+ 1; cross+ 1\n# trailing note\n"
    w = SliceWord.parse(text)
    assert w.crossing_count() == 2


def test_cyclic_shift_points():
    w = SliceWord(4, (("cross+", 1), ("cup", 1), ("cap", 1), ("cross-", 2)))
    pts = w.shift_points()
    assert 0 in pts and 1 in pts
    shifted = w.cyclic_shift(1)
    assert shifted.tokens[0] == ("cup", 1)
    with pytest.raises(DiagramError):
        w.cyclic_shift(2)       # width 6 there


def test_mirror():
    w = ATLAS_WORDS["RT"].mirror()
    assert w == ATLAS_WORDS["LT"]


def test_pd_validation():
    with pytest.raises(DiagramError):
        PDCode(((1, 2, 3, 4, 1),))              # arcs appear once
    pd = ATLAS_PD["RT"]
    assert pd.writhe() == 3
    assert pd.is_knot()
    assert ATLAS_PD["U"].component_count() == 1
    hopf = PDCode(((1, 3, 2, 4, 1), (3, 1, 4, 2, 1)))
    assert hopf.component_count() == 2
    with pytest.raises(DiagramError):
        normalize_writhe(hopf)


@pytest.mark.parametrize("free", [-1, True, 2.9, 1.0, "1", None])
def test_free_loops_is_a_nonnegative_int(free):
    # a negative count would index a wrong cached power of delta, and
    # neither a bool nor a float is a count of loops
    with pytest.raises(DiagramError, match="free_loops"):
        PDCode((), free)
    with pytest.raises(DiagramError, match="free_loops"):
        PDCode.parse(json.dumps({"crossings": [], "free_loops": free}))


def test_pd_json_roundtrip():
    pd = ATLAS_PD["F8"]
    assert PDCode.parse(pd.to_json()) == pd
    assert PDCode.parse('[[1,4,2,5,"+"],[3,6,4,1,"+"],[5,2,6,3,"+"]]').writhe() == 3


def test_atlas_pd_lowers_to_braids():
    strands = {"U": 1, "RT": 2, "LT": 2, "F8": 3}
    for name, pd in ATLAS_PD.items():
        s, gens = pd_to_braid(pd)
        assert s == strands[name]
        assert len(gens) == len(pd.crossings)
        assert sum(1 if g > 0 else -1 for g in gens) == pd.writhe()
    assert pd_to_braid(PDCode((), free_loops=2)) == (2, [])
    assert pd_to_braid(PDCode(())) == (0, [])


def test_pd_orientation_and_planarity_checks():
    # the figure eight with crossings 0 and 3 carrying the wrong sign:
    # arc 2 is entered at both of its ends
    bad_f8 = PDCode(((4, 2, 5, 1, -1), (8, 6, 1, 5, 1),
                     (6, 3, 7, 4, -1), (2, 7, 3, 8, 1)))
    assert bad_f8.writhe() == 0
    with pytest.raises(DiagramError, match="arc 2 is entered at both ends"):
        pd_to_braid(bad_f8)
    # one crossing whose two strands close up through each other: one
    # face where a planar diagram has three
    with pytest.raises(DiagramError, match="planar"):
        pd_to_braid(PDCode(((1, 2, 1, 2, 1),)))


def test_split_diagrams_lie_side_by_side():
    rt = ATLAS_PD["RT"]
    hopf = PDCode(((11, 13, 12, 14, 1), (13, 11, 14, 12, 1)))
    s, gens = pd_to_braid(PDCode(rt.crossings + hopf.crossings, free_loops=1))
    assert s == 1 + 2 + 2
    assert sorted(abs(g) for g in gens) == [2, 2, 2, 4, 4]


def test_normalize_writhe_counts():
    pd0, w = normalize_writhe(ATLAS_PD["RT"])
    assert w == 3
    assert pd0.writhe() == 0
    assert len(pd0.crossings) == 6
    f8, w8 = normalize_writhe(ATLAS_PD["F8"])
    assert w8 == 0 and f8 == ATLAS_PD["F8"]


def test_cable_crossing_counts():
    # strands^2 crossings per crossing plus 2|twists| twist crossings
    rt0 = ATLAS_WORDS["RT"]
    assert rt0.crossing_count() == 6
    cab = cable_word(rt0, 2, 0)
    assert cab.crossing_count() == 24
    cab6 = cable_word(rt0, 2, 6)
    assert cab6.crossing_count() == 36
    cab_neg = cable_word(rt0, 2, -2)
    assert cab_neg.crossing_count() == 28
    # 2-cable of the crossingless unknot with no twists: no crossings
    u2 = cable_word(ATLAS_WORDS["U"], 2, 0)
    assert u2.crossing_count() == 0 and u2.max_width() == 4


def test_word_kinks_change_count():
    u = ATLAS_WORDS["U"]
    k = add_word_kinks(u, 2, +1)
    assert k.crossing_count() == 2


def test_knotref_parsing():
    assert KnotRef.parse("U").summands() == ("U",)
    assert KnotRef.parse("RT#LT").summands() == ("RT", "LT")
    r = KnotRef.parse("D(3, U)")
    assert r.is_double() and r.parts[0] == 3
    with pytest.raises(DiagramError):
        KnotRef.parse("X9")


def test_braid_closure_widths():
    w = braid_closure(3, [1, -2, 1, -2])
    assert w.is_closed() and w.max_width() == 6
    assert w.crossing_count() == 4


def test_components():
    assert _components([]) == {}
    # a chain joined out of order, and a second class; the labels are keyed
    # in the order they are first met
    joins = [(3, 4), (1, 2), (2, 3), (7, 8), (4, 5)]
    comp = _components(joins)
    assert list(comp) == [3, 4, 1, 2, 7, 8, 5]
    assert {comp[v] for v in (1, 2, 3, 4, 5)} == {comp[1]}
    assert comp[7] == comp[8] != comp[1]
    # repeated, reversed and self joins change no class
    again = _components(joins + [(2, 1), (5, 1), (8, 7), (9, 9)])
    assert len(set(again.values())) == 3 and again[9] == 9
    assert all((again[u] == again[v]) == (comp[u] == comp[v])
               for u in comp for v in comp)
    # long chains, joined from either end
    n = 2000
    for joins in (zip(range(n), range(1, n + 1)),
                  zip(range(n, 0, -1), range(n - 1, -1, -1))):
        assert len(set(_components(joins).values())) == 1
