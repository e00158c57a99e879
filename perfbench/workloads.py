"""Operation lists of the four workloads, made from a seed.

Every workload runs the same list of operations in every round of a
run.  The seed only picks among inputs that give the same amount of
work and answers that a checker can predict:

* twists are drawn as representatives k + m*p of a fixed class k mod p
  (Gamma_k(J) at level p depends on k mod p only);
* tangle words come from a fixed catalogue and the seed picks, for each
  word, its mirror image and/or its left-right reflection, and the
  order in which the words run;
* the Brieskorn parameter c is drawn from 1..29.

Library operations are ``Op`` records: a label, a ``kind`` that tells the
worker which library call to make, and the parameters the call and its
checker read.  The ``cli`` workload is a list of ``Command`` records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LIBRARY_WORKLOADS = ("levels", "companions", "tangles")
WORKLOADS = LIBRARY_WORKLOADS + ("cli",)


@dataclass
class Op:
    label: str
    kind: str
    params: dict = field(default_factory=dict)
    expect_failure: bool = False


def _rep(rnd, k, p):
    """A random representative of the twist class k mod p."""
    return k + p * rnd.randint(-2, 2)


# -- levels ----------------------------------------------------------------

# twist classes per level: every route (closed forms at p = 5, 6, tensor
# split at p = 10, general sum at p = 7, 8, 9, 12), twists with a period
# and twists without one (p = 5, k = 3 and p = 7, k = 3), and k = +-1 at
# every even level for the torus-bundle check
LEVEL_TWISTS = {
    5: (0, 1, 2, 3, 4),
    6: (0, 1, 2, 3, 4, 5),
    7: (1, 3, 6),
    8: (0, 1, 2, 3, 4, 5, 6, 7),
    9: (1, 8),
    10: (1, 2, 9),
    12: (1, 11),
}

# (p, k): operations whose twist is re-run at k + p by the checker
LEVEL_SHIFT_CHECKS = ((6, 1), (8, 3), (10, 2))


def levels_ops(seed):
    rnd = random.Random(seed)
    ops = []
    for p, ks in LEVEL_TWISTS.items():
        for k in ks:
            kk = _rep(rnd, k, p)
            ops.append(Op(f"double_invariant(U, {kk}, {p})", "double",
                          {"J": "U", "k": kk, "k_class": k, "p": p}))
    return ops


# -- companions ------------------------------------------------------------

COLORED_MAX = {"RT": 3, "LT": 3, "F8": 2}
GAMMA5_KNOTS = ("RT", "LT", "F8", "RT#LT")
PD_KNOTS = ("RT", "LT", "F8")


def companions_ops(seed):
    rnd = random.Random(seed)
    ops = []
    for j, cmax in COLORED_MAX.items():
        for c in range(1, cmax + 1):
            ops.append(Op(f"knot_scalars({j}).colored({c})", "colored",
                          {"J": j, "c": c}))
    for j in GAMMA5_KNOTS:
        for k in range(5):
            kk = _rep(rnd, k, 5)
            ops.append(Op(f"double_invariant({j}, {kk}, 5)", "double",
                          {"J": j, "k": kk, "k_class": k, "p": 5}))
    # <J> and [[J]] from the writhe-normalised atlas PD codes: these
    # raise "could not be swept" today and are counted as failed
    for j in PD_KNOTS:
        for what in ("bracket", "double0"):
            ops.append(Op(f"knot_scalars(pd {j}).{what}", "pd_scalar",
                          {"J": j, "what": what}, expect_failure=True))
    return ops


# -- tangles ---------------------------------------------------------------

# 2n = 6 braid words of three crossings, drawn once from
# random.Random(2024).  Freshly drawn words made the work of a run depend
# on the seed (the quartile spread of wall time over ten seeds was 30 % of
# the median), so the shapes are fixed and the seed picks cost-equal
# variants of each.
def _catalogue(count=10, crossings=3, width=6):
    rnd = random.Random(2024)
    words = []
    for _ in range(count):
        toks = "; ".join(f"{rnd.choice(('cross+', 'cross-'))} "
                         f"{rnd.randint(1, width - 1)}"
                         for _ in range(crossings))
        words.append(f"2n={width}; {toks}")
    return tuple(words)


TANGLE_CATALOGUE = _catalogue()

# catalogue indices whose cyclic shift the checker re-runs
TANGLE_SHIFT_CHECKS = (0, 4, 8)


def reflect_word(text):
    """Left-right reflection of a slice word given as text."""
    from tvskein.diagram import SliceWord

    w = SliceWord.parse(text)
    swap = {"cross+": "cross-", "cross-": "cross+"}
    width = w.bottom
    toks = []
    for kind, pos in w.tokens:
        if kind == "cup":
            toks.append((kind, width + 2 - pos))
            width += 2
        elif kind == "cap":
            toks.append((kind, width - pos))
            width -= 2
        else:
            toks.append((swap[kind], width - pos))
    return str(SliceWord(w.bottom, tuple(toks)))


def tangles_ops(seed):
    rnd = random.Random(seed)
    ops = [Op("tangle_invariant(example45)", "tangle",
              {"example45": True, "p": None}),
           Op("tangle_invariant(example45, 7)", "tangle",
              {"example45": True, "p": 7})]
    words = []
    for idx, text in enumerate(TANGLE_CATALOGUE):
        mirror, reflect = rnd.random() < 0.5, rnd.random() < 0.5
        words.append((idx, text, mirror, reflect))
    rnd.shuffle(words)
    for idx, text, mirror, reflect in words:
        ops.append(Op(f"tangle_invariant(word {idx}{' m' if mirror else ''}"
                      f"{' r' if reflect else ''})", "tangle",
                      {"word": text, "mirror": mirror, "reflect": reflect,
                       "shift_check": idx in TANGLE_SHIFT_CHECKS, "p": None}))
    return ops


def library_ops(workload, seed):
    return {"levels": levels_ops, "companions": companions_ops,
            "tangles": tangles_ops}[workload](seed)


# -- cli -------------------------------------------------------------------


@dataclass
class Command:
    label: str
    argv: list
    kind: str
    params: dict = field(default_factory=dict)


def cli_commands(seed, example45_path):
    """The commands a user types, with seeded twist representatives."""
    rnd = random.Random(seed)
    cmds = []
    # (twist class, level): a `double --format json` of a seeded
    # representative and a `covers` of the class itself, so the checker
    # can rebuild each cover value from the printed eigenvalues.  Cover
    # twists stay fixed: the signature correction depends on k itself, and
    # for k < -1 it costs seconds per d (see CHANGES.md).  D_(-1)(U) at
    # p = 5 is the RT cover family.
    pairs = ((-1, 5), (3, 5), (1, 7), (1, 9), (1, 10))
    for k_class, p in pairs:
        k = _rep(rnd, k_class, p)
        cmds.append(Command(f"double U {k} {p}",
                            ["double", "--J", "U", "--k", str(k), "--p", str(p),
                             "--format", "json"],
                            "double", {"k": k, "k_class": k_class, "p": p}))
        branches = (False, True) if (k_class, p) == (3, 5) else (False,)
        for branched in branches:
            argv = ["covers", "--J", "U", "--k", str(k_class), "--p", str(p),
                    "--d", "1..60", "--format", "json"]
            if branched:
                argv.append("--branched")
            cmds.append(Command(
                f"covers U {k_class} {p}{' --branched' if branched else ''}",
                argv, "covers", {"k_class": k_class, "p": p,
                                 "branched": branched}))
    # colored doubles through the theta/tet sums (colors 0, 2, 4 at p = 7)
    cmds.append(Command("covers U 1 7 --branched",
                        ["covers", "--J", "U", "--k", "1", "--p", "7", "--d",
                         "1..60", "--format", "json", "--branched"],
                        "covers", {"k_class": 1, "p": 7, "branched": True}))
    kf = _rep(rnd, 1, 5)
    cmds.append(Command(f"sum D({kf},U) # D({kf},U) 5",
                        ["sum", "--left", f"D({kf},U)", "--right", f"D({kf},U)",
                         "--p", "5", "--format", "json"], "sum", {"p": 5}))
    cmds.append(Command("tangle example45 7",
                        ["tangle", example45_path, "--p", "7", "--format",
                         "json"], "tangle", {"p": 7}))
    c = rnd.randint(1, 29)
    for cc in (c, c + 30):
        cmds.append(Command(f"brieskorn {cc} 5",
                            ["brieskorn", "--c", str(cc), "--p", "5",
                             "--format", "json"], "brieskorn", {"c": cc}))
    for suite in ("appendixA", "p2p6"):
        cmds.append(Command(f"check {suite}", ["check", "--suite", suite],
                            "check", {"suite": suite}))
    return cmds
