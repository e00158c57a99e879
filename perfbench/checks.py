"""Checks of the program's answers, made apart from the program.

Arithmetic here does not use tvskein: elements of k_p are coefficient
vectors reduced by the cyclotomic polynomial phi_2p from sympy, Laurent
polynomials are {exponent: Fraction} dicts, norms, factorisations and
characteristic polynomials over Q come from sympy, and complex values
use the embedding A -> exp(pi i / p), which is a field embedding of k_p,
so it turns every identity in k_p into an identity of complex numbers.
Program functions appear only as the second side of an identity the
method must satisfy (Q(T) D(n) = B(T) with ``closure_B``; a state sum
against the transfer engine; a re-run at a shifted twist or word).

Each checker takes a ``Log`` and records one line per check; a check
fails by recording ``ok=False``.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache

import oracle

EMBED_TOL = 1e-9
RATIONAL_A = (Fraction(2), Fraction(-3, 2))


class Log:
    def __init__(self):
        self.count = 0
        self.failures = []

    def check(self, label, ok, detail=None):
        self.count += 1
        if not ok:
            self.failures.append(label if detail is None else f"{label}: {detail}")
        return ok


# -- Laurent polynomials and k_p, without the program ------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?A(?:\^(-?\d+))?)?")


def parse_laurent(text):
    """'-A^-16 + 2 - 1/2*A^4' -> {exponent: Fraction}."""
    s = text.replace(" ", "")
    if s in ("", "0"):
        return {}
    out = {}
    for term in re.split(r"(?<=[^\^])(?=[+-])", s):
        m = _TERM.fullmatch(term)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad Laurent term {term!r} in {text!r}")
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        e = 0 if not m.group(3) else int(m.group(4) or 1)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def parse_kp(text):
    """'(1 - A^3) * kappa^0 @ p=5' -> (p, grade, coefficient vector)."""
    m = re.fullmatch(r"\((.*)\) \* kappa\^(\d+) @ p=(\d+)", text.strip())
    if not m:
        raise ValueError(f"bad k_p element {text!r}")
    p = int(m.group(3))
    return p, int(m.group(2)), reduce_laurent(parse_laurent(m.group(1)), p)


@lru_cache(maxsize=None)
def phi(n):
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial."""
    import sympy
    x = sympy.Symbol("x")
    return tuple(int(c) for c in
                 reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))


def level_degree(p):
    return len(phi(2 * p)) - 1


def reduce_laurent(terms, p):
    """Coefficient vector of a Laurent polynomial in k_p (A^(2p) = 1)."""
    n = 2 * p
    ph = phi(n)
    deg = len(ph) - 1
    v = [Fraction(0)] * max(n, deg)
    for e, c in terms.items():
        v[e % n] += Fraction(c)
    for i in range(len(v) - 1, deg - 1, -1):
        c = v[i]
        if c:
            for j in range(deg + 1):
                v[i - deg + j] -= c * ph[j]
    return tuple(v[:deg])


def kp_mul(a, b, p):
    prod = {}
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = prod.get(i + j, 0) + x * y
    return reduce_laurent(prod, p)


def poly_mul_kp(f, g, p):
    """Product of polynomials in x with k_p coefficient vectors."""
    zero = (Fraction(0),) * level_degree(p)
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = tuple(u + v for u, v in zip(out[i + j], kp_mul(a, b, p)))
    return out


def embed(vec, p):
    z = cmath.exp(1j * cmath.pi / p)
    return sum(float(c) * z ** i for i, c in enumerate(vec) if c)


def laurent_eval(terms, a):
    return sum((Fraction(c) * Fraction(a) ** e for e, c in terms.items()),
               Fraction(0))


def laurent_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def laurent_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def laurent_bar(f):
    return {-e: c for e, c in f.items()}


def terms_of(lp):
    """{exponent: Fraction} of a program LaurentPoly, read from its text."""
    return parse_laurent(str(lp))


def _close(u, v, scale=1.0):
    return abs(u - v) <= EMBED_TOL * max(1.0, abs(u), abs(v), scale)


# -- periods: the norm of Gamma and its cyclotomic factors -------------------


def norm_period(gamma, p):
    """The period of Gamma (coefficient vectors over k_p), or None if it has
    a root that is not a root of unity; no bound on the period.

    The norm N(x) = Res_A(phi_2p(A), Gamma(x, A)) has as roots all Galois
    conjugates of Gamma's roots, and conjugation keeps the order of a root
    of unity.  So Gamma has a period iff every factor of N over Q is
    cyclotomic, and the period is the lcm of their orders.
    """
    import sympy
    A, x = sympy.symbols("A x")
    if len(gamma) <= 1:
        return 1
    g = sum(sum(sympy.Rational(c.numerator, c.denominator) * A ** i
                for i, c in enumerate(vec)) * x ** j
            for j, vec in enumerate(gamma))
    norm = sympy.resultant(sympy.cyclotomic_poly(2 * p, A), g, A)
    _, factors = sympy.factor_list(sympy.expand(norm), x)
    period = 1
    for f, _ in factors:
        poly = sympy.Poly(f, x)
        if poly.degree() < 1:
            continue
        poly = poly.monic()
        coeffs = poly.all_coeffs()
        if not all(sympy.Rational(c).q == 1 for c in coeffs):
            return None
        d = poly.degree()
        order = None
        for m in range(1, 2 * d * d + 3):
            if sympy.totient(m) == d and coeffs == \
                    sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs():
                order = m
                break
        if order is None:
            return None
        period = period * order // math.gcd(period, order)
    return period


def period_bound(p):
    """The scan bound of ``root_periodicity`` today: 8 max(p, 2)."""
    return 8 * max(p, 2)


def check_period(log, label, gamma, p, reported, bound=None):
    """The reported period is the norm's; None only when there is none or
    it lies above the bound the program scans to."""
    bound = period_bound(p) if bound is None else bound
    true = norm_period(gamma, p)
    ok = reported == true or (reported is None and true is not None
                              and true > bound)
    log.check(f"{label}: period {reported} agrees with the norm "
              f"(period {true}, bound {bound})", ok)


# -- TVInvariant checks (library workloads) ------------------------------------


def kp_vectors(elems):
    """Coefficient vectors of grade-0 k_p elements, read from their text."""
    out = []
    for e in elems:
        _, grade, vec = parse_kp(str(e))
        if grade:
            raise ValueError(f"{e} is not of grade 0")
        out.append(vec)
    return out


def check_tv_invariant(log, label, inv, p):
    """Period against the norm, power sums against traces of matrix powers."""
    try:
        gamma = kp_vectors(inv.gamma.coeffs)
        n = inv.matrix.rows
        entries = [kp_vectors([inv.matrix[i, j] for j in range(n)])
                   for i in range(n)]
    except ValueError as exc:
        log.check(f"{label}: Gamma and the matrix are of grade 0", False, exc)
        return
    if inv.flat_rank == 0:
        log.check(f"{label}: no flat part, no period", inv.period is None)
    else:
        check_period(log, label, gamma, p, inv.period)
    import numpy as np
    m = np.array([[embed(v, p) for v in row] for row in entries],
                 dtype=complex).reshape(n, n)
    d_max = 2 * len(gamma) + 2
    sums = kp_vectors(inv.power_sums(d_max)[d] for d in range(1, d_max + 1))
    acc = np.eye(n, dtype=complex)
    ok = True
    for d in range(1, d_max + 1):
        acc = acc @ m
        tr = complex(np.trace(acc))
        scale = float(np.abs(acc).sum()) if n else 1.0
        ok = ok and _close(embed(sums[d - 1], p), tr, scale)
    log.check(f"{label}: power sums equal traces of matrix powers, "
              f"d <= {d_max}", ok)


def gamma_matches(gamma, p, expect_texts):
    """Gamma's coefficient vectors equal the monic polynomial with the
    printed low coefficients."""
    want = [reduce_laurent(parse_laurent(t), p) for t in expect_texts]
    want.append(reduce_laurent({0: 1}, p))
    return gamma == want


def witten_matrix_numeric(knot, r):
    """The torus-bundle monodromy matrix of RT or F8 at level 2r, numerically."""
    import numpy as np
    p = 2 * r
    a = cmath.exp(1j * cmath.pi / p)
    gauss = sum(a ** (-(m * m)) for m in range(1, 4 * r + 1))
    sign = 1 if (r + 1) % 2 == 0 else -1
    e0 = 4 - r * r if knot == "RT" else -(r * r)
    pref = a ** e0 * sign / (4 * r) * gauss
    w = np.zeros((r - 1, r - 1), dtype=complex)
    for j in range(1, r):
        for l in range(1, r):
            e = -(l * l) if knot == "RT" else j * j + 2 * l * l
            w[j - 1, l - 1] = pref * (-a) ** e * (a ** (2 * l * j) - a ** (-2 * l * j))
    return w


def charpoly_matches_numeric(w, gamma_vecs, p):
    """Normalised charpoly of a complex matrix against Gamma (monic, embedded)."""
    import numpy as np
    if gamma_vecs is None:
        return False
    cp = list(np.poly(w))                     # descending, monic
    while len(cp) > 1 and abs(cp[-1]) < 1e-9:
        cp.pop()
    want = [embed(v, p) for v in reversed(gamma_vecs)]
    return len(cp) == len(want) and all(_close(complex(u), v)
                                        for u, v in zip(cp, want))


# -- tangles --------------------------------------------------------------------


def _lmat(mat):
    return [[terms_of(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]


def lmat_mul(x, y):
    n, k, m = len(x), len(y), len(y[0]) if y else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = {}
            for t in range(k):
                acc = laurent_add(acc, laurent_mul(x[i][t], y[t][j]))
            row.append(acc)
        out.append(row)
    return out


def check_tangle(log, label, ti, b_mat, d_mat, printed=False):
    """Identities of one tangle invariant; ``b_mat``/``d_mat`` from the program."""
    import sympy
    q = _lmat(ti.q_matrix)
    b = _lmat(b_mat)
    log.check(f"{label}: Q(T) D(n) = B(T)", lmat_mul(q, _lmat(d_mat)) == b)
    c = len(q)
    gamma = [terms_of(g) for g in ti.gamma.coeffs]
    r = len(gamma) - 1
    x = sympy.Symbol("x")
    nonzero_det = False
    for a in RATIONAL_A:
        qa = sympy.Matrix(c, c, lambda i, j: laurent_eval(q[i][j], a))
        cp = sympy.Poly(qa.charpoly(x).as_expr(), x)
        g = sum(laurent_eval(t, a) * x ** j for j, t in enumerate(gamma))
        want = sympy.Poly(sympy.expand(x ** (c - r) * g), x)
        log.check(f"{label}: charpoly of Q(T) at A={a} is x^(c-r) Gamma", cp == want)
        if c > 0:
            ba = sympy.Matrix(c, c, lambda i, j: laurent_eval(b[i][j], a))
            nonzero_det = nonzero_det or ba.det() != 0
    n = ti.word.bottom // 2
    if n >= 2:
        log.check(f"{label}: wrapping {ti.wrapping} agrees with det B(T) at "
                  f"rational A", (ti.wrapping == 2 * n) == nonzero_det)
    log.check(f"{label}: D(L) is Gamma's constant term",
              terms_of(ti.constant_term) == gamma[0])
    if printed:
        want_q = [[parse_laurent(t) for t in row] for row in oracle.EX45_Q]
        want_b = [[parse_laurent(t) for t in row] for row in oracle.EX45_B]
        log.check(f"{label}: printed Q(T)", q == want_q)
        log.check(f"{label}: printed B(T)", b == want_b)
        log.check(f"{label}: printed D(L)", gamma[0] == parse_laurent(oracle.EX45_D))
        log.check(f"{label}: printed Gamma(L)",
                  gamma == [parse_laurent(oracle.EX45_D),
                            parse_laurent(oracle.EX45_G1), {0: Fraction(1)}])
        log.check(f"{label}: wrapping number {oracle.EX45_WRAPPING}",
                  ti.wrapping == oracle.EX45_WRAPPING, ti.wrapping)


def check_specialization(log, label, ti, inv, p):
    """Gamma at level p is the reduction of Gamma(L) (D(L) does not vanish)."""
    want = [reduce_laurent(terms_of(g), p) for g in ti.gamma.coeffs]
    try:
        ok = kp_vectors(inv.gamma.coeffs) == want
    except ValueError:
        ok = False
    log.check(f"{label}: Gamma_{p} is Gamma(L) reduced to k_{p}", ok)


# -- colored brackets -------------------------------------------------------------


def check_colored(log, label, c, value):
    t = terms_of(value)
    log.check(f"{label}: value at A = 1 is (-1)^c (c + 1)",
              sum(t.values(), Fraction(0)) == (-1) ** c * (c + 1))


# -- cli ----------------------------------------------------------------------------


def _json_gamma(obj):
    rows = sorted(obj["gamma"], key=lambda r: r["xExp"])
    out = []
    p = obj["p"]
    for r in rows:
        pp, grade, vec = parse_kp(r["coeff"])
        if pp != p or grade != 0:
            raise ValueError(f"gamma coefficient {r['coeff']!r} is not grade 0 at p={p}")
        out.append(vec)
    return out


def check_cli_double(log, label, obj):
    p = obj["p"]
    gamma = _json_gamma(obj)
    check_period(log, label, gamma, p, obj["period"])
    eig = [complex(e["re"], e["im"]) for e in obj["eigen"]]
    log.check(f"{label}: {len(eig)} eigenvalues for degree {len(gamma) - 1}",
              len(eig) == len(gamma) - 1)
    coeffs = [embed(v, p) for v in gamma]
    ok = all(abs(sum(c * z ** j for j, c in enumerate(coeffs))) <=
             EMBED_TOL * max(1.0, sum(abs(c) * abs(z) ** j
                                      for j, c in enumerate(coeffs)))
             for z in eig)
    log.check(f"{label}: eigenvalues are roots of Gamma", ok)
    return gamma, eig


def check_cli_covers(log, label, rows, p, eig):
    ok = True
    for row in rows:
        pp, grade, vec = parse_kp(row["value"])
        d = row["d"]
        want = sum(z ** d for z in eig)
        ok = ok and pp == p and grade == 0 and \
            _close(embed(vec, p), want, sum(abs(z) ** d for z in eig))
    log.check(f"{label}: each value is the d-th power sum of the printed "
              f"eigenvalues", ok)


def check_rt_cycle(log, label, rows):
    vals = {r["d"]: parse_kp(r["value"])[2] for r in rows}
    want = [reduce_laurent(parse_laurent(t), 5) for t in oracle.RT_COVER_CYCLE]
    log.check(f"{label}: printed RT cycle for d = 1..15",
              [vals[d] for d in range(1, 16)] == want)
    top = max(vals)
    log.check(f"{label}: period 15 up to d = {top}",
              all(vals[d] == vals[d + 15] for d in range(1, top - 14)))


def check_d17(log, label, rows, branched):
    key = "eta_normalized" if branched else "value"
    text = oracle.BRANCHED_81_D17 if branched else oracle.COVERS_81_D17
    vals = {r["d"]: parse_kp(r[key])[2] for r in rows}
    log.check(f"{label}: printed d = 17 value",
              vals[17] == reduce_laurent(parse_laurent(text), 5))


def check_branched_d1(log, label, rows, p):
    """The colored traces weighted by <e_2i> sum to 1 at d = 1."""
    first = next(r for r in rows if r["d"] == 1)
    log.check(f"{label}: normalised d = 1 value is 1",
              parse_kp(first["eta_normalized"]) == (p, 0, reduce_laurent({0: 1}, p)))


def check_cli_sum(log, label, obj):
    p = 5
    want = [reduce_laurent({0: 1}, p)]
    for factor in oracle.F8F8_FACTORS:
        want = poly_mul_kp(want, [reduce_laurent(parse_laurent(t), p)
                                  for t in factor], p)
    log.check(f"{label}: printed Gamma of D_1(U) # D_1(U)",
              _json_gamma(obj) == want)
    got = [complex(e["re"], e["im"]) for e in obj["eigen"]]
    exp = [cmath.exp(2j * cmath.pi * t) for t in oracle.F8F8_EIGEN_TURNS]
    ok = len(got) == len(exp)
    for z in exp:
        hit = next((i for i, g in enumerate(got) if abs(g - z) < EMBED_TOL), None)
        ok = ok and hit is not None
        if hit is not None:
            got.pop(hit)
    log.check(f"{label}: printed eigenvalues within {EMBED_TOL}", ok)


def check_cli_tangle(log, label, obj, p):
    q = [[parse_laurent(t) for t in row] for row in obj["Q"]]
    log.check(f"{label}: printed Q(T)",
              q == [[parse_laurent(t) for t in row] for row in oracle.EX45_Q])
    gamma = [parse_laurent(r["coeff"]) for r in
             sorted(obj["gamma"], key=lambda r: r["xExp"])]
    log.check(f"{label}: printed Gamma(L)",
              gamma == [parse_laurent(oracle.EX45_D), parse_laurent(oracle.EX45_G1),
                        {0: Fraction(1)}])
    log.check(f"{label}: wrapping number {oracle.EX45_WRAPPING}",
              obj["wrapping"] == oracle.EX45_WRAPPING)
    spec = obj["specialized"]
    log.check(f"{label}: Gamma_{p} is Gamma(L) reduced to k_{p}",
              _json_gamma(spec) == [reduce_laurent(g, p) for g in gamma])
