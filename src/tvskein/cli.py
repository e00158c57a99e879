"""Command-line surface.

Subcommands
    bracket FILE                 Kauffman bracket of a closed diagram
    tangle FILE [--p P]          transfer-matrix invariants of a tangle
    double --J KNOT --k K --p P [--color C]
    covers --J KNOT --k K --p P --d A..B [--branched]
    sum --left REF --right REF --p P [--color I]
    brieskorn --c C --p P
    check --suite NAME

KNOT is an atlas reference or a ``.pd`` file.  Input files: ``.sw``
slice words, ``.pd`` JSON planar diagrams.  Output formats: text
(default), json, csv (covers only).  Exit codes: 0 on success, 2 on
validation errors, 3 when a specialization is undefined at the
requested level, 4 when an internal consistency check of an exact
computation fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import DiagramError, KnotRef, PDCode, SliceWord
from .golden import SUITES, golden_suite
from .recoupling import ColorError
from .skein import bracket_pd, bracket_word
from .tqft import (UnsupportedSpecialization, branched_series,
                   brieskorn_value, colored_double_invariant, connected_sum,
                   cover_series, double_invariant, tangle_invariant)

INVARIANT_SCHEMA = {
    "type": "object",
    "required": ["p", "gamma", "D", "flatRank", "matrix", "eigen", "period"],
    "properties": {
        "p": {"type": ["integer", "null"]},
        "gamma": {"type": "array",
                  "items": {"type": "object",
                            "required": ["xExp", "coeff"],
                            "properties": {"xExp": {"type": "integer"},
                                           "coeff": {"type": "string"}}}},
        "D": {"type": "string"},
        "flatRank": {"type": "integer"},
        "matrix": {"type": "array",
                   "items": {"type": "array", "items": {"type": "string"}}},
        "eigen": {"type": "array",
                  "items": {"type": "object",
                            "required": ["re", "im"],
                            "properties": {"re": {"type": "number"},
                                           "im": {"type": "number"}}}},
        "period": {"type": ["integer", "null"]},
    },
}


def validate_invariant_json(obj):
    """Structural validation against INVARIANT_SCHEMA (no dependencies)."""
    def fail(msg):
        raise ValueError(f"schema violation: {msg}")

    if not isinstance(obj, dict):
        fail("not an object")
    for key in INVARIANT_SCHEMA["required"]:
        if key not in obj:
            fail(f"missing {key}")
    if obj["p"] is not None and not isinstance(obj["p"], int):
        fail("p")
    for row in obj["gamma"]:
        if not isinstance(row, dict) or "xExp" not in row or "coeff" not in row:
            fail("gamma term")
        if not isinstance(row["xExp"], int) or not isinstance(row["coeff"], str):
            fail("gamma term types")
    if not isinstance(obj["D"], str) or not isinstance(obj["flatRank"], int):
        fail("D / flatRank")
    for row in obj["matrix"]:
        if not all(isinstance(x, str) for x in row):
            fail("matrix entries")
    for e in obj["eigen"]:
        if not isinstance(e.get("re"), (int, float)) or \
                not isinstance(e.get("im"), (int, float)):
            fail("eigen")
    if obj["period"] is not None and not isinstance(obj["period"], int):
        fail("period")
    return True


def invariant_to_json(inv):
    obj = {
        "p": inv.p,
        "gamma": [{"xExp": k, "coeff": str(c)}
                  for k, c in enumerate(inv.gamma.coeffs)],
        "D": str(inv.constant_term),
        "flatRank": inv.flat_rank,
        "matrix": [[str(inv.matrix[i, j]) for j in range(inv.matrix.cols)]
                   for i in range(inv.matrix.rows)],
        "eigen": [{"re": z.real, "im": z.imag} for z in inv.numeric_eigen],
        "period": inv.period,
    }
    validate_invariant_json(obj)
    return obj


def _print_invariant(inv, fmt, out):
    if fmt == "json":
        print(json.dumps(invariant_to_json(inv), sort_keys=True), file=out)
        return
    print(f"p = {inv.p}", file=out)
    print(f"Gamma = {inv.gamma}", file=out)
    print(f"D = {inv.constant_term}", file=out)
    print(f"flat rank = {inv.flat_rank}", file=out)
    if inv.numeric_eigen:
        eig = ", ".join(f"{z.real:+.9f}{z.imag:+.9f}i" for z in inv.numeric_eigen)
        print(f"eigenvalues = {eig}", file=out)
    if inv.period is not None:
        print(f"period = {inv.period}", file=out)


def _load_diagram(path):
    try:
        text = open(path).read()
    except OSError as e:
        raise DiagramError(str(e)) from None
    if path.endswith(".pd"):
        return PDCode.parse(text)
    return SliceWord.parse(text)


def _knot(text):
    """A ``--J`` argument: a ``.pd`` file or an atlas reference."""
    if text.endswith(".pd"):
        return _load_diagram(text)
    return KnotRef.parse(text)


def cmd_bracket(args, out):
    d = _load_diagram(args.file)
    if isinstance(d, SliceWord):
        val = bracket_word(d)
    else:
        val = bracket_pd(d)
    if args.format == "json":
        print(json.dumps({"bracket": str(val)}), file=out)
    else:
        print(f"<D> = {val}", file=out)
    return 0


def cmd_tangle(args, out):
    d = _load_diagram(args.file)
    if not isinstance(d, SliceWord):
        raise DiagramError("tangle invariants need a slice word")
    if args.p is None:
        ti = tangle_invariant(d)
        inv_p = None
    else:
        ti, inv_p = tangle_invariant(d, args.p)
    if args.format == "json":
        obj = {
            "n": d.bottom // 2,
            "Q": [[str(ti.q_matrix[i, j]) for j in range(ti.q_matrix.cols)]
                  for i in range(ti.q_matrix.rows)],
            "gamma": [{"xExp": k, "coeff": str(c)}
                      for k, c in enumerate(ti.gamma.coeffs)],
            "D": str(ti.constant_term),
            "flatRank": ti.flat_rank,
            "trace": str(ti.trace),
            "wrapping": ti.wrapping,
        }
        if inv_p is not None:
            obj["specialized"] = invariant_to_json(inv_p)
        print(json.dumps(obj, sort_keys=True), file=out)
        return 0
    print(f"n = {d.bottom // 2}", file=out)
    print(f"Gamma(L) = {ti.gamma}", file=out)
    print(f"D(L) = {ti.constant_term}", file=out)
    print(f"trace Q(T) = {ti.trace}", file=out)
    if ti.wrapping is not None:
        print(f"wrapping = {ti.wrapping}", file=out)
    if inv_p is not None:
        _print_invariant(inv_p, "text", out)
    return 0


def cmd_double(args, out):
    ref = _knot(args.J)
    if args.color is None:
        inv = double_invariant(ref, args.k, args.p)
    else:
        inv = colored_double_invariant(ref, args.k, args.p, args.color)
    _print_invariant(inv, args.format, out)
    return 0


def _parse_range(text):
    if ".." in text:
        a, b = text.split("..", 1)
        if int(b) < int(a):
            raise ValueError(f"empty range {text!r}")
        return range(int(a), int(b) + 1)
    d = int(text)
    return range(d, d + 1)


def cmd_covers(args, out):
    ref = _knot(args.J)
    ds = list(_parse_range(args.d))
    if args.branched:
        recs = branched_series(ref, args.k, args.p, ds)
        rows = [(r.d, str(r.normalized), str(r.value)) for r in recs]
        header = ("d", "eta_normalized", "value")
    else:
        recs = cover_series(ref, args.k, args.p, ds)
        rows = [(r.d, str(r.value), str(r.corrected)) for r in recs]
        header = ("d", "value", "kappa_corrected")
    if args.format == "csv":
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(f'"{x}"' if "," in str(x) else str(x) for x in row),
                  file=out)
    elif args.format == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]), file=out)
    else:
        for row in rows:
            print(f"d = {row[0]}: {row[1]}" +
                  (f"   [{header[2]}: {row[2]}]" if row[2] != row[1] else ""),
                  file=out)
    return 0


def cmd_sum(args, out):
    left = KnotRef.parse(args.left)
    right = KnotRef.parse(args.right)
    from .tqft import ColorData
    cd = ColorData.at(args.p)

    def blocks(ref):
        out = {}
        if not ref.is_double():
            raise DiagramError("pass twisted doubles D(k,J) to `sum`")
        k, inner = ref.parts
        for c in cd.good_colors():
            out[c] = colored_double_invariant(inner, k, args.p, c)
        return out

    inv = connected_sum(blocks(left), blocks(right), args.p, args.color)
    _print_invariant(inv, args.format, out)
    return 0


def cmd_brieskorn(args, out):
    val = brieskorn_value(args.c, args.p)
    if args.format == "json":
        print(json.dumps({"c": args.c, "p": args.p, "value": str(val)}), file=out)
    else:
        print(f"<Sigma(2,3,{args.c})>_{args.p} = {val}", file=out)
    return 0


def cmd_check(args, out):
    names = [args.suite] if args.suite != "all" else list(SUITES)
    all_ok = True
    for name in names:
        ok, checks = golden_suite(name)
        all_ok = all_ok and ok
        print(f"suite {name}: {'PASS' if ok else 'FAIL'}", file=out)
        for label, good, detail in checks:
            mark = "ok" if good else "FAIL"
            line = f"  [{mark}] {label}"
            if not good and detail is not None:
                line += f"   ({detail})"
            print(line, file=out)
    return 0 if all_ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="tvskein")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("tangle")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_tangle)

    p = sub.add_parser("double")
    p.add_argument("--J", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--color", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_double)

    p = sub.add_parser("covers")
    p.add_argument("--J", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", required=True, help="range A..B")
    p.add_argument("--branched", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(fn=cmd_covers)

    p = sub.add_parser("sum")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--color", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("brieskorn")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_brieskorn)

    p = sub.add_parser("check")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all'; see tvskein.golden.SUITES")
    p.set_defaults(fn=cmd_check)
    return ap


def run(argv, out=None):
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args, out)
    except UnsupportedSpecialization as e:
        print(f"unsupported specialization: {e}", file=sys.stderr)
        return 3
    except (DiagramError, ColorError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
