"""One round of a library workload, in a fresh interpreter.

    python3 perfbench/worker.py '{"workload": "levels", "seed": 1,
                                  "trace": 0, "spawn": <monotonic time>}'
    python3 perfbench/worker.py '{"micro": true, "spawn": ...}'

``spawn`` is ``run.py``'s ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so set-up time
covers interpreter start and the import of tvskein.  The round runs every
operation of the workload in turn, with calibration slices around them
(``calib.py``), then checks every answer, and prints one JSON object on
its last line of standard output.
"""

import json
import resource
import sys
import time


def peak_rss_mb():
    """This process's own peak resident set (VmHWM), in MB.

    ``ru_maxrss`` is not used: after fork and exec it keeps the parent's
    resident set as a floor, so a child of a large parent reads large.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_program():
    import tvskein  # noqa: F401
    from tvskein import (cli, cyclo, data, diagram, golden, laurent,  # noqa: F401
                         matring, polyalg, recoupling, skein, tqft)
    return sys.modules


def _inputs(ops):
    """Prepare tangle words before the timed loop (input generation)."""
    from tvskein.data import example45_word
    from tvskein.diagram import SliceWord

    import workloads
    for op in ops:
        if op.kind != "tangle":
            continue
        if op.params.get("example45"):
            op.params["slice_word"] = example45_word()
            continue
        text = op.params["word"]
        if op.params["reflect"]:
            text = workloads.reflect_word(text)
        w = SliceWord.parse(text)
        op.params["slice_word"] = w.mirror() if op.params["mirror"] else w


def _execute(mods, op):
    tqft, skein, diagram = (mods["tvskein.tqft"], mods["tvskein.skein"],
                            mods["tvskein.diagram"])
    prm = op.params
    if op.kind == "double":
        return tqft.double_invariant(prm["J"], prm["k"], prm["p"])
    if op.kind == "colored":
        return skein.knot_scalars(prm["J"]).colored(prm["c"])
    if op.kind == "pd_scalar":
        return getattr(skein.knot_scalars(diagram.ATLAS_PD[prm["J"]]), prm["what"])
    if op.kind == "tangle":
        return tqft.tangle_invariant(prm["slice_word"], prm["p"])
    raise ValueError(f"unknown operation kind {op.kind!r}")


def check_results(mods, results, log):
    """Check every answer of a library round (untimed)."""
    import checks
    import oracle
    import workloads

    tqft, skein, diagram = (mods["tvskein.tqft"], mods["tvskein.skein"],
                            mods["tvskein.diagram"])
    colored = {}
    for op, res, err, _ in results:
        prm = op.params
        if err is not None:
            log.check(f"{op.label}: expected to fail", op.expect_failure, err)
            continue
        if op.kind == "double":
            p = prm["p"]
            checks.check_tv_invariant(log, op.label, res, p)
            try:
                gamma = checks.kp_vectors(res.gamma.coeffs)
            except ValueError:
                gamma = None
            if p == 5 and prm["J"] == "U":
                c0, c1 = oracle.PROP510[prm["k_class"]]
                log.check(f"{op.label}: printed Prop 5.10 Gamma",
                          checks.gamma_matches(gamma, 5,
                                               [c0] + ([c1] if c1 else [])))
            elif p == 5:
                log.check(f"{op.label}: printed Gamma_5 table",
                          checks.gamma_matches(gamma, 5,
                                               oracle.GAMMA5[prm["J"]][prm["k_class"]]))
            if p % 2 == 0 and prm["J"] == "U" and prm["k_class"] in (1, p - 1):
                knot = "F8" if prm["k_class"] == 1 else "RT"
                w = checks.witten_matrix_numeric(knot, p // 2)
                log.check(f"{op.label}: Gamma is the charpoly of the {knot} "
                          f"torus-bundle matrix",
                          checks.charpoly_matches_numeric(w, gamma, p))
            if (p, prm["k_class"]) in workloads.LEVEL_SHIFT_CHECKS:
                again = tqft.double_invariant(prm["J"], prm["k"] + p, p)
                log.check(f"{op.label}: Gamma_k = Gamma_(k+p)",
                          again.gamma == res.gamma)
        elif op.kind == "colored":
            checks.check_colored(log, op.label, prm["c"], res)
            colored[(prm["J"], prm["c"])] = checks.terms_of(res)
            if prm["c"] == 1:
                pd0, _ = diagram.normalize_writhe(diagram.ATLAS_PD[prm["J"]])
                log.check(f"{op.label}: equals the PD state sum",
                          res == skein.bracket_pd_statesum(pd0))
        elif op.kind == "pd_scalar":
            ref = skein.knot_scalars(prm["J"])
            log.check(f"{op.label}: equals the atlas word's value",
                      res == getattr(ref, prm["what"]))
        elif op.kind == "tangle":
            ti, inv = res if prm["p"] is not None else (res, None)
            word = prm["slice_word"]
            n = word.bottom // 2
            checks.check_tangle(log, op.label, ti, skein.closure_B(word),
                                skein.pairing_matrix_D(n),
                                printed=prm.get("example45", False))
            if inv is not None:
                checks.check_specialization(log, op.label, ti, inv, prm["p"])
                checks.check_tv_invariant(log, op.label, inv, prm["p"])
            if prm.get("shift_check"):
                pts = [t for t in word.shift_points() if t]
                other = tqft.tangle_invariant(word.cyclic_shift(pts[len(pts) // 2]))
                log.check(f"{op.label}: Gamma and D unchanged by a cyclic shift",
                          other.gamma == ti.gamma
                          and other.constant_term == ti.constant_term)
    for (j, c), val in colored.items():
        if j == "LT" and ("RT", c) in colored:
            log.check(f"<LT_{c}> is the bar of <RT_{c}>",
                      val == checks.laurent_bar(colored[("RT", c)]))
        if j == "F8":
            log.check(f"<F8_{c}> is bar-invariant", val == checks.laurent_bar(val))


def run_round(args):
    mods = _import_program()
    ready = time.monotonic()
    import calib
    import checks
    import workloads

    calib.slice_s()                         # warm the calibration loop
    ops = workloads.library_ops(args["workload"], args["seed"])
    _inputs(ops)
    tracer = None
    if args.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def call(op):
        if tracer is None:
            return lambda: _execute(mods, op)

        def traced():
            tracer.start()
            try:
                return _execute(mods, op)
            finally:
                tracer.stop()
        return traced

    timed, slices = calib.timed_calls([call(op) for op in ops])
    rss_mb = peak_rss_mb()
    report = None
    if tracer is not None:
        tracer.uninstall()
        report = tracer.report()
    results = [(op, res, err, raw) for op, (res, err, raw, _) in zip(ops, timed)]
    log = checks.Log()
    t_check = time.perf_counter()
    check_results(mods, results, log)
    check_s = time.perf_counter() - t_check
    return {"setup_raw_s": ready - float(args["spawn"]), "setup_slice_s": slices[0],
            "raw_op_s": [t[2] for t in timed], "op_s": [t[3] for t in timed],
            "slices_s": slices, "labels": [op.label for op in ops],
            "attempted": len(results),
            "failed": sum(1 for _, _, err, _ in results if err is not None),
            "errors": sorted({err for _, _, err, _ in results if err}),
            "rss_mb": rss_mb, "checks": log.count, "check_s": check_s,
            "check_failures": log.failures, "trace": report}


def _per_op_us(fn, batch, repeats=7):
    """Median over ``repeats`` batches of one call's scaled time, in us."""
    import calib
    times = []
    before = calib.slice_s()
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        raw = (time.perf_counter() - t0) / batch
        after = calib.slice_s()
        times.append(calib.scale(raw, before, after) * 1e6)
        before = after
    times.sort()
    return times[len(times) // 2]


def run_micro(args):
    """Micro-timings of the coefficient arithmetic on fixed operands."""
    _import_program()
    import calib
    from tvskein.cyclo import reduce_to_kp
    from tvskein.laurent import LaurentPoly

    calib.slice_s()                         # warm the calibration loop
    # 21 x 9 terms, the sizes the companions workload multiplies
    f = LaurentPoly({4 * i - 40: i + 1 for i in range(21)})
    g = LaurentPoly({4 * j - 16: (-1) ** j * (j + 2) for j in range(9)})
    # two dense elements of k_12 (degree 8)
    x = reduce_to_kp(LaurentPoly({e: e + 2 for e in range(-3, 9)}), 12)
    y = reduce_to_kp(LaurentPoly({e: 3 - e for e in range(0, 11)}), 12)
    return {"laurent.mul_us": _per_op_us(lambda: f * g, 200),
            "cyclo.mul_us": _per_op_us(lambda: x * y, 400),
            "cyclo.inv_us": _per_op_us(x.inv, 40)}


def main():
    args = json.loads(sys.argv[1])
    out = run_micro(args) if args.get("micro") else run_round(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
