"""The benchmark command.

    python3 perfbench/run.py --workload levels --seed 1 --seconds 30 --trace 0

Runs rounds of one workload until the next round would end after
``--seconds``.  A round is the workload's whole list of operations in
fresh interpreters (one worker process for a library workload, one
process per command for ``cli``), run one at a time, followed by checks
of every answer.  Times are scaled to the reference interpreter speed by
the calibration slices of ``calib.py``.  With ``--trace 0`` the last line
of standard output is the JSON result with the end-to-end metrics; with
``--trace 1`` it is an untraced round, a traced round and the
micro-timings, reported as the per-layer metrics.  Raw rounds are written to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib
import checks
import metrics
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXAMPLE45 = os.path.join("src", "tvskein", "data", "example45.sw")
PROCESS_TIMEOUT = 150
SKEIN_THREADS = "2"         # nproc of the reference machine


class RoundError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["SKEIN_THREADS"] = SKEIN_THREADS
    return env


def _spawn(args, before=None):
    """Run a child to its end, after a calibration slice unless given one.

    Returns (stdout, stderr, exit code, raw seconds, slice before) and
    passes the child its spawn time as ``time.monotonic()``.
    """
    if before is None:
        before = calib.slice_s()
    t0 = time.perf_counter()
    spawn = time.monotonic()
    argv = [sys.executable] + [a.replace("{spawn}", repr(spawn)) for a in args]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{' '.join(args)} ran over {PROCESS_TIMEOUT} s") from None
    return (proc.stdout, proc.stderr, proc.returncode,
            time.perf_counter() - t0, before)


def _worker(payload):
    out, err, code, _, before = _spawn(
        [os.path.join(BENCH, "worker.py"),
         json.dumps(dict(payload, spawn="{spawn}"))])
    if code != 0:
        raise RoundError(f"worker {payload} exited {code}: {err[-2000:]}")
    r = json.loads(out.strip().splitlines()[-1])
    r["parent_slice_s"] = before
    return r


def library_round(workload, seed, trace):
    r = _worker({"workload": workload, "seed": seed, "trace": trace})
    setup = calib.scale(r["setup_raw_s"], r["parent_slice_s"], r["setup_slice_s"])
    return dict(r, wall_s=sum(r["op_s"]), raw_wall_s=sum(r["raw_op_s"]),
                setup_s=[setup])


def check_cli(cmds, outputs, log):
    """Check every command's output against the printed values and identities."""
    eig = {}
    briesk = []
    for cmd, (out, code) in zip(cmds, outputs):
        if code != 0:
            continue
        prm = cmd.params
        if cmd.kind == "double":
            _, eig[(prm["k_class"], prm["p"])] = checks.check_cli_double(
                log, cmd.label, json.loads(out))
        elif cmd.kind == "covers":
            rows = json.loads(out)
            key = (prm["k_class"], prm["p"])
            if prm["branched"]:
                checks.check_branched_d1(log, cmd.label, rows, prm["p"])
                if key == (3, 5):
                    checks.check_d17(log, cmd.label, rows, branched=True)
                continue
            checks.check_cli_covers(log, cmd.label, rows, prm["p"], eig[key])
            if key == (-1, 5):
                checks.check_rt_cycle(log, cmd.label, rows)
            if key == (3, 5):
                checks.check_d17(log, cmd.label, rows, branched=False)
        elif cmd.kind == "sum":
            checks.check_cli_sum(log, cmd.label, json.loads(out))
        elif cmd.kind == "tangle":
            checks.check_cli_tangle(log, cmd.label, json.loads(out), prm["p"])
        elif cmd.kind == "brieskorn":
            briesk.append(checks.parse_kp(json.loads(out)["value"]))
        elif cmd.kind == "check":
            log.check(f"{cmd.label}: suite passes", "PASS" in out)
    if len(briesk) == 2:
        log.check("brieskorn: c and c + 30 agree at p = 5", briesk[0] == briesk[1])
    for cmd, (_, code) in zip(cmds, outputs):
        log.check(f"{cmd.label}: exit code 0", code == 0, code)


def cli_round(seed, trace):
    cmds = workloads.cli_commands(seed, EXAMPLE45)
    op_s, raw_op_s, setup, rss, outputs, reports = [], [], [], [], [], []
    before = None
    for cmd in cmds:
        out, err, code, raw, before = _spawn(
            [os.path.join(BENCH, "clientry.py"), "{spawn}", str(int(trace)), "--"]
            + cmd.argv, before)
        after = calib.slice_s()
        lines = err.strip().splitlines()
        try:
            rep = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise RoundError(f"{cmd.label}: no report; stderr {err[-2000:]}") from None
        raw_op_s.append(raw)
        op_s.append(calib.scale(raw, before, after))
        setup.append(calib.scale(rep["setup_s"], before, after))
        rss.append(rep["rss_mb"])
        outputs.append((out, code))
        if rep["trace"] is not None:
            reports.append(rep["trace"])
        before = after
    log = checks.Log()
    t_check = time.perf_counter()
    check_cli(cmds, outputs, log)
    failed = [cmd.label for cmd, (_, code) in zip(cmds, outputs) if code != 0]
    return {"wall_s": sum(op_s), "raw_wall_s": sum(raw_op_s), "op_s": op_s,
            "raw_op_s": raw_op_s, "labels": [c.label for c in cmds],
            "setup_s": setup, "rss_mb": max(rss), "rss_op_mb": rss,
            "attempted": len(cmds),
            "failed": len(failed), "errors": failed, "checks": log.count,
            "check_failures": log.failures,
            "check_s": time.perf_counter() - t_check,
            "trace": tracer.merge_reports(reports) if trace else None}


def one_round(workload, seed, trace):
    t0 = time.monotonic()
    if workload == "cli":
        r = cli_round(seed, trace)
    else:
        r = library_round(workload, seed, trace)
    r["duration_s"] = time.monotonic() - t0
    print(f"[{workload}] round {'traced ' if trace else ''}"
          f"{r['duration_s']:.2f} s: wall {r['wall_s']:.3f} s, "
          f"{r['attempted']} ops, {r['failed']} failed, {r['checks']} checks, "
          f"{len(r['check_failures'])} check failures", file=sys.stderr)
    for line in r["check_failures"]:
        print(f"  CHECK FAILED: {line}", file=sys.stderr)
    return r


def end_to_end(rounds):
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "slowest_op_s": statistics.median(max(r["op_s"]) for r in rounds),
        "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metrics.END_TO_END}


def per_layer(untraced, traced):
    micro = _worker({"micro": True})
    return metrics.layer_metrics(traced["trace"], traced["raw_wall_s"],
                                 traced["wall_s"] / traced["raw_wall_s"],
                                 untraced["wall_s"], micro)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tvskein", "__init__.py")):
        print(f"error: no tvskein sources under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    calib.slice_s()                         # warm the calibration loop
    try:
        if args.trace:
            rounds = [one_round(args.workload, args.seed, False),
                      one_round(args.workload, args.seed, True)]
            result_metrics = per_layer(*rounds)
        else:
            rounds = []
            while True:
                rounds.append(one_round(args.workload, args.seed, False))
                longest = max(r["duration_s"] for r in rounds)
                if time.monotonic() - start + longest > args.seconds:
                    break
            result_metrics = end_to_end(rounds)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": all(not r["check_failures"] for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": result_metrics}
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    raw = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}-"
                       f"trace{args.trace}.json")
    with open(raw, "w") as f:
        json.dump({"args": vars(args), "rounds": rounds, "result": result}, f,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
