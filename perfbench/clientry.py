"""Run one tvskein command the way a user's shell would, and report timings.

    python3 perfbench/clientry.py <spawn time> <trace 0|1> -- <tvskein args>

The command's output goes to standard output as usual.  The report (set-up
time, peak resident set, exit code and, when traced, the layer trace) is
the last line of standard error, as JSON.
"""

import json
import sys
import time

from worker import peak_rss_mb


def main():
    spawn, trace = float(sys.argv[1]), sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import tvskein.cli
    ready = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    code = tvskein.cli.run(argv)
    sys.stdout.flush()
    report = None
    if tracer is not None:
        tracer.stop()
        report = tracer.report()
    out = {"setup_s": ready - spawn, "code": code, "trace": report,
           "rss_mb": peak_rss_mb()}
    print(json.dumps(out), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
