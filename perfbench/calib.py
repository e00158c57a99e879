"""Interpreter-speed calibration, independent of tvskein.

On a shared virtual machine the speed of the same Python code drifts: a
fixed loop of Laurent products went from 1.0 s to 0.6 s within 40 s on
the reference machine, and the quartile spread of a repeated
``double_invariant`` call was 23 % of its median.  So the benchmark times
a fixed pure-Python slice of work (50 products of two Fraction-coefficient
dicts of 21 and 9 terms, written here, not taken from the program)
around the operations, and reports each operation's time scaled by
``NOMINAL_S`` over the mean of its two neighbouring slices.  The result
reads as seconds on a machine where one slice takes ``NOMINAL_S``; on the
same repeated call the scaled spread was 6 %.  The raw times stay in the
raw output files.
"""

import time
from fractions import Fraction

NOMINAL_S = 0.040            # one slice at the reference machine's usual speed
SLICE_ITERATIONS = 50
MIN_GAP_S = 0.2              # take a new slice once this much work has run

_F = {4 * i - 40: Fraction(i + 1, 3) for i in range(21)}
_G = {4 * j - 16: Fraction((-1) ** j * (j + 2), 5) for j in range(9)}


def slice_s():
    """Time of one calibration slice, in seconds."""
    t0 = time.perf_counter()
    for _ in range(SLICE_ITERATIONS):
        out = {}
        for e1, c1 in _F.items():
            for e2, c2 in _G.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return time.perf_counter() - t0


def scale(raw_s, before, after):
    """Raw seconds between two slices, in reference-speed seconds."""
    return raw_s * NOMINAL_S * 2 / (before + after)


def timed_calls(calls):
    """Run callables in turn, with calibration slices around them.

    A slice runs first, and again after a call once ``MIN_GAP_S`` of
    calls have run since the last slice (and after the last call); every
    call is scaled by the slices on either side of its group.  Returns a
    list of [result or None, error or None, raw s, scaled s] and the
    slice times.
    """
    slices = [slice_s()]
    out, group, since = [], [], 0.0
    for i, fn in enumerate(calls):
        t0 = time.perf_counter()
        try:
            res, err = fn(), None
        except Exception as exc:            # counted as a failed operation
            res, err = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        out.append([res, err, raw, None])
        group.append(out[-1])
        since += raw
        if since >= MIN_GAP_S or i == len(calls) - 1:
            slices.append(slice_s())
            for rec in group:
                rec[3] = scale(rec[2], slices[-2], slices[-1])
            group, since = [], 0.0
    return out, slices
