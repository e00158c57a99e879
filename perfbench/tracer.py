"""Spans around calls into the public functions of each tvskein layer.

The tracer patches functions from outside the program: every public
module-level function of a layer module, wherever a tvskein module has
bound it (``tqft`` binds ``flat_decompose`` with ``from .matring import
...``, so ``tqft.flat_decompose`` is patched as well as
``matring.flat_decompose``), plus ``SkeinEngine.apply_block``.  Helpers
that run once per ring element or per state are left alone, because a
span around them would cost more than the work they do.

Time is charged at every span boundary to the innermost open span of
each thread that has one.  When worker threads have open spans, the main
thread (which then only waits for them) is not charged, and the elapsed
time is shared equally between the busy threads: under the interpreter
lock they take turns.  So a layer's self time is its span time minus its
child spans, and the self times of all layers plus the time outside any
span add up to the traced window exactly.  A function's time is the
time charged while it is on its thread's stack (outermost call only).
"""

from __future__ import annotations

import sys
import threading
import time

LAYERS = ("laurent", "cyclo", "polyalg", "matring", "diagram", "skein",
          "recoupling", "tqft", "golden", "cli")

# public functions called per element, per state or per matching pair
SKIP = {
    "cyclo": {"cyclotomic_poly", "level_degree", "level_d"},
    "skein": {"splice", "glue_loops", "mirror_matching", "catalan",
              "matchings"},
    "recoupling": {"tl_identity", "tl_e", "tl_compose", "qfact"},
    "polyalg": {"derivative"},
}

# functions whose time is reported as one group (outermost call of any)
GROUPS = {"recoupling.theta": "recoupling.theta_tet",
          "recoupling.tet": "recoupling.theta_tet"}


def _branched(args):
    """Whether a ``cmd_covers(args, out)`` call asks for branched covers."""
    return bool(args) and getattr(args[0], "branched", False)


class _ThreadState:
    __slots__ = ("frames", "acc", "depth", "is_main")

    def __init__(self, is_main):
        self.frames = []        # [layer, time key, acc at entry, outermost]
        self.acc = 0.0          # time charged to this thread so far
        self.depth = {}         # time key -> open activations
        self.is_main = is_main


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.states = {}
        self.main_ident = threading.main_thread().ident
        self.last = None
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.outside = 0.0
        self.fn_time = {}
        self.calls = {}
        self.states_in = 0
        self.max_order = 0
        self.max_cable_crossings = 0
        self.periods_found = 0
        self.plain_covers = 0
        self.in_plain_covers = 0
        self.double_in_covers = 0
        self._patched = []

    # -- time accounting ----------------------------------------------------

    def _advance(self, now):
        dt = now - self.last
        self.last = now
        if dt <= 0:
            return
        busy = [st for st in self.states.values() if st.frames]
        if len(busy) > 1:
            busy = [st for st in busy if not st.is_main] or busy
        if not busy:
            self.outside += dt
            return
        share = dt / len(busy)
        for st in busy:
            st.acc += share
            self.layer_self[st.frames[-1][0]] += share

    def _state(self):
        ident = threading.get_ident()
        st = self.states.get(ident)
        if st is None:
            st = self.states[ident] = _ThreadState(ident == self.main_ident)
        return st

    def enter(self, layer, tkey, ckey, args):
        with self.lock:
            self._advance(time.perf_counter())
            st = self._state()
            d = st.depth.get(tkey, 0)
            st.depth[tkey] = d + 1
            st.frames.append((layer, tkey, st.acc, d == 0))
            self.calls[ckey] = self.calls.get(ckey, 0) + 1
            if ckey == "skein.SkeinEngine.apply_block":
                self.states_in += len(args[1])
            elif ckey == "matring.berkowitz_charpoly":
                self.max_order = max(self.max_order, args[0].rows)
            elif ckey == "cli.cmd_covers" and not _branched(args):
                self.plain_covers += 1
                self.in_plain_covers += 1
            elif ckey == "tqft.double_invariant" and self.in_plain_covers:
                self.double_in_covers += 1

    def leave(self, ckey, args, result):
        with self.lock:
            self._advance(time.perf_counter())
            st = self._state()
            _, tkey, acc0, outermost = st.frames.pop()
            st.depth[tkey] -= 1
            if outermost:
                self.fn_time[tkey] = self.fn_time.get(tkey, 0.0) + st.acc - acc0
            if ckey == "polyalg.root_periodicity" and result is not None:
                self.periods_found += 1
            elif ckey == "diagram.cable_word" and result is not None:
                self.max_cable_crossings = max(self.max_cable_crossings,
                                               result.crossing_count())
            elif ckey == "cli.cmd_covers" and not _branched(args):
                self.in_plain_covers -= 1

    # -- patching -----------------------------------------------------------

    def _wrap(self, layer, ckey, fn):
        tkey = GROUPS.get(ckey, ckey)
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(layer, tkey, ckey, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.leave(ckey, args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch the layers of an imported tvskein package."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"tvskein.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in SKIP.get(layer, ()):
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}",
                                                     obj))
        for mname, mod in list(sys.modules.items()):
            if mname != "tvskein" and not mname.startswith("tvskein."):
                continue
            for gname, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, gname, hit[1])
                    self._patched.append((mod, gname, obj))
        engine = getattr(sys.modules.get("tvskein.skein"), "SkeinEngine", None)
        if engine is not None:
            orig = engine.apply_block
            engine.apply_block = self._wrap(
                "skein", "skein.SkeinEngine.apply_block", orig)
            self._patched.append((engine, "apply_block", orig))

    def uninstall(self):
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    # -- window and report --------------------------------------------------

    def start(self):
        self.last = time.perf_counter()

    def stop(self):
        with self.lock:
            self._advance(time.perf_counter())

    def report(self):
        """Raw aggregates; ``metrics.layer_metrics`` turns them into metrics."""
        return {"layer_self": dict(self.layer_self), "outside": self.outside,
                "fn_time": dict(self.fn_time), "calls": dict(self.calls),
                "states_in": self.states_in, "max_order": self.max_order,
                "max_cable_crossings": self.max_cable_crossings,
                "periods_found": self.periods_found,
                "plain_covers": self.plain_covers,
                "double_in_covers": self.double_in_covers}


MAX_FIELDS = ("max_order", "max_cable_crossings")


def merge_reports(reports):
    """Sum several processes' aggregates (maxima for the max fields)."""
    out = {}
    for rep in reports:
        for key, val in rep.items():
            if isinstance(val, dict):
                acc = out.setdefault(key, {})
                for k, v in val.items():
                    acc[k] = acc.get(k, 0) + v
            elif key in MAX_FIELDS:
                out[key] = max(out.get(key, 0), val)
            else:
                out[key] = out.get(key, 0) + val
    return out
