"""Metric names, units and how the per-layer ones come from a trace."""

from __future__ import annotations

from tracer import LAYERS

END_TO_END = (("wall_s", "s"), ("slowest_op_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# name -> (unit, source); a source is ("time", function key),
# ("calls", function key) or the name of a derived field below
_FUNCTION_METRICS = {
    "laurent.poly_gcd_s": ("s", ("time", "laurent.poly_gcd")),
    "laurent.poly_gcd_calls": ("count", ("calls", "laurent.poly_gcd")),
    "cyclo.reduce_to_kp_s": ("s", ("time", "cyclo.reduce_to_kp")),
    "polyalg.root_periodicity_s": ("s", ("time", "polyalg.root_periodicity")),
    "polyalg.root_periodicity_calls": ("count",
                                       ("calls", "polyalg.root_periodicity")),
    "polyalg.period_found_ratio": ("ratio", "period_found_ratio"),
    "polyalg.numeric_roots_s": ("s", ("time", "polyalg.numeric_roots")),
    "polyalg.power_sums_s": ("s", ("time", "polyalg.power_sums")),
    "polyalg.tensor_product_s": ("s", ("time", "polyalg.tensor_product")),
    "matring.berkowitz_charpoly_s": ("s", ("time", "matring.berkowitz_charpoly")),
    "matring.berkowitz_charpoly_calls": ("count",
                                         ("calls", "matring.berkowitz_charpoly")),
    "matring.max_order": ("count", "max_order"),
    "matring.flat_decompose_s": ("s", ("time", "matring.flat_decompose")),
    "matring.similarity_invariants_s": ("s", ("time",
                                              "matring.similarity_invariants")),
    "matring.inverse_s": ("s", ("time", "matring.inverse")),
    "diagram.cable_word_s": ("s", ("time", "diagram.cable_word")),
    "diagram.max_cable_crossings": ("count", "max_cable_crossings"),
    "skein.apply_block_calls": ("count", ("calls",
                                          "skein.SkeinEngine.apply_block")),
    "skein.states_in": ("count", "states_in"),
    "skein.colored_bracket_s": ("s", ("time", "skein.colored_bracket")),
    "skein.transfer_Q_s": ("s", ("time", "skein.transfer_Q")),
    "skein.closure_B_s": ("s", ("time", "skein.closure_B")),
    "recoupling.jones_wenzl_s": ("s", ("time", "recoupling.jones_wenzl")),
    "recoupling.theta_tet_s": ("s", ("time", "recoupling.theta_tet")),
    "tqft.general_B_matrix_s": ("s", ("time", "tqft.general_B_matrix")),
    "tqft.colored_B_matrix_s": ("s", ("time", "tqft.colored_B_matrix")),
    "tqft.make_invariant_s": ("s", ("time", "tqft.make_invariant")),
    "tqft.double_invariant_calls": ("count", ("calls", "tqft.double_invariant")),
    "tqft.cover_series_s": ("s", ("time", "tqft.cover_series")),
    "tqft.branched_series_s": ("s", ("time", "tqft.branched_series")),
    "tqft.total_signature_s": ("s", ("time", "tqft.total_signature")),
    "cli.double_invariant_calls_per_covers": ("count", "calls_per_covers"),
    "golden.suite_s": ("s", ("time", "golden.golden_suite")),
}

MICRO = (("laurent.mul_us", "us"), ("cyclo.mul_us", "us"),
         ("cyclo.inv_us", "us"))

TRACE = (("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
         ("trace.overhead_s", "s"), ("trace.outside_s", "s"),
         ("trace.coverage", "ratio"))


def self_name(layer):
    """The self-time metric of a layer (the cli layer's span is ``run``)."""
    return "cli.run_self_s" if layer == "cli" else f"{layer}.self_s"


PER_LAYER = (tuple((self_name(layer), "s") for layer in LAYERS)
             + tuple((name, unit) for name, (unit, _) in _FUNCTION_METRICS.items())
             + MICRO + TRACE)


def layer_metrics(report, traced_raw_wall, factor, untraced_wall, micro):
    """All per-layer metrics from a merged trace report.

    ``traced_raw_wall`` is the raw time of the traced operations, which the
    layer self times and the outside time add up to; ``factor`` scales raw
    seconds to reference-speed seconds (see ``calib.py``), as the
    untraced wall time already is.
    """
    calls = report["calls"]
    derived = {
        "period_found_ratio": (report["periods_found"]
                               / calls.get("polyalg.root_periodicity", 0)
                               if calls.get("polyalg.root_periodicity") else 0.0),
        "max_order": report["max_order"],
        "max_cable_crossings": report["max_cable_crossings"],
        "states_in": report["states_in"],
        "calls_per_covers": (report["double_in_covers"] / report["plain_covers"]
                             if report["plain_covers"] else 0.0),
    }
    out = {}
    for layer in LAYERS:
        out[self_name(layer)] = report["layer_self"][layer] * factor
    for name, (_, src) in _FUNCTION_METRICS.items():
        if isinstance(src, str):
            out[name] = derived[src]
        elif src[0] == "time":
            out[name] = report["fn_time"].get(src[1], 0.0) * factor
        else:
            out[name] = calls.get(src[1], 0)
    out.update(micro)
    layers_total = sum(report["layer_self"].values())
    out["trace.wall_s"] = traced_raw_wall * factor
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.outside_s"] = (traced_raw_wall - layers_total) * factor
    out["trace.coverage"] = layers_total / traced_raw_wall if traced_raw_wall else 0.0
    units = dict(PER_LAYER)
    return {name: {"value": out[name], "unit": units[name]}
            for name, _ in PER_LAYER}
