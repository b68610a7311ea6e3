"""The layers the traced run measures, and the per-layer metrics built from spans.

Layers are the modules of ``src/evshape`` (``errors`` does no work and is
left out).  Every metric is named ``<module>.<public name>.<quantity>``.
Counts come from arguments and return values, read outside the package:
window width from ``values_range(lo, hi)``, rejected peaks from the
``ConfidenceSetResult`` or ``IntSet`` returned, support size from the
``Pmf`` handed to ``lcm``, draws from the list ``sample`` returns.
"""

from __future__ import annotations

import numpy as np

from tracer import Target, parent_names, root_index, self_times

_INT64 = 8


def _draws(args, kwargs, result):
    return len(result), 0


def _type1_shape(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    if c.scenario != "type1":
        return 0, 0
    reps, n, hi = c.reps, c.n, c.distribution.hi
    # arrays _run_type1 allocates: obs (reps, n), counts (reps, hi + 2),
    # log factors (reps, hi + 1); computed from the config, not measured
    return reps * n, _INT64 * reps * (n + (hi + 2) + (hi + 1))


def _window(args, kwargs, result):
    lo = args[1] if len(args) > 1 else kwargs["lo"]
    hi = args[2] if len(args) > 2 else kwargs["hi"]
    return hi - lo + 1, 0


def _confidence_set(args, kwargs, result):
    width = 0 if result.window is None else result.window[1] - result.window[0] + 1
    return width, len(result.rejected.members)


def _mode_estimate(args, kwargs, result):
    return 0, len(result.members)


def _support(args, kwargs, result):
    q = args[0] if args else kwargs["q"]
    return q.hi + 1, 0


TARGETS = [
    Target("pmf", "sample", _draws),
    Target("harness", "run_experiment", _type1_shape),
    Target("eprocess", "MonotoneTracker.update"),
    Target("eprocess", "MonotoneTracker.mixture_value"),
    Target("eprocess", "UnimodalTracker.update"),
    Target("eprocess", "UnimodalTracker.unimodal_value"),
    Target("eprocess", "UnimodalFamily.update"),
    Target("eprocess", "UnimodalFamily.values_range", _window),
    Target("eprocess", "numeraire_eprocess"),
    Target("mode", "confidence_set", _confidence_set),
    Target("mode", "mode_estimate", _mode_estimate),
    Target("mode", "UnrestrictedTest.step"),
    Target("numeraire", "lcm", _support),
    Target("numeraire", "numeraire_evalue"),
    Target("numeraire", "ripr"),
    Target("numeraire", "max_epower"),
    Target("evalues", "is_in_polar_M"),
    Target("evalues", "is_in_polar_D"),
    Target("evalues", "witness"),
    Target("evalues", "epower"),
    Target("continuous", "lcm_cont"),
    Target("continuous", "numeraire_cont"),
    Target("continuous", "epower_cont"),
    Target("continuous", "is_in_polar_U"),
    Target("cli", "main"),
]

_CALLS_AND_SELF = [
    "pmf.sample", "harness.run_experiment",
    "eprocess.MonotoneTracker.update", "eprocess.MonotoneTracker.mixture_value",
    "eprocess.UnimodalTracker.update", "eprocess.UnimodalTracker.unimodal_value",
    "eprocess.UnimodalFamily.update", "eprocess.UnimodalFamily.values_range",
    "eprocess.numeraire_eprocess",
    "mode.confidence_set", "mode.mode_estimate", "mode.UnrestrictedTest.step",
    "numeraire.lcm",
    "evalues.is_in_polar_M", "evalues.is_in_polar_D", "evalues.witness",
    "evalues.epower",
    "continuous.lcm_cont", "continuous.numeraire_cont", "continuous.epower_cont",
    "continuous.is_in_polar_U",
    "cli.main",
]

# (name, unit, better) for every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = []
for _span in _CALLS_AND_SELF:
    PER_LAYER.append((f"{_span}.calls", "count", "lower"))
    PER_LAYER.append((f"{_span}.self_s", "s", "lower"))
PER_LAYER += [
    ("pmf.sample.draws", "count", "lower"),
    ("harness.type1.obs_steps", "count", "lower"),
    ("harness.type1.computed_bytes", "B_computed", "lower"),
    ("eprocess.UnimodalFamily.values_range.peaks", "count", "lower"),
    ("mode.confidence_set.window_peaks", "count", "lower"),
    ("mode.confidence_set.rejected_peaks", "count", "higher"),
    ("mode.mode_estimate.window_peaks", "count", "lower"),
    ("mode.scan_useful_ratio", "ratio", "higher"),
    ("mode.scan_peaks", "count", "lower"),
    ("mode.UnrestrictedTest.full_scan_ratio", "ratio", "lower"),
    ("numeraire.lcm.support", "count", "lower"),
    ("numeraire.lcm.calls_per_table", "ratio", "lower"),
    ("numeraire.numeraire_evalue.self_s", "s", "lower"),
    ("numeraire.ripr.self_s", "s", "lower"),
    ("numeraire.max_epower.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def span_totals(spans: np.ndarray, names: list[str]) -> dict[str, dict]:
    """Per span name: calls, self time and summed counts."""
    self_ns = self_times(spans)
    out = {}
    for name_id, name in enumerate(names):
        mine = spans[:, 2] == name_id
        out[name] = {
            "calls": int(mine.sum()),
            "self_s": float(self_ns[mine].sum()) / 1e9,
            "a1": int(spans[mine, 5].sum()),
            "a2": int(spans[mine, 6].sum()),
        }
    return out


def layer_metrics(spans: np.ndarray, names: list[str], output_bytes: int) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_ratio``, for one traced pass."""
    tot = span_totals(spans, names)
    parent = parent_names(spans)
    vr_id = names.index("eprocess.UnimodalFamily.values_range")
    vr = spans[:, 2] == vr_id

    def peaks_under(caller: str) -> int:
        under = vr & (parent == names.index(caller))
        return int(spans[under, 5].sum())

    m: dict[str, float] = {}
    for span in _CALLS_AND_SELF:
        m[f"{span}.calls"] = tot[span]["calls"]
        m[f"{span}.self_s"] = tot[span]["self_s"]
    m["pmf.sample.draws"] = tot["pmf.sample"]["a1"]
    m["harness.type1.obs_steps"] = tot["harness.run_experiment"]["a1"]
    m["harness.type1.computed_bytes"] = tot["harness.run_experiment"]["a2"]
    m["eprocess.UnimodalFamily.values_range.peaks"] = tot[
        "eprocess.UnimodalFamily.values_range"]["a1"]
    cs_window = peaks_under("mode.confidence_set")
    me_window = peaks_under("mode.mode_estimate")
    rejected = tot["mode.confidence_set"]["a2"] + tot["mode.mode_estimate"]["a2"]
    m["mode.confidence_set.window_peaks"] = cs_window
    m["mode.confidence_set.rejected_peaks"] = tot["mode.confidence_set"]["a2"]
    m["mode.mode_estimate.window_peaks"] = me_window
    m["mode.scan_peaks"] = cs_window + me_window
    m["mode.scan_useful_ratio"] = rejected / m["mode.scan_peaks"] if m["mode.scan_peaks"] else 0.0
    steps = tot["mode.UnrestrictedTest.step"]["calls"]
    step_scans = int((vr & (parent == names.index("mode.UnrestrictedTest.step"))).sum())
    m["mode.UnrestrictedTest.full_scan_ratio"] = step_scans / steps if steps else 0.0
    lcm_id = names.index("numeraire.lcm")
    lcm_roots = np.unique(root_index(spans)[spans[:, 2] == lcm_id])
    m["numeraire.lcm.support"] = tot["numeraire.lcm"]["a1"]
    m["numeraire.lcm.calls_per_table"] = (
        tot["numeraire.lcm"]["calls"] / len(lcm_roots) if len(lcm_roots) else 0.0
    )
    for fn in ("numeraire_evalue", "ripr", "max_epower"):
        m[f"numeraire.{fn}.self_s"] = tot[f"numeraire.{fn}"]["self_s"]
    m["cli.output_bytes"] = output_bytes
    return {name: m[name] for name, _, _ in PER_LAYER if name in m}


def self_time_shares(spans: np.ndarray, names: list[str]) -> list[tuple[str, float]]:
    """Each span name's share of all traced self time, largest first."""
    tot = span_totals(spans, names)
    total = sum(t["self_s"] for t in tot.values()) or 1.0
    shares = [(n, t["self_s"] / total) for n, t in tot.items() if t["calls"]]
    return sorted(shares, key=lambda s: -s[1])
