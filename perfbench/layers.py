"""Layer boundaries the traced run wraps, and the per-layer metrics it derives.

Each metric is read from one workload's traced pass: the workload whose
end-to-end number it should move. ``targets()`` gives that map (metric ->
workload, end-to-end metric); ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from heavycover import (
    continuity,
    datasets,
    dual,
    exactgeom,
    selection,
    svgplot,
    transversal,
    verification,
)

from workloads import CHECK_IDS


def _count_fallbacks(name):
    def hook(counts, args, report):
        if report.method == "naive_fallback":
            counts[f"{name}.naive_fallback"] += 1
    return hook


def _count_candidates(counts, args, result):
    counts["selection.candidates"] += len(result)


def _count_vertices(counts, args, result):
    counts["dual.vertices"] += comb(args[0].n, 2)


def _count_samples(counts, args, report):
    counts["continuity.samples"] += len(report.records)
    counts["continuity.degenerate"] += report.degenerate_samples


# (module, attribute, span name, counter hook). ``_candidate_homogs`` is the
# candidate generation that ``candidate_vertices``, ``max_depth_point`` and
# ``continuity_demo`` share; it is wrapped so generation is its own child span.
WRAPPED = [
    (exactgeom, "general_position_report", "exactgeom.general_position_report", None),
    (selection, "depth_naive", "selection.depth_naive", None),
    (selection, "depth_planar_sweep", "selection.depth_planar_sweep",
     _count_fallbacks("selection.depth_planar_sweep")),
    (selection, "closed_depth_count", "selection.closed_depth_count", None),
    (selection, "_candidate_homogs", "selection.candidate_generation", _count_candidates),
    (selection, "max_depth_point", "selection.max_depth_point", None),
    (dual, "dual_depth_naive", "dual.dual_depth_naive", None),
    (dual, "dual_depth_fast", "dual.dual_depth_fast", _count_fallbacks("dual.dual_depth_fast")),
    (dual, "max_dual_depth_point", "dual.max_dual_depth_point", _count_vertices),
    (dual, "extremal_report", "dual.extremal_report", None),
    (svgplot, "depth_grid", "svgplot.depth_grid", None),
    (continuity, "continuity_demo", "continuity.continuity_demo", _count_samples),
    (transversal, "find_transversal_line_2d", "transversal.find_transversal_line_2d", None),
    (transversal, "verify_transversal", "transversal.verify_transversal", None),
    (datasets, "random_point_set", "datasets.random_point_set", None),
    (datasets, "random_line_family", "datasets.random_line_family", None),
    (datasets, "random_motion_path", "datasets.random_motion_path", None),
    (datasets, "generate", "datasets.generate", None),
] + [(verification, f"check_{c}", f"verification.{c}", None) for c in CHECK_IDS]


def install(tracer):
    for module, attr, name, hook in WRAPPED:
        tracer.wrap(module, attr, name, hook)


def _ratio(num, den):
    return num / den if den else 0.0


def _scan_us_per_candidate(t):
    return _ratio(t.self_s("selection.max_depth_point") * 1e6,
                  t.counts["selection.candidates"])


def _fallback_ratio(name):
    return lambda t: _ratio(t.counts[f"{name}.naive_fallback"], t.calls(name))


class LayerMetric(NamedTuple):
    unit: str
    better: str
    workload: str  # the workload whose traced pass the value is read from
    moves: str  # the end-to-end metric it should move there
    value: Callable | None = None  # SpanTable -> number; None if the run measures it


METRICS = {
    "selection.max_depth_point.busy_s": LayerMetric(
        "s", "lower", "maxdepth", "jobs_per_s",
        lambda t: t.busy_s("selection.max_depth_point")),
    "selection.scan_us_per_candidate": LayerMetric(
        "us", "lower", "maxdepth", "jobs_per_s", _scan_us_per_candidate),
    "selection.recheck_s": LayerMetric(
        "s", "lower", "maxdepth", "jobs_per_s",
        lambda t: t.child_s("selection.depth_naive", "selection.max_depth_point")),
    "selection.candidates": LayerMetric(
        "count", "lower", "maxdepth", "jobs_per_s, peak_rss_mb",
        lambda t: t.counts["selection.candidates"]),
    "selection.candidate_gen_s": LayerMetric(
        "s", "lower", "maxdepth", "jobs_per_s, peak_rss_mb",
        lambda t: t.child_s("selection.candidate_generation", "selection.max_depth_point")),
    "selection.closed_depth_count.us_per_call": LayerMetric(
        "us", "lower", "landscape", "jobs_per_s",
        lambda t: t.us_per_call("selection.closed_depth_count")),
    "selection.sweep_fallback_ratio": LayerMetric(
        "ratio", "lower", "verify", "jobs_per_s",
        _fallback_ratio("selection.depth_planar_sweep")),
    "exactgeom.general_position_report.busy_s": LayerMetric(
        "s", "lower", "maxdepth", "jobs_per_s",
        lambda t: t.busy_s("exactgeom.general_position_report")),
    "dual.max_dual_depth_point.busy_s": LayerMetric(
        "s", "lower", "maxdual", "jobs_per_s",
        lambda t: t.busy_s("dual.max_dual_depth_point")),
    "dual.scan_us_per_vertex": LayerMetric(
        "us", "lower", "maxdual", "jobs_per_s",
        lambda t: _ratio(t.self_s("dual.max_dual_depth_point") * 1e6,
                         t.counts["dual.vertices"])),
    "dual.recheck_s": LayerMetric(
        "s", "lower", "maxdual", "jobs_per_s",
        lambda t: t.child_s("dual.dual_depth_naive", "dual.max_dual_depth_point")),
    "dual.extremal_report.self_s": LayerMetric(
        "s", "lower", "maxdual", "jobs_per_s",
        lambda t: t.self_s("dual.extremal_report")),
    "dual.dual_depth_fast.us_per_call": LayerMetric(
        "us", "lower", "landscape", "jobs_per_s",
        lambda t: t.us_per_call("dual.dual_depth_fast")),
    "dual.fast_fallback_ratio": LayerMetric(
        "ratio", "lower", "landscape", "jobs_per_s",
        _fallback_ratio("dual.dual_depth_fast")),
    "svgplot.depth_grid.self_s": LayerMetric(
        "s", "lower", "landscape", "jobs_per_s",
        lambda t: t.self_s("svgplot.depth_grid")),
    "continuity.continuity_demo.self_s": LayerMetric(
        "s", "lower", "verify", "jobs_per_s",
        lambda t: t.self_s("continuity.continuity_demo")),
    "continuity.samples": LayerMetric(
        "count", "lower", "verify", "jobs_per_s",
        lambda t: t.counts["continuity.samples"]),
    "continuity.degenerate_ratio": LayerMetric(
        "ratio", "lower", "verify", "jobs_per_s",
        lambda t: _ratio(t.counts["continuity.degenerate"], t.counts["continuity.samples"])),
    "transversal.find_transversal_line_2d.busy_s": LayerMetric(
        "s", "lower", "verify", "jobs_per_s",
        lambda t: t.busy_s("transversal.find_transversal_line_2d")),
    "transversal.verify_transversal.busy_s": LayerMetric(
        "s", "lower", "verify", "jobs_per_s",
        lambda t: t.busy_s("transversal.verify_transversal")),
}
for _c in CHECK_IDS:
    METRICS[f"verification.{_c}.busy_s"] = LayerMetric(
        "s", "lower", "verify", "jobs_per_s",
        lambda t, _name=f"verification.{_c}": t.busy_s(_name))

# Measured by the run itself rather than read from spans.
RUN_METRICS = {
    "selection.fanout_ratio": LayerMetric(
        "ratio", "lower", "maxdepth", "jobs_per_s at --threads 2 (no workload runs it)"),
    "datasets.generate_s": LayerMetric("s", "lower", "all", "setup_s"),
}
OVERHEAD_METRIC = "trace.overhead.{}"


def targets(workloads):
    """The metric -> (workload, end-to-end metric) map, for the trace record."""
    out = {name: {"workload": m.workload, "moves": m.moves}
           for name, m in {**METRICS, **RUN_METRICS}.items()}
    out.update({OVERHEAD_METRIC.format(w): {"workload": w, "moves": "none (tracing cost)"}
                for w in workloads})
    return out
