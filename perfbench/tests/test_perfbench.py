"""Tests for the benchmark's own arithmetic: self time, scoring, rates.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
from heavycover import selection, verification  # noqa: E402
from tracing import SpanTable, Tracer, covered_ns, self_times_ns  # noqa: E402
from workloads import SAMPLED_CELLS, Job, landscape, maxdepth  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, "job"]


def test_self_time_nested_and_back_to_back_children():
    spans = [
        span("a", 0, 100, -1),
        span("b", 10, 30, 0),   # child of a
        span("c", 30, 60, 0),   # back-to-back with b
        span("d", 15, 20, 1),   # grandchild of a, inside b
    ]
    assert self_times_ns(spans) == [50, 15, 30, 5]
    assert sum(self_times_ns(spans)) == 100


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered_ns([(5, 15), (10, 20), (30, 50)], 0, 40) == 25
    assert covered_ns([], 0, 40) == 0


def test_span_table_busy_counts_outermost_spans_only():
    spans = [
        span("f", 0, 100, -1),
        span("f", 10, 40, 0),   # recursive call: already inside the outer f
        span("g", 50, 60, 0),
        span("g", 200, 230, -1),
    ]
    table = SpanTable(spans, {})
    assert table.busy_s("f") == 100 / 1e9
    assert table.busy_s("g") == 40 / 1e9
    assert table.child_s("g", "f") == 10 / 1e9
    assert table.self_s("f") == (100 - 30 - 10 + 30) / 1e9
    assert table.us_per_call("g") == 20 / 1e3


def test_tracer_rebinds_imported_names_and_restores_them():
    original = selection.depth_naive
    assert verification.depth_naive is original
    job = maxdepth(3).jobs[0]
    with Tracer() as tracer:
        tracer.wrap(selection, "depth_naive", "selection.depth_naive")
        assert verification.depth_naive is selection.depth_naive is not original
        tracer.job = "j1"
        job.call()  # max_depth_point re-checks its winner with depth_naive
    assert selection.depth_naive is original and verification.depth_naive is original
    assert [s[0] for s in tracer.spans] == ["selection.depth_naive"]
    assert tracer.spans[0][3:] == [-1, "j1"]


def test_oracle_counts_a_wrong_count_as_a_failure():
    job = maxdepth(5).jobs[0]
    q, rep = job.call()
    assert job.check((q, rep)) == []
    wrong = (q, replace(rep, count=rep.count + 1))
    assert job.check(wrong)
    first = run.score_pass([job], [(wrong, None, 0.0)])
    assert (first["attempted"], first["failed"]) == (1, 1)
    # a later pass with the same output inherits the verdict
    again = run.score_pass([job], [(wrong, None, 0.0)], first)
    assert again["failed"] == 1
    good = run.score_pass([job], [((q, rep), None, 0.0)])
    changed = run.score_pass([job], [(wrong, None, 0.0)], good)
    assert changed["failed"] == 1 and "differs" in changed["errors"][0]


def test_landscape_oracle_counts_each_wrong_sampled_cell():
    job = landscape(7).jobs[1]
    grid = job.call()
    assert job.check(grid) == []
    shifted = {"cells": [[c + 1 for c in row] for row in grid["cells"]],
               "max": grid["max"] + 1}
    scored = run.score_pass([job], [(shifted, None, 0.0)])
    assert (scored["attempted"], scored["failed"]) == (job.queries, SAMPLED_CELLS)


def test_exception_fails_every_query_of_its_job():
    def boom():
        raise ValueError("boom")

    jobs = [Job("grid", boom, lambda r: r, lambda r: [], queries=9),
            Job("ok", lambda: 1, lambda r: r, lambda r: [])]
    wall, outcomes = run.run_pass(jobs)
    scored = run.score_pass(jobs, outcomes)
    assert wall >= 0
    assert (scored["attempted"], scored["failed"]) == (10, 9)


def test_rates_on_a_hand_built_job_list():
    passes = [{"wall_s": 2.0, "attempted": 10, "failed": 0},
              {"wall_s": 1.0, "attempted": 10, "failed": 2},
              {"wall_s": 4.0, "attempted": 10, "failed": 0}]
    assert run.jobs_per_s(passes) == 28 / 7.0  # 28 passed queries in 7 s
    assert run.pass_ratio(30, 2) == 28 / 30
    assert run.pass_ratio(30, 0) == 1.0


def test_benchmark_json_names_match_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "jobs_per_s", "pass_ratio", "peak_rss_mb"}
    per_layer = set(layers.METRICS) | set(layers.RUN_METRICS) | {
        layers.OVERHEAD_METRIC.format(w) for w in run.WORKLOADS}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    units = {name: m.unit for name, m in {**layers.METRICS, **layers.RUN_METRICS}.items()}
    for m in bench["per_layer"]:
        assert m["unit"] == units.get(m["name"], "ratio")
