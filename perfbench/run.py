"""heavycover benchmark: exact max-depth searches, closed loop, one client.

    python3 perfbench/run.py --workload maxdepth --seed 1 --seconds 20 --trace 0

Runs one workload's job list pass after pass in this process, one job after
another at ``threads=1``, starting passes until ``--seconds`` seconds of
measured wall time have gone by (whole passes only). Every output is checked
outside the timed interval, and one JSON result line is printed last.

``--trace 0`` reports the end-to-end metrics of the chosen workload.
``--trace 1`` runs, for each of the four workloads, every job untraced and
traced, and reports the per-layer metrics, each read from the workload it
should move (see ``layers.py``), plus each workload's tracing overhead.

Outputs go to ``perfbench/out/``: a run record (seed, sizes, environment and a
sha256 digest of the canonical results) and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("maxdepth", "maxdual", "landscape", "verify")
SETUP_REPEATS = 3
FANOUT_THREADS = (1, 2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# Passes and scoring
# ---------------------------------------------------------------------------

def run_pass(jobs, tracer=None):
    """Run every job once; returns (wall seconds, [(result, exception, seconds)])."""
    outcomes = []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        began = clock()
        try:
            result, exc = job.call(), None
        except Exception as error:  # a failed job is counted, and the run goes on
            result, exc = None, error
        outcomes.append((result, exc, clock() - began))
    return clock() - start, outcomes


def score_pass(jobs, outcomes, reference=None):
    """Attempted and failed queries of one pass.

    A job that raised fails all its queries; otherwise each disagreement the
    oracle reports fails one query. Without ``reference`` each output goes through its job's oracle. With the
    scored first pass as ``reference``, an output equal to the first one
    inherits its verdict, and a different output fails.
    """
    attempted = failed = 0
    verdicts = []
    errors = []
    for i, (job, (result, exc, _)) in enumerate(zip(jobs, outcomes)):
        attempted += job.queries
        canon = None
        if exc is not None:
            problems = ["raised " + "".join(traceback.format_exception(exc))]
        else:
            canon = job.canonical(result)
            if reference is not None:
                ref_canon, ref_problems = reference["verdicts"][i]
                problems = ref_problems if canon == ref_canon else [
                    "output differs from the first pass"]
            else:
                try:
                    problems = job.check(result)
                except Exception as oracle_exc:  # an oracle crash is a failed check
                    problems = [f"oracle raised {oracle_exc!r}"]
        failed += job.queries if exc is not None else min(job.queries, len(problems))
        verdicts.append((canon, problems))
        errors += [f"{job.id}: {p}" for p in problems]
    return {"attempted": attempted, "failed": failed, "verdicts": verdicts, "errors": errors}


def jobs_per_s(passes):
    """Queries that passed, per second of measured wall time."""
    return (sum(p["attempted"] - p["failed"] for p in passes)
            / sum(p["wall_s"] for p in passes))


def pass_ratio(attempted, failed):
    return (attempted - failed) / attempted


def measure(jobs, seconds):
    """Whole passes, started until ``seconds`` of pass time have gone by."""
    passes = []
    reference = None
    elapsed = 0.0
    while elapsed < seconds:
        wall, outcomes = run_pass(jobs)
        scored = score_pass(jobs, outcomes, reference)
        reference = reference or scored
        passes.append({"wall_s": wall, "job_s": [o[2] for o in outcomes],
                       "attempted": scored["attempted"], "failed": scored["failed"],
                       "errors": scored["errors"]})
        elapsed += wall
    return passes, reference


def digest(scored):
    canon = [c for c, _ in scored["verdicts"]]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def write_json(name, payload):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(payload, f, sort_keys=True, separators=(",", ":"))


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def run_untraced(args, import_s):
    from workloads import BUILDERS

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = BUILDERS[args.workload](args.seed)
        workload.jobs[0].call()  # warm-up, untimed in the measured phase
        setups.append(time.perf_counter() - start)
    passes, first = measure(workload.jobs, args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": metric(import_s + statistics.median(setups), "s"),
        "jobs_per_s": metric(jobs_per_s(passes), "jobs/s"),
        "pass_ratio": metric(pass_ratio(attempted, failed), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }
    record = {
        "workload": args.workload, "sizes": workload.sizes,
        "jobs": [j.id for j in workload.jobs],
        "queries_per_pass": sum(j.queries for j in workload.jobs),
        "import_s": import_s, "setup_repeats_s": setups,
        "passes": passes, "digest": digest(first),
    }
    return attempted, failed, metrics, record


def run_traced(args):
    import layers
    from tracing import SpanTable, Tracer
    from workloads import BUILDERS, fanout_jobs

    attempted = failed = 0
    errors = []
    generate_s = 0.0
    tables, overhead, digests, spans, sizes = {}, {}, {}, {}, {}
    for name in WORKLOADS:
        start = time.perf_counter()
        workload = BUILDERS[name](args.seed)
        generate_s += time.perf_counter() - start
        workload.jobs[0].call()  # warm-up
        # Each job runs untraced and traced back to back, so that both of its
        # times see the same host load; the order alternates between jobs so
        # that neither side always gets the warmer second call.
        tracer = Tracer()
        plain, traced = [], []
        for i, job in enumerate(workload.jobs):
            for with_spans in (i % 2 == 1, i % 2 == 0):
                if with_spans:
                    with tracer:
                        layers.install(tracer)
                        traced += run_pass([job], tracer)[1]
                else:
                    plain += run_pass([job])[1]
        first = score_pass(workload.jobs, plain)
        second = score_pass(workload.jobs, traced, first)
        for scored in (first, second):
            attempted += scored["attempted"]
            failed += scored["failed"]
            errors += scored["errors"]
        tables[name] = SpanTable(tracer.spans, tracer.counts)
        overhead[name] = sum(o[2] for o in traced) / sum(o[2] for o in plain)
        digests[name] = digest(first)
        sizes[name] = {"sizes": workload.sizes, "jobs": [j.id for j in workload.jobs],
                       "queries_per_pass": sum(j.queries for j in workload.jobs)}
        spans[name] = {"spans": tracer.spans, "counts": dict(tracer.counts)}

    fanout = fanout_jobs(args.seed, FANOUT_THREADS)
    walls, outcomes = [], []
    for job in fanout:
        wall, outcome = run_pass([job])
        walls.append(wall)
        outcomes += outcome
    scored = score_pass(fanout, outcomes)
    if scored["verdicts"][0][0] != scored["verdicts"][1][0]:
        scored["failed"] += 1
        scored["errors"].append("fanout: threads changed the result")
    attempted += scored["attempted"]
    failed += scored["failed"]
    errors += scored["errors"]

    metrics = {}
    for metric_name, m in layers.METRICS.items():
        metrics[metric_name] = metric(m.value(tables[m.workload]), m.unit)
    measured = {"selection.fanout_ratio": walls[1] / walls[0],
                "datasets.generate_s": generate_s}
    for metric_name, m in layers.RUN_METRICS.items():
        metrics[metric_name] = metric(measured[metric_name], m.unit)
    for name in WORKLOADS:
        metrics[layers.OVERHEAD_METRIC.format(name)] = metric(overhead[name], "ratio")
    record = {"digests": digests, "workloads": sizes, "fanout_walls_s": walls,
              "fanout_threads": list(FANOUT_THREADS), "errors": errors,
              "targets": layers.targets(WORKLOADS)}
    write_json(f"spans-{args.workload}-seed{args.seed}.json", spans)
    return attempted, failed, metrics, record


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heavycover", "__init__.py")):
        print(f"error: no heavycover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import heavycover
    import workloads  # noqa: F401  (imports every heavycover module it measures)
    import_s = time.perf_counter() - start
    if not os.path.abspath(heavycover.__file__).startswith(SRC + os.sep):
        print(f"error: heavycover imported from {heavycover.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.trace:
        attempted, failed, metrics, record = run_traced(args)
    else:
        attempted, failed, metrics, record = run_untraced(args, import_s)
    record.update({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(), "attempted": attempted,
                   "failed": failed, "metrics": metrics})
    write_json(f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for err in record.get("errors", []) + [e for p in record.get("passes", [])
                                             for e in p["errors"]]:
        print(f"FAIL {err}", file=sys.stderr)
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"# digest={record.get('digest') or record.get('digests')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
