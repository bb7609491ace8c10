"""Command-line interface.

Subcommands: depth, maxdepth, dual, maxdual, expose, extremal, transversal,
sweep, verify. Exit codes: 0 = success with every asserted bound met;
1 = usage, parse, or data error; 2 = a verified bound FAILED (a research
finding, reported in the artifacts); 3 = an internal invariant violation
(a bug).

JSON artifacts are canonical (sorted keys, exact "p/q" rationals, no
timestamps), so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .continuity import continuity_demo
from .datasets import Dataset, generate, parse_dataset
from .dual import (
    _witness_triples,
    dual_depth_fast,
    dual_depth_naive,
    exposure_profile,
    extremal_report,
    max_dual_depth_point,
)
from .errors import (
    DegeneracyError,
    HeavyCoverError,
    InternalError,
    ParseError,
    UnsupportedError,
)
from .exactgeom import Point, _planar_homog, homog, scalar
from .selection import (
    LabeledPointSet,
    _closed_depth_homog,
    colorful_depth,
    depth_naive,
    depth_planar_sweep,
    max_depth_point,
)
from .svgplot import CANVAS, MARGIN, bounding_box, depth_grid, emit_svg, emit_timeline_svg
from .transversal import find_transversal_line_2d
from .verification import battery_json, frac, point_json, run_battery

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND_FAILED = 2
EXIT_INTERNAL = 3

# the plot's drawable width in pixels: a finer grid draws no more detail,
# at grid^2 the work
MAX_GRID = CANVAS - 2 * MARGIN
# The bounds below keep a run within about 40 s and 128 MiB: wall time and
# peak RSS of `heavycover ... --seed 1` on one core of a 2-core Intel Xeon
# guest, CPython 3.11.7, whose speed drifts by up to 30% between runs.
# The largest extremal family: memory bounds it, not time; `extremal 300`
# takes 0.4 s and 48 MiB, and extremal_report peaks at 106 MiB at n = 500
# and 194 MiB at 700 (see README)
MAX_EXTREMAL = 300
# --n for depth, dual, expose, transversal and maxdual, at 400: dual
# 8.5-9.7 s, 48 MiB; transversal 3.5 s, 70 MiB; depth 2.4 s; maxdual
# 1.7-1.8 s, 74 MiB; expose 1.2 s
MAX_POINTS = 400
# maxdepth --n, n^3 walk-table entries: 11.8-13.9 s, 99 MiB (the search at
# 200 peaks at 175 MiB)
MAX_WALK_POINTS = 160
# sweep --n and --samples, a walk per sample: 37.5 s, 41 MiB at both bounds
MAX_SWEEP_POINTS = 40
MAX_SAMPLES = 1001
# verify --trials: 25.4 s, 22 MiB (5.1 s at the default 50)
MAX_TRIALS = 500


class UsageError(HeavyCoverError):
    pass


_SIGNED_OPTIONS = ("--point", "--tau", "--jump-threshold", "--data-threshold")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a value such as "-1,2" or "-1/5" for an option, not
        # for the option before it; glue it on, so "--point -1,2" reads as
        # "--point=-1,2"
        args = list(sys.argv[1:] if args is None else args)
        for k in range(len(args) - 2, -1, -1):
            if args[k] in _SIGNED_OPTIONS and args[k + 1].startswith("-"):
                args[k:k + 2] = [f"{args[k]}={args[k + 1]}"]
        return super().parse_known_args(args, namespace)


def _at_most(limit):
    """A count argument: an int of at least 1 and at most ``limit``."""
    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {value}")
        return value
    return parse


def _parse_point(text) -> Point:
    try:
        return Point(*(scalar(part.strip()) for part in text.split(",")))
    except HeavyCoverError as exc:
        raise UsageError(f"bad --point {text!r}: {exc}")


def _write(path, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def _emit_report(args, report: dict):
    if args.out:
        _write(args.out, (json.dumps(report, sort_keys=True,
                                     separators=(",", ":")) + "\n").encode())


def _load_dataset(args, kinds, default_kind, **gen_params) -> Dataset:
    if args.infile:
        with open(args.infile, "rb") as fh:
            ds = parse_dataset(fh.read())
        if ds.kind not in kinds:
            raise UsageError(f"dataset kind {ds.kind} unsupported here "
                             f"(expected one of {kinds})")
        return ds
    if args.seed is None:
        raise UsageError("provide --in FILE or --seed (with optional --n)")
    return generate(default_kind, args.n, args.seed, **gen_params)


def _depth_report_json(rep, q):
    return {
        "query": point_json(q),
        "count": rep.count,
        "total": rep.total,
        "fraction": frac(rep.fraction),
        "bound": frac(rep.bound),
        "meets_bound": rep.meets_bound,
        "slack_bound": frac(rep.slack_bound),
        "meets_slack_bound": rep.meets_slack_bound,
        "strict_count": rep.strict_count,
        "witnesses": [list(w) for w in rep.witnesses],
        "method": rep.method,
    }


def _plot_points(args, pset, q=None, argmax=None, witness=None, title=""):
    if not args.plot:
        return
    pts = list(pset.points) + ([q] if q else []) + ([argmax] if argmax else [])
    bbox = bounding_box(pts)
    pts_h = [homog(p) for p in pset.points]

    grid = depth_grid(lambda x, y: _closed_depth_homog(_planar_homog(x, y), pts_h),
                      bbox, args.grid)
    report = {
        "bbox": [str(v) for v in bbox],
        "grid": grid,
        "points": [point_json(p) for p in pset.points],
        "argmax": point_json(argmax) if argmax else (point_json(q) if q else None),
        "witness": point_json(witness) if witness else None,
        "title": title,
    }
    _write(args.plot, emit_svg(report))


def _plot_lines(args, family, argmax=None, title=""):
    if not args.plot:
        return
    span = Fraction(8)
    bbox = [-span, -span, span, span]
    grid = depth_grid(
        lambda x, y: dual_depth_fast(Point(x, y), family).count, bbox, args.grid)
    report = {
        "bbox": [str(v) for v in bbox],
        "grid": grid,
        "lines": [{"normal": [str(c) for c in h.normal], "offset": str(h.offset)}
                  for h in family.lines],
        "argmax": point_json(argmax) if argmax else None,
        "title": title,
    }
    _write(args.plot, emit_svg(report))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_depth(args):
    ds = _load_dataset(args, ("POINTS", "COLORED_POINTS"), "POINTS")
    q = _parse_point(args.point)
    pset = ds.points
    if args.plot and pset.dim != 2:
        raise UnsupportedError("only planar datasets can be plotted")
    if pset.colors is not None and len(set(pset.colors)) == pset.dim + 1:
        rep = colorful_depth(q, pset, witness_limit=3)
    elif pset.dim == 2:
        rep = depth_planar_sweep(q, pset)
    else:
        rep = depth_naive(q, pset, witness_limit=3)
    print(f"depth {rep.count} of {rep.total} (fraction {rep.fraction}, "
          f"method {rep.method})")
    _emit_report(args, {"command": "depth", **_depth_report_json(rep, q)})
    _plot_points(args, pset, q=q, title=f"depth {rep.count}/{rep.total}")
    return EXIT_OK


def _cmd_maxdepth(args):
    ds = _load_dataset(args, ("POINTS", "COLORED_POINTS"), "POINTS")
    q, rep = max_depth_point(ds.points)
    print(f"max depth {rep.count} of {rep.total} at {tuple(map(str, q.coords))} "
          f"(fraction {rep.fraction}, slack bound {rep.slack_bound})")
    _emit_report(args, {"command": "maxdepth", "argmax": point_json(q),
                        **_depth_report_json(rep, q)})
    _plot_points(args, ds.points, argmax=q,
                 title=f"max depth {rep.count}/{rep.total}")
    return EXIT_OK if rep.meets_slack_bound else EXIT_BOUND_FAILED


def _recount(q, fast, family):
    """The exhaustive report at q with 3 witnesses, checked against the fast
    report ``fast`` on (count, strict_count)."""
    naive = dual_depth_naive(q, family, witness_limit=3)
    if (fast.count, fast.strict_count) != (naive.count, naive.strict_count):
        raise InternalError(f"fast {fast.count} (strict {fast.strict_count}) != "
                            f"naive {naive.count} (strict {naive.strict_count})")
    return naive


def _cmd_dual(args):
    ds = _load_dataset(args, ("LINES",), "LINES")
    q = _parse_point(args.point)
    fast = dual_depth_fast(q, ds.lines)
    naive = _recount(q, fast, ds.lines)
    print(f"dual depth {naive.count} of {naive.total} "
          f"(fraction {naive.fraction}, fast method {fast.method})")
    _emit_report(args, {"command": "dual", "fast_method": fast.method,
                        **_depth_report_json(naive, q)})
    _plot_lines(args, ds.lines, argmax=q, title=f"dual {naive.count}/{naive.total}")
    return EXIT_OK


def _cmd_maxdual(args):
    ds = _load_dataset(args, ("LINES",), "LINES", tangent=args.tangent)
    q, rep = max_dual_depth_point(ds.lines)
    rep = replace(rep, witnesses=_witness_triples(q, ds.lines))
    print(f"max dual depth {rep.count} of {rep.total} at "
          f"{tuple(map(str, q.coords))} (fraction {rep.fraction}, "
          f"boundary triples {rep.boundary_count})")
    _emit_report(args, {"command": "maxdual", "argmax": point_json(q),
                        **_depth_report_json(rep, q)})
    _plot_lines(args, ds.lines, argmax=q, title=f"max dual {rep.count}/{rep.total}")
    return EXIT_OK if rep.meets_slack_bound else EXIT_BOUND_FAILED


def _cmd_expose(args):
    ds = _load_dataset(args, ("LINES",), "LINES")
    q = _parse_point(args.point)
    profile = exposure_profile(q, ds.lines)
    exp = profile.exposed()
    almost = profile.almost_exposed()

    def arcs_json(arcset):
        return {
            "full_circle": arcset.full_circle,
            "arcs": [{"start": list(a.start), "end": list(a.end), "flag": a.flag}
                     for a in arcset.arcs],
        }

    print(f"{profile.n_arcs} critical directions, pair total {profile.pair_total}, "
          f"exposure threshold {profile.threshold}")
    print(f"arc counts: {profile.arc_counts}")
    print(f"exposed arcs: {len(exp.arcs)}{' (full circle)' if exp.full_circle else ''}; "
          f"almost-exposed arcs: {len(almost.arcs)}"
          f"{' (full circle)' if almost.full_circle else ''}")
    _emit_report(args, {
        "command": "expose",
        "query": point_json(q),
        "directions": [list(d) for d in profile.directions],
        "arc_counts": list(profile.arc_counts),
        "pair_total": profile.pair_total,
        "threshold": frac(profile.threshold),
        "exposed": arcs_json(exp),
        "almost_exposed": arcs_json(almost),
    })
    return EXIT_OK


def _cmd_extremal(args):
    rep = extremal_report(args.size)
    print(f"tangent family n={args.size}: strict max {rep.max_count} "
          f"<= floor(n^3/27) = {rep.product_bound_floor}; fraction {rep.fraction} "
          f"(distance to 2/9: {rep.distance_to_bound})")
    print(f"closed vertex max {rep.closed_max_count} "
          f"({rep.closed_boundary_count} boundary triples, flagged)")
    _emit_report(args, {
        "command": "extremal",
        "n": rep.n,
        "max_count": rep.max_count,
        "max_point": point_json(rep.max_point),
        "fraction": frac(rep.fraction),
        "product_bound": frac(rep.product_bound),
        "product_bound_floor": rep.product_bound_floor,
        "gromov_floor": frac(rep.gromov_floor),
        "distance_to_bound": frac(rep.distance_to_bound),
        "closed_max_count": rep.closed_max_count,
        "closed_max_point": point_json(rep.closed_max_point),
        "closed_boundary_count": rep.closed_boundary_count,
    })
    return EXIT_OK


def _cmd_transversal(args):
    ds = _load_dataset(args, ("COLORED_POINTS",), "COLORED_POINTS", classes=2)
    classes = ds.points.color_classes()
    if len(classes) != 2:
        raise UsageError("transversal needs a COLORED_POINTS dataset with 2 classes")
    sets = [LabeledPointSet(tuple(ds.points.points[i] for i in ix))
            for ix in classes.values()]
    flat, rep = find_transversal_line_2d(sets[0], sets[1])
    for i, srep in enumerate(rep.per_set):
        print(f"set {i}: touched {srep.count} of {srep.total} "
              f"(fraction {srep.fraction}, median floor {srep.median_floor_count}, "
              f"half bound met: {srep.meets_bound})")
    _emit_report(args, {
        "command": "transversal",
        "line": {"base": point_json(flat.base),
                 "direction": point_json(flat.directions[0])},
        "per_set": [{
            "count": s.count, "total": s.total, "fraction": frac(s.fraction),
            "bound": frac(s.bound), "meets_bound": s.meets_bound,
            "slack_bound": frac(s.slack_bound),
            "meets_slack_bound": s.meets_slack_bound,
            "median_floor_count": s.median_floor_count,
            "meets_median_floor": s.meets_median_floor,
        } for s in rep.per_set],
    })
    return EXIT_OK


def _cmd_sweep(args):
    ds = _load_dataset(args, ("PATH",), "PATH")
    tau = scalar(args.tau)
    report = continuity_demo(ds.path, args.samples, tau,
                             jump_threshold=scalar(args.jump_threshold),
                             data_threshold=scalar(args.data_threshold)
                             if args.data_threshold else None)
    print(f"{args.samples} samples: {report.degenerate_samples} degenerate, "
          f"{report.jump_count} argmax jumps, all witnessed: {report.all_witnessed}")
    samples_json = []
    for rec in report.records:
        samples_json.append({
            "time": frac(rec.time),
            "degenerate": rec.degenerate,
            "argmax": point_json(rec.argmax) if rec.argmax else None,
            "count": rec.count,
            "witness": ({"point": point_json(rec.witness[0]),
                         "count": rec.witness[1]} if rec.witness else None),
            "jump": rec.jump,
        })
    _emit_report(args, {
        "command": "sweep",
        "tau": frac(tau),
        "samples": samples_json,
        "jump_events": [{
            "time_before": frac(e[0]), "time_after": frac(e[1]),
            "argmax_before": point_json(e[2]), "argmax_after": point_json(e[3]),
            "count_before": e[4], "count_after": e[5],
        } for e in report.jump_events],
        "all_witnessed": report.all_witnessed,
        "degenerate_samples": report.degenerate_samples,
    })
    if args.plot:
        stem = args.plot[:-4] if args.plot.endswith(".svg") else args.plot
        for j, rec in enumerate(report.records):
            pset = ds.path.at(rec.time)
            pts = list(pset.points)
            bbox = bounding_box(pts)
            frame = {
                "bbox": [str(v) for v in bbox],
                "points": [point_json(p) for p in pts],
                "argmax": point_json(rec.argmax) if rec.argmax else None,
                "witness": point_json(rec.witness[0]) if rec.witness else None,
                "title": f"t={rec.time}" + (" (degenerate)" if rec.degenerate else ""),
            }
            _write(f"{stem}_{j:03d}.svg", emit_svg(frame))
        _write(f"{stem}_timeline.svg", emit_timeline_svg(samples_json))
    return EXIT_OK if report.all_witnessed else EXIT_BOUND_FAILED


def _cmd_verify(args):
    report = run_battery(seed=args.seed, trials=args.trials)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['id']}: {check['description']}")
        for failure in check["failures"]:
            print(f"     {failure}")
    print(f"{'all checks passed' if report['all_passed'] else 'SOME CHECKS FAILED'}")
    if args.out:
        _write(args.out, (battery_json(report) + "\n").encode())
    return EXIT_OK if report["all_passed"] else EXIT_BOUND_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="heavycover",
                     description="Exact simplicial and dual depth toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False, tangent=False, plot=False, grid=False, max_n=MAX_POINTS):
        # --plot and --grid only where the command reads them, so a plot
        # that would not be drawn is refused rather than dropped
        p.add_argument("--in", dest="infile", help="input dataset (JSON)")
        p.add_argument("--out", help="machine-readable JSON report path")
        if plot:
            p.add_argument("--plot", help="SVG output path")
        p.add_argument("--seed", type=int, help="generate the dataset from this seed")
        p.add_argument("--n", type=_at_most(max_n), default=10,
                       help=f"generated dataset size (default 10, at most {max_n})")
        if grid:
            p.add_argument("--grid", type=_at_most(MAX_GRID), default=200,
                           help=f"plot sampling resolution (default 200, at most {MAX_GRID})")
        if point:
            p.add_argument("--point", required=True,
                           help="query point, e.g. 1,1 or 1/2,3/4")
        if tangent:
            p.add_argument("--tangent", action="store_true",
                           help="generate a tangent family instead of random lines")

    common(sub.add_parser("depth", help="simplicial depth of a point"), point=True,
           plot=True, grid=True)
    common(sub.add_parser("maxdepth", help="max-depth point search"), plot=True, grid=True,
           max_n=MAX_WALK_POINTS)
    common(sub.add_parser("dual", help="dual (surrounding) depth of a point"),
           point=True, plot=True, grid=True)
    common(sub.add_parser("maxdual", help="max dual-depth point search"),
           tangent=True, plot=True, grid=True)
    common(sub.add_parser("expose", help="exposure profile and arcs"), point=True)

    p = sub.add_parser("extremal", help="tangent-family tightness report")
    p.add_argument("size", type=_at_most(MAX_EXTREMAL),
                   help=f"family size, 3 <= n <= {MAX_EXTREMAL}")
    p.add_argument("--out", help="machine-readable JSON report path")

    common(sub.add_parser("transversal",
                          help="transversal line for a 2-colored point set"))

    p = sub.add_parser("sweep", help="argmax tracking along a motion path")
    common(p, plot=True, max_n=MAX_SWEEP_POINTS)
    p.add_argument("--samples", type=_at_most(MAX_SAMPLES), default=21,
                   help=f"sample count (default 21, at most {MAX_SAMPLES})")
    p.add_argument("--tau", default="0", help="heavy-region threshold fraction")
    p.add_argument("--jump-threshold", default="1/2",
                   help="argmax displacement flag threshold (default 1/2)")
    p.add_argument("--data-threshold", default=None,
                   help="data displacement bound (default: jump threshold)")

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=_at_most(MAX_TRIALS), default=50,
                   help=f"seeded-instance count knob (default 50 = full battery, "
                        f"at most {MAX_TRIALS})")
    p.add_argument("--out", help="machine-readable JSON report path")
    return parser


_COMMANDS = {
    "depth": _cmd_depth,
    "maxdepth": _cmd_maxdepth,
    "dual": _cmd_dual,
    "maxdual": _cmd_maxdual,
    "expose": _cmd_expose,
    "extremal": _cmd_extremal,
    "transversal": _cmd_transversal,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def _first_violation(violations) -> str:
    """The first general-position violation, its kind and its 0-based input
    indices, and how many more there are; empty when none is located."""
    if not violations:
        return ""
    kind, idx = violations[0]
    more = len(violations) - 1
    return f": {kind} {idx}" + (f" and {more} more" if more else "")


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ParseError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DegeneracyError as exc:
        print(f"error: {exc}{_first_violation(exc.violations)}", file=sys.stderr)
        return EXIT_USAGE
    except HeavyCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
