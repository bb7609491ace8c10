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
from fractions import Fraction

from .continuity import continuity_demo
from .datasets import Dataset, generate, parse_dataset
from .dual import (
    DUAL_BOUND,
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
from .verification import battery_json, run_battery

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND_FAILED = 2
EXIT_INTERNAL = 3

# the plot's drawable width in pixels
MAX_GRID = CANVAS - 2 * MARGIN
# the largest extremal family: its two exhaustive re-checks grow as n^3, and
# n = 300 already takes about 8 s and 80 MiB (see README)
MAX_EXTREMAL = 300


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


def _count(text) -> int:
    """A count argument (--n, --grid, --trials): an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _grid(text) -> int:
    """The --grid count: at most ``MAX_GRID``, one cell per pixel of the
    plot, since a finer grid draws no more detail at grid^2 the work."""
    value = _count(text)
    if value > MAX_GRID:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_GRID}, got {value}")
    return value


def _extremal_size(text) -> int:
    """The extremal family size: an int of at most ``MAX_EXTREMAL``; sizes
    below 3 are left to ``tangent_family`` to reject."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value > MAX_EXTREMAL:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_EXTREMAL}, got {value}")
    return value


def _fr(x) -> str:
    return str(Fraction(x))


def _point_json(p: Point):
    return [str(c) for c in p.coords]


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
        "query": _point_json(q),
        "count": rep.count,
        "total": rep.total,
        "fraction": _fr(rep.fraction),
        "bound": _fr(rep.bound),
        "meets_bound": rep.meets_bound,
        "slack_bound": _fr(rep.slack_bound),
        "meets_slack_bound": rep.meets_slack_bound,
        "strict_count": rep.strict_count,
        "witnesses": [list(w) for w in rep.witnesses],
        "method": rep.method,
    }


def _plot_points(args, pset, q=None, argmax=None, witness=None, title=""):
    if not args.plot:
        return
    if pset.dim != 2:
        raise UnsupportedError("only planar datasets can be plotted")
    pts = list(pset.points) + ([q] if q else []) + ([argmax] if argmax else [])
    bbox = bounding_box(pts)
    pts_h = [homog(p) for p in pset.points]

    grid = depth_grid(lambda x, y: _closed_depth_homog(_planar_homog(x, y), pts_h),
                      bbox, args.grid)
    report = {
        "bbox": [str(v) for v in bbox],
        "grid": grid,
        "points": [_point_json(p) for p in pset.points],
        "argmax": _point_json(argmax) if argmax else (_point_json(q) if q else None),
        "witness": _point_json(witness) if witness else None,
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
        "argmax": _point_json(argmax) if argmax else None,
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
    _emit_report(args, {"command": "maxdepth", "argmax": _point_json(q),
                        **_depth_report_json(rep, q)})
    _plot_points(args, ds.points, argmax=q,
                 title=f"max depth {rep.count}/{rep.total}")
    return EXIT_OK if rep.meets_slack_bound else EXIT_BOUND_FAILED


def _cmd_dual(args):
    ds = _load_dataset(args, ("LINES",), "LINES")
    q = _parse_point(args.point)
    fast = dual_depth_fast(q, ds.lines)
    naive = dual_depth_naive(q, ds.lines, witness_limit=3)
    if (fast.count, fast.strict_count) != (naive.count, naive.strict_count):
        raise InternalError(f"fast {fast.count} (strict {fast.strict_count}) != "
                            f"naive {naive.count} (strict {naive.strict_count})")
    print(f"dual depth {naive.count} of {naive.total} "
          f"(fraction {naive.fraction}, fast method {fast.method})")
    _emit_report(args, {"command": "dual", "fast_method": fast.method,
                        **_depth_report_json(naive, q)})
    _plot_lines(args, ds.lines, argmax=q, title=f"dual {naive.count}/{naive.total}")
    return EXIT_OK


def _cmd_maxdual(args):
    ds = _load_dataset(args, ("LINES",), "LINES", tangent=args.tangent)
    q, rep = max_dual_depth_point(ds.lines)
    print(f"max dual depth {rep.count} of {rep.total} at "
          f"{tuple(map(str, q.coords))} (fraction {rep.fraction}, "
          f"boundary triples {rep.boundary_count})")
    _emit_report(args, {"command": "maxdual", "argmax": _point_json(q),
                        **_depth_report_json(rep, q)})
    _plot_lines(args, ds.lines, argmax=q, title=f"max dual {rep.count}/{rep.total}")
    return EXIT_OK if rep.meets_slack_bound else EXIT_BOUND_FAILED


def _cmd_expose(args):
    ds = _load_dataset(args, ("LINES",), "LINES")
    q = _parse_point(args.point)
    profile = exposure_profile(q, ds.lines)
    exp = profile.exposed()
    almost = profile.almost_exposed()
    threshold = DUAL_BOUND * profile.pair_total

    def arcs_json(arcset):
        return {
            "full_circle": arcset.full_circle,
            "arcs": [{"start": list(a.start), "end": list(a.end), "flag": a.flag}
                     for a in arcset.arcs],
        }

    print(f"{profile.n_arcs} critical directions, pair total {profile.pair_total}, "
          f"exposure threshold {threshold}")
    print(f"arc counts: {profile.arc_counts}")
    print(f"exposed arcs: {len(exp.arcs)}{' (full circle)' if exp.full_circle else ''}; "
          f"almost-exposed arcs: {len(almost.arcs)}"
          f"{' (full circle)' if almost.full_circle else ''}")
    _emit_report(args, {
        "command": "expose",
        "query": _point_json(q),
        "directions": [list(d) for d in profile.directions],
        "arc_counts": list(profile.arc_counts),
        "pair_total": profile.pair_total,
        "threshold": _fr(threshold),
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
        "max_point": _point_json(rep.max_point),
        "fraction": _fr(rep.fraction),
        "product_bound": _fr(rep.product_bound),
        "product_bound_floor": rep.product_bound_floor,
        "gromov_floor": _fr(rep.gromov_floor),
        "distance_to_bound": _fr(rep.distance_to_bound),
        "closed_max_count": rep.closed_max_count,
        "closed_max_point": _point_json(rep.closed_max_point),
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
              f"half bound met: {srep.fraction >= Fraction(1, 2)})")
    _emit_report(args, {
        "command": "transversal",
        "line": {"base": _point_json(flat.base),
                 "direction": _point_json(flat.directions[0])},
        "per_set": [{
            "count": s.count, "total": s.total, "fraction": _fr(s.fraction),
            "bound": _fr(s.bound), "meets_bound": s.meets_bound,
            "slack_bound": _fr(s.slack_bound),
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
            "time": _fr(rec.time),
            "degenerate": rec.degenerate,
            "argmax": _point_json(rec.argmax) if rec.argmax else None,
            "count": rec.count,
            "witness": ({"point": _point_json(rec.witness[0]),
                         "count": rec.witness[1]} if rec.witness else None),
            "jump": rec.jump,
        })
    _emit_report(args, {
        "command": "sweep",
        "tau": _fr(tau),
        "samples": samples_json,
        "jump_events": [{
            "time_before": _fr(e[0]), "time_after": _fr(e[1]),
            "argmax_before": _point_json(e[2]), "argmax_after": _point_json(e[3]),
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
                "points": [_point_json(p) for p in pts],
                "argmax": _point_json(rec.argmax) if rec.argmax else None,
                "witness": _point_json(rec.witness[0]) if rec.witness else None,
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

    def common(p, point=False, tangent=False):
        p.add_argument("--in", dest="infile", help="input dataset (JSON)")
        p.add_argument("--out", help="machine-readable JSON report path")
        p.add_argument("--plot", help="SVG output path")
        p.add_argument("--seed", type=int, help="generate the dataset from this seed")
        p.add_argument("--n", type=_count, default=10,
                       help="generated dataset size (default 10)")
        p.add_argument("--grid", type=_grid, default=200,
                       help=f"plot sampling resolution (default 200, at most {MAX_GRID})")
        if point:
            p.add_argument("--point", required=True,
                           help="query point, e.g. 1,1 or 1/2,3/4")
        if tangent:
            p.add_argument("--tangent", action="store_true",
                           help="generate a tangent family instead of random lines")

    common(sub.add_parser("depth", help="simplicial depth of a point"), point=True)
    common(sub.add_parser("maxdepth", help="max-depth point search"))
    common(sub.add_parser("dual", help="dual (surrounding) depth of a point"),
           point=True)
    common(sub.add_parser("maxdual", help="max dual-depth point search"),
           tangent=True)
    common(sub.add_parser("expose", help="exposure profile and arcs"), point=True)

    p = sub.add_parser("extremal", help="tangent-family tightness report")
    p.add_argument("size", type=_extremal_size,
                   help=f"family size, 3 <= n <= {MAX_EXTREMAL}")
    p.add_argument("--out", help="machine-readable JSON report path")

    common(sub.add_parser("transversal",
                          help="transversal line for a 2-colored point set"))

    p = sub.add_parser("sweep", help="argmax tracking along a motion path")
    common(p)
    p.add_argument("--samples", type=int, default=21, help="sample count (default 21)")
    p.add_argument("--tau", default="0", help="heavy-region threshold fraction")
    p.add_argument("--jump-threshold", default="1/2",
                   help="argmax displacement flag threshold (default 1/2)")
    p.add_argument("--data-threshold", default=None,
                   help="data displacement bound (default: jump threshold)")

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=_count, default=50,
                   help="seeded-instance count knob (default 50 = full battery)")
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
