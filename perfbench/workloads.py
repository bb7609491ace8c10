"""The four benchmark workloads: seeded job lists, canonical results and oracles.

A job is one library call, made the way the matching ``heavycover`` subcommand
makes it, with ``threads=1``. Every call goes through a module attribute
(``selection.max_depth_point``, not an imported name), so a traced pass sees
the wrappers. Each job carries an oracle, run outside the timed interval, that
returns a list of disagreements (empty when the output is correct).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from heavycover import datasets, dual, selection, svgplot, verification
from heavycover.exactgeom import Point


@dataclass(frozen=True)
class Job:
    """One call. ``queries`` is how many benchmark jobs the call stands for:
    1, except for a landscape grid, where every cell is one query."""

    id: str
    call: Callable[[], object]
    canonical: Callable[[object], object]
    check: Callable[[object], list]
    queries: int = 1


@dataclass(frozen=True)
class Workload:
    sizes: dict
    jobs: tuple


def _pt(p):
    return [str(c) for c in p.coords]


# ---------------------------------------------------------------------------
# maxdepth: selection.max_depth_point on box-jitter and near-convex sets
# ---------------------------------------------------------------------------

MAXDEPTH_SIZES = (12, 14, 16, 18)


def _maxdepth_job(n, near_convex, seed, threads=1):
    pset = datasets.random_point_set(n, seed, near_convex=near_convex)

    def check(result):
        q, rep = result
        errors = []
        recount = selection.depth_naive(q, pset).count
        if recount != rep.count:
            errors.append(f"depth_naive recount {recount} != reported {rep.count}")
        if Fraction(rep.count, comb(n, 3)) < Fraction(2, 9) - Fraction(3, n):
            errors.append(f"count {rep.count} below the 2/9 - 3/n slack bound")
        return errors

    kind = "convex" if near_convex else "box"
    return Job(id=f"maxdepth:n{n}:{kind}:threads{threads}",
               call=lambda: selection.max_depth_point(pset, threads=threads),
               canonical=lambda r: [_pt(r[0]), r[1].count],
               check=check)


def maxdepth(seed):
    jobs = [_maxdepth_job(n, near_convex, seed * 1009 + 2 * i + near_convex)
            for i, n in enumerate(MAXDEPTH_SIZES) for near_convex in (False, True)]
    return Workload({"n": list(MAXDEPTH_SIZES), "kinds": ["box", "near_convex"]},
                    tuple(jobs))


def fanout_jobs(seed, threads):
    """The largest box-jitter maxdepth job, once per thread count."""
    i = len(MAXDEPTH_SIZES) - 1
    return [_maxdepth_job(MAXDEPTH_SIZES[i], False, seed * 1009 + 2 * i, t) for t in threads]


# ---------------------------------------------------------------------------
# maxdual: dual.max_dual_depth_point on random families, extremal_report on
# tangent families
# ---------------------------------------------------------------------------

MAXDUAL_SIZES = (10, 12, 14, 16)
EXTREMAL_SIZES = (9, 12, 15)


def _maxdual_job(n, seed):
    fam = datasets.random_line_family(n, seed)

    def check(result):
        q, rep = result
        recount = dual.dual_depth_naive(q, fam).count
        if recount != rep.count:
            return [f"dual_depth_naive recount {recount} != reported {rep.count}"]
        return []

    return Job(id=f"maxdual:n{n}",
               call=lambda: dual.max_dual_depth_point(fam, threads=1),
               canonical=lambda r: [_pt(r[0]), r[1].count],
               check=check)


def _extremal_job(n):
    def check(rep):
        errors = []
        family = dual.tangent_family(n)
        if rep.max_count > n ** 3 // 27:
            errors.append(f"strict max {rep.max_count} > floor(n^3/27)")
        strict = dual.dual_depth_naive(rep.max_point, family).strict_count
        if strict != rep.max_count:
            errors.append(f"strict recount {strict} != reported {rep.max_count}")
        closed = dual.dual_depth_naive(rep.closed_max_point, family).count
        if closed != rep.closed_max_count:
            errors.append(f"closed recount {closed} != reported {rep.closed_max_count}")
        return errors

    return Job(id=f"extremal:n{n}",
               call=lambda: dual.extremal_report(n),
               canonical=lambda r: [_pt(r.max_point), r.max_count,
                                    _pt(r.closed_max_point), r.closed_max_count],
               check=check)


def maxdual(seed):
    jobs = [_maxdual_job(n, seed * 1013 + i) for i, n in enumerate(MAXDUAL_SIZES)]
    jobs += [_extremal_job(n) for n in EXTREMAL_SIZES]
    return Workload({"random_n": list(MAXDUAL_SIZES), "tangent_n": list(EXTREMAL_SIZES)},
                    tuple(jobs))


# ---------------------------------------------------------------------------
# landscape: svgplot.depth_grid with the primal and dual counting kernels,
# as ``--plot`` calls it
# ---------------------------------------------------------------------------

PRIMAL_N, PRIMAL_GRID = 16, 64
DUAL_N, DUAL_GRID = 12, 24
DUAL_BOX = [Fraction(-8), Fraction(-8), Fraction(8), Fraction(8)]
SAMPLED_CELLS = 24


def _cell_centre(bbox, resolution, row, col):
    xmin, ymin, xmax, ymax = bbox
    return Point(xmin + (xmax - xmin) * Fraction(2 * col + 1, 2 * resolution),
                 ymin + (ymax - ymin) * Fraction(2 * row + 1, 2 * resolution))


def _grid_job(job_id, count_at, oracle, bbox, resolution, rng):
    sample = rng.sample(range(resolution * resolution), SAMPLED_CELLS)

    def check(grid):
        cells = grid["cells"]
        if len(cells) != resolution or any(len(r) != resolution for r in cells):
            return [f"grid shape is not {resolution}x{resolution}"]
        errors = []
        if grid["max"] != max(max(r) for r in cells):
            errors.append("grid max is not the largest cell")
        for k in sample:
            row, col = divmod(k, resolution)
            expected = oracle(_cell_centre(bbox, resolution, row, col))
            if cells[row][col] != expected:
                errors.append(f"cell ({row}, {col}): {cells[row][col]} != {expected}")
        return errors

    return Job(id=job_id,
               call=lambda: svgplot.depth_grid(count_at, bbox, resolution),
               canonical=lambda g: g["cells"],
               check=check,
               queries=resolution * resolution)


def landscape(seed):
    rng = random.Random(seed)
    pset = datasets.random_point_set(PRIMAL_N, seed * 1019)
    pts = pset.points
    fam = datasets.random_line_family(DUAL_N, seed * 1021)
    jobs = (
        _grid_job(f"landscape:primal:n{PRIMAL_N}",
                  lambda x, y: selection.closed_depth_count(Point(x, y), pts),
                  lambda q: selection.depth_naive(q, pset).count,
                  svgplot.bounding_box(list(pts)), PRIMAL_GRID, rng),
        _grid_job(f"landscape:dual:n{DUAL_N}",
                  lambda x, y: dual.dual_depth_fast(Point(x, y), fam).count,
                  lambda q: dual.dual_depth_naive(q, fam).count,
                  DUAL_BOX, DUAL_GRID, rng),
    )
    return Workload({"primal_n": PRIMAL_N, "primal_grid": PRIMAL_GRID,
                     "dual_n": DUAL_N, "dual_grid": DUAL_GRID,
                     "sampled_cells_per_grid": SAMPLED_CELLS}, jobs)


# ---------------------------------------------------------------------------
# verify: the check families of verification.run_battery(seed, trials=5),
# determinism excluded
# ---------------------------------------------------------------------------

VERIFY_TRIALS = 5


def _battery_calls(seed, trials):
    """The calls run_battery makes, with the same arguments, one per family."""
    v = verification
    return (
        ("oracle_equivalence", lambda: v.check_oracle_equivalence(
            seed, planar_sets=4 * trials, dual_sets=4 * trials, triples=200 * trials)),
        ("selection_bound", lambda: v.check_selection_bound(seed, trials=trials, threads=1)),
        ("dual_bound", lambda: v.check_dual_bound(seed, trials=trials, threads=1)),
        ("tangent_tightness", lambda: v.check_tangent_tightness()),
        ("base_cut_identity", lambda: v.check_base_cut_identity(seed, trials=2 * trials)),
        ("exposure_semantics", lambda: v.check_exposure_semantics(seed, trials=trials)),
        ("transversal", lambda: v.check_transversal(
            seed, trials=trials, d3_trials=max(1, trials // 5))),
        ("continuity", lambda: v.check_continuity(
            seed, paths=max(1, trials // 5), samples=101)),
        ("module_invariants", lambda: v.check_module_invariants(
            seed, trials=max(10, trials))),
    )


CHECK_IDS = tuple(check_id for check_id, _ in _battery_calls(0, VERIFY_TRIALS))


def _verify_job(check_id, call):
    def check(report):
        errors = []
        if report["id"] != check_id:
            errors.append(f"report id {report['id']!r} != {check_id!r}")
        if not report["passed"]:
            errors.append(f"{check_id} failed: {report['failures'][:3]}")
        return errors

    return Job(id=f"verify:{check_id}", call=call,
               canonical=lambda r: [r["id"], r["passed"], r["details"]], check=check)


def verify(seed):
    jobs = [_verify_job(check_id, call)
            for check_id, call in _battery_calls(seed, VERIFY_TRIALS)]
    return Workload({"trials": VERIFY_TRIALS, "checks": list(CHECK_IDS)},
                    tuple(jobs))


BUILDERS = {"maxdepth": maxdepth, "maxdual": maxdual,
            "landscape": landscape, "verify": verify}
