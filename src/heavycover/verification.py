"""The desk-scale verification battery.

Every quantitative claim the library makes is re-checked here: oracle
equivalences between independent counting routes, the 2/9 selection and dual
bounds with their small-n slack, the primal maximum against a scan that
reads no walk, the tangent-family tightness, the per-line cut identity,
exposure semantics, transversal floors, heavy-region persistence along
motions, and byte-level determinism of this very battery.

The same functions back both tests/test_acceptance.py and the ``verify`` CLI
subcommand. All report values are exact (rationals serialize as "p/q"), so
reports are byte-comparable across runs.

The inner loops build only what their oracles read. The surround loop draws
its line triples as integers from one seeded stream (``_surround_triple``)
and makes ``Hyperplane``s only for the two surround tests; the exposure
check builds each sampled direction's ``Point`` once for all pairs of feet.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from .continuity import MotionPath, continuity_demo
from .datasets import (
    emit_dataset,
    generate,
    parse_dataset,
    random_line_coeffs,
    random_line_family,
    random_motion_path,
    random_point_set,
)
from .dual import (
    DUAL_BOUND,
    LineFamily,
    _sides,
    base_cut_count,
    classify_tangents,
    dual_depth_fast,
    dual_depth_naive,
    exposure_profile,
    extremal_report,
    max_dual_depth_point,
    surround_direct,
    surround_projection,
    tangent_family,
)
from .errors import DegeneracyError
from .exactgeom import (
    Hyperplane,
    Point,
    _line_from_coeffs,
    _solve_exact,
    dehomog,
    homog,
    intersect_lines_homog,
    orientation,
    point_in_simplex,
    project_onto_hyperplane,
    segment_crosses_ray,
)
from .selection import (
    LabeledPointSet,
    _candidate_homogs,
    _closed_depth_homog,
    colorful_depth,
    depth_naive,
    depth_planar_sweep,
    max_depth_point,
    selection_bound,
)
from .transversal import AffineFlat, find_transversal_line_2d, verify_transversal


def frac(f) -> str:
    return str(Fraction(f))


def point_json(p: Point):
    return [str(c) for c in p.coords]


def _check(check_id, description, failures, trials, **details):
    return {
        "id": check_id,
        "description": description,
        "trials": trials,
        "passed": not failures,
        "failures": failures[:20],
        "details": details,
    }


def _rand_query(rng, span=6, denom=11):
    return Point(Fraction(rng.randrange(-span * denom, span * denom + 1), denom),
                 Fraction(rng.randrange(-span * denom, span * denom + 1), denom))


def _surround_triple(rng):
    """Three integer lines in general position, each drawn from ``rng`` as
    ``random_line_family`` draws a line at its first span
    (``random_line_coeffs``). A triple with a parallel pair (coincident lines
    are parallel too) or with the third line through the first two's
    crossing is drawn again, so the triples have the distribution of
    ``random_line_family(3, ·)``, with no ``LineFamily`` built."""
    while True:
        first, second, third = (random_line_coeffs(rng) for _ in range(3))
        x, y, w = intersect_lines_homog(first, second)
        a, b, c = third
        if (w and a * first[1] != first[0] * b and a * second[1] != second[0] * b
                and a * x + b * y != c * w):
            return [first, second, third]


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence, exact
# ---------------------------------------------------------------------------

def check_oracle_equivalence(seed, planar_sets=200, dual_sets=200, triples=10_000):
    """depth_planar_sweep == depth_naive and dual_depth_fast ==
    dual_depth_naive on (count, strict_count), surround_projection ==
    surround_direct; zero mismatches allowed. The surround triples come from
    one stream seeded at seed * 4001 (``_surround_triple``), each with a
    query from the check's query stream; a query on one of its lines is
    drawn again with a new triple."""
    rng = random.Random(seed * 11 + 1)
    failures = []
    for t in range(planar_sets):
        n = 4 + (t * 7) % 27  # sizes 4..30
        ps = random_point_set(n, seed * 1009 + t)
        q = _rand_query(rng)
        a = depth_planar_sweep(q, ps)
        b = depth_naive(q, ps)
        if (a.count, a.strict_count) != (b.count, b.strict_count):
            failures.append(f"planar trial {t}: sweep {a.count} (strict {a.strict_count}) "
                            f"!= naive {b.count} (strict {b.strict_count})")
    for t in range(dual_sets):
        n = 4 + (t * 5) % 17  # sizes 4..20
        fam = random_line_family(n, seed * 2003 + t)
        q = _rand_query(rng)
        a = dual_depth_fast(q, fam)
        b = dual_depth_naive(q, fam)
        if (a.count, a.strict_count) != (b.count, b.strict_count):
            failures.append(f"dual trial {t}: fast {a.count} (strict {a.strict_count}) "
                            f"!= naive {b.count} (strict {b.strict_count})")
    line_rng = random.Random(seed * 4001)
    done = 0
    t = 0
    while done < triples:
        coeffs = _surround_triple(line_rng)
        q = _rand_query(rng)
        t += 1
        if 0 in _sides(homog(q), coeffs):
            continue
        lines = [_line_from_coeffs(c) for c in coeffs]
        if surround_projection(q, lines) != surround_direct(q, lines):
            failures.append(f"surround triple {t}: projection != direct at {point_json(q)}")
        done += 1
    return _check(
        "oracle_equivalence",
        "independent counting routes agree exactly (sweep/naive, fast/naive, "
        "projection/direct)",
        failures,
        planar_sets + dual_sets + triples,
        planar_sets=planar_sets, dual_sets=dual_sets, surround_triples=triples)


# ---------------------------------------------------------------------------
# Criterion 2: planar selection bound with slack
# ---------------------------------------------------------------------------

def check_selection_bound(seed, trials=50, sizes=(10, 15, 20), threads=1):
    """max_depth_point fraction >= 2/9 - 3/n on every seeded general-position
    set. The slack constant 3 was calibrated at n <= 12 before freezing.
    ``threads`` is ignored; it stays only because the benchmark's workloads
    pass it."""
    failures = []
    worst = None
    for t in range(trials):
        n = sizes[t % len(sizes)]
        ps = random_point_set(n, seed * 3001 + t)
        _, rep = max_depth_point(ps, witness_limit=0)
        target = selection_bound(2) - Fraction(3, n)
        margin = rep.fraction - target
        if worst is None or margin < worst[0]:
            worst = (margin, n, t)
        if rep.fraction < target:
            failures.append(f"trial {t} (n={n}): fraction {rep.fraction} < {target}")
    return _check(
        "selection_bound",
        "planar max simplicial depth fraction >= 2/9 - 3/n on seeded sets",
        failures,
        trials,
        sizes=list(sizes),
        slack_numerator=3,
        worst_margin=frac(worst[0]), worst_n=worst[1], worst_trial=worst[2])


# ---------------------------------------------------------------------------
# Primal maximality: the pruned walk's winners against a scan that reads no walk
# ---------------------------------------------------------------------------

def check_primal_maximality(seed, trials=50):
    """max_depth_point equals the lexicographically least best point of the
    angular count at every line-arrangement vertex (``_candidate_homogs``),
    on 2 * trials seeded box and near-convex sets at n = 5..10; a walk that
    skips a segment it should walk shows here whenever the maximum is a
    crossing (``crossing_maxima`` counts those sets)."""
    failures = []
    crossing_maxima = 0
    for t in range(2 * trials):
        n = 5 + (t // 2) % 6
        ps = random_point_set(n, seed * 9403 + t, near_convex=t % 2 == 1)
        pts_h = [homog(p) for p in ps.points]
        counts = [(_closed_depth_homog(key, pts_h), key) for key, _ in _candidate_homogs(pts_h)]
        top = max(counts)[0]
        expected = min((dehomog(k) for c, k in counts if c == top), key=lambda q: q.coords)
        q, rep = max_depth_point(ps, witness_limit=0)
        if (q, rep.count) != (expected, top):
            failures.append(f"trial {t} (n={n}): max_depth_point {point_json(q)} count "
                            f"{rep.count} != scan {point_json(expected)} count {top}")
        crossing_maxima += expected not in ps.points
    return _check(
        "primal_maximality",
        "max_depth_point equals the lexicographically least best point of a "
        "closed count at every line-arrangement vertex",
        failures,
        2 * trials,
        crossing_maxima=crossing_maxima)


# ---------------------------------------------------------------------------
# Criterion 3: dual bound with slack
# ---------------------------------------------------------------------------

def check_dual_bound(seed, trials=50, sizes=(8, 10, 12), threads=1):
    """max_dual_depth_point fraction >= 2/9 - 3/n on seeded line families.
    ``threads`` is ignored; it stays only because the benchmark's workloads
    pass it."""
    failures = []
    worst = None
    for t in range(trials):
        n = sizes[t % len(sizes)]
        fam = random_line_family(n, seed * 3301 + t)
        _, rep = max_dual_depth_point(fam)
        target = DUAL_BOUND - Fraction(3, n)
        margin = rep.fraction - target
        if worst is None or margin < worst[0]:
            worst = (margin, n, t)
        if rep.fraction < target:
            failures.append(f"trial {t} (n={n}): fraction {rep.fraction} < {target}")
    return _check(
        "dual_bound",
        "max dual depth fraction >= 2/9 - 3/n on seeded line families",
        failures,
        trials,
        sizes=list(sizes), slack_numerator=3,
        worst_margin=frac(worst[0]), worst_n=worst[1], worst_trial=worst[2])


# ---------------------------------------------------------------------------
# Criterion 4: tangent-family tightness
# ---------------------------------------------------------------------------

def check_tangent_tightness(sizes=(9, 12, 18)):
    """Strict surround maxima of tangent families respect the n^3/27 product
    bound and their fractions approach 2/9 monotonically across the sizes."""
    failures = []
    rows = []
    distances = []
    for n in sizes:
        rep = extremal_report(n)
        if rep.max_count > rep.product_bound_floor:
            failures.append(f"n={n}: strict max {rep.max_count} exceeds "
                            f"floor {rep.product_bound_floor}")
        rows.append({
            "n": n,
            "max_count": rep.max_count,
            "product_bound_floor": rep.product_bound_floor,
            "fraction": frac(rep.fraction),
            "distance_to_2_9": frac(rep.distance_to_bound),
            "closed_vertex_max": rep.closed_max_count,
            "closed_boundary_triples": rep.closed_boundary_count,
        })
        distances.append(rep.distance_to_bound)
    for a, b in zip(distances, distances[1:]):
        if b > a:
            failures.append(f"distance to 2/9 grew: {a} -> {b}")
    return _check(
        "tangent_tightness",
        "tangent families: strict max <= floor(n^3/27) and the fraction "
        "approaches 2/9 monotonically over the tested sizes",
        failures,
        len(sizes),
        rows=rows)


# ---------------------------------------------------------------------------
# Criterion 5: per-line cut identity
# ---------------------------------------------------------------------------

def check_base_cut_identity(seed, trials=100, max_n=12):
    """sum_i base_cut_count(q, i) == 3 * dual depth, with per-line equality
    against filtered surrounding-triple counts; exact."""
    rng = random.Random(seed * 17 + 5)
    failures = []
    done = 0
    t = 0
    while done < trials:
        n = 5 + (t % (max_n - 4))
        fam = random_line_family(n, seed * 5003 + t)
        q = _rand_query(rng)
        t += 1
        if 0 in _sides(homog(q), fam.coeffs):
            continue
        per_line = [0] * n
        total = 0
        for idx in itertools.combinations(range(n), 3):
            if surround_direct(q, [fam.lines[i] for i in idx]):
                total += 1
                for i in idx:
                    per_line[i] += 1
        for i in range(n):
            got = base_cut_count(q, i, fam)
            if got != per_line[i]:
                failures.append(f"trial {t} line {i}: base_cut {got} != filtered "
                                f"{per_line[i]}")
        if sum(per_line) != 3 * total:
            failures.append(f"trial {t}: sum {sum(per_line)} != 3 * {total}")
        if total != dual_depth_naive(q, fam).count:
            failures.append(f"trial {t}: filtered total mismatch")
        done += 1
    return _check(
        "base_cut_identity",
        "per-line base-cut counts equal filtered surrounding-triple counts; "
        "their sum is exactly three times the dual depth",
        failures,
        trials)


# ---------------------------------------------------------------------------
# Criterion 6: exposure semantics
# ---------------------------------------------------------------------------

def check_exposure_semantics(seed, trials=50):
    """Arc counts of the exposure profile equal direct ray-crossing enumeration
    at three sampled exact directions per arc."""
    rng = random.Random(seed * 29 + 7)
    failures = []
    done = 0
    t = 0
    while done < trials:
        n = 4 + (t % 7)
        fam = random_line_family(n, seed * 6007 + t)
        q = _rand_query(rng)
        t += 1
        if 0 in _sides(homog(q), fam.coeffs):
            continue
        try:
            profile = exposure_profile(q, fam)
        except DegeneracyError:
            continue
        feet = [project_onto_hyperplane(q, h) for h in fam.lines]
        for i in range(profile.n_arcs):
            for d in profile.directions_inside_arc(i, count=3):
                ray = Point(*d)
                crossings = sum(
                    1 for a, b in itertools.combinations(feet, 2)
                    if segment_crosses_ray(a, b, q, ray))
                if crossings != profile.arc_counts[i]:
                    failures.append(
                        f"trial {t} arc {i} dir {d}: enumeration {crossings} != "
                        f"profile {profile.arc_counts[i]}")
        done += 1
    return _check(
        "exposure_semantics",
        "profile arc counts match per-direction segment/ray crossing "
        "enumeration at 3 exact directions per arc",
        failures,
        trials)


# ---------------------------------------------------------------------------
# Criterion 7: transversal floors (d=2, m=1) and general verify path (d=3, m=1)
# ---------------------------------------------------------------------------

def _triangle_line_oracle(tri, base, direction):
    """Whether the line base + t·direction meets the closed triangle, from the
    4×4 system sum(mu_i·tri_i) − t·direction = base, sum(mu_i) = 1: None when
    the system is singular, else whether every mu_i >= 0."""
    rows = []
    rhs = []
    for c in range(3):
        rows.append([tri[0][c], tri[1][c], tri[2][c], -direction[c]])
        rhs.append(base[c])
    rows.append([Fraction(1)] * 3 + [Fraction(0)])
    rhs.append(Fraction(1))
    status, sol = _solve_exact(rows, rhs)
    if status != "unique":
        return None
    return sol[0] >= 0 and sol[1] >= 0 and sol[2] >= 0


def check_transversal(seed, trials=50, sizes=(6, 9, 12), d3_trials=10):
    """Constructed transversal lines meet the median floor for both sets (the
    frequency of meeting the full 1/2 bound is reported), and the general
    (d=3, m=1) verification fractions match an independent enumeration."""
    failures = []
    full_half = 0
    per_set_total = 0
    for t in range(trials):
        n = sizes[t % len(sizes)]
        p0 = random_point_set(n, seed * 7001 + 2 * t)
        p1 = random_point_set(n, seed * 7001 + 2 * t + 1)
        _, rep = find_transversal_line_2d(p0, p1)
        for s, srep in enumerate(rep.per_set):
            per_set_total += 1
            floor_count = srep.median_floor_count
            if srep.count < floor_count:
                failures.append(f"trial {t} set {s}: {srep.count} < floor {floor_count}")
            full_half += srep.meets_bound
    done = 0
    t = 0
    while done < d3_trials:
        t += 1
        base = random_point_set(1, seed * 8009 + 3 * t, dim=3).points[0]
        direction = random_point_set(1, seed * 8009 + 3 * t + 1, dim=3).points[0]
        if all(c == 0 for c in direction.coords):
            continue
        flat = AffineFlat(base=base, directions=(direction,))
        sets = [random_point_set(6, seed * 8009 + 3 * t + 2 + s, dim=3)
                for s in range(2)]
        rep = verify_transversal(flat, sets)
        ok = True
        for pset, srep in zip(sets, rep.per_set):
            count = 0
            for idx in itertools.combinations(range(6), 3):
                hit = _triangle_line_oracle([pset.points[i] for i in idx],
                                            base, direction)
                if hit is None:
                    ok = False
                    break
                count += hit
            if not ok:
                break
            if count != srep.count:
                failures.append(f"d3 trial {t}: oracle {count} != library {srep.count}")
        if ok:
            done += 1
    return _check(
        "transversal",
        "2d transversal lines meet the median floor per set; d=3, m=1 "
        "fractions match an independent enumeration oracle",
        failures,
        trials + d3_trials,
        full_half_met=full_half, per_set_reports=per_set_total,
        d3_trials=d3_trials)


# ---------------------------------------------------------------------------
# Criterion 8: heavy-region persistence and argmax jumps
# ---------------------------------------------------------------------------

def crafted_jump_path() -> MotionPath:
    """Frozen fixture: a satellite orbiting a 4-point cluster; the tracked
    argmax provably jumps between distant arrangement vertices while the data
    moves only a little per sample."""
    core = [Point(0, 0), Point(2, 0), Point(1, 2), Point(1, 1)]
    orbit = [Point(6, -5), Point(6, 6), Point(-5, 6), Point(-5, -5), Point(6, -5)]
    frames = tuple((Fraction(j, 4), LabeledPointSet(tuple(core + [s])))
                   for j, s in enumerate(orbit))
    return MotionPath(frames)


def check_continuity(seed, paths=10, n=10, samples=101):
    """Witness of depth >= (2/9 - 3/n) * C(n, 3) present at every
    non-degenerate sample of every seeded path; the crafted fixture must
    produce at least one flagged argmax jump."""
    failures = []
    tau = DUAL_BOUND - Fraction(3, n)
    degenerate_total = 0
    for p in range(paths):
        path = random_motion_path(n, seed * 9001 + p)
        report = continuity_demo(path, samples, tau, jump_threshold=Fraction(1, 2))
        degenerate_total += report.degenerate_samples
        if not report.all_witnessed:
            failures.append(f"path {p}: witness missing at some sample")
    fixture = continuity_demo(crafted_jump_path(), 21,
                              DUAL_BOUND - Fraction(3, 5),
                              jump_threshold=Fraction(1, 2),
                              data_threshold=Fraction(3))
    if fixture.jump_count < 1:
        failures.append("crafted fixture produced no argmax jump")
    if not fixture.all_witnessed:
        failures.append("crafted fixture lost its witness at some sample")
    return _check(
        "continuity",
        "heavy-region witness persists at every non-degenerate sample; the "
        "crafted orbit path exhibits at least one argmax jump",
        failures,
        paths + 1,
        tau=frac(tau), samples=samples, degenerate_samples=degenerate_total,
        fixture_jumps=fixture.jump_count)


# ---------------------------------------------------------------------------
# Module-level invariants (aggregated re-run of the per-module properties)
# ---------------------------------------------------------------------------

def check_module_invariants(seed, trials=60):
    """Compact seeded re-run of the per-module properties: predicate symmetry,
    containment oracles, projection identities, affine invariance, colorful
    totals, reorder invariance, tangent class bounds, dataset round-trips."""
    rng = random.Random(seed * 41 + 11)
    failures = []

    def rpt(span=24, denom=5):
        return Point(Fraction(rng.randrange(-span, span + 1), denom),
                     Fraction(rng.randrange(-span, span + 1), denom))

    for t in range(trials):
        pts = [rpt() for _ in range(3)]
        s = orientation(pts)
        swapped = [pts[1], pts[0], pts[2]]
        if orientation(swapped) != -s:
            failures.append(f"orientation antisymmetry broke at trial {t}")
        q = rpt()
        verdicts = {point_in_simplex(q, list(perm))
                    for perm in itertools.permutations(pts)}
        if len(verdicts) != 1:
            failures.append(f"containment permutation invariance broke at trial {t}")
    for t in range(trials):
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
        if a == 0 and b == 0:
            continue
        h = Hyperplane((a, b), Fraction(rng.randrange(-9, 10), 3))
        q = rpt()
        f = project_onto_hyperplane(q, h)
        if h.side(f) != 0 or (q - f).dot(Point(-h.normal[1], h.normal[0])) != 0:
            failures.append(f"projection identity broke at trial {t}")
    ps = random_point_set(7, seed * 13 + 2)
    q = Point(Fraction(1, 3), Fraction(2, 7))
    base_count = depth_naive(q, ps).count

    def amap(p):
        return Point(2 * p.x + p.y + Fraction(1, 5), p.x + p.y - Fraction(2, 3))

    mapped = LabeledPointSet(tuple(amap(p) for p in ps.points))
    if depth_naive(amap(q), mapped).count != base_count:
        failures.append("affine invariance of depth broke")
    colored = generate("COLORED_POINTS", 10, seed * 13 + 3).points
    crep = colorful_depth(Point(0, 0), colored)
    sizes = [len(ix) for ix in colored.color_classes().values()]
    if crep.total != sizes[0] * sizes[1] * sizes[2]:
        failures.append("colorful total is not the class-size product")
    fam = random_line_family(6, seed * 13 + 4)
    qq = Point(Fraction(2, 5), Fraction(-1, 5))
    base_dual = dual_depth_naive(qq, fam).count
    order = list(range(6))
    rng.shuffle(order)
    if dual_depth_naive(qq, LineFamily(tuple(fam.lines[i] for i in order))).count \
            != base_dual:
        failures.append("dual depth reorder invariance broke")
    tf = tangent_family(7)
    done = 0
    while done < 10:
        q = rpt(span=40, denom=7)
        if q.dot(q) <= 1:
            continue
        try:
            cls = classify_tangents(q, tf)
        except DegeneracyError:
            continue
        if cls.total != 7:
            failures.append("tangent classes do not partition the family")
        if dual_depth_naive(q, tf).count > cls.product:
            failures.append("tangent class product bound broke")
        done += 1
    for kind, n in (("POINTS", 6), ("LINES", 5), ("COLORED_POINTS", 9), ("PATH", 4)):
        ds = generate(kind, n, seed * 13 + 5)
        if parse_dataset(emit_dataset(ds)) != ds:
            failures.append(f"dataset round-trip broke for {kind}")
    return _check(
        "module_invariants",
        "seeded re-run of the per-module properties (symmetry, invariance, "
        "totals, round-trips)",
        failures,
        trials)


# ---------------------------------------------------------------------------
# Criterion 9: determinism
# ---------------------------------------------------------------------------

def battery_json(report: dict) -> str:
    """Canonical byte-stable serialization of a battery report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def check_determinism(seed, trials=2, samples=11):
    """The battery (all check families) serializes byte-identically when it
    runs twice with identical arguments."""
    runs = [battery_json(run_battery(seed=seed, trials=trials,
                                     include_determinism=False,
                                     continuity_samples=samples))
            for _ in range(2)]
    failures = []
    if runs[0] != runs[1]:
        failures.append("repeat run with identical arguments differed")
    return _check(
        "determinism",
        "battery reports are byte-identical across reruns",
        failures,
        2,
        report_bytes=len(runs[0]))


def run_battery(seed=42, trials=50, include_determinism=True,
                continuity_samples=101):
    """Run every check family; ``trials`` scales the seeded-instance counts
    (the defaults reproduce the acceptance-criteria counts exactly)."""
    checks = [
        check_oracle_equivalence(seed, planar_sets=4 * trials,
                                 dual_sets=4 * trials, triples=200 * trials),
        check_selection_bound(seed, trials=trials),
        check_primal_maximality(seed, trials=trials),
        check_dual_bound(seed, trials=trials),
        check_tangent_tightness(),
        check_base_cut_identity(seed, trials=2 * trials),
        check_exposure_semantics(seed, trials=trials),
        check_transversal(seed, trials=trials, d3_trials=max(1, trials // 5)),
        check_continuity(seed, paths=max(1, trials // 5), samples=continuity_samples),
        check_module_invariants(seed, trials=max(10, trials)),
    ]
    if include_determinism:
        checks.append(check_determinism(seed))
    return {
        "battery": "heavycover-verify",
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
