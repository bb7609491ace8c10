import itertools
import random
from fractions import Fraction

import pytest

from heavycover.datasets import colored_point_set, random_point_set
from heavycover.errors import DegeneracyError, DomainError
from heavycover.exactgeom import Point, dehomog, homog, intersect_lines_homog, line_through_homog, reduce_homog
from heavycover.selection import (
    FANOUT,
    BoundVariant,
    _segment_steps,
    _segment_vertices,
    _walk_tables,
    LabeledPointSet,
    binom,
    candidate_vertices,
    closed_depth_count,
    colorful_depth,
    depth_naive,
    depth_planar_sweep,
    max_depth_point,
    selection_bound,
)

TRI = LabeledPointSet((Point(0, 0), Point(4, 0), Point(0, 4)))
SQUARE = LabeledPointSet((Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)))


def test_binom():
    assert binom(9, 3) == 84
    assert binom(5, 5) == 1
    assert binom(20, 3) == 1140
    with pytest.raises(DomainError):
        binom(3, 5)
    with pytest.raises(DomainError):
        binom(-1, 0)


def test_selection_bound_values():
    assert selection_bound(2, BoundVariant.GROMOV) == Fraction(2, 9)
    assert selection_bound(3, BoundVariant.GROMOV) == Fraction(1, 16)
    assert selection_bound(2, BoundVariant.BARANY) == Fraction(1, 9)
    assert selection_bound(1, BoundVariant.GROMOV) == Fraction(1, 2)
    assert selection_bound(1) == Fraction(1, 2)


def test_depth_naive_examples():
    assert depth_naive(Point(1, 1), TRI).count == 1
    assert depth_naive(Point(1, 1), TRI).total == 1
    assert depth_naive(Point(9, 9), TRI).count == 0
    rep = depth_naive(Point(2, 2), SQUARE)
    assert (rep.count, rep.total) == (4, 4)
    assert rep.strict_count == 0  # the center sits on both diagonals


def test_depth_naive_frozen_seeded_value():
    # frozen from an independent sign-of-area enumeration run before the build
    ps = random_point_set(10, 42)
    rep = depth_naive(Point(1, 1), ps)
    assert (rep.count, rep.total) == (14, 120)


def test_depth_naive_works_in_other_dimensions():
    ps1 = LabeledPointSet((Point(0), Point(2), Point(5)))
    assert depth_naive(Point(1), ps1).count == 2  # [0,2] and [0,5]
    ps3 = LabeledPointSet((Point(0, 0, 0), Point(4, 0, 0), Point(0, 4, 0),
                           Point(0, 0, 4), Point(4, 4, 4)))
    assert depth_naive(Point(1, 1, 1), ps3).count >= 1


def test_depth_sweep_matches_naive_on_examples():
    assert depth_planar_sweep(Point(1, 1), TRI).count == 1
    assert depth_planar_sweep(Point(9, 9), TRI).count == 0
    with pytest.raises(DegeneracyError):
        depth_planar_sweep(Point(0, 0), TRI)


def test_depth_sweep_falls_back_on_collinearity():
    rep = depth_planar_sweep(Point(2, 2), SQUARE)  # on both diagonals
    assert rep.method == "naive_fallback"
    assert rep.count == 4


def test_depth_sweep_equals_naive_seeded():
    rng = random.Random(1)
    for trial in range(60):
        n = rng.randrange(4, 14)
        ps = random_point_set(n, 1000 + trial)
        q = Point(Fraction(rng.randrange(-60, 61), 7),
                  Fraction(rng.randrange(-60, 61), 7))
        assert depth_planar_sweep(q, ps).count == depth_naive(q, ps).count


def test_closed_depth_count_handles_degeneracies():
    # engine agrees with the exhaustive count even at data points and on
    # pair lines, where the restricted sweep must not run
    pts = (Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4), Point(1, 2))
    ps = LabeledPointSet(pts)
    for q in [Point(2, 2), Point(0, 0), Point(2, 0), Point(1, 2), Point(3, 1)]:
        assert closed_depth_count(q, pts) == depth_naive(q, ps).count


def test_closed_depth_engine_fuzz_on_degenerate_grid():
    # a tiny coordinate grid forces coincident points, equal and antipodal
    # directions, and queries on data points; the rotational engine must agree
    # with exhaustive enumeration on all of them
    rng = random.Random(404)
    for _ in range(400):
        n = rng.randrange(3, 8)
        pts = tuple(Point(rng.randrange(-2, 3), rng.randrange(-2, 3))
                    for _ in range(n))
        q = Point(rng.randrange(-2, 3), rng.randrange(-2, 3))
        assert closed_depth_count(q, pts) == depth_naive(q, LabeledPointSet(pts)).count


def test_depth_affine_invariance():
    rng = random.Random(9)
    ps = random_point_set(8, 77)
    q = Point(Fraction(1, 3), Fraction(2, 5))
    base = depth_naive(q, ps).count
    # invertible rational affine map
    a, b, c, d = Fraction(2), Fraction(1), Fraction(1), Fraction(1)
    tx, ty = Fraction(-3, 7), Fraction(5, 11)

    def apply(p):
        return Point(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty)

    mapped = LabeledPointSet(tuple(apply(p) for p in ps.points))
    assert depth_naive(apply(q), mapped).count == base


def test_colorful_depth_examples():
    classes = LabeledPointSet((Point(0, 0), Point(4, 0), Point(0, 4)),
                              colors=(0, 1, 2))
    assert colorful_depth(Point(1, 1), classes).count == 1
    assert colorful_depth(Point(9, 9), classes).count == 0
    assert colorful_depth(Point(1, 1), classes).total == 1


def test_colorful_depth_frozen_seeded_value():
    # frozen from an independent triple-loop enumeration run before the build
    ps = colored_point_set(12, 7, classes=3)
    rep = colorful_depth(Point(1, 1), ps)
    assert (rep.count, rep.total) == (10, 64)


def test_colorful_depth_class_count_validation():
    two = LabeledPointSet((Point(0, 0), Point(4, 0), Point(0, 4)), colors=(0, 1, 0))
    with pytest.raises(DomainError):
        colorful_depth(Point(1, 1), two)


def test_colorful_total_is_class_product():
    ps = colored_point_set(11, 19, classes=3)
    sizes = [len(ix) for ix in ps.color_classes().values()]
    rep = colorful_depth(Point(0, 0), ps)
    assert rep.total == sizes[0] * sizes[1] * sizes[2]
    assert 0 <= rep.count <= rep.total


def test_candidate_vertices_examples():
    cands = candidate_vertices(TRI)
    assert set(cands.points) == set(TRI.points)
    sq = candidate_vertices(SQUARE)
    assert Point(2, 2) in sq.points  # diagonal crossing
    assert set(SQUARE.points) <= set(sq.points)
    tag_of = dict(zip(sq.points, sq.tags))
    assert tag_of[Point(2, 2)] == "intersection"
    assert tag_of[Point(0, 0)] == "data"


def test_candidate_vertices_frozen_seeded_count():
    # frozen from an independent slope-intercept intersection enumeration
    cands = candidate_vertices(random_point_set(8, 5))
    assert len(cands.points) == 218
    assert len(set(cands.points)) == 218


def test_max_depth_point_examples():
    q, rep = max_depth_point(TRI)
    assert (q, rep.count) == (Point(0, 0), 1)  # lexicographically least vertex
    q, rep = max_depth_point(SQUARE)
    assert (q, rep.count) == (Point(2, 2), 4)


def test_max_depth_point_frozen_seeded_value():
    # frozen from an independent full candidate scan run before the build
    q, rep = max_depth_point(random_point_set(9, 11))
    assert rep.count == 46
    assert q == Point(Fraction(42283, 9973), Fraction(38661, 9973))


def test_max_depth_point_degenerate_input():
    bad = LabeledPointSet((Point(0, 0), Point(1, 1), Point(2, 2), Point(0, 1)))
    with pytest.raises(DegeneracyError) as err:
        max_depth_point(bad)
    assert ("collinear", (0, 1, 2)) in err.value.violations


def test_max_depth_dominates_every_candidate():
    ps = random_point_set(7, 31)
    _, rep = max_depth_point(ps)
    for cand in candidate_vertices(ps).points:
        assert depth_naive(cand, ps).count <= rep.count


def test_max_depth_threads_match_serial():
    # n = 12 has 66 segments, enough for the walk to split them over workers
    assert binom(12, 2) >= FANOUT
    for ps in (random_point_set(8, 55), random_point_set(12, 56, near_convex=True)):
        q1, r1 = max_depth_point(ps, threads=1)
        q2, r2 = max_depth_point(ps, threads=2)
        assert (q1, r1.count) == (q2, r2.count)


HEXAGON = LabeledPointSet((Point(1, 0), Point(0, 1), Point(-1, 1), Point(-1, 0),
                           Point(0, -1), Point(1, -1),
                           Point(Fraction(1, 3), Fraction(1, 7))))


def test_max_depth_point_matches_line_arrangement_oracle():
    # lex-least maximum of closed depth over every line-arrangement vertex
    rng = random.Random(2024)
    for n, near_convex in itertools.product(range(5, 15), (False, True)):
        ps = random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
        counts = {q: closed_depth_count(q, ps.points)
                  for q in candidate_vertices(ps).points}
        best = max(counts.values())
        expected = min((q for q, c in counts.items() if c == best),
                       key=lambda q: q.coords)
        q, rep = max_depth_point(ps, witness_limit=0)
        assert (q, rep.count) == (expected, best)


def _proper_crossings(ps):
    """Points interior to two segments p_i p_j and p_k p_m, by line intersection."""
    pts_h = [homog(p) for p in ps.points]
    segments = list(itertools.combinations(range(ps.n), 2))
    out = set()
    for (i, j), (k, m) in itertools.combinations(segments, 2):
        if {i, j} & {k, m}:
            continue
        x, y, w = intersect_lines_homog(line_through_homog(pts_h[i], pts_h[j]),
                                        line_through_homog(pts_h[k], pts_h[m]))
        if w == 0:
            continue
        v = dehomog((x, y, w))
        if all(min(a.coords[c], b.coords[c]) <= v.coords[c] <= max(a.coords[c], b.coords[c])
               and v != a and v != b
               for a, b in ((ps.points[i], ps.points[j]), (ps.points[k], ps.points[m]))
               for c in (0, 1)):
            out.add(v)
    return out


def test_segment_walk_counts_every_crossing_exactly():
    # the hexagon's three long diagonals meet at the origin: the walk must
    # step across all three there at once
    sets = [HEXAGON] + [random_point_set(n, 300 + n, near_convex=n % 2 == 0)
                        for n in range(5, 11)]
    for ps in sets:
        w, tables = _walk_tables([homog(p) for p in ps.points])
        seen = set()
        for i, j in itertools.combinations(range(ps.n), 2):
            for count, (x, y, v) in _segment_vertices(i, j, *tables):
                q = dehomog((x, y, v * w))
                assert count == closed_depth_count(q, ps.points)
                seen.add(q)
        assert seen == _proper_crossings(ps)


def test_segment_start_count_matches_exact_count_halfway():
    # the count read off the tables for the open edge just past p_i toward
    # p_j equals an exact count halfway to the first crossing (or to p_j when
    # there is none), for every ordered pair; so do the data-point depths
    rng = random.Random(4711)
    for n, near_convex in itertools.product(range(5, 15), (False, True)):
        ps = random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
        w, tables = _walk_tables([homog(p) for p in ps.points])
        pts, depth = tables[0], tables[-1]
        assert depth == [closed_depth_count(p, ps.points) for p in ps.points]
        for i, j in itertools.permutations(range(n), 2):
            start, steps = _segment_steps(i, j, *tables)
            (xi, yi, _), (xj, yj, _) = pts[i], pts[j]
            a, b = steps[min(steps)][2:] if steps else (1, 0)
            half = ((a + 2 * b) * xi + a * xj, (a + 2 * b) * yi + a * yj, 2 * (a + b) * w)
            assert start == closed_depth_count(dehomog(half), ps.points)


def test_upper_semicontinuity_on_arrangement_edges():
    # depth at an edge midpoint never exceeds depth at either edge endpoint
    ps = random_point_set(5, 23)
    pts_h = [homog(p) for p in ps.points]
    lines = {}
    for i, j in itertools.combinations(range(ps.n), 2):
        lines[line_through_homog(pts_h[i], pts_h[j])] = None
    lines = list(lines)
    verts = {}
    for a, b in itertools.combinations(lines, 2):
        x, y, w = intersect_lines_homog(a, b)
        if w != 0:
            verts[reduce_homog((x, y, w))] = None
    checked = 0
    for a, b, c in lines:
        on_line = [k for k in verts if a * k[0] + b * k[1] == c * k[2]]
        params = sorted((Fraction(-b * k[0] + a * k[1], k[2]), k) for k in on_line)
        den = a * a + b * b
        for (s1, k1), (s2, k2) in zip(params, params[1:]):
            mid = (s1 + s2) / 2
            mpoint = Point(Fraction(a * c, den) - b * mid / den,
                           Fraction(b * c, den) + a * mid / den)
            d_mid = closed_depth_count(mpoint, ps.points)
            d1 = closed_depth_count(dehomog(k1), ps.points)
            d2 = closed_depth_count(dehomog(k2), ps.points)
            assert d_mid <= min(d1, d2)
            checked += 1
    assert checked > 20


def test_depth_report_slack_fields():
    rep = depth_naive(Point(1, 1), TRI)
    assert rep.bound == Fraction(2, 9)
    assert rep.slack_bound == Fraction(2, 9) - Fraction(3, 3)
    assert rep.meets_bound and rep.meets_slack_bound
