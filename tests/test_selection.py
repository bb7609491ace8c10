import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from heavycover import selection
from heavycover.datasets import colored_point_set, random_point_set
from heavycover.errors import DegeneracyError, DomainError, InternalError
from heavycover.exactgeom import (
    ContainmentVerdict,
    Point,
    dehomog,
    general_position_report,
    homog,
    intersect_lines_homog,
    line_through_homog,
    point_in_simplex,
    reduce_homog,
)
from heavycover.selection import (
    _angle_keys,
    _angular_counts,
    _avoiding,
    _candidate_homogs,
    _cell_bound,
    _cell_reach,
    _checked_max,
    _closed_depth_homog,
    _crossing_key,
    _exact_halves,
    _general_position,
    _opposite,
    _scan,
    _segment_vertices,
    _segment_walk,
    _walk_scan,
    _walk_tables,
    LabeledPointSet,
    binom,
    closed_depth_count,
    colorful_depth,
    depth_naive,
    depth_planar_sweep,
    max_depth_point,
    selection_bound,
)
from heavycover.svgplot import depth_grid

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
    assert selection_bound(2) == Fraction(2, 9)
    assert selection_bound(3) == Fraction(1, 16)
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


def _counts(rep):
    return rep.count, rep.strict_count


def test_depth_sweep_matches_naive_on_examples():
    # inside, outside, at a data point (a vertex of the one triangle) and on
    # an edge: one angular count gives the oracle's closed and strict counts
    for q, expected in ((Point(1, 1), (1, 1)), (Point(9, 9), (0, 0)),
                        (Point(0, 0), (1, 0)), (Point(2, 0), (1, 0))):
        rep = depth_planar_sweep(q, TRI)
        assert _counts(rep) == _counts(depth_naive(q, TRI)) == expected
        assert rep.method == "sweep"


def test_depth_sweep_falls_back_on_collinearity():
    # queries collinear with data pairs, at data points and at a duplicated
    # point no longer leave the angular count: opposite directions cost the
    # strict count its triples, and a point at q adds only closed triangles
    doubled = LabeledPointSet(SQUARE.points + (Point(4, 0),))
    for ps, q, expected in ((SQUARE, Point(2, 2), (4, 0)),  # on both diagonals
                            (SQUARE, Point(0, 0), (3, 0)),
                            (SQUARE, Point(2, 0), (2, 0)),
                            (SQUARE, Point(6, 0), (0, 0)),
                            (doubled, Point(4, 0), (9, 0)),
                            (doubled, Point(2, 2), (8, 0)),
                            (doubled, Point(3, 1), (7, 2))):
        rep = depth_planar_sweep(q, ps)
        assert rep.method == "sweep"
        assert _counts(rep) == _counts(depth_naive(q, ps)) == expected


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
    # pair lines
    pts = (Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4), Point(1, 2))
    ps = LabeledPointSet(pts)
    for q in [Point(2, 2), Point(0, 0), Point(2, 0), Point(1, 2), Point(3, 1)]:
        assert closed_depth_count(q, pts) == depth_naive(q, ps).count


def test_closed_depth_engine_fuzz_on_degenerate_grid():
    # a tiny coordinate grid forces coincident points, equal and antipodal
    # directions, and queries on data points; the rotational engine and the
    # sweep's closed and strict counts must agree with exhaustive enumeration
    # on all of them
    rng = random.Random(404)
    for _ in range(400):
        n = rng.randrange(3, 8)
        pts = tuple(Point(rng.randrange(-2, 3), rng.randrange(-2, 3))
                    for _ in range(n))
        q = Point(rng.randrange(-2, 3), rng.randrange(-2, 3))
        ps = LabeledPointSet(pts)
        naive = depth_naive(q, ps)
        assert closed_depth_count(q, pts) == naive.count
        assert _counts(depth_planar_sweep(q, ps)) == _counts(naive)


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


def _candidates(ps):
    """The data points and line-arrangement vertices of ``ps`` in
    ``_candidate_homogs``' order, each with its tag, "data" or
    "intersection"."""
    return [(dehomog(k), tag) for k, tag in _candidate_homogs([homog(p) for p in ps.points])]


def test_candidate_vertices_examples():
    # the line-arrangement candidates of the battery's maximality check
    assert {q for q, _ in _candidates(TRI)} == set(TRI.points)
    tag_of = dict(_candidates(SQUARE))
    assert set(SQUARE.points) <= set(tag_of)
    assert tag_of[Point(2, 2)] == "intersection"  # diagonal crossing
    assert tag_of[Point(0, 0)] == "data"


def test_candidate_vertices_frozen_seeded_count():
    # frozen from an independent slope-intercept intersection enumeration
    cands = _candidates(random_point_set(8, 5))
    assert len(cands) == 218
    assert len({q for q, _ in cands}) == 218


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
    for cand, _ in _candidates(ps):
        assert depth_naive(cand, ps).count <= rep.count


def test_max_depth_threads_match_serial():
    for ps in (random_point_set(8, 55), random_point_set(12, 56, near_convex=True)):
        q1, r1 = max_depth_point(ps, threads=1)
        q2, r2 = max_depth_point(ps, threads=2)
        assert (q1, r1.count) == (q2, r2.count)


def test_scan_contract_over_one_pass():
    # keys are homogeneous (x, y, w); (2, 4, 2) and (1, 2, 1) are one point
    stream = [(3, (4, 0, 2)), (5, (2, 6, 2)), (5, (2, 4, 2)), (5, (1, 2, 1)),
              (5, (1, 3, 1)), (4, (0, 9, 1)), (2, (-1, 7, 1))]
    caps = (None, 4)
    expected = [(5, Point(1, 2)), (4, Point(0, 9))]
    for perm in itertools.permutations(stream):
        pairs = (pair for pair in perm)
        bests = _scan(pairs, caps)
        assert next(pairs, None) is None
        assert [(score, dehomog(key)) for score, key in bests] == expected
    # equal points tie whatever their scaling: the first one seen stays
    assert _scan(iter([(5, (2, 4, 2)), (5, (1, 2, 1))])) == [(5, (2, 4, 2))]
    assert _scan(iter([(5, (1, 2, 1)), (5, (2, 4, 2))])) == [(5, (1, 2, 1))]
    # a lexicographically smaller point wins a tie in either order
    for pair in ([(5, (1, 3, 1)), (5, (1, 2, 1))], [(5, (1, 2, 1)), (5, (1, 3, 1))]):
        assert _scan(iter(pair)) == [(5, (1, 2, 1))]
    assert _scan(iter(())) == [None]


HEXAGON = LabeledPointSet((Point(1, 0), Point(0, 1), Point(-1, 1), Point(-1, 0),
                           Point(0, -1), Point(1, -1),
                           Point(Fraction(1, 3), Fraction(1, 7))))

# segments 2-3 and 4-5 cross segment 0-1 at x = 13/2 and x = 462/71, closer
# together than 1 / (2 * max |orient|): a walk key rounded that coarsely
# would merge the two crossings
CLOSE_CROSSINGS = LabeledPointSet((Point(0, 0), Point(14, 0), Point(12, 35),
                                   Point(1, -35), Point(6, 36), Point(7, -35)))

# coordinates near N = 2^60: six segments cross segment 0-1 at distinct
# points a few 2^-60 apart, a third of the way along it, so their float keys
# a / (a + b) all round to one double; the walk must keep them apart and order
# them exactly. Other segments carry clashes of two and of three crossings.
_N = 2 ** 60
FLOAT_CLASH = LabeledPointSet((Point(0, 0), Point(3 * _N, 1), Point(_N, -1), Point(_N, 1),
                               Point(_N + 1, -2), Point(_N + 1, 3), Point(_N + 2, -1)))

# FLOAT_CLASH with p = (2^59 + 7, 5) and its mirror image 2c - p through c, the
# third crossing in exact order on segment 0-1, at parameter (4N + 1) / (12N - 1):
# segment p p' crosses 0-1 at c too, so one float holds both distinct
# crossings and a concurrency, and the walk must order and merge at once
_C = Fraction(4 * _N + 1, 12 * _N - 1)
_P = Point(2 ** 59 + 7, 5)
SHARED_FLOAT = LabeledPointSet(FLOAT_CLASH.points
                               + (_P, Point(2 * 3 * _N * _C - _P.x, 2 * _C - _P.y)))


def test_max_depth_point_matches_line_arrangement_oracle():
    # lex-least maximum of closed depth over every line-arrangement vertex
    rng = random.Random(2024)
    for n, near_convex in itertools.product(range(5, 15), (False, True)):
        ps = random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
        counts = {q: closed_depth_count(q, ps.points) for q, _ in _candidates(ps)}
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
    # step across all three there at once; FLOAT_CLASH's crossings share keys,
    # and SHARED_FLOAT's also meet two at a time on a shared key
    sets = [HEXAGON, CLOSE_CROSSINGS, FLOAT_CLASH, SHARED_FLOAT]
    sets += [random_point_set(n, 300 + n, near_convex=n % 2 == 0) for n in range(5, 11)]
    for ps in sets:
        tables = _walk_tables([homog(p) for p in ps.points])
        seen = set()
        for i, j in itertools.combinations(range(ps.n), 2):
            for count, key in _segment_vertices(i, j, *tables):
                q = dehomog(key)
                assert count == closed_depth_count(q, ps.points)
                seen.add(q)
        assert seen == _proper_crossings(ps)


def _places_on_segment_0_1(ps):
    """(a, b) of each segment p_k p_m crossing segment 0-1 properly, read off
    the orientation table: a = -orient[0][k][m], b = orient[1][k][m], signed
    so that a > 0; the crossing lies at a / (a + b) along the segment."""
    orient = _walk_tables([homog(p) for p in ps.points])[1]
    places = []
    for k, m in itertools.combinations(range(2, ps.n), 2):
        if orient[0][1][k] * orient[0][1][m] < 0 and orient[k][m][0] * orient[k][m][1] < 0:
            a, b = -orient[0][k][m], orient[1][k][m]
            places.append((a, b) if a > 0 else (-a, -b))
    return places


def test_float_clash_fixture_shares_one_key():
    # the six crossings on segment 0-1 are distinct but share one float key,
    # so the exact crossing check above walks a real clash
    assert not general_position_report(FLOAT_CLASH.points)
    places = _places_on_segment_0_1(FLOAT_CLASH)
    exact = sorted(Fraction(a, a + b) for a, b in places)
    assert len(set(exact)) == len(places) == 6 and exact[2] == _C
    assert len({a / (a + b) for a, b in places}) == 1
    # SHARED_FLOAT: 12 crossings at 11 places on 5 floats; c's float holds six
    # places, and two of the crossings are at c itself
    assert not general_position_report(SHARED_FLOAT.points)
    places = _places_on_segment_0_1(SHARED_FLOAT)
    exact = [Fraction(a, a + b) for a, b in places]
    assert len(places) == 12 and len(set(exact)) == 11
    assert len({a / (a + b) for a, b in places}) == 5
    assert exact.count(_C) == 2
    assert sum(float(t) == float(_C) for t in set(exact)) == 6


def test_segment_start_count_matches_exact_count_halfway():
    # the count read off the tables for the open edge just past p_i toward
    # p_j equals an exact count halfway to the first crossing (or to p_j when
    # there is none), for every ordered pair; so do the data-point depths
    rng = random.Random(4711)
    for n, near_convex in itertools.product(range(5, 15), (False, True)):
        ps = random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
        tables = _walk_tables([homog(p) for p in ps.points])
        pts, depth = tables[0], tables[-1]
        assert depth == [closed_depth_count(p, ps.points) for p in ps.points]
        for i, j in itertools.permutations(range(n), 2):
            start, _, crossings = _segment_walk(i, j, *tables)
            (xi, yi, wi), (xj, yj, wj) = pts[i], pts[j]
            a, b = crossings[0] if crossings else (1, 0)
            # midway between p_i and the first crossing b*p_i + a*p_j
            s = b * wi + a * wj
            half = (xi * s + wi * (b * xi + a * xj), yi * s + wi * (b * yi + a * yj),
                    2 * wi * s)
            assert start == closed_depth_count(dehomog(half), ps.points)


def _walk_vertices(ps):
    """Every (point, count) the segment walk yields on its segments."""
    tables = _walk_tables([homog(p) for p in ps.points])
    return {dehomog(key): count
            for i, j in itertools.combinations(range(ps.n), 2)
            for count, key in _segment_vertices(i, j, *tables)}


def _projective_image(p):
    # the denominator stays positive on every fixture below (|x|, |y| <= 36),
    # so segments map to segments and every incidence and crossing survives
    den = 1 + p.x / 97 + p.y / 89
    return Point(p.x / den, p.y / den)


def test_walk_on_projective_images_with_distinct_denominators():
    # the image of a set has a different denominator at every point, so the
    # walk's per-point homogeneous arithmetic is exercised in full; depth,
    # the argmax count and the crossings (with the hexagon's three concurrent
    # diagonals) are those of the original set
    sets = [HEXAGON, CLOSE_CROSSINGS] + [random_point_set(n, 800 + n, near_convex=n % 2 == 1)
                                         for n in range(6, 13)]
    for ps in sets:
        image = LabeledPointSet(tuple(_projective_image(p) for p in ps.points))
        denominators = [homog(p)[2] for p in image.points]
        assert len(set(denominators)) == image.n
        assert max_depth_point(image)[1].count == max_depth_point(ps)[1].count
        vertices = _walk_vertices(image)
        if ps is HEXAGON:
            assert Point(0, 0) in vertices  # its three long diagonals meet here
        for q, count in vertices.items():
            assert count == closed_depth_count(q, image.points)
        assert vertices == {_projective_image(q): count
                            for q, count in _walk_vertices(ps).items()}


# pairs of points share an x coordinate, so some segments are vertical and
# the lexicographic order of the data points is decided by y, exactly
VERTICALS = LabeledPointSet((Point(0, 3), Point(0, -2), Point(4, 5), Point(4, -1),
                             Point(-3, 1), Point(2, 2), Point(-3, -4),
                             Point(Fraction(3, 2), Fraction(-9, 2))))


def _every_vertex_pair(tables):
    """The unpruned stream: every data point, then every crossing of every
    segment, each with its count."""
    pts, depth = tables[0], tables[-1]
    yield from zip(depth, pts)
    for i, j in itertools.combinations(range(len(pts)), 2):
        yield from _segment_vertices(i, j, *tables)


def _walk_test_sets():
    sets = [HEXAGON, CLOSE_CROSSINGS, VERTICALS]
    rng = random.Random(1313)
    for n, near_convex in itertools.product(range(5, 15), (False, True)):
        sets.append(random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex))
    images = [LabeledPointSet(tuple(_projective_image(p) for p in ps.points))
              for ps in sets[:3] + sets[3::4]]
    for image in images:
        assert len({homog(p)[2] for p in image.points}) == image.n
    return sets + images


def _caps(every):
    """Count caps at every kind of level for the (count, key) pairs
    ``every``: below and at 0, the median and the top attained count, and
    one above the top."""
    attained = sorted({count for count, _ in every})
    return (-1, 0, attained[len(attained) // 2], attained[-1], attained[-1] + 1)


def test_pruned_walk_bests_equal_scan_over_every_vertex():
    # per segment the walk offers only each search's first vertex of top
    # score, walking from the lexicographically smaller end; the bests must
    # be those of _scan over every vertex, for the count and for caps at
    # every kind of level
    tied_tops = 0
    for ps in _walk_test_sets():
        assert not general_position_report(ps.points)
        tables = _walk_tables([homog(p) for p in ps.points])
        every = list(_every_vertex_pair(tables))
        caps = (None,) + _caps(every)
        expected = [(score, dehomog(key)) for score, key in _scan(every, caps)]
        got = [(score, dehomog(key)) for score, key in _walk_scan(ps, caps)[1]]
        assert got == expected
        assert expected[1][0] == caps[1] and expected[-1][0] < caps[-1]
        for i, j in itertools.combinations(range(ps.n), 2):
            counts = _segment_walk(i, j, *tables)[1]
            tied_tops += counts.count(max(counts, default=0)) > 1
    assert tied_tops > 0  # the "first vertex of top score" choice decides


def test_walk_yields_at_most_one_key_per_segment_and_scorer(monkeypatch):
    # a walk keying every crossing would build far more keys than this
    ps = random_point_set(12, 1212, near_convex=True)
    n = ps.n
    tables = _walk_tables([homog(p) for p in ps.points])
    assert sum(1 for _ in _every_vertex_pair(tables)) > n + 3 * binom(n, 2)
    keys = []

    def counted(*args):
        keys.append(args)
        return _crossing_key(*args)

    monkeypatch.setattr(selection, "_crossing_key", counted)
    for caps in ((None,), (None, math.ceil(Fraction(1, 5) * binom(n, 3))), (None, 0)):
        keys.clear()
        _walk_scan(ps, caps)
        assert len(keys) <= len(caps) * binom(n, 2)


# centrally symmetric, in general position: the five segments p, -p meet at
# the origin, whose depth 60 beats every data point's 56; on each of them the
# other four cross at the origin on one shared float, so a bound that took
# one segment per crossing would skip the winner
CONCURRENT = LabeledPointSet(tuple(Point(s * x, s * y) for s in (1, -1)
                                   for x, y in ((-8, -7), (-7, 2), (-4, 0), (-1, -3), (-8, 9))))


def test_count_walk_keeps_a_concurrent_winner():
    ps = CONCURRENT
    assert not general_position_report(ps.points)
    assert sum(1 for p, r in itertools.combinations(ps.points, 2)
               if p.coords == tuple(-c for c in r.coords)) == 5
    assert max(closed_depth_count(p, ps.points) for p in ps.points) == 56
    q, rep = max_depth_point(ps)
    assert (q, rep.count) == (Point(0, 0), 60)
    # on the five segments through the origin the bound is exactly 60: one
    # more and they are skipped, so the comparison must stay strict. It is
    # also the cell bound D(10) + 5 * 8 / 2, with four points on either side
    tables = _walk_tables([homog(p) for p in ps.points])
    assert _cell_bound(10) + 5 * 8 // 2 == 60
    tight = [(i, j) for i, j in itertools.combinations(range(ps.n), 2)
             if _segment_walk(i, j, *tables, 61) is None
             and max(_segment_walk(i, j, *tables)[1], default=0) == 60]
    assert len(tight) == 5
    for i, j in tight:
        assert tables[2][i][j] == 4
        assert max(_segment_walk(i, j, *tables, 60)[1]) == 60


def _least_sum_of_pair_counts(n):
    """The least sum of C(u, 2) over n integers u in 0..n-1 that add up to
    C(n, 2), by exhaustive dynamic programming over the n terms."""
    total = math.comb(n, 2)
    costs = [u * (u - 1) // 2 for u in range(n)]
    least = [0] + [math.inf] * total
    for _ in range(n):
        least = [min(least[s - u] + c for u, c in enumerate(costs[:s + 1]))
                 for s in range(total + 1)]
    return least[total]


def test_cell_bound_is_the_least_balanced_sum():
    # D(n) = C(n, 3) less the least sum of C(u_k, 2) with sum u_k = C(n, 2)
    for n in range(3, 41):
        assert _cell_bound(n) == math.comb(n, 3) - _least_sum_of_pair_counts(n), n
    assert _cell_bound(18) == 240


def test_no_point_off_the_segments_exceeds_the_cell_bound():
    # random rational points and points a 10^-12 step from the maximum, none
    # on a segment or at a data point (count == strict_count): none lies in
    # more than D(n) triangles, and some reach it exactly
    rng = random.Random(3131)
    attained = 0
    for n, near_convex in itertools.product(range(5, 31), (False, True)):
        ps = random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
        q, _ = max_depth_point(ps, witness_limit=0)
        eps = Fraction(1, 10 ** 12)
        queries = [Point(q.x + a * eps, q.y + 3 * b * eps)
                   for a, b in itertools.product((1, -1), repeat=2)]
        lo = [min(p.coords[c] for p in ps.points) for c in (0, 1)]
        hi = [max(p.coords[c] for p in ps.points) for c in (0, 1)]
        queries += [Point(*(lo[c] + (hi[c] - lo[c]) * Fraction(rng.randrange(10 ** 6), 10 ** 6)
                            for c in (0, 1))) for _ in range(12)]
        for r in queries:
            rep = depth_planar_sweep(r, ps)
            assert rep.count == rep.strict_count
            assert rep.count <= _cell_bound(n)
            attained += rep.count == _cell_bound(n)
    assert attained > 0


def _skip_test_sets():
    rng = random.Random(2828)
    sets = _walk_test_sets() + [CONCURRENT, SHARED_FLOAT, FLOAT_CLASH]
    return sets + [random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
                   for n, near_convex in itertools.product(range(6, 31, 4), (False, True))]


def _walked(monkeypatch, ps, caps):
    """The bests of ``_walk_scan(ps, caps)`` and each (i, j, walked) of its
    ``_segment_walk`` calls, walked False where the bound skipped it."""
    calls = []

    def counted(i, j, *args):
        walk = _segment_walk(i, j, *args)
        calls.append((i, j, walk is not None))
        return walk

    with monkeypatch.context() as patch:
        patch.setattr(selection, "_segment_walk", counted)
        return _walk_scan(ps, caps)[1], calls


def _count_walk_visits(monkeypatch, ps):
    """The walk tables of ``ps``, the count search's best, and each segment
    the search visits, in its order (rows by lexicographic order of the
    smaller end), as (i, j, floor, kind). ``kind`` is "row" for a segment
    ``_walk_scan`` skips before any ``_segment_walk`` call, "call" for a
    call that returned None and "walked" for a walk. ``floor`` is the
    running best when the segment is reached, replayed from the calls: it
    starts at the best data point's depth, and a walk raises it to its best
    crossing's count; each segment must be called at most once, and at the
    replayed floor."""
    tables = _walk_tables([homog(p) for p in ps.points])
    calls = {}

    def recorded(i, j, *args):
        walk = _segment_walk(i, j, *args)
        assert (i, j) not in calls
        calls[i, j] = (args[-1], walk)
        return walk

    with monkeypatch.context() as patch:
        patch.setattr(selection, "_segment_walk", recorded)
        [best] = _walk_scan(ps, (None,))[1]
    order = sorted(range(ps.n), key=lambda k: ps.points[k].coords)
    floor = max(tables[-1])
    visits = []
    for a, i in enumerate(order):
        for j in order[a + 1:]:
            if (i, j) not in calls:
                visits.append((i, j, floor, "row"))
                continue
            called_at, walk = calls.pop((i, j))
            assert called_at == floor
            visits.append((i, j, floor, "call" if walk is None else "walked"))
            if walk is not None and walk[1]:
                floor = max(floor, *walk[1])
    assert not calls
    return tables, best, visits


def test_count_walk_skips_segments_and_keeps_the_best(monkeypatch):
    # the count search skips every segment whose bound is below the running
    # best: the O(1) cell test on the row before any _segment_walk call, or
    # the call's own bounds. Its best must be that of _scan over every
    # vertex, walked, call-skipped and row-skipped segments make up all
    # C(n, 2), and both kinds of skip must happen, or a bound would go
    # untested
    skipped = {"row": 0, "call": 0}
    for ps in _skip_test_sets():
        tables, got, visits = _count_walk_visits(monkeypatch, ps)
        [expected] = _scan(_every_vertex_pair(tables))
        assert (got[0], dehomog(got[1])) == (expected[0], dehomog(expected[1]))
        kinds = [kind for _, _, _, kind in visits]
        walked, call_skipped, row_skipped = map(kinds.count, ("walked", "call", "row"))
        assert walked + call_skipped + row_skipped == binom(ps.n, 2)
        skipped["row"] += row_skipped
        skipped["call"] += call_skipped
        # a floor at a segment's own best skips nothing on it
        for i, j in itertools.combinations(range(ps.n), 2):
            walk = _segment_walk(i, j, *tables)
            if walk[1]:
                assert _segment_walk(i, j, *tables, max(walk[1])) == walk
    assert all(skipped.values())


def test_row_filter_skips_exactly_the_cell_test_skips(monkeypatch):
    # at the floor each segment is reached at, _walk_scan skips the row
    # exactly when min(L, R) is below _cell_reach(n, floor), and every
    # crossing on a skipped segment counts below that floor
    row_skips = 0
    for ps in _skip_test_sets():
        tables, _, visits = _count_walk_visits(monkeypatch, ps)
        n, left = ps.n, tables[2]
        for i, j, floor, kind in visits:
            cell_skip = min(left[i][j], n - 2 - left[i][j]) < _cell_reach(n, floor)
            assert cell_skip == (kind == "row"), (i, j, floor, kind)
            if cell_skip:
                assert max(_segment_walk(i, j, *tables)[1], default=floor - 1) < floor
            row_skips += cell_skip
    assert row_skips > 0


def _edge_oracle(i, j, pts, orient, left, depth):
    """E of ``_segment_walk``'s tiers for p_i p_j, summed apart from the walk,
    and whether two of its crossings share a float a / (a + b): the start
    count less its cone term, plus one for each pair of the cone and every
    positive step 2 * far - (n - 2) of a crossing."""
    n = len(pts)
    oi, oj = orient[i], orient[j]
    lefts = [k for k in range(n) if oi[j][k] > 0]
    rights = [m for m in range(n) if oi[j][m] < 0]
    edge = depth[i] - math.comb(n - 1, 2) + (n - 2)
    floats = []
    for k in lefts:
        for m in rights:
            if oi[k][m] < 0:
                edge += 1
                if oj[k][m] > 0:
                    edge += max(0, 2 * left[k][m] - (n - 2))
                    floats.append(-oi[k][m] / (oj[k][m] - oi[k][m]))
    return edge, len(set(floats)) < len(floats)


def test_walk_tiers_skip_exactly_where_the_edge_bound_says(monkeypatch):
    # at the floor each segment is reached at, the oracle's E says where
    # _segment_walk stops: tier 1 when 2E + min(L, R)(n - 2) < 2 floor,
    # else tier 2 when no two crossings share a float and
    # 2E + (n - 2) < 2 floor, else it walks. Every skip must be sound, and
    # row skips, both tiers and walks must all happen, or a bound would go
    # untested
    census = Counter()
    for ps in _skip_test_sets():
        tables, _, visits = _count_walk_visits(monkeypatch, ps)
        n, left = ps.n, tables[2]
        for i, j, floor, kind in visits:
            if kind == "row":
                census[kind] += 1
                continue
            edge, shared = _edge_oracle(i, j, *tables)
            slack = 2 * (edge - floor)
            if slack + min(left[i][j], n - 2 - left[i][j]) * (n - 2) < 0:
                tier = "tier 1"
            elif not shared and slack + n - 2 < 0:
                tier = "tier 2"
            else:
                tier = "walked"
            assert (tier == "walked") == (kind == "walked"), (i, j, floor, tier)
            if tier != "walked":
                assert max(_segment_walk(i, j, *tables)[1], default=floor - 1) < floor
            census[tier] += 1
    assert all(census[kind] > 0 for kind in ("row", "tier 1", "tier 2", "walked")), census


def test_every_crossing_is_within_its_cell_bound():
    # a crossing on p_i p_j counts at most D(n) + (g + 1)(n - 2) / 2 with
    # g = min(L, R), L = left[i][j] and R = n - 2 - L; the bound is met with
    # equality on CONCURRENT's five diameters
    tight = 0
    for ps in _skip_test_sets():
        n = ps.n
        tables = _walk_tables([homog(p) for p in ps.points])
        left = tables[2]
        for i, j in itertools.combinations(range(n), 2):
            g = min(left[i][j], n - 2 - left[i][j])
            bound = 2 * _cell_bound(n) + (g + 1) * (n - 2)
            for count, _ in _segment_vertices(i, j, *tables):
                assert 2 * count <= bound
                tight += 2 * count == bound
    assert tight >= 5


def test_max_depth_recheck_rejects_a_wrong_walk_count():
    # the winner's count is re-derived by exhaustive enumeration; a count
    # the walk got wrong is an InternalError
    for ps in (TRI, SQUARE, HEXAGON, CONCURRENT, random_point_set(14, 4054)):
        q, rep = max_depth_point(ps, witness_limit=0)
        _checked_max(ps, (rep.count, homog(q)), 0)
        with pytest.raises(InternalError):
            _checked_max(ps, (rep.count + 1, homog(q)), 0)


def test_capped_walks_skip_segments_and_keep_the_best(monkeypatch):
    # every search prunes. A witness search whose cap some data point
    # reaches walks only segments whose lexicographically smaller end lies
    # before its best, so at a cap <= 0, where the least data point wins,
    # it walks none; one above C(n, 3) never reaches its cap and walks the
    # segments the count search walks. Paired with the count search, each
    # cap gives the bests of _scan over every crossing and still skips
    # segments
    skipped = dict.fromkeys(range(5), 0)
    for ps in _skip_test_sets():
        n = ps.n
        tables = _walk_tables([homog(p) for p in ps.points])
        every = list(_every_vertex_pair(tables))
        least = min(ps.points, key=lambda p: p.coords)
        for cap in _caps(every):
            if cap > max(tables[-1]):
                continue
            [(score, key)], calls = _walked(monkeypatch, ps, (cap,))
            [(_, expected)] = _scan(every, (cap,))
            best = dehomog(key)
            assert (score, best) == (cap, dehomog(expected))
            assert all(min(ps.points[i].coords, ps.points[j].coords) < best.coords
                       for i, j, _ in calls)
            if cap <= 0:
                assert (best, calls) == (least, [])
        [count_best], count_calls = _walked(monkeypatch, ps, (None,))
        [capped_best], capped_calls = _walked(monkeypatch, ps, (binom(n, 3) + 1,))
        assert (capped_best, capped_calls) == (count_best, count_calls)
        for k, cap in enumerate(_caps(every)):
            expected = [(score, dehomog(key)) for score, key in _scan(every, (None, cap))]
            bests, calls = _walked(monkeypatch, ps, (None, cap))
            assert [(score, dehomog(key)) for score, key in bests] == expected
            skipped[k] += sum(not walked for _, _, walked in calls) + binom(n, 2) - len(calls)
    assert all(skipped.values())


def test_orientation_table_entries_stay_small():
    # each entry is a 3x3 determinant of the points' own homogeneous
    # coordinates, so it is about as long as three of them, never carrying a
    # common denominator of the whole set
    ps = random_point_set(18, 8, near_convex=True)
    pts_h = [homog(p) for p in ps.points]
    orient = _walk_tables(pts_h)[1]
    longest = sorted((abs(c).bit_length() for h in pts_h for c in h), reverse=True)
    widest = max(abs(v) for rows in orient for row in rows for v in row)
    assert widest.bit_length() <= sum(longest[:3]) + 3


def test_general_position_gate_reads_the_left_table():
    # a tiny coordinate grid forces collinear triples and coincident points;
    # the verdict of the left table's side counts agrees with
    # general_position_report, and a rejected set carries exactly the
    # report's located violations
    rng = random.Random(505)
    rejected = 0
    for _ in range(300):
        n = rng.randrange(3, 8)
        ps = LabeledPointSet(tuple(Point(rng.randrange(4), rng.randrange(4))
                                   for _ in range(n)))
        violations = general_position_report(ps.points)
        left = _walk_tables([homog(p) for p in ps.points])[2]
        assert _general_position(left) == (not violations)
        if violations:
            rejected += 1
            with pytest.raises(DegeneracyError) as err:
                max_depth_point(ps)
            assert err.value.violations == violations
    assert 0 < rejected < 300


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


def _assert_bound_values(rep, n, dim):
    """``rep``'s fraction and bound verdicts against their explicit formulas:
    2·dim/((dim+1)!(dim+1)), the same less 3/n, and integer cross-products."""
    bound = Fraction(2 * dim, math.factorial(dim + 1) * (dim + 1))
    slack = bound - Fraction(3, n)
    assert (rep.n, rep.dim) == (n, dim)
    assert rep.fraction == Fraction(rep.count, rep.total)
    assert (rep.bound, rep.slack_bound) == (bound, slack)
    assert rep.meets_bound == (rep.count * bound.denominator >= bound.numerator * rep.total)
    assert rep.meets_slack_bound == (rep.count * slack.denominator
                                     >= slack.numerator * rep.total)


def test_depth_report_values_follow_its_count():
    # a report stores counts; its fraction and verdicts follow them, also on
    # a report rebuilt with another count or strict count
    ps = colored_point_set(12, 7, classes=3)
    space = random_point_set(7, 3, dim=3)
    reps = ([(colorful_depth(Point(x, y), ps), 12, 2)
             for x in range(-2, 3) for y in range(-2, 3)]
            + [(depth_naive(Point(0, 0, 0), space, witness_limit=2), 7, 3)])
    for rep, n, dim in reps:
        _assert_bound_values(rep, n, dim)
        for count in (0, rep.total // 4, rep.total):
            moved = replace(rep, count=count)
            _assert_bound_values(moved, n, dim)
            assert moved.fraction == Fraction(count, rep.total)
        assert replace(rep, strict_count=0).boundary_count == rep.count
    # at n = 12 the slack bound 2/9 - 3/12 is below 0, so count 0 meets it
    empty = replace(reps[0][0], count=0)
    assert (empty.meets_bound, empty.meets_slack_bound) == (False, True)


# ---------------------------------------------------------------------------
# The angular kernel against independent references
# ---------------------------------------------------------------------------

def _reference_angle_cmp(a, b):
    """Angular order in [0, 2pi) from the +x axis, by half-plane and cross
    product: the comparator the integer keys replace."""
    def upper(d):
        return d[1] > 0 or (d[1] == 0 and d[0] > 0)

    if upper(a) != upper(b):
        return -1 if upper(a) else 1
    c = a[0] * b[1] - a[1] * b[0]
    return (c < 0) - (c > 0)


def _in_open_half_plane(a, b, c):
    """True iff three nonzero vectors fit strictly inside one open half-plane
    through the origin, i.e. the origin is outside their closed hull: on no
    segment between two opposite ones, and not strictly inside the triangle
    (all three cross products of one strict sign)."""
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for u, v in ((a, b), (b, c), (c, a)):
        if cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] < 0:
            return False
    signs = {(x > 0) - (x < 0) for x in (cross(a, b), cross(b, c), cross(c, a))}
    return signs not in ({1}, {-1})


def _random_directions(rng, m, span):
    """At least m nonzero integer directions with repeats, opposite pairs,
    axis directions and Farey neighbours (ratios x/y as close as span
    allows) mixed in."""
    dirs = []
    while len(dirs) < m:
        roll = rng.random()
        if roll < 0.15 and span > 2:
            y = rng.randrange(max(2, span // 2), span)
            x = rng.randrange(-y, y)
            if math.gcd(x, y) == 1:
                # x * y2 - y * x2 = 1: x/y and x2/y2 differ by 1/(y * y2)
                y2 = pow(x, -1, y)
                sign = rng.choice([1, -1])
                dirs += [(sign * x, sign * y), (x * y2 // y, y2)]
        elif dirs and roll < 0.3:
            x, y = rng.choice(dirs)
            k = rng.randrange(1, 4)
            dirs.append((k * x, k * y))  # the same direction, rescaled
        elif dirs and roll < 0.45:
            x, y = rng.choice(dirs)
            dirs.append((-x, -y))
        elif roll < 0.6:
            v = rng.randrange(1, span + 1)
            dirs.append(rng.choice([(v, 0), (-v, 0), (0, v), (0, -v)]))
        else:
            x, y = rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)
            if x or y:
                dirs.append((x, y))
    return dirs


def _random_ratios(rng, m, span):
    """m pairs (num, den) with den > 0: negative numerators, den = 1, equal
    ratios in unreduced form and entries past 2^1100 mixed in."""
    big = 2 ** 1100
    ratios = []
    while len(ratios) < m:
        roll = rng.random()
        if ratios and roll < 0.25:
            num, den = rng.choice(ratios)
            k = rng.choice([2, 3, big])
            ratios.append((k * num, k * den))  # the same ratio, unreduced
        elif roll < 0.4:
            ratios.append((rng.randrange(-span, span + 1), 1))
        elif roll < 0.55:
            den = big + rng.randrange(span)
            ratios.append((rng.randrange(-2 * den, 2 * den), den))
        else:
            ratios.append((rng.randrange(-span, span + 1), rng.randrange(1, span + 1)))
    return ratios


@pytest.mark.parametrize("span", [3, 10 ** 3, 10 ** 12, 10 ** 30])
def test_angle_keys_order_equals_reference_comparator(span):
    rng = random.Random(span)
    for _ in range(150):
        dirs = _random_directions(rng, rng.randrange(1, 12), span)
        keys, half = _angle_keys(dirs)
        assert all(0 <= k < 2 * half for k in keys)
        for (a, ka), (b, kb) in itertools.product(zip(dirs, keys), repeat=2):
            assert (ka > kb) - (ka < kb) == _reference_angle_cmp(a, b)
            opposite = a[0] * b[1] == a[1] * b[0] and a[0] * b[0] + a[1] * b[1] < 0
            assert opposite == (abs(ka - kb) == half)
    # the ratio property the walks' fallbacks read: the keys of (-num, den),
    # den > 0, order the ratios num / den, and are equal exactly when they are
    for _ in range(150):
        ratios = _random_ratios(rng, rng.randrange(1, 12), span)
        keys, _ = _angle_keys([(-num, den) for num, den in ratios])
        for (a, ka), (b, kb) in itertools.product(zip(ratios, keys), repeat=2):
            a, b = Fraction(*a), Fraction(*b)
            assert (ka > kb) - (ka < kb) == (a > b) - (a < b)


@pytest.mark.parametrize("span", [2, 10 ** 3, 10 ** 30])
def test_avoiding_triples_equals_brute_force(span):
    # the exact rule alone: integer keys, split and counted as the floats are
    rng = random.Random(7 * span)
    for _ in range(120):
        dirs = _random_directions(rng, rng.randrange(0, 11), span)
        expected = sum(1 for t in itertools.combinations(dirs, 3)
                       if _in_open_half_plane(*t))
        assert _avoiding(*_exact_halves(dirs)) == expected


def _holds_opposite_pair(a, b, c):
    """True iff two of three nonzero vectors point exactly opposite ways."""
    return any(u[0] * v[1] == u[1] * v[0] and u[0] * v[0] + u[1] * v[1] < 0
               for u, v in ((a, b), (b, c), (c, a)))


def _counts_around_origin(dirs):
    """``_angular_counts`` at the origin, each direction as the point it
    points at."""
    return _angular_counts((0, 0, 1), [(x, y, 1) for x, y in dirs])


def _exact_rule_calls(monkeypatch):
    """A list that grows by one each time ``_angular_counts`` takes the
    exact rule."""
    calls = []

    def counted(dirs):
        calls.append(len(dirs))
        return _exact_halves(dirs)

    monkeypatch.setattr(selection, "_exact_halves", counted)
    return calls


@pytest.mark.parametrize("span", [3, 10 ** 3, 10 ** 12, 10 ** 30])
def test_float_key_counts_equal_brute_force_and_angle_keys(span, monkeypatch):
    # repeats, opposite pairs and axis directions share floats as parallel
    # directions; Farey neighbours at spans from 10^12 share floats without
    # being parallel and take the exact rule
    calls = _exact_rule_calls(monkeypatch)
    rng = random.Random(11 * span)
    sets = 150
    for _ in range(sets):
        dirs = _random_directions(rng, rng.randrange(0, 12), span)
        avoiding = sum(1 for t in itertools.combinations(dirs, 3) if _in_open_half_plane(*t))
        opposite = sum(1 for t in itertools.combinations(dirs, 3) if _holds_opposite_pair(*t))
        upper, lower = _exact_halves(dirs)
        exact = (len(dirs), _avoiding(upper, lower), _opposite(upper, lower))
        assert _counts_around_origin(dirs) == exact == (len(dirs), avoiding, opposite)
    assert len(calls) < sets
    if span >= 10 ** 12:
        assert calls


# (10^20 + 1, 10^20) and (10^20 + 2, 10^20 + 1) are not parallel, but both
# keys -x/y round to -1.0; the opposite of their mediant lies between their
# opposites, on the same float, and so do the four points around q = (1, 1)
TIED = [(10 ** 20 + 1, 10 ** 20), (10 ** 20 + 2, 10 ** 20 + 1),
        (-(2 * 10 ** 20 + 3), -(2 * 10 ** 20 + 1))]
FLOAT_TIE_DIRECTIONS = (
    TIED + [(0, 1), (-1, -3), (5, -2), (-7, 1)],
    TIED + [(1, 0), (-1, 0), (0, -1)],
    # a ratio that overflows a float, and two that underflow to 0.0 and -0.0
    [(10 ** 400, 1), (-1, 2), (3, -1), (-2, -5), (1, 1)],
    [(1, 10 ** 400), (0, 1), (-1, -10 ** 400), (2, -3), (-1, 4)],
)


@pytest.mark.parametrize("dirs", FLOAT_TIE_DIRECTIONS)
def test_float_ties_and_overflow_take_the_exact_rule(dirs, monkeypatch):
    calls = _exact_rule_calls(monkeypatch)
    avoiding = sum(1 for t in itertools.combinations(dirs, 3) if _in_open_half_plane(*t))
    opposite = sum(1 for t in itertools.combinations(dirs, 3) if _holds_opposite_pair(*t))
    assert _counts_around_origin(dirs) == (len(dirs), avoiding, opposite)
    assert calls == [len(dirs)]
    # the same directions seen from q = (1, 1)
    pts = [Point(1 + x, 1 + y) for x, y in dirs]
    q = Point(1, 1)
    naive = depth_naive(q, LabeledPointSet(tuple(pts)))
    assert closed_depth_count(q, pts) == naive.count
    assert _counts(depth_planar_sweep(q, LabeledPointSet(tuple(pts)))) == _counts(naive)


def _grid_through(pa, pb, resolution=16, steps=8):
    """A grid box whose cell centres include p_a, p_b and every point
    p_a + (k / steps)(p_b − p_a), so that centres lie on that segment's
    line; p_a and p_b differ in both coordinates."""
    box = []
    for lo, hi in ((pa.x, pb.x), (pa.y, pb.y)):
        step, first = (steps, 3) if hi > lo else (-steps, 3 + steps)
        size = (hi - lo) * resolution / step
        box.append((lo - size * Fraction(2 * first + 1, 2 * resolution), size))
    (xmin, sx), (ymin, sy) = box
    return [xmin, ymin, xmin + sx, ymin + sy]


def _cell_centre(box, resolution, row, col):
    xmin, ymin, xmax, ymax = box
    return Point(xmin + (xmax - xmin) * Fraction(2 * col + 1, 2 * resolution),
                 ymin + (ymax - ymin) * Fraction(2 * row + 1, 2 * resolution))


def _on_line(q, u, v):
    return (u.x - q.x) * (v.y - q.y) == (u.y - q.y) * (v.x - q.x)


@pytest.mark.parametrize("near_convex", [False, True])
@pytest.mark.parametrize("n", range(5, 13))
def test_full_grids_equal_depth_naive(n, near_convex):
    pset = random_point_set(n, 90 + n, near_convex=near_convex)
    pts = pset.points
    pts_h = [homog(p) for p in pts]
    resolution = 16
    box = _grid_through(pts[0], pts[1], resolution)
    grid = depth_grid(lambda x, y: closed_depth_count(Point(x, y), pts), box, resolution)
    on_segment_lines = 0
    for row, line in enumerate(grid["cells"]):
        for col, count in enumerate(line):
            q = _cell_centre(box, resolution, row, col)
            assert count == depth_naive(q, pset).count
            assert _closed_depth_homog(homog(q), pts_h) == count
            on_segment_lines += any(_on_line(q, u, v) for u, v in itertools.combinations(pts, 2))
    assert on_segment_lines >= 9  # p_0, p_1 and the 7 centres between them


def test_closed_depth_count_equals_naive_on_segments_and_duplicates():
    # data points, segment midpoints and points on a segment's extension
    # beyond either end, also with a data point repeated
    rng = random.Random(2024)
    for trial in range(12):
        ps = random_point_set(rng.randrange(4, 9), 500 + trial)
        pts = ps.points
        if trial % 2:
            pts = pts + (pts[0], pts[-1])
        queries = list(pts)
        for p, q in itertools.permutations(pts[:5], 2):
            queries += [(p + q).scale(Fraction(1, 2)), q + (q - p), p + (p - q).scale(3)]
        oracle = LabeledPointSet(pts)
        for q in queries:
            assert closed_depth_count(q, pts) == depth_naive(q, oracle).count


def _reference_tally(q, pts, index_tuples):
    """(count, strict count, witnesses) from one point_in_simplex per simplex."""
    count = strict = 0
    witnesses = []
    for idx in index_tuples:
        verdict = point_in_simplex(q, [pts[i] for i in idx])
        if verdict is ContainmentVerdict.OUTSIDE:
            continue
        count += 1
        strict += verdict is ContainmentVerdict.INTERIOR
        witnesses.append(idx)
    return count, strict, tuple(witnesses)


def _tally_of(rep):
    return rep.count, rep.strict_count, rep.witnesses


def _degenerate_queries(pts):
    """Data points, pair midpoints, points on each pair's line beyond either
    end, and a few generic points."""
    queries = list(pts)
    for p, r in itertools.permutations(pts, 2):
        queries += [(p + r).scale(Fraction(1, 2)), r + (r - p), p + (p - r).scale(3)]
    queries += [Point(Fraction(1, 3), Fraction(2, 7)), Point(Fraction(-5, 2), 1),
                Point(100, -100)]
    return queries


# duplicate points, collinear triples, and flat triangles whose line passes
# through queries inside and outside their hull
DEGENERATE_SETS = (
    (Point(0, 0), Point(0, 0), Point(2, 0), Point(4, 0), Point(1, 3), Point(3, 1)),
    (Point(0, 0), Point(1, 0), Point(3, 0), Point(1, 1), Point(2, 2), Point(0, 2)),
    (Point(1, 1), Point(1, 1), Point(1, 1), Point(2, 5)),
    # mixed denominators
    (Point(Fraction(1, 3), Fraction(1, 7)), Point(Fraction(5, 2), Fraction(-2, 9)),
     Point(Fraction(-4, 11), Fraction(3, 5)), Point(Fraction(2, 13), Fraction(9, 4)),
     Point(Fraction(17, 6), Fraction(7, 3))),
)


@pytest.mark.parametrize("pts", DEGENERATE_SETS)
def test_depth_naive_equals_per_triangle_reference(pts):
    pset = LabeledPointSet(pts)
    triples = list(itertools.combinations(range(len(pts)), 3))
    for q in _degenerate_queries(pts):
        assert _tally_of(depth_naive(q, pset, witness_limit=len(triples))) == \
            _reference_tally(q, pts, triples)


def test_depth_naive_equals_per_triangle_reference_seeded():
    # small integer boxes: many collinear triples and repeated points
    rng = random.Random(9)
    for _ in range(8):
        pts = tuple(Point(rng.randrange(-2, 3), rng.randrange(-2, 3))
                    for _ in range(rng.randrange(3, 8)))
        pset = LabeledPointSet(pts)
        triples = list(itertools.combinations(range(len(pts)), 3))
        for q in _degenerate_queries(pts[:4]) + [Point(Fraction(rng.randrange(-9, 10), 4),
                                                       Fraction(rng.randrange(-9, 10), 4))
                                                 for _ in range(10)]:
            assert _tally_of(depth_naive(q, pset, witness_limit=len(triples))) == \
                _reference_tally(q, pts, triples)


@pytest.mark.parametrize("pts", DEGENERATE_SETS[:2] + DEGENERATE_SETS[3:])
def test_colorful_depth_equals_per_triangle_reference(pts):
    # colors assigned out of index order, so rainbow triples come in arbitrary
    # vertex order and orientation
    colors = tuple("cab"[(3 * i + 1) % 3] if i % 2 else "bca"[i % 3]
                   for i in range(len(pts)))
    pset = LabeledPointSet(pts, colors=colors)
    classes = list(pset.color_classes().values())
    assert len(classes) == 3
    rainbow = list(itertools.product(*classes))
    assert any(list(t) != sorted(t) for t in rainbow)
    for q in _degenerate_queries(pts):
        assert _tally_of(colorful_depth(q, pset, witness_limit=len(rainbow))) == \
            _reference_tally(q, pts, rainbow)


def test_depth_naive_equals_reference_in_other_dimensions():
    rng = random.Random(31)
    pts1 = tuple(Point(rng.randrange(-3, 4)) for _ in range(6))
    pts3 = tuple(Point(*(rng.randrange(-2, 3) for _ in range(3))) for _ in range(6))
    for pts in (pts1, pts3):
        d = pts[0].dim
        tuples = list(itertools.combinations(range(len(pts)), d + 1))
        for q in list(pts) + [Point(*(Fraction(rng.randrange(-5, 6), 2) for _ in range(d)))
                              for _ in range(8)]:
            rep = depth_naive(q, LabeledPointSet(pts), witness_limit=len(tuples))
            assert _tally_of(rep) == _reference_tally(q, pts, tuples)
