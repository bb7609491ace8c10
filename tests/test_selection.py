import itertools
import math
import random
from fractions import Fraction

import pytest

from heavycover.continuity import _at_least
from heavycover.datasets import colored_point_set, random_point_set
from heavycover.errors import DegeneracyError, DomainError
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
    BoundVariant,
    _angle_keys,
    _avoiding_triples,
    _general_position,
    _scan,
    _segment_vertices,
    _segment_walk,
    _walk_pairs,
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
    for ps in (random_point_set(8, 55), random_point_set(12, 56, near_convex=True)):
        q1, r1 = max_depth_point(ps, threads=1)
        q2, r2 = max_depth_point(ps, threads=2)
        assert (q1, r1.count) == (q2, r2.count)


def test_scan_contract_over_one_pass():
    # keys are homogeneous (x, y, w); (2, 4, 2) and (1, 2, 1) are one point
    stream = [(3, (4, 0, 2)), (5, (2, 6, 2)), (5, (2, 4, 2)), (5, (1, 2, 1)),
              (5, (1, 3, 1)), (4, (0, 9, 1)), (2, (-1, 7, 1))]
    scorers = (None, lambda count: count >= 4)
    expected = [(5, Point(1, 2)), (True, Point(0, 9))]
    for perm in itertools.permutations(stream):
        pairs = (pair for pair in perm)
        bests = _scan(pairs, scorers)
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


# pairs of points share an x coordinate, so some segments are vertical; the
# lower point of each such pair comes second, so those segments run backwards
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


def test_pruned_walk_bests_equal_scan_over_every_vertex():
    # per segment the walk yields only each scorer's first (or, on a segment
    # running lexicographically backwards, last) vertex of top score; the
    # bests must be those of _scan over every vertex, for monotone scorers,
    # the witness threshold at every kind of level, and a scorer that is not
    # monotone in the count
    backward_ties = 0
    for ps in _walk_test_sets():
        assert not general_position_report(ps.points)
        n = ps.n
        tables = _walk_tables([homog(p) for p in ps.points])
        every = list(_every_vertex_pair(tables))
        attained = sorted({count for count, _ in every})
        levels = [Fraction(-1), Fraction(0), Fraction(attained[len(attained) // 2], binom(n, 3)),
                  Fraction(attained[-1], binom(n, 3)), Fraction(attained[-1] + 1, binom(n, 3))]
        scorers = (None, lambda count: count % 3 == 0) + tuple(_at_least(t, n) for t in levels)
        truth = {(count, dehomog(key)) for count, key in every}
        pruned = list(_walk_pairs(tables, scorers))
        assert {(count, dehomog(key)) for count, key in pruned} <= truth
        expected = [(score, dehomog(key)) for score, key in _scan(every, scorers)]
        got = [(score, dehomog(key)) for score, key in _scan(pruned, scorers)]
        assert got == expected
        assert expected[-1][0] is False and expected[2][0] is True
        for i, j in itertools.combinations(range(n), 2):
            counts = _segment_walk(i, j, *tables)[1]
            if counts and ps.points[j].coords < ps.points[i].coords:
                backward_ties += counts.count(max(counts)) > 1
    assert backward_ties > 0  # the "last vertex of top score" branch decides


def test_walk_yields_at_most_one_key_per_segment_and_scorer():
    # a walk yielding every crossing would exceed this by far
    ps = random_point_set(12, 1212, near_convex=True)
    n = ps.n
    tables = _walk_tables([homog(p) for p in ps.points])
    assert sum(1 for _ in _every_vertex_pair(tables)) > n + 3 * binom(n, 2)
    for scorers in ((None,), (None, _at_least(Fraction(1, 5), n)),
                    (None, _at_least(0, n), lambda count: count % 2 == 1)):
        pairs = sum(1 for _ in _walk_pairs(tables, scorers))
        assert n < pairs <= n + len(scorers) * binom(n, 2)


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


def test_general_position_gate_reads_the_orientation_table():
    # a tiny coordinate grid forces collinear triples and coincident points;
    # the table's verdict agrees with general_position_report, and a rejected
    # set carries exactly the report's located violations
    rng = random.Random(505)
    rejected = 0
    for _ in range(300):
        n = rng.randrange(3, 8)
        ps = LabeledPointSet(tuple(Point(rng.randrange(4), rng.randrange(4))
                                   for _ in range(n)))
        violations = general_position_report(ps.points)
        orient = _walk_tables([homog(p) for p in ps.points])[1]
        assert _general_position(orient) == (not violations)
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


@pytest.mark.parametrize("span", [2, 10 ** 3, 10 ** 30])
def test_avoiding_triples_equals_brute_force(span):
    rng = random.Random(7 * span)
    for _ in range(120):
        dirs = _random_directions(rng, rng.randrange(0, 11), span)
        expected = sum(1 for t in itertools.combinations(dirs, 3)
                       if _in_open_half_plane(*t))
        assert _avoiding_triples(dirs) == expected


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
