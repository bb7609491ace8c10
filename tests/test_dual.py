import collections
import functools
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from dual_oracles import _cell_counts, _cross_turn, _fraction_cell_point, _vertex_pair
from heavycover import dual
from heavycover.datasets import random_line_family
from heavycover.errors import DegeneracyError, DimensionError, DomainError
from heavycover.exactgeom import (
    Hyperplane,
    Point,
    _line_violations,
    dehomog,
    homog,
    intersect_lines_homog,
    line_coeffs_int,
    point_in_simplex,
    project_onto_hyperplane,
    reduce_homog,
    segment_crosses_ray,
)
from heavycover.selection import _avoiding, _exact_halves, binom
from heavycover.dual import (
    DUAL_BOUND,
    LineFamily,
    base_cut_count,
    classify_tangents,
    dual_depth_fast,
    dual_depth_naive,
    exposure_profile,
    extremal_report,
    find_unexposed_point,
    max_dual_depth_point,
    surround_direct,
    surround_projection,
    tangent_family,
)

Y0 = Hyperplane((0, 1), 0)       # y = 0
X0 = Hyperplane((1, 0), 0)       # x = 0
DIAG = Hyperplane((1, 1), 4)     # x + y = 4
TRIANGLE = LineFamily((Y0, X0, DIAG))


# the points find_unexposed_point returned when pinned
UNEXPOSED_PINS = [
    (random_line_family(12, 1), None),
    (random_line_family(18, 1), Point(Fraction(378821, 8487023), Fraction(-40359715, 16974046))),
    (random_line_family(30, 2), Point(Fraction(-107862531, 62809954), Fraction(1757915, 62809954))),
    (tangent_family(15), None),
]


def rand_q(rng, span=6, denom=11):
    return Point(Fraction(rng.randrange(-span * denom, span * denom + 1), denom),
                 Fraction(rng.randrange(-span * denom, span * denom + 1), denom))


def test_line_family_caches_normals_outside_equality():
    parallel = LineFamily((Y0, Hyperplane((0, 2), 2), X0))
    assert parallel.normals == ((0, 1), (0, 1), (1, 0)) and parallel.parallel_pair
    assert TRIANGLE.normals == ((0, 1), (1, 0), (1, 1)) and not TRIANGLE.parallel_pair
    again = LineFamily(TRIANGLE.lines)
    assert again == TRIANGLE and hash(again) == hash(TRIANGLE)
    assert repr(TRIANGLE) == f"LineFamily(lines={TRIANGLE.lines!r}, provenance=None)"


def test_surround_direct_examples():
    assert surround_direct(Point(1, 1), TRIANGLE.lines) is True
    assert surround_direct(Point(5, 5), TRIANGLE.lines) is False
    parallel = (Y0, Hyperplane((0, 1), 1), X0)
    assert surround_direct(Point(1, 1), parallel) is False


def test_surround_projection_examples():
    assert surround_projection(Point(1, 1), TRIANGLE.lines) is True
    assert surround_projection(Point(5, 5), TRIANGLE.lines) is False
    with pytest.raises(DegeneracyError):
        surround_projection(Point(0, 0), TRIANGLE.lines)  # on two lines
    with pytest.raises(DegeneracyError):
        surround_projection(Point(1, 1), (Y0, Hyperplane((0, 1), 1), X0))


def test_surround_projection_equals_direct_seeded():
    rng = random.Random(17)
    trials = 0
    while trials < 1500:
        fam = random_line_family(3, rng.randrange(10**6))
        q = rand_q(rng)
        if any(h.contains(q) for h in fam.lines):
            continue
        assert surround_projection(q, fam.lines) == surround_direct(q, fam.lines)
        trials += 1


def test_dual_depth_naive_examples():
    rep = dual_depth_naive(Point(1, 1), TRIANGLE)
    assert (rep.count, rep.total) == (1, 1)
    parallel = LineFamily((Y0, Hyperplane((0, 1), 1), Hyperplane((0, 1), 2)))
    assert dual_depth_naive(Point(1, 1), parallel).count == 0


def test_dual_depth_naive_concurrent_triple():
    # x = 0, y = 0 and x = y meet at the origin: their "triangle" is one
    # point, so the oracle's flat-simplex branch decides whether they surround
    concurrent = (X0, Y0, Hyperplane((1, -1), 0))
    assert surround_direct(Point(0, 0), concurrent) is True
    assert surround_direct(Point(1, 2), concurrent) is False
    fam = LineFamily(concurrent + (Hyperplane((1, 1), 3),))
    for q, expected in ((Point(0, 0), (4, 0)), (Point(1, 2), (2, 0)),
                        (Point(1, 1), (3, 1))):
        rep = dual_depth_naive(q, fam)
        assert (rep.count, rep.strict_count) == expected
    rep = dual_depth_naive(Point(1, 1), fam, witness_limit=3)
    assert rep.witnesses == ((0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_dual_depth_naive_frozen_seeded_value():
    # frozen from an independent triple-loop bounded-cell enumeration
    fam = random_line_family(8, 13)
    rep = dual_depth_naive(Point(Fraction(1, 3), Fraction(1, 5)), fam)
    assert (rep.count, rep.total) == (14, 56)


def test_dual_depth_reorder_invariance():
    fam = random_line_family(7, 29)
    q = Point(Fraction(1, 2), Fraction(-2, 3))
    base = dual_depth_naive(q, fam).count
    rng = random.Random(4)
    order = list(range(7))
    for _ in range(5):
        rng.shuffle(order)
        shuffled = LineFamily(tuple(fam.lines[i] for i in order))
        assert dual_depth_naive(q, shuffled).count == base


def _counts(rep):
    return rep.count, rep.strict_count


def test_dual_depth_fast_examples_and_fallback():
    # inside, outside, on an edge (y = 0), at a corner and on a line outside
    # the triangle: the fast count gives the oracle's closed and strict counts
    for q, expected in ((Point(1, 1), (1, 1)), (Point(9, -9), (0, 0)),
                        (Point(2, 0), (1, 0)), (Point(0, 0), (1, 0)),
                        (Point(5, 0), (0, 0))):
        rep = dual_depth_fast(q, TRIANGLE)
        assert rep.method == "projection_sweep"
        assert _counts(rep) == _counts(dual_depth_naive(q, TRIANGLE)) == expected


def test_dual_depth_fast_equals_naive_seeded():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randrange(4, 11)
        fam = random_line_family(n, 5000 + trial)
        q = rand_q(rng)
        assert dual_depth_fast(q, fam).count == dual_depth_naive(q, fam).count


def test_dual_depth_fast_parallel_pair_falls_back():
    # y = 0 and y = 1 are parallel: queries off every line, on y = 1 (an edge
    # of x = 0, x + y = 4), at a corner and at a vertex on a parallel line
    fam = LineFamily((Y0, Hyperplane((0, 1), 1), X0, DIAG))
    for q, expected in ((Point(1, Fraction(1, 2)), (1, 1)), (Point(Fraction(-1, 3), 2), (0, 0)),
                        (Point(9, 7), (0, 0)), (Point(1, 1), (2, 1)),
                        (Point(0, 1), (2, 0)), (Point(0, 0), (1, 0)), (Point(3, 1), (2, 0))):
        rep = dual_depth_fast(q, fam)
        assert rep.method == "projection_sweep"
        assert _counts(rep) == _counts(dual_depth_naive(q, fam)) == expected


def _oracle_families():
    """Seeded random families n = 4-14 and the tangent families 9, 12, 15."""
    return ([random_line_family(n, 300 + n) for n in range(4, 15)]
            + [tangent_family(n) for n in (9, 12, 15)])


def test_vertex_closed_count_matches_naive_at_every_vertex():
    for fam in _oracle_families():
        tables = dual._dual_tables(fam)
        closed = dual._line_walk(tables)[0]
        assert len(tables[3]) == binom(fam.n, 2)
        for row in tables[3]:
            # the vertex scan's corner-and-edge formula, the walk and the fast
            # count's two lines through q agree with the oracle at every vertex
            count, key = _vertex_pair(row, tables)
            q = dehomog(key)
            assert count == dual_depth_naive(q, fam).count == dual_depth_fast(q, fam).count
            assert closed[row[0]][row[1]] == count


# three lines through the origin; and y = 0 parallel to y = 2
CONCURRENT = LineFamily((Y0, X0, Hyperplane((1, -1), 0), DIAG, Hyperplane((1, 2), 5)))
PARALLEL = LineFamily((Y0, X0, Hyperplane((0, 1), 2), DIAG))


def _small_families(rng, count):
    """``count`` families of 3-7 distinct lines with coefficients in -2..2:
    parallel pairs and concurrent triples are common."""
    for _ in range(count):
        n = rng.randrange(3, 8)
        lines = {}
        while len(lines) < n:
            a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
            if a or b:
                h = Hyperplane((a, b), rng.randrange(-2, 3))
                lines[line_coeffs_int(h)] = h
        yield LineFamily(tuple(lines.values()))


def test_dual_fast_engine_fuzz_on_degenerate_grid():
    # the dual twin of the primal degenerate-grid fuzz: queries on a
    # half-integer grid land on lines, on vertices where two or three lines
    # meet, and between parallel lines; every vertex of each family is
    # queried too, and the fixtures over their whole grid
    rng = random.Random(707)
    grid = [Point(Fraction(x, 2), Fraction(y, 2)) for x in range(-6, 7) for y in range(-6, 7)]
    cases = [(fam, grid) for fam in (CONCURRENT, PARALLEL)]
    for fam in _small_families(rng, 250):
        vertices = [dehomog(row[2]) for row in dual._vertex_table(fam.coeffs)]
        cases.append((fam, rng.sample(grid, 4) + vertices))
    kinds = set()
    for fam, queries in cases:
        kinds.update(kind for kind, _ in _line_violations(fam.coeffs))
        for q in queries:
            assert _counts(dual_depth_fast(q, fam)) == _counts(dual_depth_naive(q, fam))
    assert kinds == {"parallel", "concurrent"}
    # three lines through the origin: the oracle counts their point once
    assert _counts(dual_depth_fast(Point(0, 0), CONCURRENT)) == (7, 0)


def test_general_position_gate_reads_the_vertex_table(monkeypatch):
    # the verdict of the tables' line orders agrees with _line_violations on
    # seeded families in general position and on small-coefficient families
    # full of concurrent triples and parallel pairs; a rejected family
    # carries exactly the located violations, on every search that reads the
    # tables, and a family the gate passes never runs _line_violations
    def unlocated(coeffs):
        raise AssertionError("_line_violations ran on a family in general position")

    for fam in _oracle_families() + [random_line_family(3, 303)]:
        assert _line_violations(fam.coeffs) == []
        with monkeypatch.context() as patch:
            patch.setattr(dual, "_line_violations", unlocated)
            dual._dual_tables(fam)
    rejected = 0
    for fam in _small_families(random.Random(606), 300):
        violations = _line_violations(fam.coeffs)
        try:
            dual._dual_tables(fam)
        except DegeneracyError as err:
            assert err.violations == violations != []
            rejected += 1
        else:
            assert violations == []
    assert 0 < rejected < 300
    for fam in (CONCURRENT, PARALLEL, SHARED_FLOAT_CONCURRENT):
        # extremal_report searches the family it is given in place of the tangent one
        monkeypatch.setattr(dual, "tangent_family", lambda n, fam=fam: fam)
        violations = _line_violations(fam.coeffs)
        assert {kind for kind, _ in violations} == (
            {"parallel"} if fam is PARALLEL else {"concurrent"})
        for search in (max_dual_depth_point, find_unexposed_point,
                       lambda fam: extremal_report(fam.n)):
            with pytest.raises(DegeneracyError) as err:
                search(fam)
            assert err.value.violations == violations


def test_no_vertex_side_vector_is_built_per_search():
    # the table's rows are the bare vertices, and find_unexposed_point,
    # which builds one side vector per candidate, still returns its pinned
    # points
    for fam in _oracle_families():
        coeffs = fam.coeffs
        assert dual._dual_tables(fam)[3] == [
            (i, j, intersect_lines_homog(coeffs[i], coeffs[j]))
            for i, j in itertools.combinations(range(fam.n), 2)]
    for fam, expected in UNEXPOSED_PINS:
        assert find_unexposed_point(fam) == expected


def test_no_dual_search_enumerates_triples(monkeypatch):
    # each search checks its winner by an angular count, so with the
    # exhaustive route gone every search still returns what it returned
    def searches():
        return ([max_dual_depth_point(fam) for fam in _oracle_families()]
                + [extremal_report(n) for n in (3, 9, 12, 30)]
                + [find_unexposed_point(fam) for fam, _ in UNEXPOSED_PINS])

    expected = searches()

    def exhaustive(*args, **kwargs):
        raise AssertionError("a search enumerated every triple")

    monkeypatch.setattr(dual, "dual_depth_naive", exhaustive)
    monkeypatch.setattr(dual, "_surrounded_hits", exhaustive)
    assert searches() == expected


def test_every_dual_winner_matches_the_exhaustive_count():
    for fam in _oracle_families():
        q, rep = max_dual_depth_point(fam)
        assert _counts(rep) == _counts(dual_depth_naive(q, fam))
    for n in (3, 9, 12, 18, 31, 32, 61, 120):
        rep = extremal_report(n)
        family = tangent_family(n)
        assert dual_depth_naive(rep.max_point, family).strict_count == rep.max_count
        closed = dual_depth_naive(rep.closed_max_point, family)
        assert (closed.count, closed.count - closed.strict_count) == (
            rep.closed_max_count, rep.closed_boundary_count)


def test_cell_strict_count_matches_naive_at_every_cell():
    for fam in _oracle_families():
        coeffs = fam.coeffs
        tables = dual._dual_tables(fam)
        cells = _cell_counts(tables)
        assert len(cells) == 4 * binom(fam.n, 2)
        assert list(dual._walk_cells(tables, dual._line_walk(tables))) == cells
        for count, *cell in cells:
            q = dehomog(dual._cell_point(coeffs, *cell))
            assert count == dual_depth_naive(q, fam).strict_count


def test_integer_cell_point_equals_the_fraction_construction():
    # at every cell of every oracle family the integer key is the reduced
    # key of the Fraction construction's point, both where the cell's ray
    # meets a line and where it meets none
    branches = collections.Counter()
    for fam in _oracle_families():
        coeffs = fam.coeffs
        for i, j, key in dual._dual_tables(fam)[3]:
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                q = _fraction_cell_point(coeffs, key, i, j, sx, sy, branches)
                assert dual._cell_point(coeffs, key, i, j, sx, sy) == reduce_homog(homog(q))
    assert branches["meets"] > 0 and branches["none"] > 0


def _small_general_position_families():
    """The first of ``_small_families`` in general position for each
    n = 3-7."""
    found = {}
    for fam in _small_families(random.Random(5), 3000):
        if fam.n not in found and not fam.parallel_pair and not _line_violations(fam.coeffs):
            found[fam.n] = fam
    return [found[n] for n in sorted(found)]


def _assert_walk_equals_scans(fam):
    tables = dual._dual_tables(fam)
    walk = dual._line_walk(tables)
    closed = walk[0]
    assert [closed[i][j] for i, j, _ in tables[3]] == [
        _vertex_pair(row, tables)[0] for row in tables[3]]
    # a vertex counts the same from both of its lines
    assert all(closed[i][j] == closed[j][i] for i, j, _ in tables[3])
    assert list(dual._walk_cells(tables, walk)) == _cell_counts(tables)


@pytest.mark.parametrize("fam", [random_line_family(n, s) for n in range(3, 31)
                                 for s in ((900 + n,) if n > 24 else (900 + n, 950 + n))]
                         + _small_general_position_families()
                         + [tangent_family(n) for n in (3, 4, 5, 9, 12, 15, 21, 30)],
                         ids=lambda fam: fam.provenance or f"small{fam.n}")
def test_line_walk_equals_the_scans_at_every_vertex_and_cell(fam):
    # the walk's closed count at every vertex and strict count at every cell
    # equal the O(n) scans on each vertex's side vector
    _assert_walk_equals_scans(fam)


# y = 0 meets x = 10^20 and x + y = 10^20 + 1 at parameters -10^20 and
# -(10^20 + 1), one float, and x + y = 10^20 + 1 meets y = 0 and x = 10^20
# on one float as well: on both lines the float order, stable by index, puts
# the vertices in the wrong order
SHARED_FLOAT_LINES = LineFamily((Hyperplane((0, 1), 0), Hyperplane((1, 0), 10 ** 20),
                                 Hyperplane((1, 1), 10 ** 20 + 1), Hyperplane((1, -2), 3),
                                 Hyperplane((2, 1), -5), Hyperplane((1, 3), 7)))
# x + 5y = 10^20 through the vertex (10^20, 0) of y = 0 and x = 10^20: a
# concurrent triple on a line whose other vertices share floats, so only the
# exact parameters of that line's sort can find it
SHARED_FLOAT_CONCURRENT = LineFamily(SHARED_FLOAT_LINES.lines + (Hyperplane((1, 5), 10 ** 20),))
# 10^400·x + y = 0: its vertices' parameters overflow a float
OVERFLOW_LINES = LineFamily((Hyperplane((10 ** 400, 1), 0), Hyperplane((1, 1), 2),
                             Hyperplane((2, -1), -1), Hyperplane((1, -3), 4)))


@pytest.mark.parametrize("fam, exact_lines", [
    (SHARED_FLOAT_LINES, [0, 2]), (OVERFLOW_LINES, [0]), (random_line_family(20, 3), []),
    (tangent_family(30), []),
], ids=["shared-float", "overflow", "random20", "tangent30"])
def test_line_order_takes_exact_params_on_float_ties_and_overflow(fam, exact_lines, monkeypatch):
    # only a line whose floats tie or overflow sorts by the exact keys of its
    # parameters, and the walk there still equals the scans
    line_order, angle_keys = dual._line_order, dual._angle_keys
    current, calls = [], []

    def traced(line, crossings):
        current[:] = [fam.coeffs.index(line)]
        return line_order(line, crossings)

    def counted(dirs):
        calls.extend(current)
        return angle_keys(dirs)

    monkeypatch.setattr(dual, "_line_order", traced)
    monkeypatch.setattr(dual, "_angle_keys", counted)
    _assert_walk_equals_scans(fam)
    assert calls == exact_lines
    for (a, b, _), crossings in zip(fam.coeffs, dual._dual_tables(fam)[4]):
        params = [Fraction(a * y - b * x, w) for _, (x, y, w) in crossings]
        assert params == sorted(set(params))


def _sorted_key_count(fam, sides):
    """C(m, 3) minus the avoiding triples of the m oriented normals, counted
    on sorted exact angle keys: the per-query route the half-turn pass
    replaced."""
    dirs = [(a, b) if s > 0 else (-a, -b) for (a, b), s in zip(fam.normals, sides) if s]
    return math.comb(len(dirs), 3) - _avoiding(*_exact_halves(dirs))


def _off_line_naive(q, fam, sides):
    """Exhaustive count of the triples among the lines that miss q."""
    off = [h for h, s in zip(fam.lines, sides) if s]
    return dual_depth_naive(q, LineFamily(off)).count if len(off) >= 3 else 0


def _queries_with_zeros(fam, rng, count):
    """``count`` each of generic points, points on one line (the foot of a
    generic point) and arrangement vertices (on two lines)."""
    coeffs = fam.coeffs
    out = [rand_q(rng) for _ in range(count)]
    out += [project_onto_hyperplane(rand_q(rng), rng.choice(fam.lines))
            for _ in range(count)]
    pairs = list(itertools.combinations(range(fam.n), 2))
    for i, j in rng.sample(pairs, min(count, len(pairs))):
        out.append(dehomog(intersect_lines_homog(coeffs[i], coeffs[j])))
    return out


@pytest.mark.parametrize("fam", [random_line_family(n, 700 + n) for n in range(3, 25)]
                         + [tangent_family(n) for n in (3, 4, 5, 8, 13, 21, 29, 40)],
                         ids=lambda fam: fam.provenance or f"n{fam.n}")
def test_surrounding_equals_sorted_keys_and_naive(fam):
    rng = random.Random(fam.n)
    queries = _queries_with_zeros(fam, rng, 2 if fam.n > 24 else 4)
    zeros = set()
    for q in queries:
        sides = dual._sides(homog(q), fam.coeffs)
        zeros.add(sides.count(0))
        count = dual._surrounding(fam.order, sides)
        assert count == _sorted_key_count(fam, sides) == _off_line_naive(q, fam, sides)
    assert {0, 1, 2} <= zeros


@pytest.mark.parametrize("fam", [random_line_family(n, 800 + n) for n in range(3, 25, 3)]
                         + [tangent_family(n) for n in range(3, 41, 4)],
                         ids=lambda fam: fam.provenance or f"n{fam.n}")
def test_surrounding_equals_sorted_keys_on_side_vectors(fam):
    # any side vector, realizable by a point or not, with up to two zeros as
    # the vertex and cell scans pass them
    rng = random.Random(fam.n)
    for _ in range(60):
        sides = [rng.choice((1, -1)) for _ in range(fam.n)]
        for i in rng.sample(range(fam.n), rng.randrange(min(fam.n, 2) + 1)):
            sides[i] = 0
        assert dual._surrounding(fam.order, sides) == _sorted_key_count(fam, sides)


# normals on the half-turn boundary: x = c has normal (1, 0) at angle 0 and
# its opposite at angle pi, y = c has (0, 1) at pi/2, x - y = c points below
# the x axis and is stored with sign -1
BOUNDARY_FAMILIES = (
    LineFamily((X0, Y0, DIAG)),
    LineFamily((Hyperplane((1, -1), 1), Hyperplane((1, 0), 3), Hyperplane((0, 1), -2),
                Hyperplane((1, 1), 0), Hyperplane((2, -1), 1), Hyperplane((-1, 3), 2))),
    LineFamily((Hyperplane((0, 1), 5), Hyperplane((-1, 1), 0), Hyperplane((1, 0), -1),
                Hyperplane((1, 2), 2), Hyperplane((3, -1), -4))),
    # the first two normals share the float key -1.0 but are not parallel,
    # the larger angle listed first; the last one's key overflows a float
    LineFamily((Hyperplane((10 ** 20 + 2, 10 ** 20 + 1), 1), Hyperplane((10 ** 20 + 1, 10 ** 20), 0),
                Hyperplane((1, -2), 3), Hyperplane((0, 1), -1))),
    LineFamily((Hyperplane((10 ** 400, 1), 0), Hyperplane((1, 1), 2), Hyperplane((2, -1), -1))),
)


def test_half_turn_order_on_boundary_normals():
    assert TRIANGLE.order == ((1, 1), (2, 1), (0, 1))  # x, x + y, y: 0, pi/4, pi/2
    assert LineFamily((Y0, Hyperplane((0, 2), 2), X0)).order is None
    for fam in BOUNDARY_FAMILIES:
        assert sorted(i for i, _ in fam.order) == list(range(fam.n))
        for i, g in fam.order:
            a, b = fam.normals[i]
            assert g * b > 0 or (b == 0 and g * a > 0)  # angle in [0, pi)
        angles = [(g * fam.normals[i][0], g * fam.normals[i][1]) for i, g in fam.order]
        assert all(dual._icross(u, v) > 0 for u, v in zip(angles, angles[1:]))


# the first two normals share the float key -1.0 but are not parallel, so
# the half-turn order takes the exact angle keys; x = 3 has the normal
# (1, 0) at angle 0; no three of the lines meet
FLOAT_TIE_NORMALS = (Hyperplane((10 ** 20 + 2, 10 ** 20 + 1), 1),
                     Hyperplane((10 ** 20 + 1, 10 ** 20), 0), Hyperplane((1, -2), 4),
                     Hyperplane((0, 1), -1), Hyperplane((1, 0), 3))


def test_turn_from_the_order_equals_the_cross_product_sign(monkeypatch):
    # turn[i][k] = sign[i]·sign[k]·sgn(pos[k] − pos[i]), read off the
    # tables' places and signs in the half-turn order, is the sign of
    # cross(n_i, n_k) for every ordered pair of lines
    angle_keys = dual._angle_keys
    exact = []
    monkeypatch.setattr(dual, "_angle_keys", lambda dirs: exact.append(dirs) or angle_keys(dirs))
    families = ([random_line_family(n, 1100 + n) for n in range(4, 21)]
                + [tangent_family(n) for n in (3, 9, 30, 61)]
                + [LineFamily(FLOAT_TIE_NORMALS), BOUNDARY_FAMILIES[1]])
    assert len(exact) == 1  # only the float-tie family took the exact keys
    for fam in families:
        pos, sign = dual._dual_tables(fam)[2]
        for i, k in itertools.permutations(range(fam.n), 2):
            derived = sign[i] * sign[k] * (1 if pos[k] > pos[i] else -1)
            assert derived == _cross_turn(fam.coeffs, i, k)


@pytest.mark.parametrize("fam", BOUNDARY_FAMILIES)
def test_surrounding_on_boundary_normals(fam):
    for q in _line_queries(fam):
        sides = dual._sides(homog(q), fam.coeffs)
        count = dual._surrounding(fam.order, sides)
        assert count == _sorted_key_count(fam, sides) == _off_line_naive(q, fam, sides)


def test_dual_counts_take_no_angle_keys_per_query(monkeypatch):
    fam = random_line_family(9, 88)
    tangent = tangent_family(9)
    tables = dual._dual_tables(tangent)
    q = Point(Fraction(1, 3), Fraction(2, 7))
    found = random_line_family(18, 1)

    def routes():
        return (max_dual_depth_point(fam),
                dual._max_strict_dual(tangent, tables, dual._line_walk(tables)),
                dual_depth_fast(q, fam), exposure_profile(q, fam),
                exposure_profile(q, fam).exposed(), exposure_profile(q, fam).almost_exposed(),
                find_unexposed_point(found))

    expected = routes()

    def no_keys(dirs):
        raise AssertionError("angle keys built per query")

    monkeypatch.setattr(dual, "_angle_keys", no_keys)
    assert routes() == expected


def test_max_dual_depth_point_examples():
    q, rep = max_dual_depth_point(TRIANGLE)
    assert (q, rep.count) == (Point(0, 0), 1)  # lexicographically least vertex


def test_max_dual_depth_vertex_scan_matches_naive_oracle():
    fam = random_line_family(4, 71)
    q, rep = max_dual_depth_point(fam)
    coeffs = [h for h in fam.lines]
    best = -1
    for a, b in itertools.combinations(range(4), 2):
        det = (coeffs[a].normal[0] * coeffs[b].normal[1]
               - coeffs[b].normal[0] * coeffs[a].normal[1])
        x = (coeffs[a].offset * coeffs[b].normal[1]
             - coeffs[a].normal[1] * coeffs[b].offset) / det
        y = (coeffs[a].normal[0] * coeffs[b].offset
             - coeffs[a].offset * coeffs[b].normal[0]) / det
        best = max(best, dual_depth_naive(Point(x, y), fam).count)
    assert rep.count == best


def test_max_dual_depth_threads_match_serial():
    fam = random_line_family(12, 31)
    q1, r1 = max_dual_depth_point(fam, threads=1)
    q2, r2 = max_dual_depth_point(fam, threads=2)
    assert (q1, r1.count) == (q2, r2.count)


def test_base_cut_count_examples():
    for i in range(3):
        assert base_cut_count(Point(1, 1), i, TRIANGLE) == 1
        assert base_cut_count(Point(5, 5), i, TRIANGLE) == 0
    with pytest.raises(DegeneracyError):
        base_cut_count(Point(0, 1), 1, TRIANGLE)  # q on x = 0


def test_base_cut_identity_seeded():
    # per-line equality with filtered surrounding triples, and the 3x sum
    rng = random.Random(6)
    for trial in range(12):
        n = rng.randrange(5, 8)
        fam = random_line_family(n, 7000 + trial)
        q = rand_q(rng)
        if any(h.contains(q) for h in fam.lines):
            continue
        per_line = [0] * n
        total = 0
        for idx in itertools.combinations(range(n), 3):
            if surround_direct(q, [fam.lines[i] for i in idx]):
                total += 1
                for i in idx:
                    per_line[i] += 1
        for i in range(n):
            assert base_cut_count(q, i, fam) == per_line[i]
        assert sum(per_line) == 3 * total
        assert total == dual_depth_naive(q, fam).count


def test_base_cut_count_at_tied_boundary_positions():
    # the count reads each crossing's position along the parallel of line i
    # through q against q's own, with the closed test min <= s_q <= max. A
    # query at a crossing's position lies on that crossing's line, where the
    # count raises; the tie a query can reach is two crossings at one
    # position, with q on the parallel of line i through the vertex of lines
    # j and k. There the count must equal the filtered surround_direct count
    rng = random.Random(32)
    counts = []
    for n in range(5, 13):
        for trial in range(3):
            fam = random_line_family(n, 3200 + 10 * n + trial)
            for i, j, k in rng.sample(list(itertools.permutations(range(n), 3)), 4):
                x, y, w = intersect_lines_homog(fam.coeffs[j], fam.coeffs[k])
                v = Point(Fraction(x, w), Fraction(y, w))
                step = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40), 8)
                # q = v moved along line i's direction, and a point of line j
                q, on_j = (Point(v.x - step * b / (abs(a) + abs(b)),
                                 v.y + step * a / (abs(a) + abs(b)))
                           for a, b, _ in (fam.coeffs[i], fam.coeffs[j]))
                with pytest.raises(DegeneracyError):
                    base_cut_count(on_j, i, fam)
                if any(h.contains(q) for h in fam.lines):
                    continue
                expected = sum(1 for pair in itertools.combinations(set(range(n)) - {i}, 2)
                               if surround_direct(q, [fam.lines[m] for m in (i, *pair)]))
                assert base_cut_count(q, i, fam) == expected
                counts.append(expected)
    assert len(counts) >= 80 and sum(c > 0 for c in counts) >= 20


def test_exposure_profile_two_line_example():
    profile = exposure_profile(Point(1, 1), LineFamily((Y0, X0)))
    assert profile.pair_total == 1
    assert set(profile.directions) == {(0, -1), (-1, 0)}
    # the single wedge is the quarter arc from straight left to straight down
    assert sorted(profile.arc_counts) == [0, 1]
    idx = profile.arc_counts.index(1)
    assert profile.directions[idx] == (-1, 0)
    assert profile.directions[(idx + 1) % 2] == (0, -1)


def test_exposure_profile_triangle_example():
    profile = exposure_profile(Point(1, 1), TRIANGLE)
    assert profile.arc_counts == (1, 1, 1)
    assert max(profile.arc_counts) <= profile.pair_total


def test_exposure_profile_matches_ray_crossing_oracle():
    rng = random.Random(41)
    for trial in range(12):
        n = rng.randrange(3, 8)
        fam = random_line_family(n, 9000 + trial)
        q = rand_q(rng)
        if any(h.contains(q) for h in fam.lines):
            continue
        try:
            profile = exposure_profile(q, fam)
        except DegeneracyError:
            continue
        feet = [project_onto_hyperplane(q, h) for h in fam.lines]
        for i in range(profile.n_arcs):
            for d in profile.directions_inside_arc(i, count=3):
                crossings = sum(
                    1 for a, b in itertools.combinations(feet, 2)
                    if segment_crosses_ray(a, b, q, Point(*d)))
                assert crossings == profile.arc_counts[i]


def test_exposure_wedge_bookkeeping():
    # each pair contributes exactly to the arcs inside its wedge: summing the
    # per-arc counts reproduces the total number of (pair, arc) incidences
    rng = random.Random(57)
    sizes = (2, 3, 4, 5, 6, 7, 9, 12, 16, 20)
    checked = 0
    while checked < len(sizes):
        fam = random_line_family(sizes[checked], 1234 + checked)
        q = rand_q(rng)
        if any(h.contains(q) for h in fam.lines):
            continue
        try:
            profile = exposure_profile(q, fam)
        except DegeneracyError:
            continue
        from heavycover.dual import _in_closed_cone

        incidences = 0
        for i in range(profile.n_arcs):
            rep = profile.directions_inside_arc(i, count=1)[0]
            inside = sum(1 for a, b in itertools.combinations(profile.directions, 2)
                         if _in_closed_cone(a, b, rep))
            assert inside == profile.arc_counts[i]
            incidences += inside
        assert sum(profile.arc_counts) == incidences
        checked += 1


def _cyclic(dirs):
    """Nonzero directions sorted by angle in [0, 2pi), by half plane and then
    by cross product: independent of the half-turn order."""
    def cmp(u, v):
        hu = u[1] < 0 or (u[1] == 0 and u[0] < 0)
        hv = v[1] < 0 or (v[1] == 0 and v[0] < 0)
        if hu != hv:
            return 1 if hu else -1
        return -dual._icross(u, v)

    return sorted(dirs, key=functools.cmp_to_key(cmp))


@pytest.mark.parametrize("fam", [random_line_family(n, 1300 + n) for n in range(4, 13)]
                         + [tangent_family(9), tangent_family(12)],
                         ids=lambda fam: fam.provenance)
def test_arc_counts_at_vertices_match_the_wedge_enumeration(fam):
    # at each vertex two lines give no direction; the n - 2 others are the
    # oriented normals in cyclic order, and each open arc counts the pairs
    # whose closed wedge covers a direction strictly inside it
    for i, j, v in dual._dual_tables(fam)[3]:
        sides = dual._sides(v, fam.coeffs)
        arcs = dual._arc_profile(fam.order, fam.normals, sides)
        dirs = [d for d, _ in arcs]
        assert dirs == _cyclic((a, b) if s > 0 else (-a, -b)
                               for (a, b), s in zip(fam.normals, sides) if s)
        assert len(dirs) == fam.n - 2
        for k, (d, count) in enumerate(arcs):
            rep = dual._arc_representative(d, dirs[(k + 1) % len(dirs)])
            assert count == sum(1 for a, b in itertools.combinations(dirs, 2)
                                if dual._in_closed_cone(a, b, rep))


def test_exposure_count_at_critical_directions():
    profile = exposure_profile(Point(1, 1), TRIANGLE)
    for i, d in enumerate(profile.directions):
        left = profile.arc_counts[i - 1]
        right = profile.arc_counts[i]
        assert profile.count_at(d) >= max(left, right)


def test_exposed_arcs_two_line_example():
    arcs = exposure_profile(Point(1, 1), LineFamily((Y0, X0))).exposed()
    assert not arcs.is_empty and not arcs.full_circle
    assert len(arcs.arcs) == 1
    arc = arcs.arcs[0]
    assert (arc.start, arc.end) == ((0, -1), (-1, 0))  # the 3/4 circle, closed
    assert arc.contains((1, 0)) and arc.contains((0, 1)) and arc.contains((-1, 1))
    assert not arc.contains((-1, -1))  # inside the covered wedge


def test_exposed_arcs_deep_point_empty():
    # frozen during the build: a generic cell point of this family has every
    # arc count >= ceil(2/9 * C(12,2)) = 15, so nothing is exposed
    fam = random_line_family(12, 101)
    q = Point(Fraction(5433431, 9005619), Fraction(20875954, 9005619))
    profile = exposure_profile(q, fam)
    assert min(profile.arc_counts) >= 15
    assert profile.exposed().is_empty
    rep = dual_depth_naive(q, fam)
    assert rep.fraction >= DUAL_BOUND


def test_exposed_arcs_far_point_structure():
    # far outside, the complement of the projection wedges is exposed; the
    # wedge arcs themselves carry counts >= 2/9 * C(3,2), so the exposed set
    # is a nonempty proper part of the circle, never all of it
    q = Point(90, 77)
    profile = exposure_profile(q, TRIANGLE)
    assert sorted(profile.arc_counts) == [0, 2, 2]
    arcs = profile.exposed()
    assert not arcs.is_empty and not arcs.full_circle
    zero_idx = profile.arc_counts.index(0)
    for d in profile.directions_inside_arc(zero_idx, count=3):
        assert arcs.contains_direction(d)


def test_almost_exposed_arcs():
    fam = random_line_family(12, 101)
    q = Point(Fraction(5433431, 9005619), Fraction(20875954, 9005619))
    assert exposure_profile(q, fam).almost_exposed().is_empty  # no exposed antecedent

    two = LineFamily((Y0, X0))
    almost = exposure_profile(Point(1, 1), two).almost_exposed()
    exposed = exposure_profile(Point(1, 1), two).exposed()
    assert not almost.is_empty
    # the exposed set extends to its closure but not into the covered wedge
    assert almost.contains_direction((0, -1)) and almost.contains_direction((-1, 0))
    assert not almost.contains_direction((-1, -1))
    for arc in exposed.arcs:
        assert almost.contains_direction(arc.start) and almost.contains_direction(arc.end)


def _almost_exposed_fill(mask):
    """The almost-exposed fill by definition: for every two exposed arcs i, j
    with fewer than n/3 projections strictly inside the sector from i to j,
    fill that sector; O(k^2 n) for k exposed arcs."""
    n = len(mask)
    exposed_idx = [i for i in range(n) if mask[i]]
    almost = list(mask)
    third = Fraction(n, 3)
    for i in exposed_idx:
        for j in exposed_idx:
            inside = (j - i) % n
            if inside < third:
                for t in range(inside + 1):
                    almost[(i + t) % n] = True
    return almost


def test_almost_exposed_pass_matches_the_sector_fill():
    # every mask of up to 10 arcs, then the profiles of a grid of query
    # points against random and tangent families
    filled = 0
    for n in range(1, 11):
        for mask in itertools.product((False, True), repeat=n):
            almost = dual._almost_exposed_mask(list(mask))
            assert almost == _almost_exposed_fill(mask)
            filled += almost != list(mask)
    assert filled > 0
    families = [random_line_family(n, 40 + n) for n in (6, 9, 14, 20)]
    families += [tangent_family(9), tangent_family(15)]
    for fam in families:
        for x, y in itertools.product(range(-30, 31, 6), repeat=2):
            q = Point(Fraction(x, 7), Fraction(y, 5))
            try:
                profile = exposure_profile(q, fam)
            except DegeneracyError:
                continue
            mask = dual._exposed_mask(profile)
            expected = dual._mask_to_arcset(_almost_exposed_fill(mask), profile.directions,
                                            "ALMOST_EXPOSED")
            assert exposure_profile(q, fam).almost_exposed() == expected


def test_find_unexposed_point_absent_cases():
    assert find_unexposed_point(TRIANGLE) is None
    two = LineFamily((Y0, X0))
    assert find_unexposed_point(two) is None


def test_find_unexposed_point_success_implies_dual_bound():
    # frozen during the build: the certificate fires for this family
    fam = random_line_family(18, 1)
    q = find_unexposed_point(fam)
    assert q is not None
    rep = dual_depth_naive(q, fam)
    assert rep.fraction >= DUAL_BOUND


@pytest.mark.parametrize("fam, expected", UNEXPOSED_PINS,
                         ids=["random12-1", "random18-1", "random30-2", "tangent15"])
def test_find_unexposed_point_is_pinned(fam, expected):
    # the points the vertex-then-midpoint search returned when pinned
    q = find_unexposed_point(fam)
    assert q == expected
    if q is not None:
        assert dual_depth_naive(q, fam).fraction >= DUAL_BOUND


def test_exposure_errors_on_lines_and_parallel_pairs():
    # y = 0 and y = 2 are parallel: a query below, between or above them has
    # two collinear projection directions; a query on a line is named first,
    # in a parallel family too
    for q in (Point(1, -1), Point(1, 1), Point(2, 3)):
        with pytest.raises(DegeneracyError, match="^projection directions are collinear$"):
            exposure_profile(q, PARALLEL)
    for q, fam in ((Point(1, 0), PARALLEL), (Point(1, 2), PARALLEL), (Point(0, 1), PARALLEL),
                   (Point(1, 0), TRIANGLE), (Point(0, 0), TRIANGLE)):
        with pytest.raises(DegeneracyError, match="^query point lies on a line$"):
            exposure_profile(q, fam)


def test_find_unexposed_point_tangent_conditional():
    # absence is a legitimate outcome; when a point certifies, the depth
    # consequence must hold exactly
    fam = tangent_family(12)
    q = find_unexposed_point(fam)
    if q is not None:
        assert dual_depth_naive(q, fam).fraction >= DUAL_BOUND


def test_tangent_family_examples():
    fam = tangent_family(3, [0, Fraction(1, 2), 1])
    assert fam.lines[0] == Hyperplane((1, 0), 1)
    assert fam.lines[1] == Hyperplane((Fraction(3, 5), Fraction(4, 5)), 1)
    assert fam.lines[2] == Hyperplane((0, 1), 1)


def test_tangent_family_touches_unit_circle():
    fam = tangent_family(7)
    for h in fam.lines:
        foot = project_onto_hyperplane(Point(0, 0), h)
        assert foot.dot(foot) == 1  # tangency: distance from origin exactly 1


def test_tangent_family_general_position():
    fam = tangent_family(5)
    assert _line_violations(fam.coeffs) == []


def test_tangent_family_validation():
    with pytest.raises(DomainError):
        tangent_family(2)
    with pytest.raises(DomainError):
        tangent_family(3, [0, 0, 1])
    with pytest.raises(DomainError):
        tangent_family(3, [0, 1, Fraction(1, 2)])
    with pytest.raises(DomainError):
        tangent_family(3, [0, Fraction(1, 2), 2])


def test_classify_tangents_example():
    fam = tangent_family(3, [0, Fraction(1, 2), 1])
    cls = classify_tangents(Point(2, 2), fam)
    assert (cls.n1, cls.n2, cls.n3) == (0, 3, 0)
    assert dual_depth_naive(Point(2, 2), fam).count == 0 == cls.product


def test_classify_tangents_partition_and_bound():
    fam = tangent_family(9)
    rng = random.Random(3)
    done = 0
    while done < 40:
        q = rand_q(rng, span=4, denom=13)
        if q.dot(q) <= 1:
            continue
        try:
            cls = classify_tangents(q, fam)
        except DegeneracyError:
            continue
        assert cls.total == 9
        assert dual_depth_naive(q, fam).count <= cls.product
        done += 1


def test_classify_tangents_rejects_inside_points():
    fam = tangent_family(5)
    with pytest.raises(DegeneracyError):
        classify_tangents(Point(Fraction(1, 2), 0), fam)


def test_extremal_report_small():
    rep = extremal_report(3)
    assert rep.product_bound_floor == 1
    assert rep.max_count == 1
    rep9 = extremal_report(9)
    assert rep9.max_count <= 27
    assert rep9.gromov_floor == Fraction(2, 9) * 84
    # the closed vertex maximum exceeds the strict one through boundary triples
    assert rep9.closed_max_count >= rep9.max_count
    assert rep9.closed_boundary_count > 0


def test_extremal_report_values_follow_its_counts():
    # the report stores n and the two maxima; the fraction and the bounds
    # follow them, also on a report rebuilt with another count or size
    for n in (9, 12, 18, 30, 60):
        rep = extremal_report(n)
        for moved in (rep, replace(rep, max_count=rep.max_count - 1),
                      replace(rep, n=n + 1)):
            m, total = moved.n, math.comb(moved.n, 3)
            assert moved.fraction == Fraction(moved.max_count, total)
            assert moved.product_bound == Fraction(m ** 3, 27)
            assert moved.product_bound_floor == m ** 3 // 27
            assert moved.gromov_floor == Fraction(2 * total, 9)
            assert moved.distance_to_bound == Fraction(abs(9 * moved.max_count - 2 * total),
                                                       9 * total)


def test_exposure_threshold_follows_its_directions():
    # one direction per line: C(n, 2) pairs, of which 2/9 is the threshold
    rng = random.Random(43)
    for n in (3, 5, 8):
        fam = random_line_family(n, 9100 + n)
        profile = exposure_profile(rand_q(rng), fam)
        assert profile.pair_total == n * (n - 1) // 2
        assert profile.threshold == Fraction(n * (n - 1), 9)
        fewer = replace(profile, directions=profile.directions[:-1])
        assert fewer.threshold == Fraction((n - 1) * (n - 2), 9)


def test_extremal_report_tangent_30():
    # beyond the frozen acceptance sizes 9, 12, 18
    rep = extremal_report(30)
    family = tangent_family(30)
    assert rep.max_count <= rep.product_bound_floor == 30 ** 3 // 27
    assert dual_depth_naive(rep.max_point, family).strict_count == rep.max_count
    assert dual_depth_naive(rep.closed_max_point, family).count == rep.closed_max_count
    assert rep.distance_to_bound < extremal_report(18).distance_to_bound


def test_extremal_report_tangent_60():
    # the tightness corollary at scale: the strict max meets floor(n^3/27)
    rep = extremal_report(60)
    family = tangent_family(60)
    assert rep.max_count == rep.product_bound_floor == 60 ** 3 // 27 == 8000
    assert dual_depth_naive(rep.max_point, family).strict_count == 8000
    assert dual_depth_naive(rep.closed_max_point, family).count == rep.closed_max_count


def _reference_dual_tally(q, lines):
    """(count, strict count, witnesses) from one surround_direct per triple;
    a surrounding triple holds q strictly iff q is on none of its lines."""
    count = strict = 0
    witnesses = []
    for idx in itertools.combinations(range(len(lines)), 3):
        triple = [lines[i] for i in idx]
        if not surround_direct(q, triple):
            continue
        count += 1
        strict += not any(h.contains(q) for h in triple)
        witnesses.append(idx)
    return count, strict, tuple(witnesses)


def _line_queries(family):
    """Every arrangement vertex, the midpoint of every two vertices on one
    line, a point on each line, and a few generic points."""
    coeffs = family.coeffs
    verts = {}
    for i, j in itertools.combinations(range(len(coeffs)), 2):
        x, y, w = intersect_lines_homog(coeffs[i], coeffs[j])
        if w:
            verts.setdefault(i, []).append(dehomog((x, y, w)))
            verts.setdefault(j, []).append(dehomog((x, y, w)))
    queries = {p for on_line in verts.values() for p in on_line}
    for on_line in verts.values():
        for p, r in itertools.combinations(on_line, 2):
            queries.add((p + r).scale(Fraction(1, 2)))
    for a, b, c in coeffs:
        queries.add(Point(Fraction(c, a), 0) if a else Point(0, Fraction(c, b)))
    queries |= {Point(Fraction(1, 3), Fraction(2, 7)), Point(-5, Fraction(7, 2)),
                Point(40, -31)}
    return sorted(queries)


# parallel pairs, concurrent triples (three lines through the origin, three
# through (2, 2)), and a family in general position
DUAL_FAMILIES = (
    LineFamily((Y0, X0, Hyperplane((1, -1), 0), Hyperplane((0, 1), 2),
                Hyperplane((1, 1), 4), Hyperplane((1, 0), 2), Hyperplane((2, 1), 5))),
    LineFamily((Y0, Hyperplane((0, 1), 1), Hyperplane((0, 1), -3), X0, DIAG)),
    random_line_family(7, 41),
)


@pytest.mark.parametrize("fam", DUAL_FAMILIES)
def test_dual_depth_naive_equals_per_triple_reference(fam):
    total = binom(fam.n, 3)
    for q in _line_queries(fam):
        rep = dual_depth_naive(q, fam, witness_limit=total)
        assert (rep.count, rep.strict_count, rep.witnesses) == \
            _reference_dual_tally(q, fam.lines)


def _reference_surround_projection(q, lines):
    """The Fraction-arithmetic projection surround test, kept as an oracle
    for the integer one."""
    lines = list(lines)
    if len(lines) != 3:
        raise DomainError("surround tests take exactly three lines")
    if q.dim != 2 or any(h.dim != 2 for h in lines):
        raise DimensionError("surround_projection is planar only")
    for a, b in itertools.combinations(range(3), 2):
        if lines[a].normal == lines[b].normal:
            raise DegeneracyError("parallel pair")
    if any(h.contains(q) for h in lines):
        raise DegeneracyError("query point lies on a line")
    feet = [project_onto_hyperplane(q, h) for h in lines]
    return point_in_simplex(q, feet).in_closed


def _outcome(f, *args):
    """The result of f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def test_surround_projection_equals_reference_on_large_denominators():
    # queries over denominators up to 2^61 - 1 and lines with rational
    # coefficients; every fourth query is moved onto one of the lines
    rng = random.Random(29)
    big = (7, 9973, 2 ** 31 - 1, 2 ** 61 - 1)
    seen = set()
    for t in range(3000):
        fam = random_line_family(3, rng.randrange(10 ** 6))
        lines = [Hyperplane((Fraction(a, k), Fraction(b, k)), Fraction(c, k))
                 for (a, b, c), k in zip(fam.coeffs, (1, 3, 7))]
        den = rng.choice(big)
        q = Point(Fraction(rng.randrange(-6 * den, 6 * den + 1), den),
                  Fraction(rng.randrange(-6 * den, 6 * den + 1), den))
        if t % 4 == 3:
            q = project_onto_hyperplane(q, lines[t % 3])
        got = _outcome(surround_projection, q, lines)
        assert got == _outcome(_reference_surround_projection, q, lines), (q, lines)
        seen.add(got)
    assert seen == {True, False, DegeneracyError}


def test_surround_projection_errors_equal_reference():
    plane = Hyperplane((1, 2, 3), 4)
    cases = [
        (Point(1, 1), TRIANGLE.lines[:2]),                            # two lines
        (Point(1, 1, 1), TRIANGLE.lines),                             # 3d query
        (Point(1, 1), (Y0, X0, plane)),                               # 3d plane
        (Point(1, 1), (Y0, Hyperplane((0, -3), 6), X0)),              # parallel
        (Point(0, 0), (Y0, Hyperplane((0, -3), 6), X0)),              # and on one
        (Point(2, 2), (Y0, X0, DIAG)),                                # on x + y = 4
        (Point(Fraction(1, 3), Fraction(1, 5)), (Y0, X0, DIAG)),      # inside
        (Point(Fraction(-1, 3), Fraction(1, 5)), (Y0, X0, DIAG)),     # outside
    ]
    outcomes = [_outcome(surround_projection, q, ls) for q, ls in cases]
    assert outcomes == [_outcome(_reference_surround_projection, q, ls) for q, ls in cases]
    assert outcomes == [DomainError, DimensionError, DimensionError, DegeneracyError,
                        DegeneracyError, DegeneracyError, True, False]


def test_line_family_rejects_coincident_members():
    for lines in ((Y0, X0, Hyperplane((0, -2), 0)),
                  (DIAG, Hyperplane((Fraction(1, 3), Fraction(1, 3)), Fraction(4, 3)))):
        with pytest.raises(DomainError, match="^line family has coincident members$"):
            LineFamily(lines)
    assert LineFamily((Y0, Hyperplane((0, -2), 1))).parallel_pair
