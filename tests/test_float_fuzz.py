"""A seeded fuzzer for the exact order behind every float-keyed sort.

Each route sorts by correctly rounded floats and, where two tie or one
overflows, by ``selection._angle_keys``. The inputs (``float_fuzz``) make the
floats tie or overflow; each route is checked against an exhaustive oracle
on every instance, and a census of the calls to ``_angle_keys``, by the
function that made them, fails a route that never took its exact order.
"""

import functools
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from dual_oracles import _cell_counts, _cross_turn, _vertex_pair
from float_fuzz import clash_lines, clash_points
from heavycover import dual, selection
from heavycover.errors import DegeneracyError
from heavycover.exactgeom import Hyperplane, Point, dehomog, homog
from heavycover.selection import (
    _segment_vertices,
    _walk_tables,
    closed_depth_count,
    depth_naive,
)

SEEDS = range(40)


@pytest.fixture
def census(monkeypatch):
    """A Counter of the calls to ``_angle_keys``, by the calling function:
    ``_segment_walk``, ``_exact_halves`` (for ``_angular_counts``),
    ``_line_order`` and ``_half_turn_order``."""
    hits = Counter()
    angle_keys = selection._angle_keys

    def counted(dirs):
        hits[sys._getframe(1).f_code.co_name] += 1
        return angle_keys(dirs)

    for module in (selection, dual):
        monkeypatch.setattr(module, "_angle_keys", counted)
    return hits


def _point_sets():
    return [clash_points(random.Random(seed), 6 + seed % 4) for seed in SEEDS]


def _families():
    return [clash_lines(random.Random(seed), 5 + seed % 6) for seed in SEEDS]


def _crossings(ps):
    """Each segment i < j of ``ps`` with its walk's (count, point) pairs."""
    tables = _walk_tables([homog(p) for p in ps.points])
    for i, j in itertools.combinations(range(ps.n), 2):
        yield i, j, [(count, dehomog(key)) for count, key in _segment_vertices(i, j, *tables)]


def test_segment_walk_equals_closed_counts_on_float_clashes(census):
    # every crossing the walk yields has the angular count's depth, and the
    # crossings run strictly forward from p_i
    for ps in _point_sets():
        for i, j, vertices in _crossings(ps):
            p, r = ps.points[i], ps.points[j]
            axis = 0 if p.x != r.x else 1
            along = [(q.coords[axis] - p.coords[axis]) / (r.coords[axis] - p.coords[axis])
                     for _, q in vertices]
            assert all(s < t for s, t in zip([0] + along, along + [1]))
            for count, q in vertices:
                assert count == closed_depth_count(q, ps.points)
    assert census["_segment_walk"] > 0


def test_closed_depth_count_equals_depth_naive_on_float_clashes(census):
    # at the data points, every crossing and a few small points, where the
    # directions to the points near (N, 0) share floats or overflow
    for ps in _point_sets():
        queries = list(ps.points) + [Point(x, y) for x in (-1, 2) for y in (-1, 1)]
        queries += [q for _, _, vertices in _crossings(ps) for _, q in vertices]
        for q in queries:
            assert closed_depth_count(q, ps.points) == depth_naive(q, ps).count
    assert census["_exact_halves"] > 0


def test_line_walk_equals_scans_on_float_clashes(census):
    # the walk's count at every vertex and cell equals the O(n) scans there,
    # every line's vertices come out in strictly increasing exact parameter,
    # and one more line through a vertex near (FAR, 0) is found concurrent
    for fam in _families():
        tables = dual._dual_tables(fam)
        walk = dual._line_walk(tables)
        closed = walk[0]
        assert [closed[i][j] for i, j, _ in tables[3]] == [
            _vertex_pair(row, tables)[0] for row in tables[3]]
        assert list(dual._walk_cells(tables, walk)) == _cell_counts(tables)
        for (a, b, _), crossings in zip(fam.coeffs, tables[4]):
            params = [Fraction(a * y - b * x, w) for _, (x, y, w) in crossings]
            assert params == sorted(set(params))
        # no line of the family has the normal (1, 10)
        x, y, w = max((v for _, _, v in tables[3]), key=lambda v: Fraction(v[0], v[2]))
        through = Hyperplane((1, 10), Fraction(x + 10 * y, w))
        with pytest.raises(DegeneracyError):
            dual._dual_tables(dual.LineFamily(fam.lines + (through,)))
    assert census["_line_order"] > 0


def _upward(normal):
    a, b = normal
    return normal if b > 0 or (b == 0 and a > 0) else (-a, -b)


def test_half_turn_order_equals_cross_product_order_on_float_clashes(census):
    # the upward normals in counterclockwise order, each with its sign
    for fam in _families():
        ups = [_upward(normal) for normal in fam.normals]
        expected = sorted(range(fam.n), key=functools.cmp_to_key(
            lambda i, k: -_cross_turn([(*ups[i], 0), (*ups[k], 0)], 0, 1)))
        assert [i for i, _ in fam.order] == expected
        assert all((g * a, g * b) == ups[i]
                   for i, g in fam.order for a, b in [fam.normals[i]])
    assert census["_half_turn_order"] > 0
