import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from heavycover.datasets import random_point_set
from heavycover.errors import DegeneracyError, DimensionError, DomainError
from heavycover.exactgeom import Point, point_in_simplex
from heavycover.selection import LabeledPointSet, binom, depth_naive, selection_bound
from heavycover.transversal import (
    AffineFlat,
    _complement_coords,
    complement_basis,
    find_transversal_line_2d,
    transversal_bound,
    verify_transversal,
)

X_AXIS = AffineFlat(base=Point(0, 0), directions=(Point(1, 0),))


def _project(points, flat):
    """Each point's coordinates in the ``complement_basis`` chart, as
    ``verify_transversal`` projects them."""
    basis = complement_basis(flat)
    return [_complement_coords(p, basis) for p in points]


def _touches(points, flat):
    """True iff the hull of the (d - m + 1)-tuple ``points`` meets the flat
    (closed): ``verify_transversal`` counts the one tuple of m + 1 copies of
    the set."""
    sets = [LabeledPointSet(tuple(points))] * (flat.m + 1)
    return verify_transversal(flat, sets).per_set[0].count == 1


def rand_point(rng, d, span=6, denom=13):
    return Point(*(Fraction(rng.randrange(-span * denom, span * denom + 1), denom)
                   for _ in range(d)))


def test_affine_flat_validation():
    with pytest.raises(DomainError):
        AffineFlat(base=Point(0, 0), directions=(Point(1, 0), Point(2, 0)))
    with pytest.raises(DomainError):
        AffineFlat(base=Point(0, 0), directions=(Point(1, 0), Point(0, 1)))  # m = d
    with pytest.raises(DimensionError):
        AffineFlat(base=Point(0, 0), directions=(Point(1, 0, 0),))


def test_project_to_complement_examples():
    assert _project([Point(3, 5)], X_AXIS) == [Point(5)]
    assert _project([Point(7, 0)], X_AXIS) == _project([X_AXIS.base], X_AXIS)


def test_complement_gram_identity_3d():
    # squared distances in the complement chart, measured through the Gram
    # matrix of the (orthogonal, non-unit) basis, equal true squared distances
    rng = random.Random(15)
    for _ in range(20):
        direction = rand_point(rng, 3)
        if all(c == 0 for c in direction.coords):
            continue
        flat = AffineFlat(base=rand_point(rng, 3), directions=(direction,))
        basis = complement_basis(flat)
        gram = [[b1.dot(b2) for b2 in basis] for b1 in basis]
        assert gram[0][1] == 0 and gram[1][0] == 0  # orthogonal basis
        p, q = rand_point(rng, 3), rand_point(rng, 3)
        pc, qc = _project([p, q], flat)
        dc = pc - qc
        via_gram = sum(dc[i] * gram[i][j] * dc[j]
                       for i in range(2) for j in range(2))
        # direct: remove the flat-direction component from p - q
        diff = p - q
        u = direction
        coef = diff.dot(u) / u.dot(u)
        resid = Point(*(a - coef * b for a, b in zip(diff.coords, u.coords)))
        assert via_gram == resid.dot(resid)


def _strs(points):
    return [tuple(str(c) for c in p.coords) for p in points]


@pytest.mark.parametrize("flat, basis, projected", [
    (AffineFlat(Point(1, 2, 3), (Point(1, 1, 0),)),
     [("1/2", "-1/2", "0"), ("0", "0", "1")],
     [("0", "1"), ("-1", "2"), ("1/6", "1/4")]),
    (AffineFlat(Point(0, 1, Fraction(1, 2)), (Point(1, 2, 3), Point(0, 1, -1))),
     [("25/27", "-5/27", "-5/27")],
     [("3/5",), ("-3/5",), ("23/60",)]),
    (AffineFlat(Point(1, 0, 0, 2), (Point(1, -1, 2, 0),)),
     [("5/6", "1/6", "-1/3", "0"), ("0", "4/5", "2/5", "0"), ("0", "0", "0", "1")],
     [("4/5", "3/2", "1"), ("-3/5", "2", "3"), ("7/15", "11/24", "1/5")]),
    (AffineFlat(Point(0, 0, 1, 1), (Point(2, 1, 0, 1), Point(0, 1, 1, Fraction(1, 2)))),
     [("1/5", "-2/15", "4/15", "-4/15"), ("0", "4/9", "-2/9", "-4/9")],
     [("1/3", "-1/2"), ("-2", "-3"), ("31/90", "1/120")]),
], ids=["d3-m1", "d3-m2", "d4-m1", "d4-m2"])
def test_complement_basis_exact_values(flat, basis, projected):
    # frozen exact outputs: the unit vectors' Gram-Schmidt remainders, in order
    d = flat.dim
    pts = [Point(*[1] * d), Point(*range(d)), Point(*[Fraction(1, k + 2) for k in range(d)])]
    assert _strs(complement_basis(flat)) == basis
    assert _strs(_project(pts, flat)) == projected


def test_tuple_touches_flat_examples():
    assert _touches([Point(0, 1), Point(0, -1)], X_AXIS) is True
    assert _touches([Point(0, 1), Point(1, 2)], X_AXIS) is False
    assert _touches([Point(0, 0), Point(1, 2)], X_AXIS) is True  # closed


def test_tuple_touches_flat_permutation_invariance():
    rng = random.Random(8)
    flat = AffineFlat(base=Point(0, 0, 0), directions=(Point(1, 1, 0),))
    for _ in range(30):
        tri = [rand_point(rng, 3) for _ in range(3)]
        vals = {_touches(p, flat) for p in itertools.permutations(tri)}
        assert len(vals) == 1


def test_tuple_touches_equals_opposite_closed_sides_2d():
    rng = random.Random(12)
    flat = AffineFlat(base=Point(Fraction(1, 3), Fraction(2, 7)),
                      directions=(Point(3, -2),))
    # side functional: normal (2, 3), offset through the base
    for _ in range(200):
        a, b = rand_point(rng, 2), rand_point(rng, 2)
        sa = 2 * (a.x - flat.base.x) + 3 * (a.y - flat.base.y)
        sb = 2 * (b.x - flat.base.x) + 3 * (b.y - flat.base.y)
        assert _touches([a, b], flat) == (sa * sb <= 0)


def test_transversal_bound_values():
    assert transversal_bound(2, 1) == Fraction(1, 2)
    assert transversal_bound(3, 1) == Fraction(2, 9)
    assert transversal_bound(3, 2) == Fraction(1, 2)


def test_verify_transversal_examples():
    s0 = LabeledPointSet((Point(0, 1), Point(0, -1)))
    s1 = LabeledPointSet((Point(1, 1), Point(1, -1)))
    rep = verify_transversal(X_AXIS, [s0, s1])
    assert [r.fraction for r in rep.per_set] == [Fraction(1), Fraction(1)]
    assert all(r.bound == Fraction(1, 2) for r in rep.per_set)
    above0 = LabeledPointSet((Point(0, 1), Point(1, 2)))
    above1 = LabeledPointSet((Point(2, 1), Point(3, 3)))
    rep = verify_transversal(X_AXIS, [above0, above1])
    assert [r.fraction for r in rep.per_set] == [Fraction(0), Fraction(0)]


def test_set_touch_report_values_follow_its_count():
    # d = 3, m = 1: each set's bound is the codimension-2 one, 2/9, with the
    # slack bound 2/9 - 3/n; both verdicts follow the stored count
    rng = random.Random(41)
    flat = AffineFlat(base=rand_point(rng, 3), directions=(Point(1, 2, 3),))
    sets = [LabeledPointSet(tuple(rand_point(rng, 3) for _ in range(n))) for n in (6, 7)]
    rep = verify_transversal(flat, sets)
    assert (rep.d, rep.m) == (3, 1)
    for pset, srep in zip(sets, rep.per_set):
        n, total = pset.n, binom(pset.n, 3)
        assert (srep.n, srep.dim, srep.total) == (n, 2, total)
        assert (srep.median_floor_count, srep.meets_median_floor) == (None, None)
        for count in (srep.count, 0, total // 4, total):
            moved = replace(srep, count=count)
            assert moved.fraction == Fraction(count, total)
            assert moved.bound == transversal_bound(3, 1) == Fraction(2, 9)
            assert moved.slack_bound == Fraction(2, 9) - Fraction(3, n)
            assert moved.meets_bound == (9 * count >= 2 * total)
            assert moved.meets_slack_bound == (9 * n * count >= (2 * n - 27) * total)
    # the median floor's verdict follows the count too
    _, rep = find_transversal_line_2d(random_point_set(7, 3), random_point_set(7, 4))
    for srep in rep.per_set:
        assert (srep.dim, srep.median_floor_count, srep.meets_median_floor) == (1, 9, True)
        assert srep.meets_bound == (2 * srep.count >= srep.total)
        assert replace(srep, count=9).meets_median_floor
        assert not replace(srep, count=8).meets_median_floor


def _solve_fraction_system(rows, rhs):
    """Tiny in-test Gaussian elimination; returns None when singular."""
    n = len(rows)
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def _line_hits_triangle_oracle(tri, base, direction):
    """Independent enumeration oracle: solve the 4x4 barycentric/line system
    lam1*p1 + lam2*p2 + lam3*p3 - s*u = b, sum lam = 1; touch iff lam >= 0."""
    rows = []
    rhs = []
    for c in range(3):
        rows.append([tri[0][c], tri[1][c], tri[2][c], -direction[c]])
        rhs.append(base[c])
    rows.append([Fraction(1), Fraction(1), Fraction(1), Fraction(0)])
    rhs.append(Fraction(1))
    sol = _solve_fraction_system(rows, rhs)
    if sol is None:
        return None  # degenerate configuration; instance is skipped
    return sol[0] >= 0 and sol[1] >= 0 and sol[2] >= 0


def test_verify_transversal_3d_matches_enumeration_oracle():
    rng = random.Random(33)
    done = 0
    while done < 10:
        direction = rand_point(rng, 3)
        if all(c == 0 for c in direction.coords):
            continue
        flat = AffineFlat(base=rand_point(rng, 3), directions=(direction,))
        sets = [LabeledPointSet(tuple(rand_point(rng, 3) for _ in range(6)))
                for _ in range(2)]
        rep = verify_transversal(flat, sets)
        ok = True
        for pset, srep in zip(sets, rep.per_set):
            count = 0
            for idx in itertools.combinations(range(6), 3):
                hit = _line_hits_triangle_oracle([pset.points[i] for i in idx],
                                                 flat.base, direction)
                if hit is None:
                    ok = False
                    break
                count += hit
            if not ok:
                break
            assert count == srep.count
            assert srep.total == binom(6, 3)
            assert srep.bound == Fraction(2, 9)
        if ok:
            done += 1


def test_find_transversal_line_trivial_pairs():
    p0 = LabeledPointSet((Point(0, 0), Point(0, 4)))
    p1 = LabeledPointSet((Point(2, 1), Point(2, 5)))
    flat, rep = find_transversal_line_2d(p0, p1)
    assert [r.fraction for r in rep.per_set] == [Fraction(1), Fraction(1)]
    assert _touches(p0.points, flat)
    assert _touches(p1.points, flat)


def test_find_transversal_line_seeded_floors_and_oracle():
    a = random_point_set(8, 21)
    b = random_point_set(8, 22)
    flat, rep = find_transversal_line_2d(a, b)
    floor = ((8 - 1) // 2) * ((8 - 1) - (8 - 1) // 2)
    for srep in rep.per_set:
        assert srep.median_floor_count == floor == 12
        assert srep.count >= floor
        assert srep.total == 28
    # oracle: some line through a pair of the 16 points achieves both floors,
    # so the combinatorially complete sweep cannot do worse
    pts = list(a.points) + list(b.points)
    achieved = False
    for p, q in itertools.combinations(pts, 2):
        nx, ny = p.y - q.y, q.x - p.x
        c = nx * p.x + ny * p.y
        c0 = sum(1 for s, t in itertools.combinations(a.points, 2)
                 if (nx * s.x + ny * s.y - c) * (nx * t.x + ny * t.y - c) <= 0)
        c1 = sum(1 for s, t in itertools.combinations(b.points, 2)
                 if (nx * s.x + ny * s.y - c) * (nx * t.x + ny * t.y - c) <= 0)
        if c0 >= floor and c1 >= floor:
            achieved = True
            break
    assert achieved


def test_find_transversal_line_symmetric_sets():
    a = random_point_set(7, 63)
    shifted = LabeledPointSet(tuple(Point(p.x, p.y + Fraction(1, 9973))
                                    for p in a.points))
    flat, rep = find_transversal_line_2d(a, shifted)
    assert rep.per_set[0].count >= rep.per_set[0].median_floor_count
    assert rep.per_set[1].count >= rep.per_set[1].median_floor_count


def test_find_transversal_rejects_coincident_points():
    a = LabeledPointSet((Point(0, 0), Point(1, 1)))
    b = LabeledPointSet((Point(0, 0), Point(2, 2)))
    with pytest.raises(DegeneracyError):
        find_transversal_line_2d(a, b)


def test_transversal_rigid_motion_invariance():
    # exact rational rotation (3/5, 4/5) plus translation
    a = random_point_set(6, 91)
    b = random_point_set(6, 92)
    flat, rep = find_transversal_line_2d(a, b)

    def move(p):
        x = Fraction(3, 5) * p.x - Fraction(4, 5) * p.y + 2
        y = Fraction(4, 5) * p.x + Fraction(3, 5) * p.y - 1
        return Point(x, y)

    moved_flat = AffineFlat(base=move(flat.base),
                            directions=(Point(Fraction(3, 5) * flat.directions[0].x
                                              - Fraction(4, 5) * flat.directions[0].y,
                                              Fraction(4, 5) * flat.directions[0].x
                                              + Fraction(3, 5) * flat.directions[0].y),))
    moved_sets = [LabeledPointSet(tuple(move(p) for p in s.points)) for s in (a, b)]
    moved_rep = verify_transversal(moved_flat, moved_sets)
    base_rep = verify_transversal(flat, [a, b])
    assert [r.fraction for r in moved_rep.per_set] == [r.fraction for r in base_rep.per_set]


def test_one_dimensional_median_consistency():
    # the 1-D max-depth point is the median, whose pair depth meets the d=1
    # selection bound of 1/2 exactly
    rng = random.Random(44)
    for n in (5, 6, 9):
        pts = []
        seen = set()
        while len(pts) < n:
            v = Fraction(rng.randrange(-400, 401), 17)
            if v not in seen:
                seen.add(v)
                pts.append(Point(v))
        ps = LabeledPointSet(tuple(pts))
        best = max(depth_naive(p, ps).count for p in pts)
        assert best >= (n // 2) * ((n + 1) // 2)
        assert Fraction(best, binom(n, 2)) >= selection_bound(1)


def test_verify_transversal_equals_per_triangle_reference_on_planar_images():
    # points stacked along the flat's direction share an image, and the flat
    # passes through data points, so images hold duplicates, collinear
    # triples and the target itself
    flat = AffineFlat(base=Point(1, 0, 1), directions=(Point(0, 1, 0),))
    rng = random.Random(12)
    for _ in range(6):
        pts = []
        for _ in range(7):
            x, z = rng.randrange(-2, 3), rng.randrange(-2, 3)
            pts.append(Point(x, rng.randrange(-3, 4), z))
        pts.append(Point(1, 5, 1))
        pset = LabeledPointSet(tuple(pts))
        image = _project(pts, flat)
        [target] = _project([flat.base], flat)
        expected = sum(1 for idx in itertools.combinations(range(len(pts)), 3)
                       if point_in_simplex(target, [image[i] for i in idx]).in_closed)
        assert verify_transversal(flat, [pset, pset]).per_set[0].count == expected


def _reference_find_transversal_line_2d(set0, set1):
    """The Fraction-arithmetic direction sweep, kept as an oracle for the
    integer one: the same candidates in the same order, with every
    projection and median a Fraction."""
    from heavycover.dual import _reduce_dir
    from heavycover.selection import _angle_keys

    for pset in (set0, set1):
        if pset.dim != 2:
            raise DimensionError("find_transversal_line_2d is planar only")
        if pset.n < 2:
            raise DomainError("each set needs at least 2 points")
    combined = list(set0.points) + list(set1.points)
    for i, j in itertools.combinations(range(len(combined)), 2):
        if combined[i] == combined[j]:
            raise DegeneracyError("coincident points across the two sets",
                                  [("duplicate", (i, j))])
    criticals = set()
    for a, b in itertools.combinations(combined, 2):
        diff = b - a
        dx = diff.x.numerator * diff.y.denominator
        dy = diff.y.numerator * diff.x.denominator
        v = _reduce_dir((-dy, dx))
        criticals.add(v)
        criticals.add((-v[0], -v[1]))
    criticals = list(criticals)
    keys, _ = _angle_keys(criticals)
    ordered = [v for _, v in sorted(zip(keys, criticals))]
    candidates = [_reduce_dir((a[0] + b[0], a[1] + b[1]))
                  for a, b in zip(ordered, ordered[1:] + ordered[:1])]
    candidates.extend(ordered)
    for vx, vy in candidates:
        s0 = sorted(vx * p.x + vy * p.y for p in set0.points)
        s1 = sorted(vx * p.x + vy * p.y for p in set1.points)
        lo = max(s0[(len(s0) - 1) // 2], s1[(len(s1) - 1) // 2])
        hi = min(s0[len(s0) // 2], s1[len(s1) // 2])
        if lo > hi:
            continue
        c = (lo + hi) / 2
        den = vx * vx + vy * vy
        flat = AffineFlat(base=Point(Fraction(vx, den) * c, Fraction(vy, den) * c),
                          directions=(Point(-vy, vx),))
        return flat, verify_transversal(flat, [set0, set1])
    raise AssertionError("no median overlap")


def _outcome(sweep, set0, set1):
    """(base, direction, per-set counts) of the sweep's line, or the type of
    the exception it raises."""
    try:
        flat, rep = sweep(set0, set1)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return flat.base, flat.directions, [(r.count, r.total) for r in rep.per_set]


def _outcomes(set0, set1):
    """The library's outcome and the reference sweep's."""
    return (_outcome(find_transversal_line_2d, set0, set1),
            _outcome(_reference_find_transversal_line_2d, set0, set1))


@pytest.mark.parametrize("near_convex", [False, True])
def test_find_transversal_line_equals_reference(near_convex):
    # box sets share the denominator 9973; near-convex sets have a different
    # denominator at nearly every point, and odd/even sizes mix
    for t in range(14):
        n0, n1 = 2 + t % 9, 2 + (3 * t) % 10
        a = random_point_set(n0, 500 + 2 * t, near_convex=near_convex)
        b = random_point_set(n1, 501 + 2 * t, near_convex=near_convex)
        got, expected = _outcomes(a, b)
        assert got == expected
        assert isinstance(got, tuple)


def test_find_transversal_line_equals_reference_on_small_grids():
    # integer and small-denominator grids: projections tie, medians coincide,
    # and some pairs share a point across the sets
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        pts = [Point(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))),
                     Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 5))))
               for _ in range(rng.randrange(4, 11))]
        k = rng.randrange(2, len(pts) - 1)
        a, b = LabeledPointSet(tuple(pts[:k])), LabeledPointSet(tuple(pts[k:]))
        got, expected = _outcomes(a, b)
        assert got == expected
        seen.add(got if isinstance(got, type) else tuple)
    assert seen == {tuple, DegeneracyError}


def test_find_transversal_line_errors_equal_reference():
    two = LabeledPointSet((Point(0, 0), Point(1, 1)))
    cases = [
        (LabeledPointSet((Point(0, 0, 0), Point(1, 1, 1))), two),   # 3d set
        (two, LabeledPointSet((Point(5, 5),))),                     # one point
        (two, LabeledPointSet((Point(2, 2), Point(1, 1)))),         # shared point
    ]
    for (a, b), expected in zip(cases, (DimensionError, DomainError, DegeneracyError)):
        assert _outcomes(a, b) == (expected, expected)
