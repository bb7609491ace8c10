import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from heavycover.errors import DegeneracyError, DimensionError, DomainError
from heavycover.exactgeom import (
    ContainmentVerdict,
    Hyperplane,
    Point,
    _line_violations,
    _orientation_homog,
    _solve_exact,
    general_position_report,
    homog,
    line_coeffs_int,
    orientation,
    point_in_simplex,
    project_onto_hyperplane,
    scalar,
    segment_crosses_ray,
)


def P(*cs):
    return Point(*cs)


def test_scalar_accepts_exact_forms():
    assert scalar(3) == Fraction(3)
    assert scalar("1/2") == Fraction(1, 2)
    assert scalar("0.25") == Fraction(1, 4)
    assert scalar(Fraction(7, 3)) == Fraction(7, 3)


def test_scalar_rejects_inexact_forms():
    with pytest.raises(DomainError):
        scalar(0.25)
    with pytest.raises(DomainError):
        scalar("1e-3")
    with pytest.raises(DomainError):
        scalar("2E5")
    with pytest.raises(DomainError):
        scalar("abc")


def test_scalar_rejects_booleans():
    # bool is an int subclass, but True is no coordinate
    for value in (True, False):
        with pytest.raises(DomainError, match="booleans are rejected"):
            scalar(value)


def test_orientation_convention():
    assert orientation([P(0, 0), P(1, 0), P(0, 1)]) == 1
    assert orientation([P(0, 0), P(1, 1), P(2, 2)]) == 0
    assert orientation([P(0, 0), P(0, 1), P(1, 0)]) == -1


def test_orientation_dimension_checks():
    with pytest.raises(DimensionError):
        orientation([P(0, 0), P(1, 0)])
    with pytest.raises(DimensionError):
        orientation([P(0, 0), P(1, 0), P(0, 0, 1)])


def test_orientation_antisymmetric_under_transpositions():
    rng = random.Random(11)
    for _ in range(200):
        pts = [P(Fraction(rng.randrange(-40, 41), 7),
                 Fraction(rng.randrange(-40, 41), 7)) for _ in range(3)]
        s = orientation(pts)
        for i, j in itertools.combinations(range(3), 2):
            swapped = list(pts)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert orientation(swapped) == -s


def test_orientation_in_3d():
    assert orientation([P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]) != 0
    assert orientation([P(0, 0, 0), P(1, 0, 0), P(2, 0, 0), P(0, 0, 1)]) == 0


TRI = (P(0, 0), P(4, 0), P(0, 4))


def test_point_in_simplex_verdicts():
    assert point_in_simplex(P(1, 1), TRI) is ContainmentVerdict.INTERIOR
    assert point_in_simplex(P(2, 2), TRI) is ContainmentVerdict.BOUNDARY
    assert point_in_simplex(P(5, 5), TRI) is ContainmentVerdict.OUTSIDE
    assert point_in_simplex(P(0, 0), TRI) is ContainmentVerdict.BOUNDARY


def test_point_in_simplex_permutation_invariant():
    rng = random.Random(5)
    for _ in range(120):
        tri = [P(Fraction(rng.randrange(-30, 31), 5),
                 Fraction(rng.randrange(-30, 31), 5)) for _ in range(3)]
        q = P(Fraction(rng.randrange(-30, 31), 5), Fraction(rng.randrange(-30, 31), 5))
        verdicts = {point_in_simplex(q, perm) for perm in itertools.permutations(tri)}
        assert len(verdicts) == 1


def test_degenerate_simplex_is_never_interior():
    seg = (P(0, 0), P(2, 2), P(4, 4))
    assert point_in_simplex(P(1, 1), seg) is ContainmentVerdict.BOUNDARY
    assert point_in_simplex(P(3, 3), seg) is ContainmentVerdict.BOUNDARY
    assert point_in_simplex(P(5, 5), seg) is ContainmentVerdict.OUTSIDE
    assert point_in_simplex(P(1, 0), seg) is ContainmentVerdict.OUTSIDE
    # fully collapsed simplex
    z = (P(1, 1), P(1, 1), P(1, 1))
    assert point_in_simplex(P(1, 1), z) is ContainmentVerdict.BOUNDARY
    assert point_in_simplex(P(0, 1), z) is ContainmentVerdict.OUTSIDE


def _facet_oracle(q, tri):
    """Independent closed-containment test: q is in the closed simplex iff for
    every facet its orientation with q is zero or matches the opposite vertex."""
    for i in range(3):
        facet = [tri[j] for j in range(3) if j != i]
        s_q = orientation(facet + [q])
        s_v = orientation(facet + [tri[i]])
        if s_v == 0:
            continue
        if s_q != 0 and s_q != s_v:
            return False
    return True


def test_point_in_simplex_matches_sign_oracle_bulk():
    rng = random.Random(42)
    mismatches = 0
    for _ in range(10_000):
        tri = [P(Fraction(rng.randrange(-24, 25), 3),
                 Fraction(rng.randrange(-24, 25), 3)) for _ in range(3)]
        q = P(Fraction(rng.randrange(-24, 25), 3), Fraction(rng.randrange(-24, 25), 3))
        if orientation(tri) == 0:
            continue  # oracle form covers nondegenerate simplices
        got = point_in_simplex(q, tri).in_closed
        if got != _facet_oracle(q, tri):
            mismatches += 1
    assert mismatches == 0


def test_project_onto_hyperplane_examples():
    h = Hyperplane((1, 1), 4)
    assert project_onto_hyperplane(P(1, 1), h) == P(2, 2)
    assert project_onto_hyperplane(P(1, 1), Hyperplane((0, 1), 0)) == P(1, 0)
    on = P(3, 1)
    assert project_onto_hyperplane(on, h) == on


def test_projection_identities_random():
    rng = random.Random(77)
    for _ in range(300):
        n = (Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10)))
        if n == (Fraction(0), Fraction(0)):
            continue
        h = Hyperplane(n, Fraction(rng.randrange(-9, 10), 3))
        q = P(Fraction(rng.randrange(-30, 31), 4), Fraction(rng.randrange(-30, 31), 4))
        f = project_onto_hyperplane(q, h)
        assert h.side(f) == 0
        # q - f is parallel to the normal: orthogonal to the in-plane direction
        v = Point(-h.normal[1], h.normal[0])
        assert (q - f).dot(v) == 0


def test_projection_in_higher_dimension():
    h = Hyperplane((1, 1, 1), 3)
    f = project_onto_hyperplane(P(0, 0, 0), h)
    assert f == P(1, 1, 1)
    assert h.side(f) == 0
    q = P(Fraction(1, 2), 2, -3)
    g = project_onto_hyperplane(q, h)
    assert h.side(g) == 0
    diff = q - g
    assert diff[0] == diff[1] == diff[2]  # displacement parallel to the normal


def test_segment_crosses_ray_examples():
    a, b, q = P(1, 0), P(0, 1), P(1, 1)
    assert segment_crosses_ray(a, b, q, P(-1, -1)) is True
    assert segment_crosses_ray(a, b, q, P(1, 1)) is False
    assert segment_crosses_ray(a, b, q, P(0, -1)) is True  # hits endpoint (1, 0)


def test_segment_crosses_ray_symmetry_and_degeneracy():
    rng = random.Random(3)
    for _ in range(300):
        a = P(Fraction(rng.randrange(-20, 21), 3), Fraction(rng.randrange(-20, 21), 3))
        b = P(Fraction(rng.randrange(-20, 21), 3), Fraction(rng.randrange(-20, 21), 3))
        q = P(Fraction(rng.randrange(-20, 21), 3), Fraction(rng.randrange(-20, 21), 3))
        d = P(Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6)))
        if (d.x, d.y) == (0, 0):
            continue
        try:
            fwd = segment_crosses_ray(a, b, q, d)
        except DegeneracyError:
            continue
        assert segment_crosses_ray(b, a, q, d) == fwd
    with pytest.raises(DegeneracyError):
        segment_crosses_ray(P(0, 0), P(2, 0), P(1, 0), P(0, 1))


def test_segment_crosses_ray_parametric_oracle():
    # exhaustive small-grid cross-check against a direct parametric solve
    def oracle(a, b, q, d):
        ab = b - a
        det = ab.x * (-d.x) * 0  # placeholder to keep the algebra explicit below
        det = ab.x * (-d.y) - ab.y * (-d.x)
        rx, ry = (q - a).x, (q - a).y
        if det != 0:
            s = (rx * (-d.y) - ry * (-d.x)) / det
            t = (ab.x * ry - ab.y * rx) / det
            return 0 <= s <= 1 and t >= 0
        if ab.x * ry - ab.y * rx != 0:
            return False
        dd = d.dot(d)
        ta, tb = (a - q).dot(d) / dd, (b - q).dot(d) / dd
        return max(ta, tb) >= 0

    grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    a, b = P(1, 0), P(0, 1)
    q = P(1, 1)
    for dx in grid:
        for dy in grid:
            if dx == 0 and dy == 0:
                continue
            d = P(dx, dy)
            assert segment_crosses_ray(a, b, q, d) == oracle(a, b, q, d)


def test_general_position_report():
    assert general_position_report([P(0, 0), P(1, 0), P(0, 1)]) == []
    rep = general_position_report([P(0, 0), P(1, 1), P(2, 2)])
    assert ("collinear", (0, 1, 2)) in rep
    rep = general_position_report([P(0, 0), P(1, 1), P(0, 0)])
    assert ("duplicate", (0, 2)) in rep


def test_general_position_random_rationals_clean():
    # a seeded rational point set is in general position with probability 1;
    # confirmed here by the exhaustive orientation scan inside the report
    rng = random.Random(2024)
    pts = [P(Fraction(rng.randrange(-80_000, 80_001), 9973),
             Fraction(rng.randrange(-80_000, 80_001), 9973)) for _ in range(12)]
    assert general_position_report(pts) == []


def _reference_general_position(pts):
    """Every duplicate pair by ``Point`` equality, then every dependent
    (d+1)-tuple by ``_orientation_homog`` on its rows, in
    ``itertools.combinations`` order."""
    d = pts[0].dim
    kind = "collinear" if d == 2 else "dependent"
    out = [("duplicate", (i, j)) for i, j in itertools.combinations(range(len(pts)), 2)
           if pts[i] == pts[j]]
    out += [(kind, idx) for idx in itertools.combinations(range(len(pts)), d + 1)
            if _orientation_homog([homog(pts[i]) for i in idx]) == 0]
    return out


def test_general_position_report_equals_generic_reference():
    # a small grid over mixed denominators makes duplicates and collinear
    # triples common; the planar minors path must give the reference's list
    # in its order, and d = 1 and d = 3 keep the generic path
    rng = random.Random(18)

    def coord():
        return Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))

    kinds = set()
    clean = 0
    for _ in range(300):
        pts = [P(coord(), coord()) for _ in range(rng.randrange(1, 10))]
        report = general_position_report(pts)
        assert report == _reference_general_position(pts), pts
        kinds.update(kind for kind, _ in report)
        clean += not report
    assert kinds == {"duplicate", "collinear"} and clean > 0
    for dim in (1, 3):
        seen = set()
        for _ in range(60):
            pts = [P(*(coord() for _ in range(dim))) for _ in range(rng.randrange(1, 8))]
            pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
            report = general_position_report(pts)
            assert report == _reference_general_position(pts), pts
            seen.update(k for k, _ in report)
        assert seen == {"duplicate", "dependent"}


def test_lines_general_position_report():
    l1 = Hyperplane((0, 1), 0)   # y = 0
    l2 = Hyperplane((1, 0), 0)   # x = 0
    l3 = Hyperplane((1, 1), 4)   # x + y = 4

    def report(lines):
        return _line_violations([line_coeffs_int(h) for h in lines])

    assert report([l1, l2, l3]) == []
    rep = report([l1, Hyperplane((0, 1), 1)])
    assert ("parallel", (0, 1)) in rep
    rep = report([l1, l2, Hyperplane((1, -1), 0)])
    assert ("concurrent", (0, 1, 2)) in rep
    rep = report([l1, Hyperplane((0, 2), 0)])
    assert ("coincident", (0, 1)) in rep


def test_hyperplane_canonical_form_and_equality():
    assert Hyperplane((0, -2), -3) == Hyperplane((0, 1), Fraction(3, 2))
    assert Hyperplane((2, 4), 6) == Hyperplane((1, 2), 3)
    assert Hyperplane((1, 0), 1) != Hyperplane((1, 0), 2)
    with pytest.raises(DomainError):
        Hyperplane((0, 0), 1)


def test_homog_roundtrip():
    p = P(Fraction(3, 4), Fraction(-5, 6))
    assert homog(p) == (9, -10, 12)


def test_planar_homog_equals_the_general_lcm():
    # the planar one-gcd route gives the tuple of the d-dimensional route, on
    # (x, y, 1), whose third coordinate adds no denominator
    rng = random.Random(12)
    for _ in range(2000):
        x, y = (Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.choice((1, 2, 6, rng.randrange(1, 10 ** 6))))
                for _ in range(2))
        x3, y3, w, _ = homog(P(x, y, 1))
        assert homog(P(x, y)) == (x3, y3, w)


def test_homog_cache_leaves_equality_hash_and_repr_alone():
    p, q = P(Fraction(3, 4), 2), P(Fraction(3, 4), 2)
    before = (hash(p), repr(p))
    assert homog(p) == (3, 8, 4)
    assert homog(p) is homog(p)
    assert p == q and (hash(p), repr(p)) == before == (hash(q), repr(q))
    with pytest.raises(AttributeError):
        p.coords = (1, 2)


def test_exact_objects_pickle_and_copy():
    from heavycover.dual import LineFamily
    from heavycover.selection import LabeledPointSet

    p = P(Fraction(-1, 3), 5)
    homog(p)  # a filled cache must not leak into the copies
    objects = [
        p,
        Hyperplane((Fraction(2, 3), -4), 7),
        LabeledPointSet((p, P(1, 2), P(3, -1)), colors=(0, 1, 1), provenance="seed:1"),
        LineFamily((Hyperplane((1, 2), 3), Hyperplane((0, 1), 0)), provenance="x"),
    ]
    for obj in objects:
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is type(obj)
            assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)
    family = pickle.loads(pickle.dumps(objects[3]))
    assert family.coeffs == objects[3].coeffs and family.normals == objects[3].normals


def _reference_segment_crosses_ray(a, b, q, direction):
    """The Fraction-arithmetic ray-crossing test, kept as an oracle for the
    integer one."""
    def cross(ax, ay, bx, by):
        return ax * by - ay * bx

    for p in (a, b, q, direction):
        if p.dim != 2:
            raise DimensionError("segment_crosses_ray is planar only")
    if direction.x == 0 and direction.y == 0:
        raise DomainError("ray direction must be nonzero")
    ab = b - a
    aq = q - a
    if cross(ab.x, ab.y, aq.x, aq.y) == 0:
        lo, hi = sorted([Fraction(0), ab.dot(ab)])
        t = aq.dot(ab)
        if lo <= t <= hi:
            raise DegeneracyError("query point lies on the segment")
    det = cross(ab.x, ab.y, -direction.x, -direction.y)
    rhs = q - a
    if det != 0:
        s = cross(rhs.x, rhs.y, -direction.x, -direction.y) / det
        t = cross(ab.x, ab.y, rhs.x, rhs.y) / det
        return 0 <= s <= 1 and t >= 0
    if cross(ab.x, ab.y, rhs.x, rhs.y) != 0:
        return False
    d2 = direction.dot(direction)
    ta = (a - q).dot(direction) / d2
    tb = (b - q).dot(direction) / d2
    return max(ta, tb) >= 0


def _outcome(f, *args):
    """The result of f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _ray_cases():
    a, b = P(1, 0), P(3, 2)  # the segment from (1, 0) to (3, 2) on y = x - 1
    c, e = P(Fraction(1, 3), Fraction(2, 7)), P(Fraction(-5, 11), Fraction(9, 13))
    f = P(Fraction(1, 17), Fraction(-3, 19))
    return [
        (a, b, P(2, 1), P(0, 1)),                   # q on the segment
        (a, b, a, P(1, 5)),                         # q at an endpoint
        (a, b, P(5, 4), P(1, 0)),                   # q on the line, beyond b
        (a, b, P(0, -1), P(0, 1)),                  # q on the line, before a
        (a, b, P(5, 4), P(-1, -1)),                 # ... ray along the segment
        (a, b, P(5, 4), P(1, 1)),                   # ... ray away from it
        (a, b, P(0, 2), P(3, -2)),                  # ray through endpoint b
        (a, b, P(1, 3), P(0, -1)),                  # ray through endpoint a
        (a, b, P(0, 0), P(1, 1)),                   # parallel, no overlap
        (a, b, P(-1, -2), P(1, 1)),                 # collinear, overlapping
        (a, b, P(-1, -2), P(-1, -1)),               # collinear, pointing away
        (a, b, P(0, 5), P(0, 0)),                   # zero direction
        (a, b, P(2, 1), P(0, 0)),                   # zero direction, q on segment
        (a, a, P(1, 0), P(1, 1)),                   # a point segment through q
        (a, a, P(0, 0), P(1, 0)),                   # a point segment: always degenerate
        (c, e, f, (c + e).scale(Fraction(1, 2)) - f),  # mixed denominators,
        (c, e, f, f - (c + e).scale(Fraction(1, 2))),  # toward and away
        (P(1, 2, 3), P(0, 1, 1), P(2, 2, 2), P(1, 0, 0)),  # not planar
        (a, b, P(0, 0), P(1, 0, 0)),                # planar points, 3d direction
    ]


def test_segment_crosses_ray_equals_reference_on_edge_cases():
    outcomes = []
    for a, b, q, d in _ray_cases():
        got = _outcome(segment_crosses_ray, a, b, q, d)
        assert got == _outcome(_reference_segment_crosses_ray, a, b, q, d), (a, b, q, d)
        assert _outcome(segment_crosses_ray, b, a, q, d) == got
        outcomes.append(got)
    assert outcomes == [
        DegeneracyError, DegeneracyError, False, False, True, False, True, True,
        False, True, False, DomainError, DomainError, DegeneracyError, DegeneracyError,
        True, False, DimensionError, DimensionError]


def test_segment_crosses_ray_equals_reference_on_mixed_denominators():
    # every endpoint, query and direction draws its own denominator, so the
    # four points share none; small numerators make on-line queries and
    # parallel rays common
    rng = random.Random(11)
    denoms = (1, 2, 3, 7, 9973, 2 ** 40 + 15)

    def coord():
        den = rng.choice(denoms)
        return Fraction(rng.randrange(-3 * den, 3 * den + 1), den) if den > 9 \
            else Fraction(rng.randrange(-4, 5), den)

    seen = set()
    for _ in range(3000):
        a, b, q, d = (P(coord(), coord()) for _ in range(4))
        got = _outcome(segment_crosses_ray, a, b, q, d)
        assert got == _outcome(_reference_segment_crosses_ray, a, b, q, d), (a, b, q, d)
        seen.add(got)
    assert seen == {True, False, DegeneracyError, DomainError}


def _reference_line_violations(lines):
    """Violations read off the Fraction hyperplanes: parallel pairs by their
    canonical normals, coincident ones by equality, concurrent triples by an
    exact Fraction intersection."""
    out = []
    n = len(lines)
    for i, j in itertools.combinations(range(n), 2):
        if lines[i].normal == lines[j].normal:
            out.append(("coincident" if lines[i] == lines[j] else "parallel", (i, j)))
    for i, j, k in itertools.combinations(range(n), 3):
        if len({lines[m].normal for m in (i, j, k)}) < 3:
            continue
        (a1, b1), (a2, b2) = lines[i].normal, lines[j].normal
        c1, c2 = lines[i].offset, lines[j].offset
        det = a1 * b2 - a2 * b1
        x = P((c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det)
        if lines[k].contains(x):
            out.append(("concurrent", (i, j, k)))
    return sorted(out, key=lambda v: (len(v[1]), v[1]))


def test_line_violations_equal_reference_on_degenerate_families():
    # coefficients from a tiny range, scaled by rational factors, make
    # parallel, coincident and concurrent members common
    rng = random.Random(5)
    kinds = set()
    for _ in range(300):
        lines = []
        size = rng.randrange(3, 9)
        while len(lines) < size:
            a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
            if a or b:
                k = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5)))
                lines.append(Hyperplane((k * a, k * b), k * rng.randrange(-2, 3)))
        report = _line_violations([line_coeffs_int(h) for h in lines])
        assert sorted(report, key=lambda v: (len(v[1]), v[1])) == \
            _reference_line_violations(lines)
        kinds.update(kind for kind, _ in report)
    assert kinds == {"parallel", "coincident", "concurrent"}


def _fraction_solve(a_rows, b_col):
    """Gauss–Jordan elimination over ``Fraction``s, kept as the oracle of
    ``_solve_exact``: each pivot row is divided by its pivot and the pivot
    column cleared from every other row."""
    rows = [list(r) + [bv] for r, bv in zip(a_rows, b_col)]
    nrows = len(rows)
    ncols = len(a_rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if rows[i][-1] != 0:
            return ("inconsistent", None)
    if len(pivots) < ncols:
        return ("underdetermined", None)
    xs = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        xs[c] = rows[i][-1]
    return ("unique", xs)


def test_solve_exact_equals_fraction_elimination():
    # seeded rational systems from 1x1 to 5x5, and with one row or column
    # more or less, many with a zero row, a row that is a rational multiple
    # or sum of others (singular), or a right-hand side off the column span
    # (inconsistent); status and every solution entry must equal the
    # Fraction oracle's, each entry a Fraction in lowest terms
    rng = random.Random(32)

    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 3, 7, 9973)))

    seen = {"unique": 0, "inconsistent": 0, "underdetermined": 0}
    zero_rows = 0
    for size in range(1, 6):
        for nrows, ncols in ((size, size), (size + 1, size), (size, size + 1)):
            for _ in range(60):
                a_rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
                b_col = [entry() for _ in range(nrows)]
                shape = rng.randrange(4)
                if shape == 1:
                    a_rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
                elif shape == 2 and nrows > 1:
                    k = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
                    i, j = rng.sample(range(nrows), 2)
                    a_rows[j] = [k * v + w for v, w in zip(a_rows[i], a_rows[j - 1])]
                elif shape == 3 and nrows > 1:
                    i, j = rng.sample(range(nrows), 2)
                    a_rows[j] = list(a_rows[i])
                    b_col[j] = b_col[i] + rng.choice((0, 1))
                zero_rows += any(not any(r) for r in a_rows)
                got = _solve_exact(a_rows, b_col)
                assert got == _fraction_solve(a_rows, b_col), (a_rows, b_col)
                seen[got[0]] += 1
                if got[0] == "unique":
                    assert all(type(x) is Fraction for x in got[1])
    assert min(seen.values()) >= 20 and zero_rows >= 20
