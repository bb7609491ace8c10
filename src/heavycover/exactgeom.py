"""Exact rational points, hyperplanes, and the predicates everything else uses.

Every coordinate is a ``fractions.Fraction`` and every operation is exact; the
library never rounds. Hot paths clear denominators once and work on integer
homogeneous coordinates, so determinant signs reduce to big-int arithmetic.

On integers: ``orientation``, ``point_in_simplex`` (``_simplex_verdict``),
``segment_crosses_ray``, ``general_position_report`` (in the plane, one
2x2-minor line per pair and one dot product per triple) and
``_line_violations`` (on the reduced lines of ``line_coeffs_int``), with the
line helpers ``intersect_lines_homog`` and ``line_through_homog``. On
``Fraction``s: ``Hyperplane.side``, ``project_onto_hyperplane``,
``_solve_exact`` and the flat-simplex hull test.

Each object caches its integer form on first use, so a conversion happens
once per object: ``Point._homog`` (``homog``) and ``Hyperplane._coeffs``
(``line_coeffs_int``). A generator that already holds a line's reduced
integer triple builds the ``Hyperplane`` from it with ``_line_from_coeffs``,
which fills the cache, and no ``Fraction`` is turned back into integers.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import DegeneracyError, DimensionError, DomainError

Scalar = Fraction


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or exact string ("p/q" or finite decimal).

    Floats and scientific notation are rejected: they cannot be trusted to
    represent the intended exact value. Booleans are rejected too, though
    Python counts them as ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise DomainError(f"not an exact scalar: {value!r} (booleans are rejected)")
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise DomainError(f"scientific notation is not accepted: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not an exact rational literal: {value!r}") from exc
    raise DomainError(f"not an exact scalar: {value!r} (expected an int, Fraction "
                      "or exact string; floats are rejected)")


class Point:
    """Immutable point with Fraction coordinates in R^d, d >= 1.

    ``homog`` caches the point's integer homogeneous coordinates in the
    ``_homog`` slot on first use; equality, hashing and repr read only
    ``coords``.
    """

    __slots__ = ("coords", "_homog")

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if not coords:
            raise DimensionError("a point needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(scalar(c) for c in coords))
        object.__setattr__(self, "_homog", None)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __reduce__(self):
        # rebuild from the coordinates: the slots cannot be restored through
        # __setattr__, and the homogeneous cache is rebuilt on demand
        return (Point, self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def x(self) -> Fraction:
        return self.coords[0]

    @property
    def y(self) -> Fraction:
        return self.coords[1]

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __add__(self, other):
        _check_same_dim(self, other)
        return Point(*(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        _check_same_dim(self, other)
        return Point(*(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, k) -> "Point":
        k = scalar(k)
        return Point(*(k * c for c in self.coords))

    def dot(self, other) -> Fraction:
        _check_same_dim(self, other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def __repr__(self):
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


def _check_same_dim(a: Point, b: Point):
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")


class ContainmentVerdict(Enum):
    INTERIOR = "INTERIOR"
    BOUNDARY = "BOUNDARY"
    OUTSIDE = "OUTSIDE"

    @property
    def in_closed(self) -> bool:
        return self is not ContainmentVerdict.OUTSIDE


class Hyperplane:
    """Hyperplane {x : normal . x = offset} in canonical form.

    Canonical form scales so the first nonzero normal coordinate is +1, which
    makes equality of hyperplanes a plain field comparison.

    A planar hyperplane caches its reduced integer line (a, b, c) in the
    ``_coeffs`` slot, filled by ``line_coeffs_int`` on first use or by
    ``_line_from_coeffs`` at construction; equality, hashing, repr and
    pickling read only ``normal`` and ``offset``.
    """

    __slots__ = ("normal", "offset", "_coeffs")

    def __init__(self, normal, offset):
        normal = tuple(scalar(c) for c in normal)
        offset = scalar(offset)
        lead = next((c for c in normal if c != 0), None)
        if lead is None:
            raise DomainError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", tuple(c / lead for c in normal))
        object.__setattr__(self, "offset", offset / lead)
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hyperplane is immutable")

    def __reduce__(self):
        # the canonical form is a fixed point of the constructor; the integer
        # cache is rebuilt on demand
        return (Hyperplane, (self.normal, self.offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    def side(self, p: Point) -> Fraction:
        """normal . p - offset; sign classifies the two open half-spaces."""
        if p.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {p.dim} vs {self.dim}")
        return sum((a * b for a, b in zip(self.normal, p.coords)), Fraction(0)) - self.offset

    def contains(self, p: Point) -> bool:
        return self.side(p) == 0

    def __eq__(self, other):
        return (
            isinstance(other, Hyperplane)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.normal, self.offset))

    def __repr__(self):
        terms = " + ".join(f"{c}*x{i}" for i, c in enumerate(self.normal) if c != 0)
        return f"Hyperplane({terms} = {self.offset})"


# ---------------------------------------------------------------------------
# Integer homogeneous coordinates (internal fast path)
# ---------------------------------------------------------------------------

def _planar_homog(x, y):
    """``homog`` of the rational point (x, y), straight from its two
    Fractions: W is the least common multiple of their denominators, which
    keeps every direction from the point as short as it can be."""
    dx, dy = x.denominator, y.denominator
    w = dx // gcd(dx, dy) * dy
    return x.numerator * (w // dx), y.numerator * (w // dy), w


def homog(p: Point) -> tuple:
    """(X0, ..., Xd-1, W) integers with W > 0 and p = (X0/W, ..., Xd-1/W),
    with W the least common denominator; computed once per point, by one gcd
    for a planar point (``_planar_homog``)."""
    h = p._homog
    if h is None:
        coords = p.coords
        if len(coords) == 2:
            h = _planar_homog(*coords)
        else:
            w = 1
            for c in coords:
                d = c.denominator
                w = w * d // gcd(w, d)
            h = tuple(c.numerator * (w // c.denominator) for c in coords) + (w,)
        object.__setattr__(p, "_homog", h)
    return h


def reduce_homog(h: tuple) -> tuple:
    """Canonical reduced form of a homogeneous tuple (gcd 1, last entry > 0)."""
    g = 0
    for v in h:
        g = gcd(g, abs(v))
    if g > 1:
        h = tuple(v // g for v in h)
    if h[-1] < 0:
        h = tuple(-v for v in h)
    return h


def dehomog(h: tuple) -> Point:
    w = h[-1]
    return Point(*(Fraction(v, w) for v in h[:-1]))


def _int_det(rows) -> int:
    """Exact determinant of a square integer matrix (expansion / Bareiss)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # Bareiss fraction-free elimination for n >= 4.
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _orientation_homog(hpts) -> int:
    """Sign of the homogeneous orientation determinant; W > 0 rows required."""
    det = _int_det(hpts)
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def orientation(points) -> int:
    """Sign in {-1, 0, +1} of the (d+1)x(d+1) homogeneous determinant.

    Convention: a counterclockwise planar triple gives +1.
    """
    points = list(points)
    d = points[0].dim
    for p in points:
        if p.dim != d:
            raise DimensionError("orientation: all points must share one dimension")
    if len(points) != d + 1:
        raise DimensionError(f"orientation in R^{d} needs {d + 1} points, got {len(points)}")
    return _orientation_homog([homog(p) for p in points])


def _solve_exact(a_rows, b_col):
    """Solve A x = b exactly over the rationals.

    Returns ("unique", xs), ("inconsistent", None), or ("underdetermined", None).
    """
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


def _in_closed_hull(q: Point, points) -> bool:
    """Exact membership of q in the closed convex hull of an arbitrary tuple.

    Caratheodory: q is in the hull iff it is a convex combination of some
    affinely independent subset. Subset counts here are tiny (<= d+1).
    """
    pts = list(points)
    for k in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, k):
            if k == 1:
                if q == subset[0]:
                    return True
                continue
            base = subset[0]
            a_rows = [
                [subset[j + 1].coords[i] - base.coords[i] for j in range(k - 1)]
                for i in range(q.dim)
            ]
            b_col = [q.coords[i] - base.coords[i] for i in range(q.dim)]
            status, mu = _solve_exact(a_rows, b_col)
            if status != "unique":
                continue
            lam0 = 1 - sum(mu, Fraction(0))
            if lam0 >= 0 and all(m >= 0 for m in mu):
                return True
    return False


def point_in_simplex(q: Point, vertices) -> ContainmentVerdict:
    """Verdict for the CLOSED simplex spanned by d+1 vertices in R^d.

    INTERIOR iff every barycentric coordinate is > 0, BOUNDARY iff all are
    >= 0 with at least one zero. Affinely dependent vertex tuples never yield
    INTERIOR: the verdict is BOUNDARY exactly when q lies in the closed hull.
    """
    vertices = list(vertices)
    d = q.dim
    if len(vertices) != d + 1 or any(v.dim != d for v in vertices):
        raise DimensionError(f"simplex in R^{d} needs {d + 1} vertices of dimension {d}")
    return _simplex_verdict(homog(q), [homog(v) for v in vertices])


def _simplex_verdict(hq, hv) -> ContainmentVerdict:
    """``point_in_simplex`` on homogeneous integer coordinates (every W > 0):
    q = ``hq`` against the closed simplex on the d+1 vertices ``hv``.

    The sign of each orientation with one vertex replaced by q must match the
    simplex's own; a zero sign puts q on a facet. A flat simplex falls back to
    the exact hull test.
    """
    s0 = _orientation_homog(hv)
    if s0 == 0:
        if _in_closed_hull(dehomog(hq), [dehomog(v) for v in hv]):
            return ContainmentVerdict.BOUNDARY
        return ContainmentVerdict.OUTSIDE
    on_boundary = False
    for i in range(len(hv)):
        rows = list(hv)
        rows[i] = hq
        s = _orientation_homog(rows)
        if s == 0:
            on_boundary = True
        elif s != s0:
            return ContainmentVerdict.OUTSIDE
    return ContainmentVerdict.BOUNDARY if on_boundary else ContainmentVerdict.INTERIOR


def project_onto_hyperplane(q: Point, h: Hyperplane) -> Point:
    """Orthogonal projection of q onto h; exact rational output."""
    if q.dim != h.dim:
        raise DimensionError(f"dimension mismatch: {q.dim} vs {h.dim}")
    n2 = sum((c * c for c in h.normal), Fraction(0))
    t = h.side(q) / n2
    return Point(*(c - t * nc for c, nc in zip(q.coords, h.normal)))


def segment_crosses_ray(a: Point, b: Point, q: Point, direction: Point) -> bool:
    """True iff the closed segment [a, b] meets the closed ray {q + t*dir, t >= 0}.

    Planar only. q on the segment itself is a caller error (general position).
    All four points are scaled to integers over their least common
    denominator; the direction's scale does not change the ray.
    """
    for p in (a, b, q, direction):
        if p.dim != 2:
            raise DimensionError("segment_crosses_ray is planar only")
    hs = (homog(a), homog(b), homog(q), homog(direction))
    den = 1
    for _, _, w in hs:
        den = den * w // gcd(den, w)
    (ax, ay), (bx, by), (qx, qy), (dx, dy) = (
        (x * (den // w), y * (den // w)) for x, y, w in hs)
    if dx == 0 and dy == 0:
        raise DomainError("ray direction must be nonzero")
    abx, aby = bx - ax, by - ay
    aqx, aqy = qx - ax, qy - ay
    side = abx * aqy - aby * aqx
    if side == 0:
        # q on the segment's supporting line; on the segment itself is degenerate
        t = aqx * abx + aqy * aby
        if 0 <= t <= abx * abx + aby * aby:
            raise DegeneracyError("query point lies on the segment")
    det = aby * dx - abx * dy
    if det != 0:
        # q - a = s*(b - a) - t*dir by Cramer's rule, both numerators over det
        s = aqy * dx - aqx * dy
        t = side
        if det < 0:
            det, s, t = -det, -s, -t
        return 0 <= s <= det and t >= 0
    # Ray parallel to the segment: they meet only if collinear and overlapping.
    if side != 0:
        return False
    return max((ax - qx) * dx + (ay - qy) * dy, (bx - qx) * dx + (by - qy) * dy) >= 0


def general_position_report(points) -> list:
    """Violation witnesses for a point tuple: duplicates and dependent (d+1)-tuples.

    Empty list iff the points are in general position. In the plane the
    orientation determinant of p_i, p_j, p_k is a·x_k + b·y_k + c·w_k, with
    (a, b, c) the 2x2 minors of rows i and j (the line through p_i and p_j),
    so each pair's minors are formed once and each triple costs one dot
    product; the witnesses come in ``itertools.combinations`` order.
    """
    pts = list(points)
    if not pts:
        raise DomainError("general_position_report needs at least one point")
    d = pts[0].dim
    for p in pts:
        if p.dim != d:
            raise DimensionError("all points must share one dimension")
    # homogeneous coordinates over the least common denominator are
    # canonical, so equal tuples are equal points
    hpts = [homog(p) for p in pts]
    out = []
    for i, j in itertools.combinations(range(len(pts)), 2):
        if hpts[i] == hpts[j]:
            out.append(("duplicate", (i, j)))
    if len(pts) < d + 1:
        return out
    if d == 2:
        n = len(hpts)
        for i, (xi, yi, wi) in enumerate(hpts):
            for j in range(i + 1, n):
                xj, yj, wj = hpts[j]
                a, b, c = yi * wj - wi * yj, wi * xj - xi * wj, xi * yj - yi * xj
                for k in range(j + 1, n):
                    xk, yk, wk = hpts[k]
                    if a * xk + b * yk + c * wk == 0:
                        out.append(("collinear", (i, j, k)))
        return out
    for idx in itertools.combinations(range(len(pts)), d + 1):
        if _orientation_homog([hpts[i] for i in idx]) == 0:
            out.append(("dependent", idx))
    return out


def line_coeffs_int(h: Hyperplane) -> tuple:
    """Planar line as reduced integers (a, b, c) with ax + by = c and a
    positive lead coefficient; computed once per hyperplane."""
    t = h._coeffs
    if t is None:
        if h.dim != 2:
            raise DimensionError("line_coeffs_int is planar only")
        a, b = h.normal
        c = h.offset
        w = 1
        for den in (a.denominator, b.denominator, c.denominator):
            w = w * den // gcd(w, den)
        # the canonical normal leads with +1: only the gcd division acts
        t = _reduce_line(a.numerator * (w // a.denominator),
                         b.numerator * (w // b.denominator),
                         c.numerator * (w // c.denominator))
        object.__setattr__(h, "_coeffs", t)
    return t


def _reduce_line(a, b, c) -> tuple:
    """The integer line a·x + b·y = c divided by the gcd of its entries and
    signed so that its first nonzero normal entry is positive: the one
    reduced triple of every equation of that line."""
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    if g > 1:
        a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


def _line_from_coeffs(coeffs) -> Hyperplane:
    """The canonical ``Hyperplane`` of a reduced integer line (a, b, c), as
    ``_reduce_line`` gives it, with ``coeffs`` cached: one exact division of
    each entry by the lead coefficient, and no ``line_coeffs_int`` work."""
    a, b, c = coeffs
    lead = a or b
    h = object.__new__(Hyperplane)
    object.__setattr__(h, "normal", (Fraction(a, lead), Fraction(b, lead)))
    object.__setattr__(h, "offset", Fraction(c, lead))
    object.__setattr__(h, "_coeffs", coeffs)
    return h


def intersect_lines_homog(l1: tuple, l2: tuple) -> tuple:
    """Homogeneous intersection (X, Y, W) of integer lines; W == 0 iff parallel."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    x = c1 * b2 - b1 * c2
    y = a1 * c2 - c1 * a2
    w = a1 * b2 - a2 * b1
    if w < 0:
        x, y, w = -x, -y, -w
    return (x, y, w)


def line_through_homog(p: tuple, q: tuple) -> tuple:
    """Integer line coefficients (a, b, c) through two homogeneous points."""
    x1, y1, w1 = p
    x2, y2, w2 = q
    a = y1 * w2 - y2 * w1
    b = x2 * w1 - x1 * w2
    c = x2 * y1 - x1 * y2
    return _reduce_line(a, b, c)


def _line_violations(coeffs) -> list:
    """Violations for a planar line family given as reduced integer lines
    (a, b, c), as ``line_coeffs_int`` gives them: parallel or coincident
    pairs and concurrent triples. Empty list iff in general position."""
    out = []
    n = len(coeffs)
    # reduced integer lines are canonical, so parallel lines are coincident
    # exactly when their triples are equal
    parallel = [[a1 * b2 == a2 * b1 for a2, b2, _ in coeffs] for a1, b1, _ in coeffs]
    for i, j in itertools.combinations(range(n), 2):
        if parallel[i][j]:
            kind = "coincident" if coeffs[i] == coeffs[j] else "parallel"
            out.append((kind, (i, j)))
    for i, j in itertools.combinations(range(n), 2):
        if parallel[i][j]:
            continue
        x, y, w = intersect_lines_homog(coeffs[i], coeffs[j])
        for k in range(j + 1, n):
            a, b, c = coeffs[k]
            if a * x + b * y == c * w and not (parallel[i][k] or parallel[j][k]):
                out.append(("concurrent", (i, j, k)))
    return out
