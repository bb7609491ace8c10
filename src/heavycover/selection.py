"""Simplicial depth: exhaustive and angular-sweep counting, the selection
bound and the one class that derives every fraction and bound verdict from a
stored count (``_Bounded``), and global max-depth search over the segment
arrangement.

The depth at one query point is one angular count (``_angular_counts``), the
planar algorithm of Rousseeuw & Ruts (AS 307): the directions from q to the
data points are sorted by one correctly rounded float each, -x / y within
the upper or the lower half-plane, and each direction's triples inside an
open half-plane are counted by bisection. ``_closed_depth_homog``,
``closed_depth_count``, ``depth_planar_sweep`` and the dual module's
degenerate queries all take it. The float order is exact unless two
directions that are not parallel share a float, or a ratio overflows; only
then does that query count on the exact integer keys of ``_angle_keys``.

Closed containment is used throughout, which makes depth an upper
semicontinuous function of the query point; the lexicographically least
global maximizer is therefore a data point or a proper crossing of two
segments between data points. ``max_depth_point`` walks each segment across
its crossings in O(n^4 log n) integer steps at worst; it skips a segment
whose exact bound on every crossing's count is below the best count found
so far. The first bound is O(1) per segment: no point off every segment
lies in more than D(n) triangles, about n^3/24 (Boros & Furedi, Geom.
Dedicata 1984), and averaging over a small circle around a crossing of g + 1
segments, each the edge of n - 2 triangles that hold half the circle, gives
that crossing at most D(n) + (g + 1)(n - 2)/2 (``_cell_bound``); with
g <= min(L, R) for the L and R points on either side, the search reads that
test off the ``left`` table before it calls the walk (``_cell_reach``). The n
data-point counts and every segment's start count are read off the walk's
orientation table, so the walk makes no angular sort. The table holds one
determinant per triple, C(n, 3) in all, on each point's own homogeneous
coordinates with no common denominator, so its entries stay as long as a
few coordinates even when the points' denominators all differ; a zero among
them lowers a pair's count of points on either side, which fails the
general-position gate. One function, ``_segment_walk``, steps a segment's
crossings: they are sorted by one correctly rounded float each, and only a
segment where two share a float is sorted by ``_angle_keys`` instead.
``candidate_vertices`` keeps the line-arrangement superset as a test oracle.

Every max search in the package (this walk, ``continuity``'s argmax and
heavy-region witness, and ``dual``'s vertex and cell scans) is a count cap c,
scoring a count as min(count, c), or as itself for None, and keeps its best
by ``_better`` alone: higher score, then lexicographically least point.
``_scan`` runs searches over a stream of (count, key) pairs, ``_walk_scan``
over the walk, where every search prunes and ``continuity`` walks each sample
once for its two searches. Only the O(n^2) crossings a search may keep get
homogeneous keys; ``_segment_vertices`` still yields every crossing, as a
test oracle.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key

from .errors import (
    DegeneracyError,
    DimensionError,
    DomainError,
    InternalError,
)
from .exactgeom import (
    ContainmentVerdict,
    Point,
    _in_closed_hull,
    _planar_homog,
    _simplex_verdict,
    dehomog,
    general_position_report,
    homog,
    intersect_lines_homog,
    line_through_homog,
    reduce_homog,
)

# Small-n correction subtracted as SLACK_NUMERATOR/n from the raw bound in
# reports; the raw bound itself only holds asymptotically. The value 3 was
# calibrated against exhaustive max-depth runs at n <= 12 before the
# acceptance fixtures were frozen.
SLACK_NUMERATOR = 3


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient with strict domain checks."""
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"binom({n}, {k}) is outside the domain 0 <= k <= n")
    return math.comb(n, k)


def selection_bound(d: int) -> Fraction:
    """Guaranteed covered fraction for the d-dimensional selection theorem:
    Gromov's constant 2d/((d+1)!(d+1)), 2/9 in the plane."""
    if d < 1:
        raise DomainError("selection_bound needs d >= 1")
    return Fraction(2 * d, math.factorial(d + 1) * (d + 1))


@dataclass(frozen=True)
class LabeledPointSet:
    """Finite point set, optionally colored, with provenance for reports."""

    points: tuple
    colors: tuple | None = None
    provenance: str | None = None

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DomainError("point set must be nonempty")
        d = pts[0].dim
        for p in pts:
            if p.dim != d:
                raise DimensionError("all points in a set must share one dimension")
        if self.colors is not None:
            cols = tuple(self.colors)
            object.__setattr__(self, "colors", cols)
            if len(cols) != len(pts):
                raise DomainError("colors must label every point")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def color_classes(self) -> dict:
        """Mapping color -> tuple of point indices; classes partition the set."""
        if self.colors is None:
            raise DomainError("point set carries no colors")
        classes = {}
        for i, c in enumerate(self.colors):
            classes.setdefault(c, []).append(i)
        return {c: tuple(ix) for c, ix in sorted(classes.items(), key=lambda kv: str(kv[0]))}


@dataclass(frozen=True)
class _Bounded:
    """``count`` of ``total`` simplices of n points in R^dim, with its
    fraction, ``selection_bound(dim)``, the slack bound (less
    SLACK_NUMERATOR/n) and whether it meets each, all derived here alone."""

    count: int
    total: int
    n: int
    dim: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, self.total)

    @property
    def bound(self) -> Fraction:
        return selection_bound(self.dim)

    @property
    def slack_bound(self) -> Fraction:
        return self.bound - Fraction(SLACK_NUMERATOR, self.n)

    @property
    def meets_bound(self) -> bool:
        return self.fraction >= self.bound

    @property
    def meets_slack_bound(self) -> bool:
        return self.fraction >= self.slack_bound


@dataclass(frozen=True)
class DepthReport(_Bounded):
    """Exact depth count with the bound comparisons of ``_Bounded``.

    ``count`` uses closed containment; ``strict_count`` (when computed) counts
    only strict interior containment, so ``count - strict_count`` simplices
    touch the query point on their boundary.
    """

    strict_count: int | None = None
    witnesses: tuple = ()
    method: str = "naive"

    @property
    def boundary_count(self) -> int | None:
        if self.strict_count is None:
            return None
        return self.count - self.strict_count


def _count_hits(hits, witness_limit):
    """(count, strict count, witnesses) of the (index tuple, interior) pairs
    ``hits`` of the simplices that contain q; ``witnesses`` holds the first
    ``witness_limit`` of those index tuples."""
    count = 0
    strict = 0
    witnesses = []
    for idx, interior in hits:
        count += 1
        strict += interior
        if len(witnesses) < witness_limit:
            witnesses.append(idx)
    return count, strict, tuple(witnesses)


def _planar_hits(qh, pts_h, triples):
    """(triple, interior) for each closed triangle of ``triples``, index
    triples into the planar homogeneous points ``pts_h``, that contains q.

    One table per query: T[i][j] = det(q, p_i, p_j) = (q x p_i) . p_j, three
    multiplies an entry over the 2x2 minors q x p_i, computed for i < j only
    since T[j][i] = -T[i][j]. Kept as sign bits (1 for > 0, 2 for < 0),
    since only signs decide. A triangle (i, j, k), in any vertex order, has
    barycentric numerators b = (T[j][k], T[k][i], T[i][j]): it is OUTSIDE
    when one b is > 0 and another < 0, and INTERIOR when all three are
    nonzero and agree. By w_q * det(p_i, p_j, p_k) = b0*w_i + b1*w_j +
    b2*w_k with every w > 0, the triangle's own orientation is nonzero when
    the b agree and one is nonzero (q is then on its boundary), and zero when
    all b are zero: a flat triangle with q on its line, which keeps the exact
    ``_in_closed_hull`` test."""
    qx, qy, qw = qh
    n = len(pts_h)
    signs = [[0] * n for _ in pts_h]
    for i, (x, y, w) in enumerate(pts_h):
        a, b, c = qy * w - qw * y, qw * x - qx * w, qx * y - qy * x
        row = signs[i]
        for j in range(i + 1, n):
            xj, yj, wj = pts_h[j]
            t = a * xj + b * yj + c * wj
            if t > 0:
                row[j], signs[j][i] = 1, 2
            elif t < 0:
                row[j], signs[j][i] = 2, 1
    q = None
    for idx in triples:
        i, j, k = idx
        b0, b1, b2 = signs[j][k], signs[k][i], signs[i][j]
        seen = b0 | b1 | b2  # 3: both signs, 0: all zero
        if seen == 3:
            continue
        if seen == 0:
            if q is None:
                q = dehomog(qh)
            if not _in_closed_hull(q, [dehomog(pts_h[v]) for v in idx]):
                continue
        yield idx, bool(b0 and b1 and b2)


def _tally(qh, pts_h, index_tuples, witness_limit):
    """The exhaustive counters' one tally: (count, strict count, witnesses)
    of q = ``qh`` against the closed simplex of each index tuple into the
    homogeneous points ``pts_h``, every simplex enumerated. Planar triangles
    read their verdicts off one sign table per query (``_planar_hits``);
    other dimensions take ``_simplex_verdict`` per simplex."""
    if len(qh) == 3:
        hits = _planar_hits(qh, pts_h, index_tuples)
    else:
        verdicts = ((idx, _simplex_verdict(qh, [pts_h[i] for i in idx]))
                    for idx in index_tuples)
        hits = ((idx, v is ContainmentVerdict.INTERIOR) for idx, v in verdicts
                if v is not ContainmentVerdict.OUTSIDE)
    return _count_hits(hits, witness_limit)


def depth_naive(q: Point, pset: LabeledPointSet, witness_limit: int = 0) -> DepthReport:
    """Exhaustive closed simplicial depth in any dimension.

    Counts the (d+1)-subsets of the set whose closed simplex contains q,
    enumerating every one. In the plane each verdict comes from the signs of
    one table of det(q, p_i, p_j) per query (see ``_planar_hits``); a flat
    triangle through q goes to the exact hull test.
    """
    d = pset.dim
    if q.dim != d:
        raise DimensionError(f"query dimension {q.dim} != data dimension {d}")
    n = pset.n
    if n < d + 1:
        raise DomainError(f"depth query needs at least d+1 = {d + 1} points, got {n}")
    count, strict, witnesses = _tally(homog(q), [homog(p) for p in pset.points],
                                      itertools.combinations(range(n), d + 1),
                                      witness_limit)
    return DepthReport(count, binom(n, d + 1), n, d, strict, witnesses, "naive")


# ---------------------------------------------------------------------------
# Angular counting engine: float keys, exact integer keys where floats tie
# ---------------------------------------------------------------------------

def _icross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _angle_keys(dirs):
    """Exact integer angle keys of nonzero integer directions, and ``half``,
    the key distance of a half turn: the exact order of every float-keyed
    sort where two floats tie or one overflows (``_angular_counts``,
    ``_segment_walk``, ``dual._half_turn_order``, ``dual._line_order``), of
    ``transversal``'s critical directions, and the float keys' test oracle.

    With B = 1 + max |coordinate|, s = B^2 and r = B*s + 2, the key is 0 on
    the +x axis, r - floor(x*s/y) for y > 0, 2r on the -x axis and
    3r - floor(x*s/y) for y < 0, so keys grow with the angle in [0, 2pi).
    Distinct ratios x/y of such directions differ by more than 1/s, so equal
    directions share a key and a direction's opposite lies exactly ``half``
    = 2r away. For den > 0 the key of (-num, den) is r + ceil(num*s/den): it
    grows with num/den, is equal exactly for equal ratios, and backs the
    float num/den, that direction's -x/y. ``_segment_walk`` keys a / (a + b)
    as (-a, a + b), and ``dual._line_order`` (a*Y - b*X)/W as (b*X - a*Y, W)."""
    b = 1
    for x, y in dirs:
        x, y = abs(x), abs(y)
        if x >= b:
            b = x + 1
        if y >= b:
            b = y + 1
    s = b * b
    r = b * s + 2
    r3 = 3 * r
    keys = []
    for x, y in dirs:
        if y > 0:
            keys.append(r - x * s // y)
        elif y < 0:
            keys.append(r3 - x * s // y)
        else:
            keys.append(0 if x > 0 else 2 * r)
    return keys, 2 * r


def _exact_halves(dirs):
    """The ``_angle_keys`` of the directions split as ``_angular_counts``
    splits its float keys: (upper, lower), the lower keys less ``half``, so
    that a direction and its opposite share one key."""
    keys, half = _angle_keys(dirs)
    return [k for k in keys if k < half], [k - half for k in keys if k >= half]


def _avoiding(upper, lower):
    """Number of 3-subsets of the keyed directions fitting strictly inside an
    open half-plane through the origin, from their keys split by half (see
    ``_angular_counts``); sorts both lists in place.

    Each such triple is charged to the member from which the other two lie
    within the next half turn counterclockwise, ties among equal directions
    going to the first in sorted order. That member, with key f, is charged
    C(u, 2), where u counts the keys after it in its own half and the keys
    below f in the other half: those are the directions in the open half
    turn from its opposite, which shares f."""
    upper.sort()
    lower.sort()
    total = 0
    for half, other in ((upper, lower), (lower, upper)):
        later = len(half)
        for f in half:
            later -= 1
            u = later + bisect_left(other, f)
            total += u * (u - 1)
    return total // 2


def _opposite(upper, lower):
    """Number of 3-subsets of the keyed directions holding two exactly
    opposite directions: those lie in a closed half-plane but in no open one.

    Opposite directions share one key in opposite halves. Two opposite pairs
    in one triple put all three on one line, so each line through the origin
    with a directions on one ray and b on the other adds, once per triple,
    a·b·(m − a − b) + a·C(b, 2) + b·C(a, 2) over the m directions."""
    m = len(upper) + len(lower)
    below = Counter(lower)
    total = 0
    for f, a in Counter(upper).items():
        b = below.get(f, 0)
        if b:
            total += a * b * (m - a - b) + a * math.comb(b, 2) + b * math.comb(a, 2)
    return total


def _angular_counts(qh, pts_h):
    """(m, avoiding, opposite) over the m directions from q = ``qh`` to the
    points of ``pts_h`` other than q: the triples inside an open half-plane
    (``_avoiding``) and those holding two opposite directions
    (``_opposite``).

    A direction (x, y) lies in the upper half (y > 0, or y = 0 and x > 0) or
    the lower one, and its key is the float -x / y, or -inf when y = 0. True
    division of two ints is correctly rounded, so the keys are monotone in the
    angle within each half, and a direction and its opposite get the same
    float in opposite halves. The float order is exact when no two keys are
    equal, and still exact when only parallel directions share a key (q on
    a line through two points); then equal keys are equal or opposite
    directions. Where floats tie, one more pass builds the integer directions
    and checks each against the first direction on its float. When two that
    are not parallel share a float, or a ratio overflows a float, the exact
    integer keys of ``_angle_keys`` count instead."""
    qx, qy, qw = qh
    upper, lower = [], []
    try:
        for px, py, pw in pts_h:
            x = px * qw - qx * pw
            y = py * qw - qy * pw
            if y > 0:
                upper.append(-x / y)
            elif y < 0:
                lower.append(-x / y)
            elif x > 0:
                upper.append(-math.inf)
            elif x:
                lower.append(-math.inf)
    except OverflowError:
        upper = None
    else:
        m = len(upper) + len(lower)
        if len(set(upper).union(lower)) == m:
            return m, _avoiding(upper, lower), 0
    dirs = []
    first = {}
    exact = upper is None
    for px, py, pw in pts_h:
        x = px * qw - qx * pw
        y = py * qw - qy * pw
        if x or y:
            dirs.append((x, y))
            if not exact:
                u, v = first.setdefault(-x / y if y else -math.inf, (x, y))
                exact = x * v != y * u
    if exact:
        upper, lower = _exact_halves(dirs)
    return len(dirs), _avoiding(upper, lower), _opposite(upper, lower)


def _strict_surrounding(dirs):
    """Triples of the nonzero integer directions ``dirs`` that hold the
    origin strictly inside their triangle, in no closed half-plane: C(m, 3)
    minus the avoiding and the opposite triples, each direction (x, y) taken
    as the point (x, y) seen from the origin."""
    m, avoiding, opposite = _angular_counts((0, 0, 1), [(x, y, 1) for x, y in dirs])
    return math.comb(m, 3) - avoiding - opposite


def _closed_depth_homog(qh, pts_h):
    """Closed simplicial depth of q by one angular count (``_angular_counts``)
    on float keys, or on exact integer keys where the floats tie; valid at ANY
    query point, including data points and points collinear with data pairs."""
    return math.comb(len(pts_h), 3) - _angular_counts(qh, pts_h)[1]


def closed_depth_count(q: Point, points) -> int:
    """Closed planar simplicial depth by rotational counting, O(n log n).

    Equals depth_naive's count for every planar input, with no general-position
    assumption about q. One pass over the points takes their homogeneous
    coordinates and checks that each is planar.
    """
    if q.dim != 2:
        raise DimensionError("closed_depth_count is planar only")
    pts_h = []
    for p in points:
        h = homog(p)
        if len(h) != 3:
            raise DimensionError("closed_depth_count is planar only")
        pts_h.append(h)
    if len(pts_h) < 3:
        raise DomainError("need at least 3 points")
    return _closed_depth_homog(_planar_homog(*q.coords), pts_h)


def depth_planar_sweep(q: Point, pset: LabeledPointSet) -> DepthReport:
    """Planar closed and strict depth at any query point by one angular count,
    O(n log n); equals ``depth_naive`` on (count, strict_count).

    Over the directions from q to the m data points other than q, let A count
    the triples inside an open half-plane and O those holding two exactly
    opposite directions. A triangle holds q in its closed hull unless its
    vertices' directions avoid q in an open half-plane, and a triangle with a
    vertex at q always holds it, so count = C(n, 3) − A. It holds q strictly
    inside only when its three vertices differ from q and their directions lie
    in no closed half-plane, so strict_count = C(m, 3) − A − O. One
    ``_angular_counts`` gives m, A and O. No witnesses are listed.
    """
    if q.dim != pset.dim:
        raise DimensionError(f"query dimension {q.dim} != data dimension {pset.dim}")
    if pset.dim != 2:
        raise DimensionError("depth_planar_sweep is planar only")
    n = pset.n
    if n < 3:
        raise DomainError("need at least 3 points")
    m, avoiding, opposite = _angular_counts(homog(q), [homog(p) for p in pset.points])
    count = math.comb(n, 3) - avoiding
    strict = math.comb(m, 3) - avoiding - opposite
    return DepthReport(count, binom(n, 3), n, 2, strict, method="sweep")


def colorful_depth(q: Point, pset: LabeledPointSet, witness_limit: int = 0) -> DepthReport:
    """Depth over rainbow simplices: one vertex from each of d+1 color classes."""
    d = pset.dim
    if q.dim != d:
        raise DimensionError(f"query dimension {q.dim} != data dimension {d}")
    classes = pset.color_classes()
    if len(classes) != d + 1:
        raise DomainError(f"colorful depth needs exactly d+1 = {d + 1} color classes, "
                          f"got {len(classes)}")
    class_indices = list(classes.values())
    total = 1
    for ix in class_indices:
        total *= len(ix)
    count, strict, witnesses = _tally(homog(q), [homog(p) for p in pset.points],
                                      itertools.product(*class_indices), witness_limit)
    return DepthReport(count, total, pset.n, d, strict, witnesses, "colorful")


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated max-depth candidates: data points and pair-line crossings."""

    points: tuple
    tags: tuple  # "data" | "intersection", aligned with points


def _candidate_homogs(pts_h):
    """Reduced homogeneous candidates: data points plus all pairwise
    intersections of distinct lines through data-point pairs."""
    seen = {}
    for h in pts_h:
        key = reduce_homog(h)
        if key not in seen:
            seen[key] = "data"
    lines = {}
    for i, j in itertools.combinations(range(len(pts_h)), 2):
        if reduce_homog(pts_h[i]) == reduce_homog(pts_h[j]):
            continue
        lines[line_through_homog(pts_h[i], pts_h[j])] = None
    line_list = list(lines)
    for a, b in itertools.combinations(line_list, 2):
        x, y, w = intersect_lines_homog(a, b)
        if w == 0:
            continue
        key = reduce_homog((x, y, w))
        if key not in seen:
            seen[key] = "intersection"
    return list(seen.items())


def candidate_vertices(pset: LabeledPointSet) -> CandidateSet:
    """Data points and every vertex of the arrangement of lines through data
    pairs: a superset of the segment crossings ``max_depth_point`` walks, kept
    as the independent search space that tests use as an oracle."""
    if pset.dim != 2:
        raise DimensionError("candidate_vertices is planar only")
    if pset.n < 2:
        raise DomainError("need at least 2 points")
    items = _candidate_homogs([homog(p) for p in pset.points])
    return CandidateSet(points=tuple(dehomog(k) for k, _ in items),
                        tags=tuple(tag for _, tag in items))


def _homog_lex_cmp(a, b):
    """Lexicographic (x, y) order on homogeneous points, exact."""
    ax, ay, aw = a
    bx, by, bw = b
    left, right = ax * bw, bx * aw
    if left != right:
        return -1 if left < right else 1
    left, right = ay * bw, by * aw
    if left != right:
        return -1 if left < right else 1
    return 0


def _better(count_a, key_a, count_b, key_b):
    """True iff (count_a, key_a) beats (count_b, key_b): higher count (or any
    other ordered score) first, then lexicographically smaller point."""
    if count_a != count_b:
        return count_a > count_b
    return _homog_lex_cmp(key_a, key_b) < 0


def _walk_tables(pts):
    """The tables of the segment walk over the points' own homogeneous
    coordinates ``pts`` (weights positive, no common denominator): the points
    themselves, the orientation table ``orient[a][b][c]`` (the 3x3 homogeneous
    determinant of p_a, p_b, p_c, positive iff p_c is left of p_a -> p_b),
    ``left[a][b]``, the number of points strictly left of p_a -> p_b, and the
    closed depth of each data point.

    A determinant only changes sign under a permutation of its points, so it
    is computed once per triple a < b < c, C(n, 3) in all, and written with
    its sign into the six slots of the triple (zero where two indices meet).
    Each is xa*(yb*wc - wb*yc) - ya*(xb*wc - wb*xc) + wa*(xb*yc - yb*xc),
    three multiplies over the three 2x2 minors of the pair b < c, kept as
    one triple per pair, so an entry is about as long as three coordinates
    together.

    In general position a triangle without vertex i misses p_i iff, for
    exactly one of its vertices k, the other two lie left of p_i -> p_k, so
    depth(p_i) = C(n-1, 2) + C(n-1, 3) - sum over k of C(left[i][k], 2): the
    ``depth_planar_sweep`` identity read off the table, with no sort."""
    n = len(pts)
    minors = [[(yb * wc - wb * yc, xb * wc - wb * xc, xb * yc - yb * xc)
               for xc, yc, wc in pts[b + 1:]] for b, (xb, yb, wb) in enumerate(pts)]
    orient = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, (xa, ya, wa) in enumerate(pts):
        oa = orient[a]
        for b in range(a + 1, n):
            oab, ob = oa[b], orient[b]
            oba = ob[a]
            for c, (myw, mxw, mxy) in enumerate(minors[b], b + 1):
                d = xa * myw - ya * mxw + wa * mxy
                oc = orient[c]
                oab[c] = ob[c][a] = oc[a][b] = d
                oba[c] = oa[c][b] = oc[b][a] = -d
    # orient[b][a] is orient[a][b] negated, so the points left of p_b -> p_a
    # are those right of p_a -> p_b, n less the zeros and the left ones: one
    # count per pair a < b
    left = [[0] * n for _ in range(n)]
    for a, rows in enumerate(orient):
        for b in range(a + 1, n):
            row = rows[b]
            k = len([v for v in row if v > 0])
            left[a][b] = k
            left[b][a] = n - row.count(0) - k
    depth = [math.comb(n - 1, 2) + math.comb(n - 1, 3)
             - sum(u * (u - 1) // 2 for u in row) for row in left]
    return pts, orient, left, depth


def _cell_bound(n):
    """D(n), the most triangles of n points in general position that a point
    on no segment can lie in: C(n, 3) - (n - r) * C(h, 2) - r * C(h + 1, 2)
    with (h, r) = divmod(C(n, 2), n), about n^3 / 24 (Boros & Furedi, Geom.
    Dedicata 1984).

    From such a point q, a triangle misses q iff, for exactly one of its
    vertices k, the other two lie in the open half turn counterclockwise of
    the direction to p_k; with u_k such points for each k, q lies in
    C(n, 3) - sum C(u_k, 2) triangles. Every pair of points is counted in
    exactly one u_k, so sum u_k = C(n, 2), and by convexity sum C(u_k, 2) is
    least when the u_k differ by at most one: r of them h + 1, the rest h.
    A point on the line of two points but off their segment lies in the same
    triangles as the points near it off every such line."""
    h, r = divmod(math.comb(n, 2), n)
    return math.comb(n, 3) - (n - r) * math.comb(h, 2) - r * math.comb(h + 1, 2)


def _cell_reach(n, floor):
    """The least min(L, R), for a segment with L and R points on either
    side, at which the cell bound lets a crossing on it reach ``floor``. A
    crossing of g + 1 segments, g <= min(L, R), counts at most
    D(n) + (g + 1)(n - 2)/2 (``_cell_bound``, ``_segment_walk``), so a
    segment with min(L, R) below ceil(2(floor - D(n)) / (n - 2)) - 1 has no
    crossing at ``floor``. The one form of the cell test, shared by
    ``_segment_walk`` and the rows of ``_walk_scan``. Needs n >= 3."""
    return -(2 * (_cell_bound(n) - floor) // (n - 2)) - 1


def _segment_walk(i, j, pts, orient, left, depth, floor=None):
    """The walk of the open segment p_i p_j: (start, counts, crossings), the
    closed depth just past p_i, the closed depth at each proper crossing in
    order from p_i, and each crossing's (a, b), aligned with ``counts``; no
    keys are built. Needs general position. Given a ``floor``, it is None
    when an exact bound puts every crossing's count below ``floor``.

    Near p_i, a triangle without vertex i contains the point iff it contains
    p_i, and one of the C(n-1, 2) triangles i k m iff the direction to p_j
    lies in the closed cone at p_i spanned by p_k and p_m: always when j is
    k or m (n - 2 triangles), and otherwise iff p_k and p_m lie on opposite
    sides of p_i -> p_j with orient(p_i, p_k, p_m) < 0 for p_k the left one.
    Those are the pairs with a > 0 in the crossing loop, so the start count
    costs no sort.

    Depth on the open segment changes only where it crosses a segment p_k p_m
    with k, m outside {i, j}. Crossing p_k p_m adds the triangles k m r with r
    strictly on p_j's side of line km (B, ``far``) and, past the crossing,
    drops those with r on p_i's side (A); at the crossing itself all of them
    contain the point. Concurrent crossings are one vertex, and their terms
    add up.

    With a = -orient[i][k][m] and b = orient[j][k][m], the homogeneous
    determinants of p_i and p_j against line km, the crossing is
    b * (x_i, y_i, w_i) + a * (x_j, y_j, w_j) (``_crossing_key``), at parameter
    a*w_j / (a*w_j + b*w_i) from p_i. That parameter and a / (a + b) both grow
    with a / b, so a / (a + b) orders the crossings of one segment; the
    weights drop out. Each crossing is filed under the correctly rounded
    float a / (a + b), the first on a float in ``firsts`` and any later one in
    ``shared``. With ``shared`` empty the floats are distinct and their order
    is exact, since correct rounding is monotone. Otherwise every crossing is
    sorted stably by the ``_angle_keys`` of (-a, a + b), and adjacent ones
    with a * b' == a' * b merge into one vertex.

    The bounds behind ``floor`` need no order of the crossings; each is
    Boros & Furedi's count of the triangles that cover a point (Geom.
    Dedicata 1984). A vertex where g crossings meet lies on g + 1 segments.
    Each of their (g + 1) * (n - 2) triangles with one of them as an edge
    holds the vertex on that edge, at none of its corners, and so holds half
    of a small circle around it; every other triangle holds all of it or
    none. The circle's points off the segments lie in at most D(n)
    triangles each (``_cell_bound``), so the vertex counts at most
    D(n) + (g + 1) * (n - 2) / 2, the average over the circle plus the
    other half of each edge's triangles. With L and R points on either side
    of the segment, g <= min(L, R): two segments through one point of
    p_i p_j share no endpoint, or three points would be collinear. The cell
    test reads L = left[i][j] alone and skips, before anything else, when
    2 * (D(n) - floor) + (min(L, R) + 1) * (n - 2) < 0, that is when
    min(L, R) is below ``_cell_reach(n, floor)``; ``_walk_scan`` makes the
    same test on the row before it calls the walk.

    Where it cannot, let E be the start count plus every positive step
    2 * far - (n - 2); E bounds each open edge's count (``_edge_bound``),
    and the same half-turn charge gives a vertex where g crossings meet
    (before + after) / 2 + g * (n - 2) / 2 <= E + g * (n - 2) / 2. Tier 1
    reads E by integer compares alone and skips when
    2E + min(L, R) * (n - 2) < 2 * floor. Tier 2 follows the float pass:
    with ``shared`` empty no two crossings meet, and it skips when
    2E + (n - 2) < 2 * floor.
    """
    n = len(pts)
    if floor is not None:
        on_left = left[i][j]
        if min(on_left, n - 2 - on_left) < _cell_reach(n, floor):
            return None
    oi, oj = orient[i], orient[j]
    side = oi[j]
    lefts = [k for k in range(n) if side[k] > 0]
    rights = [k for k in range(n) if side[k] < 0]
    base = depth[i] - math.comb(n - 1, 2) + (n - 2)
    if floor is not None:
        slack = 2 * (_edge_bound(oi, oj, lefts, rights, left, base) - floor)
        if slack + min(len(lefts), len(rights)) * (n - 2) < 0:
            return None
    cone = 0
    firsts = {}
    shared = []
    for k in lefts:
        oik, ojk, lk = oi[k], oj[k], left[k]
        for m in rights:
            # with p_k left of p_i -> p_j and p_m right, the segments cross iff
            # p_i is right of p_k -> p_m and p_j left; then B is the left side
            a, b = -oik[m], ojk[m]
            if a <= 0:
                continue
            cone += 1
            if b <= 0:
                continue
            t = a / (a + b)
            if t in firsts:
                shared.append((a, b, lk[m]))
            else:
                firsts[t] = (a, b, lk[m])
    if shared:
        steps = [*firsts.values(), *shared]
        keys, _ = _angle_keys([(-a, a + b) for a, b, _ in steps])
        steps = [steps[t] for t in sorted(range(len(steps)), key=keys.__getitem__)]
    elif floor is not None and slack + n - 2 < 0:
        return None
    else:
        steps = [firsts[t] for t in sorted(firsts)]
    start = before = base + cone
    counts = []
    crossings = []
    for a, b, far in steps:
        if shared and crossings and a * crossings[-1][1] == crossings[-1][0] * b:
            counts[-1] += far
        else:
            counts.append(before + far)
            crossings.append((a, b))
        before += 2 * far - (n - 2)
    return start, counts, crossings


def _edge_bound(oi, oj, lefts, rights, left, edge):
    """E of ``_segment_walk``'s pruning, for the segment p_i p_j with
    orientation rows ``oi`` and ``oj`` and the points ``lefts`` and ``rights``
    on either side: ``edge``, the start count less its cone term, plus one
    for each pair of the cone and every positive step 2 * far - (n - 2) of a
    crossing. One pass of integer compares and table lookups: no float, no
    dict and no sort."""
    m2 = len(left) - 2
    for k in lefts:
        oik, ojk, lk = oi[k], oj[k], left[k]
        for m in rights:
            if oik[m] < 0:
                edge += 1
                if ojk[m] > 0:
                    step = 2 * lk[m] - m2
                    if step > 0:
                        edge += step
    return edge


def _crossing_key(pi, pj, a, b):
    """Homogeneous coordinates of the crossing b * p_i + a * p_j."""
    (xi, yi, wi), (xj, yj, wj) = pi, pj
    return b * xi + a * xj, b * yi + a * yj, b * wi + a * wj


def _segment_vertices(i, j, *tables):
    """Every proper crossing on the open segment p_i p_j, in order from p_i,
    as (count, key) with key its homogeneous coordinates (see
    ``_segment_walk``). The walk yields only each segment's best few of
    these; the full stream is the all-vertex oracle for tests."""
    _, counts, crossings = _segment_walk(i, j, *tables)
    pi, pj = tables[0][i], tables[0][j]
    for count, (a, b) in zip(counts, crossings):
        yield count, _crossing_key(pi, pj, a, b)


def _segment_best(counts, cap):
    """(score, index) of the first vertex of top score min(count, ``cap``)
    (the count itself when ``cap`` is None) on a segment walked from its
    lexicographically smaller end: the one ``_scan``'s tie-break keeps."""
    top = max(counts)
    if cap is not None and cap < top:
        top = cap
    return top, next(v for v, count in enumerate(counts) if count >= top)


def _scan(pairs, caps=(None,)):
    """The max-search engine: one pass over the (count, key) pairs ``pairs``,
    key a point's homogeneous coordinates, giving for each count cap of
    ``caps`` the best (score, key) pair, highest score first, then the
    lexicographically least point; None when there are no pairs. A cap c
    scores a count as min(count, c), None as the count itself."""
    bests = [None] * len(caps)
    for count, key in pairs:
        for s, cap in enumerate(caps):
            score = count if cap is None or count < cap else cap
            best = bests[s]
            if best is None or _better(score, key, *best):
                bests[s] = (score, key)
    return bests


def _general_position(left):
    """True iff the walk's ``left`` table shows no collinear triple and no
    coincident pair: n >= 3 and left[a][b] + left[b][a] == n - 2 for each of
    the C(n, 2) pairs a < b. The two count the points strictly on either
    side of p_a -> p_b, so a third point on that line lowers their sum, and
    a coincident pair, every determinant through which is zero, gives 0."""
    n = len(left)
    return n >= 3 and all(left[a][b] + left[b][a] == n - 2
                          for a, b in itertools.combinations(range(n), 2))


def _open_rows(pts, best, cap):
    """How many data points, in lexicographic order, start segments that can
    still change a search's ``best`` for ``cap``: all while it is below its
    cap, else those before its best point, the only ones a tie can take."""
    score, key = best
    if cap is None or score < cap:
        return len(pts)
    return sum(_homog_lex_cmp(p, key) < 0 for p in pts)


def _walk_scan(pset: LabeledPointSet, caps):
    """One pass of the segment walk over a planar set: the walk tables and,
    for each count cap of ``caps``, the best (score, key) of ``_scan`` over
    every data point and every proper crossing of two segments. The caller
    checks the dimension.

    The general-position gate reads the ``left`` table's C(n, 2) pairs;
    only when a pair has a point on its line, or n < 3, does
    ``general_position_report`` run, to locate the violations of the
    DegeneracyError.

    After the data points, each segment is walked from its lexicographically
    smaller end p_i, in lexicographic order of p_i, when its exact bound
    reaches the floor, the lowest best among the searches still open
    (``_segment_walk``). The O(1) cell test runs on the row first: the
    segment p_i p_j is handed to the walk only when left[i][j] and the
    n - 2 - left[i][j] points on its other side both reach
    ``_cell_reach(n, floor)``, recomputed whenever the floor rises. A search
    at its cap closes once p_i is not before its best, since its crossings
    all lie after p_i."""
    tables = _walk_tables([homog(p) for p in pset.points])
    if not _general_position(tables[2]):
        violations = general_position_report(pset.points)
        if violations:
            raise DegeneracyError("point set is not in general position", violations)
    pts, depth = tables[0], tables[-1]
    order = sorted(range(len(pts)), key=cmp_to_key(lambda k, m: _homog_lex_cmp(pts[k], pts[m])))
    bests = _scan(zip(depth, pts), caps)
    n, left = len(pts), tables[2]
    stop = 0
    for a, i in enumerate(order):
        if a >= stop:
            ends = [_open_rows(pts, best, cap) for best, cap in zip(bests, caps)]
            live = [s for s, end in enumerate(ends) if a < end]
            if not live:
                break
            stop = min(ends[s] for s in live)
            floor = min(bests[s][0] for s in live)
            reach = _cell_reach(n, floor)
        pi, row = pts[i], left[i]
        for j in order[a + 1:]:
            # _segment_walk's cell test, read off the row before the call
            if not reach <= row[j] <= n - 2 - reach:
                continue
            walk = _segment_walk(i, j, *tables, floor)
            if walk is None or not walk[1]:
                continue
            _, counts, crossings = walk
            for s in live:
                score, v = _segment_best(counts, caps[s])
                if score >= bests[s][0]:
                    key = _crossing_key(pi, pts[j], *crossings[v])
                    if _better(score, key, *bests[s]):
                        bests[s] = (score, key)
                        stop = a + 1
            low = min(bests[s][0] for s in live)
            if low != floor:
                floor, reach = low, _cell_reach(n, low)
    return tables, bests


def _checked_max(pset: LabeledPointSet, best, witness_limit):
    """The walk's best (count, key) as a point with its exhaustive
    ``DepthReport``; InternalError when the two counts differ."""
    best_count, key = best
    q = dehomog(key)
    report = depth_naive(q, pset, witness_limit=witness_limit)
    if report.count != best_count:
        raise InternalError(
            f"segment walk count {best_count} != exhaustive count {report.count}")
    return q, replace(report, method="candidate_scan")


def max_depth_point(pset: LabeledPointSet, witness_limit: int = 3,
                    threads: int = 1):
    """Global planar max of closed simplicial depth.

    Walks the segment arrangement: the lexicographically least maximizer is a
    data point or a proper crossing of two segments p_i p_j, p_k p_l (upper
    semicontinuity). The n data-point counts and each segment's count before
    its first crossing come from the orientation table, C(n, 3) determinants;
    the rest is integer steps across the crossings, sorted along each segment
    by the float a / (a + b), or exactly where two crossings share one
    (see ``_segment_walk``), O(n^4 log n) at worst. A segment whose exact
    bound on every crossing's count is below the running best, which starts
    at the best data point's depth, is skipped; on box and near-convex sets
    that is nearly every segment (see ``_walk_scan``). The first test is
    O(1): a crossing of g + 1 segments, g <= min(L, R) for the L and R points
    on either side, counts at most D(n) + (g + 1)(n - 2)/2, where D(n), about
    n^3/24, is Boros & Furedi's most triangles over a point on no segment
    (Geom. Dedicata 1984), since averaging over a small circle around the
    crossing halves each of its (g + 1)(n - 2) edge triangles
    (``_cell_bound``). Only then come one integer pass and the float pass.
    Ties break toward the lexicographically smallest point. The winner's count
    is re-derived by exhaustive enumeration as an internal consistency check.
    ``threads`` is ignored; it stays only because the benchmark's workloads
    pass it.
    """
    if pset.dim != 2:
        raise DimensionError("max_depth_point is planar only")
    if pset.n < 3:
        raise DomainError("need at least 3 points")
    _, [best] = _walk_scan(pset, (None,))
    return _checked_max(pset, best, witness_limit)
