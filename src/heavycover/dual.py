"""Dual depth in the plane: triples of lines surrounding a query point.

Three pairwise nonparallel lines surround a point when it lies in the closed
bounded cell of their arrangement (the triangle of their pairwise
intersections). The count over all 3-subsets of a line family is the dual
depth. Projecting the query onto each line turns it into a simplicial-depth
question, and the direction from q to its foot on line k, a·x + b·y = c, is
the line's normal oriented toward the line, sign(c·w − a·x − b·y)·(a, b). So
at a point off every line, with no two lines parallel, the dual depth is
C(n, 3) minus the triples of oriented normals inside an open half-plane.

The normals are fixed per family and a query only picks the sign of each, so
the family keeps one angular order of its normals over a half turn
(``LineFamily.order``), and each count is one O(n) integer pass over q's
sides in that order (``_surrounding``), with no angle keys or sort per query.

``dual_depth_naive`` enumerates every triple and is the oracle: it reads each
verdict off q's side of every line and each line's side at every arrangement
vertex. ``dual_depth_fast`` counts through ``_surrounding`` off the lines of a
family with no parallel pair. Where q is on a line or two lines are parallel,
it counts with the primal engine, on the oriented normals and both signs of
each line through q (``selection._strict_surrounding``).

The max searches count by one walk along each line (``_line_walk``), the dual
twin of the primal segment walk: the closed count at every vertex and the
strict count of every cell in O(n^2 log n) per family, on integer tables
(``_dual_tables``) of the C(n, 2) vertices, each line's vertices sorted once
on floats or ``_angle_keys`` (a sort that is also the general-position gate)
and each line's place and sign in the half-turn order, which give every turn
sign. Each search checks its winner by an angular count that reads neither the
half-turn order nor the walk (``selection._strict_surrounding``, O(n log n)),
so no search does O(n^3) work; ``dual_depth_naive`` stays the exhaustive
oracle of the tests, the battery and the CLI. ``extremal_report`` shares one
walk between its strict and closed searches.

Exposure profiles read the same order: the arc counts around a point are one
O(n) pass (``_arc_profile``), with no per-query sort. ``ExposureProfile``
and ``ExtremalReport`` store counts and derive their totals and bounds.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

from .errors import (
    DegeneracyError,
    DimensionError,
    DomainError,
    InternalError,
)
from .exactgeom import (
    Point,
    _line_from_coeffs,
    _line_violations,
    _reduce_line,
    _simplex_verdict,
    dehomog,
    homog,
    intersect_lines_homog,
    line_coeffs_int,
    project_onto_hyperplane,
    reduce_homog,
    scalar,
)
from .selection import (
    _angle_keys,
    _count_hits,
    _icross,
    _scan,
    _strict_surrounding,
    binom,
    DepthReport,
)

DUAL_BOUND = Fraction(2, 9)


@dataclass(frozen=True)
class LineFamily:
    """Planar line family, pairwise distinct in canonical form.

    ``coeffs`` holds each line as reduced integers (a, b, c) with
    a·x + b·y = c, index-aligned with ``lines`` and derived once here: every
    count in this module reads them. ``normals`` holds their reduced normals
    (a, b), and ``parallel_pair`` is True iff two of the lines are parallel.
    ``order`` is the half-turn angular order of the normals every fast count
    reads (``_half_turn_order``), None when ``parallel_pair`` is set.
    """

    lines: tuple
    provenance: str | None = None
    coeffs: tuple = field(init=False, repr=False, compare=False)
    normals: tuple = field(init=False, repr=False, compare=False)
    parallel_pair: bool = field(init=False, repr=False, compare=False)
    order: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ls = tuple(self.lines)
        object.__setattr__(self, "lines", ls)
        if not ls:
            raise DomainError("line family must be nonempty")
        for h in ls:
            if h.dim != 2:
                raise DimensionError("line families are planar")
        coeffs = tuple(line_coeffs_int(h) for h in ls)
        # reduced integer lines are canonical: equal triples, equal lines
        if len(set(coeffs)) != len(coeffs):
            raise DomainError("line family has coincident members")
        object.__setattr__(self, "coeffs", coeffs)
        normals = tuple(_normals(self.coeffs))
        object.__setattr__(self, "normals", normals)
        parallel_pair = len(set(normals)) < len(normals)
        object.__setattr__(self, "parallel_pair", parallel_pair)
        object.__setattr__(self, "order",
                           None if parallel_pair else _half_turn_order(normals))

    @property
    def n(self) -> int:
        return len(self.lines)


def surround_direct(q: Point, lines) -> bool:
    """True iff the three lines are pairwise nonparallel and q lies in the
    closed triangle of their pairwise intersections (the bounded cell)."""
    lines = list(lines)
    if len(lines) != 3:
        raise DomainError("surround tests take exactly three lines")
    if q.dim != 2 or any(h.dim != 2 for h in lines):
        raise DimensionError("surround_direct is planar only")
    cs = [line_coeffs_int(h) for h in lines]
    verts = []
    for a, b in itertools.combinations(range(3), 2):
        x, y, w = intersect_lines_homog(cs[a], cs[b])
        if w == 0:
            return False
        verts.append((x, y, w))
    return _simplex_verdict(homog(q), verts).in_closed


def surround_projection(q: Point, lines) -> bool:
    """Surround test via projections: q is surrounded iff it lies in the closed
    triangle of its orthogonal projections onto the three lines.

    Requires q off all three lines and no parallel pair (the equivalence with
    surround_direct is a general-position statement)."""
    lines = list(lines)
    if len(lines) != 3:
        raise DomainError("surround tests take exactly three lines")
    if q.dim != 2 or any(h.dim != 2 for h in lines):
        raise DimensionError("surround_projection is planar only")
    cs = [line_coeffs_int(h) for h in lines]
    for (a1, b1, _), (a2, b2, _) in itertools.combinations(cs, 2):
        if a1 * b2 == a2 * b1:
            raise DegeneracyError("parallel pair: projection equivalence needs "
                                  "pairwise nonparallel lines")
    # the foot of q = (x, y, w) on a·x + b·y = c is q + s·(a, b)/(w·N) with
    # N = a² + b² and s = c·w − a·x − b·y; every weight w·N is positive, so
    # the feet go to the verdict unreduced
    x, y, w = homog(q)
    feet = []
    for a, b, c in cs:
        s = c * w - a * x - b * y
        if s == 0:
            raise DegeneracyError("query point lies on a line")
        n2 = a * a + b * b
        feet.append((x * n2 + s * a, y * n2 + s * b, w * n2))
    return _simplex_verdict((x, y, w), feet).in_closed


def _surrounded_hits(q_side, vertices, coeffs):
    """(triple, interior) for each 3-subset of the integer lines ``coeffs``
    with no parallel pair whose closed triangle contains q, in combination
    order, from q's side of every line ``q_side`` and the vertex table
    ``vertices`` (``_vertex_table``): the module's only O(n^3) loop.

    The closed triangle of lines i, j, k is the intersection of the closed
    half-planes of line i holding the opposite corner v_jk, and so on. So a
    triple is out at its first line with s_i·f_i(v_jk) < 0, f = c·w − a·x − b·y
    at v = (x, y, w), each f computed only when reached; otherwise q is
    inside, strictly iff it is on none of the lines. All three products are
    zero only on a concurrent triple (lines that all pass through q meet
    there): its triangle is the common point, which holds q only when q is on
    all three lines. A parallel pair has no row in the table, so its triples
    are skipped."""
    n = len(coeffs)
    corner = [[None] * n for _ in range(n)]
    for j, k, v in vertices:
        corner[j][k] = v
    # each line times q's side of it: a negative f at a corner is a miss
    facing = [(s * a, s * b, s * c) for s, (a, b, c) in zip(q_side, coeffs)]
    for idx in itertools.combinations(range(n), 3):
        i, j, k = idx
        ij, ik, jk = corner[i][j], corner[i][k], corner[j][k]
        if ij is None or ik is None or jk is None:
            continue
        a, b, c = facing[i]
        x, y, w = jk
        first = c * w - a * x - b * y
        if first < 0:
            continue
        a, b, c = facing[j]
        x, y, w = ik
        second = c * w - a * x - b * y
        if second < 0:
            continue
        a, b, c = facing[k]
        x, y, w = ij
        third = c * w - a * x - b * y
        if third < 0:
            continue
        si, sj, sk = q_side[i], q_side[j], q_side[k]
        if first or second or third:
            yield idx, bool(si and sj and sk)
        elif not (si or sj or sk):
            yield idx, False


def dual_depth_naive(q: Point, family: LineFamily, witness_limit: int = 0) -> DepthReport:
    """Exhaustive dual depth: every 3-subset of lines with no parallel pair
    gets a closed surround verdict, read off q's side of each line and each
    line's side at the opposite corner (``_surrounded_hits``), O(n^3) on a
    vertex table built for this query."""
    if q.dim != 2:
        raise DimensionError(f"query dimension {q.dim} != data dimension 2")
    n, coeffs = family.n, family.coeffs
    if n < 3:
        raise DomainError("dual depth needs at least 3 lines")
    count, strict, witnesses = _count_hits(
        _surrounded_hits(_sides(homog(q), coeffs), _vertex_table(coeffs), coeffs),
        witness_limit)
    return DepthReport(count, binom(n, 3), n, 2, strict, witnesses, "naive")


def _reduce_dir(d):
    x, y = d
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


def _normals(coeffs):
    """Reduced integer normals (a, b) of the lines a·x + b·y = c; parallel
    lines share one, since every line's leading coefficient is positive."""
    return [_reduce_dir((a, b)) for a, b, _ in coeffs]


def _sides(qh, coeffs):
    """The sign of c·w − a·x − b·y for each line (a, b, c) at q = (x, y, w):
    q's foot on that line lies in direction sign·(a, b) from q; 0 when q is on
    the line."""
    x, y, w = qh
    out = []
    for a, b, c in coeffs:
        v = c * w - a * x - b * y
        out.append((v > 0) - (v < 0))
    return out


def _half_turn_order(normals):
    """The lines in the angular order of the signed normals ±(a, b) whose
    angle lies in [0, π), as (line index, sign g) with g·(a, b) that normal.
    With no two lines parallel exactly one sign of each line qualifies.

    Both signs of (a, b) share the float key -a / b (-inf when b = 0), which
    grows with the angle in [0, π) (see ``selection._angular_counts``). No
    two normals are parallel, so the floats order them exactly unless two
    are equal or one overflows; then the exact ``_angle_keys`` order them."""
    upward = [(a, b) if b > 0 or (b == 0 and a > 0) else (-a, -b) for a, b in normals]
    try:
        keys = [-a / b if b else -math.inf for a, b in normals]
    except OverflowError:
        keys = []  # fewer keys than normals: the exact keys below
    if len(set(keys)) < len(normals):
        keys, _ = _angle_keys(upward)
    return tuple((i, 1 if upward[i] == normals[i] else -1)
                 for i in sorted(range(len(normals)), key=keys.__getitem__))


def _surrounding(order, sides):
    """Surrounding triples among the lines with a nonzero side, at a point off
    each of them, given the family's half-turn ``order`` (no two lines
    parallel): C(m, 3) minus the triples of oriented normals inside an open
    half-plane, O(n).

    Line r's oriented normal s_r·g_r·(a, b) points at its angle θ_r in [0, π)
    when s_r = g_r·side_r is +1 and at θ_r + π when it is −1. Charging each
    avoiding triple to its first member counterclockwise, the member r is
    charged C(u, 2), with u the oriented normals in the open half turn after
    it: the later +1 lines and the earlier −1 lines when s_r = +1, the later
    −1 and earlier +1 lines when s_r = −1. With P the running sum of the s
    before r, that is u = cp − 1 − P or u = cm − 1 + P."""
    signs = [g * sides[i] for i, g in order]
    cp = signs.count(1)
    cm = signs.count(-1)
    prefix = 0
    avoiding = 0
    for s in signs:
        if s > 0:
            u = cp - 1 - prefix
        elif s < 0:
            u = cm - 1 + prefix
        else:
            continue
        avoiding += u * (u - 1)
        prefix += s
    return math.comb(cp + cm, 3) - avoiding // 2


def _vertex_table(coeffs):
    """The arrangement vertices of the integer lines ``coeffs``: for each pair
    i < j of nonparallel lines, in combination order, (i, j, v) with
    v = L_i ∩ L_j as ``intersect_lines_homog`` gives it (weight positive).
    C(n, 2) rows and no side vectors: a reader that needs a line's side at a
    vertex computes it there."""
    table = []
    for i, j in itertools.combinations(range(len(coeffs)), 2):
        v = intersect_lines_homog(coeffs[i], coeffs[j])
        if v[2]:
            table.append((i, j, v))
    return table


def _dual_tables(family):
    """The shared tables of one dual search: the integer lines, their
    half-turn order, ``(pos, sign)``, each line's place and sign g in it, the
    vertex table (``_vertex_table``) and each line's pairs (x, v), its vertex
    v with line x, in order along it (``_line_order``). turn[i][k], the sign
    of cross(n_i, n_k), is sign[i]·sign[k]·sgn(pos[k] − pos[i]), since each
    upward normal g·(a, b) has its angle in [0, π) and no two are parallel.

    That sort is the general-position gate: two vertices of a line at one
    exact parameter are three concurrent lines, and ``family.parallel_pair``
    covers parallel lines. Only when the gate fails does ``_line_violations``
    run, to locate the violations of the DegeneracyError."""
    coeffs = family.coeffs
    vertices = _vertex_table(coeffs)
    crossings = [[] for _ in coeffs]
    for i, j, v in vertices:
        crossings[i].append((j, v))
        crossings[j].append((i, v))
    lines = [_line_order(line, row) for line, row in zip(coeffs, crossings)]
    if family.parallel_pair or None in lines:
        raise DegeneracyError("line family is not in general position",
                              _line_violations(coeffs))
    pos, sign = [0] * len(coeffs), [0] * len(coeffs)
    for p, (i, g) in enumerate(family.order):
        pos[i] = p
        sign[i] = g
    return coeffs, family.order, (pos, sign), vertices, lines


def dual_depth_fast(q: Point, family: LineFamily) -> DepthReport:
    """Dual depth at q, closed and strict, by one angular count at any query
    point; equals ``dual_depth_naive`` on (count, strict_count).

    Off every line of a family with no parallel pair, it is C(n, 3) minus the
    triples of oriented normals inside an open half-plane, one O(n) pass over
    q's sides in the family's half-turn order (``_surrounding``), and no
    triple touches q on its boundary.

    Otherwise it counts the triples of a direction list D that hold the origin
    strictly inside, C(|D|, 3) − A − O (``selection._strict_surrounding``).
    D holds the oriented normal of each line off q, and both signs ±(a, b) of
    the normal of each of the z lines through q. A triple with both signs of
    one line, or with a parallel pair, holds an opposite pair and drops out.
    A triple holding q on its edge along one line through q is completed by
    exactly one sign of that normal; with two lines through q, q is a corner
    and one of the four sign choices completes it; three lines through q meet
    there and are completed by two of their eight sign choices, so C(z, 3) is
    subtracted once. The strict count is the same count over the normals of
    the lines off q alone.
    """
    if q.dim != 2:
        raise DimensionError(f"query dimension {q.dim} != data dimension 2")
    n = family.n
    if n < 3:
        raise DomainError("dual depth needs at least 3 lines")
    sides = _sides(homog(q), family.coeffs)
    if 0 not in sides and not family.parallel_pair:
        count = _surrounding(family.order, sides)
        strict = count
    else:
        off = [(s * a, s * b) for s, (a, b) in zip(sides, family.normals) if s]
        on = [d for s, (a, b) in zip(sides, family.normals) if not s
              for d in ((a, b), (-a, -b))]
        strict = _strict_surrounding(off)
        count = _strict_surrounding(off + on) - math.comb(len(on) // 2, 3)
    return DepthReport(count, binom(n, 3), n, 2, strict, method="projection_sweep")


def _line_order(line, crossings):
    """The crossings (x, v) of the integer ``line`` (a, b, c), v = (X, Y, W)
    with W > 0, in the order of v along (−b, a): by the correctly rounded
    float of the parameter (a·Y − b·X)/W, exact where the floats are
    distinct, else by the ``_angle_keys`` of (b·X − a·Y, W), as
    ``_segment_walk`` does. None when two exact keys tie: three concurrent
    lines."""
    a, b, _ = line
    try:
        keys = [(a * y - b * x) / w for _, (x, y, w) in crossings]
    except OverflowError:
        keys = []  # fewer keys than vertices: the exact keys below
    if len(set(keys)) < len(crossings):
        keys, _ = _angle_keys([(b * x - a * y, w) for _, (x, y, w) in crossings])
        if len(set(keys)) < len(crossings):
            return None
    return [crossings[t] for t in sorted(range(len(keys)), key=keys.__getitem__)]


def _line_walk(tables):
    """(closed, gs, fs, place) of a family in general position, from its
    ``_dual_tables``, by one sweep along each line's sorted vertices:
    ``closed[i][k]`` is the closed count at L_i ∩ L_k, ``place[i][k]`` its
    index along L_i, and ``gs[i][c]`` and ``fs[i][c]`` the G and F below at
    cut c of L_i, the edge after its first c vertices.

    With m = n − 2, the lines x_0, x_1, … crossing L_k in the tables' order
    along it have angle ranks r(x) = (pos(x) − pos(k)) mod n − 1 against
    L_k, pos the place in ``order``. F, the pairs across a point of
    L_k whose apex is on side +1 less those on side −1, starts at 0 and gains
    m − 2·r(x_t) past x_t; at the vertex with x_t it drops x_t's pairs,
    2·B_t − t, B_t the earlier ranks below r(x_t). So N± = (t(m + 1 − t) ± F)/2
    pairs hold cut t in a triangle on side ±1, and (t(m − t) ± F)/2 vertex t.

    G, the triples without i surrounding a point of L_i, is 0 before the
    first vertex (far out on that ray) and gains N_after − N_before of L_k at
    its vertex with L_i, "before" being side turn[i][k]; the first pass
    stores F there times sign[k]·sgn(pos[k] − pos[i]) = sign[i]·turn[i][k].
    At that vertex, index t on L_i and t′ on L_k, the closed count is
    G − N_before plus ``_surrounded_hits``' m corners and t(m − t) +
    t′(m − t′) edges; at cut c of L_i the strict count on side σ is G + N_σ."""
    _, _, (pos, sign), _, lines = tables
    n = len(lines)
    m = n - 2
    place = [[0] * n for _ in range(n)]
    f_vertex = [[0] * n for _ in range(n)]
    fs = []
    for k, row in enumerate(lines):
        pk, sk, place_k, fv_k = pos[k], sign[k], place[k], f_vertex[k]
        f = 0
        f_cut = [0]
        ranks = []
        for t, (x, _) in enumerate(row):
            px = pos[x]
            r = (px - pk) % n - 1
            below = bisect_left(ranks, r)
            ranks.insert(below, r)
            place_k[x] = t
            fv_k[x] = (f - 2 * below + t) * (sk if pk > px else -sk)
            f += m - 2 * r
            f_cut.append(f)
        fs.append(f_cut)
    closed = [[0] * n for _ in range(n)]
    gs = []
    for i, row in enumerate(lines):
        si, closed_i = sign[i], closed[i]
        g = 0
        g_cut = [g]
        for t, (x, _) in enumerate(row):
            u = place[x][i]
            # N_after − N_before on L_x at its vertex with L_i
            step = -si * f_vertex[x][i]
            closed_i[x] = g + m + t * (m - t) + (u * (m - u) + step) // 2
            g += step
            g_cut.append(g)
        gs.append(g_cut)
    return closed, gs, fs, place


def _max_closed_dual(family, tables, walk):
    """``max_dual_depth_point`` on the family's ``_dual_tables`` and
    ``_line_walk``: the scan of the vertices with the top closed count, then
    the winner's count by ``dual_depth_fast``, which at a vertex, on two
    lines, counts on the oriented normals (``selection._strict_surrounding``)."""
    closed = walk[0]
    counts = [closed[i][j] for i, j, _ in tables[3]]
    top = max(counts)
    [(best_count, best_key)] = _scan((top, row[2]) for row, count in zip(tables[3], counts)
                                     if count == top)
    q = dehomog(best_key)
    report = dual_depth_fast(q, family)
    if report.count != best_count:
        raise InternalError(
            f"vertex scan count {best_count} != angular count {report.count}")
    return q, replace(report, method="vertex_scan")


def max_dual_depth_point(family: LineFamily, threads: int = 1):
    """Global max of closed dual depth over the arrangement vertices of the
    family (complete under closed containment), lexicographic tie-break.

    Every vertex's count comes from one walk along each line
    (``_line_walk``), O(n^2 log n) in all. The winner's count is re-derived
    by an O(n log n) angular count that reads neither the walk nor the
    half-turn order, as an internal consistency check; the report carries
    no witnesses. ``threads`` is ignored; it stays only because the
    benchmark's workloads pass it.
    """
    if family.n < 3:
        raise DomainError("max_dual_depth_point needs at least 3 lines")
    tables = _dual_tables(family)
    return _max_closed_dual(family, tables, _line_walk(tables))


def base_cut_count(q: Point, i: int, family: LineFamily) -> int:
    """Number of pairs {j, k} (j, k != i) cutting, from the open half-plane
    bounded by the parallel of line i through q on the side away from line i,
    a triangle having q on its base.

    For a generic q this equals the number of surrounding triples containing
    line i, which is the identity the acceptance battery checks.
    """
    n = family.n
    if not 0 <= i < n:
        raise DomainError(f"line index {i} out of range")
    if q.dim != 2:
        raise DimensionError("base_cut_count is planar only")
    coeffs = family.coeffs
    if family.parallel_pair:
        raise DegeneracyError("parallel lines in the family")
    qx, qy, qw = homog(q)
    for a, b, c in coeffs:
        if a * qx + b * qy == c * qw:
            raise DegeneracyError("query point lies on a line")
    ai, bi, ci = coeffs[i]
    # boundary of H: the parallel of line i through q; tau = side of line i
    level = ai * qx + bi * qy
    boundary = (ai * qw, bi * qw, level)
    g = gcd(gcd(abs(boundary[0]), abs(boundary[1])), abs(boundary[2]))
    boundary = tuple(v // g for v in boundary)
    tau = 1 if ci * qw - level > 0 else -1
    # the position of z = (x, y, w) along the boundary is (-bi·x + ai·y) / w.
    # Each crossing's is compared with q's once, by cross-multiplication
    # (every w is positive), and the closed interval between the crossings
    # of lines j and k holds q's position iff their two signs differ or one
    # is zero
    along_q = -bi * qx + ai * qy
    others = [j for j in range(n) if j != i]
    where = [0] * n
    for j in others:
        x, y, w = intersect_lines_homog(boundary, coeffs[j])
        d = (-bi * x + ai * y) * qw - along_q * w
        where[j] = (d > 0) - (d < 0)
    count = 0
    for j, k in itertools.combinations(others, 2):
        if where[j] * where[k] > 0:
            continue
        # the apex v_jk must lie strictly inside H, on the side away from
        # line i: (ai·x + bi·y)·qw − level·w of sign −tau
        x, y, w = intersect_lines_homog(coeffs[j], coeffs[k])
        if ((ai * x + bi * y) * qw - level * w) * tau < 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Exposure analysis
# ---------------------------------------------------------------------------

def _in_closed_cone(a, b, p):
    """p in the closed cone spanned by non-collinear directions a, b."""
    if _icross(a, b) < 0:
        a, b = b, a
    return _icross(a, p) >= 0 and _icross(p, b) >= 0


def _arc_representative(s, e):
    """An exact direction strictly inside the ccw open arc from s to e."""
    c = _icross(s, e)
    if c > 0:
        m = (s[0] + e[0], s[1] + e[1])
    elif c < 0:
        m = (-(s[0] + e[0]), -(s[1] + e[1]))
    else:
        # antipodal endpoints: quarter-turn ccw from s bisects the half-circle
        m = (-s[1], s[0])
    return _reduce_dir(m)


@dataclass(frozen=True)
class ExposureProfile:
    """Per-direction crossing counts around a query point.

    ``directions`` are the cyclically sorted exact directions from q to its
    projections on the lines; ``arc_counts[i]`` is the number of projection
    pairs whose segment crosses a ray aimed anywhere strictly inside the open
    arc between directions i and i+1.
    """

    directions: tuple
    arc_counts: tuple

    @property
    def n_arcs(self) -> int:
        return len(self.directions)

    @property
    def pair_total(self) -> int:
        return math.comb(len(self.directions), 2)

    @property
    def threshold(self) -> Fraction:
        """The exposure threshold: an arc crossed by fewer pairs is exposed."""
        return DUAL_BOUND * self.pair_total

    def count_at(self, direction) -> int:
        """Crossing count for the ray aimed exactly at ``direction`` (closed
        wedges, so critical directions count both adjacent arcs' pairs)."""
        p = _reduce_dir(tuple(direction))
        c = 0
        for a, b in itertools.combinations(self.directions, 2):
            if _in_closed_cone(a, b, p):
                c += 1
        return c

    def exposed(self) -> DirectionArcSet:
        """The arcs of ray directions crossed by fewer than 2/9 of
        projection pairs."""
        return _mask_to_arcset(_exposed_mask(self), self.directions, "EXPOSED")

    def almost_exposed(self) -> DirectionArcSet:
        """The exposed arcs extended by every direction whose ray lies in a
        region bounded by two exposed rays holding fewer than one third of
        the projections."""
        return _mask_to_arcset(_almost_exposed_mask(_exposed_mask(self)),
                               self.directions, "ALMOST_EXPOSED")

    def directions_inside_arc(self, i: int, count: int = 3):
        """``count`` distinct exact directions strictly inside open arc i,
        found by repeated arc bisection."""
        s = self.directions[i]
        e = self.directions[(i + 1) % self.n_arcs]
        out = []
        frontier = [(s, e)]
        while len(out) < count:
            nxt = []
            for a, b in frontier:
                m = _arc_representative(a, b)
                out.append(m)
                nxt.extend([(a, m), (m, b)])
                if len(out) == count:
                    break
            frontier = nxt
        return out


def _arc_profile(order, normals, sides):
    """(direction, count) in cyclic order from angle 0 for each line with a
    nonzero side: the direction side·(a, b) to the point's foot on it, and
    the pairs whose closed wedge, narrower than π, covers the open arc after
    it. One O(n) pass over the half-turn ``order`` (no two lines parallel).

    Line r at position t of ``order`` has s = g·side; its direction sits at
    full-turn slot t when s = +1 and t + n when s = −1, so slot order is
    cyclic order. Its u, the directions in the open half turn after it,
    follows ``_surrounding``'s rule. The arc after direction D counts Σ u_x
    over the w directions x with slot in (slot(D) − n, slot(D)], less the
    C(w, 2) pairs among them. That window holds, at slot t < n, the +1 lines
    up to t and the −1 lines after it, and at slot t + n the rest."""
    lines = [(i, g * sides[i]) for i, g in order if sides[i]]
    m = len(lines)
    cp = sum(s > 0 for _, s in lines)
    cm = m - cp
    # _surrounding's u, restated: a shared helper would slow dual_depth_fast
    us = []
    prefix = 0
    for _, s in lines:
        us.append(cp - 1 - prefix if s > 0 else cm - 1 + prefix)
        prefix += s
    total = sum(us)
    # the window of slot t, before the line at position t moves across it
    window = sum(u for (_, s), u in zip(lines, us) if s < 0)
    w = cm
    first, second = [], []
    for (i, s), u in zip(lines, us):
        a, b = normals[i]
        d = (a, b) if sides[i] > 0 else (-a, -b)
        if s > 0:
            window += u
            w += 1
            first.append((d, window - w * (w - 1) // 2))
        else:
            window -= u
            w -= 1
            second.append((d, total - window - (m - w) * (m - w - 1) // 2))
    return first + second


def exposure_profile(q: Point, family: LineFamily) -> ExposureProfile:
    """Crossing-count profile of q against every pair of lines in the family,
    one O(n) pass in the family's half-turn order (``_arc_profile``)."""
    if q.dim != 2:
        raise DimensionError(f"query dimension {q.dim} != data dimension 2")
    n = family.n
    if n < 2:
        raise DomainError("exposure needs at least 2 lines")
    sides = _sides(homog(q), family.coeffs)
    if 0 in sides:
        raise DegeneracyError("query point lies on a line")
    if family.parallel_pair:
        raise DegeneracyError("projection directions are collinear")
    directions, counts = zip(*_arc_profile(family.order, family.normals, sides))
    return ExposureProfile(directions=directions, arc_counts=counts)


@dataclass(frozen=True)
class DirectionArc:
    """Closed arc of directions from ``start`` counterclockwise to ``end``."""

    start: tuple
    end: tuple
    flag: str  # "EXPOSED" | "ALMOST_EXPOSED"

    def contains(self, direction) -> bool:
        p = _reduce_dir(tuple(direction))
        s, e = self.start, self.end
        if p == s or p == e:
            return True
        c = _icross(s, e)
        if c > 0:
            return _icross(s, p) >= 0 and _icross(p, e) >= 0
        if c < 0:
            return not (_icross(e, p) > 0 and _icross(p, s) > 0)
        if s == e:
            return p == s
        return _icross(s, p) > 0  # antipodal endpoints: ccw half-circle


@dataclass(frozen=True)
class DirectionArcSet:
    """Pairwise-disjoint (except endpoints) closed arcs on the direction circle."""

    arcs: tuple
    full_circle: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.full_circle and not self.arcs

    def contains_direction(self, direction) -> bool:
        if self.full_circle:
            return True
        return any(arc.contains(direction) for arc in self.arcs)


def _mask_to_arcset(mask, directions, flag):
    n = len(mask)
    if not any(mask):
        return DirectionArcSet(arcs=(), full_circle=False)
    if all(mask):
        return DirectionArcSet(arcs=(), full_circle=True)
    arcs = []
    starts = [i for i in range(n) if mask[i] and not mask[(i - 1) % n]]
    for i in starts:
        j = i
        while mask[(j + 1) % n]:
            j += 1
        arcs.append(DirectionArc(start=directions[i % n],
                                 end=directions[(j + 1) % n],
                                 flag=flag))
    return DirectionArcSet(arcs=tuple(arcs), full_circle=False)


def _exposed_mask(profile):
    """Per arc of ``profile``: crossed by fewer than 2/9 of projection pairs."""
    threshold = profile.threshold
    return [c < threshold for c in profile.arc_counts]


def _almost_exposed_mask(mask):
    """The exposed ``mask`` with every sector filled in that runs
    counterclockwise from an exposed arc i to an exposed arc j and holds
    fewer than n/3 projections, (j - i) mod n, strictly inside. Every gap
    between cyclically consecutive exposed arcs inside such a sector is
    itself such a sector, so one cyclic pass over those gaps fills the
    same arcs."""
    n = len(mask)
    exposed = [i for i, m in enumerate(mask) if m]
    almost = list(mask)
    for i, j in zip(exposed, exposed[1:] + exposed[:1]):
        inside = (j - i) % n
        if 3 * inside < n:
            for t in range(i + 1, i + inside):
                almost[t % n] = True
    return almost


def _unexposed_at(sides, order, normals, full_pair_total):
    """Conservative unexposedness certificate at a candidate point, from the
    side of every line there (``_sides``) and the family's half-turn
    ``order``.

    Lines through the candidate contribute no well-defined projection
    direction; their pairs are counted as never crossing, which only lowers
    counts and so can only under-certify. A certificate here still implies the
    2/9 depth consequence.
    """
    counts = [c for _, c in _arc_profile(order, normals, sides)]
    return len(counts) >= 2 and min(counts) >= DUAL_BOUND * full_pair_total


def _edge_midpoints(tables):
    """The midpoint of every edge of the arrangement, from the
    ``_dual_tables`` of lines in general position: the homogeneous average
    (x1·w2 + x2·w1, y1·w2 + y2·w1, 2·w1·w2), reduced, of each two consecutive
    vertices on a line, in the walk's order along it."""
    for row in tables[4]:
        for (_, (x1, y1, w1)), (_, (x2, y2, w2)) in zip(row, row[1:]):
            yield reduce_homog((x1 * w2 + x2 * w1, y1 * w2 + y2 * w1, 2 * w1 * w2))


def find_unexposed_point(family: LineFamily):
    """The lexicographically least arrangement vertex with an empty exposed
    set, else the least such edge midpoint (``_edge_midpoints``); None when
    no candidate certifies.

    Two ``_scan`` passes score each candidate by its certificate
    (``_unexposed_at``) on its own side vector (``_sides``), built for it and
    dropped. The candidates come from the ``_dual_tables``."""
    tables = _dual_tables(family)
    coeffs, order = tables[:2]
    normals = family.normals
    pair_total = math.comb(family.n, 2)
    phases = ((v for _, _, v in tables[3]), _edge_midpoints(tables))
    for candidates in phases:
        [best] = _scan((_unexposed_at(_sides(v, coeffs), order, normals, pair_total), v)
                       for v in candidates)
        if best is not None and best[0]:
            return dehomog(best[1])
    return None


# ---------------------------------------------------------------------------
# Tangent-line construction (tightness of the 2/9 constant)
# ---------------------------------------------------------------------------

def tangent_family(n: int, params=None) -> LineFamily:
    """Lines tangent to the unit circle at n rationally parameterized points of
    the quarter arc from (1, 0) to (0, 1).

    The tangency point for parameter t is ((1-t^2)/(1+t^2), 2t/(1+t^2)) and the
    tangent line is x*x0 + y*y0 = 1. For t = p/q that is the integer line
    (q^2 - p^2)·x + 2pq·y = q^2 + p^2, and each line is built from that
    triple, reduced, which takes out the common factor of the default
    parameters' unreduced integer pairs (k, n - 1); only parameters a caller
    passes go through ``Fraction`` and its checks.
    """
    if n < 3:
        raise DomainError("tangent_family needs n >= 3")
    if params is None:
        pairs = [(k, n - 1) for k in range(n)]
    else:
        params = [scalar(t) for t in params]
        if len(params) != n:
            raise DomainError(f"expected {n} parameters, got {len(params)}")
        if len(set(params)) != n:
            raise DomainError("tangent parameters must be distinct")
        if any(t < 0 or t > 1 for t in params):
            raise DomainError("tangent parameters must lie in [0, 1]")
        if sorted(params) != params:
            raise DomainError("tangent parameters must be ascending")
        pairs = [(t.numerator, t.denominator) for t in params]
    lines = tuple(_line_from_coeffs(_reduce_line(q * q - p * p, 2 * p * q, q * q + p * p))
                  for p, q in pairs)
    return LineFamily(lines, provenance=f"tangent:{n}")


@dataclass(frozen=True)
class TangentClassification:
    """Class sizes for a query point outside the circle: lines separating the
    point from the circle (n2) and same-side lines with tangency point
    clockwise (n1) or counterclockwise (n3) of the query direction."""

    n1: int
    n2: int
    n3: int

    @property
    def total(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def product(self) -> int:
        return self.n1 * self.n2 * self.n3


def classify_tangents(q: Point, family: LineFamily) -> TangentClassification:
    """Separate a tangent family into the three classes a surrounding triple
    must draw from; valid for q strictly outside the unit circle, off all lines."""
    if q.dim != 2:
        raise DimensionError("classify_tangents is planar only")
    if q.dot(q) <= 1:
        raise DegeneracyError("query point must be strictly outside the unit circle")
    origin = Point(0, 0)
    n1 = n2 = n3 = 0
    for h in family.lines:
        side_q = h.side(q)
        if side_q == 0:
            raise DegeneracyError("query point lies on a tangent line")
        if (side_q > 0) != (h.side(origin) > 0):
            n2 += 1
            continue
        t = project_onto_hyperplane(origin, h)
        cross = t.x * q.y - t.y * q.x
        if cross == 0:
            raise DegeneracyError("query point is radially aligned with a tangency point")
        if cross < 0:
            n1 += 1
        else:
            n3 += 1
    return TangentClassification(n1, n2, n3)


def _cell_point(coeffs, key, i, j, sx, sy):
    """The reduced key of v + t·w, strictly inside the cell on side (sx, sy)
    of v = L_i ∩ L_j = (X, Y, W): w = sx·u_i + sy·u_j, and t is half the
    least s > 0 at which the ray v + s·w meets a line, 1 when none does.
    Line (a, b, c) meets it at s = num / (W·den), num = c·W − a·X − b·Y and
    den = a·w_x + b·w_y made positive, compared by cross-multiplication."""
    vx, vy, vw = key
    (ai, bi, _), (aj, bj, _) = coeffs[i], coeffs[j]
    wx, wy = -sx * bi - sy * bj, sx * ai + sy * aj
    bn, bd = 1, 0  # no line yet; a parallel line, den = 0, never passes
    for a, b, c in coeffs:
        den = a * wx + b * wy
        num = c * vw - a * vx - b * vy
        if den < 0:
            num, den = -num, -den
        if num > 0 and num * bd < bn * den:
            bn, bd = num, den
    if not bd:
        return reduce_homog((vx + vw * wx, vy + vw * wy, vw))
    return reduce_homog((2 * bd * vx + bn * wx, 2 * bd * vy + bn * wy, 2 * bd * vw))


def _walk_cells(tables, walk):
    """(strict count, key, i, j, sx, sy) of the cell on side (sx, sy) of each
    vertex-table row (i, j, key), the four cells around every vertex, which
    cover every cell with a positive count. Moving from L_i ∩ L_j along
    sx·u_i + sy·u_j (u = (−b, a)) enters cut c = place_i(j) + [sx > 0] of L_i
    on side σ = sy·turn[i][j], where the ``_line_walk``'s G and F give the
    count G + (c(m + 1 − c) + σ·F)/2."""
    _, _, (pos, sign), vertices, _ = tables
    _, gs, fs, place = walk
    m = len(pos) - 2
    for i, j, key in vertices:
        c = place[i][j]
        t = sign[i] * sign[j] if pos[j] > pos[i] else -sign[i] * sign[j]
        for sx, cut in ((1, c + 1), (-1, c)):
            g, h, tf = gs[i][cut], cut * (m + 1 - cut), t * fs[i][cut]
            yield g + (h + tf) // 2, key, i, j, sx, 1
            yield g + (h - tf) // 2, key, i, j, sx, -1


def _max_strict_dual(family: LineFamily, tables, walk):
    """Max over generic points of the strict (open-cell) surround count, with
    the lexicographically least cell point among the maximizers, on the
    family's ``_dual_tables`` and ``_line_walk``.

    Every cell around every vertex reads its count off the walk
    (``_walk_cells``), and only the cells at the running top count are kept;
    those get their point built and go through the scan's tie-break. The
    winner's count is re-derived by an O(n log n) angular count of its
    oriented normals (``selection._strict_surrounding``), which reads neither
    the walk nor the half-turn order, as an internal consistency check.
    """
    coeffs = family.coeffs
    top, cells = -1, []
    for cell in _walk_cells(tables, walk):
        if cell[0] > top:
            top, cells = cell[0], [cell]
        elif cell[0] == top:
            cells.append(cell)
    [(best_count, best_key)] = _scan((count, _cell_point(coeffs, *cell))
                                     for count, *cell in cells)
    strict = _strict_surrounding([(s * a, s * b) for s, (a, b)
                                  in zip(_sides(best_key, coeffs), family.normals) if s])
    if strict != best_count:
        raise InternalError(
            f"cell scan count {best_count} != angular strict count {strict}")
    return best_count, dehomog(best_key)


@dataclass(frozen=True)
class ExtremalReport:
    """Tightness summary for the tangent family of size n: the maxima found,
    with the fraction and bounds derived from n and ``max_count``.

    ``max_count`` is the maximum STRICT surround count over generic points
    (the notion the n^3/27 product bound governs). The closed-count maximum
    over arrangement vertices is reported alongside: it sits on triple
    boundaries and may legitimately exceed the product bound, which is why it
    is flagged rather than bounded.
    """

    n: int
    max_count: int
    max_point: Point
    closed_max_count: int
    closed_max_point: Point
    closed_boundary_count: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.max_count, math.comb(self.n, 3))

    @property
    def product_bound(self) -> Fraction:
        return Fraction(self.n ** 3, 27)

    @property
    def product_bound_floor(self) -> int:
        return self.n ** 3 // 27

    @property
    def gromov_floor(self) -> Fraction:
        return DUAL_BOUND * math.comb(self.n, 3)

    @property
    def distance_to_bound(self) -> Fraction:
        return abs(self.fraction - DUAL_BOUND)


def extremal_report(n: int) -> ExtremalReport:
    """Run the max searches on tangent_family(n) and compare against the
    product bound n^3/27 and the 2/9 floor. The strict and the closed search
    read one set of ``_dual_tables`` and one ``_line_walk``, O(n^2 log n)
    for the counts and O(n^2) memory, and check each winner by an
    O(n log n) angular count; nothing is O(n^3)."""
    family = tangent_family(n)
    tables = _dual_tables(family)
    walk = _line_walk(tables)
    strict_max, strict_point = _max_strict_dual(family, tables, walk)
    closed_point, closed_rep = _max_closed_dual(family, tables, walk)
    report = ExtremalReport(n, strict_max, strict_point, closed_rep.count, closed_point,
                            closed_rep.boundary_count)
    if strict_max > report.product_bound_floor:
        raise InternalError(f"strict surround count {strict_max} exceeds the product "
                            f"bound {report.product_bound_floor}")
    return report
