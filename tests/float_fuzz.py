"""Seeded float-adversarial inputs for the exact order behind every
float-keyed sort (``selection._angle_keys``): point sets near 2^60 whose
segment crossings share a float, line families whose vertex parameters and
normals share floats, and coordinates and coefficients past 10^308, where a
float ratio overflows. Every instance is in general position, so every
search route accepts it.
"""

from heavycover.dual import LineFamily
from heavycover.exactgeom import (
    Hyperplane,
    Point,
    dehomog,
    general_position_report,
    homog,
    intersect_lines_homog,
    line_through_homog,
)
from heavycover.selection import LabeledPointSet

N = 2 ** 60  # neighbouring floats near N are 256 apart
FAR = 10 ** 20  # and near FAR 16384 apart
HUGE = 10 ** 400  # past the largest float


def _add_point(pts, p):
    """Append ``p`` to ``pts`` when the two stay in general position."""
    if not general_position_report(pts + [p]):
        pts.append(p)


def clash_points(rng, n):
    """n >= 6 points in general position: (0, 0), (3N, 1) and points within
    a few units of (N, 0). Segments among the latter cross segment 0-1 a few
    2^-60 apart, a third of the way along it, where their ratios a / (a + b)
    share a float; seen from (0, 0), the directions to them share floats too.
    Some sets hold a point past 10^308, whose direction from every query
    overflows a float, and some the mirror image 2c - p of a point p through
    a crossing c on segment 0-1, so that three segments meet on a shared
    float."""
    pts = [Point(0, 0), Point(3 * N, 1)]
    if rng.random() < 0.3:
        _add_point(pts, Point(rng.choice((-1, 1)) * (HUGE + rng.randrange(9)),
                              rng.randrange(-9, 10)))
    mirror = rng.random() < 0.4
    while len(pts) < n - 2 * mirror:
        _add_point(pts, Point(N + rng.randrange(9), rng.randrange(-6, 7)))
    above = [p for p in pts[2:] if 0 < p.x < 3 * N and p.y > 0]
    below = [p for p in pts[2:] if 0 < p.x < 3 * N and p.y <= 0]
    for _ in range(8 if mirror and above and below else 0):
        c = dehomog(intersect_lines_homog(
            line_through_homog(homog(pts[0]), homog(pts[1])),
            line_through_homog(homog(rng.choice(above)), homog(rng.choice(below)))))
        p = Point(N // 2 + rng.randrange(9), rng.randrange(2, 9))
        pair = [p, Point(2 * c.x - p.x, 2 * c.y - p.y)]
        if not general_position_report(pts + pair):
            pts += pair
            break
    while len(pts) < n:
        _add_point(pts, Point(N + rng.randrange(9), rng.randrange(-6, 7)))
    return LabeledPointSet(tuple(pts), provenance=f"clash_points:{n}")


def _normal(rng, huge):
    """A nonzero integer normal (a, b): past 10^308 when ``huge``; else one
    time in three (N·b + k, b), whose float key -a / b ties with every other
    such normal's; else small."""
    if huge:
        return HUGE + rng.randrange(9), rng.choice((-1, 1)) * rng.randrange(1, 9)
    if rng.random() < 1 / 3:
        b = rng.randrange(1, 4)
        return N * b + rng.randrange(-9, 10), b
    a, b = 0, 0
    while not (a or b):
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
    return a, b


def clash_lines(rng, n):
    """n lines in general position, most of them within a few units of
    (FAR, 0): the vertices there share one float parameter on each line
    through them. Some normals tie as floats (``_normal``), and some
    families hold one normal past 10^308, where the parameters of that
    line's vertices overflow a float."""
    coeffs, vertices = [], []
    huge = rng.random() < 0.3
    while len(coeffs) < n:
        a, b = _normal(rng, huge)
        c = a * FAR + rng.randrange(-9, 10) if rng.random() < 0.75 else rng.randrange(-9, 10)
        # no parallel pair and no line through a vertex: no three concurrent
        if any(a * b2 == a2 * b for a2, b2, _ in coeffs):
            continue
        if any(a * x + b * y == c * w for x, y, w in vertices):
            continue
        vertices += [intersect_lines_homog((a, b, c), line) for line in coeffs]
        coeffs.append((a, b, c))
        huge = False
    return LineFamily(tuple(Hyperplane((a, b), c) for a, b, c in coeffs),
                      provenance=f"clash_lines:{n}")
