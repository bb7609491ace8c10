"""The dual searches' vertex and cell scans, kept as the tests' oracle for
``dual._line_walk``: every vertex's closed count and every cell's strict
count, one O(n) ``_surrounding`` pass each on the vertex's own side vector
(``_sides``), O(n^3) per family. They take each side vector themselves from
the vertex-table row and the lines, not the walk's order along each line,
and each turn sign from the cross product of two lines' normals, not from
the half-turn order's places and signs, so they share no step rule with it.
Also here: ``_fraction_cell_point``, the ``Fraction`` construction of a
cell's point that ``dual._cell_point`` computes on integers.
"""

import operator
from fractions import Fraction

from heavycover.dual import _sides, _surrounding
from heavycover.exactgeom import Point


def _cross_turn(coeffs, i, k):
    """The sign of cross(n_i, n_k) = a_i·b_k − b_i·a_k of the normals of
    the integer lines i and k."""
    (ai, bi, _), (ak, bk, _) = coeffs[i], coeffs[k]
    c = ai * bk - bi * ak
    return (c > 0) - (c < 0)


def _vertex_pair(row, tables):
    """Closed dual depth at the vertex v = L_i ∩ L_j of a family in general
    position, for the vertex-table row (i, j, v), as one (count, key) pair.

    The n − 2 other lines miss v, so their triples count as at any generic
    point. The n − 2 triples {i, j, k} have v as a corner. A triple {i, k, m}
    holds v on its edge along L_i iff L_k and L_m cross L_i on opposite sides
    of v; the side of L_k is sign(f_k(v))·turn[i][k], so these add l_i·r_i,
    and likewise l_j·r_j."""
    i, j, key = row
    coeffs, order = tables[:2]
    sides = _sides(key, coeffs)
    m = len(sides) - 2
    count = _surrounding(order, sides) + m
    for line in (i, j):
        turn_row = [_cross_turn(coeffs, line, k) for k in range(len(coeffs))]
        # sides · turn[i] = l_i − r_i, and l_i + r_i = n − 2
        left = (sum(map(operator.mul, sides, turn_row)) + m) // 2
        count += left * (m - left)
    return count, key


def _cell_counts(tables):
    """(strict count, key, i, j, sx, sy) for the cell on side (sx, sy) of each
    arrangement vertex v = L_i ∩ L_j, from the ``_dual_tables`` of a family in
    general position, in the order of ``dual._walk_cells``.

    Inside such a cell the lines other than i and j keep their side at v, and
    moving from v along sx·u_i + sy·u_j (u = (−b, a), the line's direction)
    puts it on side sy·turn[i][j] of L_i and −sx·turn[i][j] of L_j. The
    count at a point off every line is strict, so each cell costs one O(n)
    ``_surrounding`` call on the vertex's side vector."""
    coeffs, order, _, vertices = tables[:4]
    cells = []
    for i, j, key in vertices:
        sides = _sides(key, coeffs)
        t = _cross_turn(coeffs, i, j)
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            sides[i], sides[j] = sy * t, -sx * t
            cells.append((_surrounding(order, sides), key, i, j, sx, sy))
    return cells


def _fraction_cell_point(coeffs, key, i, j, sx, sy, branches=None):
    """The exact rational point strictly inside the cell on side (sx, sy) of
    the vertex v = L_i ∩ L_j: v + t·w with w = sx·u_i + sy·u_j and t half the
    parameter of the first line the ray v + s·w meets (1 when it meets none),
    every parameter a ``Fraction``. ``branches``, when given, counts the
    cells whose ray meets a line ("meets") and those whose ray meets none
    ("none")."""
    vx, vy, vw = key
    ui = (-coeffs[i][1], coeffs[i][0])
    uj = (-coeffs[j][1], coeffs[j][0])
    w = (sx * ui[0] + sy * uj[0], sx * ui[1] + sy * uj[1])
    nearest = None
    for a, b, c in coeffs:
        num = c * vw - a * vx - b * vy
        den = vw * (a * w[0] + b * w[1])
        if den == 0 or num == 0:
            continue
        s = Fraction(num, den)
        if s > 0 and (nearest is None or s < nearest):
            nearest = s
    if branches is not None:
        branches["none" if nearest is None else "meets"] += 1
    t = nearest / 2 if nearest is not None else Fraction(1)
    return Point(Fraction(vx, vw) + t * w[0], Fraction(vy, vw) + t * w[1])
