"""The dual searches' vertex and cell scans, kept as the tests' oracle for
``dual._line_walk``: every vertex's closed count and every cell's strict
count, one O(n) ``_surrounding`` pass each on the vertex's own side vector
(``_sides``), O(n^3) per family. They take each side vector themselves from
the vertex-table row and the lines, not the walk's order along each line,
so they share no step rule with it.
"""

import operator

from heavycover.dual import _sides, _surrounding


def _vertex_pair(row, tables):
    """Closed dual depth at the vertex v = L_i ∩ L_j of a family in general
    position, for the vertex-table row (i, j, v), as one (count, key) pair.

    The n − 2 other lines miss v, so their triples count as at any generic
    point. The n − 2 triples {i, j, k} have v as a corner. A triple {i, k, m}
    holds v on its edge along L_i iff L_k and L_m cross L_i on opposite sides
    of v; the side of L_k is sign(f_k(v))·turn[i][k], so these add l_i·r_i,
    and likewise l_j·r_j."""
    i, j, key = row
    coeffs, order, turn = tables[:3]
    sides = _sides(key, coeffs)
    m = len(sides) - 2
    count = _surrounding(order, sides) + m
    for turn_row in (turn[i], turn[j]):
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
    coeffs, order, turn, vertices = tables[:4]
    cells = []
    for i, j, key in vertices:
        sides = _sides(key, coeffs)
        t = turn[i][j]
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            sides[i], sides[j] = sy * t, -sx * t
            cells.append((_surrounding(order, sides), key, i, j, sx, sy))
    return cells
