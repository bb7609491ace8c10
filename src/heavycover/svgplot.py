"""Deterministic SVG rendering of depth landscapes and sweep timelines.

Plots are diagnostic only: the exact counts are computed by the callers and
passed in as plain report dictionaries, so nothing here ever feeds back into a
computation. Identical report dictionaries produce byte-identical SVG.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedError
from .exactgeom import scalar

CANVAS = 640
MARGIN = 40
BANDS = ("#ffffff", "#dbe9f6", "#a6c8e4", "#6baed6", "#3182bd", "#08519c")


def _fmt(x) -> str:
    return f"{float(x):.3f}"


def _band(count, max_count):
    if count <= 0:
        return BANDS[0]
    if max_count <= 0:
        return BANDS[0]
    idx = 1 + (4 * (count - 1)) // max(1, max_count - 1) if max_count > 1 else 5
    return BANDS[min(idx, 5)]


class _Mapper:
    def __init__(self, bbox):
        self.xmin, self.ymin, self.xmax, self.ymax = bbox
        self.span_x = self.xmax - self.xmin
        self.span_y = self.ymax - self.ymin
        if self.span_x <= 0 or self.span_y <= 0:
            raise UnsupportedError("bounding box must have positive area")
        self.scale = Fraction(CANVAS - 2 * MARGIN) / max(self.span_x, self.span_y)

    def x(self, v):
        return MARGIN + (v - self.xmin) * self.scale

    def y(self, v):
        return CANVAS - MARGIN - (v - self.ymin) * self.scale


def _parse_bbox(report):
    bbox = report.get("bbox")
    if not bbox or len(bbox) != 4:
        raise UnsupportedError("report has no planar bounding box")
    return [scalar(v) for v in bbox]


def _clip_line_to_bbox(normal, offset, bbox):
    """The two boundary crossings of {normal . x = offset} with the box, if any."""
    a, b = normal
    xmin, ymin, xmax, ymax = bbox
    hits = []
    if b != 0:
        for x in (xmin, xmax):
            y = (offset - a * x) / b
            if ymin <= y <= ymax:
                hits.append((x, y))
    if a != 0:
        for y in (ymin, ymax):
            x = (offset - b * y) / a
            if xmin <= x <= xmax:
                hits.append((x, y))
    uniq = []
    for h in hits:
        if h not in uniq:
            uniq.append(h)
    return uniq[:2] if len(uniq) >= 2 else None


def emit_svg(report: dict) -> bytes:
    """Render a planar report dict to SVG bytes.

    Recognized keys: bbox (required, four rationals), grid {cells, max} for the
    depth-band landscape, points, lines, argmax, witness, title.
    """
    if report.get("dimension", 2) != 2:
        raise UnsupportedError("only planar reports can be plotted")
    bbox = _parse_bbox(report)
    m = _Mapper(bbox)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#fafafa"/>',
    ]
    grid = report.get("grid")
    if grid:
        g = len(grid["cells"])
        max_count = grid.get("max", 0)
        cell_w = (bbox[2] - bbox[0]) / g
        cell_h = (bbox[3] - bbox[1]) / g
        xs = [_fmt(m.x(bbox[0] + col * cell_w)) for col in range(g)]
        ys = [_fmt(m.y(bbox[1] + (row + 1) * cell_h)) for row in range(g)]
        size = f'width="{_fmt(cell_w * m.scale)}" height="{_fmt(cell_h * m.scale)}"'
        for y0, counts in zip(ys, grid["cells"]):
            for x0, count in zip(xs, counts):
                color = _band(count, max_count)
                if color == BANDS[0]:
                    continue
                parts.append(f'<rect x="{x0}" y="{y0}" {size} fill="{color}"/>')
    for line in report.get("lines", []):
        normal = [scalar(v) for v in line["normal"]]
        offset = scalar(line["offset"])
        seg = _clip_line_to_bbox(normal, offset, bbox)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        parts.append(
            f'<line x1="{_fmt(m.x(x1))}" y1="{_fmt(m.y(y1))}" '
            f'x2="{_fmt(m.x(x2))}" y2="{_fmt(m.y(y2))}" '
            f'stroke="#555555" stroke-width="1.2"/>')
    for pt in report.get("points", []):
        x, y = (scalar(v) for v in pt)
        parts.append(f'<circle class="data" cx="{_fmt(m.x(x))}" cy="{_fmt(m.y(y))}" '
                     f'r="4" fill="#111111"/>')
    witness = report.get("witness")
    if witness:
        x, y = (scalar(v) for v in witness)
        parts.append(f'<circle class="witness" cx="{_fmt(m.x(x))}" cy="{_fmt(m.y(y))}" '
                     f'r="7" fill="none" stroke="#2ca02c" stroke-width="2"/>')
    argmax = report.get("argmax")
    if argmax:
        x, y = (scalar(v) for v in argmax)
        cx, cy = m.x(x), m.y(y)
        parts.append(
            f'<g class="argmax" stroke="#d62728" stroke-width="2">'
            f'<line x1="{_fmt(cx - 8)}" y1="{_fmt(cy)}" x2="{_fmt(cx + 8)}" y2="{_fmt(cy)}"/>'
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy - 8)}" x2="{_fmt(cx)}" y2="{_fmt(cy + 8)}"/>'
            f'</g>')
    title = report.get("title")
    if title:
        parts.append(f'<text x="{MARGIN}" y="{MARGIN // 2 + 6}" font-size="14" '
                     f'font-family="monospace">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def bounding_box(points, pad=Fraction(1)):
    """Padded exact bounding box of a point collection."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return [min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad]


def depth_grid(count_at, bbox, resolution):
    """Exact counts at the centers of a resolution x resolution cell grid.

    ``count_at`` maps an exact rational (x, y) to an integer; the grid is
    diagnostic and never feeds back into any computation.
    """
    xmin, ymin, xmax, ymax = bbox
    cxs = [xmin + (xmax - xmin) * Fraction(2 * col + 1, 2 * resolution)
           for col in range(resolution)]
    cells = []
    max_count = 0
    for row in range(resolution):
        cy = ymin + (ymax - ymin) * Fraction(2 * row + 1, 2 * resolution)
        line = [count_at(cx, cy) for cx in cxs]
        max_count = max(max_count, *line)
        cells.append(line)
    return {"cells": cells, "max": max_count}


def emit_timeline_svg(samples) -> bytes:
    """Sweep timeline strip: one cell per sample (gray = degenerate, red =
    flagged jump), with a normalized count polyline."""
    n = len(samples)
    if n == 0:
        raise UnsupportedError("empty timeline")
    width, height = 640, 120
    cell = Fraction(width - 2 * MARGIN, n)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    max_count = max((s.get("count") or 0) for s in samples)
    poly = []
    for i, s in enumerate(samples):
        x = MARGIN + i * cell
        if s.get("degenerate"):
            color = "#bbbbbb"
        elif s.get("jump"):
            color = "#d62728"
        else:
            color = "#6baed6"
        parts.append(f'<rect x="{_fmt(x)}" y="80" width="{_fmt(cell)}" height="20" '
                     f'fill="{color}" stroke="#ffffff" stroke-width="0.5"/>')
        if s.get("count") is not None and max_count > 0:
            y = 70 - Fraction(50 * s["count"], max_count)
            poly.append(f"{_fmt(x + cell / 2)},{_fmt(y)}")
    if poly:
        parts.append(f'<polyline points="{" ".join(poly)}" fill="none" '
                     f'stroke="#08519c" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")
