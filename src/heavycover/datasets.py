"""Dataset ingestion, emission, and seeded instance generation.

Datasets round-trip losslessly through a JSON schema whose every numeric field
is an exact rational: "p/q" strings, plain integers, or finite decimals (which
convert exactly, e.g. "0.25" -> 1/4). Scientific notation and non-finite
values are rejected.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .continuity import MotionPath
from .dual import LineFamily, _dual_tables, tangent_family
from .errors import (
    DegeneracyError,
    DomainError,
    GenerationError,
    HeavyCoverError,
    ParseError,
)
from .exactgeom import (
    Hyperplane,
    Point,
    _line_from_coeffs,
    _reduce_line,
    general_position_report,
    scalar,
)
from .selection import LabeledPointSet

KINDS = ("POINTS", "LINES", "COLORED_POINTS", "PATH")


@dataclass
class Dataset:
    kind: str
    points: LabeledPointSet | None = None
    lines: LineFamily | None = None
    path: MotionPath | None = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def _num(value, location):
    # json floats arrive as Fractions, pre-converted by _num_float_reject
    try:
        return scalar(value)
    except DomainError as exc:
        raise ParseError(str(exc), location) from None


def _reject_constant(name):
    raise ParseError(f"non-finite numeric constant {name!r} is rejected")


def _parse_points(raw, location):
    if not isinstance(raw, list) or not raw:
        raise ParseError("expected a nonempty list of points", location)
    pts = []
    dim = None
    for i, row in enumerate(raw):
        loc = f"{location}[{i}]"
        if not isinstance(row, list) or not row:
            raise ParseError("expected a coordinate list", loc)
        coords = [_num(v, f"{loc}[{j}]") for j, v in enumerate(row)]
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise ParseError(f"mixed dimensions: {len(coords)} vs {dim}", loc)
        pts.append(Point(*coords))
    return tuple(pts)


def _parse_lines(raw, location):
    if not isinstance(raw, list) or not raw:
        raise ParseError("expected a nonempty list of lines", location)
    lines = []
    for i, row in enumerate(raw):
        loc = f"{location}[{i}]"
        if not isinstance(row, dict) or "normal" not in row or "offset" not in row:
            raise ParseError("expected {normal, offset}", loc)
        if not isinstance(row["normal"], list):
            raise ParseError("expected a coefficient list", f"{loc}.normal")
        normal = [_num(v, f"{loc}.normal[{j}]") for j, v in enumerate(row["normal"])]
        if len(normal) != 2:
            raise ParseError("lines are planar: normal must have 2 entries", loc)
        offset = _num(row["offset"], f"{loc}.offset")
        try:
            lines.append(Hyperplane(normal, offset))
        except HeavyCoverError as exc:
            raise ParseError(str(exc), loc)
    return tuple(lines)


def parse_dataset(data) -> Dataset:
    """Exact parse of the JSON dataset format; ParseError carries a location."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data, parse_float=_num_float_reject, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}", "kind")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object", "metadata")
    provenance = obj.get("provenance")
    try:
        if kind == "POINTS":
            pts = _parse_points(obj.get("points"), "points")
            return Dataset(kind, points=LabeledPointSet(pts, provenance=provenance),
                           metadata=metadata)
        if kind == "COLORED_POINTS":
            pts = _parse_points(obj.get("points"), "points")
            colors = obj.get("colors")
            if not isinstance(colors, list):
                raise ParseError("COLORED_POINTS needs a colors list", "colors")
            for i, c in enumerate(colors):
                if isinstance(c, bool) or not isinstance(c, (str, int)):
                    raise ParseError("a color must be a string or an integer", f"colors[{i}]")
            if len(colors) != len(pts):
                raise ParseError(f"expected {len(pts)} colors, one per point, "
                                 f"got {len(colors)}", "colors")
            return Dataset(kind, points=LabeledPointSet(pts, colors=tuple(colors),
                                                        provenance=provenance),
                           metadata=metadata)
        if kind == "LINES":
            lines = _parse_lines(obj.get("lines"), "lines")
            return Dataset(kind, lines=LineFamily(lines, provenance=provenance),
                           metadata=metadata)
        # PATH
        raw = obj.get("keyframes")
        if not isinstance(raw, list) or len(raw) < 2:
            raise ParseError("PATH needs at least two keyframes", "keyframes")
        frames = []
        for i, kf in enumerate(raw):
            loc = f"keyframes[{i}]"
            if not isinstance(kf, dict) or "time" not in kf or "points" not in kf:
                raise ParseError("expected {time, points}", loc)
            t = _num(kf["time"], f"{loc}.time")
            pts = _parse_points(kf["points"], f"{loc}.points")
            n, d = len(pts), pts[0].dim
            if not frames:
                shape = n, d
            elif (n, d) != shape:
                raise ParseError(f"expected {shape[0]} points of dimension {shape[1]} as in "
                                 f"keyframes[0], got {n} of dimension {d}", f"{loc}.points")
            frames.append((t, LabeledPointSet(pts)))
        return Dataset(kind, path=MotionPath(tuple(frames)), metadata=metadata)
    except HeavyCoverError:
        raise
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed payload: {exc}")


def _num_float_reject(text):
    # json floats arrive here as raw text; finite decimals convert exactly,
    # exponent forms are rejected
    return _num(text, "")


def _emit_points(pset: LabeledPointSet):
    return [[str(c) for c in p.coords] for p in pset.points]


def emit_dataset(ds: Dataset) -> str:
    """Canonical JSON emission; parse(emit(ds)) == ds exactly."""
    obj = {"kind": ds.kind, "metadata": ds.metadata}
    if ds.kind in ("POINTS", "COLORED_POINTS"):
        obj["points"] = _emit_points(ds.points)
        if ds.points.provenance is not None:
            obj["provenance"] = ds.points.provenance
        if ds.kind == "COLORED_POINTS":
            obj["colors"] = list(ds.points.colors)
    elif ds.kind == "LINES":
        obj["lines"] = [{"normal": [str(c) for c in h.normal],
                         "offset": str(h.offset)} for h in ds.lines.lines]
        if ds.lines.provenance is not None:
            obj["provenance"] = ds.lines.provenance
    else:
        obj["keyframes"] = [{"time": str(t), "points": _emit_points(ps)}
                            for t, ps in ds.path.keyframes]
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

MAX_RETRIES = 64
LINE_SPAN_DOUBLINGS = 8  # rounds of MAX_RETRIES line draws after the first
_DENOM = 9973  # prime jitter denominator; keeps accidental collinearity rare


def _rand_numerator(rng, span, denom=_DENOM):
    """The numerator of a uniform coordinate in [-span, span] over ``denom``."""
    return rng.randrange(-span * denom, span * denom + 1)


def _rand_coord(rng, span, denom=_DENOM):
    return Fraction(_rand_numerator(rng, span, denom), denom)


def random_point_set(n, seed, span=8, near_convex=False, dim=2) -> LabeledPointSet:
    """Seeded general-position point set (planar by default).

    ``near_convex`` samples jittered rational points near a circle instead of
    uniform box jitter (planar only). Regenerates on any general-position
    violation, up to a bounded retry budget.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if near_convex and dim != 2:
        raise DomainError("near_convex generation is planar only")
    rng = random.Random(seed)
    for _ in range(MAX_RETRIES):
        if dim != 2:
            pts = tuple(Point(*(_rand_coord(rng, span) for _ in range(dim)))
                        for _ in range(n))
            if n <= dim or not general_position_report(pts):
                return LabeledPointSet(pts, provenance=f"seed:{seed}")
            continue
        if near_convex:
            pts = []
            for k in range(n):
                # tan-half-angle parameter spread over the circle plus jitter
                t = Fraction(rng.randrange(-4 * _DENOM, 4 * _DENOM + 1), _DENOM)
                r = 1 + Fraction(rng.randrange(-_DENOM // 8, _DENOM // 8 + 1), _DENOM)
                den = 1 + t * t
                pts.append(Point(r * (1 - t * t) / den * span / 2,
                                 r * 2 * t / den * span / 2))
            pts = tuple(pts)
        else:
            pts = tuple(Point(_rand_coord(rng, span), _rand_coord(rng, span))
                        for _ in range(n))
        if not general_position_report(pts):
            return LabeledPointSet(pts, provenance=f"seed:{seed}")
    raise GenerationError(f"no general-position point set after {MAX_RETRIES} tries")


def colored_point_set(n, seed, classes=3) -> LabeledPointSet:
    """Seeded general-position point set with near-equal color classes."""
    base = random_point_set(n, seed)
    colors = tuple(i % classes for i in range(n))
    return LabeledPointSet(base.points, colors=colors, provenance=base.provenance)


LINE_COEFF_SPAN = 12  # normals of random lines lie in [-span, span]^2


def random_line_coeffs(rng, span=LINE_COEFF_SPAN) -> tuple:
    """One line drawn from ``rng`` as ``random_line_family`` draws each of
    its lines: a nonzero normal (a, b) from [-span, span]^2 through the
    jittered anchor (X/D, Y/D), D = 9973, in [-6, 6]^2, as the reduced
    integer triple (``_reduce_line``) of (a·D, b·D, a·X + b·Y)."""
    a = b = 0
    while a == 0 and b == 0:
        a = rng.randrange(-span, span + 1)
        b = rng.randrange(-span, span + 1)
    x, y = _rand_numerator(rng, 6), _rand_numerator(rng, 6)
    return _reduce_line(a * _DENOM, b * _DENOM, a * x + b * y)


def random_line_family(n, seed, coeff_span=LINE_COEFF_SPAN) -> LineFamily:
    """Seeded general-position line family: random integer normals through
    jittered rational anchor points.

    Each line is drawn as its reduced integer triple (``random_line_coeffs``),
    so the family's ``coeffs`` are the drawn integers and no ``Fraction`` is
    converted back.

    The first ``MAX_RETRIES`` draws take normals from [-coeff_span,
    coeff_span]^2. From about n = 28 at the default span two of them are
    likely parallel; when all those draws fail, each further round of
    ``MAX_RETRIES`` draws doubles the span, up to ``LINE_SPAN_DOUBLINGS``
    rounds. Every family the first round finds is therefore kept as is.

    A draw is kept iff no two of its lines are parallel and the dual search's
    tables build on it (``_dual_tables``): their line orders are the
    general-position gate, O(n^2 log n) where locating the violations
    (``_line_violations``) is O(n^3)."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = random.Random(seed)
    for doublings in range(LINE_SPAN_DOUBLINGS + 1):
        span = coeff_span << doublings
        for _ in range(MAX_RETRIES):
            coeffs = [random_line_coeffs(rng, span) for _ in range(n)]
            if len(set(coeffs)) < n:
                continue  # reduced triples are canonical: a coincident pair
            family = LineFamily(tuple(map(_line_from_coeffs, coeffs)),
                                provenance=f"seed:{seed}")
            if family.parallel_pair:
                continue  # most rejected draws, rejected before any table
            try:
                _dual_tables(family)
            except DegeneracyError:
                continue
            return family
    raise GenerationError("no general-position line family after "
                          f"{MAX_RETRIES * (LINE_SPAN_DOUBLINGS + 1)} tries")


def random_tangent_family(n, seed) -> LineFamily:
    """Tangent family at n distinct seeded rational parameters in [0, 1]."""
    rng = random.Random(seed)
    numerators = rng.sample(range(0, _DENOM + 1), n)
    params = sorted(Fraction(v, _DENOM) for v in numerators)
    return tangent_family(n, params)


def random_motion_path(n, seed, keyframes=2) -> MotionPath:
    """Seeded piecewise-linear motion: independent general-position keyframes."""
    if keyframes < 2:
        raise DomainError("need at least 2 keyframes")
    frames = []
    for j in range(keyframes):
        t = Fraction(j, keyframes - 1)
        ps = random_point_set(n, seed * 1000003 + j)
        # keyframe provenance is carried by the dataset metadata, not per frame
        frames.append((t, LabeledPointSet(ps.points)))
    return MotionPath(tuple(frames))


def generate(kind, n, seed, **params) -> Dataset:
    """Deterministic dataset generation; identical arguments give identical
    datasets. Generator metadata is recorded for provenance."""
    if n < 1:
        raise DomainError("need n >= 1")
    meta = {"seed": seed, "params": {k: str(v) for k, v in sorted(params.items())}}
    if kind == "POINTS":
        near_convex = bool(params.pop("near_convex", False))
        span = params.pop("span", 8)
        pset = random_point_set(n, seed, span=span, near_convex=near_convex)
        meta["generator"] = "near_convex_points" if near_convex else "grid_jitter_points"
        return Dataset("POINTS", points=pset, metadata=meta)
    if kind == "COLORED_POINTS":
        classes = params.pop("classes", 3)
        meta["generator"] = "colored_points"
        return Dataset("COLORED_POINTS", points=colored_point_set(n, seed, classes),
                       metadata=meta)
    if kind == "LINES":
        if params.pop("tangent", False):
            meta["generator"] = "tangent_family"
            return Dataset("LINES", lines=random_tangent_family(n, seed), metadata=meta)
        meta["generator"] = "random_lines"
        return Dataset("LINES", lines=random_line_family(n, seed), metadata=meta)
    if kind == "PATH":
        keyframes = params.pop("keyframes", 2)
        meta["generator"] = "motion_path"
        return Dataset("PATH", path=random_motion_path(n, seed, keyframes), metadata=meta)
    raise DomainError(f"unknown dataset kind: {kind!r}")
