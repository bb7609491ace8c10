"""Affine-flat transversals: verify touched-tuple fractions in general (d, m)
and constructively find the transversal line for two planar point sets.

A (d-m+1)-tuple touches an m-flat iff its convex hull meets the flat, which
after orthogonal projection along the flat's directions becomes a closed
simplex-containment test in R^(d-m).
A ``SetTouchReport`` stores counts; ``selection._Bounded`` derives the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .dual import _reduce_dir
from .errors import DegeneracyError, DimensionError, DomainError, InternalError
from .exactgeom import Point, homog
from .selection import (
    LabeledPointSet,
    _angle_keys,
    _Bounded,
    _tally,
    binom,
    selection_bound,
)


@dataclass(frozen=True)
class AffineFlat:
    """m-dimensional affine flat: base point plus m independent directions."""

    base: Point
    directions: tuple

    def __post_init__(self):
        dirs = tuple(self.directions)
        object.__setattr__(self, "directions", dirs)
        d = self.base.dim
        for v in dirs:
            if v.dim != d:
                raise DimensionError("flat directions must match the base dimension")
        if not 0 <= len(dirs) < d:
            raise DomainError(f"flat dimension must satisfy 0 <= m < d, got m={len(dirs)}")
        if len(_orthogonalize([v.coords for v in dirs])) != len(dirs):
            raise DomainError("flat directions must be linearly independent")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def m(self) -> int:
        return len(self.directions)


def _orthogonalize(vectors):
    """Gram-Schmidt without normalization: pairwise orthogonal rational
    vectors with the same span; zero remainders are dropped, so there are as
    many as the vectors' rank."""
    basis = []
    for v in vectors:
        r = list(v)
        for b in basis:
            bb = sum(x * x for x in b)
            coef = sum(x * y for x, y in zip(r, b)) / bb
            r = [x - coef * y for x, y in zip(r, b)]
        if any(x != 0 for x in r):
            basis.append(r)
    return basis


def complement_basis(flat: AffineFlat):
    """Orthogonal rational basis of the orthogonal complement of the flat's
    direction span (not unit vectors; containment tests are affine-invariant).
    Gram-Schmidt runs over the flat's directions, then the unit vectors; the
    unit vectors' nonzero remainders form the basis."""
    d = flat.dim
    units = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    basis = _orthogonalize([v.coords for v in flat.directions] + units)
    return [Point(*b) for b in basis[flat.m:]]


def _complement_coords(p: Point, basis):
    return Point(*(p.dot(b) / b.dot(b) for b in basis))


@dataclass(frozen=True)
class SetTouchReport(_Bounded):
    """Touched-tuple accounting for one point set against one m-flat in R^d.
    ``dim`` is the codimension d − m (the ambient d is ``TransversalReport.d``),
    so ``bound`` is ``transversal_bound(d, m)``."""

    median_floor_count: int | None = None

    @property
    def meets_median_floor(self) -> bool | None:
        if self.median_floor_count is None:
            return None
        return self.count >= self.median_floor_count


@dataclass(frozen=True)
class TransversalReport:
    d: int
    m: int
    per_set: tuple


def transversal_bound(d: int, m: int) -> Fraction:
    """2(d-m)/((d-m+1)!(d-m+1)); the selection bound one codimension down."""
    if not 0 <= m < d:
        raise DomainError("need 0 <= m < d")
    return selection_bound(d - m)


def verify_transversal(flat: AffineFlat, sets) -> TransversalReport:
    """Exact per-set fractions of (d-m+1)-tuples whose hulls touch the flat."""
    sets = list(sets)
    d, m = flat.dim, flat.m
    if len(sets) != m + 1:
        raise DomainError(f"need m+1 = {m + 1} point sets, got {len(sets)}")
    k = d - m + 1
    basis = complement_basis(flat)
    target = homog(_complement_coords(flat.base, basis))
    per_set = []
    for pset in sets:
        if pset.dim != d:
            raise DimensionError("point set dimension mismatch")
        if pset.n < k:
            raise DomainError(f"each set needs at least {k} points")
        image = [homog(_complement_coords(p, basis)) for p in pset.points]
        count, _, _ = _tally(target, image, itertools.combinations(range(pset.n), k), 0)
        per_set.append(SetTouchReport(count, binom(pset.n, k), pset.n, d - m))
    return TransversalReport(d=d, m=m, per_set=tuple(per_set))


def _median_floor_count(n: int) -> int:
    a = (n - 1) // 2
    return a * (n - 1 - a)


def _median_interval(vals):
    s = sorted(vals)
    n = len(s)
    return s[(n - 1) // 2], s[n // 2]


def _cleared(pset):
    """The set's points as integer pairs over one denominator, the LCM of
    their weights, and that denominator."""
    hs = [homog(p) for p in pset.points]
    den = 1
    for _, _, w in hs:
        den = den * w // gcd(den, w)
    return [(x * (den // w), y * (den // w)) for x, y, w in hs], den


def find_transversal_line_2d(set0: LabeledPointSet, set1: LabeledPointSet):
    """Transversal line for two planar sets via an exact direction sweep.

    Critical normal directions are the perpendiculars of all difference
    vectors of the combined set; between consecutive criticals the projection
    orders (and hence both median intervals) are fixed, so testing one exact
    midpoint direction per interval plus the criticals themselves is a
    complete scan. The returned line passes through the midpoint of the
    overlap of the two median intervals and is guaranteed to touch at least
    floor((n_i-1)/2) * ceil((n_i-1)/2) of each set's C(n_i, 2) pairs.

    Each set's points are cleared to integers over one denominator (the LCM
    of their weights) once, so every candidate projects, sorts and takes
    medians on ints; only the winning line's bounds become Fractions.
    """
    for pset in (set0, set1):
        if pset.dim != 2:
            raise DimensionError("find_transversal_line_2d is planar only")
        if pset.n < 2:
            raise DomainError("each set needs at least 2 points")
    combined = [homog(p) for p in set0.points + set1.points]
    for i, j in itertools.combinations(range(len(combined)), 2):
        if combined[i] == combined[j]:
            raise DegeneracyError("coincident points across the two sets",
                                  [("duplicate", (i, j))])
    criticals = set()
    for (x1, y1, w1), (x2, y2, w2) in itertools.combinations(combined, 2):
        # the normal of the difference, scaled by w1·w2 > 0
        v = _reduce_dir((y1 * w2 - y2 * w1, x2 * w1 - x1 * w2))
        criticals.add(v)
        criticals.add((-v[0], -v[1]))
    criticals = list(criticals)
    keys, _ = _angle_keys(criticals)
    ordered = [v for _, v in sorted(zip(keys, criticals))]
    candidates = []
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        candidates.append(_reduce_dir((a[0] + b[0], a[1] + b[1])))
    candidates.extend(ordered)
    pts0, den0 = _cleared(set0)
    pts1, den1 = _cleared(set1)
    for vx, vy in candidates:
        # projections and medians over den0 and den1, compared crosswise
        lo0, hi0 = _median_interval([vx * x + vy * y for x, y in pts0])
        lo1, hi1 = _median_interval([vx * x + vy * y for x, y in pts1])
        lo = (lo0, den0) if lo0 * den1 >= lo1 * den0 else (lo1, den1)
        hi = (hi0, den0) if hi0 * den1 <= hi1 * den0 else (hi1, den1)
        if lo[0] * hi[1] > hi[0] * lo[1]:
            continue
        c = (Fraction(*lo) + Fraction(*hi)) / 2
        den = vx * vx + vy * vy
        flat = AffineFlat(base=Point(Fraction(vx, den) * c, Fraction(vy, den) * c),
                          directions=(Point(-vy, vx),))
        report = verify_transversal(flat, [set0, set1])
        per_set = []
        for pset, rep in zip((set0, set1), report.per_set):
            floor_count = _median_floor_count(pset.n)
            if rep.count < floor_count:
                raise InternalError(
                    f"median construction fell below its floor: {rep.count} < {floor_count}")
            per_set.append(replace(rep, median_floor_count=floor_count))
        return flat, TransversalReport(d=2, m=1, per_set=tuple(per_set))
    raise InternalError("direction sweep found no median overlap; the parity "
                        "argument guarantees one, so this is a bug")
