"""Dependence of the max-depth point on a one-parameter family of point sets.

The maximizing point is not a continuous function of the data: tracking it
along a piecewise-linear motion exhibits jumps. What persists is the heavy
region itself, witnessed here by a point of depth at least tau * C(n, 3) at
every sampled time. The argmax and the witness both come from one pass of the
segment-arrangement walk of ``selection``, which hands its scan engine each
segment's best crossing for either score (at most two per segment); this
module holds no scan of its own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import DegeneracyError, DimensionError, DomainError, InternalError
from .exactgeom import Point, dehomog, homog, scalar
from .selection import (
    LabeledPointSet,
    _checked_max,
    _closed_depth_homog,
    _walk_scan,
    binom,
)


@dataclass(frozen=True)
class MotionPath:
    """Keyframed family of equally sized point sets over time in [0, 1],
    interpolated linearly per point between keyframes."""

    keyframes: tuple  # ((time, LabeledPointSet), ...)

    def __post_init__(self):
        frames = tuple((scalar(t), ps) for t, ps in self.keyframes)
        object.__setattr__(self, "keyframes", frames)
        if len(frames) < 2:
            raise DomainError("a motion path needs at least two keyframes")
        times = [t for t, _ in frames]
        if times[0] != 0 or times[-1] != 1:
            raise DomainError("keyframe times must start at 0 and end at 1")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise DomainError("keyframe times must be strictly increasing")
        n = frames[0][1].n
        d = frames[0][1].dim
        for _, ps in frames:
            if ps.n != n or ps.dim != d:
                raise DomainError("all keyframes must share cardinality and dimension")

    @property
    def n(self) -> int:
        return self.keyframes[0][1].n

    @property
    def dim(self) -> int:
        return self.keyframes[0][1].dim

    def at(self, t) -> LabeledPointSet:
        """Exact per-point linear interpolation at rational time t in [0, 1].

        With lam = (t - t0)/(t1 - t0) = k/m and keyframe points (u, w) and
        (v, z) in homogeneous coordinates, each coordinate is
        (u·z·(m - k) + v·w·k) / (w·z·m): integers, then one Fraction."""
        t = scalar(t)
        if t < 0 or t > 1:
            raise DomainError("time must lie in [0, 1]")
        frames = self.keyframes
        for (t0, ps0), (t1, ps1) in zip(frames, frames[1:]):
            if t0 <= t <= t1:
                lam = (t - t0) / (t1 - t0)
                k, m = lam.numerator, lam.denominator
                pts = []
                for p, r in zip(ps0.points, ps1.points):
                    *us, w = homog(p)
                    *vs, z = homog(r)
                    fu, fv, den = z * (m - k), w * k, w * z * m
                    pts.append(Point(*(Fraction(u * fu + v * fv, den)
                                       for u, v in zip(us, vs))))
                return LabeledPointSet(tuple(pts), provenance=f"path@t={t}")
        raise InternalError("time not covered by keyframes")


def sample_path(path: MotionPath, k: int):
    """Point sets at the k evenly spaced rational times j/(k-1)."""
    if k < 2:
        raise DomainError("need at least 2 samples")
    return [path.at(Fraction(j, k - 1)) for j in range(k)]


def _at_least(tau, n):
    """The witness scorer: True iff a count reaches tau * C(n, 3)."""
    return partial(operator.le, math.ceil(scalar(tau) * binom(n, 3)))


def _witness(tables, first):
    """The walk's first qualifying (True, key) as (point, count), or None."""
    qualifies, key = first
    if not qualifies:
        return None
    return dehomog(key), _closed_depth_homog(key, tables[0])


def heavy_region_witness(pset: LabeledPointSet, tau):
    """Lexicographically least point of depth >= tau * C(n, 3) with its count,
    or None when no point qualifies.

    The set {depth >= t} is closed and a union of faces of the segment
    arrangement, so its lexicographically least point is a data point or a
    proper crossing of two segments: the walk of ``max_depth_point`` visits
    them all. At tau <= 0 every point qualifies and the witness is the
    lexicographically least data point."""
    if pset.dim != 2:
        raise DimensionError("heavy_region_witness is planar only")
    if pset.n < 3:
        raise DomainError("need at least 3 points")
    tables, [first] = _walk_scan(pset, (_at_least(tau, pset.n),))
    return _witness(tables, first)


@dataclass(frozen=True)
class SweepRecord:
    """State at one sampled time of a tracked motion."""

    time: Fraction
    degenerate: bool
    argmax: Point | None = None
    count: int | None = None
    witness: tuple | None = None  # (Point, count) when a witness was requested
    jump: bool = False


def _linf(p: Point, q: Point) -> Fraction:
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


def _max_displacement(ps0: LabeledPointSet, ps1: LabeledPointSet) -> Fraction:
    return max(_linf(a, b) for a, b in zip(ps0.points, ps1.points))


def _jump_flag(prev, cur, prev_set, cur_set, jump_threshold, data_threshold):
    if prev is None or cur is None:
        return False
    return (_linf(prev, cur) > jump_threshold
            and _max_displacement(prev_set, cur_set) <= data_threshold)


@dataclass(frozen=True)
class ContinuityReport:
    """Joint record of argmax tracking and heavy-region persistence."""

    records: tuple
    jump_events: tuple  # (time_before, time_after, argmax_before, argmax_after,
    #                      count_before, count_after)
    all_witnessed: bool
    degenerate_samples: int

    @property
    def jump_count(self) -> int:
        return len(self.jump_events)


def continuity_demo(path: MotionPath, k: int, tau, jump_threshold=Fraction(1, 2),
                    data_threshold=None) -> ContinuityReport:
    """Track the argmax and a heavy-region witness together.

    At every non-degenerate sample one walk of the segment arrangement (its
    counts read off the orientation table, then integer steps) gives both the
    argmax, as ``max_depth_point`` finds it and re-checks it exhaustively, and
    the witness (lexicographically least point of depth >= tau * C(n, 3)), as
    ``heavy_region_witness`` finds it. Jumps of the argmax are recorded as events
    while the witness chain documents that the heavy region itself persists.
    A jump is flagged when the argmax moves farther (in max-coordinate
    distance) than ``jump_threshold`` between consecutive non-degenerate
    samples while no data point moved farther than ``data_threshold``
    (defaulting to the jump threshold itself); a negative threshold is a
    DomainError. Degenerate samples are marked and skipped, never perturbed.
    """
    if path.dim != 2:
        raise DimensionError("continuity_demo is planar only")
    if path.n < 3:
        raise DomainError("need at least 3 points")
    scorers = (None, _at_least(tau, path.n))
    jump_threshold = scalar(jump_threshold)
    data_threshold = jump_threshold if data_threshold is None else scalar(data_threshold)
    for name, value in (("jump_threshold", jump_threshold),
                        ("data_threshold", data_threshold)):
        if value < 0:
            raise DomainError(f"{name} must be at least 0, got {value}")
    records = []
    jump_events = []
    all_witnessed = True
    degenerate = 0
    prev = None  # (time, argmax, count, pset)
    for j, pset in enumerate(sample_path(path, k)):
        t = Fraction(j, k - 1)
        try:
            tables, (best, first) = _walk_scan(pset, scorers)
        except DegeneracyError:
            records.append(SweepRecord(time=t, degenerate=True))
            degenerate += 1
            prev = None
            continue
        argmax, rep = _checked_max(pset, best, 0)
        witness = _witness(tables, first)
        if witness is None:
            all_witnessed = False
        jump = False
        if prev is not None:
            jump = _jump_flag(prev[1], argmax, prev[3], pset,
                              jump_threshold, data_threshold)
            if jump:
                jump_events.append((prev[0], t, prev[1], argmax, prev[2], rep.count))
        records.append(SweepRecord(time=t, degenerate=False, argmax=argmax,
                                   count=rep.count, witness=witness, jump=jump))
        prev = (t, argmax, rep.count, pset)
    return ContinuityReport(records=tuple(records), jump_events=tuple(jump_events),
                            all_witnessed=all_witnessed, degenerate_samples=degenerate)
