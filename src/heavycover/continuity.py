"""Dependence of the max-depth point on a one-parameter family of point sets.

The maximizing point is not a continuous function of the data: tracking it
along a piecewise-linear motion exhibits jumps. What persists is the heavy
region itself, witnessed here by a point of depth at least tau * C(n, 3) at
every sampled time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import DegeneracyError, DimensionError, DomainError, InternalError
from .exactgeom import Point, dehomog, general_position_report, homog
from .selection import (
    LabeledPointSet,
    _candidate_homogs,
    _closed_depth_homog,
    _homog_lex_cmp,
    binom,
    depth_naive,
    max_depth_point,
)
from .exactgeom import scalar


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
        """Exact per-point linear interpolation at rational time t in [0, 1]."""
        t = scalar(t)
        if t < 0 or t > 1:
            raise DomainError("time must lie in [0, 1]")
        frames = self.keyframes
        for (t0, ps0), (t1, ps1) in zip(frames, frames[1:]):
            if t0 <= t <= t1:
                lam = (t - t0) / (t1 - t0)
                pts = tuple(
                    Point(*(a + lam * (b - a) for a, b in zip(p.coords, r.coords)))
                    for p, r in zip(ps0.points, ps1.points)
                )
                return LabeledPointSet(pts, provenance=f"path@t={t}")
        raise InternalError("time not covered by keyframes")


def sample_path(path: MotionPath, k: int):
    """Point sets at the k evenly spaced rational times j/(k-1)."""
    if k < 2:
        raise DomainError("need at least 2 samples")
    return [path.at(Fraction(j, k - 1)) for j in range(k)]


def heavy_region_witness(pset: LabeledPointSet, tau):
    """Lexicographically least candidate vertex of depth >= tau * C(n, 3), or
    None when no candidate qualifies.

    Candidates are the line-arrangement vertices of ``candidate_vertices``. At
    tau <= 0 every candidate qualifies, so the witness is the lexicographically
    least line-arrangement vertex: usually far outside the data with depth 0,
    and never a data point or segment crossing."""
    if pset.dim != 2:
        raise DimensionError("heavy_region_witness is planar only")
    violations = general_position_report(pset.points)
    if violations:
        raise DegeneracyError("point set is not in general position", violations)
    tau = scalar(tau)
    threshold = tau * binom(pset.n, 3)
    pts_h = [homog(p) for p in pset.points]
    keys = sorted((k for k, _ in _candidate_homogs(pts_h)),
                  key=cmp_to_key(_homog_lex_cmp))
    for key in keys:
        count = _closed_depth_homog(key, pts_h)
        if count >= threshold:
            return dehomog(key), count
    return None


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
    moved = _linf(prev, cur)
    data_moved = _max_displacement(prev_set, cur_set)
    return moved > jump_threshold and data_moved <= data_threshold


def track_argmax(path: MotionPath, k: int, jump_threshold,
                 data_threshold=None):
    """Max-depth point at k evenly spaced samples, flagging jumps.

    A jump is flagged when the argmax moves farther (in max-coordinate
    distance) than ``jump_threshold`` between consecutive non-degenerate
    samples while no data point moved farther than ``data_threshold``
    (defaulting to the jump threshold itself). Degenerate samples are marked
    and skipped, never perturbed.
    """
    jump_threshold = scalar(jump_threshold)
    data_threshold = jump_threshold if data_threshold is None else scalar(data_threshold)
    records = []
    prev_argmax = None
    prev_set = None
    for j, pset in enumerate(sample_path(path, k)):
        t = Fraction(j, k - 1)
        if general_position_report(pset.points):
            records.append(SweepRecord(time=t, degenerate=True))
            prev_argmax = None
            prev_set = None
            continue
        q, rep = max_depth_point(pset, witness_limit=0)
        jump = _jump_flag(prev_argmax, q, prev_set, pset,
                          jump_threshold, data_threshold)
        records.append(SweepRecord(time=t, degenerate=False, argmax=q,
                                   count=rep.count, jump=jump))
        prev_argmax = q
        prev_set = pset
    return records


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

    The witness (lexicographically least candidate of depth >= tau * C(n, 3))
    is recomputed at every non-degenerate sample from the same candidate scan
    that powers the argmax; jumps of the argmax are recorded as events while
    the witness chain documents that the heavy region itself persists.
    """
    tau = scalar(tau)
    jump_threshold = scalar(jump_threshold)
    data_threshold = jump_threshold if data_threshold is None else scalar(data_threshold)
    records = []
    jump_events = []
    all_witnessed = True
    degenerate = 0
    prev = None  # (time, argmax, count, pset)
    for j, pset in enumerate(sample_path(path, k)):
        t = Fraction(j, k - 1)
        if general_position_report(pset.points):
            records.append(SweepRecord(time=t, degenerate=True))
            degenerate += 1
            prev = None
            continue
        threshold = tau * binom(pset.n, 3)
        pts_h = [homog(p) for p in pset.points]
        keys = sorted((key for key, _ in _candidate_homogs(pts_h)),
                      key=cmp_to_key(_homog_lex_cmp))
        best_key = None
        best_count = -1
        witness = None
        for key in keys:
            c = _closed_depth_homog(key, pts_h)
            if witness is None and c >= threshold:
                witness = (dehomog(key), c)
            if c > best_count:  # first in lex order wins ties
                best_key, best_count = key, c
        argmax = dehomog(best_key)
        check = depth_naive(argmax, pset)
        if check.count != best_count:
            raise InternalError("candidate scan disagrees with exhaustive count")
        if witness is None:
            all_witnessed = False
        jump = False
        if prev is not None:
            jump = _jump_flag(prev[1], argmax, prev[3], pset,
                              jump_threshold, data_threshold)
            if jump:
                jump_events.append((prev[0], t, prev[1], argmax, prev[2], best_count))
        records.append(SweepRecord(time=t, degenerate=False, argmax=argmax,
                                   count=best_count, witness=witness, jump=jump))
        prev = (t, argmax, best_count, pset)
    return ContinuityReport(records=tuple(records), jump_events=tuple(jump_events),
                            all_witnessed=all_witnessed, degenerate_samples=degenerate)
