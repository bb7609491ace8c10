import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from heavycover.continuity import (
    MotionPath,
    SweepRecord,
    continuity_demo,
    heavy_region_witness,
    sample_path,
)
from heavycover.datasets import random_motion_path, random_point_set
from heavycover.errors import DegeneracyError, DomainError
from heavycover.exactgeom import Point
from heavycover.selection import (
    LabeledPointSet,
    binom,
    candidate_vertices,
    closed_depth_count,
    max_depth_point,
)
from heavycover.verification import crafted_jump_path

TRI = LabeledPointSet((Point(0, 0), Point(4, 0), Point(0, 4)))


def constant_path(pset):
    return MotionPath(((Fraction(0), pset), (Fraction(1), pset)))


def orbit_fixture():
    """Crafted 5-point path: a satellite orbits a 4-point cluster; found by
    scanning candidate paths until the tracked argmax jumped (build-time scan),
    then frozen here."""
    core = [Point(0, 0), Point(2, 0), Point(1, 2), Point(1, 1)]
    orbit = [Point(6, -5), Point(6, 6), Point(-5, 6), Point(-5, -5), Point(6, -5)]
    frames = tuple((Fraction(j, 4), LabeledPointSet(tuple(core + [s])))
                   for j, s in enumerate(orbit))
    return MotionPath(frames)


def test_motion_path_validation():
    with pytest.raises(DomainError):
        MotionPath(((Fraction(0), TRI),))
    with pytest.raises(DomainError):
        MotionPath(((Fraction(0), TRI), (Fraction(1, 2), TRI)))
    with pytest.raises(DomainError):
        MotionPath(((Fraction(0), TRI), (Fraction(0), TRI)))
    small = LabeledPointSet((Point(0, 0), Point(1, 0), Point(0, 1), Point(2, 2)))
    with pytest.raises(DomainError):
        MotionPath(((Fraction(0), TRI), (Fraction(1), small)))


def test_sample_path_constant():
    frames = sample_path(constant_path(TRI), 5)
    assert len(frames) == 5
    assert all(f.points == TRI.points for f in frames)


def test_sample_path_midpoint_average():
    a = LabeledPointSet((Point(0, 0), Point(2, 0), Point(0, 2)))
    b = LabeledPointSet((Point(4, 0), Point(2, 6), Point(0, 4)))
    mid = sample_path(MotionPath(((Fraction(0), a), (Fraction(1), b))), 3)[1]
    assert mid.points == (Point(2, 0), Point(2, 3), Point(0, 3))


def test_sample_path_seeded_frame_matches_direct_formula():
    path = random_motion_path(5, 77)
    frames = sample_path(path, 11)
    t = Fraction(5, 10)
    (t0, ps0), (t1, ps1) = path.keyframes
    lam = (t - t0) / (t1 - t0)
    expected = tuple(Point(*(x + lam * (y - x) for x, y in zip(p.coords, q.coords)))
                     for p, q in zip(ps0.points, ps1.points))
    assert frames[5].points == expected


def test_heavy_region_witness_trivial_taus():
    assert heavy_region_witness(TRI, 0) is not None
    w = heavy_region_witness(TRI, 1)
    assert w is not None
    point, count = w
    assert count == 1 == binom(3, 3)
    assert point in TRI.points


def test_heavy_region_witness_threshold_is_exact():
    ps = random_point_set(9, 3)
    tau = Fraction(2, 9)
    w = heavy_region_witness(ps, tau)
    assert w is not None
    _, count = w
    assert count >= tau * binom(9, 3)


def test_heavy_region_witness_seeded_slack_bound():
    # tau = 2/9 - 3/12; presence follows from the selection bound with slack
    tau = Fraction(2, 9) - Fraction(3, 12)
    for seed in range(40, 50):
        ps = random_point_set(12, seed)
        w = heavy_region_witness(ps, tau)
        assert w is not None
        _, count = w
        assert count >= tau * binom(12, 3)


def test_heavy_region_witness_rejects_degenerate():
    bad = LabeledPointSet((Point(0, 0), Point(1, 1), Point(2, 2), Point(5, 0)))
    with pytest.raises(DegeneracyError):
        heavy_region_witness(bad, 0)


def test_heavy_region_witness_needs_three_points():
    for pts in ((Point(0, 0),), (Point(0, 0), Point(4, 0))):
        with pytest.raises(DomainError, match="^need at least 3 points$"):
            heavy_region_witness(LabeledPointSet(pts), Fraction(1, 5))


def test_heavy_region_witness_nonpositive_tau_is_least_data_point():
    # every point qualifies, so the witness is the lexicographically least
    # data point with its true count, not a far-away count-0 vertex
    for seed, tau in itertools.product(range(4), (0, Fraction(-1, 3))):
        ps = random_point_set(7, seed)
        point, count = heavy_region_witness(ps, tau)
        assert point == min(ps.points, key=lambda p: p.coords)
        assert count == closed_depth_count(point, ps.points) > 0


def test_heavy_region_witness_matches_line_arrangement_oracle():
    # lex-least line-arrangement vertex of depth >= tau * C(n, 3)
    rng = random.Random(909)
    for n, near_convex in itertools.product(range(5, 13), (False, True)):
        ps = random_point_set(n, rng.randrange(10 ** 6), near_convex=near_convex)
        counts = sorted((q.coords, closed_depth_count(q, ps.points), q)
                        for q in candidate_vertices(ps).points)
        total = binom(n, 3)
        best = Fraction(max(c for _, c, _ in counts), total)
        for tau in (best, best + Fraction(1, 2 * total), Fraction(2, 9),
                    Fraction(1, 10)):
            expected = next(((q, c) for _, c, q in counts if c >= tau * total), None)
            assert heavy_region_witness(ps, tau) == expected
            if tau > best:
                assert expected is None


def test_continuity_demo_constant_path_no_jumps():
    ps = random_point_set(6, 14)
    records = continuity_demo(constant_path(ps), 7, Fraction(0)).records
    assert all(not r.jump for r in records)
    assert len({r.argmax for r in records}) == 1


def test_continuity_demo_translation_equivariance():
    ps = random_point_set(6, 15)
    shift = Point(1, 0)
    moved = LabeledPointSet(tuple(p + shift for p in ps.points))
    path = MotionPath(((Fraction(0), ps), (Fraction(1), moved)))
    # generous threshold: no jumps
    records = continuity_demo(path, 5, Fraction(0), jump_threshold=Fraction(10)).records
    q0, _ = max_depth_point(ps)
    for j, rec in enumerate(records):
        assert not rec.degenerate
        lam = Fraction(j, 4)
        assert rec.argmax == Point(q0.x + lam, q0.y)
        assert not rec.jump


@pytest.mark.parametrize("jump, data, name", [(-1, 100, "jump_threshold"),
                                              (Fraction(1, 2), Fraction(-1, 9),
                                               "data_threshold"),
                                              (Fraction(-1, 2), None, "jump_threshold")],
                         ids=["jump", "data", "jump-as-data"])
def test_continuity_demo_rejects_negative_thresholds(jump, data, name):
    # a negative jump threshold flags samples where the argmax did not move,
    # and a negative data threshold can flag nothing
    path = random_motion_path(6, 1)
    with pytest.raises(DomainError, match=f"^{name} must be at least 0, got "):
        continuity_demo(path, 5, 0, jump_threshold=jump, data_threshold=data)


def test_continuity_demo_accepts_zero_thresholds():
    path = random_motion_path(6, 1)
    report = continuity_demo(path, 5, 0, jump_threshold=0, data_threshold=0)
    assert len(report.records) == 5


def test_continuity_demo_crafted_orbit_jumps():
    records = continuity_demo(orbit_fixture(), 21, Fraction(0), Fraction(1, 2),
                              Fraction(3)).records
    assert sum(1 for r in records if r.jump) >= 1
    assert any(r.degenerate for r in records)  # the orbit crosses collinearity


def test_continuity_demo_constant_path():
    ps = random_point_set(7, 16)
    report = continuity_demo(constant_path(ps), 6, Fraction(0))
    assert report.all_witnessed
    assert report.jump_count == 0
    witnesses = {r.witness for r in report.records if not r.degenerate}
    assert len(witnesses) == 1


def test_continuity_demo_crafted_path_witnesses_and_jumps():
    tau = Fraction(2, 9) - Fraction(3, 5)  # slack bound at n = 5
    report = continuity_demo(orbit_fixture(), 21, tau,
                             jump_threshold=Fraction(1, 2),
                             data_threshold=Fraction(3))
    assert report.all_witnessed
    assert report.jump_count >= 1
    before = report.jump_events[0]
    assert before[2] != before[3]  # argmax genuinely moved
    for rec in report.records:
        if not rec.degenerate:
            assert rec.witness is not None
            _, count = rec.witness
            assert count >= tau * binom(5, 3)


def test_continuity_demo_witness_consistent_with_argmax():
    # whenever tau is at most the max fraction, a witness must exist
    ps = random_point_set(8, 18)
    _, rep = max_depth_point(ps)
    tau = rep.fraction  # exactly attainable
    report = continuity_demo(constant_path(ps), 3, tau)
    assert report.all_witnessed


def _per_sample_report(path, k, tau, jump_threshold, data_threshold):
    """(records, jump events, all witnessed, degenerate samples) rebuilt from
    one max_depth_point and one heavy_region_witness call per sample, each
    summary tallied as the samples go."""
    records, events, witnessed, degenerate, prev = [], [], True, 0, None
    for j, pset in enumerate(sample_path(path, k)):
        t = Fraction(j, k - 1)
        try:
            argmax, rep = max_depth_point(pset, witness_limit=0)
        except DegeneracyError:
            records.append(SweepRecord(time=t, degenerate=True))
            degenerate += 1
            prev = None
            continue
        jump = prev is not None and (
            max(abs(a - b) for a, b in zip(prev[1].coords, argmax.coords)) > jump_threshold
            and max(abs(a - b) for p, q in zip(prev[3].points, pset.points)
                    for a, b in zip(p.coords, q.coords)) <= data_threshold)
        if jump:
            events.append((prev[0], t, prev[1], argmax, prev[2], rep.count))
        witness = heavy_region_witness(pset, tau)
        witnessed = witnessed and witness is not None
        records.append(SweepRecord(time=t, degenerate=False, argmax=argmax, count=rep.count,
                                   witness=witness, jump=jump))
        prev = (t, argmax, rep.count, pset)
    return tuple(records), tuple(events), witnessed, degenerate


def _assert_per_sample(report, path, k, tau, jump_threshold, data_threshold):
    records, events, witnessed, degenerate = _per_sample_report(
        path, k, tau, jump_threshold, data_threshold)
    assert report.records == records
    assert report.jump_events == events
    assert report.jump_count == len(events)
    assert report.all_witnessed is witnessed
    assert report.degenerate_samples == degenerate


def _taus(n):
    return Fraction(1, 10), Fraction(2, 9) - Fraction(3, n), Fraction(1, 3)


def test_continuity_demo_equals_per_sample_searches():
    # one walk per sample gives what the two public searches give apart: on
    # three of the battery's paths (one tau each) and on the crafted orbit
    half = Fraction(1, 2)
    for p, tau in enumerate(_taus(10)):
        path = random_motion_path(10, 42 * 9001 + p)
        report = continuity_demo(path, 101, tau, jump_threshold=half)
        _assert_per_sample(report, path, 101, tau, half, half)
    # 13/20 * C(5, 3) = 13/2 lies between two counts the orbit reaches
    for tau in _taus(5) + (Fraction(13, 20),):
        report = continuity_demo(crafted_jump_path(), 21, tau, half, Fraction(3))
        assert report.jump_count >= 1 and report.degenerate_samples >= 1
        _assert_per_sample(report, crafted_jump_path(), 21, tau, half, Fraction(3))


def test_continuity_report_values_follow_its_records():
    # the report stores only its records: every summary follows a change to them
    half = Fraction(1, 2)
    report = continuity_demo(crafted_jump_path(), 21, Fraction(1, 10), half, Fraction(3))
    records = report.records
    assert report.all_witnessed and report.jump_count >= 1
    assert replace(report, records=records[:1]).jump_events == ()
    j = next(i for i, r in enumerate(records) if r.jump)
    a, b = records[j - 1], records[j]
    assert (a.time, b.time, a.argmax, b.argmax, a.count, b.count) in report.jump_events
    unflagged = replace(report, records=records[:j] + (replace(b, jump=False),) + records[j + 1:])
    assert unflagged.jump_count == report.jump_count - 1
    w = next(i for i, r in enumerate(records) if not r.degenerate)
    lost = replace(report, records=records[:w] + (replace(records[w], witness=None),)
                   + records[w + 1:])
    assert not lost.all_witnessed
    dropped = replace(report, records=records[:w] + (
        SweepRecord(time=records[w].time, degenerate=True),) + records[w + 1:])
    assert dropped.all_witnessed
    assert dropped.degenerate_samples == report.degenerate_samples + 1


def _reference_at(path, t):
    """The Fraction interpolation of ``MotionPath.at``, kept as an oracle for
    the one on homogeneous coordinates."""
    for (t0, ps0), (t1, ps1) in zip(path.keyframes, path.keyframes[1:]):
        if t0 <= t <= t1:
            lam = (t - t0) / (t1 - t0)
            return tuple(Point(*(a + lam * (b - a) for a, b in zip(p.coords, r.coords)))
                         for p, r in zip(ps0.points, ps1.points))
    raise AssertionError("time not covered")


def test_motion_path_at_equals_fraction_interpolation():
    # keyframes at uneven times; near-convex frames give every point its own
    # denominator, and a frame of integers and a frame of halves mix with them
    ints = LabeledPointSet(tuple(Point(k, k * k - 3) for k in range(6)))
    halves = LabeledPointSet(tuple(Point(Fraction(2 * k + 1, 2), -k) for k in range(6)))
    path = MotionPath(((0, random_point_set(6, 4, near_convex=True)),
                       (Fraction(1, 7), ints),
                       (Fraction(2, 3), halves),
                       (1, random_point_set(6, 5))))
    times = {Fraction(j, 100) for j in range(101)} | {Fraction(1, 7), Fraction(2, 3)}
    for t in sorted(times):
        got = path.at(t)
        assert got.points == _reference_at(path, t)
        assert [repr(p) for p in got.points] == [repr(p) for p in _reference_at(path, t)]
        assert got.provenance == f"path@t={t}"
    with pytest.raises(DomainError):
        path.at(Fraction(-1, 9))
