"""Window selection: thresholds, walk semantics, and the selection bound."""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftvote import (
    AdaptiveConfig,
    CorrelationBank,
    GapProbe,
    STOP_HORIZON,
    STOP_SCHEDULE,
    STOP_THRESHOLD,
    STOPS,
    WindowDecision,
    WindowSchedule,
    correlation_from_accuracies,
    drift_threshold,
    select_window,
    statistical_error,
    union_bound_constant,
)
from driftvote.adaptive import _walk

mp.mp.dps = 40


def test_drift_threshold_frozen_value():
    a = union_bound_constant(3, 20, 0.1)
    # frozen from 40-digit evaluation: A * (2*0.1/sqrt(4) + sqrt((1 - 4/8)/4))
    assert drift_threshold(4, 8, 0.1, a) == pytest.approx(1.7865520685952367, abs=1e-12)


def test_drift_threshold_against_high_precision():
    a = union_bound_constant(3, 20, 0.1)
    for r_small, r_large, beta in [(1, 2, 0.1), (4, 8, 0.1), (64, 128, 0.4), (16, 64, 1.0)]:
        want = mp.mpf(a) * (
            2 * mp.mpf(beta) / mp.sqrt(r_small)
            + mp.sqrt((1 - mp.mpf(r_small) / r_large) / r_small)
        )
        assert drift_threshold(r_small, r_large, beta, a) == pytest.approx(
            float(want), rel=1e-12
        )


def test_drift_threshold_zero_beta():
    # with beta = 0 only the estimate-difference band remains
    assert drift_threshold(1, 2, 0.0, 2.0) == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-15)


def test_drift_threshold_validation():
    with pytest.raises(ValueError):
        drift_threshold(0, 2, 0.1, 1.0)
    with pytest.raises(ValueError):
        drift_threshold(4, 4, 0.1, 1.0)
    with pytest.raises(ValueError):
        drift_threshold(4, 2, 0.1, 1.0)
    with pytest.raises(ValueError):
        drift_threshold(1.5, 2, 0.1, 1.0)  # its sizes follow the ladder rule
    with pytest.raises(ValueError):
        drift_threshold(1, 2, -0.1, 1.0)
    for beta in (math.nan, math.inf):  # NaN passes a `beta < 0` test
        with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
            drift_threshold(1, 2, beta, 1.0)
    with pytest.raises(ValueError):
        drift_threshold(1, 2, 0.1, 0.0)


def test_thresholds_decrease_along_doubling_ladder():
    cfg = AdaptiveConfig(n=3)
    sizes = cfg.schedule.sizes
    thr = [drift_threshold(a, b, cfg.beta, cfg.bound_const) for a, b in zip(sizes, sizes[1:])]
    assert all(t > 0 for t in thr)
    assert all(x > y for x, y in zip(thr, thr[1:]))


@pytest.mark.parametrize("cfg", [
    AdaptiveConfig(n=3),
    AdaptiveConfig(n=8, schedule=WindowSchedule((1, 3, 9, 27, 81)), beta=0.4, delta=0.01),
    AdaptiveConfig(n=32, schedule=WindowSchedule((2, 5, 6, 100))),
], ids=["default", "ladder-3", "uneven"])
def test_config_thresholds_are_the_drift_thresholds_between_rungs(cfg):
    sizes = cfg.schedule.sizes
    assert type(cfg.thresholds) is tuple and len(cfg.thresholds) == len(sizes) - 1
    for k, threshold in enumerate(cfg.thresholds):
        assert threshold == drift_threshold(sizes[k], sizes[k + 1], cfg.beta, cfg.bound_const)
    assert cfg.thresholds is cfg.thresholds  # computed once per config


def agreeing_votes(steps):
    """Deterministic stream whose pairwise products are always +1, so every
    windowed correlation matrix is exactly all-ones and every gap is 0."""
    row = np.array([1, 1, 1], dtype=np.int8)
    return np.tile(row, (steps, 1)) * np.where(np.arange(steps) % 2 == 0, 1, -1)[:, None]


def test_stationary_walk_reaches_horizon():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(8))  # max 128
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(100):
        bank.push(row)
    decision = select_window(bank, cfg)
    assert decision.window == 64  # largest ladder size <= 100
    assert decision.stop_reason == STOP_HORIZON
    assert all(p.gap == 0.0 for p in decision.probes)
    assert decision.chosen_index == len(decision.probes) + 1


def test_stationary_walk_exhausts_schedule():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(5))  # max 16
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(16):
        bank.push(row)
    decision = select_window(bank, cfg)
    assert decision.window == 16
    assert decision.stop_reason == STOP_SCHEDULE
    assert len(decision.probes) == 4


def test_schedule_exhausted_wins_when_both_limits_bind():
    # at t exactly equal to the last ladder size, the k-limit is checked first
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule((1, 2, 4)))
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(4):
        bank.push(row)
    assert select_window(bank, cfg).stop_reason == STOP_SCHEDULE


def test_break_detection_stops_the_walk():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(10))
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(400):
        bank.push(row)
    # abrupt change: labeler 1 starts disagreeing with 0 and 2 on every step
    flipped = agreeing_votes(120) * np.array([1, -1, 1], dtype=np.int8)
    for row in flipped:
        bank.push(row)
    decision = select_window(bank, cfg)
    assert decision.stop_reason == STOP_THRESHOLD
    assert decision.window <= 128
    assert decision.probes[-1].gap > decision.probes[-1].threshold
    for probe in decision.probes[:-1]:
        assert probe.gap <= probe.threshold
    assert decision.chosen_index == len(decision.probes)


def test_probe_bookkeeping():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(6))
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(32):
        bank.push(row)
    decision = select_window(bank, cfg)
    for k, probe in enumerate(decision.probes, start=1):
        assert probe.index == k
        assert probe.next_window == 2 * probe.window
        assert probe.threshold == drift_threshold(
            probe.window, probe.next_window, cfg.beta, cfg.bound_const
        )
    assert decision.window <= min(bank.t, cfg.schedule.max_size)


def test_select_window_requires_minimum_history():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule((2, 4, 8)))
    bank = CorrelationBank(3, cfg.schedule.sizes)
    bank.push([1, 1, 1])
    with pytest.raises(ValueError):
        select_window(bank, cfg)  # t=1 < smallest window 2


def test_select_window_rejects_mismatched_bank():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule((1, 2, 4, 8)))
    # missing most schedule sizes, tracking one extra size, lacking one
    for tracked in ((1, 2), (1, 2, 4, 8, 16), (1, 2, 8)):
        bank = CorrelationBank(3, tracked)
        for row in agreeing_votes(8):
            bank.push(row)
        with pytest.raises(ValueError, match="bank tracks"):
            select_window(bank, cfg)


def test_select_window_rejects_a_config_for_another_labeler_count():
    # the ladders match, so only the count tells them apart: an n = 8
    # config would walk an n = 3 bank with its own, larger thresholds
    cfg = AdaptiveConfig(n=8, schedule=WindowSchedule((1, 2, 4, 8)))
    assert cfg.thresholds[0] > AdaptiveConfig(n=3, schedule=cfg.schedule).thresholds[0]
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(8):
        bank.push(row)
    with pytest.raises(ValueError, match="config expects 8 labelers, bank has 3"):
        select_window(bank, cfg)


def reference_walk(bank, config):
    """The per-rung walk that ``select_window`` replaced, kept as its
    oracle: one ``bank.correlation`` and one gap per comparison, over a
    bank that tracks exactly the schedule's sizes."""
    sizes = config.schedule.sizes
    t = bank.t
    if t < sizes[0]:
        raise ValueError(f"need at least {sizes[0]} votes before selecting, have {t}")
    thresholds = config.thresholds

    k = 0  # 0-based index of the currently accepted window
    cur = bank.correlation(sizes[0])
    probes: list[GapProbe] = []
    while True:
        if k + 1 >= len(sizes):
            stop = STOP_SCHEDULE
            break
        if sizes[k + 1] > t:
            stop = STOP_HORIZON
            break
        nxt = bank.correlation(sizes[k + 1])
        gap = float(np.abs(nxt - cur).max())
        probes.append(GapProbe(k + 1, sizes[k], sizes[k + 1], gap, thresholds[k]))
        if gap <= thresholds[k]:
            k += 1
            cur = nxt
        else:
            stop = STOP_THRESHOLD
            break
    return WindowDecision(k + 1, sizes[k], stop, tuple(probes))


def outcome(walk, bank, config):
    """The decision, or the type and message of the error raised."""
    try:
        return walk(bank, config)
    except ValueError as err:
        return type(err), str(err)


@st.composite
def walk_cases(draw):
    """A bank after a two-block stream of n in [3, 5] labelers (the second
    block mirrors one labeler's accuracy, so walks can stop on a
    threshold), an uneven ladder that need not start at 1, t below, at and
    past the ladder's largest size, and a bank that tracks the ladder's
    sizes exactly or, in three draws of ten, also extra sizes, one of the
    three then missing some of the ladder's."""
    n = draw(st.integers(3, 5))
    sizes = tuple(sorted(draw(st.lists(st.integers(1, 300), min_size=2, max_size=7, unique=True))))
    tracked = set(sizes)
    mismatch = draw(st.integers(0, 9))
    if mismatch >= 7:
        tracked |= set(draw(st.lists(st.integers(1, 400), min_size=1, max_size=4)))
    if mismatch == 9:
        tracked -= set(draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=2)))
    steps = draw(st.one_of(
        st.integers(sizes[0], 2 * sizes[-1]),
        st.sampled_from((sizes[-1] - 1, sizes[-1], sizes[-1] + 1, sizes[0], sizes[0] - 1)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = int(rng.integers(0, steps + 1))
    before = rng.uniform(0.8, 1.0, size=n)
    after = before.copy()
    flip = draw(st.integers(0, n - 1))
    after[flip] = 1.0 - before[flip]
    acc = np.where(np.arange(steps)[:, None] < edge, before, after)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.where(rng.random((steps, n)) < acc, truth[:, None], -truth[:, None])
    beta = draw(st.sampled_from((0.01, 0.1, 0.4)))
    config = AdaptiveConfig(n=n, schedule=WindowSchedule(sizes), beta=beta)
    bank = CorrelationBank(n, sorted(tracked) or [401])
    for row in votes:
        bank.push(row)
    return bank, config


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_select_window_matches_per_rung_walk(case):
    bank, config = case
    if bank.sizes != config.schedule.sizes:  # a bank walks its own ladder only
        with pytest.raises(ValueError, match="bank tracks"):
            select_window(bank, config)
    else:
        assert outcome(select_window, bank, config) == outcome(reference_walk, bank, config)


def test_gap_probe_is_immutable():
    probe = GapProbe(1, 1, 2, 0.25, 0.5)
    with pytest.raises(AttributeError):
        probe.gap = 0.0
    assert probe == GapProbe(index=1, window=1, next_window=2, gap=0.25, threshold=0.5)


def test_nan_gap_fails_the_walk():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(6))
    bank = CorrelationBank(3, cfg.schedule.sizes)
    for row in agreeing_votes(40):
        bank.push(row)
    sums = bank._sums.astype(float)
    sums[3, 0] = np.nan  # pair (0, 1) of the window of 8
    with mock.patch.object(bank, "_sums", sums):
        decision = select_window(bank, cfg)
        want = reference_walk(bank, cfg)
    assert (decision.window, decision.stop_reason) == (4, STOP_THRESHOLD)
    assert math.isnan(decision.probes[-1].gap)
    assert repr(decision) == repr(want)  # NaN != NaN, but its repr matches


WALK_SIZES = (100, 200, 400, 800)  # long enough for thresholds below 0.35


@pytest.mark.parametrize("t, rungs, k, stop", [
    # a NaN gap between the windows of 200 and 400 fails the walk
    (800, (0.5, 0.5, math.nan, 0.5), 1, STOP_THRESHOLD),
    # a gap that fails past the horizon t < 400 is never compared
    (300, (0.5, 0.5, -0.5, -0.5), 1, STOP_HORIZON),
    # t at the largest rung with every gap passing accepts the ladder's end
    (800, (0.5, 0.5, 0.5, 0.5), 3, STOP_SCHEDULE),
    # a gap that fails before the horizon stops the walk
    (800, (0.5, 0.5, -0.5, -0.5), 1, STOP_THRESHOLD),
], ids=["nan-gap", "fail-past-horizon", "t-at-last-rung", "fail-before-horizon"])
def test_batched_walk_cases(t, rungs, k, stop):
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule(WALK_SIZES))
    # (K, P) pairs of 3 labelers: every pair of rung k holds rungs[k]
    pairs = np.repeat(np.array(rungs)[:, None], 3, axis=1)
    got_k, code = _walk(pairs[None], np.array([t]), np.array(WALK_SIZES), cfg.thresholds)
    assert (int(got_k[0]), STOPS[code[0]]) == (k, stop)
    assert code.dtype == np.int8  # the dtype of Reports.stop_reason
    # the online walk over a bank in the same state
    bank = CorrelationBank.from_history(3, agreeing_votes(t), WALK_SIZES)
    # window sums that divide to ``pairs`` on every rung within the horizon:
    # each rung's pair sums, then its size in the count slot
    counted = np.append(pairs, np.ones((len(WALK_SIZES), 1)), axis=1)
    with mock.patch.object(bank, "_sums", counted * np.array(WALK_SIZES)[:, None]):
        decision = select_window(bank, cfg)
    assert (decision.chosen_index - 1, decision.stop_reason) == (k, stop)


def test_selection_error_bound_monte_carlo():
    """Stationary coverage of the near-optimality bound.

    On a stationary stream the best window is the longest one, so the
    chosen window's correlation error should stay within
    overhead * statistical_error(min(t, max_size)) with probability at
    least 1 - delta.  The setup (beta = sqrt(2) - 1, 17 doubling windows)
    keeps that bound below 1 so the check is not vacuous.
    """
    schedule = WindowSchedule.doubling(17)
    cfg = AdaptiveConfig(n=3, schedule=schedule, beta=math.sqrt(2) - 1)
    p = np.array([0.9, 0.9, 0.6])
    c_true = correlation_from_accuracies(p)
    bound = cfg.overhead * statistical_error(schedule.max_size, cfg.bound_const)
    assert bound < 1.0
    hits = 0
    trials = 200
    for child in np.random.SeedSequence(4242).spawn(trials):
        rng = np.random.default_rng(child)
        steps = schedule.max_size
        truth = 2 * rng.integers(0, 2, steps) - 1
        votes = np.where(
            rng.random((steps, 3)) < p, truth[:, None], -truth[:, None]
        ).astype(np.int8)
        bank = CorrelationBank.from_history(3, votes, schedule.sizes)
        decision = select_window(bank, cfg)
        err = np.abs(bank.correlation(decision.window) - c_true).max()
        hits += err <= bound
    assert hits / trials >= 1.0 - cfg.delta
