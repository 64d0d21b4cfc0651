"""Vote aggregation: weights, tie handling, strategy runner."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftvote import (
    AdaptiveConfig,
    CorrelationBank,
    STOPS,
    STOP_HORIZON,
    STOP_SCHEDULE,
    STOP_THRESHOLD,
    WindowSchedule,
    generate_synthetic,
    log_odds_weights,
    majority_vote,
    parse_strategy,
    recover_accuracies,
    run_strategy,
    select_window,
    weighted_vote,
)
from driftvote import aggregate

LN9 = 2.1972245773362196  # ln(0.9/0.1), frozen
LN_SIX_TENTHS = 0.4054651081081644  # ln(0.6/0.4), frozen


def test_log_odds_weights_frozen_values():
    w = log_odds_weights(np.array([0.9, 0.5, 0.6, 0.1]))
    assert w[0] == pytest.approx(LN9, abs=1e-15)
    assert w[1] == 0.0
    assert w[2] == pytest.approx(LN_SIX_TENTHS, abs=1e-15)
    assert w[3] == pytest.approx(-LN9, abs=1e-15)


def test_log_odds_weights_rejects_boundary():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            log_odds_weights(np.array([0.8, bad]))


def test_log_odds_weights_rejects_nan():
    with pytest.raises(ValueError):
        log_odds_weights([np.nan, 0.5, 0.7])


def test_weighted_vote_rejects_nan_sum():
    with pytest.raises(ValueError, match="NaN"):
        weighted_vote([1, 1, -1], [np.nan, 1.0, 1.0])
    # inf - inf and 0 * inf: only the ValueError, no RuntimeWarning first
    with pytest.raises(ValueError, match="NaN"):
        weighted_vote([1, -1, 1], [np.inf, np.inf, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        weighted_vote([0, 1, 1], [np.inf, 1.0, 1.0])
    # opposite infinite votes are checked as the weights are
    with pytest.raises(ValueError, match="NaN"):
        weighted_vote([np.inf, -np.inf, 1], [1.0, 1.0, 1.0])
    # same-sign infinite terms sum to a signed infinity
    assert weighted_vote([1, 1, -1], [np.inf, np.inf, 1.0]) == 1
    assert weighted_vote([-1, 1, -1], [np.inf, -np.inf, 1.0]) == -1


def test_weighted_vote_follows_heavier_side():
    # one strong labeler against two weak ones: ln 9 > 2 ln(3/2)
    w = np.array([LN9, LN_SIX_TENTHS, LN_SIX_TENTHS])
    assert weighted_vote(np.array([1, -1, -1]), w) == 1
    assert weighted_vote(np.array([-1, 1, 1]), w) == -1


def test_weighted_vote_tie_goes_positive():
    # exact zero score: weights (1, 1, 2) against votes (1, 1, -1)
    assert weighted_vote(np.array([1, 1, -1]), np.array([1.0, 1.0, 2.0])) == 1
    # and the all-zero degenerate weighting
    assert weighted_vote(np.array([-1, -1, -1]), np.zeros(3)) == 1


def test_weighted_vote_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_vote(np.array([1, -1]), np.array([1.0, 1.0, 1.0]))


def test_majority_vote():
    assert majority_vote(np.array([1, 1, -1])) == 1
    assert majority_vote(np.array([-1, -1, 1])) == -1
    assert majority_vote(np.array([1, -1])) == 1  # tie -> positive
    assert majority_vote([-1, 0, -1, 1]) == -1
    # 200 int8 ones sum past the int8 range without wrapping
    assert majority_vote(np.ones(200, dtype=np.int8)) == 1
    assert majority_vote(-np.ones(200, dtype=np.int8)) == -1


def test_parse_strategy():
    assert parse_strategy("adaptive") == ("adaptive", None)
    assert parse_strategy("majority") == ("majority", None)
    assert parse_strategy("fixed:64") == ("fixed", 64)
    for bad in ("fixed", "fixed:", "fixed:0", "fixed:-3", "fixed:2.5", "oracle"):
        with pytest.raises(ValueError):
            parse_strategy(bad)


@pytest.fixture(scope="module")
def stream():
    from driftvote import BlockSpec, SyntheticStreamConfig

    cfg = SyntheticStreamConfig(
        blocks=(BlockSpec(400, (0.9, 0.8, 0.7)),), seed=7, n=3
    )
    return generate_synthetic(cfg)


def test_majority_matches_fixed_one(stream):
    votes = np.asarray(stream.votes)
    maj = run_strategy(votes, "majority")
    fx1 = run_strategy(votes, "fixed:1", config=AdaptiveConfig(n=3))
    # a length-1 window makes every pairwise correlation +/-1, so all three
    # estimates clip to the same value and the weighted vote is a majority
    assert np.array_equal(maj.prediction, fx1.prediction)


def test_majority_reports_are_bare(stream):
    votes = np.asarray(stream.votes)
    reports = run_strategy(votes, "majority", truths=np.asarray(stream.truth))
    assert len(reports) == votes.shape[0]
    assert reports.prediction.dtype == np.int8
    assert reports.prediction.tolist() == [majority_vote(row) for row in votes]
    assert reports.window is None
    assert reports.p_hat is None
    assert reports.weights is None
    assert reports.stop_reason is None
    assert np.array_equal(reports.truth, stream.truth)
    assert np.array_equal(reports.correct, reports.prediction == reports.truth)


def test_fixed_strategy_reports(stream):
    votes = np.asarray(stream.votes)
    cfg = AdaptiveConfig(n=3)
    reports = run_strategy(votes, "fixed:64", config=cfg)
    steps = votes.shape[0]
    assert reports.window.dtype == np.int64
    assert reports.window.tolist() == [min(i + 1, 64) for i in range(steps)]
    assert reports.stop_reason is None
    assert reports.p_hat.shape == reports.weights.shape == (steps, 3)
    assert np.all((cfg.clip_lo <= reports.p_hat) & (reports.p_hat <= cfg.clip_hi))
    for p_hat, weights in zip(reports.p_hat, reports.weights):
        assert weights.tolist() == pytest.approx(
            [math.log(p / (1.0 - p)) for p in p_hat], rel=1e-12
        )
    assert reports.truth is None
    assert reports.correct is None


def test_adaptive_strategy_reports(stream):
    votes = np.asarray(stream.votes)
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(8))
    reports = run_strategy(votes, "adaptive", config=cfg)
    stops = {STOP_THRESHOLD, STOP_SCHEDULE, STOP_HORIZON}
    assert reports.stop_reason.dtype == np.int8
    assert {STOPS[c] for c in reports.stop_reason.tolist()} <= stops
    for i, window in enumerate(reports.window.tolist()):
        assert window <= min(i + 1, cfg.schedule.max_size)
        assert window in cfg.schedule.sizes
    # by the end of a 400-step stationary stream the full ladder should apply
    assert reports.window[-1] == cfg.schedule.max_size
    assert STOPS[reports.stop_reason[-1]] == STOP_SCHEDULE


def test_adaptive_accuracy_on_stationary_stream(stream):
    votes = np.asarray(stream.votes)
    truth = np.asarray(stream.truth)
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(8))
    reports = run_strategy(votes, "adaptive", config=cfg, truths=truth)
    acc = np.mean(reports.correct[100:])
    # an oracle-weighted majority of (0.9, 0.8, 0.7) labelers is right on
    # ~90% of steps; leave slack for estimation noise in a 300-step sample
    assert acc > 0.85


@pytest.mark.parametrize("n", [1, 2])
def test_majority_takes_fewer_than_three_labelers(n):
    # a majority vote recovers no accuracies, so it needs no AdaptiveConfig
    votes = np.array([[1, -1], [-1, -1], [1, 1], [-1, 1]], dtype=np.int8)[:, :n]
    truths = np.array([1, -1, -1, 1], dtype=np.int8)
    reports = run_strategy(votes, "majority", truths=truths)
    assert reports.prediction.tolist() == [majority_vote(row) for row in votes]
    assert reports.truth.tolist() == truths.tolist()
    assert reports.window is None and reports.p_hat is None
    assert run_strategy(np.ones((4, n), np.int8), "majority").prediction.tolist() == [1] * 4
    for strategy in ("adaptive", "fixed:1"):
        with pytest.raises(ValueError, match=f"need at least 3 labelers, got n={n}"):
            run_strategy(votes, strategy)
    with pytest.raises(ValueError, match=f"config expects 3 labelers, stream has {n}"):
        run_strategy(votes, "majority", config=AdaptiveConfig(n=3))


def test_run_strategy_rejects_no_labelers():
    for strategy in ("majority", "adaptive", "fixed:1"):
        with pytest.raises(ValueError, match="expected a nonempty"):
            run_strategy(np.empty((4, 0), dtype=np.int8), strategy)


def test_run_strategy_validation(stream):
    votes = np.asarray(stream.votes)
    with pytest.raises(ValueError):
        run_strategy(np.empty((0, 3), dtype=np.int8), "majority")
    with pytest.raises(ValueError):
        run_strategy(votes[:, :2], "adaptive", config=AdaptiveConfig(n=3))
    small = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(8))  # max 128
    with pytest.raises(ValueError):
        run_strategy(votes, "fixed:2048", config=small)
    bad = votes.copy()
    bad[5, 1] = 0
    with pytest.raises(ValueError):
        run_strategy(bad, "majority")
    with pytest.raises(ValueError):
        run_strategy(votes, "majority", truths=np.zeros(votes.shape[0], dtype=np.int8))
    with pytest.raises(ValueError):
        run_strategy(votes, "majority", truths=np.ones(7, dtype=np.int8))


@pytest.mark.parametrize("bad", [1j, -1j])
def test_run_strategy_rejects_complex_truth(stream, bad):
    votes = np.asarray(stream.votes)
    truths = np.ones(votes.shape[0], dtype=complex)
    truths[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a cast
        with pytest.raises(ValueError, match="truth labels"):
            run_strategy(votes, "majority", truths=truths)


def test_run_strategy_accepts_float_and_bool_truth(stream):
    votes = np.asarray(stream.votes)
    want = run_strategy(votes, "majority", truths=np.ones(votes.shape[0], dtype=np.int8)).truth
    for truths in (np.ones(votes.shape[0]), np.ones(votes.shape[0], dtype=bool)):
        got = run_strategy(votes, "majority", truths=truths).truth
        assert got.dtype == np.int8 and np.array_equal(got, want)


def test_adaptive_rejects_ladder_not_starting_at_one(stream):
    votes = np.asarray(stream.votes)
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule((4, 8, 16)))
    # step 1 has no window on this ladder, so the run fails before its loop
    with pytest.raises(ValueError, match=r"starts at 1, got sizes \[4, 8, 16\]"):
        run_strategy(votes, "adaptive", config=cfg)
    # a fixed window clamps to min(t, R) and needs no rung at 1
    assert len(run_strategy(votes[:20], "fixed:8", config=cfg)) == 20


@st.composite
def drifting_runs(draw):
    """A two-block stream of n in [3, 8] labelers (some below chance, so
    estimates clip; maybe one that always votes the same way), a ladder
    from 1 with uneven gaps, one of its sizes as a fixed R, and an engine
    chunk length from {1, 2, 7, T, T + 5}, so that rungs longer than a
    chunk evict rows across chunk edges."""
    n = draw(st.integers(3, 8))
    steps = draw(st.integers(1, 300))
    rungs = draw(st.lists(st.integers(2, 96), min_size=1, max_size=5, unique=True))
    sizes = (1, *sorted(rungs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = int(rng.integers(0, steps + 1))
    before, after = rng.uniform(0.3, 0.95, size=(2, n))
    acc = np.where(np.arange(steps)[:, None] < edge, before, after)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.where(rng.random((steps, n)) < acc, truth[:, None], -truth[:, None]).astype(np.int8)
    if draw(st.booleans()):
        votes[:, draw(st.integers(0, n - 1))] = draw(st.sampled_from((-1, 1)))
    config = AdaptiveConfig(n=n, schedule=WindowSchedule(sizes))
    chunk = draw(st.sampled_from((1, 2, 7, steps, steps + 5)))
    return votes, config, draw(st.sampled_from(sizes)), chunk


def reference_reports(votes, config, fixed_r=None):
    """Each step rebuilt anew through the public checked calls."""
    sizes = config.schedule.sizes if fixed_r is None else (fixed_r,)
    out = []
    for t in range(1, votes.shape[0] + 1):
        bank = CorrelationBank.from_history(config.n, votes[:t], sizes)
        if fixed_r is None:
            decision = select_window(bank, config)
            r, used, stop = decision.window, decision.window, decision.stop_reason
        else:
            r, used, stop = fixed_r, bank.window_length(fixed_r), None
        est = recover_accuracies(bank.correlation(r), config.clip_lo, config.clip_hi, window=used)
        w = log_odds_weights(est.accuracies)
        pred = weighted_vote(votes[t - 1], w)
        out.append((pred, used, tuple(est.accuracies.tolist()), tuple(w.tolist()), stop))
    return out


def report_tuples(reports):
    """The columns of ``reports`` as one tuple per step, in the reference's form."""
    codes = reports.stop_reason
    stops = [None] * len(reports) if codes is None else [STOPS[c] for c in codes.tolist()]
    return list(zip(
        reports.prediction.tolist(),
        reports.window.tolist(),
        map(tuple, reports.p_hat.tolist()),
        map(tuple, reports.weights.tolist()),
        stops,
    ))


def assert_matches_reference(reports, reference):
    """Field for field, dtypes included; stop reasons are int8 codes."""
    assert report_tuples(reports) == reference
    assert reports.prediction.dtype == np.int8
    assert reports.window.dtype == np.int64
    assert reports.p_hat.dtype == reports.weights.dtype == np.float64
    if reference[0][-1] is None:
        assert reports.stop_reason is None
    else:
        assert reports.stop_reason.dtype == np.int8


def chunked(rows):
    """Run the engine on chunks of exactly ``rows`` steps; None keeps the
    sized default."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(aggregate, _CHUNK_BUDGET=0, _CHUNK_MIN_ROWS=rows)


@pytest.mark.parametrize("strategy", ["adaptive", "fixed:5"])  # 5 < a chunk: the ring wraps
@pytest.mark.parametrize("n", [3, 8, 32])
def test_feed_resumes_from_its_bank(n, strategy):
    """One bank fed chunks of 1, 7 and 999 steps and then the rest gives,
    byte for byte, the columns of one ``run_strategy`` call."""
    rng = np.random.default_rng(n)
    acc = np.where(np.arange(1500)[:, None] < 700, np.linspace(0.6, 0.9, n), np.linspace(0.9, 0.6, n))
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=len(acc))
    votes = np.where(rng.random(acc.shape) < acc, truth[:, None], -truth[:, None]).astype(np.int8)
    config = AdaptiveConfig(n=n)
    kind, fixed_r = parse_strategy(strategy)
    adaptive = kind == "adaptive"
    bank = CorrelationBank(n, config.schedule.sizes if adaptive else (fixed_r,))
    parts, start = [], 0
    for length in (1, 7, 999, len(votes)):
        parts.append(aggregate._feed(bank, votes[start:start + length], config))
        start += length
    want = run_strategy(votes, strategy, config)
    names = ["window", "p_hat", "weights", "prediction"] + ["stop_reason"] * adaptive
    assert all(list(part) == names for part in parts)
    assert want.truth is None and (want.stop_reason is None) == (not adaptive)
    for name in names:
        expected = getattr(want, name)
        assert all(part[name].dtype == expected.dtype for part in parts)
        assert np.concatenate([part[name] for part in parts]).tobytes() == expected.tobytes()
    assert bank.t == len(votes)


@settings(max_examples=40, deadline=None)
@given(drifting_runs())
def test_runs_match_checked_per_step_reference(run):
    votes, config, fixed_r, chunk = run
    with chunked(chunk):
        adaptive = run_strategy(votes, "adaptive", config)
        fixed = run_strategy(votes, f"fixed:{fixed_r}", config)
    assert_matches_reference(adaptive, reference_reports(votes, config))
    assert_matches_reference(fixed, reference_reports(votes, config, fixed_r))
    # the default chunk length gives the same bits
    assert report_tuples(run_strategy(votes, "adaptive", config)) == report_tuples(adaptive)


def test_near_tie_votes_follow_the_per_row_dot_product():
    """n = 16 labelers who vote the truth, with every tenth row split 8 to 8.
    In a window of 1 every estimate clips to the same value, so each split
    row's exact score is 0 and the float rounding of the dot product decides
    its sign; a batched sum (``einsum``, ``(V * W).sum(1)``) rounds in
    another order.  Every prediction must be the per-row ``weighted_vote``."""
    rng = np.random.default_rng(16)
    n, steps = 16, 300
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.repeat(truth[:, None], n, axis=1)
    split = np.arange(5, steps, 10)
    for t in split:
        votes[t] = rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), n // 2))
    config = AdaptiveConfig(n=n, schedule=WindowSchedule.doubling(8))
    fixed_one = run_strategy(votes, "fixed:1", config)
    assert np.all(fixed_one.weights == fixed_one.weights[0, 0])
    assert_matches_reference(fixed_one, reference_reports(votes, config, 1))
    for strategy in ("fixed:1", "fixed:64", "adaptive"):
        for chunk in (None, 1, 7):
            with chunked(chunk):
                reports = run_strategy(votes, strategy, config)
            per_row = [weighted_vote(v, w) for v, w in zip(votes, reports.weights)]
            assert reports.prediction.tolist() == per_row


def test_cli_reports_match_reference_with_constant_labeler_and_zero_witness(tmp_path):
    """Labeler 1 always votes +1.  Over the first 32 steps labelers 2 and 3
    cycle through (+,+), (+,-), (-,+), (-,-), so in every window of 4k of
    those steps all pairwise correlations are 0: each accuracy falls back
    to 1/2.  ``driftvote run`` must write what the per-step bank gives."""
    from driftvote import Stream, read_reports, write_stream
    from driftvote.cli import main

    rng = np.random.default_rng(6)
    steps = 96
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.where(rng.random((steps, 3)) < 0.85, truth[:, None], -truth[:, None]).astype(np.int8)
    votes[:, 0] = 1
    votes[:32, 1] = np.tile([1, 1, -1, -1], 8)
    votes[:32, 2] = np.tile([1, -1, 1, -1], 8)
    stream_path = tmp_path / "stream.jsonl"
    write_stream(stream_path, Stream(votes=votes, truth=truth))
    sizes = (1, 2, 4, 8, 16, 32)
    config = AdaptiveConfig(n=3, schedule=WindowSchedule(sizes))
    for strategy, fixed_r in (("adaptive", None), ("fixed:4", 4), ("fixed:16", 16)):
        out = tmp_path / f"{strategy.replace(':', '-')}.jsonl"
        assert main([
            "run", "--input", str(stream_path), "--strategy", strategy,
            "--sizes", ",".join(map(str, sizes)), "--out", str(out),
        ]) == 0
        reports = read_reports(out)
        assert_matches_reference(reports, reference_reports(votes, config, fixed_r))
        assert np.array_equal(reports.truth, truth)
        library = run_strategy(votes, strategy, config, truths=truth)
        assert report_tuples(library) == report_tuples(reports)
        if fixed_r is not None:
            # every full window inside the cycling stretch has a zero witness
            assert np.all(reports.p_hat[fixed_r - 1:32] == 0.5)
            assert np.all(reports.weights[fixed_r - 1:32] == 0.0)
            assert np.all(reports.prediction[fixed_r - 1:32] == 1)


def test_below_chance_labeler_mirrors_to_its_complement():
    """Labeler 4 votes the truth with accuracy 0.3 on a stationary n = 4
    stream.  Its correlations with the others are negative, and the triplet
    map sees only the magnitude of ``C_ih * C_hj / C_ij``, so its estimate
    mirrors to about 1 - 0.3 = 0.7 and its vote gets a positive weight,
    where the truth would want a negative one.  This pins that behaviour."""
    from driftvote import BlockSpec, SyntheticStreamConfig

    blocks = (BlockSpec(length=600, accuracies=(0.85, 0.8, 0.75, 0.3)),)
    stream = generate_synthetic(SyntheticStreamConfig(blocks=blocks, seed=4, n=4))
    config = AdaptiveConfig(n=4, schedule=WindowSchedule.doubling(10))
    for strategy, fixed_r in (("adaptive", None), ("fixed:256", 256)):
        reports = run_strategy(stream.votes, strategy, config)
        assert_matches_reference(reports, reference_reports(stream.votes, config, fixed_r))
        late = slice(300, None)  # every window here is at least 128 steps
        assert reports.window[late].min() >= 128
        assert abs(np.median(reports.p_hat[late, 3]) - 0.7) < 0.03
        assert np.all((reports.p_hat[late, 3] > 0.6) & (reports.p_hat[late, 3] < 0.8))
        assert np.all(reports.weights[late, 3] > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heavy_abstentions_shrink_accuracy_toward_half(seed):
    """Labeler 1 (accuracy 0.9) votes on 10% of the steps of a stationary
    n = 4 stream, and ``resolve_abstentions`` fills the rest with fair coin
    flips.  A labeler with coverage c and accuracy p then votes the truth
    with probability 1/2 + c (p - 1/2), here 0.54, and that is what the
    engine recovers: the estimator knows nothing of abstentions.

    The tolerance, 0.025, is about five standard deviations of a tail mean
    here (0.005 over seeds 0-9, whose largest error was 0.013): a miss is a
    bias, not noise, and it is far below the 0.36 that separates 0.54 from
    the labeler's true 0.9."""
    from driftvote import BlockSpec, SyntheticStreamConfig, resolve_abstentions
    from driftvote.driftgen import role_rngs

    accuracies = (0.9, 0.8, 0.75, 0.7)
    blocks = (BlockSpec(length=40_000, accuracies=accuracies),)
    votes = generate_synthetic(SyntheticStreamConfig(blocks=blocks, seed=seed, n=4)).votes
    rng = role_rngs(seed)["abstain"]
    votes[rng.random(len(votes)) >= 0.1, 0] = 0
    reports = run_strategy(resolve_abstentions(votes, rng), "adaptive")
    tail = reports.p_hat[-5000:].mean(axis=0)
    expected = np.array([0.5 + 0.1 * (0.9 - 0.5), 0.8, 0.75, 0.7])
    assert np.abs(tail - expected).max() < 0.025
