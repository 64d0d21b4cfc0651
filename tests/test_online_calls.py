"""The online per-step calls against the array formulas they replaced.

``majority_vote``, ``log_odds_weights``, ``weighted_vote``,
``recover_accuracies`` and ``select_window`` do their scalar work on
Python lists where they once made one numpy reduction after another.  The
reference functions below keep those earlier bodies.  On every input of
the tables, hostile ones included, a call must return what its reference
returns, bit for bit, or raise the same exception type with the same
message, and it must not warn where its reference warned first.
"""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from driftvote import (
    STOP_HORIZON,
    STOP_SCHEDULE,
    STOP_THRESHOLD,
    AdaptiveConfig,
    AccuracyEstimate,
    CorrelationBank,
    STOPS,
    GapProbe,
    WindowDecision,
    WindowSchedule,
    correlation_from_accuracies,
    log_odds_weights,
    majority_vote,
    recover_accuracies,
    run_strategy,
    select_window,
    weighted_vote,
)
from driftvote.core import replace
from driftvote.triplet import _SYM_TOL, ZERO_TOL, _witness_table


def ref_majority_vote(votes):
    return 1 if int(np.add.reduce(votes, axis=None)) >= 0 else -1


def ref_log_odds_weights(p):
    acc = np.asarray(p, dtype=float)
    if not ((acc > 0.0) & (acc < 1.0)).all():
        raise ValueError("accuracies must lie strictly inside (0, 1); clip estimates first")
    return np.log(acc / (1.0 - acc))


def ref_weighted_vote(votes, weights):
    v = np.asarray(votes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"votes {v.shape} and weights {w.shape} must align")
    if np.isfinite((v, w)).all():
        score = float(v @ w)
    else:
        with np.errstate(invalid="ignore"):
            score = float(v @ w)
    if score != score:
        raise ValueError("weighted vote sum is NaN; votes and weights must be numbers")
    return 1 if score >= 0.0 else -1


def ref_recover_raw(pairs, n):
    _, cap, witness, offset = _witness_table(n)
    batch, size = pairs.shape
    pick = np.fmin(np.abs(pairs)[:, None], cap, order="C").argmax(axis=2) + offset
    at = witness.take(pick, axis=1) + np.arange(0, batch * size, size)[:, None]
    c_ij, c_ih, c_hj = pairs.take(at)
    degenerate = np.abs(c_ij) <= ZERO_TOL
    c_ij[degenerate] = 1.0
    raw = 0.5 * (1.0 + np.sqrt(np.abs(c_ih * c_hj / c_ij)))
    raw[degenerate] = 0.5
    return raw


def ref_recover_accuracies(corr, clip_lo=0.1, clip_hi=0.9, window=0):
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"correlation matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    if n < 3:
        raise ValueError(f"recovery needs at least 3 labelers, got {n}")
    if not np.abs(c).max() <= 1.0 + _SYM_TOL or not np.abs(c - c.T).max() <= _SYM_TOL:
        raise ValueError("correlation matrix must be symmetric with entries in [-1, 1]")
    if not (np.abs(c.diagonal() - 1.0).max() <= _SYM_TOL):
        raise ValueError("correlation matrix must have unit diagonal")
    if not 0.0 < clip_lo < 0.5 < clip_hi < 1.0:
        raise ValueError(f"clip band must satisfy 0 < lo < 0.5 < hi < 1, got [{clip_lo}, {clip_hi}]")
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 0:
        raise ValueError(f"window must be a nonnegative integer, got {window!r}")
    iu, ju = np.triu_indices(n, 1)
    raw = ref_recover_raw(c[iu, ju][None], n)[0]
    return AccuracyEstimate(raw=raw, accuracies=raw.clip(clip_lo, clip_hi), window=int(window))


def ref_select_window(bank, config):
    sizes = config.schedule.sizes
    if bank.sizes != sizes:
        raise ValueError(f"bank tracks windows {list(bank.sizes)}, the schedule {list(sizes)}")
    t = bank.t
    if t < sizes[0]:
        raise ValueError(f"need at least {sizes[0]} votes before selecting, have {t}")
    thresholds = config.thresholds
    reach = sum(r <= t for r in sizes)
    corr = np.stack([bank.correlation(r) for r in sizes[:reach]])
    gaps = np.abs(corr[1:] - corr[:-1]).max(axis=(1, 2)).tolist()
    probes = []
    for k, gap in enumerate(gaps):
        probes.append(GapProbe(k + 1, sizes[k], sizes[k + 1], gap, thresholds[k]))
        if not gap <= thresholds[k]:
            return WindowDecision(k + 1, sizes[k], STOP_THRESHOLD, tuple(probes))
    stop = STOP_SCHEDULE if reach == len(sizes) else STOP_HORIZON
    return WindowDecision(reach, sizes[reach - 1], stop, tuple(probes))


def key(value):
    """A comparable form of a result: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, AccuracyEstimate):
        return key(value.raw), key(value.accuracies), value.window, type(value.window)
    return value, type(value)


def outcome(call, *args):
    """``call(*args)`` as a comparable result, or the type and message of
    what it raised, and the categories of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = key(call(*args))
        except (ValueError, TypeError, OverflowError) as err:
            got = type(err), str(err)
    return got, [w.category for w in caught]


def assert_same(new, ref, *args):
    got, warned = outcome(new, *args)
    want, _ = outcome(ref, *args)
    assert got == want
    assert not [w for w in warned if issubclass(w, RuntimeWarning)]


MAJORITY_CASES = {
    "list": [1, -1, 1],
    "tie": [1, -1],
    "tuple": (-1, -1, 1),
    "int8": np.array([1, -1, -1, -1], dtype=np.int8),
    "bool": np.array([True, False, False]),
    "float": [1.0, -1.0, 0.0, -1.0],
    "two-d": np.array([[1, -1], [-1, -1]]),
    "zero-d": np.array(-1),
    "scalar": 1,
    "empty": [],
    "nan": [1.0, np.nan, 1.0],
    "inf": [1.0, np.inf],
    "opposite-infs": [np.inf, -np.inf, 1.0],  # the reference warns before it raises
    "ragged": [[1, -1], [1]],
    # a 1-d array is read by one tolist(), any other shape through a flat view
    "strided": np.array([1, 7, -1, 7, -1, 7], dtype=np.int8)[::2],
    "column": np.array([[1, -1], [-1, 1], [-1, 1]])[:, 0],
    "fortran": np.asfortranarray([[1, -1, -1], [1, 1, -1]]),
    "object": np.array([1, -1, 1], dtype=object),
    "uint8": np.array([1, 0, 1], dtype=np.uint8),
}


@pytest.mark.parametrize("votes", MAJORITY_CASES.values(), ids=MAJORITY_CASES)
def test_majority_vote_matches_reference(votes):
    assert_same(majority_vote, ref_majority_vote, votes)


@pytest.mark.parametrize("votes", [[1j, 1], np.array([1 + 0j, -1, -1])], ids=["complex", "complex-real"])
def test_majority_vote_rejects_complex_votes(votes):
    # the reference casts the complex sum to int, which warns and drops the
    # imaginary part; the Python sum of complex votes has no int()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="complex"):
            majority_vote(votes)


@pytest.mark.parametrize("bad", [1j, 1 + 0j, 0.5 + 0.9j])
def test_float_calls_reject_complex_input(bad):
    # a float cast would warn, drop the imaginary part and go on: a 0.5+0.9j
    # correlation recovered 0.854 and [1+9j, -1] against [0.1, 2.0] voted -1
    corr = correlation_from_accuracies([0.8, 0.7, 0.6]).astype(complex)
    corr[0, 1] = corr[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a cast
        with pytest.raises(ValueError, match="accuracies must be real"):
            correlation_from_accuracies(np.array([0.8, bad, 0.6]))
        with pytest.raises(ValueError, match="correlation matrix must be real"):
            recover_accuracies(corr)
        with pytest.raises(ValueError, match="accuracies must be real"):
            log_odds_weights([0.7, bad, 0.6])
        with pytest.raises(ValueError, match="votes must be real"):
            weighted_vote([1, bad, -1], [0.1, 2.0, 0.3])
        with pytest.raises(ValueError, match="weights must be real"):
            weighted_vote([1, -1, 1], [0.1, bad, 0.3])


LOG_ODDS_CASES = {
    "inside": [0.1, 0.5, 0.9],
    "list-of-ints-fails": [0, 1],
    "nan": [0.6, np.nan, 0.7],
    "zero": [0.0, 0.6],
    "one": [0.6, 1.0],
    "below": [-0.1, 0.6],
    "above": [0.6, 1.5],
    "two-d": [[0.2, 0.7], [0.6, 0.9]],
    "two-d-bad": [[0.2, 0.7], [0.6, 1.0]],
    "zero-d": 0.7,
    "empty": [],
    "inf": [np.inf, 0.5],
}


@pytest.mark.parametrize("p", LOG_ODDS_CASES.values(), ids=LOG_ODDS_CASES)
def test_log_odds_weights_matches_reference(p):
    assert_same(log_odds_weights, ref_log_odds_weights, p)


WEIGHTED_CASES = {
    "finite": ([1, -1, 1], [0.5, 2.0, 1.0]),
    "tie": ([1, 1, -1], [1.0, 1.0, 2.0]),
    "nan-weight": ([1, 1, -1], [np.nan, 1.0, 1.0]),
    "inf-minus-inf": ([1, -1, 1], [np.inf, np.inf, 1.0]),
    "zero-times-inf": ([0, 1, 1], [np.inf, 1.0, 1.0]),
    "opposite-inf-votes": ([np.inf, -np.inf, 1], [1.0, 1.0, 1.0]),
    "same-sign-infs": ([1, 1, -1], [np.inf, np.inf, 1.0]),
    "signed-inf": ([-1, 1, -1], [np.inf, -np.inf, 1.0]),
    "overflowing-sum": ([1e308, 1e308], [1.0, 1.0]),  # the reference warns of the overflow
    "overflowing-product": ([1e200, 1.0], [1e200, 1.0]),  # finite sums, an overflowing product
    "zero-d": (1.0, 2.0),
    "two-d": ([[1, -1], [1, 1]], [[0.5, 0.5], [1.0, 1.0]]),
    "shape-mismatch": ([1, 1, 1], [1.0, 1.0]),
    "empty": ([], []),
}


@pytest.mark.parametrize("votes, weights", WEIGHTED_CASES.values(), ids=WEIGHTED_CASES)
def test_weighted_vote_matches_reference(votes, weights):
    assert_same(weighted_vote, ref_weighted_vote, votes, weights)


def _matrix(n, edit=None):
    c = correlation_from_accuracies(np.linspace(0.55, 0.95, n))
    if edit:
        edit(c)
    return c


def _set(i, j, value, both=True):
    def edit(c):
        c[i, j] = value
        if both:
            c[j, i] = value
    return edit


def _bank_matrix(n):
    rng = np.random.default_rng(n)
    truth = rng.choice([-1, 1], size=300)
    votes = np.where(rng.random((300, n)) < np.linspace(0.6, 0.9, n), truth[:, None], -truth[:, None])
    return CorrelationBank.from_history(n, votes, (300,)).correlation(300)


RECOVER_CASES = {
    "valid-3": (_matrix(3),),
    "valid-8": (_matrix(8), 0.2, 0.8, 17),
    "valid-32": (_matrix(32), 0.1, 0.9, np.int64(5)),
    "bank-3": (_bank_matrix(3), 0.1, 0.9, 300),
    "bank-8": (_bank_matrix(8),),
    "bank-32": (_bank_matrix(32),),
    "fortran-order": (np.asfortranarray(_bank_matrix(8)),),
    "strided-view": (np.kron(_matrix(5), np.ones((2, 2)))[::2, ::2],),
    "identity": (np.eye(4),),
    "zero-witness": (_matrix(3, _set(1, 2, 0.0)),),
    "asymmetric": (_matrix(3, _set(0, 1, 0.3, both=False)),),
    "asymmetric-in-tolerance": (_matrix(3, _set(0, 1, _matrix(3)[1, 0] + 5e-13, both=False)),),
    "off-unit-diagonal": (_matrix(3, _set(1, 1, 1.0 - 1e-9)),),
    "diagonal-in-tolerance": (_matrix(3, _set(1, 1, 1.0 + 5e-13)),),
    "zero-diagonal": (_matrix(3, _set(2, 2, 0.0)),),
    "above-one": (_matrix(3, _set(0, 1, 1.5)),),
    "nan": (_matrix(3, _set(0, 1, np.nan)),),
    "nan-diagonal": (_matrix(3, _set(0, 0, np.nan)),),
    "inf": (_matrix(3, _set(0, 2, np.inf)),),
    "minus-inf": (_matrix(8, _set(3, 5, -np.inf)),),
    "bool-window": (_matrix(3), 0.1, 0.9, True),
    "negative-window": (_matrix(3), 0.1, 0.9, -1),
    "float-window": (_matrix(3), 0.1, 0.9, 2.0),
    "bad-clip-band": (_matrix(3), 0.6, 0.9),
    "bound-before-clip-band": (_matrix(3, _set(0, 1, np.nan)), 0.6, 0.9),
    "diagonal-before-window": (_matrix(3, _set(1, 1, 0.5)), 0.1, 0.9, -1),
    "not-square": (np.ones((3, 4)),),
    "two-labelers": (np.eye(2),),
    "three-d": (np.ones((3, 3, 3)),),
    "nested-lists": (_matrix(3).tolist(),),
}


@pytest.mark.parametrize("args", RECOVER_CASES.values(), ids=RECOVER_CASES)
def test_recover_accuracies_matches_reference(args):
    assert_same(recover_accuracies, ref_recover_accuracies, *args)


def _walk_bank(n, sizes, before, after, steps, edge, seed=0):
    """A bank over ``sizes`` after ``steps`` votes of n labelers whose
    accuracies change from ``before`` to ``after`` at step ``edge``."""
    rng = np.random.default_rng([n, steps, seed])
    acc = np.where(np.arange(steps)[:, None] < edge, before, after)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.where(rng.random((steps, n)) < acc, truth[:, None], -truth[:, None])
    return CorrelationBank.from_history(n, votes, sizes)


def _walk_cases(n):
    """(bank, config) pairs whose walks stop for every reason, at t = 1
    too, where the walk makes no comparison, and on a NaN gap, the last
    comparison within the horizon among them."""
    steady = np.full(n, 0.85)
    flipped = steady.copy()
    flipped[0] = 0.15
    deep = AdaptiveConfig(n=n)  # 20 rungs: every t here stops short of the last
    short = AdaptiveConfig(n=n, schedule=WindowSchedule.doubling(6))  # sizes 1..32
    cases = [
        (_walk_bank(n, deep.schedule.sizes, steady, steady, 1, 1), deep),
        (_walk_bank(n, deep.schedule.sizes, steady, steady, 3000, 3000), deep),
        (_walk_bank(n, deep.schedule.sizes, steady, flipped, 3000, 2900), deep),
        (_walk_bank(n, short.schedule.sizes, np.ones(n), np.ones(n), 40, 40), short),
        (_walk_bank(n, short.schedule.sizes, steady, flipped, 200, 190), short),
    ]
    for rung in (3, 5):  # the windows of 8 and of 32, the last within the horizon
        nan_bank = _walk_bank(n, short.schedule.sizes, np.ones(n), np.ones(n), 40, 40)
        nan_bank._sums = nan_bank._sums.astype(float)
        nan_bank._sums[rung, 0] = np.nan  # pair (0, 1)
        cases.append((nan_bank, short))
    return cases


@pytest.mark.parametrize("n", [3, 8, 32])
def test_select_window_matches_the_all_correlations_walk(n):
    reasons = set()
    for bank, config in _walk_cases(n):
        got, want = select_window(bank, config), ref_select_window(bank, config)
        assert repr(got) == repr(want)  # a NaN gap is unequal to itself; its repr is not
        assert all(type(p) is GapProbe for p in got.probes)
        reasons.add(got.stop_reason)
        if any(math.isnan(p.gap) for p in got.probes):
            reasons.add("nan")
    assert reasons == {STOP_THRESHOLD, STOP_SCHEDULE, STOP_HORIZON, "nan"}


@pytest.mark.parametrize("schedule", [None, WindowSchedule.doubling(6)], ids=["default", "doubling-6"])
@pytest.mark.parametrize("n", [3, 8, 32])
def test_one_pushed_bank_gives_the_engine_columns(n, schedule):
    """The online pass the benchmark times: one bank pushed row by row, each
    step through ``select_window``, ``correlation``, ``recover_accuracies``,
    ``log_odds_weights`` and ``weighted_vote``, gives ``run_strategy``'s
    columns bit for bit over a two-block stream.  Under ``doubling(6)`` the
    ring of 32 slots wraps many times."""
    steps, edge = 900, 550
    rng = np.random.default_rng([n, steps])
    before = np.linspace(0.6, 0.9, n)
    after = np.r_[0.1, before[:0:-1]]  # the weakest labeler falls below chance
    acc = np.where(np.arange(steps)[:, None] < edge, before, after)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.where(rng.random((steps, n)) < acc, truth[:, None], -truth[:, None]).astype(np.int8)
    config = AdaptiveConfig(n=n) if schedule is None else AdaptiveConfig(n=n, schedule=schedule)
    bank = CorrelationBank(n, config.schedule.sizes)
    window, stop, p_hat, weights, prediction = [], [], [], [], []
    for row in votes:
        bank.push(row)
        decision = select_window(bank, config)
        corr = bank.correlation(decision.window)
        est = recover_accuracies(corr, config.clip_lo, config.clip_hi, window=decision.window)
        w = log_odds_weights(est.accuracies)
        window.append(decision.window)
        stop.append(STOPS.index(decision.stop_reason))
        p_hat.append(est.accuracies)
        weights.append(w)
        prediction.append(weighted_vote(row, w))
    want = run_strategy(votes, "adaptive", config)
    assert want.window.tolist() == window and want.stop_reason.tolist() == stop
    assert want.p_hat.tobytes() == np.array(p_hat).tobytes()
    assert want.weights.tobytes() == np.array(weights).tobytes()
    assert want.prediction.tolist() == prediction
    assert len(set(stop)) > 1  # threshold stops on the default ladder, the schedule's end on the short one


def _unread_copies(bank, config):
    """Pairs of an unread decision and a copy of it, made before either is read."""
    for make in (copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))):
        decision = select_window(bank, config)
        yield decision, make(decision)


@pytest.mark.parametrize("n", [3, 8])
def test_copies_of_an_unread_decision_are_whole(n):
    """A decision builds its probes on first read; a copy made before then
    builds its own, whichever of the two is read first."""
    for bank, config in _walk_cases(n):
        want = repr(ref_select_window(bank, config))
        for first_original in (True, False):
            for decision, twin in _unread_copies(bank, config):
                pair = (decision, twin) if first_original else (twin, decision)
                assert [repr(d) for d in pair] == [want, want]
                assert all(type(p) is GapProbe for d in pair for p in d.probes)
        # replace reads the original's fields, the probes too, and builds an eager record
        decision = select_window(bank, config)
        assert [repr(replace(decision)), repr(decision)] == [want, want]
        if not any(math.isnan(p.gap) for p in decision.probes):
            twin = copy.copy(select_window(bank, config))
            assert twin == decision and hash(twin) == hash(decision)
        else:  # a NaN gap still stops the walk
            assert decision.stop_reason == STOP_THRESHOLD and math.isnan(decision.probes[-1].gap)


def test_probes_read_late_are_the_walks_at_decision_time():
    """The probes come from the gaps the walk saw, not from the bank after
    later pushes, even when the later bank would walk otherwise."""
    config = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(8))
    steady, flipped = np.full(3, 0.9), np.array([0.1, 0.9, 0.9])
    bank = _walk_bank(3, config.schedule.sizes, steady, flipped, 200, 150)
    decided = [(select_window(bank, config), ref_select_window(bank, config))]
    rng = np.random.default_rng(1)
    for _ in range(50):
        bank.push(rng.choice(np.array([-1, 1], dtype=np.int8), size=3))
        decided.append((select_window(bank, config), ref_select_window(bank, config)))
    assert decided[0][1].probes != ref_select_window(bank, config).probes
    for decision, want in decided:
        assert decision == want and decision.probes == want.probes


def test_a_read_decision_holds_its_four_fields():
    for bank, config in _walk_cases(3):
        decision, want = select_window(bank, config), ref_select_window(bank, config)
        assert vars(decision) != vars(want)  # unread: the walk's gaps, no probes
        decision.probes
        assert list(vars(decision)) == list(vars(want)) == list(WindowDecision._fields)
        assert repr(vars(decision)) == repr(vars(want))
        with pytest.raises(AttributeError, match="no attribute 'gaps'"):
            decision.gaps
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.probes = ()
    est = recover_accuracies(correlation_from_accuracies([0.8, 0.7, 0.6]), window=5)
    assert list(vars(est)) == ["raw", "accuracies", "window"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.window = 3
