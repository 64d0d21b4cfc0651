"""Correlation bank: incremental updates vs. naive recomputation.

The oracle here is a from-scratch recomputation over an independently kept
history list; because window sums are exact integer arithmetic, every
comparison is exact equality, not approximate.
"""

import warnings

import numpy as np
import pytest

from driftvote import CorrelationBank, WindowSchedule, as_vote_matrix


def random_votes(rng, steps, n):
    return (2 * rng.integers(0, 2, size=(steps, n)) - 1).astype(np.int8)


def naive_pair_sums(history, r):
    tail = np.asarray(history[-min(len(history), r):], dtype=np.int64)
    return tail.T @ tail


@pytest.mark.parametrize(
    "sizes, steps",
    [
        ((1, 2, 4, 8, 16, 64, 128, 512), 700),
        ((3, 5, 16, 40), 150),  # a ladder that does not start at 1
        ((1, 2, 4, 8, 16, 32), 400),  # the ring wraps more than 3 times
    ],
    ids=["to-512", "from-3", "wraps"],
)
def test_push_matches_naive_recomputation_exactly(sizes, steps):
    rng = np.random.default_rng(11)
    bank = CorrelationBank(4, sizes)
    history = []
    for step, row in enumerate(random_votes(rng, steps, 4), start=1):
        bank.push(row)
        history.append(row)
        if step % 13 == 0 or step <= 5:
            for r in sizes:
                want = naive_pair_sums(history, r)
                assert np.array_equal(bank.pair_sums(r), want)
                length = min(step, r)
                assert bank.window_length(r) == length
                # same integer sum, same divisor => bit-identical floats
                assert np.array_equal(bank.correlation(r), want / length)


def test_correlation_is_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(12)
    bank = CorrelationBank(5, (4, 32))
    for row in random_votes(rng, 100, 5):
        bank.push(row)
    for r in (4, 32):
        c = bank.correlation(r)
        assert np.array_equal(c, c.T)
        assert np.all(np.diagonal(c) == 1.0)
        assert np.all(np.abs(c) <= 1.0)


def test_window_clamps_to_stream_length():
    bank = CorrelationBank(3, (8,))
    bank.push([1, 1, -1])
    bank.push([1, -1, -1])
    assert bank.window_length(8) == 2
    # mean of two outer products, divided by 2, not by 8
    want = (np.outer([1, 1, -1], [1, 1, -1]) + np.outer([1, -1, -1], [1, -1, -1])) / 2
    assert np.array_equal(bank.correlation(8), want)


def test_from_history_equals_push_loop():
    rng = np.random.default_rng(13)
    sizes = (1, 4, 16, 64)
    votes = random_votes(rng, 333, 3)
    pushed = CorrelationBank(3, sizes)
    for row in votes:
        pushed.push(row)
    loaded = CorrelationBank.from_history(3, votes, sizes)
    assert loaded.t == pushed.t
    assert loaded.retained == pushed.retained
    for r in sizes:
        assert np.array_equal(loaded.pair_sums(r), pushed.pair_sums(r))
    # and both keep evolving identically after more pushes
    more = random_votes(rng, 50, 3)
    for row in more:
        pushed.push(row)
        loaded.push(row)
    for r in sizes:
        assert np.array_equal(loaded.pair_sums(r), pushed.pair_sums(r))


def test_retention_never_exceeds_largest_window():
    rng = np.random.default_rng(15)
    bank = CorrelationBank(3, (1, 2, 4, 8, 16, 32, 64))
    worst = 0
    for row in random_votes(rng, 640, 3):
        bank.push(row)
        worst = max(worst, bank.retained)
    assert worst == 64 == bank.max_size
    assert bank.t == 640


def test_single_window_bank():
    bank = CorrelationBank(3, [7])
    assert bank.sizes == (7,)
    for row in random_votes(np.random.default_rng(16), 20, 3):
        bank.push(row)
    assert bank.window_length(7) == 7


def test_construction_validation():
    with pytest.raises(ValueError):
        CorrelationBank(1, (1, 2))
    with pytest.raises(ValueError):
        CorrelationBank(3, ())
    with pytest.raises(ValueError):
        CorrelationBank(3, (0, 2))
    with pytest.raises(ValueError):
        CorrelationBank(3, (4, 4))
    with pytest.raises(ValueError):
        CorrelationBank(3, (8, 2))
    with pytest.raises(ValueError, match=r"expected a \(T, 3\) vote matrix, got shape \(5, 4\)"):
        CorrelationBank.from_history(3, np.ones((5, 4), dtype=np.int8), (1, 2))


def test_push_and_query_validation():
    bank = CorrelationBank(3, (2, 4))
    with pytest.raises(ValueError):
        bank.correlation(2)  # nothing pushed yet
    with pytest.raises(ValueError):
        bank.push([1, 1])  # wrong width
    with pytest.raises(ValueError):
        bank.push([1, 0, 1])  # abstention not resolved
    with pytest.raises(ValueError):
        bank.push([1, 2, 1])
    bank.push([1, -1, 1])
    with pytest.raises(ValueError):
        bank.correlation(3)  # untracked window
    with pytest.raises(ValueError):
        bank.pair_sums(5)


@pytest.mark.parametrize(
    "ladder, want",
    [
        ([1.5, 2], None),
        ([True, 2], None),
        ([np.True_, 2], None),
        ([2.0, 4], None),
        (np.array([1, 2, 4]), (1, 2, 4)),
        ([np.int32(3), 5], (3, 5)),
        ((7,), (7,)),
        ((1, 1), None),
        ((2, 1), None),
        ((0, 2), None),
        ((), None),
    ],
    ids=repr,
)
def test_schedule_and_bank_share_one_ladder_rule(ladder, want):
    """The schedule and the bank accept and reject the same ladders; a
    ladder of one size is padded with a larger one for the schedule, which
    needs two.  Accepted sizes are stored as Python ints."""
    padded = [*ladder, ladder[-1] + 1] if len(ladder) == 1 else ladder
    if want is None:
        with pytest.raises(ValueError):
            WindowSchedule(padded)
        with pytest.raises(ValueError):
            CorrelationBank(3, ladder)
        return
    schedule, bank = WindowSchedule(padded), CorrelationBank(3, ladder)
    assert bank.sizes == want and schedule.sizes[:len(want)] == want
    assert {type(r) for r in (*bank.sizes, *schedule.sizes)} == {int}


def test_lookups_take_a_tracked_integer():
    bank = CorrelationBank(3, (1, 2))
    bank.push([1, -1, 1])
    for r in (2.7, 2.0, True, np.True_, "2", None):
        for lookup in (bank.window_length, bank.pair_sums, bank.correlation):
            with pytest.raises(ValueError, match="not tracked"):
                lookup(r)
    assert bank.window_length(np.int64(2)) == 1
    assert np.array_equal(bank.correlation(np.int64(2)), bank.correlation(2))
    assert np.array_equal(bank.pair_sums(np.uint8(1)), bank.pair_sums(1))


@pytest.mark.parametrize("n", [2.5, 3.0, True, np.True_, "3"])
def test_bank_rejects_a_labeler_count_that_is_no_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        CorrelationBank(n, (1, 2))


@pytest.mark.parametrize("bad", [1j, -1j, 1 + 0j, np.nan])
def test_push_rejects_complex_and_nan_votes(bad):
    # |1j| == 1, and an int8 cast would drop the imaginary part to leave a
    # 0; a complex array is rejected even when its imaginary parts are 0
    bank = CorrelationBank(3, (2, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a cast
        with pytest.raises(ValueError, match=r"\+/-1"):
            bank.push([1, 1, bad])
        with pytest.raises(ValueError, match=r"\+/-1"):
            as_vote_matrix([[1, -1, 1], [1, 1, bad]], 3)
    assert bank.t == 0


def test_push_accepts_float_and_bool_votes():
    bank = CorrelationBank(3, (2, 4))
    bank.push(np.array([1.0, -1.0, 1.0]))
    bank.push(np.array([True, True, True]))
    want = np.outer([1, -1, 1], [1, -1, 1]) + np.ones((3, 3), dtype=np.int64)
    assert np.array_equal(bank.pair_sums(2), want)
    assert np.array_equal(as_vote_matrix([[1.0, -1.0, 1.0], [True, True, True]], 3),
                          np.array([[1, -1, 1], [1, 1, 1]], dtype=np.int8))


@pytest.mark.parametrize(
    "sizes", [(1, 2, 4, 8, 16), (3, 5, 16), (6,)], ids=["from-1", "from-3", "one-size"]
)
def test_extend_matches_push_loop_exactly(sizes):
    """The engine's chunk step: each returned row is the upper triangle of
    every window's ``correlation`` after the same pushes, and the bank it leaves
    behind is the one a push loop leaves, also past a wrap of the ring."""
    rng = np.random.default_rng(18)
    n, steps, cap = 4, 150, sizes[-1]
    votes = random_votes(rng, steps, n)
    iu, ju = np.triu_indices(n, 1)
    extended, pushed = CorrelationBank(n, sizes), CorrelationBank(n, sizes)
    start = 0
    # twice round the short lengths, then one chunk past the stream's end
    for length in 2 * [1, 2, 7, cap - 1, cap, cap + 1] + [steps + 5]:
        rows = votes[start:start + length]
        got = extended._extend(rows)
        assert got.shape == (len(rows), len(sizes), len(iu))
        for row, corr in zip(rows, got):
            pushed.push(row)
            stacked = np.stack([pushed.correlation(r) for r in sizes])
            assert corr.tobytes() == stacked[:, iu, ju].tobytes()
        start += len(rows)
        assert extended.t == pushed.t == start
        assert extended.retained == pushed.retained
        for r in sizes:
            assert extended.pair_sums(r).tobytes() == pushed.pair_sums(r).tobytes()
    assert start == steps and len(rows) > cap  # the last chunk wraps the ring
    for row in random_votes(rng, 2 * cap + 3, n):
        extended.push(row)
        pushed.push(row)
        for r in sizes:
            assert extended.pair_sums(r).tobytes() == pushed.pair_sums(r).tobytes()


def test_sums_equal_naive_int64_sums_by_every_route():
    """The bank holds its sums as float64 that are exact integers: after
    ``push``, ``_extend`` and ``from_history`` every window's sums equal the
    naive int64 sums, and ``pair_sums`` gives them as int64."""
    rng = np.random.default_rng(19)
    n, sizes = 5, (1, 3, 8, 20)
    votes = random_votes(rng, 90, n)
    iu, ju = np.triu_indices(n, 1)
    pushed, extended = CorrelationBank(n, sizes), CorrelationBank(n, sizes)
    for step in (1, 7, 19, 20, 21, 64, 90):  # each route up to ``step`` votes
        for row in votes[pushed.t:step]:
            pushed.push(row)
        extended._extend(votes[extended.t:step])
        loaded = CorrelationBank.from_history(n, votes[:step], sizes)
        for bank in (pushed, extended, loaded):
            assert bank._sums.dtype == np.float64
            for k, r in enumerate(sizes):
                want = naive_pair_sums(list(votes[:step]), r)
                got = bank.pair_sums(r)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.array_equal(bank._sums[k], np.append(want[iu, ju], want[0, 0]))


@pytest.mark.parametrize("sizes", [(1, 3, 8, 20), (4,)], ids=["ladder", "one-size"])
def test_stored_vector_is_pair_sums_then_count_by_every_route(sizes):
    """Each window stores one vector: the naive int64 sums of its pairs
    i < j in ``np.triu_indices`` order, then its vote count min(t, r), after
    ``push``, after ``_extend`` chunks that end on and across the windows'
    and the ring's edges, and after ``from_history``."""
    rng = np.random.default_rng(20)
    n, cap = 4, sizes[-1]
    iu, ju = np.triu_indices(n, 1)
    votes = random_votes(rng, 6 * cap + 11, n)
    pushed, extended = CorrelationBank(n, sizes), CorrelationBank(n, sizes)
    ends = sorted({1, 2, 3, 4, 8, 9, cap - 1, cap, cap + 1, 2 * cap, 2 * cap + 3,
                   5 * cap + 2, len(votes)})
    for step in ends:
        for row in votes[pushed.t:step]:
            pushed.push(row)
        extended._extend(votes[extended.t:step])
        loaded = CorrelationBank.from_history(n, votes[:step], sizes)
        for bank in (pushed, extended, loaded):
            assert bank._sums.shape == (len(sizes), len(iu) + 1)
            for k, r in enumerate(sizes):
                naive = naive_pair_sums(list(votes[:step]), r)
                assert bank._sums[k, -1] == min(step, r) == naive[0, 0]
                assert np.array_equal(bank._sums[k, :-1], naive[iu, ju])
