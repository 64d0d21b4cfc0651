"""Accuracy recovery from correlation matrices.

The recovery map has an exact inverse on noiseless inputs: building the
correlation matrix from accuracies and recovering must return the same
vector to float precision.  That exactness is the main oracle; the rest
covers the degenerate branch, tie-breaking, equivariance, and stability.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftvote import correlation_from_accuracies, recover_accuracies
from driftvote.triplet import ZERO_TOL, _recover_raw


def test_correlation_from_accuracies_frozen_example():
    c = correlation_from_accuracies([0.8, 0.7, 0.6])
    want = np.array([
        [1.0, 0.24, 0.12],
        [0.24, 1.0, 0.08],
        [0.12, 0.08, 1.0],
    ])
    assert np.allclose(c, want, rtol=0.0, atol=1e-15)


def test_correlation_from_accuracies_validation():
    with pytest.raises(ValueError):
        correlation_from_accuracies([0.9])
    with pytest.raises(ValueError):
        correlation_from_accuracies([[0.9, 0.8]])
    with pytest.raises(ValueError):
        correlation_from_accuracies([0.9, 1.2, 0.8])


def test_exact_round_trip_small():
    p = np.array([0.8, 0.7, 0.6])
    est = recover_accuracies(correlation_from_accuracies(p))
    assert np.allclose(est.raw, p, rtol=0.0, atol=1e-12)


def test_exact_round_trip_many_widths():
    rng = np.random.default_rng(21)
    for n in range(3, 9):
        for _ in range(25):
            p = rng.uniform(0.55, 0.95, size=n)
            est = recover_accuracies(correlation_from_accuracies(p), clip_lo=0.01, clip_hi=0.99)
            assert np.allclose(est.raw, p, rtol=0.0, atol=1e-10)


def test_round_trip_below_half_reflects():
    # a labeler worse than chance is recovered at its mirror image above 1/2:
    # the root only fixes (2p-1)^2, and the sign is resolved optimistically
    p = np.array([0.9, 0.8, 0.3])
    est = recover_accuracies(correlation_from_accuracies(p))
    assert est.raw[2] == pytest.approx(0.7, abs=1e-12)


def test_identity_matrix_hits_degenerate_branch():
    est = recover_accuracies(np.eye(3))
    assert np.all(est.raw == 0.5)
    assert np.all(est.accuracies == 0.5)


def test_tie_break_prefers_lexicographic_witness_pair():
    # for h=0 the witness candidates (1,2) and (1,3) tie on |corr| = 0.5;
    # row-major argmax must take (1,2), whose recovered value differs from
    # the (1,3) alternative because corr[0,2] != corr[0,3]
    c = np.array([
        [1.0, 0.40, 0.20, 0.10],
        [0.40, 1.0, 0.50, 0.50],
        [0.20, 0.50, 1.0, 0.05],
        [0.10, 0.50, 0.05, 1.0],
    ])
    est = recover_accuracies(c, clip_lo=0.01, clip_hi=0.99)
    via_12 = 0.5 * (1.0 + np.sqrt(abs(c[0, 1] * c[0, 2] / c[1, 2])))
    via_13 = 0.5 * (1.0 + np.sqrt(abs(c[0, 1] * c[0, 3] / c[1, 3])))
    assert via_12 != pytest.approx(via_13, abs=1e-6)  # the tie is observable
    assert est.raw[0] == pytest.approx(via_12, abs=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(22)
    p = rng.uniform(0.55, 0.95, size=6)
    c = correlation_from_accuracies(p)
    perm = rng.permutation(6)
    permuted = recover_accuracies(c[np.ix_(perm, perm)], clip_lo=0.01, clip_hi=0.99)
    plain = recover_accuracies(c, clip_lo=0.01, clip_hi=0.99)
    assert np.allclose(permuted.raw, plain.raw[perm], rtol=0.0, atol=1e-10)


def test_clipping_band():
    p = np.array([0.98, 0.7, 0.3])
    est = recover_accuracies(correlation_from_accuracies(p), clip_lo=0.35, clip_hi=0.9)
    assert est.raw[0] == pytest.approx(0.98, abs=1e-12)  # raw untouched
    assert est.accuracies[0] == 0.9
    # the adversarial labeler reflects to 0.7, inside the band
    assert est.accuracies[2] == pytest.approx(0.7, abs=1e-12)
    assert est.window == 0
    est2 = recover_accuracies(correlation_from_accuracies(p), window=64)
    assert est2.window == 64


def test_stability_under_small_perturbation():
    # a perturbation eta of the correlations moves the recovered accuracies
    # by O(eta) when the true accuracies are bounded away from 1/2
    rng = np.random.default_rng(23)
    p = np.array([0.85, 0.8, 0.75, 0.7])
    c = correlation_from_accuracies(p)
    eta = 1e-4
    for _ in range(50):
        noise = rng.uniform(-eta, eta, size=c.shape)
        noise = np.triu(noise, k=1)
        noisy = c + noise + noise.T
        est = recover_accuracies(noisy, clip_lo=0.01, clip_hi=0.99)
        assert np.abs(est.raw - p).max() < 50 * eta


def test_input_validation():
    good = correlation_from_accuracies([0.8, 0.7, 0.6])
    with pytest.raises(ValueError):
        recover_accuracies(good[:2, :])
    with pytest.raises(ValueError):
        recover_accuracies(good[:2, :2])  # n=2
    bad = good.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError):
        recover_accuracies(bad)  # asymmetric
    bad = good.copy()
    bad[1, 1] = 0.9
    with pytest.raises(ValueError):
        recover_accuracies(bad)  # diagonal
    for value in (np.nan, np.inf, -np.inf):
        # a non-finite entry, even a symmetric one or one on the diagonal,
        # fails the symmetry test, without numpy's "invalid value" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = good.copy()
            bad[0, 1] = bad[1, 0] = value
            with pytest.raises(ValueError, match="symmetric"):
                recover_accuracies(bad)
            bad = good.copy()
            bad[2, 2] = value
            with pytest.raises(ValueError, match="symmetric"):
                recover_accuracies(bad)
    with pytest.raises(ValueError):
        recover_accuracies(good, clip_lo=0.6)
    with pytest.raises(ValueError):
        recover_accuracies(good, clip_hi=0.4)
    with pytest.raises(ValueError, match="window"):
        recover_accuracies(good, window=-5)
    for bad_window in (2.7, 3.0, np.float64(4.0), "5", None, True, np.bool_(False)):
        with pytest.raises(ValueError, match="window must be a nonnegative integer"):
            recover_accuracies(good, window=bad_window)
    assert recover_accuracies(good, window=0).window == 0
    for window in (7, np.int64(7), np.int8(7), np.uint32(7)):
        est = recover_accuracies(good, window=window)
        assert est.window == 7 and type(est.window) is int


def witness_masks(n):
    """(n, n, n) bool; entry [h, i, j] marks i < j with both distinct from h."""
    masks = np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), k=1), (n, n, n)).copy()
    idx = np.arange(n)
    masks[idx, idx, :] = False
    masks[idx, :, idx] = False
    return masks


def per_labeler_recover_raw(mats):
    """The per-h loop over full (B, n, n) matrices that the batched
    ``_recover_raw`` replaced, kept as its oracle: one masked argmax over
    the witness pairs of each labeler, the first max in row-major order."""
    batch, n = mats.shape[0], mats.shape[1]
    masks = witness_masks(n)
    absm = np.abs(mats)
    rows = np.arange(batch)
    raw = np.empty((batch, n))
    for h in range(n):
        flat = np.where(masks[h], absm, -1.0).reshape(batch, -1)
        pick = np.argmax(flat, axis=1)  # first max in row-major order
        i, j = pick // n, pick % n
        c_ij = mats[rows, i, j]
        c_ih = mats[rows, i, h]
        c_hj = mats[rows, h, j]
        degenerate = np.abs(c_ij) <= ZERO_TOL
        ratio = np.abs(c_ih * c_hj / np.where(degenerate, 1.0, c_ij))
        raw[:, h] = np.where(degenerate, 0.5, 0.5 * (1.0 + np.sqrt(ratio)))
    return raw


def full_matrices(pairs, n):
    """(B, n, n) symmetric matrices with a unit diagonal from (B, P) pairs."""
    iu, ju = np.triu_indices(n, 1)
    mats = np.empty((len(pairs), n, n))
    mats[:, iu, ju] = mats[:, ju, iu] = pairs
    mats[:, np.arange(n), np.arange(n)] = 1.0
    return mats


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 8, 32])
def test_batched_recovery_matches_per_labeler_loop(n):
    # entries on a 0.1 grid, so many |corr| tie exactly and the first-max
    # rule decides the witness; a few matrices carry zeros, a zero witness
    # (the identity) and a NaN
    rng = np.random.default_rng(n)
    upper = np.round(rng.uniform(-1.0, 1.0, size=(40, n, n)), 1)
    upper[:5] *= rng.random((5, n, n)) < 0.5
    mats = np.triu(upper, k=1)
    mats = mats + mats.transpose(0, 2, 1)
    mats[:, np.arange(n), np.arange(n)] = 1.0
    mats[5] = np.eye(n)
    mats[6, 0, 1] = mats[6, 1, 0] = np.nan
    mats[7, 1, 2] = mats[7, 2, 1] = -0.0
    mats[8:12] = [correlation_from_accuracies(rng.uniform(0.55, 0.95, n)) for _ in range(4)]
    iu, ju = np.triu_indices(n, 1)
    want = per_labeler_recover_raw(mats)
    got = _recover_raw(mats[:, iu, ju], n)
    assert_same_bits(got, want)
    assert np.isnan(got[6]).any() and np.all(got[5] == 0.5)


@st.composite
def tied_pairs(draw):
    """(n, (B, P) pairs): entries on a 1/4 grid in [-2, 2], so that |C| ties
    are frequent (and |C| > 1 still ranks), with some labelers zeroed, so
    that whole rows of candidates are zero witnesses, and at most one NaN."""
    n = draw(st.integers(3, 8))
    batch = draw(st.integers(1, 4))
    size = n * (n - 1) // 2
    grid = draw(st.lists(st.integers(-8, 8), min_size=batch * size, max_size=batch * size))
    pairs = np.array(grid, dtype=float).reshape(batch, size) / 4.0
    zero = np.array(draw(st.lists(st.booleans(), min_size=batch * n, max_size=batch * n)))
    zero = zero.reshape(batch, n)
    iu, ju = np.triu_indices(n, 1)
    pairs[zero[:, iu] | zero[:, ju]] = 0.0
    nan_at = draw(st.none() | st.integers(0, batch * size - 1))
    if nan_at is not None:
        pairs.flat[nan_at] = np.nan
    return n, pairs


def _wide_case(n=32, batch=6):
    rng = np.random.default_rng(32)
    pairs = np.round(rng.uniform(-1.0, 1.0, size=(batch, n * (n - 1) // 2)), 1)
    iu, ju = np.triu_indices(n, 1)
    zero = rng.random((batch, n)) < 0.2
    pairs[zero[:, iu] | zero[:, ju]] = 0.0
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(tied_pairs())
@example(_wide_case())
def test_pair_recovery_matches_the_full_matrix_loop(case):
    n, pairs = case
    assert_same_bits(_recover_raw(pairs, n), per_labeler_recover_raw(full_matrices(pairs, n)))


def test_recover_accuracies_reads_the_upper_triangle():
    # a matrix symmetric only to within the tolerance is recovered from its
    # upper triangle, as the engine recovers the bank's pairs
    rng = np.random.default_rng(5)
    for n in (3, 4, 8):
        c = correlation_from_accuracies(rng.uniform(0.55, 0.95, n))
        skew = np.triu(rng.uniform(-1e-13, 1e-13, (n, n)), k=1)
        tilted = c + skew - skew.T
        upper = np.triu(tilted) + np.triu(tilted, k=1).T
        lower = np.tril(tilted) + np.tril(tilted, k=-1).T
        got = recover_accuracies(tilted).raw
        assert got.tobytes() == recover_accuracies(upper).raw.tobytes()
        assert got.tobytes() != recover_accuracies(lower).raw.tobytes()
