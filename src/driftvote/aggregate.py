"""Vote aggregation strategies over a stream.

Aggregation is a weighted majority: given per-labeler accuracies p the
weight of labeler i is its log odds ``ln(p_i / (1 - p_i))``, which is the
weighting that maximizes the probability of recovering the true label when
labeler errors are independent given the truth.  Exact ties go to +1.

:func:`run_strategy` is the one entry to three strategies:

* ``adaptive``   - pick the window :func:`.adaptive.select_window` would
  pick, recover accuracies from it, weight, vote.
* ``fixed:R``    - same pipeline with a fixed window of min(t, R).
* ``majority``   - unweighted majority vote (equivalent to ``fixed:1``,
  where every recovered accuracy clips to the same constant).

``adaptive`` and ``fixed:R`` run on one offline engine that works on
chunks of steps at once: each chunk extends one :class:`.CorrelationBank`,
which gives every window's exact sums; the chunk's ladder walks are one
:func:`.adaptive._walk` over a table of gaps, recovery one batch and the
vote one dot product per step.
Its outputs are bit-identical to pushing each step into a bank and calling
:func:`.adaptive.select_window`, :func:`.triplet.recover_accuracies`,
:func:`log_odds_weights` and :func:`weighted_vote`; that per-step online
API stays the engine's oracle.
"""

from __future__ import annotations

import numpy as np

from .adaptive import _threshold_ladder, _walk
from .core import AdaptiveConfig, Reports
from .corrwin import CorrelationBank, _all_plus_minus_one, as_vote_matrix
from .triplet import _recover_raw

STRATEGY_ADAPTIVE = "adaptive"
STRATEGY_MAJORITY = "majority"
STRATEGY_FIXED = "fixed"


def log_odds_weights(p) -> np.ndarray:
    """Per-labeler weights ``ln(p / (1 - p))``; requires 0 < p < 1."""
    acc = np.asarray(p, dtype=float)
    if not ((acc > 0.0) & (acc < 1.0)).all():  # NaN fails
        raise ValueError("accuracies must lie strictly inside (0, 1); clip estimates first")
    return np.log(acc / (1.0 - acc))


def weighted_vote(votes, weights) -> int:
    """Sign of the weighted vote sum; an exact tie predicts +1, and a NaN
    sum (a NaN vote or weight, or opposite infinite terms) raises."""
    v = np.asarray(votes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"votes {v.shape} and weights {w.shape} must align")
    if np.isfinite((v, w)).all():  # votes and weights in one call
        score = float(v @ w)
    else:  # inf - inf and 0 * inf are NaN, which numpy warns of; the NaN raises below
        with np.errstate(invalid="ignore"):
            score = float(v @ w)
    if score != score:
        raise ValueError("weighted vote sum is NaN; votes and weights must be numbers")
    return 1 if score >= 0.0 else -1


def majority_vote(votes) -> int:
    """Unweighted majority; an exact tie predicts +1."""
    return 1 if int(np.add.reduce(votes, axis=None)) >= 0 else -1


def parse_strategy(strategy: str) -> tuple[str, int | None]:
    """Split a strategy string into (kind, fixed window or None)."""
    if strategy == STRATEGY_ADAPTIVE:
        return STRATEGY_ADAPTIVE, None
    if strategy == STRATEGY_MAJORITY:
        return STRATEGY_MAJORITY, None
    if strategy.startswith(STRATEGY_FIXED + ":"):
        tail = strategy.split(":", 1)[1]
        try:
            r = int(tail)
        except ValueError:
            raise ValueError(f"bad fixed window {tail!r} in strategy {strategy!r}") from None
        if r < 1:
            raise ValueError(f"fixed window must be positive, got {r}")
        return STRATEGY_FIXED, r
    raise ValueError(
        f"unknown strategy {strategy!r}; expected 'adaptive', 'majority', or 'fixed:R'"
    )


def _check_truths(truths, steps: int) -> np.ndarray | None:
    if truths is None:
        return None
    arr = np.asarray(truths)
    if arr.shape != (steps,):
        raise ValueError(f"expected {steps} truth labels, got shape {arr.shape}")
    if not _all_plus_minus_one(arr):
        raise ValueError("truth labels must be +/-1")
    return arr.astype(np.int8)


def _checked_strategy(strategy: str, config: AdaptiveConfig) -> tuple[str, int | None]:
    """Parse ``strategy`` and check it against ``config``'s ladder: a fixed
    window must not exceed its largest size, and an adaptive ladder must
    start at 1 so that step 1 has a window."""
    kind, fixed_r = parse_strategy(strategy)
    if kind == STRATEGY_FIXED and fixed_r > config.schedule.max_size:
        raise ValueError(
            f"fixed window {fixed_r} exceeds the schedule's largest size "
            f"{config.schedule.max_size}"
        )
    if kind == STRATEGY_ADAPTIVE and config.schedule.sizes[0] != 1:
        raise ValueError(
            f"adaptive runs need a ladder that starts at 1, got sizes "
            f"{list(config.schedule.sizes)}"
        )
    return kind, fixed_r


def _checked_votes(votes, config: AdaptiveConfig | None) -> tuple[np.ndarray, AdaptiveConfig]:
    """Input check of :func:`run_strategy`: a nonempty (T, n) +/-1 matrix as
    int8, and a config for n labelers (``AdaptiveConfig(n)`` when None)."""
    v = np.asarray(votes)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError(f"expected a nonempty (T, n) vote matrix, got shape {v.shape}")
    n = v.shape[1]
    if config is None:
        config = AdaptiveConfig(n=n)
    if config.n != n:
        raise ValueError(f"config expects {config.n} labelers, stream has {n}")
    return as_vote_matrix(v, n), config


def _estimate(pairs: np.ndarray, n: int, config: AdaptiveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clipped accuracies and log-odds weights, each (B, n), for (B, P)
    upper-triangle bank correlations of n labelers.

    Same arithmetic as :func:`.triplet.recover_accuracies` followed by
    :func:`log_odds_weights`, without their checks: a bank matrix is an
    integer sum of +/-1 outer products over ``min(t, r)``, so it is exactly
    symmetric with a unit diagonal, and ``AdaptiveConfig`` has already
    checked the clip band.
    """
    p = np.clip(_recover_raw(pairs, n), config.clip_lo, config.clip_hi)
    return p, np.log(p / (1.0 - p))


#: a chunk of the offline engine holds _CHUNK_BUDGET // (rungs * labeler
#: pairs) rows of window sums, so that its tables stay small, but at least
#: _CHUNK_MIN_ROWS rows, so that its per-chunk numpy calls stay few at large n
_CHUNK_BUDGET = 2**12
_CHUNK_MIN_ROWS = 16


def _votes(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`weighted_vote` of each row: one dot product per row, because a
    batched product may sum in another order and flip a near-tie."""
    return np.array(
        [1 if float(v @ w) >= 0.0 else -1 for v, w in zip(rows.astype(float), weights)],
        dtype=np.int8,
    )


def run_strategy(
    votes,
    strategy: str,
    config: AdaptiveConfig | None = None,
    truths=None,
) -> Reports:
    """Run one aggregation strategy over a resolved +/-1 vote stream.

    Parameters
    ----------
    votes : (T, n) array
        One row per step, entries +/-1 (resolve abstentions first).
    strategy : str
        ``adaptive``, ``majority``, or ``fixed:R`` with
        ``1 <= R <= config.schedule.max_size``.  ``adaptive`` needs a
        ladder whose first size is 1, so that step 1 has a window.
    config : AdaptiveConfig, optional
        Defaults to ``AdaptiveConfig(n)`` for the stream's width.
    truths : (T,) array, optional
        True labels; fills ``truth`` (and so ``correct``) in the reports.
    """
    v, config = _checked_votes(votes, config)
    kind, fixed_r = _checked_strategy(strategy, config)
    steps, n = v.shape
    truth = _check_truths(truths, steps)

    if kind == STRATEGY_MAJORITY:
        # exact integer row sums, the same sign as majority_vote per row
        return Reports(prediction=np.where(v.sum(axis=1) >= 0, 1, -1).astype(np.int8), truth=truth)

    adaptive = kind == STRATEGY_ADAPTIVE
    sizes = np.array(config.schedule.sizes if adaptive else (fixed_r,))
    bank = CorrelationBank(n, sizes)
    chunk = max(_CHUNK_MIN_ROWS, _CHUNK_BUDGET // (len(sizes) * n * (n - 1) // 2))
    prediction = np.empty(steps, dtype=np.int8)
    window = np.empty(steps, dtype=np.int64)
    p_hat = np.empty((steps, n))
    weights = np.empty((steps, n))
    stop_reason = np.empty(steps, dtype=np.int8) if adaptive else None
    if adaptive:
        thresholds = np.array(_threshold_ladder(config.schedule.sizes, config.beta, config.bound_const))
    for start in range(0, steps, chunk):
        rows = slice(start, min(start + chunk, steps))
        corr = bank._extend(v[rows])
        t = np.arange(rows.start + 1, rows.stop + 1)
        if adaptive:
            k, stop_reason[rows] = _walk(corr, t, sizes, thresholds)
        else:
            k = np.zeros(len(corr), dtype=np.intp)
        window[rows] = np.minimum(t, sizes[k])
        p_hat[rows], weights[rows] = _estimate(corr[np.arange(len(corr)), k], n, config)
        prediction[rows] = _votes(v[rows], weights[rows])
    return Reports(prediction, window, p_hat, weights, truth, stop_reason)
