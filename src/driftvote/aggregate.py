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

A run's engine is one chunk function, :func:`_decider`, which
:func:`run_strategy` calls on the whole matrix and ``driftvote run`` on
each block of a stream file.  ``adaptive`` and ``fixed:R`` run on one
offline engine, :func:`_feed`, which decides a chunk of steps at once: the
chunk extends one :class:`.CorrelationBank`, which gives every window's
exact sums; the chunk's ladder walks are one :func:`.adaptive._walk` over
a table of gaps, recovery one batch and the vote one dot product per step.
The bank is the engine's only state, so chunks fed in turn give the
columns of one call.  Its outputs are bit-identical to pushing each step
into a bank and calling :func:`.adaptive.select_window`,
:func:`.triplet.recover_accuracies`, :func:`log_odds_weights` and
:func:`weighted_vote`; that per-step online API stays the engine's oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace

import numpy as np

from .adaptive import _walk
from .core import AdaptiveConfig, Reports
from .corrwin import CorrelationBank, _all_plus_minus_one, as_vote_matrix
from .triplet import _float_array, _recover_raw, _witness_table

STRATEGY_ADAPTIVE = "adaptive"
STRATEGY_MAJORITY = "majority"
STRATEGY_FIXED = "fixed"


def log_odds_weights(p) -> np.ndarray:
    """Per-labeler weights ``ln(p / (1 - p))``; requires real 0 < p < 1."""
    acc = _float_array(p, "accuracies")
    if not all(0.0 < x < 1.0 for x in acc.ravel().tolist()):  # NaN fails
        raise ValueError("accuracies must lie strictly inside (0, 1); clip estimates first")
    return np.log(acc / (1.0 - acc))


def weighted_vote(votes, weights) -> int:
    """Sign of the weighted vote sum; an exact tie predicts +1, and a NaN
    sum (a NaN vote or weight, or opposite infinite terms) or a complex
    vote or weight raises."""
    v = _float_array(votes, "votes")
    w = _float_array(weights, "weights")
    if v.shape != w.shape:
        raise ValueError(f"votes {v.shape} and weights {w.shape} must align")
    # a finite sum of |products| bounds every partial sum of the dot product,
    # in any order; a NaN or infinite entry, or a product or sum that
    # overflows, takes the muted branch, which gives the same score
    if math.isfinite(sum(map(abs, map(operator.mul, v.ravel().tolist(), w.ravel().tolist())))):
        score = float(v @ w)
    else:  # inf - inf and 0 * inf are NaN and huge finite terms overflow, which
        # numpy warns of; an overflow keeps its sign, and a NaN raises below
        with np.errstate(invalid="ignore", over="ignore"):
            score = float(v @ w)
    if score != score:
        raise ValueError("weighted vote sum is NaN; votes and weights must be numbers")
    return 1 if score >= 0.0 else -1


def majority_vote(votes) -> int:
    """Unweighted majority; an exact tie predicts +1."""
    return 1 if int(sum(np.asarray(votes).ravel().tolist())) >= 0 else -1


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


def _checked_votes(votes, config: AdaptiveConfig | None) -> np.ndarray:
    """Input check of :func:`run_strategy`: a (T, n) +/-1 matrix with T and
    n positive, as int8, whose n is ``config``'s when a config is given."""
    v = np.asarray(votes)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError(f"expected a nonempty (T, n) vote matrix, got shape {v.shape}")
    n = v.shape[1]
    if config is not None and config.n != n:
        raise ValueError(f"config expects {config.n} labelers, stream has {n}")
    return as_vote_matrix(v, n)


def _estimate(pairs: np.ndarray, n: int, config: AdaptiveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clipped accuracies and log-odds weights, each (B, n), for (B, P)
    upper-triangle bank correlations of n labelers.

    Same arithmetic as :func:`.triplet.recover_accuracies` followed by
    :func:`log_odds_weights`, without their checks: a bank matrix is an
    integer sum of +/-1 outer products over ``min(t, r)``, so it is exactly
    symmetric with a unit diagonal, and ``AdaptiveConfig`` has already
    checked the clip band.
    """
    p = np.clip(_recover_raw(np.abs(pairs), _witness_table(n)), config.clip_lo, config.clip_hi)
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


def _feed(bank: CorrelationBank, rows: np.ndarray, config: AdaptiveConfig):
    """Push a checked (c, n) int8 chunk into ``bank`` and decide its steps,
    which follow on from ``bank.t``: a bank of ``config``'s ladder (two
    rungs or more) walks it, and a bank of one fixed window does not.
    Returns their report columns by name, ``window``, ``p_hat``, ``weights``,
    ``prediction`` and, only after a walk, ``stop_reason``, in the dtypes of :class:`.Reports`."""
    sizes = bank._sizes
    t = np.arange(bank.t + 1, bank.t + len(rows) + 1)
    corr = bank._extend(rows)
    if len(sizes) > 1:
        k, stop_reason = _walk(corr, t, sizes, config.thresholds)
    else:
        k, stop_reason = np.zeros(len(rows), dtype=np.intp), None
    p_hat, weights = _estimate(corr[np.arange(len(rows)), k], bank.n, config)
    window = np.minimum(t, sizes[k])
    columns = dict(window=window, p_hat=p_hat, weights=weights, prediction=_votes(rows, weights))
    return columns if stop_reason is None else {**columns, "stop_reason": stop_reason}


def _decider(strategy: str, config: AdaptiveConfig | None, n: int):
    """The engine of one run of ``strategy`` over n labelers: a function
    that takes a checked (c, n) int8 chunk of +/-1 votes, the steps after
    those of its earlier calls, and returns their report columns by name,
    in the dtypes of :class:`.Reports`.

    ``majority`` takes exact integer row sums and ignores ``config``, so
    it takes a stream of any width.  ``adaptive`` and ``fixed:R`` run on
    ``config`` at width n (``AdaptiveConfig(n)`` when it is None): they
    push each chunk through one :class:`.CorrelationBank` by
    :func:`_feed`, in pieces of ``piece`` rows and a shorter last one,
    which keep its tables small; the bank is their only state.
    """
    if parse_strategy(strategy)[0] == STRATEGY_MAJORITY:
        # exact integer row sums, the same sign as majority_vote per row
        return lambda rows: {"prediction": np.where(rows.sum(axis=1) >= 0, 1, -1).astype(np.int8)}
    config = AdaptiveConfig(n=n) if config is None else replace(config, n=n)
    kind, fixed_r = _checked_strategy(strategy, config)
    bank = CorrelationBank(n, (fixed_r,) if kind == STRATEGY_FIXED else config.schedule.sizes)
    piece = max(_CHUNK_MIN_ROWS, _CHUNK_BUDGET // (len(bank.sizes) * n * (n - 1) // 2))

    def decide(rows: np.ndarray) -> dict[str, np.ndarray]:
        columns = {}
        for start in range(0, len(rows), piece):
            for name, values in _feed(bank, rows[start:start + piece], config).items():
                if not start:  # each column takes the dtype and row shape of its first piece
                    columns[name] = np.empty((len(rows), *values.shape[1:]), dtype=values.dtype)
                columns[name][start:start + piece] = values
        return columns

    return decide


def run_strategy(
    votes,
    strategy: str,
    config: AdaptiveConfig | None = None,
    truths=None,
) -> Reports:
    """Run one aggregation strategy over a resolved +/-1 vote stream: the
    engine of :func:`_decider` over the whole matrix.

    Parameters
    ----------
    votes : (T, n) array
        One row per step, entries +/-1 (resolve abstentions first).
    strategy : str
        ``adaptive``, ``majority``, or ``fixed:R`` with
        ``1 <= R <= config.schedule.max_size``.  ``adaptive`` needs a
        ladder whose first size is 1, so that step 1 has a window.
    config : AdaptiveConfig, optional
        Defaults to ``AdaptiveConfig(n)`` for the stream's width, which
        needs n >= 3.  ``majority`` builds none, so it takes any n >= 1;
        a config that is given must still be for n labelers.
    truths : (T,) array, optional
        True labels; fills ``truth`` (and so ``correct``) in the reports.
    """
    v = _checked_votes(votes, config)
    truth = _check_truths(truths, v.shape[0])
    return Reports(truth=truth, **_decider(strategy, config, v.shape[1])(v))
