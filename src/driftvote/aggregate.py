"""Vote aggregation strategies over a stream.

Aggregation is a weighted majority: given per-labeler accuracies p the
weight of labeler i is its log odds ``ln(p_i / (1 - p_i))``, which is the
weighting that maximizes the probability of recovering the true label when
labeler errors are independent given the truth.  Exact ties go to +1.

Three strategies share one driver:

* ``adaptive``   - pick the window with :func:`.adaptive.select_window`,
  recover accuracies from it, weight, vote.
* ``fixed:R``    - same pipeline with a fixed window of min(t, R).
* ``majority``   - unweighted majority vote (equivalent to ``fixed:1``,
  where every recovered accuracy clips to the same constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive import select_window
from .core import AdaptiveConfig
from .corrwin import CorrelationBank, as_vote_matrix
from .triplet import _recover_raw

STRATEGY_ADAPTIVE = "adaptive"
STRATEGY_MAJORITY = "majority"
STRATEGY_FIXED = "fixed"


@dataclass(eq=False)
class Reports:
    """Everything the engine decided over a stream, one row per step.

    Row ``i`` is step ``t = i + 1``.  ``prediction`` is (T,) int8;
    ``window`` (T,) int64 is the sample count actually used (None for
    majority); ``p_hat`` and ``weights`` are (T, n) float64 clipped
    accuracy estimates and their log odds (None for majority); ``truth``
    (T,) int8 is set when the stream is labeled; ``stop_reason`` (T,) str
    only for adaptive runs.
    """

    prediction: np.ndarray
    window: np.ndarray | None = None
    p_hat: np.ndarray | None = None
    weights: np.ndarray | None = None
    truth: np.ndarray | None = None
    stop_reason: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.prediction)

    @property
    def correct(self) -> np.ndarray | None:
        """(T,) bool ``prediction == truth``; None when unlabeled."""
        return None if self.truth is None else self.prediction == self.truth


def log_odds_weights(p) -> np.ndarray:
    """Per-labeler weights ``ln(p / (1 - p))``; requires 0 < p < 1."""
    acc = np.asarray(p, dtype=float)
    if np.any(acc <= 0.0) or np.any(acc >= 1.0):
        raise ValueError("accuracies must lie strictly inside (0, 1); clip estimates first")
    return np.log(acc / (1.0 - acc))


def weighted_vote(votes, weights) -> int:
    """Sign of the weighted vote sum; an exact tie predicts +1."""
    v = np.asarray(votes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"votes {v.shape} and weights {w.shape} must align")
    return 1 if float(v @ w) >= 0.0 else -1


def majority_vote(votes) -> int:
    """Unweighted majority; an exact tie predicts +1."""
    return 1 if int(np.sum(votes)) >= 0 else -1


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
    if not np.all(np.abs(arr) == 1):
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
    """Input check shared by both runners: a nonempty (T, n) +/-1 matrix as
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


def _estimate(mats: np.ndarray, config: AdaptiveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clipped accuracies and log-odds weights, each (B, n), for a (B, n, n)
    stack of bank correlations.

    Same arithmetic as :func:`.triplet.recover_accuracies` followed by
    :func:`log_odds_weights`, without their checks: a bank matrix is an
    integer sum of +/-1 outer products over ``min(t, r)``, so it is exactly
    symmetric with a unit diagonal, and ``AdaptiveConfig`` has already
    checked the clip band.
    """
    p = np.clip(_recover_raw(mats), config.clip_lo, config.clip_hi)
    return p, np.log(p / (1.0 - p))


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

    prediction = np.empty(steps, dtype=np.int8)
    window = np.empty(steps, dtype=np.int64)
    p_hat = np.empty((steps, n))
    weights = np.empty((steps, n))
    stops = []
    bank = CorrelationBank(n, [fixed_r] if kind == STRATEGY_FIXED else config.schedule.sizes)

    for t in range(steps):
        bank.push(v[t])
        if kind == STRATEGY_ADAPTIVE:
            decision = select_window(bank, config)
            window[t] = decision.window
            stops.append(decision.stop_reason)
            corr = bank.correlation(decision.window)
        else:
            window[t] = bank.window_length(fixed_r)
            corr = bank.correlation(fixed_r)
        p, w = _estimate(corr[None], config)
        p_hat[t], weights[t] = p[0], w[0]
        prediction[t] = weighted_vote(v[t], w[0])
    stop_reason = np.array(stops) if kind == STRATEGY_ADAPTIVE else None
    return Reports(prediction, window, p_hat, weights, truth, stop_reason)


def run_fixed_sweep(votes, config: AdaptiveConfig | None = None, sizes=None) -> dict[int, np.ndarray]:
    """Predictions of every fixed-window strategy in one pass.

    Shares a single correlation bank across all window sizes, so a sweep
    over the whole ladder costs barely more than one fixed run.  Returns
    ``{r: (T,) array of +/-1 predictions}``; step-for-step identical to
    ``run_strategy(votes, f"fixed:{r}", config)``.
    """
    v, config = _checked_votes(votes, config)
    steps, n = v.shape
    ladder = tuple(sorted(set(int(r) for r in sizes))) if sizes is not None else config.schedule.sizes
    if not ladder:
        raise ValueError("need at least one window size to sweep")
    if ladder[0] < 1:
        raise ValueError(f"window sizes must be positive, got {ladder[0]}")
    if ladder[-1] > config.schedule.max_size:
        raise ValueError(
            f"sweep window {ladder[-1]} exceeds the schedule's largest size "
            f"{config.schedule.max_size}"
        )

    bank = CorrelationBank(n, ladder)
    out = np.empty((len(ladder), steps), dtype=np.int8)
    for t in range(steps):
        bank.push(v[t])
        _, weights = _estimate(bank.all_correlations(), config)
        # one weighted_vote per window, not one matrix-vector product: BLAS
        # sums a row of a matrix product in another order than a dot product,
        # which can flip the sign of a near-tie for n >= 4
        out[:, t] = [weighted_vote(v[t], w) for w in weights]
    return {r: out[k] for k, r in enumerate(ladder)}
