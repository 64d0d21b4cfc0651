"""Shared types and theory constants for windowed vote aggregation.

The engine trades two error sources against each other when it estimates
labeler correlations from the last ``r`` votes of a stream:

* a statistical term that shrinks like ``const / sqrt(r)``, and
* a drift term that grows with how much the labelers' accuracies moved
  inside the window.

Everything in this module is deterministic bookkeeping for that tradeoff:
the window-size ladder searched at each step (:class:`WindowSchedule`), the
run configuration (:class:`AdaptiveConfig`), the union-bound constant that
calibrates per-window deviations, the walk's drift threshold between two
rungs, the multiplicative overhead the adaptive search pays over the best
fixed window in hindsight, and a small report bundle (:class:`ErrorBudget`)
for surfacing these numbers to users.

It also holds the records that the layers pass between them, a vote
:class:`Stream` and the per-step :class:`Reports` with their columns and
stop-reason names, so that reading, writing and evaluating files needs no engine.
Nothing here imports numpy.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np

#: multiplier converting a one-step accuracy jump into its worst-case
#: effect on a correlation entry (two factors, each moving two entries).
DRIFT_TO_CORR = 12.0

#: default lookahead of the rolling accuracy series
ROLLING_LOOKAHEAD = 128

STOP_THRESHOLD = "threshold_exceeded"
STOP_SCHEDULE = "schedule_exhausted"
STOP_HORIZON = "horizon_reached"

#: every stop reason, indexed by the code ``Reports.stop_reason`` stores
STOPS = (STOP_THRESHOLD, STOP_HORIZON, STOP_SCHEDULE)


def _record(cls, fields: dict):
    """A ``cls`` instance holding ``fields``, built without ``__init__``: a
    frozen dataclass's sets each field through ``object.__setattr__``,
    which the per-step calls would pay on every record.  The caller passes
    every field, already checked."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def integer(value, what: str) -> int:
    """``value`` as a Python int if it is a Python or numpy integer (not a
    bool; a numpy bool has no index), else a :class:`ValueError` naming ``what``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def window_sizes(sizes, least: int) -> tuple[int, ...]:
    """The one window-ladder rule, of :class:`WindowSchedule` and :class:`.corrwin.CorrelationBank`:
    ``least`` or more :func:`integer` sizes, strictly increasing from 1 up to the largest float."""
    sizes = tuple(integer(s, "a window size") for s in sizes)
    if len(sizes) < least or any(b <= a for a, b in zip((0, *sizes), sizes)):
        raise ValueError(f"need {least} or more window sizes, positive and strictly increasing, got {sizes}")
    if sizes[-1] > sys.float_info.max:  # the theory numbers take square roots of floats
        raise ValueError(f"window sizes must not exceed the largest float, {sys.float_info.max!r}")
    return sizes


def union_bound_constant(n: int, m: int, delta: float) -> float:
    """Deviation constant ``sqrt(2 ln((2m - 1) n (n - 1) / delta))``.

    Calibrated so that, with probability at least ``1 - delta``, every
    entry of every windowed correlation estimate the selection rule may
    touch (all ``m`` windows plus the ``m - 1`` pairwise comparisons, for
    all ``n (n - 1)`` ordered labeler pairs) stays within its sub-Gaussian
    deviation band simultaneously.

    Parameters
    ----------
    n : int
        Number of labelers, at least 3.
    m : int
        Number of windows in the schedule, at least 2.
    delta : float
        Failure probability, in (0, 1).

    ``n`` and ``m`` are :func:`integer` counts.
    """
    n, m = integer(n, "n"), integer(m, "m")
    if n < 3:
        raise ValueError(f"need at least 3 labelers, got n={n}")
    if m < 2:
        raise ValueError(f"need at least 2 windows, got m={m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log((2 * m - 1) * n * (n - 1) / delta))


def statistical_error(r: int, bound_const: float) -> float:
    """High-probability sup-norm deviation of an r-sample correlation
    estimate in the stationary case: ``bound_const / sqrt(r)``, for an :func:`integer` ``r``."""
    r = integer(r, "a window size")
    if r < 1:
        raise ValueError(f"window size must be positive, got {r}")
    return bound_const / math.sqrt(r)


def drift_threshold(r_small: int, r_large: int, beta: float, bound_const: float) -> float:
    """Largest sup-norm gap between the ``r_small`` and ``r_large`` window
    estimates still attributable to sampling noise plus tolerated drift:
    ``bound_const * (2 beta / sqrt(r_small) + sqrt((1 - r_small/r_large) / r_small))``.
    The second term is the deviation band of the *difference* of the two
    overlapping estimates; the first is slack for the drift the walk
    tolerates before it shrinks the window.  The two sizes are a :func:`window_sizes` ladder."""
    r_small, r_large = window_sizes((r_small, r_large), 2)
    if not 0.0 <= beta < math.inf:  # NaN fails
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    if bound_const <= 0.0:
        raise ValueError(f"bound_const must be positive, got {bound_const}")
    return bound_const * (
        2.0 * beta / math.sqrt(r_small) + math.sqrt((1.0 - r_small / r_large) / r_small)
    )


@dataclass(frozen=True)
class WindowSchedule:
    """Ladder of candidate window sizes, checked and kept as Python ints by :func:`window_sizes`.

    The adaptive rule walks the ladder from the smallest size upward and
    stops when consecutive estimates disagree by more than a drift
    threshold, so the geometry of the ladder (how fast sizes grow) shows
    up in the guarantees through the consecutive-size ratios below.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", window_sizes(self.sizes, 2))

    @classmethod
    def doubling(cls, m: int) -> "WindowSchedule":
        """The default ladder ``1, 2, 4, ..., 2**(m-1)``."""
        return cls(tuple(2**k for k in range(m)))

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def max_size(self) -> int:
        return self.sizes[-1]

    @cached_property
    def min_ratio(self) -> float:
        """min over consecutive sizes of sqrt(r_k / r_{k+1}), in (0, 1)."""
        return min(math.sqrt(a / b) for a, b in zip(self.sizes, self.sizes[1:]))

    @cached_property
    def max_ratio(self) -> float:
        """max over consecutive sizes of sqrt(r_k / r_{k+1}), in (0, 1)."""
        return max(math.sqrt(a / b) for a, b in zip(self.sizes, self.sizes[1:]))


def selection_overhead(schedule: WindowSchedule, beta: float) -> float:
    """Multiplicative factor the adaptive window search pays over an oracle
    that knows the best window in hindsight.

    With ``g = min_ratio`` and ``G = max_ratio`` of the schedule,

        overhead = 1 + max( (2b + 2) / (g (1 - G)),
                            (2b + 2) / (b (1 - G)) )

    where ``b = beta`` is the drift-tolerance knob of the threshold rule.
    Small beta makes the stop rule touchy and the second argument blow up;
    large beta makes it lax and the first argument grow.  For a fixed
    power schedule the two arguments balance at ``beta = g``; optimizing
    the schedule ratio jointly with beta lands both at ``sqrt(2) - 1``.
    """
    if not 0.0 < beta < math.inf:  # NaN fails
        raise ValueError(f"beta must be positive and finite, got {beta}")
    g, big_g = schedule.min_ratio, schedule.max_ratio
    scale = 2.0 * beta + 2.0
    return 1.0 + max(scale / (g * (1.0 - big_g)), scale / (beta * (1.0 - big_g)))


@dataclass(frozen=True)
class AdaptiveConfig:
    """Run configuration shared by the estimation and aggregation layers.

    Parameters
    ----------
    n : int
        Number of labelers (at least 3; the accuracy recovery needs
        triples).
    schedule : WindowSchedule
        Candidate window ladder; defaults to 20 doubling sizes, 1..2**19.
    beta : float
        Drift tolerance of the window-comparison threshold.
    delta : float
        Failure probability budget for the deviation bands.
    clip_lo, clip_hi : float
        Recovered accuracies are clipped into [clip_lo, clip_hi] before
        weighting, keeping log-odds weights finite under estimation noise.
    """

    n: int
    schedule: WindowSchedule = field(default_factory=lambda: WindowSchedule.doubling(20))
    beta: float = 0.1
    delta: float = 0.1
    clip_lo: float = 0.1
    clip_hi: float = 0.9

    def __post_init__(self) -> None:
        if integer(self.n, "n") < 3:
            raise ValueError(f"need at least 3 labelers, got n={self.n}")
        if not 0.0 < self.beta < math.inf:  # NaN fails
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.clip_lo < 0.5:
            raise ValueError(f"clip_lo must lie in (0, 0.5), got {self.clip_lo}")
        if not 0.5 < self.clip_hi < 1.0:
            raise ValueError(f"clip_hi must lie in (0.5, 1), got {self.clip_hi}")

    @cached_property
    def bound_const(self) -> float:
        return union_bound_constant(self.n, self.schedule.m, self.delta)

    @cached_property
    def thresholds(self) -> tuple[float, ...]:
        """The walk's m - 1 :func:`drift_threshold` values, one per pair of consecutive sizes."""
        s = self.schedule.sizes
        return tuple(drift_threshold(a, b, self.beta, self.bound_const) for a, b in zip(s, s[1:]))

    @cached_property
    def overhead(self) -> float:
        return selection_overhead(self.schedule, self.beta)


@dataclass(frozen=True)
class ErrorBudget:
    """Static theory numbers for a configuration, for reporting only.

    ``statistical`` maps each window size to its stationary deviation band
    ``bound_const / sqrt(r)``; ``margin`` is an optional user-supplied
    lower bound tau such that every true accuracy stays above
    ``1/2 + tau``.  Nothing here feeds back into estimation.
    """

    overhead: float
    bound_const: float
    margin: float | None
    statistical: Mapping[int, float]

    @property
    def recovery_prefactor(self) -> float | None:
        """Constant ``(5/2) overhead / margin**2`` that converts a
        correlation sup-norm error into an accuracy sup-norm error, when a
        margin is known."""
        if self.margin is None:
            return None
        return 2.5 * self.overhead / self.margin**2


def error_budget(config: AdaptiveConfig, margin: float | None = None) -> ErrorBudget:
    """Assemble the :class:`ErrorBudget` for ``config``."""
    if margin is not None and not 0.0 < margin <= 0.5:
        raise ValueError(f"margin must lie in (0, 0.5], got {margin}")
    stat = {r: statistical_error(r, config.bound_const) for r in config.schedule.sizes}
    return ErrorBudget(
        overhead=config.overhead,
        bound_const=config.bound_const,
        margin=margin,
        statistical=stat,
    )


@dataclass
class Stream:
    """Column-oriented stream: (T, n) votes plus optional truth/block arrays."""

    votes: np.ndarray
    truth: np.ndarray | None = None
    block: np.ndarray | None = None

    def __len__(self) -> int:
        return self.votes.shape[0]


#: The one list of report columns, in the order a report line holds them:
#: name -> (``array`` typecode: "b" int8, "q" int64 or "d" float64;
#: dimension, 2 for one value per labeler; the integers a column may hold,
#: or the names a file spells and memory stores as their index, or None
#: for positive integers ("q") or finite floats ("d"); what a reader says
#: the values must be).  ``t`` (first, 1..T) and ``correct`` (after
#: ``truth``) are derived on write and never stored.
REPORT_COLUMNS = {
    "window": ("q", 1, None, "positive integers"),  # the sample count used
    "p_hat": ("d", 2, None, "finite numbers"),  # clipped accuracy estimates
    "weights": ("d", 2, None, "finite numbers"),  # their log odds
    "prediction": ("b", 1, (-1, 1), "-1 or 1"),
    "truth": ("b", 1, (-1, 1), "-1 or 1"),  # set when the stream is labeled
    "stop_reason": ("b", 1, STOPS, "one of " + ", ".join(STOPS)),  # the walk's stop
}


@dataclass(eq=False)
class Reports:
    """Everything the engine decided over a stream, one row per step.

    Row ``i`` is step ``t = i + 1``.  Each field is a column of
    :data:`REPORT_COLUMNS`: a numpy array of its typecode, (T,) or (T, n)
    by its dimension, or None where the run made none (``window``,
    ``p_hat`` and ``weights`` for majority, ``truth`` for an unlabeled
    stream, ``stop_reason`` unless adaptive).  ``eval`` fills the 1-d
    columns with ``array.array`` values instead, for which ``correct`` is
    one bool, not a column.
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
