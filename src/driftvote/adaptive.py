"""Data-driven window selection for drifting vote streams.

The rule walks the window ladder from the smallest size upward, comparing
each window's correlation estimate against the next larger one.  Under a
stationary stream both estimate the same matrix, so their sup-norm gap is
small; a gap exceeding

    drift_threshold = bound_const * ( 2 beta / sqrt(r_k)
                                      + sqrt((1 - r_k/r_{k+1}) / r_k) )

is evidence that the extra history in the larger window is stale, and the
walk stops.  The second term is the deviation band of the *difference* of
the two overlapping estimates; the ``2 beta / sqrt(r_k)`` term adds slack
proportional to the drift the rule is willing to tolerate before shrinking
the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import AdaptiveConfig
from .corrwin import CorrelationBank

STOP_THRESHOLD = "threshold_exceeded"
STOP_SCHEDULE = "schedule_exhausted"
STOP_HORIZON = "horizon_reached"

#: every stop reason, indexed by the code ``Reports.stop_reason`` stores
STOPS = (STOP_THRESHOLD, STOP_HORIZON, STOP_SCHEDULE)


def drift_threshold(r_small: int, r_large: int, beta: float, bound_const: float) -> float:
    """Largest sup-norm gap between the ``r_small`` and ``r_large`` window
    estimates still attributable to sampling noise plus tolerated drift."""
    if r_small < 1:
        raise ValueError(f"window size must be positive, got {r_small}")
    if r_large <= r_small:
        raise ValueError(f"windows must increase: got {r_small} -> {r_large}")
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if bound_const <= 0.0:
        raise ValueError(f"bound_const must be positive, got {bound_const}")
    return bound_const * (
        2.0 * beta / math.sqrt(r_small) + math.sqrt((1.0 - r_small / r_large) / r_small)
    )


@lru_cache(maxsize=64)
def _threshold_ladder(sizes: tuple[int, ...], beta: float, bound_const: float) -> tuple[float, ...]:
    return tuple(
        drift_threshold(a, b, beta, bound_const) for a, b in zip(sizes, sizes[1:])
    )


@dataclass(frozen=True)
class GapProbe:
    """One executed comparison between ladder steps ``index`` and ``index + 1``
    (1-based): the observed sup-norm gap and the threshold it faced."""

    index: int
    window: int
    next_window: int
    gap: float
    threshold: float


@dataclass(frozen=True)
class WindowDecision:
    """Outcome of one window search.

    ``stop_reason`` is ``threshold_exceeded`` when a comparison failed,
    ``schedule_exhausted`` when the walk accepted the last ladder entry,
    and ``horizon_reached`` when the next candidate window would be longer
    than the stream seen so far.  ``window`` never exceeds
    ``min(t, max ladder size)``.
    """

    chosen_index: int
    window: int
    stop_reason: str
    probes: tuple[GapProbe, ...]


def select_window(bank: CorrelationBank, config: AdaptiveConfig) -> WindowDecision:
    """Walk the ladder over ``bank``'s current state and pick a window.

    The bank must track every size in ``config.schedule`` and must have
    seen at least ``schedule.sizes[0]`` votes.
    """
    sizes = config.schedule.sizes
    t = bank.t
    if t < sizes[0]:
        raise ValueError(f"need at least {sizes[0]} votes before selecting, have {t}")
    for r in sizes:
        if not bank.tracks(r):
            raise ValueError(f"bank does not track schedule window {r}")
    thresholds = _threshold_ladder(sizes, config.beta, config.bound_const)

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
