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
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import STOP_HORIZON, STOP_SCHEDULE, STOP_THRESHOLD, STOPS, AdaptiveConfig
from .corrwin import CorrelationBank


def drift_threshold(r_small: int, r_large: int, beta: float, bound_const: float) -> float:
    """Largest sup-norm gap between the ``r_small`` and ``r_large`` window
    estimates still attributable to sampling noise plus tolerated drift."""
    if r_small < 1:
        raise ValueError(f"window size must be positive, got {r_small}")
    if r_large <= r_small:
        raise ValueError(f"windows must increase: got {r_small} -> {r_large}")
    if not 0.0 <= beta < math.inf:  # NaN fails
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
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


class GapProbe(NamedTuple):
    """One executed comparison between ladder steps ``index`` and ``index + 1``
    (1-based): the observed sup-norm gap and the threshold it faced.
    Immutable, like :class:`WindowDecision`; a tuple because a walk builds
    several per step."""

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

    The bank must track exactly ``config.schedule``'s sizes and must have
    seen at least ``schedule.sizes[0]`` votes.  The ``reach`` rungs within
    the horizon ``r <= t`` get their correlations from one division and
    their gaps from one array operation; the walk builds a
    :class:`GapProbe` per comparison up to the first that fails, which
    stops it at ``threshold_exceeded``.  Otherwise it stops at
    ``schedule_exhausted`` when every rung is within reach and at
    ``horizon_reached`` when not.  :func:`_walk` is the same rule over many
    steps at once.
    """
    sizes = config.schedule.sizes
    if bank.sizes != sizes:
        raise ValueError(f"bank tracks windows {list(bank.sizes)}, the schedule {list(sizes)}")
    t = bank.t
    if t < sizes[0]:
        raise ValueError(f"need at least {sizes[0]} votes before selecting, have {t}")
    thresholds = _threshold_ladder(sizes, config.beta, config.bound_const)

    reach = bisect_right(sizes, t)  # rungs within the horizon, at least one
    corr = bank.all_correlations()[:reach]
    gaps = np.abs(corr[1:] - corr[:-1]).max(axis=(1, 2)).tolist()
    probes: list[GapProbe] = []
    for k, gap in enumerate(gaps):
        probes.append(GapProbe(k + 1, sizes[k], sizes[k + 1], gap, thresholds[k]))
        if not gap <= thresholds[k]:  # NaN fails
            return WindowDecision(k + 1, sizes[k], STOP_THRESHOLD, tuple(probes))
    stop = STOP_SCHEDULE if reach == len(sizes) else STOP_HORIZON
    return WindowDecision(reach, sizes[reach - 1], stop, tuple(probes))


_THRESHOLD, _HORIZON, _SCHEDULE = map(STOPS.index, (STOP_THRESHOLD, STOP_HORIZON, STOP_SCHEDULE))


def _walk(
    corr: np.ndarray, t: np.ndarray, sizes: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_window` of many steps at once: each row's accepted rung
    index and stop code, an index into :data:`STOPS`, given the (c, K, P)
    upper-triangle correlations of the ladder ``sizes`` after steps ``t``,
    each at least ``sizes[0]``, and the K - 1 thresholds between its rungs."""
    rungs = corr.shape[1]
    reach = np.searchsorted(sizes, t, side="right")  # rungs within the horizon
    gap = np.subtract(corr[:, 1:], corr[:, :-1])
    gap = np.abs(gap, out=gap).max(axis=2)
    # the first failing comparison, NaN included; the last column stands
    # for the ladder's end, so ``first`` is rungs - 1 when none fails
    fails = np.ones((len(corr), rungs), dtype=bool)
    fails[:, :-1] = ~(gap <= thresholds)
    first = fails.argmax(axis=1)
    stopped = first < reach - 1  # the failing comparison is before the horizon
    code = np.where(stopped, _THRESHOLD, np.where(reach == rungs, _SCHEDULE, _HORIZON))
    return np.minimum(first, reach - 1), code
