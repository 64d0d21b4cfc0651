"""Data-driven window selection for drifting vote streams.

The rule walks the window ladder from the smallest size upward, comparing
each window's correlation estimate against the next larger one.  Under a
stationary stream both estimate the same matrix, so their sup-norm gap is
small; a gap exceeding :func:`.core.drift_threshold` (the ladder's values
are ``AdaptiveConfig.thresholds``) is evidence that the extra history in
the larger window is stale, and the walk stops.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .core import STOP_HORIZON, STOP_SCHEDULE, STOP_THRESHOLD, STOPS, AdaptiveConfig, _record
from .corrwin import CorrelationBank


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

    A decision from :func:`select_window` builds its ``probes`` on first
    read, from the gaps its walk captured, never from the bank as it is
    later; from then on it holds exactly its four fields, as one built
    by the constructor does.
    """

    chosen_index: int
    window: int
    stop_reason: str
    probes: tuple[GapProbe, ...]

    def __getattr__(self, name: str):
        # reached only for a name missing from the instance: the probes of
        # an unread decision, which holds the walk's (gaps, sizes, thresholds)
        walk = self.__dict__.get("_walk") if name == "probes" else None
        if walk is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gaps, sizes, thresholds = walk
        # tuple.__new__ is what GapProbe(...) calls, without a Python frame per probe
        fields = zip(count(1), sizes, sizes[1:], gaps, thresholds)
        probes = self.__dict__["probes"] = tuple(map(tuple.__new__, repeat(GapProbe), fields))
        self.__dict__.pop("_walk", None)
        return probes


def select_window(bank: CorrelationBank, config: AdaptiveConfig) -> WindowDecision:
    """Walk the ladder over ``bank``'s current state and pick a window.

    The bank must track exactly ``config.schedule``'s sizes for
    ``config.n`` labelers and must have seen at least ``schedule.sizes[0]``
    votes.  The ``reach`` rungs within the horizon ``r <= t`` get their
    correlations from one division and their gaps from one array
    operation; the walk compares them up to the first that fails, which
    stops it at ``threshold_exceeded``.  Otherwise it stops at
    ``schedule_exhausted`` when every rung is within reach and at
    ``horizon_reached`` when not.  The decision keeps the compared gaps
    and builds their :class:`GapProbe` tuple on first read of its
    ``probes``, so a caller that reads only ``window`` pays for none.
    :func:`_walk` is the same rule over many steps at once.
    """
    sizes = config.schedule.sizes
    if bank.sizes != sizes:
        raise ValueError(f"bank tracks windows {list(bank.sizes)}, the schedule {list(sizes)}")
    if bank.n != config.n:
        raise ValueError(f"config expects {config.n} labelers, bank has {bank.n}")
    t = bank.t
    if t < sizes[0]:
        raise ValueError(f"need at least {sizes[0]} votes before selecting, have {t}")
    thresholds = config.thresholds

    reach = bisect_right(sizes, t)  # rungs within the horizon, at least one
    # a rung r <= t holds exactly r votes, so its own size is its divisor
    corr = bank._sums[:reach] / bank._divisors[:reach]
    diff = corr[1:] - corr[:-1]
    gaps = np.maximum.reduce(np.abs(diff, out=diff), axis=(1, 2)).tolist()
    for k, gap in enumerate(gaps):
        if not gap <= thresholds[k]:  # NaN fails
            chosen, stop = k + 1, STOP_THRESHOLD
            break
    else:
        chosen, stop = reach, STOP_SCHEDULE if reach == len(sizes) else STOP_HORIZON
    # the executed comparisons' gaps, for WindowDecision.__getattr__ to build probes from
    walk = tuple(gaps[:chosen]), sizes, thresholds
    return _record(
        WindowDecision,
        {"chosen_index": chosen, "window": sizes[chosen - 1], "stop_reason": stop, "_walk": walk},
    )


_THRESHOLD, _HORIZON, _SCHEDULE = map(STOPS.index, (STOP_THRESHOLD, STOP_HORIZON, STOP_SCHEDULE))


def _walk(
    corr: np.ndarray, t: np.ndarray, sizes: np.ndarray, thresholds: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_window` of many steps at once: each row's accepted rung
    index and int8 stop code, an index into :data:`STOPS`, given the
    (c, K, P) upper-triangle correlations of the ladder ``sizes`` after
    steps ``t``, each at least ``sizes[0]``, and the K - 1 thresholds
    between its rungs."""
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
    return np.minimum(first, reach - 1), code.astype(np.int8)
