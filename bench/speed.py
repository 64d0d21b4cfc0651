"""Host speed over a run, measured with a fixed reference task.

On a shared host the speed of one core wanders by tens of percent over
minutes, and the 50 s means of a run's CLI and online samples move with
it by as much.  The reference task, a mix of small numpy updates, JSON
round trips and a plain Python loop like the program's own, slows in step:
on a 2-vCPU VM its 50 s means and driftvote's correlated at 0.84-0.9.
Timing it next to every sample and scaling the run's times by
``REF_S / reference time`` therefore removes most of the wander that
separates runs, while a change to driftvote moves only the sample times.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: the reference task's duration at nominal speed; scaled times are
#: "seconds on a host where the reference task takes REF_S"
REF_S = 0.05


def reference_task() -> None:
    x = np.arange(1, 9, dtype=np.float64)
    acc = np.zeros((8, 8))
    for _ in range(1500):
        acc += np.outer(x, x)
        acc *= 0.5
    row = {"votes": [1, -1, 1, 1, -1, 1, -1, 1], "label": 1}
    for _ in range(2000):
        json.loads(json.dumps(row))
    s = 0
    for i in range(150000):
        s += i * i


def trimmed_mean(values, cut: float = 0.2) -> float:
    """Mean of the samples left after dropping ``cut`` of them at each end.
    When the host's speed switches between modes during a run, the median
    of the samples jumps from one mode to the other as their mix shifts,
    while this mean moves with the mix; the trim drops stray stalls."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return float(statistics.fmean(xs[k:len(xs) - k]))


class Speed:
    """Reference task durations, one per ``shot``."""

    def __init__(self) -> None:
        self.shots: list[float] = []

    def shot(self) -> None:
        t0 = time.perf_counter()
        reference_task()
        self.shots.append(time.perf_counter() - t0)

    def reference_s(self) -> float:
        return trimmed_mean(self.shots)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into seconds at
        nominal speed."""
        return REF_S / self.reference_s()
