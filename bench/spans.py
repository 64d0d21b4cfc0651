"""In-memory span recorder for the traced run.

Spans are recorded in the benchmark's own code, around calls into the
library's public functions: a function is wrapped at every module
attribute that binds it (so ``cli.run_strategy`` and
``aggregate.run_strategy`` both record), and bank methods are wrapped on
the class.  Each span holds a name, start and end (``perf_counter_ns``),
the span that was open when it started, and the run id shared by all
spans of one run.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import csv
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack = [-1]

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(i)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, func, observe=None):
        """``func`` with a span around every call; ``observe(result)`` runs
        after the span closes, to take counts from returned objects."""
        nid = self._nid(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = func
        return traced

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus the part covered
        by direct children (spans never overlap on one thread)."""
        if not self.start:
            return {}
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        per_name = np.bincount(np.asarray(self.name_of), weights=own, minlength=len(self.names))
        return {name: int(per_name[k]) for k, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run", "span", "parent", "name", "start_ns", "end_ns"])
            for i, (nid, par, s, e) in enumerate(zip(self.name_of, self.parent, self.start, self.end)):
                out.writerow([self.run_id, i, par, self.names[nid], s, e])


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each ``(owner, attribute, span name[, observe])`` target for the
    duration of the block.  A plain function is replaced at every
    ``driftvote`` module attribute bound to it; a class attribute is
    replaced on the class.  Targets the library no longer has are skipped."""
    undo = []
    try:
        for owner, attr, name, *observe in targets:
            func = getattr(owner, attr, None)
            if func is None:
                continue
            traced = tracer.wrap(name, func, *observe)
            if isinstance(owner, type):
                places = [owner]
            else:
                places = [
                    mod for key, mod in list(sys.modules.items())
                    if key.split(".")[0] == "driftvote" and mod is not None
                ]
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is func:
                        undo.append((place, key, value))
                        setattr(place, key, traced)
        yield
    finally:
        for place, key, value in reversed(undo):
            setattr(place, key, value)
