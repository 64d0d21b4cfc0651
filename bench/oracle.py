"""Correctness checks, run outside every timed region.

The reference for a windowed strategy is the streaming ``CorrelationBank``
rebuilt from scratch at a sampled step with ``from_history``, followed by
the public per-step calls.  Window, ``p_hat``, weights and prediction must
match the report line bit for bit.  Majority reports are checked at every
step against a vectorized sign of the resolved row sums.  Stream files are
parsed here with the standard library, not with ``driftvote.io``, and
abstentions are resolved by the documented rule (zeros filled in row-major
order by one pass of ``default_rng(seed)``), so a change in either layer
that alters outputs is caught.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from spec import CLIP, LADDER_M, Workload


@dataclass
class Tally:
    """Attempted and failed operations; a failure is a nonzero exit or a
    checked step that differs from the reference."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def read_stream_file(path) -> tuple[np.ndarray, np.ndarray]:
    """(T, n) raw votes and (T,) labels from a JSONL or CSV stream file."""
    with open(path, encoding="utf-8") as fh:
        head = fh.read(1)
    if head == "{":
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        votes = np.array([r["votes"] for r in rows], dtype=np.int8)
        labels = np.array([r["label"] for r in rows], dtype=np.int8)
        return votes, labels
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        table = np.array([[int(x) for x in row] for row in reader if row], dtype=np.int8)
    vote_cols = [i for i, name in enumerate(header) if name not in ("label", "t")]
    return table[:, vote_cols], table[:, header.index("label")]


def resolve(votes: np.ndarray, seed: int) -> np.ndarray:
    """Abstentions (0) replaced by fair +/-1 flips from ``default_rng(seed)``."""
    out = votes.astype(np.int8).copy()
    gaps = out == 0
    count = int(gaps.sum())
    if count:
        draws = np.random.default_rng(seed).integers(0, 2, size=count)
        out[gaps] = (2 * draws - 1).astype(np.int8)
    return out


def read_reports(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sample_steps(w: Workload, seed: int, count: int) -> list[int]:
    """1-based steps to check: the first and last steps, steps around each
    block edge, and a seeded uniform draw."""
    fixed = {1, 2, w.steps}
    for edge in w.edges:
        fixed.update(t for t in (edge, edge + 1, edge + 64, edge + 256) if 1 <= t <= w.steps)
    rng = np.random.default_rng([seed, 7])
    drawn = rng.choice(np.arange(1, w.steps + 1), size=count, replace=False)
    return sorted(fixed | {int(t) for t in drawn})


def reference_step(driftvote, w: Workload, votes: np.ndarray, labels: np.ndarray, t: int) -> dict:
    """Expected report line at 1-based step ``t`` of a windowed strategy."""
    config = driftvote.AdaptiveConfig(
        n=w.n, schedule=driftvote.WindowSchedule.doubling(LADDER_M), clip_lo=CLIP[0], clip_hi=CLIP[1]
    )
    fixed = w.fixed_window
    sizes = [fixed] if fixed else config.schedule.sizes
    bank = driftvote.CorrelationBank.from_history(w.n, votes[:t], sizes)
    line: dict = {"t": t}
    if fixed:
        window, stop = min(t, fixed), None
        corr = bank.correlation(fixed)
    else:
        decision = driftvote.select_window(bank, config)
        window, stop = decision.window, decision.stop_reason
        corr = bank.correlation(window)
    est = driftvote.recover_accuracies(corr, config.clip_lo, config.clip_hi, window=window)
    weights = driftvote.log_odds_weights(est.accuracies)
    pred = driftvote.weighted_vote(votes[t - 1], weights)
    line["window"] = window
    line["p_hat"] = [float(x) for x in est.accuracies]
    line["weights"] = [float(x) for x in weights]
    line["prediction"] = pred
    line["truth"] = int(labels[t - 1])
    line["correct"] = pred == int(labels[t - 1])
    if stop is not None:
        line["stop_reason"] = stop
    return line


def check_reports(driftvote, w: Workload, votes, labels, reports, steps, tally: Tally) -> None:
    """Compare report lines with the reference: every step for majority,
    the sampled ``steps`` otherwise."""
    tally.add(len(reports) == w.steps, f"{len(reports)} report lines, expected {w.steps}")
    if len(reports) != w.steps:
        return
    if w.strategy == "majority":
        pred = np.where(votes.astype(np.int64).sum(axis=1) >= 0, 1, -1)
        for i, line in enumerate(reports):
            want = {"t": i + 1, "prediction": int(pred[i]), "truth": int(labels[i]),
                    "correct": int(pred[i]) == int(labels[i])}
            tally.add(line == want, f"step {i + 1}: {line} != {want}")
        return
    for t in steps:
        want = reference_step(driftvote, w, votes, labels, t)
        tally.add(reports[t - 1] == want, f"step {t}: report differs from the reference")


def check_online(outputs: list[tuple], reports: list[dict], tally: Tally) -> None:
    """The online pass must reproduce the batch report of every step it ran."""
    for t, out in enumerate(outputs, start=1):
        line = reports[t - 1]
        got = (line.get("window"), line.get("p_hat"), line.get("weights"), line["prediction"])
        tally.add(got == out, f"online step {t}: {out} != report {got}")


def check_summary(summary_path, reports: list[dict], tally: Tally) -> float:
    """``eval``'s accuracy must equal the share of correct report lines."""
    with open(summary_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    (run,) = doc["runs"].values()
    want = sum(1 for line in reports if line["correct"]) / len(reports)
    tally.add(run["accuracy"] == want and run["steps"] == len(reports),
              f"eval accuracy {run['accuracy']} != {want}")
    return float(run["accuracy"])


def detect_latency(windows: list[int], edges: list[int], pre: int = 200) -> list[int]:
    """Per block edge: steps from the edge to the first window at most a
    quarter of the median window over the ``pre`` steps before it.  When
    the window never collapses before the next edge, the count runs to it."""
    out = []
    bounds = list(edges[1:]) + [len(windows)]
    for edge, stop in zip(edges, bounds):
        limit = float(np.median(windows[edge - pre:edge])) / 4.0
        hits = [k for k in range(edge, stop) if windows[k] <= limit]
        out.append((hits[0] if hits else stop) - edge + 1)
    return out
