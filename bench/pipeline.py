"""The two ways a workload's stream is consumed: CLI subprocesses and a
closed-loop online pass over the public per-step API."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spec import CLIP, LADDER_M, Workload


@dataclass(frozen=True)
class Call:
    wall_s: float
    peak_rss_mb: float
    code: int


class Checkout:
    """The source tree under test, a work directory inside it, and the
    launcher process (``spawn.py``) that runs its commands.  Use as a
    context manager; leaving it stops the launcher and waits for it."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self._launcher: subprocess.Popen | None = None

    def __enter__(self) -> "Checkout":
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=self.work, env=self.env, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        launcher, self._launcher = self._launcher, None
        launcher.stdin.close()
        try:
            launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            launcher.kill()
            launcher.wait()
        launcher.stdout.close()

    def call(self, argv: list[str], log: str) -> Call:
        """Run ``argv`` in the work directory: wall time, peak RSS of
        the child (``ru_maxrss`` from ``os.wait4``) and exit code."""
        job = {"argv": argv, "out": str(self.work / f"{log}.out"), "err": str(self.work / f"{log}.err")}
        self._launcher.stdin.write(json.dumps(job) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the command launcher exited")
        return Call(**json.loads(reply))

    def cli(self, *args: str) -> Call:
        return self.call([sys.executable, "-m", "driftvote.cli", *args], args[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def startup_argv(n: int) -> list[str]:
    """A CLI call that does no stream work: interpreter start-up,
    ``import driftvote``, argparse and the constants of ``bound``."""
    return [sys.executable, "-m", "driftvote.cli", "bound", "--n", str(n), "--m", str(LADDER_M)]


def sim_path(w: Workload, work: Path) -> Path:
    return work / ("sim" + Path(w.stream_file).suffix)


def cli_commands(w: Workload, seed: int, work: Path) -> dict[str, list[str]]:
    """Arguments of ``driftvote simulate``, ``run`` and ``eval``, in order."""
    clip = f"{CLIP[0]}:{CLIP[1]}"
    return {
        "simulate": ["simulate", *w.layout, "--seed", str(seed), "--out", str(sim_path(w, work))],
        "run": ["run", "--input", str(work / w.stream_file), "--strategy", w.strategy,
                "--m", str(LADDER_M), "--clip", clip, "--out", str(work / "reports.jsonl")],
        "eval": ["eval", "--reports", str(work / "reports.jsonl"), "--out", str(work / "summary.json")],
    }


def add_abstentions(src: Path, dst: Path, share: float, seed: int) -> None:
    """The benchmark's own generator: blank a seeded ``share`` of the
    votes of a JSONL stream to 0 (abstain)."""
    with open(src, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    votes = np.array([r["votes"] for r in rows], dtype=np.int8)
    mask = np.random.default_rng([seed, 11]).random(votes.shape) < share
    votes[mask] = 0
    with open(dst, "w", encoding="utf-8") as fh:
        for row, v in zip(rows, votes.tolist()):
            fh.write(json.dumps({"votes": v, "label": row["label"]}) + "\n")


def prepare_input(w: Workload, work: Path, seed: int) -> None:
    """Turn ``simulate``'s output into the stream ``run`` reads."""
    sim = sim_path(w, work)
    dst = work / w.stream_file
    if w.abstain_share > 0.0:
        add_abstentions(sim, dst, w.abstain_share, seed)
    else:
        os.replace(sim, dst)


def online_pass(driftvote, w: Workload, votes: np.ndarray, record: bool):
    """One closed-loop pass: push one vote vector, wait for the prediction,
    send the next.  Returns per-step latencies in ns and, if ``record``,
    each step's (window, p_hat, weights, prediction) plus the bank."""
    steps = min(w.online_steps, votes.shape[0])
    lat = np.empty(steps, dtype=np.int64)
    outputs: list[tuple] = []
    clock = time.perf_counter_ns
    rows = list(votes[:steps])
    if w.strategy == "majority":
        majority_vote = driftvote.majority_vote
        for t, row in enumerate(rows):
            t0 = clock()
            pred = majority_vote(row)
            lat[t] = clock() - t0
            if record:
                outputs.append((None, None, None, pred))
        return lat, outputs, None

    config = driftvote.AdaptiveConfig(
        n=w.n, schedule=driftvote.WindowSchedule.doubling(LADDER_M), clip_lo=CLIP[0], clip_hi=CLIP[1]
    )
    fixed = w.fixed_window
    bank = driftvote.CorrelationBank(w.n, [fixed] if fixed else config.schedule.sizes)
    select_window = driftvote.adaptive.select_window
    recover = driftvote.triplet.recover_accuracies
    log_odds = driftvote.aggregate.log_odds_weights
    vote = driftvote.aggregate.weighted_vote
    lo, hi = config.clip_lo, config.clip_hi
    for t, row in enumerate(rows):
        t0 = clock()
        bank.push(row)
        if fixed:
            window = bank.window_length(fixed)
            corr = bank.correlation(fixed)
        else:
            window = select_window(bank, config).window
            corr = bank.correlation(window)
        est = recover(corr, lo, hi, window=window)
        weights = log_odds(est.accuracies)
        pred = vote(row, weights)
        lat[t] = clock() - t0
        if record:
            outputs.append((window, [float(x) for x in est.accuracies], [float(x) for x in weights], pred))
    return lat, outputs, bank
