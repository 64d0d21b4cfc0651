"""``run`` holds one block of rows at a time, so its peak RSS does not grow
with the length of the stream."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import driftvote
from driftvote import Stream, write_stream
from driftvote.cli import main

SRC = str(Path(driftvote.__file__).resolve().parents[1])

#: runs its arguments as a child and prints the child's peak RSS in MB; the
#: child is spawned from this small process, not from the test's, because on
#: Linux a child's ``ru_maxrss`` starts from the resident size of its spawner
LAUNCHER = (
    "import json, os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0]))\n"
)


def abstaining_stream(path: Path, steps: int) -> None:
    """A labeled n = 8 stream with a fifth of its votes abstentions."""
    rng = np.random.default_rng(steps)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    accuracies = np.linspace(0.9, 0.55, 8)
    votes = np.where(rng.random((steps, 8)) < accuracies, truth[:, None], -truth[:, None]).astype(np.int8)
    votes[rng.random((steps, 8)) < 0.2] = 0
    write_stream(path, Stream(votes=votes, truth=truth))


def run_peak_rss_mb(stream: Path, out: Path, strategy: str = "majority") -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "driftvote.cli", "run", "--input", str(stream),
            "--strategy", strategy, "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    code, peak = json.loads(proc.stdout)
    assert code == 0
    return peak


def test_run_peak_rss_does_not_grow_with_the_stream(tmp_path):
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    abstaining_stream(short, 5_000)
    abstaining_stream(long, 200_000)
    # the least of two runs of each, with output paths of equal length
    peaks = {path.name: min(run_peak_rss_mb(path, tmp_path / f"{path.stem[0]}.out") for _ in range(2))
             for path in (short, long)}
    assert abs(peaks["long.jsonl"] - peaks["short.jsonl"]) <= 3.0, peaks


def test_adaptive_run_peak_rss_does_not_grow_with_the_stream(tmp_path):
    # the engine's bank is its only state, so an adaptive run of the
    # block-drift preset (n = 3) holds as little at 10^5 steps as at 5k
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    for path, block_len in ((short, 1250), (long, 25_000)):
        assert main(["simulate", "--preset", "block-drift", "--block-len", str(block_len),
                     "--out", str(path)]) == 0
    peaks = {path.name: min(run_peak_rss_mb(path, tmp_path / f"{path.stem[0]}.out", "adaptive")
                            for _ in range(2))
             for path in (short, long)}
    assert abs(peaks["long.jsonl"] - peaks["short.jsonl"]) <= 3.0, peaks
