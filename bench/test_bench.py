"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import driftvote  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402
from pipeline import add_abstentions  # noqa: E402
from spans import Tracer, patched  # noqa: E402


def write_stream(path: Path, seed: int, steps: int = 300, n: int = 4) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(steps):
            votes = rng.choice([-1, 1], size=n).tolist()
            fh.write(json.dumps({"votes": votes, "label": int(rng.choice([-1, 1]))}) + "\n")


def test_generator_is_deterministic_per_seed(tmp_path):
    write_stream(tmp_path / "sim.jsonl", seed=0)
    outs = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        add_abstentions(tmp_path / "sim.jsonl", tmp_path / f"{name}.jsonl", 0.2, seed)
        outs.append((tmp_path / f"{name}.jsonl").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]
    raw, _ = oracle.read_stream_file(tmp_path / "a.jsonl")
    assert 0.1 < float(np.mean(raw == 0)) < 0.3

    w = spec.WORKLOADS["block-drift"]
    assert oracle.sample_steps(w, 5, 48) == oracle.sample_steps(w, 5, 48)
    assert oracle.sample_steps(w, 5, 48) != oracle.sample_steps(w, 6, 48)


def test_metric_names_are_well_formed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name), name
    assert [m["name"] for m in doc["end_to_end"]] == [name for name, _ in spec.END_TO_END]
    assert [m["name"] for m in doc["per_layer"]] == [name for name, _, _ in spec.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)


def small(strategy: str) -> spec.Workload:
    return dataclasses.replace(
        spec.WORKLOADS["block-drift"], n=4, strategy=strategy, steps=300, blocks=(100, 100, 100)
    )


@pytest.mark.parametrize("strategy", ["adaptive", "fixed:16", "majority"])
def test_correctness_check_flags_one_corrupted_line(tmp_path, strategy):
    w = small(strategy)
    write_stream(tmp_path / "stream.jsonl", seed=1, n=w.n)
    raw, labels = oracle.read_stream_file(tmp_path / "stream.jsonl")
    votes = oracle.resolve(raw, 0)
    reports = driftvote.run_strategy(votes, strategy, truths=labels)
    driftvote.write_reports(tmp_path / "reports.jsonl", reports)
    lines = oracle.read_reports(tmp_path / "reports.jsonl")
    steps = list(range(1, w.steps + 1))

    tally = oracle.Tally()
    oracle.check_reports(driftvote, w, votes, labels, lines, steps, tally)
    assert tally.failed == 0 and tally.attempted > w.steps

    text = (tmp_path / "reports.jsonl").read_text(encoding="utf-8").splitlines()
    bad = json.loads(text[137])
    if "p_hat" in bad:
        bad["p_hat"][0] = float(np.nextafter(bad["p_hat"][0], 1.0))
    else:
        bad["prediction"] = -bad["prediction"]
    text[137] = json.dumps(bad)
    (tmp_path / "reports.jsonl").write_text("\n".join(text) + "\n", encoding="utf-8")

    tally = oracle.Tally()
    lines = oracle.read_reports(tmp_path / "reports.jsonl")
    oracle.check_reports(driftvote, w, votes, labels, lines, steps, tally)
    assert tally.failed == 1
    assert tally.notes[0].startswith("step 138")


def test_detect_latency_counts_from_the_edge():
    windows = [64] * 300 + [64] * 9 + [8] * 91
    assert oracle.detect_latency(windows, [300]) == [10]
    assert oracle.detect_latency([64] * 400, [300]) == [101]


def test_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "block-drift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_spans_give_self_time_and_patches_are_undone():
    tracer = Tracer("t")
    original = driftvote.aggregate.weighted_vote
    with patched(tracer, [(driftvote.aggregate, "weighted_vote", "vote")]):
        assert driftvote.weighted_vote is not original
        with tracer.span("outer"):
            driftvote.aggregate.weighted_vote(np.ones(3), np.ones(3))
            driftvote.weighted_vote(np.ones(3), np.ones(3))
    assert driftvote.aggregate.weighted_vote is original
    assert driftvote.weighted_vote is original
    assert tracer.parent == [-1, 0, 0]
    own = tracer.self_times_ns()
    total = tracer.end[0] - tracer.start[0]
    assert own["outer"] + own["vote"] == total
    assert own["vote"] == sum(e - s for s, e in zip(tracer.start[1:], tracer.end[1:]))
