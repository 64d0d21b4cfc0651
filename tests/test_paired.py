"""tools/paired.py judges each metric's move from pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parents[1] / "tools" / "paired.py"
)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

#: ten parent runs: median 0.38, quartiles 0.37 and 0.39
BASE = [0.37, 0.38, 0.39, 0.36, 0.40, 0.38, 0.37, 0.39, 0.38, 0.38]


def shifted(values, by):
    return [round(x + by, 6) for x in values]


def test_a_gain_beyond_the_spread_in_every_pair_is_met():
    result = paired.compare(BASE, shifted(BASE, -0.05), "lower", 0.25)
    assert result["base"]["median"] == pytest.approx(0.38)
    assert (result["base"]["q1"], result["base"]["q3"]) == pytest.approx((0.37, 0.39))
    assert result["spread"] == pytest.approx(0.02)
    assert result["move"] == pytest.approx(-0.05)
    assert result["move_share"] == pytest.approx(-0.05 / 0.38)
    assert result["wins"] == 10
    assert result["verdict"] == "met"


def test_a_gain_needs_nine_tenths_of_the_pairs():
    head = shifted(BASE, -0.05)
    head[0] = head[1] = 1.0  # two pairs lost: the median still moves, 8/10 wins
    result = paired.compare(BASE, head, "lower", 0.25)
    assert result["wins"] == 8
    assert result["head"]["median"] < result["base"]["median"] - result["spread"]
    assert result["verdict"] == "unresolved"


def test_a_move_within_the_spread_is_unresolved():
    # an A/A comparison, and a move smaller than the base's spread that wins every pair
    assert paired.compare(BASE, list(BASE), "lower", 0.25)["verdict"] == "unresolved"
    result = paired.compare(BASE, shifted(BASE, -0.01), "lower", 0.25)
    assert result["wins"] == 10
    assert result["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    assert paired.compare(BASE, list(BASE), "lower", 0.25)["wins"] == 0
    assert paired.compare([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "higher", 0.05)["wins"] == 0


def test_worse_beyond_the_spread_or_beyond_the_bound():
    assert paired.compare(BASE, shifted(BASE, 0.05), "lower", 0.25)["verdict"] == "worse"
    assert paired.compare(BASE, shifted(BASE, 0.10), "lower", 0.25)["verdict"] == "worse than bound"


def test_higher_is_better_flips_the_direction():
    acc = [0.90, 0.91, 0.92, 0.90, 0.91]
    assert paired.compare(acc, shifted(acc, 0.05), "higher", 0.05)["verdict"] == "met"
    assert paired.compare(acc, shifted(acc, -0.06), "higher", 0.05)["verdict"] == "worse than bound"
    assert paired.compare(acc, shifted(acc, -0.03), "higher", 0.05)["verdict"] == "worse"


def test_compare_rejects_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError, match="pairs of runs"):
        paired.compare(BASE, BASE[:-1], "lower", 0.25)
    with pytest.raises(ValueError, match="pairs of runs"):
        paired.compare([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError, match="better must be"):
        paired.compare(BASE, BASE, "faster", 0.25)


def test_main_alternates_sides_and_writes_every_metric(tmp_path, monkeypatch):
    calls = []

    def extract(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text((Path(paired.ROOT) / "BENCHMARK.json").read_text())
        return f"{rev}-commit"

    def bench(root, workload, seed, seconds):
        calls.append((seed, workload, root.name))
        value = 1.0 + seed / 100 - (0.2 if root.name == "head" else 0.0)
        names = [m["name"] for m in paired.json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
        return {"attempted": 5, "failed": 0, "metrics": {name: {"value": value} for name in names}}

    monkeypatch.setattr(paired, "extract", extract)
    monkeypatch.setattr(paired, "bench", bench)
    out = tmp_path / "paired.json"
    assert paired.main(["--base", "A", "--pairs", "3", "--workloads", "long-majority",
                        "--out", str(out), "--work", str(tmp_path / "work")]) == 0
    assert [c[2] for c in calls] == ["base", "head", "head", "base", "base", "head"]
    assert [c[0] for c in calls] == [1, 1, 2, 2, 3, 3]
    doc = paired.json.loads(out.read_text())
    assert (doc["base"], doc["head"], doc["pairs"]) == ("A-commit", "HEAD-commit", 3)
    entry = doc["workloads"]["long-majority"]
    assert entry["base"] == entry["head"] == {"attempted": 15, "failed": 0}
    assert entry["metrics"]["eval_s"]["verdict"] == "met"
    assert entry["metrics"]["accuracy"]["verdict"] == "worse than bound"
    assert entry["metrics"]["eval_s"]["head"]["values"] == pytest.approx([0.81, 0.82, 0.83])
