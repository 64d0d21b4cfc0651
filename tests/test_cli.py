"""End-to-end CLI coverage: simulate -> run -> eval, bound, error paths."""

import json
import os
import stat
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import driftvote
from driftvote import (
    Stream,
    WindowSchedule,
    read_reports,
    read_stream,
    resolve_abstentions,
    run_strategy,
    selection_overhead,
    statistical_error,
    true_drift_error,
    union_bound_constant,
    write_reports,
    write_stream,
)
from driftvote import aggregate
from driftvote import io as dio
from driftvote.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_pipeline_simulate_run_eval(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    reports = tmp_path / "reports.jsonl"
    series = tmp_path / "series"

    assert run_cli(
        "simulate", "--preset", "block-drift", "--block-len", "100",
        "--seed", "3", "--out", str(stream),
    ) == 0
    back = read_stream(stream)
    assert len(back) == 400  # 100 + 200 + 100
    assert set(back.truth.tolist()) <= {-1, 1}

    assert run_cli(
        "run", "--input", str(stream), "--strategy", "adaptive",
        "--m", "8", "--out", str(reports),
    ) == 0
    reps = read_reports(reports)
    assert len(reps) == 400
    assert reps.window.shape == (400,)
    assert reps.stop_reason.shape == (400,)

    assert run_cli(
        "eval", "--reports", str(reports), "--lookahead", "64",
        "--series-dir", str(series),
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"runs", "comparison"}
    summary = doc["runs"]["reports"]
    assert summary["steps"] == 400
    assert 0.5 < summary["accuracy"] <= 1.0
    assert 0.0 <= summary["f1"] <= 1.0
    assert sum(summary["window_histogram"].values()) == 400
    assert doc["comparison"][0]["run"] == "reports"

    series_file = series / "reports_rolling.csv"
    lines = series_file.read_text().splitlines()
    assert lines[0] == "step,value"
    assert len(lines) == 401


def test_simulate_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    flags = ["simulate", "--blocks", "50:0.9,0.8,0.7", "--seed", "9",
             "--permute-prob", "0.1"]
    assert run_cli(*flags, "--out", str(out1)) == 0
    assert run_cli(*flags, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_is_byte_deterministic(tmp_path):
    stream = tmp_path / "s.jsonl"
    run_cli("simulate", "--blocks", "80:0.9,0.8,0.7", "--seed", "1",
            "--out", str(stream))
    r1 = tmp_path / "r1.jsonl"
    r2 = tmp_path / "r2.jsonl"
    for out in (r1, r2):
        assert run_cli("run", "--input", str(stream), "--strategy", "fixed:8",
                       "--out", str(out)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_csv_and_jsonl_streams_agree(tmp_path):
    flags = ["simulate", "--preset", "block-drift", "--block-len", "20", "--seed", "4"]
    csv_path = tmp_path / "s.csv"
    jsonl_path = tmp_path / "s.jsonl"
    assert run_cli(*flags, "--out", str(csv_path)) == 0
    assert run_cli(*flags, "--out", str(jsonl_path)) == 0
    assert csv_path.read_text().splitlines()[0] == "votes_1,votes_2,votes_3,label"
    a = read_stream(csv_path)
    b = read_stream(jsonl_path)
    assert np.array_equal(a.votes, b.votes)
    assert np.array_equal(a.truth, b.truth)


def test_majority_equals_fixed_one_with_shared_abstain_seed(tmp_path):
    stream = tmp_path / "abstain.csv"
    rng = np.random.default_rng(8)
    rows = ["a,b,c"]
    for _ in range(60):
        rows.append(",".join(str(x) for x in rng.choice([-1, 0, 1], size=3)))
    stream.write_text("\n".join(rows) + "\n")

    out_m = tmp_path / "m.jsonl"
    out_f = tmp_path / "f.jsonl"
    base = ["run", "--input", str(stream), "--abstain-seed", "5"]
    assert run_cli(*base, "--strategy", "majority", "--out", str(out_m)) == 0
    assert run_cli(*base, "--strategy", "fixed:1", "--out", str(out_f)) == 0
    assert np.array_equal(read_reports(out_m).prediction, read_reports(out_f).prediction)


@pytest.mark.parametrize("accuracies", ["0.8", "0.8,0.7"])
def test_majority_runs_on_fewer_than_three_labelers(tmp_path, capsys, accuracies):
    stream = tmp_path / "s.jsonl"
    assert run_cli("simulate", "--blocks", f"200:{accuracies}", "--seed", "0",
                   "--out", str(stream)) == 0
    out = tmp_path / "r.jsonl"
    assert run_cli("run", "--input", str(stream), "--strategy", "majority", "--out", str(out)) == 0
    votes = read_stream(stream).votes
    assert votes.shape == (200, accuracies.count(",") + 1)
    reports = read_reports(out)
    assert reports.prediction.tolist() == np.where(votes.sum(axis=1) >= 0, 1, -1).tolist()
    assert reports.truth is not None
    n = votes.shape[1]
    for strategy in ("adaptive", "fixed:4"):
        assert run_cli("run", "--input", str(stream), "--strategy", strategy,
                       "--out", str(tmp_path / "a.jsonl")) == 2
        assert f"need at least 3 labelers, got n={n}" in capsys.readouterr().err


def test_errors_exit_2_with_message(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    run_cli("simulate", "--blocks", "30:0.9,0.8,0.7", "--seed", "0",
            "--out", str(stream))
    capsys.readouterr()

    # fixed window beyond the default ladder (2^19)
    code = run_cli("run", "--input", str(stream), "--strategy", "fixed:1048576",
                   "--out", str(tmp_path / "r.jsonl"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")

    # both layout flags at once
    code = run_cli("simulate", "--preset", "block-drift",
                   "--blocks", "10:0.9,0.9,0.9", "--out", str(tmp_path / "x.jsonl"))
    assert code == 2
    assert "error: " in capsys.readouterr().err

    # missing input file
    code = run_cli("run", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "r.jsonl"))
    assert code == 2
    assert "error: " in capsys.readouterr().err

    # preset width disagrees with --n
    code = run_cli("bound", "--n", "4", "--preset", "block-drift")
    assert code == 2
    assert "error: " in capsys.readouterr().err

    # unknown strategy string
    code = run_cli("run", "--input", str(stream), "--strategy", "oracle",
                   "--out", str(tmp_path / "r.jsonl"))
    assert code == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_run_rejects_adaptive_ladder_not_starting_at_one(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    run_cli("simulate", "--blocks", "30:0.9,0.8,0.7", "--seed", "0",
            "--out", str(stream))
    capsys.readouterr()
    out = tmp_path / "r.jsonl"
    code = run_cli("run", "--input", str(stream), "--sizes", "4,8,16", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert "[4, 8, 16]" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--clip", "0.6:0.9"], "clip_lo"),
        (["--beta", "0"], "beta"),
        (["--delta", "1.5"], "delta"),
        (["--sizes", "4,8,16"], "starts at 1"),
        (["--abstain-seed", "-1"], "abstain-seed"),
        (["--beta", "nan"], "beta must be positive and finite"),
        (["--beta", "inf"], "beta must be positive and finite"),
        (["--clip", "0.1"], "bad clip band '0.1'; expected LO:HI"),
        (["--sizes", "1,x"], "bad window sizes '1,x'"),
    ],
)
def test_run_rejects_bad_config_before_reading_input(tmp_path, capsys, flags, message):
    out = tmp_path / "r.jsonl"
    code = run_cli("run", "--input", str(tmp_path / "missing.jsonl"), *flags,
                   "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert message in err[0]
    assert "No such file" not in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--beta", "nan"], ["--beta", "inf"], ["--beta-sweep", "0.1,nan"], ["--beta-sweep", "inf"]],
)
def test_bound_rejects_non_finite_beta(capsys, flags):
    # NaN and Infinity are not JSON, and a NaN beta is no tolerance at all
    assert run_cli("bound", "--n", "3", "--m", "4", *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "beta must be positive and finite" in err[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        # a negative or NaN shuffle probability is no probability at all
        (["simulate", "--blocks", "30:0.9,0.8,0.7", "--permute-prob", "-0.5"], "shuffle probability"),
        (["simulate", "--blocks", "30:0.9,0.8,0.7", "--permute-prob", "nan"], "shuffle probability"),
        # the theory numbers take the square root of every size as a float
        (["bound", "--n", "3", "--m", "1025"], "largest float"),
        (["bound", "--n", "3", "--sizes", f"1,{2**1100}"], "largest float"),
        # a negative seed is rejected with its flag before numpy sees it
        (["simulate", "--blocks", "30:0.9,0.8,0.7", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        # the drift terms' position without a drift stream to place them in
        (["bound", "--n", "3", "--m", "4", "--at", "5"], "--at needs the drift stream of --preset or --blocks"),
        # an empty value is read as given, not taken for the default
        (["run", "--input", "missing.jsonl", "--sizes", ""], "bad window sizes ''"),
        (["bound", "--n", "3", "--sizes", ""], "bad window sizes ''"),
        (["bound", "--n", "3", "--m", "4", "--beta-sweep", ""], "bad number list ''"),
        (["bound", "--n", "3", "--m", "4", "--beta-sweep", "0.1,x"], "bad number list '0.1,x'"),
        (["simulate", "--blocks", "30"], "bad block '30'; expected LEN:p1,p2,..."),
        (["simulate", "--blocks", "x:0.9,0.8,0.7"], "bad block 'x:0.9,0.8,0.7'; expected LEN:p1,p2,..."),
        (["simulate", "--blocks", ";"], "no blocks given"),
    ],
)
def test_out_of_range_flags_exit_2_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_bound_takes_the_largest_doubling_ladder_a_float_holds(capsys):
    assert run_cli("bound", "--n", "3", "--m", "1024") == 0
    assert json.loads(capsys.readouterr().out)["sizes"][-1] == 2**1023


@pytest.mark.parametrize(
    "m, message",
    [
        # a 2**49-row ring, past any 64-bit user address space: allocation fails
        ("50", "Unable to allocate"),
        # the largest window, 2**63, does not fit int64
        ("64", "window sizes must fit in int64"),
        # the largest window, 2**1024, does not fit a float
        ("1025", "window sizes must not exceed the largest float"),
    ],
)
def test_run_reports_huge_ladders_as_errors(tmp_path, capsys, m, message):
    stream = tmp_path / "s.jsonl"
    run_cli("simulate", "--blocks", "30:0.9,0.8,0.7", "--seed", "0",
            "--out", str(stream))
    capsys.readouterr()
    out = tmp_path / "r.jsonl"
    code = run_cli("run", "--input", str(stream), "--m", m, "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_run_rejects_empty_stream_file(tmp_path, capsys, text):
    stream = tmp_path / "empty.jsonl"
    stream.write_text(text)
    out = tmp_path / "r.jsonl"
    code = run_cli("run", "--input", str(stream), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {stream}: stream file is empty"]
    assert not out.exists()


def test_module_entry_point_warns_nothing():
    # the package must not import its CLI, or runpy executes cli.py twice
    # and warns on `python -m driftvote.cli`
    env = dict(os.environ)
    src = str(Path(driftvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "driftvote.cli", "bound", "--n", "3", "--m", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["sizes"] == [1, 2, 4, 8]


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        run_cli("foo")


def test_bound_document(capsys):
    assert run_cli("bound", "--n", "3", "--m", "4", "--margin", "0.2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert doc["m"] == 4
    assert doc["sizes"] == [1, 2, 4, 8]
    const = union_bound_constant(3, 4, 0.1)
    assert doc["bound_const"] == pytest.approx(const, rel=1e-12)
    schedule = WindowSchedule.doubling(4)
    assert doc["overhead"] == pytest.approx(selection_overhead(schedule, 0.1), rel=1e-12)
    for r in (1, 2, 4, 8):
        assert doc["statistical"][str(r)] == pytest.approx(
            statistical_error(r, const), rel=1e-12
        )
    assert doc["margin"] == 0.2
    assert doc["recovery_prefactor"] == pytest.approx(
        2.5 * doc["overhead"] / 0.2**2, rel=1e-12
    )


def test_bound_drift_section(capsys):
    assert run_cli(
        "bound", "--n", "3", "--m", "6",
        "--blocks", "100:0.9,0.9,0.6;100:0.6,0.9,0.9", "--at", "120",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    drift = doc["drift"]
    assert drift["at"] == 120

    from driftvote import BlockSpec, SyntheticStreamConfig

    synth = SyntheticStreamConfig(
        blocks=(BlockSpec(100, (0.9, 0.9, 0.6)), BlockSpec(100, (0.6, 0.9, 0.9))),
        seed=0, n=3,
    )
    const = union_bound_constant(3, 6, 0.1)
    for r in (1, 2, 4, 8, 16, 32):
        entry = drift["per_window"][str(r)]
        want_drift = true_drift_error(synth, r, 120)
        assert entry["drift_sum"] == pytest.approx(want_drift, abs=1e-12)
        assert entry["correlation_error"] == pytest.approx(
            statistical_error(r, const) + 12.0 * want_drift, rel=1e-12
        )
    # the oracle picks whichever window balances noise against staleness
    assert doc["oracle_correlation_error"] == pytest.approx(
        min(v["correlation_error"] for v in drift["per_window"].values()), rel=1e-15
    )


def test_bound_beta_sweep(capsys):
    assert run_cli("bound", "--n", "3", "--m", "5", "--beta-sweep", "0.1,0.4142") == 0
    doc = json.loads(capsys.readouterr().out)
    schedule = WindowSchedule.doubling(5)
    assert [row["beta"] for row in doc["beta_sweep"]] == [0.1, 0.4142]
    for row in doc["beta_sweep"]:
        assert row["overhead"] == pytest.approx(
            selection_overhead(schedule, row["beta"]), rel=1e-12
        )


def test_bound_explicit_sizes(capsys):
    assert run_cli("bound", "--n", "3", "--sizes", "1,3,9,27") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sizes"] == [1, 3, 9, 27]
    assert doc["m"] == 4


def test_bound_has_no_clip_flag(tmp_path, capsys):
    # no bound output depends on the clip band, so the flag is run's alone
    with pytest.raises(SystemExit) as exc:
        run_cli("bound", "--n", "3", "--clip", "0.2:0.8")
    assert exc.value.code == 2
    assert "unrecognized arguments: --clip" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    assert run_cli("bound", "--n", "3", "--save-config", str(cfg_path)) == 0
    assert "clip" not in json.loads(cfg_path.read_text())["params"]


def test_save_config_round_trip(tmp_path):
    stream = tmp_path / "s.jsonl"
    cfg_path = tmp_path / "cfg.json"
    assert run_cli(
        "simulate", "--blocks", "30:0.9,0.8,0.7", "--seed", "6",
        "--out", str(stream), "--save-config", str(cfg_path),
    ) == 0
    text = cfg_path.read_text()
    cfg = json.loads(text)
    assert text == json.dumps(cfg, indent=2, sort_keys=True) + "\n"
    assert set(cfg) == {"command", "params"}
    assert cfg["command"] == "simulate"
    assert cfg["params"]["seed"] == 6
    assert cfg["params"]["blocks"] == "30:0.9,0.8,0.7"
    assert "func" not in cfg["params"]
    assert "save_config" not in cfg["params"]


def test_eval_duplicate_stems(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--seed", "2",
            "--out", str(stream))
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        run_cli("run", "--input", str(stream), "--strategy", "majority",
                "--out", str(d / "r.jsonl"))
    capsys.readouterr()
    assert run_cli(
        "eval", "--reports", str(tmp_path / "a" / "r.jsonl"), str(tmp_path / "b" / "r.jsonl"),
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["runs"]) == 2
    assert "r" in doc["runs"]


def test_eval_writes_summary_file(tmp_path):
    stream = tmp_path / "s.jsonl"
    reports = tmp_path / "r.jsonl"
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--seed", "2",
            "--out", str(stream))
    run_cli("run", "--input", str(stream), "--strategy", "fixed:4",
            "--out", str(reports))
    out = tmp_path / "summary.json"
    assert run_cli("eval", "--reports", str(reports), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"]["r"]["steps"] == 40


def test_eval_builds_the_rolling_series_only_for_its_csv(tmp_path, capsys, monkeypatch):
    stream, reports, series = tmp_path / "s.jsonl", tmp_path / "r.jsonl", tmp_path / "series"
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--seed", "2", "--out", str(stream))
    run_cli("run", "--input", str(stream), "--strategy", "majority", "--out", str(reports))
    capsys.readouterr()
    assert run_cli("eval", "--reports", str(reports), "--series-dir", str(series)) == 0
    summary = capsys.readouterr().out
    assert len((series / "r_rolling.csv").read_text().splitlines()) == 41

    def unwritten(*args, **kwargs):
        raise RuntimeError("a rolling series that no CSV takes")

    monkeypatch.setattr(driftvote.metrics, "rolling_accuracy", unwritten)
    assert run_cli("eval", "--reports", str(reports)) == 0
    assert capsys.readouterr().out == summary
    # --lookahead is still checked without --series-dir
    assert run_cli("eval", "--reports", str(reports), "--lookahead", "0") == 2
    assert capsys.readouterr().err == "error: lookahead must be positive, got 0\n"


def test_eval_names_repeated_stems_apart(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--seed", "2", "--out", "s.jsonl")
    for sub, strategy in (("a", "majority"), ("b", "fixed:4")):
        Path(sub).mkdir()
        run_cli("run", "--input", "s.jsonl", "--strategy", strategy, "--out", f"{sub}/run.jsonl")
    capsys.readouterr()
    # two directories with one stem, and the first path given twice
    assert run_cli(
        "eval", "--reports", "a/run.jsonl", "b/run.jsonl", "a/run.jsonl", "--series-dir", "s",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["runs"]) == ["run", "run-2", "run-3"]
    assert [row["run"] for row in doc["comparison"]] == ["run", "run-2", "run-3"]
    assert doc["runs"]["run"] == doc["runs"]["run-3"]
    assert "window_histogram" in doc["runs"]["run-2"]
    assert sorted(p.name for p in Path("s").iterdir()) == [
        "run-2_rolling.csv", "run-3_rolling.csv", "run_rolling.csv",
    ]


def test_eval_rejects_empty_and_ragged_report_files(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    path.write_text("")
    assert run_cli("eval", "--reports", str(path)) == 2
    assert capsys.readouterr().err == "error: no reports to evaluate\n"
    path.write_text(
        '{"t": 1, "p_hat": [0.5, 0.5], "prediction": 1, "truth": 1}\n'
        '{"t": 2, "p_hat": [0.5], "prediction": 1, "truth": 1}\n'
    )
    assert run_cli("eval", "--reports", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: 'p_hat'")
    # a window outside int64 is a format error, not an uncaught OverflowError
    path.write_text(f'{{"t": 1, "window": {2**70}, "prediction": 1, "truth": 1}}\n')
    assert run_cli("eval", "--reports", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: 'window' values are ragged or of the wrong type\n"
    # null is a value like any other: it does not drop the column
    path.write_text(
        '{"t": 1, "window": 4, "prediction": 1, "truth": 1}\n'
        '{"t": 2, "window": null, "prediction": 1, "truth": 1}\n'
    )
    assert run_cli("eval", "--reports", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: 'window' values must be positive integers\n"


def test_eval_of_unlabeled_reports(tmp_path, capsys):
    # the paper's setting: no labels, so steps and windows but no accuracy
    stream = tmp_path / "s.jsonl"
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--seed", "2", "--out", str(stream))
    unlabeled = tmp_path / "u.jsonl"
    write_stream(unlabeled, Stream(votes=read_stream(stream).votes))
    for strategy in ("adaptive", "majority"):
        run_cli("run", "--input", str(unlabeled), "--strategy", strategy, "--m", "4",
                "--out", str(tmp_path / f"{strategy}.jsonl"))
    run_cli("run", "--input", str(stream), "--out", str(tmp_path / "labeled.jsonl"), "--m", "4")
    capsys.readouterr()
    reports = [str(tmp_path / f"{name}.jsonl") for name in ("adaptive", "majority", "labeled")]
    series = tmp_path / "series"
    assert run_cli("eval", "--reports", *reports, "--series-dir", str(series)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["runs"]["adaptive"]) == {"steps", "window_histogram"}
    assert sum(doc["runs"]["adaptive"]["window_histogram"].values()) == 40
    assert doc["runs"]["majority"] == {"steps": 40}
    assert set(doc["runs"]["labeled"]) == {"steps", "accuracy", "f1", "window_histogram"}
    assert doc["comparison"][:2] == [{"run": "adaptive", "steps": 40}, {"run": "majority", "steps": 40}]
    assert set(doc["comparison"][2]) == {"run", "steps", "accuracy", "f1"}
    assert [p.name for p in series.iterdir()] == ["labeled_rolling.csv"]


def long_stream(path, steps=3000, labeled=True):
    """A stream of n = 3 labelers that spans three 1024-row blocks, with a
    fifth of its votes abstentions, written by driftvote's writer."""
    rng = np.random.default_rng(steps)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=steps)
    votes = np.where(rng.random((steps, 3)) < [0.9, 0.8, 0.7], truth[:, None], -truth[:, None]).astype(np.int8)
    votes[rng.random((steps, 3)) < 0.2] = 0
    write_stream(path, Stream(votes=votes, truth=truth if labeled else None))
    return votes, truth


@pytest.mark.parametrize("strategy", ["adaptive", "fixed:64", "majority"])
def test_run_writes_what_the_whole_file_path_writes(tmp_path, strategy):
    stream, out, want = tmp_path / "s.jsonl", tmp_path / "r.jsonl", tmp_path / "want.jsonl"
    long_stream(stream)
    assert run_cli("run", "--input", str(stream), "--strategy", strategy, "--abstain-seed", "4",
                   "--out", str(out)) == 0
    whole = read_stream(stream)
    write_reports(want, run_strategy(resolve_abstentions(whole.votes, 4), strategy, truths=whole.truth))
    assert out.read_bytes() == want.read_bytes()


def test_engine_pieces_are_full_but_the_last_of_each_block(tmp_path):
    # at n = 3 on the default ladder the engine takes 68 rows a piece, so
    # a 1024-row block is 15 pieces of 68 and a 4-row tail, and the
    # 952-row last block is 14 pieces of 68
    stream, out = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
    long_stream(stream)
    feed, pieces = aggregate._feed, defaultdict(list)

    def recording(bank, rows, config):
        pieces[bank.t // dio._BLOCK].append(len(rows))
        return feed(bank, rows, config)

    with mock.patch.object(aggregate, "_feed", recording):
        assert run_cli("run", "--input", str(stream), "--strategy", "adaptive", "--out", str(out)) == 0
    assert [sum(block) for block in pieces.values()] == [1024, 1024, 952]
    assert sum(map(len, pieces.values())) == 46
    assert all(set(block[:-1]) == {68} and block[-1] <= 68 for block in pieces.values()), dict(pieces)


def test_run_takes_the_next_temporary_name_when_one_is_taken(tmp_path):
    stream, out, want = tmp_path / "s.jsonl", tmp_path / "r.jsonl", tmp_path / "want.jsonl"
    long_stream(stream, steps=40)
    assert run_cli("run", "--input", str(stream), "--out", str(want)) == 0
    taken = tmp_path / f".r.jsonl.{os.getpid()}-0.tmp"
    taken.write_text("another run's report\n")
    assert run_cli("run", "--input", str(stream), "--out", str(out)) == 0
    assert out.read_bytes() == want.read_bytes()
    assert taken.read_text() == "another run's report\n"
    assert sorted(os.listdir(tmp_path)) == sorted([taken.name, "r.jsonl", "s.jsonl", "want.jsonl"])


@pytest.mark.parametrize("out_name, reason", [
    ("missing/r.jsonl", "No such file or directory"),
    ("directory", "Is a directory"),
])
@pytest.mark.parametrize("input_exists", [True, False], ids=["input", "missing-input"])
def test_an_out_that_cannot_be_written_fails_before_the_stream_is_read(
    tmp_path, capsys, out_name, reason, input_exists
):
    # the message names --out, not a temporary file, and comes before the
    # stream is read, so a missing --input does not win over it
    stream, out = tmp_path / "s.jsonl", tmp_path / out_name
    if input_exists:
        long_stream(stream)
    (tmp_path / "directory").mkdir()
    files = sorted(os.listdir(tmp_path))
    assert run_cli("run", "--input", str(stream), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out}: {reason}"]
    assert sorted(os.listdir(tmp_path)) == files
    assert os.listdir(tmp_path / "directory") == []


def edited(path, edit):
    """Rewrite the stream file ``path`` with ``edit(lineno, line)`` in place of each line."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lineno, line) for lineno, line in enumerate(lines, start=1)))


def narrower(lineno, line):
    """Line ``lineno`` from line 2500 on without its first vote."""
    if lineno < 2500:
        return line
    obj = json.loads(line)
    return json.dumps({**obj, "votes": obj["votes"][1:]}) + "\n"


@pytest.mark.parametrize("fault", [
    lambda lineno, line: "not json\n" if lineno == 3000 else line,
    narrower,
], ids=["bad-line-3000", "width-from-2500"])
@pytest.mark.parametrize("before", [None, b"an earlier report\n"], ids=["new", "existing"])
def test_a_failure_in_a_late_block_leaves_out_as_it_was(tmp_path, capsys, fault, before):
    stream, out = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
    long_stream(stream)
    edited(stream, fault)
    with pytest.raises(ValueError) as err:
        read_stream(stream)
    if before is not None:
        out.write_bytes(before)
    files = sorted(os.listdir(tmp_path))
    assert run_cli("run", "--input", str(stream), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {err.value}"]
    assert sorted(os.listdir(tmp_path)) == files  # no partial report and no temporary file
    if before is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == before


def test_a_width_change_lists_every_width_and_a_later_bad_line_wins(tmp_path, capsys):
    stream, out = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
    long_stream(stream)
    widths = {2500: '{"votes": [1, 1]}\n', 2600: '{"votes": [1, 1, 1, 1]}\n'}
    edited(stream, lambda lineno, line: widths.get(lineno, line))
    assert run_cli("run", "--input", str(stream), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {stream}: inconsistent labeler counts [2, 3, 4]\n"
    edited(stream, lambda lineno, line: "[\n" if lineno == 2900 else line)
    assert run_cli("run", "--input", str(stream), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {stream}:2900: ")
    assert not out.exists()


def test_empty_stream_leaves_an_existing_out_as_it_was(tmp_path, capsys):
    stream, out = tmp_path / "empty.jsonl", tmp_path / "r.jsonl"
    stream.write_text("\n")
    out.write_text("an earlier report\n")
    assert run_cli("run", "--input", str(stream), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {stream}: stream file is empty\n"
    assert out.read_text() == "an earlier report\n"
    assert sorted(os.listdir(tmp_path)) == ["empty.jsonl", "r.jsonl"]


def test_run_over_its_own_input(tmp_path):
    stream, want = tmp_path / "s.jsonl", tmp_path / "want.jsonl"
    long_stream(stream)
    assert run_cli("run", "--input", str(stream), "--out", str(want)) == 0
    assert run_cli("run", "--input", str(stream), "--out", str(stream)) == 0
    assert stream.read_bytes() == want.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["s.jsonl", "want.jsonl"]


@pytest.mark.parametrize("strategy", ["adaptive", "majority"])
def test_labels_that_stop_in_a_late_block_are_dropped(tmp_path, strategy):
    # the pass starts over without labels, with a new bank and generator,
    # and so writes what a run of the unlabeled stream writes
    labeled, unlabeled, partial = tmp_path / "l.jsonl", tmp_path / "u.jsonl", tmp_path / "p.jsonl"
    votes, _ = long_stream(labeled)
    write_stream(unlabeled, Stream(votes=votes))
    head, tail = labeled.read_text().splitlines(True)[:1500], unlabeled.read_text().splitlines(True)[1500:]
    partial.write_text("".join(head + tail))
    assert read_stream(partial).truth is None
    for path in (unlabeled, partial):
        assert run_cli("run", "--input", str(path), "--strategy", strategy,
                       "--out", str(path.with_suffix(".out"))) == 0
    assert partial.with_suffix(".out").read_bytes() == unlabeled.with_suffix(".out").read_bytes()


def test_run_writes_into_a_fifo_or_device_without_renaming_over_it(tmp_path):
    stream, want, fifo = tmp_path / "s.jsonl", tmp_path / "want.jsonl", tmp_path / "fifo"
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--out", str(stream))
    run_cli("run", "--input", str(stream), "--out", str(want))
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli("run", "--input", str(stream), "--out", str(fifo)) == 0
    reader.join(timeout=60)
    assert got == [want.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert run_cli("run", "--input", str(stream), "--out", os.devnull) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_run_replaces_a_symlinks_target_and_keeps_its_mode(tmp_path):
    stream, want = tmp_path / "s.jsonl", tmp_path / "want.jsonl"
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    run_cli("simulate", "--blocks", "40:0.9,0.8,0.7", "--out", str(stream))
    run_cli("run", "--input", str(stream), "--out", str(want))
    target.write_text("an earlier report\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli("run", "--input", str(stream), "--out", str(link)) == 0
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
