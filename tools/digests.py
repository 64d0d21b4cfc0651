"""Print one ``sha256  name`` line for each output that must stay bit- and
byte-identical across a change that claims to keep behaviour.

Run:  python3 tools/digests.py [ROOT]

ROOT is the checkout whose ``src/`` and ``demos/`` are run (default: the
checkout holding this script), so one script lists any two checkouts, and
``diff`` of the two listings is the check.  The 79 outputs:

* ``simulate`` of the block-drift preset (block length 400, JSONL) and of
  two-block streams at n = 8 (JSONL) and n = 32 (CSV), and the columns
  ``read_stream`` gives of each;
* a JSONL copy of the n = 32 stream (``write_stream`` of what
  ``read_stream`` gives of the CSV), so that the widest lines go through
  the JSONL codec, and the columns ``read_stream`` gives of it;
* ``run`` adaptive, ``fixed:64``, majority and ``--sizes 1,3,9,27,81`` on
  each of the three streams;
* a CSV copy of the n = 8 stream with CRLF line ends, a blank line after
  each row, a ``t`` column and ``label`` before the vote columns, the
  columns ``read_stream`` gives of it and ``run`` majority and adaptive
  on it;
* ``eval`` of each strategy's three report files, with ``--series-dir``
  and the rolling-accuracy CSVs it writes there, and without it; the
  columns ``read_reports`` gives of the adaptive report of the
  block-drift stream, and the ``repr`` of ``summarize`` of them;
* a labeled n = 8 stream of 12,500 steps (``simulate``) and its unlabeled
  copy (``write_stream`` of its votes alone); ``run --strategy majority``
  on each, whose report files cross ``run``'s 1024-row blocks and
  t = 10^4; the columns ``read_stream`` gives of each stream
  and ``read_reports`` of each report file, and ``eval`` of each report
  file (its exit code and stderr where it fails) with its ``--series-dir``
  CSVs (none for the unlabeled one);
* at the edges of ``run``'s blocks: a copy of the 12,500-step stream
  with a fifth of its votes blanked by a seeded mask (``write_stream``),
  the columns ``read_stream`` gives of it and ``run`` majority and
  adaptive on it; a copy labeled on its first 1500 lines only, the
  columns ``read_stream`` gives of it and ``run`` majority on it; the
  same of the abstaining copy labeled on its first 1500 lines only, with
  ``run`` adaptive, which starts over with a new bank and generator; and
  the exit code, stderr and whether ``--out`` exists after ``run`` on a
  copy with a bad line at line 3000 and on one whose width changes at
  line 2500;
* an unlabeled copy of the block-drift stream (``write_stream`` of its
  votes alone), ``run`` adaptive and ``fixed:64`` on it and ``eval`` of
  each report file, so that every kind of report line end is listed;
* ``bound`` with a margin and a beta sweep, and with the drift terms of
  the block-drift preset (block length 400) at step 900; the ``repr`` of
  ``AdaptiveConfig(3)`` and of its ``error_budget`` with margin 0.2;
* the stdout of the four narrative demos (``engine_scaling`` prints
  timings, so it is left out);
* every ``run_strategy`` column of the same four strategies at n = 3, 8
  and 32;
* every online step's outputs (the ``WindowDecision`` with its probes, the
  raw and clipped accuracies, the window, the weights and both votes)
  over two-block streams of 2500, 1500 and 600 steps at n = 3, 8 and 32,
  under the default ladder and ``doubling(7)``;
* every online step's outputs of a one-rung ``(64,)`` bank over the same
  streams (the window length, the raw and clipped accuracies, the weights
  and the vote), looked up by the fixed window as the benchmark's
  ``fixed:R`` online pass looks them up;
* the bank's public lookups, ``pair_sums`` and ``correlation`` of every
  rung (dtype, shape and bytes), of a default-ladder bank pushed with the
  same streams, every 61st step and at the end, and of ``from_history``
  of each whole stream.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEMOS = ("drift_benchmark", "fixed_window_tradeoff", "permute_pair", "theory_numbers")
#: ``run`` flags and ``run_strategy`` arguments of each strategy
STRATEGIES = {
    "adaptive": ([], "adaptive", None),
    "fixed64": (["--strategy", "fixed:64"], "fixed:64", None),
    "majority": (["--strategy", "majority"], "majority", None),
    "ladder": (["--sizes", "1,3,9,27,81"], "adaptive", (1, 3, 9, 27, 81)),
}
#: steps of the two-block stream at each n
STEPS = {3: 2500, 8: 1500, 32: 600}
#: steps of the long majority stream
LONG_STEPS = 12500
#: ``bound`` flags of each output
BOUNDS = {
    "sweep": ["--n", "3", "--m", "20", "--margin", "0.2", "--beta-sweep", "0.05,0.1,0.4142"],
    "block-drift": ["--n", "3", "--m", "12", "--preset", "block-drift", "--block-len", "400", "--at", "900"],
}


def accuracies(n: int) -> list[float]:
    """n accuracies spread over [0.55, 0.95]; the second block reverses them."""
    return [round(0.55 + 0.4 * i / (n - 1), 4) for i in range(n)]


def two_blocks(n: int, steps: int) -> str:
    acc = accuracies(n)
    half = ",".join(map(str, acc)), ",".join(map(str, acc[::-1]))
    return f"{steps // 2}:{half[0]};{steps - steps // 2}:{half[1]}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def columns(*cols) -> str:
    """The digest of arrays, each with its dtype and shape, or None."""
    return sha(b"".join(
        b"None" if col is None else f"{col.dtype.str} {col.shape}".encode() + col.tobytes()
        for col in cols
    ))


def series(directory: Path) -> str:
    """The digest of the names and bytes of the files under ``directory``
    (none when it does not exist)."""
    files = sorted(directory.iterdir()) if directory.is_dir() else []
    return sha(b"".join(f"{f.name} {f.stat().st_size}\n".encode() + f.read_bytes() for f in files))


def report_columns(path: Path) -> str:
    """The digest of the columns ``read_reports`` gives of a report file."""
    from driftvote.core import REPORT_COLUMNS
    from driftvote.io import read_reports

    back = read_reports(path)
    return columns(*(getattr(back, name) for name in REPORT_COLUMNS))


def stream_columns(path: Path) -> str:
    """The digest of the columns ``read_stream`` gives of a stream file."""
    from driftvote.io import read_stream

    stream = read_stream(path)
    return columns(stream.votes, stream.truth, stream.block)


def cli_outputs(work: Path) -> dict[str, str]:
    from driftvote.cli import main

    def cli(*argv: str) -> None:
        if main(list(argv)) != 0:
            raise SystemExit(f"driftvote {' '.join(argv)} failed")

    streams = {
        "bd.jsonl": ["--preset", "block-drift", "--block-len", "400", "--seed", "0"],
        "n8.jsonl": ["--blocks", two_blocks(8, STEPS[8]), "--seed", "1"],
        "n32.csv": ["--blocks", two_blocks(32, STEPS[32]), "--seed", "2"],
    }
    out = {}
    for name, flags in streams.items():
        cli("simulate", *flags, "--out", str(work / name))
        out[f"simulate/{name}"] = sha((work / name).read_bytes())
        out[f"read/{name}"] = stream_columns(work / name)
    from driftvote.io import read_stream, write_stream

    copy = work / "n32.jsonl"
    write_stream(copy, read_stream(work / "n32.csv"))
    out[f"write/{copy.name}"] = sha(copy.read_bytes())
    out[f"read/{copy.name}"] = stream_columns(copy)
    for strategy, (flags, _, _) in STRATEGIES.items():
        reports = []
        for name in streams:
            path = work / f"{name.split('.')[0]}-{strategy}.jsonl"
            cli("run", "--input", str(work / name), *flags, "--out", str(path))
            out[f"run/{path.name}"] = sha(path.read_bytes())
            reports.append(str(path))
        summary, rolling = work / f"eval-{strategy}.json", work / f"series-{strategy}"
        cli("eval", "--reports", *reports, "--out", str(summary), "--series-dir", str(rolling))
        out[f"eval/{strategy}.json"] = sha(summary.read_bytes())
        out[f"series/{strategy}"] = series(rolling)
        bare = work / f"eval-{strategy}-no-series.json"
        cli("eval", "--reports", *reports, "--out", str(bare))
        out[f"eval/{strategy}-no-series.json"] = sha(bare.read_bytes())
    out["read/bd-adaptive"] = report_columns(work / "bd-adaptive.jsonl")
    from driftvote.io import read_reports
    from driftvote.metrics import summarize

    summary = summarize(read_reports(work / "bd-adaptive.jsonl"))
    out["repr/summarize-bd-adaptive"] = sha(repr(summary).encode())
    for name, flags in BOUNDS.items():
        path = work / f"bound-{name}.json"
        cli("bound", *flags, "--out", str(path))
        out[f"bound/{name}.json"] = sha(path.read_bytes())
    from driftvote.core import AdaptiveConfig, error_budget

    out["repr/AdaptiveConfig"] = sha(repr(AdaptiveConfig(3)).encode())
    out["repr/error_budget"] = sha(repr(error_budget(AdaptiveConfig(3), margin=0.2)).encode())
    out.update(long_majority_outputs(cli, work))
    out.update(block_edge_outputs(cli, work))
    out.update(unlabeled_outputs(cli, work))
    out.update(csv_outputs(cli, work))
    return out


def csv_outputs(cli, work: Path) -> dict[str, str]:
    """Digests of a CSV copy of the n = 8 stream that goes through the CSV
    reader's line rule (see the module docstring), of the columns
    ``read_stream`` gives of it and of its majority and adaptive reports."""
    import json

    rows = [json.loads(line) for line in (work / "n8.jsonl").read_text().splitlines()]
    header = ["t", "label", *(f"v{i}" for i in range(1, len(rows[0]["votes"]) + 1))]
    lines = [header] + [[t, row["label"], *row["votes"]] for t, row in enumerate(rows, start=1)]
    stream = work / "n8-loose.csv"
    stream.write_bytes("".join(",".join(map(str, line)) + "\r\n\r\n" for line in lines).encode())
    out = {f"write/{stream.name}": sha(stream.read_bytes()), f"read/{stream.name}": stream_columns(stream)}
    for strategy in ("majority", "adaptive"):
        reports = work / f"{stream.stem}-{strategy}.jsonl"
        cli("run", "--input", str(stream), *STRATEGIES[strategy][0], "--out", str(reports))
        out[f"run/{reports.name}"] = sha(reports.read_bytes())
    return out


def unlabeled_outputs(cli, work: Path) -> dict[str, str]:
    """Digests of an unlabeled copy of the block-drift stream, of its
    adaptive and ``fixed:64`` report files and of ``eval`` of each."""
    from driftvote import Stream
    from driftvote.io import read_stream, write_stream

    stream = work / "bd-unlabeled.jsonl"
    write_stream(stream, Stream(votes=read_stream(work / "bd.jsonl").votes, truth=None))
    out = {f"write/{stream.name}": sha(stream.read_bytes())}
    for strategy in ("adaptive", "fixed64"):
        reports = work / f"{stream.stem}-{strategy}.jsonl"
        summary = work / f"eval-{reports.stem}.json"
        cli("run", "--input", str(stream), *STRATEGIES[strategy][0], "--out", str(reports))
        cli("eval", "--reports", str(reports), "--out", str(summary))
        out[f"run/{reports.name}"] = sha(reports.read_bytes())
        out[f"eval/{reports.stem}.json"] = sha(summary.read_bytes())
    return out


def long_majority_outputs(cli, work: Path) -> dict[str, str]:
    """Digests of the long labeled stream, its unlabeled copy, their
    majority report files, the columns ``read_reports`` gives of each, and
    ``eval`` of each: its summary, or its exit code and stderr where it
    fails, and its ``--series-dir`` CSVs."""
    import contextlib
    import io

    from driftvote import Stream
    from driftvote.cli import main
    from driftvote.io import read_stream, write_stream

    labeled, unlabeled = work / "long.jsonl", work / "long-unlabeled.jsonl"
    cli("simulate", "--blocks", f"{LONG_STEPS}:{','.join(map(str, accuracies(8)))}",
        "--seed", "3", "--out", str(labeled))
    write_stream(unlabeled, Stream(votes=read_stream(labeled).votes, truth=None))
    out = {}
    for stream in (labeled, unlabeled):
        out[f"simulate/{stream.name}"] = sha(stream.read_bytes())
        out[f"read/{stream.name}"] = stream_columns(stream)
        reports = work / f"{stream.stem}-majority.jsonl"
        cli("run", "--input", str(stream), "--strategy", "majority", "--out", str(reports))
        out[f"run/{reports.name}"] = sha(reports.read_bytes())
        out[f"read/{reports.stem}"] = report_columns(reports)
        summary, stderr = work / f"eval-{reports.stem}.json", io.StringIO()
        rolling = work / f"series-{reports.stem}"
        with contextlib.redirect_stderr(stderr):
            code = main(["eval", "--reports", str(reports), "--out", str(summary),
                         "--series-dir", str(rolling)])
        result = summary.read_bytes() if code == 0 else f"exit {code}\n{stderr.getvalue()}".encode()
        out[f"eval/{reports.stem}.json"] = sha(result)
        out[f"series/{reports.stem}"] = series(rolling)
    return out


def block_edge_outputs(cli, work: Path) -> dict[str, str]:
    """Digests of copies of the long labeled stream that ``run`` meets at
    the edges of its blocks: with abstentions, labeled on its first 1500
    lines only (with and without abstentions), and failing late (see the
    module docstring)."""
    import contextlib
    import io
    import json

    import numpy as np

    from driftvote import Stream
    from driftvote.cli import main
    from driftvote.io import read_stream, write_stream

    def part_labeled(labeled: Path, unlabeled: Path) -> Path:
        """A copy of ``labeled`` whose labels stop after line 1500."""
        partial = labeled.with_name(f"{labeled.stem}-partial.jsonl")
        partial.write_text("".join(labeled.read_text().splitlines(True)[:1500]
                                   + unlabeled.read_text().splitlines(True)[1500:]))
        return partial

    long = read_stream(work / "long.jsonl")
    votes = long.votes.copy()
    votes[np.random.default_rng(4).random(votes.shape) < 0.2] = 0
    abstain, abstain_unlabeled = work / "long-abstain.jsonl", work / "long-abstain-unlabeled.jsonl"
    write_stream(abstain, Stream(votes=votes, truth=long.truth))
    write_stream(abstain_unlabeled, Stream(votes=votes, truth=None))
    lines = (work / "long.jsonl").read_text().splitlines(keepends=True)
    out = {}
    for stream, strategies in (
        (abstain, ("majority", "adaptive")),
        (part_labeled(work / "long.jsonl", work / "long-unlabeled.jsonl"), ("majority",)),
        (part_labeled(abstain, abstain_unlabeled), ("adaptive",)),
    ):
        out[f"write/{stream.name}"] = sha(stream.read_bytes())
        out[f"read/{stream.name}"] = stream_columns(stream)
        for strategy in strategies:
            reports = work / f"{stream.stem}-{strategy}.jsonl"
            cli("run", "--input", str(stream), *STRATEGIES[strategy][0], "--out", str(reports))
            out[f"run/{reports.name}"] = sha(reports.read_bytes())
    narrow = [json.dumps({**json.loads(line), "votes": json.loads(line)["votes"][1:]}) + "\n" for line in lines]
    failing = {
        "long-bad-line-3000.jsonl": lines[:2999] + ["not json\n"] + lines[3000:],
        "long-width-2500.jsonl": lines[:2499] + narrow[2499:],
    }
    for name, text in failing.items():
        stream, reports, stderr = work / name, work / f"fail-{name}", io.StringIO()
        stream.write_text("".join(text))
        with contextlib.redirect_stderr(stderr):
            code = main(["run", "--input", str(stream), "--strategy", "majority", "--out", str(reports)])
        message = stderr.getvalue().replace(str(work), "WORK")
        out[f"fail/{name}"] = sha(f"exit {code}\n{message}out exists: {reports.exists()}\n".encode())
    return out


def demo_outputs(root: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = {}
    for name in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(root / "demos" / f"{name}.py")],
            capture_output=True, env=env, cwd=work, check=True, timeout=600,
        )
        out[f"demo/{name}"] = sha(proc.stdout)
    return out


def two_block_votes(n: int):
    from driftvote import BlockSpec, SyntheticStreamConfig, generate_synthetic

    acc = tuple(accuracies(n))
    half = STEPS[n] // 2
    blocks = (BlockSpec(half, acc), BlockSpec(STEPS[n] - half, acc[::-1]))
    stream = generate_synthetic(SyntheticStreamConfig(blocks=blocks, seed=n, n=n))
    return stream.votes, stream.truth


def engine_columns() -> str:
    from driftvote import AdaptiveConfig, WindowSchedule, run_strategy
    from driftvote.core import REPORT_COLUMNS

    h = hashlib.sha256()
    for n in STEPS:
        votes, truth = two_block_votes(n)
        for label, (_, strategy, sizes) in STRATEGIES.items():
            config = AdaptiveConfig(n, WindowSchedule(sizes)) if sizes else AdaptiveConfig(n)
            reports = run_strategy(votes, strategy, config, truths=truth)
            for name in REPORT_COLUMNS:
                col = getattr(reports, name)
                spec = "None" if col is None else f"{col.dtype.str} {col.shape}"
                h.update(f"{n} {label} {name} {spec}\n".encode())
                if col is not None:
                    h.update(col.tobytes())
    return h.hexdigest()


def online_steps() -> str:
    from driftvote import (
        AdaptiveConfig,
        CorrelationBank,
        WindowSchedule,
        log_odds_weights,
        majority_vote,
        recover_accuracies,
        select_window,
        weighted_vote,
    )

    h = hashlib.sha256()
    for n in STEPS:
        votes, _ = two_block_votes(n)
        for config in (AdaptiveConfig(n), AdaptiveConfig(n, WindowSchedule.doubling(7))):
            bank = CorrelationBank(n, config.schedule.sizes)
            for row in votes:
                bank.push(row)
                decision = select_window(bank, config)
                est = recover_accuracies(
                    bank.correlation(decision.window), config.clip_lo, config.clip_hi,
                    window=bank.window_length(decision.window),
                )
                weights = log_odds_weights(est.accuracies)
                h.update(repr(decision).encode())
                for arr in (est.raw, est.accuracies, weights):
                    h.update(arr.tobytes())
                h.update(f"{est.window} {weighted_vote(row, weights)} {majority_vote(row)}\n".encode())
    return h.hexdigest()


def fixed_online_steps(fixed: int = 64) -> str:
    from driftvote import AdaptiveConfig, CorrelationBank, log_odds_weights, recover_accuracies, weighted_vote

    h = hashlib.sha256()
    for n in STEPS:
        votes, _ = two_block_votes(n)
        config = AdaptiveConfig(n)
        bank = CorrelationBank(n, [fixed])
        for row in votes:
            bank.push(row)
            window = bank.window_length(fixed)
            est = recover_accuracies(bank.correlation(fixed), config.clip_lo, config.clip_hi, window=window)
            weights = log_odds_weights(est.accuracies)
            for arr in (est.raw, est.accuracies, weights):
                h.update(arr.tobytes())
            h.update(f"{window} {weighted_vote(row, weights)}\n".encode())
    return h.hexdigest()


def lookups(bank) -> bytes:
    """The digest of ``pair_sums`` and ``correlation`` of every rung of ``bank``."""
    return columns(*(get(r) for r in bank.sizes for get in (bank.pair_sums, bank.correlation))).encode()


def bank_lookups(every: int = 61) -> str:
    from driftvote import AdaptiveConfig, CorrelationBank

    h = hashlib.sha256()
    for n in STEPS:
        votes, _ = two_block_votes(n)
        sizes = AdaptiveConfig(n).schedule.sizes
        bank = CorrelationBank(n, sizes)
        for step, row in enumerate(votes, start=1):
            bank.push(row)
            if step % every == 0 or step == len(votes):
                h.update(lookups(bank))
        h.update(lookups(CorrelationBank.from_history(n, votes, sizes)))
    return h.hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    if not (root / "src" / "driftvote" / "__init__.py").is_file():
        print(f"error: no driftvote source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        digests = cli_outputs(work)
        digests.update(demo_outputs(root, work))
    digests["engine/run_strategy-columns"] = engine_columns()
    digests["online/step-outputs"] = online_steps()
    digests["online/fixed-step-outputs"] = fixed_online_steps()
    digests["bank/lookups"] = bank_lookups()
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
