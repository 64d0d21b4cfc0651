"""Command-line front end.

Four subcommands cover the full loop:

* ``simulate`` — draw a synthetic drifting stream and write it to disk,
* ``run``      — aggregate a stream file with one strategy into reports,
* ``eval``     — summarize one or more report files (JSON + CSV series),
* ``bound``    — print the theory numbers for a configuration.

Every command is deterministic given its flags: identical invocations
produce byte-identical outputs.  Errors, a failed allocation among them,
exit 2 with a single ``error: ...`` line on stderr.

Each command imports the modules it uses when it runs, so that ``eval``
and ``bound`` without a stream layout load no numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (
    DRIFT_TO_CORR,
    ROLLING_LOOKAHEAD,
    AdaptiveConfig,
    Reports,
    WindowSchedule,
    error_budget,
    selection_overhead,
)

if TYPE_CHECKING:
    from .driftgen import BlockSpec, SyntheticStreamConfig

PRESETS = ("block-drift",)


def _parse_blocks(text: str) -> tuple[BlockSpec, ...]:
    """Parse "LEN:p1,p2,...;LEN:p1,p2,..." into block specs."""
    from .driftgen import BlockSpec

    blocks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        length_text, _, acc_text = part.partition(":")
        if not acc_text:
            raise ValueError(f"bad block {part!r}; expected LEN:p1,p2,...")
        try:
            length = int(length_text)
            accuracies = tuple(float(x) for x in acc_text.split(","))
        except ValueError:
            raise ValueError(f"bad block {part!r}; expected LEN:p1,p2,...") from None
        blocks.append(BlockSpec(length=length, accuracies=accuracies))
    if not blocks:
        raise ValueError("no blocks given")
    return tuple(blocks)


def _parse_clip(text: str) -> tuple[float, float]:
    lo_text, _, hi_text = text.partition(":")
    try:
        return float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(f"bad clip band {text!r}; expected LO:HI") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad number list {text!r}") from None


def _schedule(args) -> WindowSchedule:
    if args.sizes is not None:
        try:
            sizes = tuple(int(x) for x in args.sizes.split(","))
        except ValueError:
            raise ValueError(f"bad window sizes {args.sizes!r}") from None
        return WindowSchedule(sizes)
    return WindowSchedule.doubling(args.m)


def _config(args, n: int, *clip: float) -> AdaptiveConfig:
    """The engine config that the schedule flags describe, for n labelers,
    with the clip band ``clip_lo, clip_hi`` when one is given."""
    return AdaptiveConfig(n, _schedule(args), args.beta, args.delta, *clip)


def _synthetic_config(args, seed: int) -> SyntheticStreamConfig:
    if (args.preset is None) == (args.blocks is None):
        raise ValueError("give exactly one of --preset or --blocks")
    from .driftgen import SyntheticStreamConfig, block_drift_preset

    if args.preset is not None:
        return block_drift_preset(seed, block_len=args.block_len)
    blocks = _parse_blocks(args.blocks)
    return SyntheticStreamConfig(blocks=blocks, seed=seed, n=len(blocks[0].accuracies))


def _save_config(args) -> None:
    if args.save_config:
        params = {k: v for k, v in vars(args).items() if k not in ("func", "save_config")}
        text = json.dumps({"command": args.command, "params": params}, indent=2, sort_keys=True)
        Path(args.save_config).write_text(text + "\n", encoding="utf-8")


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_simulate(args) -> int:
    from . import io as dio
    from .driftgen import apply_permute_drift, generate_synthetic, role_rngs

    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    cfg = _synthetic_config(args, args.seed)
    stream = generate_synthetic(cfg)
    if args.permute_prob != 0.0:  # NaN too, which the shuffle rejects
        stream = apply_permute_drift(stream, args.permute_prob, role_rngs(args.seed)["permute"])
    dio.write_stream(args.out, stream, fmt=args.format)
    return 0


@contextmanager
def _replacing(path):
    """A text file to write ``path``'s new content into, which takes the
    place of ``path`` only when the block exits without an error; on an
    error ``path`` is left as it was.

    When ``path`` is a regular file, or names none, the file is a sibling
    that is renamed over it (a symlink's target is what is replaced).  A
    device or FIFO is never renamed over: the file is then a temporary
    one, copied into ``path`` at the end.  A directory, or a sibling that
    cannot be made, raises before the block runs, naming ``--out``.
    """
    target = Path(os.path.realpath(path))
    if target.is_dir():
        raise IsADirectoryError(f"--out {path}: Is a directory")
    if target.exists() and not target.is_file():
        import shutil
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            yield fh
            fh.seek(0)
            with open(target, "w", encoding="utf-8") as out:
                shutil.copyfileobj(fh, out)
        return
    for k in count():
        sibling = target.with_name(f".{target.name}.{os.getpid()}-{k}.tmp")
        try:
            fd = os.open(sibling, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # a missing or unwritable directory: name --out, not the sibling
            raise type(exc)(f"--out {path}: {exc.strerror}") from None
    try:
        if target.exists():  # the file it replaces keeps its mode
            os.fchmod(fd, stat.S_IMODE(target.stat().st_mode))
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(sibling, target)
    except BaseException:
        os.unlink(sibling)
        raise


def cmd_run(args) -> int:
    from . import io as dio
    from .aggregate import _checked_strategy, _decider
    from .driftgen import _block_resolver

    # check the whole run configuration before any file work, for every
    # strategy; n=3 stands in until the stream's width is known, at which
    # _decider checks the config again when the strategy needs one
    config = _config(args, 3, *_parse_clip(args.clip))
    _checked_strategy(args.strategy, config)
    if args.abstain_seed < 0:
        raise ValueError(f"--abstain-seed must be nonnegative, got {args.abstain_seed}")

    def run_pass(fh, labels: bool) -> bool:
        """One pass over the stream file, a block of rows at a time: read,
        resolve, decide and write the block's report lines to ``fh``.
        Labels are kept when ``labels`` and the first block has them; then
        a later block without them stops the pass and gives False.  Memory
        holds one block, the engine's bank and the abstention generator."""
        decide, resolve, lines = None, _block_resolver(args.abstain_seed), dio._ReportLines()
        for votes, truth in dio._stream_blocks(args.input):
            if decide is None:
                decide, labels = _decider(args.strategy, config, votes.shape[1]), labels and truth is not None
            elif labels and truth is None:
                return False
            for block in lines(Reports(truth=truth if labels else None, **decide(resolve(votes)))):
                fh.writelines(block)
        if decide is None:
            raise ValueError(f"{args.input}: stream file is empty")
        return True

    with _replacing(args.out) as fh:
        # labels are kept only when every line has one, so a pass that
        # meets a block without them after blocks with them starts over
        if not run_pass(fh, labels=True):
            fh.seek(0)
            fh.truncate()
            run_pass(fh, labels=False)
    return 0


def cmd_eval(args) -> int:
    from . import io as dio
    from .metrics import comparison_rows, summarize

    summaries = {}
    for path_text in args.reports:
        stem = Path(path_text).stem
        name, k = stem, 1
        while name in summaries:  # a repeated stem takes the first free stem-2, stem-3, ...
            k += 1
            name = f"{stem}-{k}"
        # the checked 1-d columns as array.array, so that eval loads no numpy
        columns = dio._report_columns(path_text)
        reports = Reports(**{col: values for col, (values, width) in columns.items() if width is None})
        summaries[name] = summarize(reports, lookahead=args.lookahead)
    doc = {
        "runs": {name: s.to_json_dict() for name, s in summaries.items()},
        "comparison": comparison_rows(summaries),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if args.series_dir is not None:
        series_dir = Path(args.series_dir)
        series_dir.mkdir(parents=True, exist_ok=True)
        for name, s in summaries.items():
            if s.rolling is not None:  # an unlabeled run has no series
                dio.write_series_csv(series_dir / f"{name}_rolling.csv", s.rolling)
    return 0


def cmd_bound(args) -> int:
    config = _config(args, n=args.n)
    budget = error_budget(config, margin=args.margin)
    doc: dict = {
        "n": config.n,
        "m": config.schedule.m,
        "beta": config.beta,
        "delta": config.delta,
        "sizes": list(config.schedule.sizes),
        "bound_const": budget.bound_const,
        "overhead": budget.overhead,
        "statistical": {str(r): v for r, v in budget.statistical.items()},
    }
    if budget.margin is not None:
        doc["margin"] = budget.margin
        doc["recovery_prefactor"] = budget.recovery_prefactor
    if args.preset is not None or args.blocks is not None:
        from .driftgen import true_drift_error

        synth = _synthetic_config(args, seed=0)
        if synth.n != config.n:
            raise ValueError(f"stream layout has {synth.n} labelers, --n says {config.n}")
        at = args.at if args.at is not None else synth.length
        per_window = {}
        for r in config.schedule.sizes:
            drift = true_drift_error(synth, r, at)
            stat = budget.statistical[r]
            per_window[str(r)] = {
                "drift_sum": drift,
                "correlation_error": stat + DRIFT_TO_CORR * drift,
            }
        doc["drift"] = {"at": at, "per_window": per_window}
        doc["oracle_correlation_error"] = min(
            v["correlation_error"] for v in per_window.values()
        )
    elif args.at is not None:
        raise ValueError("--at needs the drift stream of --preset or --blocks")
    if args.beta_sweep is not None:
        doc["beta_sweep"] = [
            {"beta": b, "overhead": selection_overhead(config.schedule, b)}
            for b in _parse_float_list(args.beta_sweep)
        ]
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftvote",
        description="Streaming weighted voting with adaptive history windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schedule_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, default=20, help="doubling schedule length (default 20)")
        p.add_argument("--sizes", help="explicit window sizes, comma-separated (overrides --m)")
        p.add_argument("--beta", type=float, default=0.1, help="drift tolerance (default 0.1)")
        p.add_argument("--delta", type=float, default=0.1, help="failure probability (default 0.1)")

    def add_blocks_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", choices=PRESETS, help="named synthetic stream layout")
        p.add_argument("--blocks", help='explicit layout "LEN:p1,p2,...;LEN:p1,p2,..."')
        p.add_argument("--block-len", type=int, default=5000, help="preset block unit (default 5000)")

    p = sub.add_parser("simulate", help="draw a synthetic stream and write it to a file")
    add_blocks_flags(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--permute-prob", type=float, default=0.0,
                   help="per-step labeler shuffle probability (default 0)")
    p.add_argument("--format", choices=("jsonl", "csv"), help="default: by --out extension")
    p.add_argument("--out", required=True, help="output stream path")
    p.add_argument("--save-config", help="also write the invocation as JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="aggregate a stream file into per-step reports")
    p.add_argument("--input", required=True, help="stream path (JSONL or CSV)")
    p.add_argument("--strategy", default="adaptive", help="adaptive | majority | fixed:R")
    add_schedule_flags(p)
    p.add_argument("--clip", default="0.1:0.9", help="accuracy clip band LO:HI (default 0.1:0.9)")
    p.add_argument("--abstain-seed", type=int, default=0,
                   help="seed for resolving abstentions (default 0)")
    p.add_argument("--out", required=True, help="output reports path (JSONL)")
    p.add_argument("--save-config", help="also write the invocation as JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="summarize report files")
    p.add_argument("--reports", nargs="+", required=True, help="one or more report files")
    p.add_argument("--lookahead", type=int, default=ROLLING_LOOKAHEAD,
                   help=f"rolling accuracy lookahead (default {ROLLING_LOOKAHEAD})")
    p.add_argument("--out", default="-", help="summary JSON path, or - for stdout")
    p.add_argument("--series-dir", help="directory for per-run rolling-accuracy CSVs")
    p.add_argument("--save-config", help="also write the invocation as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bound", help="print theory constants and error budgets")
    p.add_argument("--n", type=int, required=True, help="number of labelers")
    add_schedule_flags(p)
    p.add_argument("--margin", type=float, help="known lower margin of accuracies above 1/2")
    add_blocks_flags(p)
    p.add_argument("--at", type=int, help="stream position for the drift terms (default: end)")
    p.add_argument("--beta-sweep", help="comma-separated betas to tabulate overhead for")
    p.add_argument("--out", default="-", help="JSON path, or - for stdout")
    p.add_argument("--save-config", help="also write the invocation as JSON")
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        _save_config(args)
        return status
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
