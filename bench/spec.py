"""Workloads and metric names of the driftvote benchmark.

Every workload feeds one stream to both entry points a user has: the
batch CLI pipeline ``simulate -> run -> eval`` (one subprocess per
command) and the online per-step API, driven as a closed loop by one
caller that waits for each prediction before sending the next vote
vector.  The workloads differ in the stream's shape and the strategy, so
that each stresses a different layer (see ``why``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: default run configuration of ``driftvote run`` (``--m 20 --clip 0.1:0.9``)
LADDER_M = 20
CLIP = (0.1, 0.9)


def _accs(values) -> str:
    return ",".join(f"{p:.2f}" for p in values)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``layout`` holds the ``driftvote simulate`` flags that fix the stream's
    shape; the seed is added per run.  ``abstain_share`` is the share of
    votes the benchmark's own generator blanks to 0 before ``run`` reads
    the stream.  ``online_steps`` is the length of one closed-loop pass
    over the head of the resolved stream, and ``cli_share`` the share of
    each measured round spent on the CLI pipeline; online passes fill the
    rest.  ``blocks`` are the block lengths, where block edges are known.
    """

    name: str
    why: str
    n: int
    layout: tuple[str, ...]
    stream_file: str
    strategy: str
    steps: int
    online_steps: int
    cli_share: float
    abstain_share: float = 0.0
    blocks: tuple[int, ...] = ()

    @property
    def fixed_window(self) -> int | None:
        kind, _, tail = self.strategy.partition(":")
        return int(tail) if kind == "fixed" else None

    @property
    def edges(self) -> list[int]:
        """0-based indices of the first step of every block after the first."""
        out, acc = [], 0
        for length in self.blocks[:-1]:
            acc += length
            out.append(acc)
        return out


_EIGHT = [0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55]

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="block-drift",
            why=(
                "The paper's rotating-weakness preset (n=3) at block length 625, adaptive: "
                "the engine is most of run time and window depth swings at block edges, so "
                "walk and recovery changes show."
            ),
            n=3,
            layout=("--preset", "block-drift", "--block-len", "625"),
            stream_file="stream.jsonl",
            strategy="adaptive",
            steps=2500,
            online_steps=1024,
            cli_share=0.75,
            blocks=(625, 1250, 625),
        ),
        Workload(
            name="long-majority",
            why=(
                "n=8, 25k JSONL steps, 20% abstentions, majority: the engine does no "
                "work, so parsing, abstentions, report objects and report I/O are the "
                "whole cost; I/O changes show."
            ),
            n=8,
            layout=("--blocks", f"25000:{_accs(_EIGHT)}"),
            stream_file="stream.jsonl",
            strategy="majority",
            steps=25000,
            online_steps=25000,
            cli_share=0.8,
            abstain_share=0.2,
        ),
    )
}

#: end-to-end metrics, measured with tracing off: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("simulate_s", "s"),
    ("run_s", "s"),
    ("eval_s", "s"),
    ("run_peak_rss_mb", "MB"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
    ("accuracy", "fraction"),
)

#: per-layer self times in microseconds per stream step: metric -> span names
LAYER_TIMES = {
    "io.write_stream_us": ("io.write_stream",),
    "io.read_stream_us": ("io.read_stream", "io.records_to_arrays"),
    "io.write_reports_us": ("io.write_reports",),
    "io.read_reports_us": ("io.read_reports",),
    "driftgen.generate_synthetic_us": ("driftgen.generate_synthetic", "driftgen.apply_permute_drift"),
    "driftgen.resolve_abstentions_us": ("driftgen.resolve_abstentions",),
    "corrwin.push_us": ("corrwin.push",),
    "corrwin.correlation_us": ("corrwin.correlation", "corrwin.window_length"),
    "adaptive.select_window_us": ("adaptive.select_window",),
    "triplet.recover_us": ("triplet.recover_accuracies",),
    "aggregate.vote_us": ("aggregate.log_odds_weights", "aggregate.weighted_vote", "aggregate.majority_vote"),
    "aggregate.driver_self_us": ("aggregate.run_strategy",),
    "metrics.summarize_us": ("metrics.summarize",),
}

#: layers whose spans fire once per engine step (CLI run and online pass);
#: the others fire once per stream and are divided by the stream length
PER_STEP_LAYERS = (
    "corrwin.push_us",
    "corrwin.correlation_us",
    "adaptive.select_window_us",
    "triplet.recover_us",
    "aggregate.vote_us",
)

#: per-layer metrics of the traced run: (name, unit, better)
PER_LAYER = (
    *((name, "us", "lower") for name in LAYER_TIMES),
    ("cli.glue_s", "s", "lower"),
    ("corrwin.state_bytes", "bytes", "lower"),
    ("corrwin.ring_bytes", "bytes", "lower"),
    ("corrwin.sums_bytes", "bytes", "lower"),
    ("adaptive.probes_per_step", "count", "lower"),
    ("adaptive.stop_threshold_share", "fraction", "higher"),
    ("adaptive.stop_schedule_share", "fraction", "lower"),
    ("adaptive.stop_horizon_share", "fraction", "lower"),
    ("adaptive.detect_latency_steps", "steps", "lower"),
    ("adaptive.detect_latency_max_steps", "steps", "lower"),
    ("triplet.clip_share", "fraction", "lower"),
    ("triplet.zero_witness_steps", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
