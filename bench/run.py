"""driftvote benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload block-drift --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  With ``--trace 0`` the run measures end-to-end metrics with
tracing off: CLI subprocess wall times and peak RSS of ``simulate``,
``run`` and ``eval`` over repeated pipelines, the set-up time of a fresh
interpreter, and per-step latency of closed-loop online passes; times are
trimmed means of their samples, scaled to nominal host speed with the
reference task of ``speed.py``.  With ``--trace 1`` it repeats the pipeline
in-process through the same public calls, untraced and traced, and
reports per-layer self times, counts taken from returned objects, and the
tracing overhead.  Every run checks its outputs against the references in
``oracle.py`` outside the timed regions.  Metric lines are printed by
name with their unit; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import spec
from pipeline import (
    Checkout, cli_commands, online_pass, prepare_input, sha256, sim_path, startup_argv,
)
from spans import Tracer, patched
from speed import Speed, trimmed_mean

ROOT = Path(__file__).resolve().parent.parent
#: set-ups timed before the first round, and again in every round
SETUP_FIRST, SETUP_PER_ROUND = 3, 1
#: sampled report steps checked against the rebuilt bank, per run
ORACLE_SAMPLES = 48


def median(values) -> float:
    return float(statistics.median(values))


def checked(tally: oracle.Tally, call, what: str):
    tally.add(call.code == 0, f"{what} exited with {call.code}")
    return call


def set_up(co: Checkout, w: spec.Workload, tally: oracle.Tally, reps: int, speed: Speed) -> list[float]:
    out = []
    for _ in range(reps):
        speed.shot()
        out.append(checked(tally, co.call(startup_argv(w.n), "setup"), "setup").wall_s)
    return out


def load_stream(co: Checkout, w: spec.Workload) -> tuple[np.ndarray, np.ndarray]:
    """The resolved votes and the labels ``run`` read."""
    raw, labels = oracle.read_stream_file(co.work / w.stream_file)
    return oracle.resolve(raw, 0), labels  # ``run``'s default --abstain-seed


def check_outputs(driftvote, co, w, seed, tally) -> tuple[np.ndarray, list[dict], float]:
    votes, labels = load_stream(co, w)
    reports = oracle.read_reports(co.work / "reports.jsonl")
    tally.add(votes.shape == (w.steps, w.n), f"stream shape {votes.shape}")
    steps = oracle.sample_steps(w, seed, ORACLE_SAMPLES)
    oracle.check_reports(driftvote, w, votes, labels, reports, steps, tally)
    accuracy = oracle.check_summary(co.work / "summary.json", reports, tally)
    return votes, reports, accuracy


def measure(driftvote, co: Checkout, w: spec.Workload, seed: int, seconds: float, tally) -> dict:
    """End-to-end metrics, tracing off.  Rounds of set-up, one CLI
    pipeline and online passes (in the ratio ``cli_share``) repeat for
    ``seconds`` of wall time, so that every metric samples the whole run;
    a round starts only if it is expected to end in time (the first always
    runs).  A time metric is the trimmed mean of its samples, peak RSS
    their median.  The reference task of ``speed.py`` runs
    before every sample, and all times are scaled to its nominal speed."""
    co.call(startup_argv(w.n), "setup")  # warm-up: bytecode and file caches
    speed = Speed()
    setup = set_up(co, w, tally, SETUP_FIRST, speed)
    cmds = cli_commands(w, seed, co.work)
    walls: dict[str, list[float]] = {"simulate": [], "run": [], "eval": []}
    rss: list[float] = []
    first: dict[str, str] = {}
    lat: list[np.ndarray] = []
    t_start = time.perf_counter()
    last_round = 0.0
    while not lat or time.perf_counter() - t_start + last_round <= seconds:
        round_start = time.perf_counter()
        setup += set_up(co, w, tally, SETUP_PER_ROUND, speed)
        cli_time = online_time = 0.0
        for name in ("simulate", "run", "eval"):
            speed.shot()
            call = checked(tally, co.cli(*cmds[name]), name)
            walls[name].append(call.wall_s)
            cli_time += call.wall_s
            if name == "run":
                rss.append(call.peak_rss_mb)
            if name == "simulate":
                digest = sha256(sim_path(w, co.work))
                if "sim" in first:
                    tally.add(digest == first["sim"], "simulate output differs between repeats")
                else:
                    first["sim"] = digest
                    prepare_input(w, co.work, seed)
        for name in ("reports.jsonl", "summary.json"):
            digest = sha256(co.work / name)
            tally.add(first.setdefault(name, digest) == digest, f"{name} differs between repeats")
        if not lat:
            votes, reports, accuracy = check_outputs(driftvote, co, w, seed, tally)
        passes = 0
        while not passes or online_time < cli_time * (1.0 - w.cli_share) / w.cli_share:
            speed.shot()
            t0 = time.perf_counter()
            ns, outputs, _ = online_pass(driftvote, w, votes, record=not lat)
            online_time += time.perf_counter() - t0
            if not lat:
                oracle.check_online(outputs, reports, tally)
            lat.append(ns)
            passes += 1
        last_round = time.perf_counter() - round_start
    steps = sum(ns.size for ns in lat)
    # percentiles within each pass, averaged over passes: a burst of host
    # noise then moves one pass, not the run
    p50_us, p99_us = (trimmed_mean(np.percentile(ns, q) / 1000.0 for ns in lat) for q in (50, 99))

    raw = {
        "setup_s": trimmed_mean(setup),
        "simulate_s": trimmed_mean(walls["simulate"]),
        "run_s": trimmed_mean(walls["run"]),
        "eval_s": trimmed_mean(walls["eval"]),
        "step_p50_us": p50_us,
        "step_p99_us": p99_us,
    }
    scale = speed.scale()
    print(f"# {len(setup)} set-ups, {len(walls['run'])} CLI pipelines, "
          f"{len(lat)} online passes ({steps} steps) in "
          f"{time.perf_counter() - t_start:.1f} s")
    print(f"# reference task {speed.reference_s() * 1e3:.2f} ms over {len(speed.shots)} shots: "
          f"times are scaled by {scale:.4f}; as measured: "
          + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    out = {name: value * scale for name, value in raw.items()}
    out["run_peak_rss_mb"] = median(rss)
    out["accuracy"] = accuracy
    return out


class Counters:
    """Counts taken from the objects the traced calls return."""

    def __init__(self) -> None:
        self.walks = self.probes = 0
        self.stops: dict[str, int] = {}
        self.raw_entries = self.clipped = self.zero_witness = 0

    def on_decision(self, decision) -> None:
        self.walks += 1
        self.probes += len(decision.probes)
        self.stops[decision.stop_reason] = self.stops.get(decision.stop_reason, 0) + 1

    def on_estimate(self, est) -> None:
        raw = np.asarray(est.raw)
        self.raw_entries += raw.size
        self.clipped += int(np.count_nonzero((raw < spec.CLIP[0]) | (raw > spec.CLIP[1])))
        # a witness pair with zero correlation falls back to raw = 1/2
        self.zero_witness += bool(np.any(raw == 0.5))


def trace_targets(driftvote, counters: Counters):
    m = driftvote
    return [
        (m.driftgen, "generate_synthetic", "driftgen.generate_synthetic"),
        (m.driftgen, "apply_permute_drift", "driftgen.apply_permute_drift"),
        (m.driftgen, "resolve_abstentions", "driftgen.resolve_abstentions"),
        (m.io, "write_stream", "io.write_stream"),
        (m.io, "read_stream", "io.read_stream"),
        (m.io, "records_to_arrays", "io.records_to_arrays"),
        (m.io, "write_reports", "io.write_reports"),
        (m.io, "read_reports", "io.read_reports"),
        (m.aggregate, "run_strategy", "aggregate.run_strategy"),
        (m.aggregate, "log_odds_weights", "aggregate.log_odds_weights"),
        (m.aggregate, "weighted_vote", "aggregate.weighted_vote"),
        (m.aggregate, "majority_vote", "aggregate.majority_vote"),
        (m.corrwin.CorrelationBank, "push", "corrwin.push"),
        (m.corrwin.CorrelationBank, "correlation", "corrwin.correlation"),
        (m.corrwin.CorrelationBank, "window_length", "corrwin.window_length"),
        (m.adaptive, "select_window", "adaptive.select_window", counters.on_decision),
        (m.triplet, "recover_accuracies", "triplet.recover_accuracies", counters.on_estimate),
        (m.metrics, "summarize", "metrics.summarize"),
    ]


def inprocess(driftvote, cli, co, w, seed, tally, tracer: Tracer | None):
    """The CLI pipeline through ``cli.main`` in this process, then one
    online pass.  Returns the timed wall seconds, the online pass's
    outputs and its bank.  Makes no library call outside the timed parts,
    so that a traced run records only the pipeline's own calls."""
    cmds = cli_commands(w, seed, co.work)
    wall = 0.0
    for name in ("simulate", "run", "eval"):
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(cmds[name])
        else:
            with tracer.span("cli.main"):
                code = cli.main(cmds[name])
        wall += time.perf_counter() - t0
        tally.add(code == 0, f"in-process {name} returned {code}")
        if name == "simulate":
            prepare_input(w, co.work, seed)
    votes, _ = load_stream(co, w)
    t0 = time.perf_counter()
    if tracer is None:
        _, outputs, bank = online_pass(driftvote, w, votes, record=True)
    else:
        with tracer.span("online.pass"):
            _, outputs, bank = online_pass(driftvote, w, votes, record=True)
    wall += time.perf_counter() - t0
    return wall, outputs, bank


def check_inprocess(driftvote, co, w, seed, tally, outputs) -> list[dict]:
    _, reports, _ = check_outputs(driftvote, co, w, seed, tally)
    oracle.check_online(outputs, reports, tally)
    return reports


def bank_bytes(bank) -> dict[str, float]:
    """Array bytes the bank holds; the ring is the array with one row per
    retained slot, the rest are the window sums."""
    if bank is None:
        return {"corrwin.state_bytes": 0.0, "corrwin.ring_bytes": 0.0, "corrwin.sums_bytes": 0.0}
    arrays = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
    ring = sum(a.nbytes for a in arrays if a.ndim == 2 and a.shape[0] == bank.max_size)
    total = sum(a.nbytes for a in arrays)
    return {"corrwin.state_bytes": float(total), "corrwin.ring_bytes": float(ring),
            "corrwin.sums_bytes": float(total - ring)}


def traced(driftvote, co: Checkout, w: spec.Workload, seed: int, seconds: float, tally, run_id: str) -> dict:
    """Per-layer metrics.  In-process pipelines run untraced and traced in
    turn (U T U T U ...); each traced pass is compared with the mean of
    the untraced passes on either side, which cancels a steady drift in
    machine speed."""
    import driftvote.cli as cli

    startup = median([checked(tally, co.call(startup_argv(w.n), "startup"), "startup").wall_s
                      for _ in range(3)])
    commands = len(cli_commands(w, seed, co.work))
    engine_steps = w.steps + min(w.online_steps, w.steps)
    outputs_of = ("reports.jsonl", "summary.json")
    first: dict = {}

    def verify(outputs) -> None:
        """Full check of the first pass; later passes must repeat it."""
        digests = [sha256(co.work / name) for name in outputs_of]
        if not first:
            first["reports"] = check_inprocess(driftvote, co, w, seed, tally, outputs)
            first["digests"], first["outputs"] = digests, outputs
            return
        tally.add(digests == first["digests"], "in-process outputs differ between passes")
        tally.add(outputs == first["outputs"], "online outputs differ between passes")

    def untraced() -> float:
        wall, outputs, _ = inprocess(driftvote, cli, co, w, seed, tally, None)
        verify(outputs)
        return wall

    samples: list[dict] = []
    t_start = time.perf_counter()
    before = untraced()
    while True:
        t_round = time.perf_counter()
        tracer, counters = Tracer(run_id), Counters()
        with patched(tracer, trace_targets(driftvote, counters)):
            wall, outputs, bank = inprocess(driftvote, cli, co, w, seed, tally, tracer)
        verify(outputs)
        after = untraced()
        plain = (before + after) / 2.0
        before = after

        own = tracer.self_times_ns()
        out = {}
        for metric, names in spec.LAYER_TIMES.items():
            per = engine_steps if metric in spec.PER_STEP_LAYERS else w.steps
            out[metric] = sum(own.get(n, 0) for n in names) / 1000.0 / per
        out["cli.glue_s"] = commands * startup + own.get("cli.main", 0) / 1e9
        out.update(bank_bytes(bank))
        walks = max(counters.walks, 1)
        out["adaptive.probes_per_step"] = counters.probes / walks
        for reason in ("threshold", "schedule", "horizon"):
            hits = sum(c for r, c in counters.stops.items() if r.startswith(reason))
            out[f"adaptive.stop_{reason}_share"] = hits / walks
        latency = [0]
        if w.edges and w.strategy == "adaptive":
            latency = oracle.detect_latency([line["window"] for line in first["reports"]], w.edges)
        out["adaptive.detect_latency_steps"] = float(np.mean(latency))
        out["adaptive.detect_latency_max_steps"] = float(max(latency))
        out["triplet.clip_share"] = counters.clipped / max(counters.raw_entries, 1)
        out["triplet.zero_witness_steps"] = float(counters.zero_witness)
        out["trace.spans"] = float(len(tracer.start))
        out["trace.overhead_s"] = wall - plain
        out["trace.overhead_share"] = (wall - plain) / plain
        samples.append(out)
        now = time.perf_counter()
        if now + (now - t_round) > t_start + seconds:
            break
    tracer.write(ROOT / ".bench_work" / "spans" / f"{w.name}.csv")
    print(f"# {len(samples)} traced passes between untraced ones; "
          f"spans in .bench_work/spans/{w.name}.csv")
    return {name: median([s[name] for s in samples]) for name, _, _ in spec.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "driftvote" / "__init__.py").is_file():
        print(f"error: no driftvote source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import driftvote

    # a SIGTERM unwinds like an error, so the launcher is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = spec.WORKLOADS[args.workload]
    run_id = f"{w.name}-{args.seed}-{os.getpid()}"
    work = ROOT / ".bench_work" / run_id
    work.mkdir(parents=True, exist_ok=True)
    tally = oracle.Tally()
    try:
        with Checkout(ROOT, work) as co:
            if args.trace:
                values = traced(driftvote, co, w, args.seed, args.seconds, tally, run_id)
                units = {name: unit for name, unit, _ in spec.PER_LAYER}
            else:
                values = measure(driftvote, co, w, args.seed, args.seconds, tally)
                units = dict(spec.END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in tally.notes:
        print(f"# FAIL {note}")
    print(f"# workload {w.name}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:>16.6f} {unit}")
    print(f"{'failed_share':36s} {tally.failed / max(tally.attempted, 1):>16.6f} fraction")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
