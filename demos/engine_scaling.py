"""How the offline engine and the online per-step path scale with n and T.

For each labeler count n this draws one stationary stream of ``--steps``
steps (labeler accuracies spread over 0.6..0.9) and prints:

* ``engine``: ``run_strategy(votes, "adaptive")`` over the whole stream,
  in microseconds per step, the best of 3 calls, so that one slow call
  (a busy host, a cold cache) cannot move it;
* ``online``: the per-step public calls a streaming caller makes
  (``CorrelationBank.push``, ``select_window``, ``recover_accuracies``,
  ``log_odds_weights``, ``weighted_vote``) over the last
  ``--online-steps`` steps, each step timed on its own: the median in
  microseconds per step, which one slow step cannot move, and the 99th
  percentile, which shows the slow steps.  The bank is
  bulk-loaded with every step before them, so each walk sees the whole
  history, as it would at the end of a long online run;
* ``majority``: ``majority_vote`` alone on the same steps, the whole
  online cost of the ``majority`` strategy, median and 99th percentile
  in microseconds per step;
* per online call: the median microseconds of each of ``push``,
  ``select_window``, ``correlation``, ``recover_accuracies``,
  ``log_odds_weights`` and ``weighted_vote``, from a second pass over the
  same steps on a bank loaded afresh, with a clock read between the
  calls, so that the per-step column above carries no extra clock reads;
* the peak RSS of each, from ``resource.getrusage`` in a child process of
  its own, so that one measurement does not inherit another's peak; the
  engine's is read after its first call.

Both use the default 20-rung doubling ladder.  Run from the repository
root::

    python demos/engine_scaling.py                  # 2000 steps, a few seconds
    python demos/engine_scaling.py --steps 100000
    python demos/engine_scaling.py --steps 1000000 --n 3,8
"""

import argparse
import json
import subprocess
import sys

SEED = 5
#: engine calls timed per case; the fastest one is reported
ENGINE_REPEATS = 3
#: the online calls of one step, in the order a step makes them
CALLS = ("push", "select_window", "correlation", "recover_accuracies", "log_odds_weights",
         "weighted_vote")


def stream(n: int, steps: int):
    """(steps, n) int8 votes of labelers with accuracies 0.6..0.9."""
    import numpy as np

    rng = np.random.default_rng([SEED, n])
    acc = np.linspace(0.6, 0.9, n)
    votes = np.empty((steps, n), dtype=np.int8)
    for start in range(0, steps, 65536):  # bounded float temporaries
        rows = min(65536, steps - start)
        truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=rows)
        right = rng.random((rows, n)) < acc
        votes[start:start + rows] = np.where(right, truth[:, None], -truth[:, None])
    return votes


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_p99_us(lat: list) -> tuple:
    """Median and 99th-percentile step, in us, of per-step times in ns."""
    import statistics

    p99 = statistics.quantiles(lat, n=100)[98] if len(lat) > 1 else lat[0]
    return statistics.median(lat) / 1e3, p99 / 1e3


def measure(case: str, n: int, steps: int, online_steps: int) -> dict:
    """Time one case in this process; returns us/step (and, online, the
    99th-percentile step in us and the majority path's two) and peak RSS
    in MB."""
    import time

    from driftvote import (
        AdaptiveConfig,
        CorrelationBank,
        log_odds_weights,
        majority_vote,
        recover_accuracies,
        run_strategy,
        select_window,
        weighted_vote,
    )

    votes = stream(n, steps)
    config = AdaptiveConfig(n=n)
    if case == "engine":
        times = []
        for _ in range(ENGINE_REPEATS):
            t0 = time.perf_counter()
            run_strategy(votes, "adaptive", config)
            times.append(time.perf_counter() - t0)
            if len(times) == 1:  # later calls add allocator slack, not engine memory
                rss_mb = peak_rss_mb()
        us_per_step, timed = min(times) / steps * 1e6, steps
        return {"us_per_step": us_per_step, "peak_rss_mb": rss_mb, "timed_steps": timed}
    timed = min(online_steps, steps)
    bank = CorrelationBank.from_history(n, votes[:steps - timed], config.schedule.sizes)
    lo, hi = config.clip_lo, config.clip_hi
    clock, lat, majority = time.perf_counter_ns, [], []
    rows = votes[steps - timed:]
    for row in rows:
        t0 = clock()
        bank.push(row)
        window = select_window(bank, config).window
        est = recover_accuracies(bank.correlation(window), lo, hi, window=window)
        weighted_vote(row, log_odds_weights(est.accuracies))
        lat.append(clock() - t0)
    for row in rows:
        t0 = clock()
        majority_vote(row)
        majority.append(clock() - t0)
    us_per_step, p99_us = median_p99_us(lat)
    majority_us, majority_p99_us = median_p99_us(majority)
    rss_mb = peak_rss_mb()  # before the second bank, as the columns above have always read it
    bank = CorrelationBank.from_history(n, votes[:steps - timed], config.schedule.sizes)
    calls = {name: [] for name in CALLS}
    for row in rows:
        t0 = clock()
        bank.push(row)
        t1 = clock()
        window = select_window(bank, config).window
        t2 = clock()
        corr = bank.correlation(window)
        t3 = clock()
        est = recover_accuracies(corr, lo, hi, window=window)
        t4 = clock()
        weights = log_odds_weights(est.accuracies)
        t5 = clock()
        weighted_vote(row, weights)
        t6 = clock()
        for name, start, end in zip(CALLS, (t0, t1, t2, t3, t4, t5), (t1, t2, t3, t4, t5, t6)):
            calls[name].append(end - start)
    call_us = {name: median_p99_us(ns)[0] for name, ns in calls.items()}
    return {"us_per_step": us_per_step, "p99_us": p99_us, "majority_us": majority_us,
            "majority_p99_us": majority_p99_us, "call_us": call_us, "peak_rss_mb": rss_mb,
            "timed_steps": timed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000, help="stream length T (default 2000)")
    parser.add_argument("--online-steps", type=int, default=2000,
                        help="steps timed on the online path, at the end of the stream (default 2000)")
    parser.add_argument("--n", default="3,8,32", help="labeler counts, comma-separated")
    parser.add_argument("--case", choices=("engine", "online"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.steps < 1 or args.online_steps < 1:
        parser.error("--steps and --online-steps must be positive")
    counts = [int(x) for x in args.n.split(",")]

    if args.case:  # child process: one measurement, one JSON line
        print(json.dumps(measure(args.case, counts[0], args.steps, args.online_steps)))
        return 0

    print(f"T = {args.steps} steps, default ladder (20 rungs); online: median and 99th-percentile "
          f"step of the last {min(args.online_steps, args.steps)} steps")
    print(f"{'n':>4}  {'engine us/step':>14}  {'online us/step':>14}  {'online p99 us':>13}  "
          f"{'speed-up':>8}  {'majority us/step':>16}  {'majority p99 us':>15}  "
          f"{'engine RSS MB':>13}  {'online RSS MB':>13}")
    call_us = {}
    for n in counts:
        result = {}
        for case in ("engine", "online"):
            out = subprocess.run(
                [sys.executable, __file__, "--case", case, "--n", str(n),
                 "--steps", str(args.steps), "--online-steps", str(args.online_steps)],
                capture_output=True, text=True, check=True,
            )
            result[case] = json.loads(out.stdout)
        engine, online = result["engine"], result["online"]
        print(f"{n:>4}  {engine['us_per_step']:>14.1f}  {online['us_per_step']:>14.1f}  "
              f"{online['p99_us']:>13.1f}  {online['us_per_step'] / engine['us_per_step']:>7.1f}x  "
              f"{online['majority_us']:>16.2f}  {online['majority_p99_us']:>15.2f}  "
              f"{engine['peak_rss_mb']:>13.1f}  {online['peak_rss_mb']:>13.1f}")
        call_us[n] = online["call_us"]
    print("online calls, median us per call (a second pass over the same steps):")
    print(f"{'n':>4}  " + "  ".join(f"{name:>{len(name)}}" for name in CALLS))
    for n, us in call_us.items():
        print(f"{n:>4}  " + "  ".join(f"{us[name]:>{len(name)}.2f}" for name in CALLS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
