"""Acceptance gate: one test per release criterion.

Each test prints exactly one ``criterion N (...): PASS/FAIL`` line (run
pytest with ``-s`` to see them all) and then asserts.  Criteria 3 and 5
share one batch of ten benchmark runs through a session fixture.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from driftvote import (
    AdaptiveConfig,
    CorrelationBank,
    WindowSchedule,
    apply_permute_drift,
    block_drift_preset,
    correlation_from_accuracies,
    generate_synthetic,
    recover_accuracies,
    resolve_abstentions,
    role_rngs,
    run_strategy,
    selection_overhead,
    statistical_error,
    union_bound_constant,
    drift_threshold,
)
from driftvote.driftgen import BlockSpec, SyntheticStreamConfig

mp.mp.dps = 40

BENCH_SEEDS = tuple(range(10))


def report(num, slug, ok, detail):
    print(f"criterion {num} ({slug}): {'PASS' if ok else 'FAIL'} - {detail}")


def stationary_stream(p, steps, seed):
    cfg = SyntheticStreamConfig(
        blocks=(BlockSpec(steps, tuple(p)),), seed=seed, n=len(p)
    )
    return generate_synthetic(cfg)


# --------------------------------------------------------------------------
# criterion 1: exact accuracy recovery from exact correlation matrices


def test_criterion_1_triplet_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = 3 + trial % 6  # cycles through 3..8
        p = rng.uniform(0.55, 0.95, size=n)
        est = recover_accuracies(correlation_from_accuracies(p))
        worst = max(worst, float(np.max(np.abs(est.raw - p))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, "triplet round-trip", ok,
           f"max |p_hat - p| = {worst:.3e} over 200 draws, n in 3..8 ({elapsed:.2f} s)")
    assert worst <= 1e-9
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# criterion 2: incremental window sums match naive recomputation exactly


def test_criterion_2_incremental_oracle():
    sizes = WindowSchedule.doubling(14).sizes  # 2^0 .. 2^13
    rng = np.random.default_rng(202)
    steps = 10_000
    votes = (2 * rng.integers(0, 2, size=(steps, 3)) - 1).astype(np.int8)
    bank = CorrelationBank(3, sizes)
    start = time.perf_counter()
    checked = 0
    exact = True
    for t in range(steps):
        bank.push(votes[t])
        if (t + 1) % 97 != 0:
            continue
        hist = votes[: t + 1].astype(np.int64)
        for r in sizes:
            tail = hist[max(0, t + 1 - r):]
            naive = tail.T @ tail
            if not np.array_equal(bank.pair_sums(r), naive):
                exact = False
            want = naive / min(t + 1, r)
            if not np.array_equal(bank.correlation(r), want):
                exact = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = exact and elapsed < 10.0
    report(2, "incremental-update oracle", ok,
           f"{checked} window/step spot checks bit-exact ({elapsed:.2f} s)")
    assert exact
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criteria 3 + 5 share ten benchmark runs (rotating-weakness preset,
# 20000 steps each) under the default configuration


@pytest.fixture(scope="session")
def bench_runs():
    runs = []
    for seed in BENCH_SEEDS:
        layout = block_drift_preset(seed)
        stream = generate_synthetic(layout)
        votes = np.asarray(stream.votes)
        truth = np.asarray(stream.truth)
        config = AdaptiveConfig(n=3)  # doubling(20), beta = delta = 0.1
        reports = run_strategy(votes, "adaptive", config, truths=truth)
        sweep = {
            r: run_strategy(votes, f"fixed:{r}", config).prediction for r in config.schedule.sizes
        }
        runs.append({
            "layout": layout,
            "windows": reports.window,
            "p_hat": reports.p_hat,
            "adaptive_correct": reports.correct,
            "fixed_acc": {r: float(np.mean(pred == truth)) for r, pred in sweep.items()},
        })
    return runs


def test_criterion_3_drift_benchmark(bench_runs):
    layout = bench_runs[0]["layout"]
    lengths = [b.length for b in layout.blocks]
    starts = np.cumsum([0] + lengths[:-1])

    # (a) second-half-of-block accuracy estimates, pooled over seeds
    worst_a = 0.0
    for b, block in enumerate(layout.blocks):
        lo = starts[b] + lengths[b] // 2
        hi = starts[b] + lengths[b]
        pooled = np.mean([run["p_hat"][lo:hi] for run in bench_runs], axis=(0, 1))
        worst_a = max(worst_a, float(np.max(np.abs(pooled - np.asarray(block.accuracies)))))
    ok_a = worst_a <= 0.05

    # (b) median chosen window across boundaries, pooled over seeds
    ratios = []
    for edge in starts[1:]:
        pre = np.concatenate([run["windows"][edge - 200:edge] for run in bench_runs])
        post = np.concatenate([run["windows"][edge:edge + 200] for run in bench_runs])
        ratios.append(float(np.median(post)) / float(np.median(pre)))
    ok_b = all(ratio <= 0.25 for ratio in ratios)

    ok = ok_a and ok_b
    report(3, "drift benchmark", ok,
           f"(a) estimate error {worst_a:.4f} <= 0.05: {'PASS' if ok_a else 'FAIL'}; "
           f"(b) post/pre median window ratios {[f'{x:.2f}' for x in ratios]} "
           f"all <= 0.25: {'PASS' if ok_b else 'FAIL'}")
    assert ok_a
    assert ok_b


# --------------------------------------------------------------------------
# criterion 4: majority vote and the one-step window agree exactly


def test_criterion_4_majority_equals_fixed_one():
    mismatches = 0
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        n = (3, 4, 5, 3, 4)[seed]
        raw = rng.choice([-1, 0, 1], size=(500, n), p=[0.4, 0.2, 0.4]).astype(np.int8)
        votes = resolve_abstentions(raw, seed)  # shared seed for both strategies
        maj = run_strategy(votes, "majority")
        fx1 = run_strategy(votes, "fixed:1")
        mismatches += int(np.sum(maj.prediction != fx1.prediction))
    ok = mismatches == 0
    report(4, "majority = fixed:1", ok,
           f"{mismatches} prediction mismatches over 5 streams x 500 steps")
    assert ok


def test_criterion_5_adaptive_competitiveness(bench_runs):
    adaptive = float(np.mean([run["adaptive_correct"].mean() for run in bench_runs]))
    sizes = bench_runs[0]["fixed_acc"].keys()
    fixed_means = {
        r: float(np.mean([run["fixed_acc"][r] for run in bench_runs])) for r in sizes
    }
    best_r, best = max(fixed_means.items(), key=lambda kv: kv[1])
    ok = adaptive >= best - 0.02
    report(5, "adaptive competitiveness", ok,
           f"adaptive {adaptive:.4f} vs best fixed {best:.4f} (window {best_r}); "
           f"slack 0.02")
    assert ok


# --------------------------------------------------------------------------
# criterion 6: identity-shuffle drift pushes the chosen window down


def test_criterion_6_permute_sensitivity():
    wins = 0
    medians = []
    for seed in range(100, 110):
        stream = stationary_stream((0.9, 0.9, 0.6), 20_000, seed)
        shuffled = apply_permute_drift(stream, 1e-3, role_rngs(seed)["permute"])
        config = AdaptiveConfig(n=3)
        plain_w = run_strategy(np.asarray(stream.votes), "adaptive", config).window
        drift_w = run_strategy(np.asarray(shuffled.votes), "adaptive", config).window
        m_plain, m_drift = float(np.median(plain_w)), float(np.median(drift_w))
        medians.append((m_plain, m_drift))
        wins += m_drift < m_plain
    ok = wins >= 8
    report(6, "permute sensitivity", ok,
           f"median window strictly smaller under shuffle in {wins}/10 matched pairs "
           f"(e.g. {medians[0][0]:.0f} -> {medians[0][1]:.0f})")
    assert ok


# --------------------------------------------------------------------------
# criterion 7: stationary concentration of windowed correlations


def test_criterion_7_concentration():
    p = np.array([0.9, 0.9, 0.6])
    c_true = correlation_from_accuracies(p)
    const = union_bound_constant(3, 20, 0.1)
    sizes = (64, 256, 1024)
    trials = 200
    hits = {r: 0 for r in sizes}
    for child in np.random.SeedSequence(777).spawn(trials):
        rng = np.random.default_rng(child)
        truth = 2 * rng.integers(0, 2, size=1024) - 1
        votes = np.where(
            rng.random((1024, 3)) < p, truth[:, None], -truth[:, None]
        ).astype(np.int8)
        bank = CorrelationBank.from_history(3, votes, sizes)
        for r in sizes:
            err = float(np.max(np.abs(bank.correlation(r) - c_true)))
            hits[r] += err <= statistical_error(r, const)
    coverage = {r: hits[r] / trials for r in sizes}
    ok = all(v >= 0.9 for v in coverage.values())
    report(7, "concentration bound", ok,
           "coverage " + ", ".join(f"r={r}: {v:.3f}" for r, v in coverage.items())
           + " (need >= 0.9 each)")
    assert ok


# --------------------------------------------------------------------------
# criterion 8: closed-form constants against 40-digit evaluation


def test_criterion_8_constant_spot_checks():
    # union-bound constant for n=3, m=20, delta=0.1
    a_hp = mp.sqrt(2 * mp.log(mp.mpf(2 * 20 - 1) * 3 * 2 / mp.mpf("0.1")))
    a = union_bound_constant(3, 20, 0.1)
    err_a = abs(a - float(a_hp))

    # overhead of the doubling ladder at beta = sqrt(2) - 1
    beta = mp.sqrt(2) - 1
    g = 1 / mp.sqrt(2)  # sqrt(r_k / r_{k+1}) for doubling
    phi_hp = 1 + max(
        (2 * beta + 2) / (g * (1 - g)),
        (2 * beta + 2) / (beta * (1 - g)),
    )
    phi = selection_overhead(WindowSchedule.doubling(20), math.sqrt(2) - 1)
    err_phi = abs(phi - float(phi_hp))

    # walk threshold for the (4, 8) rung at beta = 0.1
    thr_hp = a_hp * (2 * mp.mpf("0.1") / mp.sqrt(4) + mp.sqrt((1 - mp.mpf(4) / 8) / 4))
    thr = drift_threshold(4, 8, 0.1, a)
    err_thr = abs(thr - float(thr_hp))

    worst = max(err_a, err_phi, err_thr)
    ok = worst <= 1e-9
    report(8, "constant spot checks", ok,
           f"union-bound const {a:.10f}, overhead {phi:.10f}, threshold {thr:.10f}; "
           f"max deviation {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 9: bounded memory on long streams


def test_criterion_9_memory_bound():
    schedule = WindowSchedule.doubling(6)  # r_m = 32
    r_m = schedule.max_size
    bank = CorrelationBank(3, schedule.sizes)
    rng = np.random.default_rng(900)
    peak = 0
    for _ in range(10 * r_m):
        bank.push((2 * rng.integers(0, 2, size=3) - 1).astype(np.int8))
        peak = max(peak, bank.retained)
    ring_rows = bank._ring.shape[0]
    ok = peak <= r_m and ring_rows == r_m
    report(9, "memory bound", ok,
           f"vote ring holds {ring_rows} rows (= largest window), "
           f"peak retained {peak} over a {10 * r_m}-step stream")
    assert peak <= r_m
    assert ring_rows == r_m
