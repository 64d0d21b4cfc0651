"""Matched-pair experiment: identity shuffles vs. a stationary twin.

Both streams share every random draw except the shuffle events, so any
difference in behavior is attributable to the drift alone.  Identity
shuffles keep each labeler's marginal accuracy multiset intact -- majority
vote literally cannot notice them -- but they scramble *which* labeler is
which, so stale windows poison the accuracy estimates and the adaptive
rule should retreat to shorter windows.
"""

import numpy as np

from driftvote import (
    STOPS,
    AdaptiveConfig,
    BlockSpec,
    SyntheticStreamConfig,
    apply_permute_drift,
    generate_synthetic,
    role_rngs,
    run_strategy,
)

SEED = 5
STEPS = 12_000
SHUFFLE_PROB = 1e-3


def describe(tag, reports):
    windows = reports.window
    acc = float(np.mean(reports.correct))
    codes, counts = np.unique(reports.stop_reason, return_counts=True)
    stops = {STOPS[code]: count for code, count in zip(codes, counts)}
    print(f"{tag}: accuracy {acc:.4f}, median window {int(np.median(windows))}, "
          f"p90 window {int(np.percentile(windows, 90))}")
    print(f"{tag}: stop reasons " +
          ", ".join(f"{k}={v}" for k, v in sorted(stops.items())))


def main() -> None:
    layout = SyntheticStreamConfig(
        blocks=(BlockSpec(STEPS, (0.9, 0.9, 0.6)),), seed=SEED, n=3
    )
    plain = generate_synthetic(layout)
    shuffled = apply_permute_drift(plain, SHUFFLE_PROB, role_rngs(SEED)["permute"])

    config = AdaptiveConfig(n=3)
    truth = np.asarray(plain.truth)
    describe("stationary", run_strategy(np.asarray(plain.votes), "adaptive", config, truths=truth))
    describe("shuffled  ", run_strategy(np.asarray(shuffled.votes), "adaptive", config, truths=truth))
    print(f"(shuffle probability {SHUFFLE_PROB} per step, "
          f"~{int(STEPS * SHUFFLE_PROB)} events expected)")


if __name__ == "__main__":
    main()
