"""Walk through the rotating-weakness benchmark.

A three-labeler stream runs through blocks where two labelers are strong
(0.9) and one is weak (0.6), with the weak seat rotating at each block
boundary.  The adaptive strategy is supposed to ride long windows inside a
block and fall back to short ones right after a boundary, while the
recovered accuracies swing toward the new block profile.

Run:  python3 demos/drift_benchmark.py [seed]
"""

import sys

import numpy as np

from driftvote import (
    AdaptiveConfig,
    block_drift_preset,
    generate_synthetic,
    prediction_accuracy,
    rolling_accuracy,
    run_strategy,
    summarize,
)

BLOCK_LEN = 800  # scaled down from the 5000-step benchmark so this runs in seconds


def main(seed: int) -> None:
    layout = block_drift_preset(seed, block_len=BLOCK_LEN)
    stream = generate_synthetic(layout)
    votes, truth = np.asarray(stream.votes), np.asarray(stream.truth)
    config = AdaptiveConfig(n=3)

    print(f"stream: {len(stream)} steps, blocks " +
          " | ".join(f"{b.length}@{b.accuracies}" for b in layout.blocks))

    adaptive = run_strategy(votes, "adaptive", config, truths=truth)
    majority = run_strategy(votes, "majority", truths=truth)
    print(f"adaptive accuracy: {prediction_accuracy(adaptive):.4f}")
    print(f"majority accuracy: {prediction_accuracy(majority):.4f}")

    # window usage per block
    windows = adaptive.window
    edges = np.cumsum([0] + [b.length for b in layout.blocks])
    for b in range(len(layout.blocks)):
        seg = windows[edges[b]:edges[b + 1]]
        print(f"block {b}: median window {int(np.median(seg))}, "
              f"max {seg.max()}, weak labeler is #{list(layout.blocks[b].accuracies).index(0.6) + 1}")

    # estimated accuracies at the end of each block (should match the profile)
    p_hat = adaptive.p_hat
    for b in range(len(layout.blocks)):
        tail = p_hat[edges[b + 1] - 100:edges[b + 1]].mean(axis=0)
        print(f"block {b} final estimates: " +
              ", ".join(f"{x:.3f}" for x in tail) +
              f"   (true {layout.blocks[b].accuracies})")

    # rolling accuracy right around the first boundary
    rolling = rolling_accuracy(adaptive, lookahead=64)
    for t in (edges[1] - 100, edges[1], edges[1] + 100, edges[1] + 400):
        print(f"rolling accuracy @ step {t + 1}: {rolling[t]:.3f}")

    hist = summarize(adaptive).histogram
    top = sorted(hist.items(), key=lambda kv: -kv[1])[:4]
    print("most used windows: " + ", ".join(f"{r} ({c} steps)" for r, c in top))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
