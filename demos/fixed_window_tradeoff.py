"""Fixed-window tradeoff on a drifting stream.

Short windows track drift but estimate noisily; long windows estimate well
until the history goes stale.  This sweeps every window size on the ladder
over one drifting stream and prints the accuracy of each, next to the
adaptive strategy that has to commit online.
"""

import numpy as np

from driftvote import (
    AdaptiveConfig,
    block_drift_preset,
    generate_synthetic,
    run_strategy,
)

SEED = 1
BLOCK_LEN = 1000


def main() -> None:
    layout = block_drift_preset(SEED, block_len=BLOCK_LEN)
    stream = generate_synthetic(layout)
    votes, truth = np.asarray(stream.votes), np.asarray(stream.truth)
    config = AdaptiveConfig(n=3)

    sweep = {
        r: run_strategy(votes, f"fixed:{r}", config).prediction for r in config.schedule.sizes
    }
    print(f"{'window':>8}  accuracy")
    best_r, best = None, -1.0
    for r, preds in sweep.items():
        acc = float(np.mean(preds == truth))
        if acc > best:
            best_r, best = r, acc
        print(f"{r:>8}  {acc:.4f}")
    print(f"best fixed window: {best_r} at {best:.4f}")

    adaptive = run_strategy(votes, "adaptive", config, truths=truth)
    acc = float(np.mean(adaptive.correct))
    print(f"adaptive (online): {acc:.4f}  (gap to best fixed {best - acc:+.4f})")


if __name__ == "__main__":
    main()
