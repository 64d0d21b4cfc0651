"""Synthetic drifting vote streams and drift bookkeeping.

Streams are piecewise-stationary: a sequence of blocks, each with its own
per-labeler accuracy vector.  Within a block, the truth is uniform +/-1
and each labeler independently reports the truth with its accuracy and the
flipped truth otherwise.  On top of that, :func:`apply_permute_drift` can
shuffle labeler identities at random steps, a drift mode that leaves every
marginal accuracy multiset intact while still invalidating stale windows.

All randomness flows from explicit integer seeds.  A master seed is split
into independent per-role child streams (truth, votes, abstentions,
permutations), so enabling one source of randomness never shifts another —
matched-pair experiments stay matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Stream

_ROLES = ("truth", "votes", "abstain", "permute")


def role_rngs(seed: int) -> dict[str, np.random.Generator]:
    """Independent generators for each randomness role under one seed."""
    children = np.random.SeedSequence(seed).spawn(len(_ROLES))
    return {role: np.random.default_rng(child) for role, child in zip(_ROLES, children)}


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class BlockSpec:
    """One stationary stretch: ``length`` steps at fixed ``accuracies``."""

    length: int
    accuracies: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"block length must be positive, got {self.length}")
        if len(self.accuracies) < 1:
            raise ValueError("block needs at least one labeler accuracy")
        for p in self.accuracies:
            if not 0.0 < p < 1.0:
                raise ValueError(f"accuracies must lie in (0, 1), got {p}")


@dataclass(frozen=True)
class SyntheticStreamConfig:
    """Block layout plus the master seed for one synthetic stream."""

    blocks: tuple[BlockSpec, ...]
    seed: int
    n: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        for b, block in enumerate(self.blocks):
            if len(block.accuracies) != self.n:
                raise ValueError(
                    f"block {b} has {len(block.accuracies)} accuracies, expected n={self.n}"
                )

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)

    def accuracy_path(self) -> np.ndarray:
        """(T, n) per-step true accuracies."""
        rows = np.array([b.accuracies for b in self.blocks], dtype=float)
        lengths = [b.length for b in self.blocks]
        return np.repeat(rows, lengths, axis=0)


def generate_synthetic(config: SyntheticStreamConfig) -> Stream:
    """Draw a stream from a block layout.

    Uses the ``truth`` and ``votes`` role streams of ``config.seed``; the
    ``abstain``/``permute`` roles stay untouched so downstream transforms
    of the same seed compose reproducibly.
    """
    rngs = role_rngs(config.seed)
    acc = config.accuracy_path()
    steps = acc.shape[0]
    truth = (2 * rngs["truth"].integers(0, 2, size=steps) - 1).astype(np.int8)
    correct = rngs["votes"].random(size=acc.shape) < acc
    votes = np.where(correct, truth[:, None], -truth[:, None]).astype(np.int8)
    block = np.repeat(np.arange(len(config.blocks)), [b.length for b in config.blocks])
    return Stream(votes=votes, truth=truth, block=block.astype(np.int32))


def resolve_abstentions(votes, seed_or_rng) -> np.ndarray:
    """Replace abstentions (0 entries) with fair +/-1 coin flips.

    Deterministic in (matrix, seed): zeros are filled in row-major order
    from a single pass of the generator, so the same inputs always resolve
    identically.  Accepts a (n,) vector or (T, n) matrix.
    """
    v = np.asarray(votes)
    if not np.all(np.isin(v, (-1, 0, 1))):
        raise ValueError("votes must be -1, 0 (abstain), or +1")
    out = v.astype(np.int8)  # astype copies: the input is left as it was
    gaps = out == 0
    count = int(gaps.sum())
    if count:  # numpy.random is imported only for a stream that needs it
        rng = _as_rng(seed_or_rng)
        out[gaps] = (2 * rng.integers(0, 2, size=count) - 1).astype(np.int8)
    return out


def apply_permute_drift(stream: Stream, prob: float, seed_or_rng) -> Stream:
    """Shuffle labeler identities at random steps, persistently.

    At each step, with probability ``prob``, the current identity
    assignment is re-randomized and stays in force until the next shuffle.
    Truth and block annotations are untouched.  Returns a new stream.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"shuffle probability must lie in [0, 1], got {prob}")
    rng = _as_rng(seed_or_rng)
    steps, n = stream.votes.shape
    events = np.flatnonzero(rng.random(steps) < prob)
    votes = stream.votes.copy()
    perm = np.arange(n)
    bounds = list(events) + [steps]
    for start, end in zip(bounds, bounds[1:]):
        perm = perm[rng.permutation(n)]
        votes[start:end] = stream.votes[start:end][:, perm]
    return Stream(votes=votes, truth=stream.truth, block=stream.block)


def true_drift_error(config: SyntheticStreamConfig, r: int, t: int) -> float:
    """Ground-truth drift inside the window of size ``r`` ending at ``t``:
    the sum of sup-norm accuracy jumps between consecutive steps
    ``t - r + 1 .. t`` (1-based).  Zero iff the window sits in one block."""
    if r < 1:
        raise ValueError(f"window size must be positive, got {r}")
    if not 1 <= t <= config.length:
        raise ValueError(f"step t={t} outside stream of length {config.length}")
    total = 0.0
    edge = 0
    for prev_block, next_block in zip(config.blocks, config.blocks[1:]):
        edge += prev_block.length  # accuracies change between steps edge and edge + 1
        if max(1, t - r + 1) <= edge <= t - 1:
            jump = np.abs(
                np.asarray(next_block.accuracies) - np.asarray(prev_block.accuracies)
            )
            total += float(jump.max())
    return total


def block_drift_preset(seed: int, block_len: int = 5000) -> SyntheticStreamConfig:
    """Three-labeler rotating-weakness benchmark stream.

    Blocks of length ``block_len``, ``2 * block_len``, ``block_len``; two
    labelers at accuracy 0.9 and one at 0.6, with the weak seat rotating
    one position per block (starting at the last labeler).
    """
    if block_len < 1:
        raise ValueError(f"block length must be positive, got {block_len}")
    n = 3
    lengths = (block_len, 2 * block_len, block_len)
    blocks = []
    for b, length in enumerate(lengths):
        acc = [0.9] * n
        acc[(n - 1 + b) % n] = 0.6
        blocks.append(BlockSpec(length=length, accuracies=tuple(acc)))
    return SyntheticStreamConfig(blocks=tuple(blocks), seed=seed, n=n)
