"""Labeler accuracy recovery from pairwise vote correlations.

When labeler errors are independent given the true label and the truth is
balanced, the pairwise vote correlations factor as

    corr_{ij} = (2 p_i - 1)(2 p_j - 1),

so for any triple (h, i, j) of distinct labelers the h-th factor can be
isolated without ever observing the truth:

    (2 p_h - 1)^2 = corr_{ih} * corr_{hj} / corr_{ij}.

Taking the root and mapping back gives ``p_h = (1 + sqrt(.)) / 2``, which
resolves the sign ambiguity by assuming labelers are better than chance.
For each h the implementation picks the witness pair (i, j) with the
largest ``|corr_{ij}|`` (ties broken toward the lexicographically first
unordered pair), since dividing by a near-zero correlation is the unstable
part of the map; an exactly-zero pick falls back to ``p_h = 1/2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: below this magnitude a witness correlation is treated as exactly zero
ZERO_TOL = 1e-15

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class AccuracyEstimate:
    """Recovered accuracies: ``raw`` pre-clip, ``accuracies`` clipped into
    the configured band, and the window length the correlations came from."""

    raw: np.ndarray
    accuracies: np.ndarray
    window: int


@lru_cache(maxsize=32)
def _witness_masks(n: int) -> np.ndarray:
    """(n, n, n) bool; entry [h, i, j] marks i < j with both distinct from h."""
    masks = np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), k=1), (n, n, n)).copy()
    idx = np.arange(n)
    masks[idx, idx, :] = False
    masks[idx, :, idx] = False
    masks.setflags(write=False)
    return masks


def correlation_from_accuracies(p) -> np.ndarray:
    """Exact correlation matrix implied by accuracies ``p`` (unit diagonal)."""
    acc = np.asarray(p, dtype=float)
    if acc.ndim != 1 or acc.size < 2:
        raise ValueError(f"need a vector of at least 2 accuracies, got shape {acc.shape}")
    if np.any(acc < 0.0) or np.any(acc > 1.0):
        raise ValueError("accuracies must lie in [0, 1]")
    bias = 2.0 * acc - 1.0
    corr = np.outer(bias, bias)
    np.fill_diagonal(corr, 1.0)
    return corr


def _recover_raw(mats: np.ndarray) -> np.ndarray:
    batch, n = mats.shape[0], mats.shape[1]
    # every h's candidates at once; argmax takes the first max in row-major order
    flat = np.where(_witness_masks(n), np.abs(mats)[:, None], -1.0).reshape(batch, n, n * n)
    pick = flat.argmax(axis=2)
    i, j = np.divmod(pick, n)
    rows, h = np.arange(batch)[:, None], np.arange(n)
    c_ij = mats[rows, i, j]
    c_ih = mats[rows, i, h]
    c_hj = mats[rows, h, j]
    degenerate = np.abs(c_ij) <= ZERO_TOL
    c_ij[degenerate] = 1.0  # a fresh gather: the input is left as it was
    raw = 0.5 * (1.0 + np.sqrt(np.abs(c_ih * c_hj / c_ij)))
    raw[degenerate] = 0.5
    return raw


def recover_accuracies(
    corr: np.ndarray,
    clip_lo: float = 0.1,
    clip_hi: float = 0.9,
    window: int = 0,
) -> AccuracyEstimate:
    """Recover one accuracy per labeler from a correlation matrix.

    Parameters
    ----------
    corr : (n, n) array
        Symmetric with unit diagonal, n >= 3 (each labeler needs a witness
        pair disjoint from itself).
    clip_lo, clip_hi : float
        Clipping band applied to the raw estimates.
    window : int
        Sample count behind ``corr``: a nonnegative Python or numpy
        integer, not a bool; carried through for reporting.
    """
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"correlation matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    if n < 3:
        raise ValueError(f"recovery needs at least 3 labelers, got {n}")
    # a NaN or infinite entry would fail the symmetry test too, but inf - inf warns
    if not np.isfinite(c).all() or not np.abs(c - c.T).max() <= _SYM_TOL:
        raise ValueError("correlation matrix must be symmetric")
    if not (np.abs(c.diagonal() - 1.0).max() <= _SYM_TOL):
        raise ValueError("correlation matrix must have unit diagonal")
    if not 0.0 < clip_lo < 0.5 < clip_hi < 1.0:
        raise ValueError(f"clip band must satisfy 0 < lo < 0.5 < hi < 1, got [{clip_lo}, {clip_hi}]")
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 0:
        raise ValueError(f"window must be a nonnegative integer, got {window!r}")
    raw = _recover_raw(c[None])[0]
    return AccuracyEstimate(raw=raw, accuracies=raw.clip(clip_lo, clip_hi), window=int(window))
