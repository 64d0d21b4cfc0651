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

from .core import _record

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
def _witness_table(n: int) -> tuple[np.ndarray, ...]:
    """``(flat, cap, witness, offset)`` of n labelers, P = n(n-1)/2: the
    pairs in triu order, as flat indices into an (n, n) matrix; (n, P),
    -inf where pair q touches labeler h, else +inf; (3, n P), whose column
    ``offset[h] + q`` for q = (i, j) holds the pair indices of (i, j),
    (i, h) and (h, j)."""
    iu, ju = np.triu_indices(n, 1)
    size = len(iu)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(size)
    h = np.arange(n)[:, None]
    cap = np.where((iu == h) | (ju == h), -np.inf, np.inf)
    witness = np.stack([np.broadcast_to(np.arange(size), (n, size)), pair[iu, h], pair[h, ju]])
    table = (iu * n + ju, cap, witness.reshape(3, n * size), np.arange(n) * size)
    for a in table:
        a.setflags(write=False)
    return table


_FLOAT64 = np.dtype(float)


def _float_array(values, what: str) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, errors and messages included,
    except that complex values raise: their float cast would warn, drop
    the imaginary part and go on."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got complex values")
    # the float64 arrays of a step pass an identity test, cheaper than a second asarray
    return a if a.dtype is _FLOAT64 else np.asarray(values, dtype=float)


def correlation_from_accuracies(p) -> np.ndarray:
    """Exact correlation matrix implied by accuracies ``p`` (unit diagonal)."""
    acc = _float_array(p, "accuracies")
    if acc.ndim != 1 or acc.size < 2:
        raise ValueError(f"need a vector of at least 2 accuracies, got shape {acc.shape}")
    if np.any(acc < 0.0) or np.any(acc > 1.0):
        raise ValueError("accuracies must lie in [0, 1]")
    bias = 2.0 * acc - 1.0
    corr = np.outer(bias, bias)
    np.fill_diagonal(corr, 1.0)
    return corr


def _recover_raw(mag: np.ndarray, table: tuple[np.ndarray, ...]) -> np.ndarray:
    """(B, n) raw accuracies from (B, P) upper-triangle correlation
    magnitudes |C| of n labelers, whose :func:`_witness_table` is ``table``.
    The map needs only |C| (the gather below), so a caller takes it once."""
    _, cap, witness, offset = table
    batch, size = mag.shape
    # all h at once: fmin puts the pairs touching h at -inf, a NaN too, and
    # a candidate's NaN at +inf, where argmax on |C| would pick it; C order
    # so that argmax runs along memory and takes the first max in triu order
    pick = np.fmin(mag[:, None], cap, order="C").argmax(axis=2) + offset
    # the flat indices in ``mag`` of each pick's (i, j), (i, h) and (h, j);
    # the first row's are its pair indices, a later row's are offset by its start
    at = witness.take(pick, axis=1)
    if batch > 1:
        at += np.arange(0, batch * size, size)[:, None]
    # gathered as |C|: |C_ih| |C_hj| / |C_ij| is |C_ih C_hj / C_ij| bit for bit
    c = mag.take(at)  # rows |C_ij|, |C_ih|, |C_hj|
    degenerate = c[0] <= ZERO_TOL
    c[0][degenerate] = 1.0  # a fresh gather: the input is left as it was
    raw = 0.5 * (1.0 + np.sqrt(c[1] * c[2] / c[0]))
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
        Symmetric with unit diagonal and entries in [-1, 1], n >= 3 (each
        labeler needs a witness pair disjoint from itself).
    clip_lo, clip_hi : float
        Clipping band applied to the raw estimates.
    window : int
        Sample count behind ``corr``: a nonnegative Python or numpy
        integer, not a bool; carried through for reporting.
    """
    c = _float_array(corr, "correlation matrix")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"correlation matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    if n < 3:
        raise ValueError(f"recovery needs at least 3 labelers, got {n}")
    # the bound fails on NaN and +/-inf too, before inf - inf can warn
    # c - c.T is antisymmetric to the bit, so its max is its largest |entry|
    mag = np.abs(c)  # also the recovery's input
    if (not np.maximum.reduce(mag, axis=None) <= 1.0 + _SYM_TOL
            or not np.maximum.reduce(c - c.T, axis=None) <= _SYM_TOL):
        raise ValueError("correlation matrix must be symmetric with entries in [-1, 1]")
    if not all(abs(x - 1.0) <= _SYM_TOL for x in c.diagonal().tolist()):
        raise ValueError("correlation matrix must have unit diagonal")
    if not 0.0 < clip_lo < 0.5 < clip_hi < 1.0:
        raise ValueError(f"clip band must satisfy 0 < lo < 0.5 < hi < 1, got [{clip_lo}, {clip_hi}]")
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 0:
        raise ValueError(f"window must be a nonnegative integer, got {window!r}")
    table = _witness_table(n)
    raw = _recover_raw(mag.take(table[0])[None], table)[0]
    return _record(
        AccuracyEstimate,
        {"raw": raw, "accuracies": raw.clip(clip_lo, clip_hi), "window": int(window)},
    )
