"""Sliding-window vote-agreement statistics over a single ring buffer.

For windows ``r`` in a fixed ladder, the bank maintains the empirical
pairwise correlation of the last ``min(t, r)`` vote vectors,

    corr[r]_{ij} = mean over the window of  v_i * v_j ,

where votes are +/-1, so each pairwise product is +/-1 and the window sum
is an exact integer.  One push costs O(K n^2) for K windows: the outer
product of the vector falling out of each window already at capacity is
subtracted from its accumulator, and the new outer product is added to
every accumulator.  Sizes are increasing, so the windows at capacity are
always a prefix of the ladder, and both updates are one in-place array
operation each.  Only the newest ``max(sizes)`` vote vectors are retained.

The offline engine extends a bank by a chunk of rows at once: a window's
sums after each row are its carried sums plus the cumsum of the chunk's
pair products minus that of the rows it evicts, read from the chunk or,
when older, from the ring.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

#: ``1.0`` and ``True`` compare (and hash) equal to 1, ``1j`` and NaN do not
_PLUS_MINUS_ONE = frozenset((1, -1))


def _check_sizes(sizes) -> np.ndarray:
    arr = np.asarray(list(sizes), dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need at least one window size")
    if arr[0] < 1:
        raise ValueError(f"window sizes must be positive, got {arr[0]}")
    if np.any(np.diff(arr) <= 0):
        raise ValueError(f"window sizes must be strictly increasing: {arr.tolist()}")
    return arr


class CorrelationBank:
    """Exact windowed correlation estimates, updated incrementally.

    Parameters
    ----------
    n : int
        Number of labelers (columns of the vote stream), at least 2.
    sizes : iterable of int
        Strictly increasing window sizes to track.
    """

    def __init__(self, n: int, sizes) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 labelers, got n={n}")
        self.n = int(n)
        self._sizes = _check_sizes(sizes)
        self._size_tuple = tuple(self._sizes.tolist())
        self._index = {r: k for k, r in enumerate(self._size_tuple)}
        self._cap = int(self._sizes[-1])
        self._ring = np.zeros((self._cap, self.n), dtype=np.int8)
        self._sums = np.zeros((len(self._sizes), self.n, self.n), dtype=np.int64)
        self._t = 0

    @classmethod
    def from_history(cls, n: int, votes: np.ndarray, sizes) -> "CorrelationBank":
        """Bulk-load a bank from a (T, n) matrix of +/-1 votes.

        Equivalent to pushing every row in order, but vectorized; the state
        after loading is indistinguishable from the push-by-push path.
        """
        v = as_vote_matrix(votes, n)
        bank = cls(n, sizes)
        t = v.shape[0]
        start = max(0, t - bank._cap)
        idx = np.arange(start, t)
        bank._ring[idx % bank._cap] = v[idx]
        for k, r in enumerate(bank._sizes):
            tail = v[max(0, t - int(r)):].astype(np.int64)
            bank._sums[k] = tail.T @ tail
        bank._t = t
        return bank

    @property
    def t(self) -> int:
        """Number of vote vectors pushed so far."""
        return self._t

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._size_tuple

    @property
    def max_size(self) -> int:
        return self._cap

    @property
    def retained(self) -> int:
        """Number of vote vectors currently held in memory (<= max_size)."""
        return min(self._t, self._cap)

    def tracks(self, r: int) -> bool:
        return int(r) in self._index

    def window_length(self, r: int) -> int:
        """Effective sample count behind ``correlation(r)``: min(t, r)."""
        self._key(r)
        return min(self._t, int(r))

    def push(self, votes) -> None:
        """Append one +/-1 vote vector and update every window's sums."""
        v = np.asarray(votes)
        if v.shape != (self.n,):
            raise ValueError(f"expected a vote vector of shape ({self.n},), got {v.shape}")
        if v.dtype.kind == "c" or not set(v.tolist()) <= _PLUS_MINUS_ONE:
            raise ValueError("votes must be +/-1; resolve abstentions before pushing")
        v8 = v.astype(np.int8)
        t = self._t
        full = bisect_right(self._size_tuple, t)  # windows r <= t evict a vector
        if full:
            # read the evicted vectors before the ring slot for step t is
            # overwritten: for r == max_size they are the same slot.
            ev = self._ring.take(t - self._sizes[:full], axis=0, mode="wrap")
            self._sums[:full] -= ev[:, None, :] * ev[:, :, None]
        self._sums += v8[:, None] * v8[None, :]
        self._ring[t % self._cap] = v8
        self._t = t + 1

    def _extend(self, rows: np.ndarray) -> np.ndarray:
        """Push a checked (c, n) int8 chunk, c >= 1, as ``c`` pushes would;
        return (c, K, P) float64 upper-triangle correlations after each row."""
        c, n, t0, sizes = len(rows), self.n, self._t, self._sizes
        iu, ju = np.triu_indices(n, 1)
        step = np.cumsum(rows[:, iu] * rows[:, ju], axis=0, dtype=np.int64)
        sums = self._sums[:, iu, ju] + step[:, None, :]
        live = bisect_left(self._size_tuple, t0 + c)  # windows r < t0 + c evict
        if live:
            gone = np.arange(t0, t0 + c)[:, None] - sizes[:live]
            # a window not yet full evicts a zero row: gone < 0 wraps to an unfilled slot
            old = self._ring.take(gone, axis=0, mode="wrap")
            fresh = gone >= t0
            old[fresh] = rows[gone[fresh] - t0]
            sums[:, :live] -= np.cumsum(old[..., iu] * old[..., ju], axis=0, dtype=np.int64)
        self._sums[:, iu, ju] = self._sums[:, ju, iu] = sums[-1]
        self._sums[:, range(n), range(n)] = np.minimum(sizes, t0 + c)[:, None]
        self._ring[np.arange(t0, t0 + c)[-self._cap:] % self._cap] = rows[-self._cap:]
        self._t = t0 + c
        return sums / np.minimum(np.arange(t0 + 1, t0 + c + 1)[:, None], sizes)[..., None]

    def _key(self, r: int) -> int:
        try:
            return self._index[int(r)]
        except (KeyError, TypeError):
            raise ValueError(f"window size {r!r} is not tracked by this bank") from None

    def pair_sums(self, r: int) -> np.ndarray:
        """Integer sums of pairwise vote products over the last min(t, r) steps."""
        return self._sums[self._key(r)].copy()

    def correlation(self, r: int) -> np.ndarray:
        """Empirical correlation matrix over the last min(t, r) votes."""
        k = self._key(r)
        if self._t == 0:
            raise ValueError("no votes pushed yet")
        return self._sums[k] / min(self._t, int(r))

    def all_correlations(self) -> np.ndarray:
        """Stacked (K, n, n) correlation matrices for every tracked window."""
        if self._t == 0:
            raise ValueError("no votes pushed yet")
        lens = np.minimum(self._sizes, self._t)
        return self._sums / lens[:, None, None]


def as_vote_matrix(votes, n: int) -> np.ndarray:
    """Validate and return a (T, n) +/-1 vote matrix as int8."""
    v = np.asarray(votes)
    if v.ndim != 2 or v.shape[1] != n:
        raise ValueError(f"expected a (T, {n}) vote matrix, got shape {v.shape}")
    if not _all_plus_minus_one(v):
        raise ValueError("votes must be +/-1; resolve abstentions first")
    return v.astype(np.int8)


def _all_plus_minus_one(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is +1 or -1.  A complex array fails,
    even where ``|1j| == 1``: its int8 cast would drop the imaginary part."""
    return a.dtype.kind != "c" and bool(np.all(np.abs(a) == 1))
