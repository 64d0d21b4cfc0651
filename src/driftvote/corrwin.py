"""Sliding-window vote-agreement statistics over a single ring buffer.

For windows ``r`` in a fixed ladder, the bank maintains the empirical
pairwise correlation of the last ``min(t, r)`` vote vectors,

    corr[r]_{ij} = mean over the window of  v_i * v_j ,

where votes are +/-1, so each pairwise product is +/-1 and the window sum
is an exact integer.  The sums are held as float64: each is bounded by the
number of votes pushed, which no bank takes past 2**53, so every sum is
exactly an integer, and dividing it gives the same bits as dividing the
int64 sum would.  One push costs O(K n^2) for K windows: the outer
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

from .core import integer, window_sizes

#: ``1.0`` and ``True`` compare (and hash) equal to 1, ``1j`` and NaN do not
_PLUS_MINUS_ONE = frozenset((1, -1))


class CorrelationBank:
    """Exact windowed correlation estimates, updated incrementally.

    Parameters
    ----------
    n : int
        Number of labelers (columns of the vote stream), an integer >= 2.
    sizes : iterable of int
        Window sizes to track, at least one, by :class:`.core.WindowSchedule`'s
        rule (:func:`.core.window_sizes`) and within int64.  They are kept as
        the ``sizes`` tuple and the int64 ``_sizes`` array the engine indexes;
        a lookup takes a tracked size as a Python or numpy integer.  Each
        window's sums are float64 holding exact integers (module docstring).
    """

    def __init__(self, n: int, sizes) -> None:
        self.n = integer(n, "n")
        if self.n < 2:
            raise ValueError(f"need at least 2 labelers, got n={n}")
        self.sizes = window_sizes(sizes, 1)
        if self.max_size > np.iinfo(np.int64).max:
            raise ValueError("window sizes must fit in int64")
        self._sizes = np.array(self.sizes, dtype=np.int64)
        self._ring = np.zeros((self.max_size, self.n), dtype=np.int8)
        shape = (len(self._sizes), self.n, self.n)
        # exact integers in float64 (module docstring), divided by the walk
        # as one same-dtype, same-shape call by each rung's size
        self._sums = np.zeros(shape)
        self._divisors = np.broadcast_to(self._sizes[:, None, None], shape).astype(float)
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
        idx = np.arange(max(0, t - bank.max_size), t)
        bank._ring[idx % bank.max_size] = v[idx]
        for k, r in enumerate(bank.sizes):
            tail = v[max(0, t - r):].astype(np.int64)
            bank._sums[k] = tail.T @ tail
        bank._t = t
        return bank

    @property
    def t(self) -> int:
        """Number of vote vectors pushed so far."""
        return self._t

    @property
    def max_size(self) -> int:
        return self.sizes[-1]

    @property
    def retained(self) -> int:
        """Number of vote vectors currently held in memory (<= max_size)."""
        return min(self._t, self.max_size)

    def window_length(self, r: int) -> int:
        """Effective sample count behind ``correlation(r)``: min(t, r)."""
        return min(self._t, self.sizes[self._key(r)])

    def push(self, votes) -> None:
        """Append one +/-1 vote vector and update every window's sums."""
        v = np.asarray(votes)
        if v.shape != (self.n,):
            raise ValueError(f"expected a vote vector of shape ({self.n},), got {v.shape}")
        if v.dtype.kind == "c" or not set(v.tolist()) <= _PLUS_MINUS_ONE:
            raise ValueError("votes must be +/-1; resolve abstentions before pushing")
        v8 = v if v.dtype == np.int8 else v.astype(np.int8)
        t = self._t
        full = bisect_right(self.sizes, t)  # windows r <= t evict a vector
        if full:
            # read the evicted vectors before the ring slot for step t is
            # overwritten: for r == max_size they are the same slot.
            ev = self._ring.take(t - self._sizes[:full], axis=0, mode="wrap")
            self._sums[:full] -= ev[:, None, :] * ev[:, :, None]
        self._sums += v8[:, None] * v8
        self._ring[t % self.max_size] = v8
        self._t = t + 1

    def _extend(self, rows: np.ndarray) -> np.ndarray:
        """Push a checked (c, n) int8 chunk, c >= 1, as ``c`` pushes would;
        return (c, K, P) float64 upper-triangle correlations after each row."""
        c, n, t0, sizes = len(rows), self.n, self._t, self._sizes
        iu, ju = np.triu_indices(n, 1)
        step = np.cumsum(rows[:, iu] * rows[:, ju], axis=0, dtype=float)
        sums = self._sums[:, iu, ju] + step[:, None, :]
        live = bisect_left(self.sizes, t0 + c)  # windows r < t0 + c evict
        if live:
            gone = np.arange(t0, t0 + c)[:, None] - sizes[:live]
            # a window not yet full evicts a zero row: gone < 0 wraps to an unfilled slot
            old = self._ring.take(gone, axis=0, mode="wrap")
            fresh = gone >= t0
            old[fresh] = rows[gone[fresh] - t0]
            sums[:, :live] -= np.cumsum(old[..., iu] * old[..., ju], axis=0, dtype=float)
        self._sums[:, iu, ju] = self._sums[:, ju, iu] = sums[-1]
        self._sums[:, range(n), range(n)] = np.minimum(sizes, t0 + c)[:, None]
        self._ring[np.arange(t0, t0 + c)[-self.max_size:] % self.max_size] = rows[-self.max_size:]
        self._t = t0 + c
        return sums / np.minimum(np.arange(t0 + 1, t0 + c + 1)[:, None], sizes)[..., None]

    def _key(self, r: int) -> int:
        try:
            return self.sizes.index(integer(r, "a window size"))
        except ValueError:
            raise ValueError(f"window size {r!r} is not tracked by this bank") from None

    def pair_sums(self, r: int) -> np.ndarray:
        """Integer sums of pairwise vote products over the last min(t, r) steps, as int64."""
        return self._sums[self._key(r)].astype(np.int64)

    def correlation(self, r: int) -> np.ndarray:
        """Empirical correlation matrix over the last min(t, r) votes."""
        k = self._key(r)
        if self._t == 0:
            raise ValueError("no votes pushed yet")
        return self._sums[k] / min(self._t, self.sizes[k])


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
