"""Sliding-window vote-agreement statistics over a single ring buffer.

For windows ``r`` in a fixed ladder, the bank maintains the empirical
pairwise correlation of the last ``min(t, r)`` vote vectors,

    corr[r]_{ij} = mean over the window of  v_i * v_j ,

where votes are +/-1, so each pairwise product is +/-1 and the window sum
is an exact integer.  A window's sums are one float64 vector, laid out as
the (n, n) matrix only by ``correlation`` and ``pair_sums``: those of the
P = n(n - 1)/2 pairs i < j in ``np.triu_indices(n, 1)`` order, then that
of v_0 v_0, the vote count min(t, r).  Each is an integer below 2**53, the
most votes a bank takes, so it is exact and divides to the bits the int64
sum would.  A push costs O(K P) for K windows: it subtracts the pair
products of the vectors falling out of the windows at capacity, a prefix
of the increasing ladder, and adds the new vector's to every window, one
in-place array operation each.  The newest ``max(sizes)`` vectors are kept.

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
        window's sums are one float64 vector of exact integers (module docstring).
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
        iu, ju = np.triu_indices(self.n, 1)
        # the pairs, then the count as v_0 v_0; ``_square`` lays them out as (n, n)
        self._pi, self._pj = np.append(iu, 0), np.append(ju, 0)
        self._square = np.full((self.n, self.n), len(iu))
        self._square[iu, ju] = self._square[ju, iu] = np.arange(len(iu))
        shape = (len(self._sizes), len(self._pi))
        # exact integers (module docstring); the walk divides by rung size in one same-shape call
        self._sums = np.zeros(shape)
        self._divisors = np.broadcast_to(self._sizes[:, None], shape).astype(float)
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
            bank._sums[k] = (tail.T @ tail)[bank._pi, bank._pj]
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
        t, pi, pj = self._t, self._pi, self._pj
        full = bisect_right(self.sizes, t)  # windows r <= t evict a vector
        if full:
            # read the evicted vectors before the ring slot for step t is
            # overwritten: for r == max_size they are the same slot.
            ev = self._ring.take(t - self._sizes[:full], axis=0, mode="wrap")
            self._sums[:full] -= ev.take(pi, axis=1) * ev.take(pj, axis=1)
        self._sums += v8[pi] * v8[pj]
        self._ring[t % self.max_size] = v8
        self._t = t + 1

    def _extend(self, rows: np.ndarray) -> np.ndarray:
        """Push a checked (c, n) int8 chunk, c >= 1, as ``c`` pushes would;
        return (c, K, P) float64 pair correlations after each row, every
        window's pair sums over its count."""
        c, t0, sizes, pi, pj = len(rows), self._t, self._sizes, self._pi, self._pj
        step = np.cumsum(rows[:, pi] * rows[:, pj], axis=0, dtype=float)
        sums = self._sums + step[:, None, :]
        live = bisect_left(self.sizes, t0 + c)  # windows r < t0 + c evict
        if live:
            gone = np.arange(t0, t0 + c)[:, None] - sizes[:live]
            # a window not yet full evicts a zero row: gone < 0 wraps to an unfilled slot
            old = self._ring.take(gone, axis=0, mode="wrap")
            fresh = gone >= t0
            old[fresh] = rows[gone[fresh] - t0]
            sums[:, :live] -= np.cumsum(old[..., pi] * old[..., pj], axis=0, dtype=float)
        self._sums[:] = sums[-1]
        self._ring[np.arange(t0, t0 + c)[-self.max_size:] % self.max_size] = rows[-self.max_size:]
        self._t = t0 + c
        return sums[..., :-1] / sums[..., -1:]

    def _key(self, r: int) -> int:
        try:
            return self.sizes.index(integer(r, "a window size"))
        except ValueError:
            raise ValueError(f"window size {r!r} is not tracked by this bank") from None

    def pair_sums(self, r: int) -> np.ndarray:
        """Integer sums of pairwise vote products over the last min(t, r) steps, as int64."""
        return self._sums[self._key(r)].take(self._square).astype(np.int64)

    def correlation(self, r: int) -> np.ndarray:
        """Empirical correlation matrix over the last min(t, r) votes."""
        k = self._key(r)
        if self._t == 0:
            raise ValueError("no votes pushed yet")
        return (self._sums[k] / min(self._t, self.sizes[k])).take(self._square)


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
