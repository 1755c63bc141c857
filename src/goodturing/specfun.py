"""Special functions in log space: log rising factorials, log-sum-exp and
the generalized Stirling triangle.

The rising factorials and Stirling entries are all nonnegative, so each
is carried as a plain float64 log, with -inf standing for zero.

The triangle computed here is the one indexed by a discount parameter
``a < 1``: entry (n, k) is the sum, over set partitions of {1..n} into k
blocks, of the products ``(1-a)_(size-1)`` over the block sizes.  It is
generated by the recurrence

    S(n+1, k) = S(n, k-1) + (n - k*a) * S(n, k)

with S(0,0) = 1, S(n,0) = 0 for n >= 1 and S(n,k) = 0 for k > n (see
Gnedin and Pitman, 2006, on exchangeable Gibbs partitions and Stirling
triangles).  At a = 0 the entries are the unsigned Stirling numbers of the
first kind.  Entries with 1 <= k <= n are strictly positive for every
a < 1, so rows are stored as natural logs, with -inf marking structural
zeros.  :class:`StirlingRows` is the cache every model reads rows from;
:func:`iter_stirling_log_rows` streams them in order and is the reference
the cache is tested against.  Both refuse rows above :data:`MAX_ROW`
before building any.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Iterator

import numpy as np

from .closed import check_discount

__all__ = [
    "log_rising",
    "logsumexp",
    "check_discount",
    "DENSE_ROWS",
    "CHECKPOINT_STRIDE",
    "MAX_ROW",
    "StirlingRows",
    "iter_stirling_log_rows",
]

#: Stirling rows 0..DENSE_ROWS are all kept once computed
DENSE_ROWS = 1024
#: above DENSE_ROWS only every CHECKPOINT_STRIDE-th row is kept, plus the last row built
CHECKPOINT_STRIDE = 64
#: the largest row served: building rows 0..m takes O(m^2) time, a few
#: seconds at MAX_ROW, and about m^2 / (2 CHECKPOINT_STRIDE) floats of memory
MAX_ROW = 20_000


def log_rising(x: float, m: int) -> float:
    """log (x)_m = log x (x+1) ... (x+m-1) for strictly positive x; 0.0 at m = 0."""
    if m == 0:
        return 0.0
    if x <= 0:
        raise ValueError(f"log_rising needs x > 0, got {x}")
    return float(np.sum(np.log(x + np.arange(m, dtype=float))))


def logsumexp(x) -> float:
    """log(sum(exp(x))) over all entries by the max shift.

    -inf when x is empty or every entry is -inf; +inf and nan propagate.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return -math.inf
    mx = float(x.max())
    if not math.isfinite(mx):
        return mx
    return mx + math.log(float(np.exp(x - mx).sum()))


class StirlingRows:
    """Cached log-rows S(m, 0..m) of the generalized Stirling triangle, any m >= 0.

    Rows 0..DENSE_ROWS are kept as they are computed.  Above that only every
    CHECKPOINT_STRIDE-th row is kept, plus the last row built, so rows up to
    M take O(DENSE_ROWS^2 + M^2 / CHECKPOINT_STRIDE) memory (about 5 MB at
    M = 4000).  A request steps the recurrence forward from the nearest kept
    row at or below it: no row is rebuilt from row 0, a row below the
    highest one reached costs at most CHECKPOINT_STRIDE - 1 steps, and
    increasing requests cost one step per row.

    Rows are read-only arrays, equal bit for bit to the rows of
    :func:`iter_stirling_log_rows`.  Lookups hold a lock, so one instance
    can be shared between threads.
    """

    def __init__(self, alpha: float):
        self.alpha = check_discount(alpha)
        first = np.zeros(1)
        first.flags.writeable = False
        self._dense = [first]  # rows 0..len-1
        self._checkpoints: list[np.ndarray] = []  # index i: row DENSE_ROWS + (i+1)*CHECKPOINT_STRIDE
        self._last = (0, first)  # the last row built, and its index
        self._lock = threading.Lock()

    def log_row(self, m: int) -> np.ndarray:
        """Read-only log-row S(m, 0..m); index k holds log S(m, k)."""
        m = _check_row_index(operator.index(m), "row index")
        with self._lock:
            if m < len(self._dense):
                return self._dense[m]
            n, row = self._nearest_below(m)
            while n < m:
                row = _next_row(row, n, self.alpha)
                row.flags.writeable = False
                n += 1
                self._keep(n, row)
            self._last = (m, row)
            return row

    def _nearest_below(self, m: int) -> tuple[int, np.ndarray]:
        # every checkpoint up to the highest row built exists, so a row
        # beyond the dense block starts at most CHECKPOINT_STRIDE - 1 below
        n = len(self._dense) - 1
        row = self._dense[n]
        i = min((m - DENSE_ROWS) // CHECKPOINT_STRIDE, len(self._checkpoints))
        if i > 0:
            n, row = DENSE_ROWS + i * CHECKPOINT_STRIDE, self._checkpoints[i - 1]
        last_n, last_row = self._last
        if n < last_n <= m:
            n, row = last_n, last_row
        return n, row

    def _keep(self, n: int, row: np.ndarray) -> None:
        # rows are built in order from the nearest kept one, so a row to
        # keep is always the next dense row or the next checkpoint
        if n <= DENSE_ROWS:
            self._dense.append(row)
        elif n == DENSE_ROWS + (len(self._checkpoints) + 1) * CHECKPOINT_STRIDE:
            self._checkpoints.append(row)


def _next_row(row: np.ndarray, n: int, alpha: float) -> np.ndarray:
    # row holds log S(n, k) for k = 0..n; returns row n+1.
    out = np.empty(n + 2)
    out[0] = -np.inf
    out[n + 1] = row[n]  # S(n+1, n+1) = S(n, n)
    if n >= 1:
        # k = 1..n: log(S(n, k-1) + (n - k*alpha) S(n, k)), with n - k*alpha > 0
        # for alpha < 1.  The log-add is max + log1p(exp(-|a - b|)), written out
        # because np.logaddexp is several times slower on long rows.
        scale = 1.0 if n * alpha > -1e300 else -alpha  # k |alpha| may overflow: divide it out
        b = np.arange(1, n + 1, dtype=float)
        b *= -alpha / scale
        b += n / scale
        np.log(b, out=b)
        if scale != 1.0:
            b += math.log(scale)
        b += row[1:]
        a = row[:n]
        d = np.abs(a - b)
        np.negative(d, out=d)
        np.exp(d, out=d)
        np.log1p(d, out=d)
        np.add(np.maximum(a, b), d, out=out[1 : n + 1])
    return out


def _check_row_index(m: int, what: str) -> int:
    if m < 0:
        raise ValueError(f"{what} must be >= 0, got {m}")
    if m > MAX_ROW:
        raise ValueError(f"{what} {m} is above the Stirling-row ceiling MAX_ROW = {MAX_ROW}")
    return m


def iter_stirling_log_rows(n_max: int, alpha: float) -> Iterator[np.ndarray]:
    """Yield log-rows 0..n_max one at a time; O(n) memory.

    The streaming reference for :class:`StirlingRows`; rows are yielded in
    order and must not be mutated.  The arguments are checked on the call,
    before any row is built.
    """
    alpha = check_discount(alpha)
    _check_row_index(n_max, "n_max")

    def rows():
        row = np.zeros(1)
        yield row
        for n in range(n_max):
            row = _next_row(row, n, alpha)
            yield row

    return rows()
