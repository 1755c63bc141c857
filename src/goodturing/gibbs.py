"""Gibbs-type species sampling models.

A Gibbs-type model is specified by a discount parameter ``alpha < 1`` and
weights V(n, k) > 0 with V(1, 1) = 1 satisfying the backward recursion

    V(n, k) = (n - k*alpha) * V(n+1, k) + V(n+1, k+1).

The probability of observing species multiplicities (n_1, ..., n_k), in
order of appearance, factorizes as V(n, k) * prod_j (1-alpha)_(n_j - 1)
(Gnedin and Pitman, 2006).  From the weights alone this module derives the
one-step predictive probabilities, the falling factorial moments of the
frequency counts C(l, n), the expected number of distinct species, and the
exact Good-Turing discovery probability: the posterior mean frequency of a
species known only to have appeared l times in a sample of size n.

All sums over the block count k run through one row of the generalized
Stirling triangle, served by the model's :class:`~goodturing.specfun.StirlingRows`
cache, and are evaluated in log space; every term is nonnegative, so no
cancellation occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import StirlingRows, log_rising, logsumexp

__all__ = ["Composition", "GibbsModel", "TabularGibbsModel"]

_NEG_INF = float("-inf")

#: relative tolerance of the backward-recursion check on weight tables
_RECURSION_RTOL = 1e-8

#: Stirling rows per block in exact_good_turing_row
_ROW_BLOCK = 128


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    """logsumexp along axis 1, tolerating rows that are entirely -inf."""
    mx = x.max(axis=1)
    out = np.full(x.shape[0], _NEG_INF)
    finite = np.isfinite(mx)
    if finite.any():
        z = np.exp(x[finite] - mx[finite, None])
        out[finite] = mx[finite] + np.log(z.sum(axis=1))
    return out


@dataclass(frozen=True)
class Composition:
    """Species multiplicities (n_1, ..., n_k) in order of first appearance."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"all parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


class GibbsModel:
    """Base class: subclasses supply ``log_weight_row`` (log V(n, k) by rows).

    ``max_size`` bounds the sample sizes the weights are available for
    (None = unbounded).  ``stirling_rows`` is the model's Stirling-row
    cache.  Instances are immutable apart from that cache, which builds and
    serves rows under a lock, so one model can be shared between threads.
    """

    def __init__(self, alpha: float, max_size: int | None = None):
        self.stirling_rows = StirlingRows(alpha)  # rejects alpha >= 1 and non-finite alpha
        self.alpha = self.stirling_rows.alpha
        self.max_size = max_size

    # -- weights ---------------------------------------------------------

    def log_weight_row(self, n: int, kmax: int) -> np.ndarray:
        """log V(n, k) for k = 1..kmax as an array (index j holds k = j+1).

        The one primitive a model supplies: -inf where the weight vanishes
        (k beyond support).  Implementations start with
        ``self._check_row(n, kmax)``.
        """
        raise NotImplementedError

    def log_weight(self, n: int, k: int) -> float:
        """log V(n, k), read from :meth:`log_weight_row`."""
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return float(self.log_weight_row(n, k)[k - 1])

    def _check_row(self, n: int, kmax: int):
        self._check_size(n)
        if not 1 <= kmax <= n:
            raise ValueError(f"need 1 <= kmax <= n, got kmax={kmax}, n={n}")

    def _check_size(self, n: int, what: str = "n"):
        if n < 1:
            raise ValueError(f"{what} must be >= 1, got {n}")
        if self.max_size is not None and n > self.max_size:
            raise ValueError(f"{what}={n} beyond supported sample size {self.max_size}")

    # -- partition probabilities and predictions -------------------------

    def eppf(self, comp: Composition) -> float:
        """Probability of the ordered multiplicities ``comp``.

        V(n, k) * prod_j (1-alpha)_(n_j - 1); zero if the model cannot
        support that many species.
        """
        if not isinstance(comp, Composition):
            comp = Composition(tuple(comp))
        self._check_size(comp.n)
        lw = self.log_weight(comp.n, comp.k)
        if lw == _NEG_INF:
            return 0.0
        lp = lw + math.fsum(log_rising(1.0 - self.alpha, p - 1) for p in comp.parts)
        return math.exp(lp)

    def predict_old(self, n: int, k: int, n_j: int) -> float:
        """P(next observation extends a species currently seen n_j times).

        V(n+1, k) * (n_j - alpha) / V(n, k).
        """
        lw_n = self._log_weight_before_draw(n, k)
        if not 1 <= n_j <= n:
            raise ValueError(f"need 1 <= n_j <= n, got n_j={n_j}")
        return (n_j - self.alpha) * math.exp(self.log_weight(n + 1, k) - lw_n)

    def predict_new(self, n: int, k: int) -> float:
        """P(next observation is a brand-new species): V(n+1, k+1) / V(n, k)."""
        lw_n = self._log_weight_before_draw(n, k)
        return math.exp(self.log_weight(n + 1, k + 1) - lw_n)

    def _log_weight_before_draw(self, n: int, k: int) -> float:
        """log V(n, k) of a state the next draw can leave, or ValueError:
        n and n + 1 must be supported sizes, 1 <= k <= n and V(n, k) > 0."""
        self._check_size(n)
        self._check_size(n + 1)
        lw_n = self.log_weight(n, k)
        if lw_n == _NEG_INF:
            raise ValueError(f"V({n},{k}) = 0: state outside model support")
        return lw_n

    # -- moments of the frequency counts ---------------------------------

    def expected_count(self, l: int, n: int) -> float:
        """E[C(l, n)]: expected number of species appearing exactly l times.

        The r = 1 falling factorial moment:
        C(n, l) (1-alpha)_(l-1) * sum_k V(n, k) S(n-l, k-1).
        """
        self._check_range_l(l, n)
        return math.exp(self._log_falling_moment(l, n, 1))

    def falling_factorial_moment(self, l: int, n: int, r: int) -> float:
        """E[C(l,n) (C(l,n)-1) ... (C(l,n)-r+1)]; zero when l*r > n.

        n! [(1-alpha)_(l-1)]^r / ((l!)^r (n-lr)!) * sum_k V(n, k) S(n-lr, k-r).
        """
        self._check_range_l(l, n)
        if r < 1:
            raise ValueError(f"moment order must be >= 1, got {r}")
        if l * r > n:
            return 0.0
        return math.exp(self._log_falling_moment(l, n, r))

    def _log_falling_moment(self, l: int, n: int, r: int) -> float:
        m = n - l * r  # >= 0: falling_factorial_moment returns 0 for l*r > n
        coeff = math.lgamma(n + 1) - r * math.lgamma(l + 1) - math.lgamma(m + 1)
        return coeff + r * log_rising(1.0 - self.alpha, l - 1) + self._log_stirling_sum(n, m, r)

    def _log_stirling_sum(self, n: int, m: int, r: int = 1) -> float:
        """log sum_{k=r..m+r} V(n, k) S(m, k-r), m + r <= n: the one place a
        weight row meets a Stirling row in the scalar methods."""
        return logsumexp(self.log_weight_row(n, m + r)[r - 1 :] + self.stirling_rows.log_row(m))

    def expected_species(self, n: int) -> float:
        """E[K_n] = sum_k k V(n, k) S(n, k), from Stirling row n alone."""
        self._check_size(n)
        srow = self.stirling_rows.log_row(n)[1:]
        log_k = np.log(np.arange(1, n + 1, dtype=float))
        return math.exp(logsumexp(self.log_weight_row(n, n) + srow + log_k))

    # -- exact Good-Turing discovery probability -------------------------

    def exact_good_turing(self, l: int, n: int) -> float:
        """Posterior mean frequency of a species seen exactly l times.

        Conditions only on that one species' count, marginalizing over the
        rest of the sample:

            (l - alpha) * sum_k V(n+1, k) S(n-l, k-1)
                        / sum_k V(n, k)   S(n-l, k-1)

        This equals (l+1)/(n+1) * E[C(l+1, n+1)] / E[C(l, n)], Good (1953)'s
        exact estimator under a superpopulation.
        """
        self._check_range_l(l, n)
        self._check_size(n + 1)
        den = self._log_stirling_sum(n, n - l)
        if den == _NEG_INF:
            raise ValueError(
                f"a species seen {l} times in {n} draws has probability zero "
                "under this model; the estimator conditions on an impossible event"
            )
        return (l - self.alpha) * math.exp(self._log_stirling_sum(n + 1, n - l) - den)

    def exact_good_turing_row(self, n: int) -> np.ndarray:
        """All discovery probabilities at size n at once: entry l-1 holds l.

        Same sums as :meth:`exact_good_turing`, batched across l so the
        Stirling rows are visited once; positions whose count has zero
        probability come back as nan instead of raising.
        """
        self._check_size(n)
        self._check_size(n + 1)
        lw_n = self.log_weight_row(n, n)
        lw_next = self.log_weight_row(n + 1, n + 1)[:n]
        num, den = np.empty(n), np.empty(n)
        for lo in range(0, n, _ROW_BLOCK):  # blocks of rows bound the scratch memory
            hi = min(lo + _ROW_BLOCK, n)
            m_rows = np.full((hi - lo, hi), _NEG_INF)  # row m - lo holds log S(m, k-1), k = 1..hi
            for m in range(lo, hi):
                m_rows[m - lo, : m + 1] = self.stirling_rows.log_row(m)
            num[lo:hi] = _row_logsumexp(m_rows + lw_next[:hi])
            den[lo:hi] = _row_logsumexp(m_rows + lw_n[:hi])
        ls = np.arange(n, 0, -1, dtype=float)  # l = n - m
        with np.errstate(invalid="ignore"):
            out = ls - self.alpha
            out *= np.exp(num - den)  # -inf - -inf -> nan marks impossible counts
        return out[::-1].copy()

    # -- internals -------------------------------------------------------

    def _check_range_l(self, l: int, n: int):
        self._check_size(n)
        if not 1 <= l <= n:
            raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")


class TabularGibbsModel(GibbsModel):
    """Gibbs model backed by a numeric weight table.

    ``rows`` maps sample size n = 1..N to the weights (V(n,1), ..., V(n,n)).
    Construction checks that every weight is finite, V(1,1) = 1, strict
    positivity inside the declared support, and the backward recursion;
    inconsistent tables are rejected.
    """

    def __init__(self, alpha: float, rows):
        table = [np.asarray(r, dtype=float) for r in rows]
        n_max = len(table)
        if n_max < 1:
            raise ValueError("weight table needs at least row n=1")
        for n, row in enumerate(table, start=1):
            if row.shape != (n,):
                raise ValueError(f"row for n={n} must have {n} entries, got {row.shape}")
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise ValueError(f"weights must be finite, got V({n},{bad[0] + 1}) = {row[bad[0]]!r}")
        super().__init__(alpha, max_size=n_max)
        if abs(table[0][0] - 1.0) > 1e-12:
            raise ValueError(f"V(1,1) must be 1, got {table[0][0]}")
        self._check_support(table)
        with np.errstate(divide="ignore"):
            self._log_rows = [np.where(r > 0, np.log(np.where(r > 0, r, 1.0)), -np.inf) for r in table]
        for row in self._log_rows:
            row.flags.writeable = False  # log_weight_row hands out views of these
        self._validate(table)

    @staticmethod
    def _check_support(table):
        # weights must be positive for k = 1..support(n) and zero beyond
        for n, row in enumerate(table, start=1):
            if np.any(row < 0):
                raise ValueError(f"negative weight in row n={n}")
            pos = row > 0
            kmax = int(np.max(np.nonzero(pos)[0])) + 1 if pos.any() else 0
            if kmax == 0 or not pos[:kmax].all():
                raise ValueError(f"row n={n} must be strictly positive up to its support")

    def _validate(self, table):
        # one row at a time, so the first failure reported is the smallest
        # (n, k) in row-major order
        for n in range(1, len(table)):
            lhs, v_next = table[n - 1], table[n]
            rhs = (n - np.arange(1, n + 1) * self.alpha) * v_next[:-1] + v_next[1:]
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
            bad = np.flatnonzero(np.abs(lhs - rhs) > _RECURSION_RTOL * scale)
            if bad.size:
                k = int(bad[0]) + 1
                raise ValueError(
                    f"backward recursion fails at (n={n}, k={k}): "
                    f"V(n,k)={lhs[k - 1]!r} vs (n-k*alpha)V(n+1,k)+V(n+1,k+1)={rhs[k - 1]!r}"
                )

    @classmethod
    def from_bottom_row(cls, alpha: float, bottom_row) -> "TabularGibbsModel":
        """Build a valid table from an arbitrary positive bottom row.

        The backward recursion determines every row above the bottom one;
        dividing through by the resulting V(1,1) normalizes the family.
        """
        bottom = np.asarray(bottom_row, dtype=float)
        if np.any(bottom <= 0):
            raise ValueError("bottom row must be strictly positive")
        n_max = len(bottom)
        rows = [None] * n_max
        rows[n_max - 1] = bottom
        for n in range(n_max - 1, 0, -1):
            below = rows[n]
            ks = np.arange(1, n + 1, dtype=float)
            rows[n - 1] = (n - ks * alpha) * below[:n] + below[1 : n + 1]
        scale = rows[0][0]
        rows = [r / scale for r in rows]
        return cls(alpha, rows)

    def log_weight_row(self, n: int, kmax: int) -> np.ndarray:
        self._check_row(n, kmax)
        return self._log_rows[n - 1][:kmax]
