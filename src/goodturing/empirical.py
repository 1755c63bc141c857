"""Estimators computable from data or from a known finite population.

Covers the two ends of Good (1953)'s construction: the approximated
Good-Turing estimate built from frequency-of-frequencies counts alone, and
the exact posterior-mean estimate available once the population frequencies
(p_1, ..., p_s) are known.  The count-only estimators and the smoothing rule
live in :mod:`.counts`, which needs no numpy, and are re-exported here.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .counts import (
    FrequencyCounts,
    UndefinedEstimateError,
    good_turing_approx,
    good_turing_ratio,
    smoothed_count,
    smoothed_discovery,
)
from .specfun import logsumexp

__all__ = [
    "UndefinedEstimateError",
    "FrequencyCounts",
    "FinitePopulation",
    "good_turing_approx",
    "good_turing_ratio",
    "smoothed_count",
    "smoothed_discovery",
]


class FinitePopulation:
    """Known species frequencies (p_1, ..., p_s), summing to one.

    Zero-probability entries are dropped with a warning (no formula here can
    see them); NaN, infinite or negative entries and totals off by more than
    1e-12 are rejected.  Powers of 1 - p_j go through log1p for accuracy at
    small p_j.
    """

    def __init__(self, probs: Sequence[float]):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("population needs a nonempty 1-d probability vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("population frequencies must be finite")
        if np.any(p < 0):
            raise ValueError("population frequencies must be nonnegative")
        if np.any(p == 0):
            warnings.warn("dropping zero-probability species", stacklevel=2)
            p = p[p > 0]
            if p.size == 0:
                raise ValueError("population has no positive frequencies")
        with np.errstate(over="ignore"):  # a total that overflows is off too
            total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"frequencies must sum to 1 (got {total!r})")
        self.probs = p
        self.probs.flags.writeable = False
        self._log_p = np.log(p)
        with np.errstate(divide="ignore"):  # p_j = 1 gives log(0)
            self._log_q = np.log1p(-p)

    @property
    def s(self) -> int:
        return int(self.probs.size)

    def expected_species(self, n: int) -> float:
        """E[K_n] = sum_j (1 - (1 - p_j)^n), each term as -expm1(n log1p(-p_j)).

        Every term is positive, so nothing cancels (s - sum_j (1 - p_j)^n
        loses digits when s is large and n small).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return float(-np.sum(np.expm1(n * self._log_q)))

    def expected_count(self, l: int, n: int) -> float:
        """E[C(l, n)] = sum_j C(n, l) p_j^l (1 - p_j)^(n - l).

        log C(n, l) comes from the exact integer binomial.
        """
        self._check_l_n(l, n)
        log_c = math.log(math.comb(n, l))
        return float(np.sum(np.exp(log_c + self._log_kernel(l, n))))

    def posterior(self, l: int, n: int) -> np.ndarray:
        """Posterior over which species it is, given it was seen l times in n.

        Entry j is proportional to p_j^l (1 - p_j)^(n - l) (Good, 1953).
        """
        self._check_l_n(l, n)
        logits = self._log_kernel(l, n)
        norm = logsumexp(logits)
        if norm == -np.inf:
            raise ValueError(
                f"no species can be seen exactly {l} times in {n} draws "
                "from this population"
            )
        return np.exp(logits - norm)

    def exact_good_turing(self, l: int, n: int) -> float:
        """Posterior mean frequency of a species seen l times in n draws.

        sum_j p_j^(l+1) (1-p_j)^(n-l) / sum_j p_j^l (1-p_j)^(n-l); equal to
        (l+1)/(n+1) * E[C(l+1, n+1)] / E[C(l, n)].
        """
        self._check_l_n(l, n)
        kernel = self._log_kernel(l, n)
        log_den = logsumexp(kernel)
        if log_den == -np.inf:
            raise ValueError(
                f"no species can be seen exactly {l} times in {n} draws "
                "from this population"
            )
        log_num = logsumexp(kernel + self._log_p)
        return float(np.exp(log_num - log_den))

    def _log_kernel(self, l: int, n: int) -> np.ndarray:
        # l log p_j + (n - l) log(1 - p_j), skipping the second term at
        # l = n so a species with p_j = 1 does not turn it into 0 * (-inf)
        out = l * self._log_p
        if n > l:
            out = out + (n - l) * self._log_q
        return out

    @staticmethod
    def _check_l_n(l: int, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 1 <= l <= n:
            raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
