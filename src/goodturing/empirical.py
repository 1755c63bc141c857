"""Estimators computable from data or from a known finite population.

Covers the two ends of Good (1953)'s construction: the approximated
Good-Turing estimate built from frequency-of-frequencies counts alone, and
the exact posterior-mean estimate available once the population frequencies
(p_1, ..., p_s) are known.  The smoothing rule that replaces raw counts by
``alpha (1-alpha)_(l-1) / l! * k_n`` sits in between: plugging the smoothed
counts into the approximated estimator reproduces the model-based discovery
probability (k_n / n) * alpha (1-alpha)_l / l!.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

__all__ = [
    "UndefinedEstimateError",
    "FrequencyCounts",
    "FinitePopulation",
    "good_turing_approx",
    "good_turing_ratio",
    "smoothed_count",
    "smoothed_discovery",
]


class UndefinedEstimateError(ValueError):
    """Raised when an estimator conditions on a count that is absent.

    The ratio form of Good-Turing divides by c_l; with no species seen
    exactly l times the estimate does not exist and callers should fall
    back to smoothing or to a model-based estimator.
    """


class FrequencyCounts:
    """Frequency-of-frequencies table: c_l species were seen exactly l times.

    Absent keys mean zero.  Derived totals: ``n`` observations and ``k``
    distinct species.
    """

    def __init__(self, counts: Mapping[int, int]):
        clean: dict[int, int] = {}
        for l, c in counts.items():
            if l != int(l) or l < 1:
                raise ValueError(f"occurrence count l must be a positive integer, got {l!r}")
            if c != int(c) or c < 1:
                raise ValueError(f"c_{l} must be a positive integer, got {c!r}")
            clean[int(l)] = int(c)
        if not clean:
            raise ValueError("frequency counts must be nonempty")
        self._counts = dict(sorted(clean.items()))
        self.n = sum(l * c for l, c in self._counts.items())
        self.k = sum(self._counts.values())

    @classmethod
    def from_sample(cls, labels: Iterable) -> "FrequencyCounts":
        """Tally a raw sequence of species labels."""
        occurrences = Counter(labels)
        if not occurrences:
            raise ValueError("sample is empty")
        return cls(Counter(occurrences.values()))

    def count(self, l: int) -> int:
        return self._counts.get(l, 0)

    def items(self):
        return self._counts.items()

    def __eq__(self, other):
        return isinstance(other, FrequencyCounts) and self._counts == other._counts

    def __repr__(self):
        return f"FrequencyCounts({self._counts})"


def good_turing_approx(fc: FrequencyCounts, l: int) -> float:
    """Approximated Good-Turing estimate (l+1) c_{l+1} / n.

    ``l = 0`` gives the missing-mass estimate c_1 / n.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return (l + 1) * fc.count(l + 1) / fc.n


def good_turing_ratio(fc: FrequencyCounts, l: int) -> float:
    """Ratio form (l+1)/n * c_{l+1}/c_l of the exact-estimator approximation.

    Undefined when c_l = 0: there is then no species seen l times to
    condition on.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    c_l = fc.count(l)
    if c_l == 0:
        raise UndefinedEstimateError(
            f"c_{l} = 0: no species was seen exactly {l} times, "
            "so the ratio estimate is undefined without smoothing"
        )
    return (l + 1) * fc.count(l + 1) / (fc.n * c_l)


def smoothed_count(alpha: float, k_n: int, l: int) -> float:
    """Smoothed frequency count c'_l = alpha (1-alpha)_(l-1) / l! * k_n.

    Summed over all l these reproduce k_n: the partial sums are
    k_n * (1 - (1-alpha)_L / L!), which tends to k_n like L^(-alpha).
    """
    _check_smoothing_args(alpha, k_n, l)
    log_term = (
        math.log(alpha)
        + gammaln(l - alpha)
        - gammaln(1.0 - alpha)
        - gammaln(l + 1.0)
    )
    return k_n * math.exp(log_term)


def smoothed_discovery(alpha: float, k_n: int, n: int, l: int) -> float:
    """Discovery probability implied by the smoothed counts.

    (l+1)/n * c'_{l+1} collapses to (k_n / n) * alpha (1-alpha)_l / l!;
    ``l = 0`` gives the smoothed missing mass alpha k_n / n.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    _check_smoothing_args(alpha, k_n, max(l, 1))
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_term = (
        math.log(alpha)
        + gammaln(l + 1.0 - alpha)
        - gammaln(1.0 - alpha)
        - gammaln(l + 1.0)
    )
    return k_n / n * math.exp(log_term)


def _check_smoothing_args(alpha: float, k_n: int, l: int):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"smoothing needs alpha in (0, 1), got {alpha}")
    if k_n < 1:
        raise ValueError(f"k_n must be >= 1, got {k_n}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")


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
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"frequencies must sum to 1 (got {p.sum()!r})")
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
        """E[C(l, n)] = sum_j C(n, l) p_j^l (1 - p_j)^(n - l)."""
        self._check_l_n(l, n)
        log_c = gammaln(n + 1.0) - gammaln(l + 1.0) - gammaln(n - l + 1.0)
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
