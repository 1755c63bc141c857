"""Estimators computable from frequency-of-frequencies counts alone.

The approximated Good-Turing estimate (Good, 1953), its ratio form, and
the smoothing rule that replaces raw counts by
``alpha (1-alpha)_(l-1) / l! * k_n``: plugging the smoothed counts into
the approximated estimator reproduces the model-based discovery
probability (k_n / n) * alpha (1-alpha)_l / l!.

This module imports nothing beyond the standard library, so the command
line answers ``gt`` and ``smooth`` without loading numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

__all__ = [
    "UndefinedEstimateError",
    "FrequencyCounts",
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
    _check_alpha(alpha)
    _check_integer("k_n", k_n, 1)
    _check_integer("l", l, 1)
    log_term = (
        math.log(alpha)
        + math.lgamma(l - alpha)
        - math.lgamma(1.0 - alpha)
        - math.lgamma(l + 1.0)
    )
    return k_n * math.exp(log_term)


def smoothed_discovery(alpha: float, k_n: int, n: int, l: int) -> float:
    """Discovery probability implied by the smoothed counts.

    (l+1)/n * c'_{l+1} collapses to (k_n / n) * alpha (1-alpha)_l / l!;
    ``l = 0`` gives the smoothed missing mass alpha k_n / n.
    """
    _check_integer("l", l, 0)
    _check_alpha(alpha)
    _check_integer("k_n", k_n, 1)
    _check_integer("n", n, 1)
    log_term = (
        math.log(alpha)
        + math.lgamma(l + 1.0 - alpha)
        - math.lgamma(1.0 - alpha)
        - math.lgamma(l + 1.0)
    )
    return k_n / n * math.exp(log_term)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:  # false for nan too
        raise ValueError(f"smoothing needs alpha in (0, 1), got {alpha}")


def _check_integer(name: str, value, low: int):
    if not math.isfinite(value) or value != math.floor(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
