"""The two-parameter Poisson-Dirichlet model PD(alpha, theta).

Weights take the separable form

    V(n, k) = (theta + alpha)_(k-1; step alpha) / (theta + 1)_(n-1)

for alpha in [0, 1) with theta > -alpha, or alpha < 0 with theta = |alpha|*s
for an integer number of species s (the symmetric Dirichlet model; Pitman
and Yor, 1997).  alpha = 0 is the Dirichlet process.

That g(k)/h(n) separability is what makes the exact Good-Turing discovery
probability collapse to the closed form (l - alpha)/(theta + n), the same
value the one-step predictive rule assigns, so conditioning on one species'
count or on the whole frequency vector gives identical answers here.  The
alpha < 0 family reproduces the classical finite-population rules: Johnson
(1932)'s (l + |alpha|)/(n + |alpha| s), and for alpha = -1 Jeffreys (1948)'s
(l + 1)/(n + s).  For alpha in (0, 1) the model coincides with smoothing
family H1 of Good (1953, section 7) under exponents -alpha-1 and
theta+alpha-1.

The first size-biased frequency under PD(alpha, theta), alpha in [0, 1), is
beta(1 - alpha, theta + alpha) distributed; the expected number of distinct
species in n draws is the beta moment sum_{j<n} E[(1-P)^j], evaluated here
term by term as products of beta-function ratios.
"""

from __future__ import annotations

import math

import numpy as np

from .gibbs import GibbsModel
from .specfun import check_discount, log_rising

__all__ = ["PitmanYor", "johnson_estimate", "jeffreys_estimate"]

#: minimum admissible value of theta + alpha (guard band around the open boundary)
_THETA_GUARD = 1e-12


class PitmanYor(GibbsModel):
    """PD(alpha, theta), usable anywhere a GibbsModel is expected.

    For ``alpha < 0`` pass the species count ``s`` (theta is then inferred
    as |alpha|*s; passing an inconsistent theta as well is an error).
    """

    def __init__(self, alpha: float, theta: float | None = None, s: int | None = None):
        alpha = check_discount(alpha)
        if theta is not None and not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        if alpha < 0.0:
            if s is None:
                raise ValueError("alpha < 0 needs the finite species count s")
            if s != int(s) or s < 1:
                raise ValueError(f"s must be a positive integer, got {s}")
            s = int(s)
            inferred = abs(alpha) * s
            if not math.isfinite(inferred):
                raise ValueError(f"|alpha|*s must be finite, got alpha={alpha}, s={s}")
            if theta is None:
                theta = inferred
            elif abs(theta - inferred) > 1e-9 * max(1.0, abs(inferred)):
                raise ValueError(
                    f"theta={theta} inconsistent with |alpha|*s={inferred} for alpha={alpha}, s={s}"
                )
        else:
            if s is not None:
                raise ValueError("s only applies to alpha < 0")
            if theta is None:
                raise ValueError("theta is required for alpha >= 0")
            if theta + alpha <= _THETA_GUARD:
                raise ValueError(f"need theta > -alpha, got theta={theta}, alpha={alpha}")
        super().__init__(alpha)
        self.theta = float(theta)
        self.s = s

    def __repr__(self):
        if self.s is not None:
            return f"PitmanYor(alpha={self.alpha}, theta={self.theta}, s={self.s})"
        return f"PitmanYor(alpha={self.alpha}, theta={self.theta})"

    # -- weights ---------------------------------------------------------

    def log_weight_row(self, n: int, kmax: int) -> np.ndarray:
        """Whole row at once: a cumulative sum over log(theta + k*alpha).

        Entries are -inf from the first nonpositive factor on, and for k > s
        when the species count s is finite.
        """
        self._check_row(n, kmax)
        with np.errstate(divide="ignore", over="ignore"):  # alpha * k may overflow only where k > s
            factors = self.theta + self.alpha * np.arange(1, kmax, dtype=float)
            logs = np.where(factors > 0, np.log(np.where(factors > 0, factors, 1.0)), -np.inf)
        row = np.concatenate(([0.0], np.cumsum(logs)))
        if self.s is not None:
            row[self.s :] = -np.inf  # theta may differ from |alpha| s by rounding
        return row - log_rising(self.theta + 1.0, n - 1)

    # -- closed forms ----------------------------------------------------

    def exact_good_turing_closed(self, l: int, n: int) -> float:
        """(l - alpha) / (theta + n); agrees with the Stirling-sum route."""
        self._check_range_l(l, n)
        return (l - self.alpha) / (self.theta + n)

    # -- structural (first size-biased pick) law, alpha in [0, 1) --------

    def expected_species_structural(self, n: int) -> float:
        """E[K_n] through the structural law: sum_{j<n} E[(1-P)^j].

        Each beta moment is the ratio (theta+alpha)_j / (theta+1)_j; the
        terms are positive and decreasing, so the sum is stable for large n
        (unlike the alternating binomial expansion of 1 - (1-p)^n).
        """
        self._require_beta_regime()
        self._check_size(n)
        j = np.arange(n - 1, dtype=float)
        increments = np.log(self.theta + self.alpha + j) - np.log(self.theta + 1.0 + j)
        log_terms = np.concatenate(([0.0], np.cumsum(increments)))
        return float(np.sum(np.exp(log_terms)))

    def _require_beta_regime(self):
        if self.alpha < 0.0:
            raise ValueError(
                "the beta structural form needs alpha in [0, 1); "
                "use the partition-side formulas for alpha < 0"
            )


def johnson_estimate(abs_alpha: float, s: int, l: int, n: int) -> float:
    """Johnson (1932)'s rule (l + |alpha|)/(n + |alpha| s).

    This is the discovery probability under a symmetric Dirichlet
    superpopulation with concentration |alpha| on s species, i.e.
    PD(-|alpha|, |alpha| s).
    """
    if not 0 < abs_alpha < math.inf:
        raise ValueError(f"abs_alpha must be finite and > 0, got {abs_alpha}")
    if s != int(s) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if not math.isfinite(abs_alpha * s):
        raise ValueError(f"|alpha|*s must be finite, got abs_alpha={abs_alpha}, s={s}")
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    return (l + abs_alpha) / (abs_alpha * s + n)


def jeffreys_estimate(s: int, l: int, n: int) -> float:
    """Jeffreys (1948)'s (l + 1)/(n + s): the uniform-prior case |alpha| = 1."""
    return johnson_estimate(1.0, s, l, n)
