"""The two-parameter Poisson-Dirichlet model PD(alpha, theta).

Weights take the separable form

    V(n, k) = (theta + alpha)_(k-1; step alpha) / (theta + 1)_(n-1)

for alpha in [0, 1) with theta > -alpha, or alpha < 0 with theta = |alpha|*s
for an integer number of species s (the symmetric Dirichlet model; Pitman
and Yor, 1997).  alpha = 0 is the Dirichlet process.

That g(k)/h(n) separability is what makes the exact Good-Turing discovery
probability collapse to the closed form (l - alpha)/(theta + n), the same
value the one-step predictive rule assigns, so conditioning on one species'
count or on the whole frequency vector gives identical answers here.

:class:`PitmanYor` answers ``exact_good_turing``, ``expected_count``,
``falling_factorial_moment`` and ``expected_species`` from the closed
forms of :mod:`goodturing.closed`, in O(1) or O(n) with no Stirling row.
The generic Stirling-sum route stays reachable as
``GibbsModel.<method>(model, ...)``, and ``exact_good_turing_row`` and
everything built on the weights (``eppf``, ``predict_old``,
``predict_new``, the urn) read ``log_weight_row`` as for any model.  The
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

import numpy as np

from . import closed
from .closed import jeffreys_estimate, johnson_estimate
from .gibbs import GibbsModel, impossible_count
from .specfun import log_rising

__all__ = ["PitmanYor", "johnson_estimate", "jeffreys_estimate"]


class PitmanYor(GibbsModel):
    """PD(alpha, theta), usable anywhere a GibbsModel is expected.

    For ``alpha < 0`` pass the species count ``s`` (theta is then inferred
    as |alpha|*s; passing an inconsistent theta as well is an error).
    """

    def __init__(self, alpha: float, theta: float | None = None, s: int | None = None):
        alpha, theta, s = closed.check_parameters(alpha, theta, s)
        super().__init__(alpha)
        self.theta = theta
        self.s = s

    def __repr__(self):
        if self.s is not None:
            return f"PitmanYor(alpha={self.alpha}, theta={self.theta}, s={self.s})"
        return f"PitmanYor(alpha={self.alpha}, theta={self.theta})"

    # -- weights ---------------------------------------------------------

    def log_weight_row(self, n: int, kmax: int) -> np.ndarray:
        """Whole row at once: a cumulative sum over log(theta + k*alpha).

        Entries are -inf for k > s when the species count s is finite, and
        from the first nonpositive factor on (theta may sit below |alpha| s
        by its accepted rounding).
        """
        self._check_row(n, kmax)
        k_top = kmax if self.s is None else min(kmax, self.s)  # so alpha * k stays finite
        factors = self.theta + self.alpha * np.arange(1, k_top, dtype=float)
        if self.alpha < 0.0:
            logs = np.log(np.where(factors > 0, factors, 1.0))
            logs[factors <= 0] = -np.inf
        else:
            logs = np.log(factors)  # theta + alpha > 0
        row = np.full(kmax, -np.inf)
        row[0] = 0.0
        np.cumsum(logs, out=row[1:k_top])
        return row - log_rising(self.theta + 1.0, n - 1)

    # -- closed forms ----------------------------------------------------

    def exact_good_turing(self, l: int, n: int) -> float:
        """(l - alpha) / (theta + n); ValueError, as on the Stirling route,
        when a count l < n is impossible (s = 1)."""
        estimate = self.exact_good_turing_closed(l, n)
        if self.s == 1 and l < n:
            raise impossible_count(l, n)
        return estimate

    def exact_good_turing_closed(self, l: int, n: int) -> float:
        """(l - alpha) / (theta + n), for every 1 <= l <= n."""
        self._check_range_l(l, n)
        return closed.discovery(self.alpha, self.theta, l, n)

    def expected_count(self, l: int, n: int) -> float:
        """E[C(l, n)] in closed form: the r = 1 falling moment."""
        self._check_range_l(l, n)
        return closed.falling_factorial_moment(self.alpha, self.theta, self.s, l, n, 1)

    def falling_factorial_moment(self, l: int, n: int, r: int) -> float:
        """The r-th falling moment of C(l, n) in closed form; zero when l*r > n."""
        self._check_moment(l, n, r)
        return closed.falling_factorial_moment(self.alpha, self.theta, self.s, l, n, r)

    def expected_species(self, n: int) -> float:
        """E[K_n] in closed form (:func:`goodturing.closed.expected_species`)."""
        self._check_size(n)
        return closed.expected_species(self.alpha, self.theta, self.s, n)

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

