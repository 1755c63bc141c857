"""Discovery probabilities for species sampling.

How likely is it that the next observation belongs to a species already
seen exactly l times?  This package computes that probability three ways:

* empirically, from frequency-of-frequencies counts alone (the classical
  Good-Turing estimate and its smoothed variant),
* exactly, when the population frequencies are known (Good, 1953),
* exactly, when the population is modeled by a Gibbs-type prior, where
  the estimator reduces to weighted generalized Stirling sums and, for
  Pitman-Yor models, to the closed form (l - alpha) / (theta + n).

Everything is cross-checked: brute-force partition enumeration at small n
(:mod:`goodturing.oracle`), seeded simulation (:mod:`goodturing.sampler`),
and the identity suites behind ``goodturing verify``.
"""

from .empirical import (
    FinitePopulation,
    FrequencyCounts,
    UndefinedEstimateError,
    good_turing_approx,
    good_turing_ratio,
    smoothed_count,
    smoothed_discovery,
)
from .gibbs import Composition, GibbsModel, TabularGibbsModel
from .pitman_yor import PitmanYor, jeffreys_estimate, johnson_estimate
from .sampler import (
    MomentTable,
    SampleSummary,
    monte_carlo_moments,
    sample_gibbs,
    sample_population,
)
from .signedlog import SignedLog, signed_log_sum
from .specfun import (
    StirlingRows,
    log_comb,
    log_rising,
    rising_factorial,
    rising_factorial_step,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "FinitePopulation",
    "FrequencyCounts",
    "UndefinedEstimateError",
    "good_turing_approx",
    "good_turing_ratio",
    "smoothed_count",
    "smoothed_discovery",
    "Composition",
    "GibbsModel",
    "TabularGibbsModel",
    "PitmanYor",
    "johnson_estimate",
    "jeffreys_estimate",
    "SampleSummary",
    "MomentTable",
    "sample_gibbs",
    "sample_population",
    "monte_carlo_moments",
    "SignedLog",
    "signed_log_sum",
    "rising_factorial",
    "rising_factorial_step",
    "log_rising",
    "log_comb",
    "StirlingRows",
    "CheckResult",
    "run_checks",
]
