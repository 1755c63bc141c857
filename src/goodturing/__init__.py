"""Discovery probabilities for species sampling.

How likely is it that the next observation belongs to a species already
seen exactly l times?  This package computes that probability three ways:

* empirically, from frequency-of-frequencies counts alone (the classical
  Good-Turing estimate and its smoothed variant),
* exactly, when the population frequencies are known (Good, 1953),
* exactly, when the population is modeled by a Gibbs-type prior, where
  the estimator reduces to weighted generalized Stirling sums and, for
  Pitman-Yor models, to the closed form (l - alpha) / (theta + n).

Everything is cross-checked: integer-partition enumeration in exact
rationals, n <= 40 (:mod:`goodturing.oracle`), seeded simulation
(:mod:`goodturing.sampler`), and the identity suites behind
``goodturing verify``.

Importing the package loads no submodule: each public name is imported
from its submodule on first use (PEP 562), so code that needs only the
count-based estimators never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_SOURCES = {
    "FinitePopulation": "empirical",
    "FrequencyCounts": "counts",
    "UndefinedEstimateError": "counts",
    "good_turing_approx": "counts",
    "good_turing_ratio": "counts",
    "smoothed_count": "counts",
    "smoothed_discovery": "counts",
    "Composition": "gibbs",
    "GibbsModel": "gibbs",
    "TabularGibbsModel": "gibbs",
    "PitmanYor": "pitman_yor",
    "johnson_estimate": "closed",
    "jeffreys_estimate": "closed",
    "SampleSummary": "sampler",
    "MomentTable": "sampler",
    "sample_gibbs": "sampler",
    "sample_population": "sampler",
    "monte_carlo_moments": "sampler",
    "log_rising": "specfun",
    "StirlingRows": "specfun",
    "CheckResult": "verify",
    "run_checks": "verify",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
