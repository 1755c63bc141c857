"""Self-checking: every identity the library rests on, run as a suite.

Each check compares two independent computational routes to the same
quantity (closed form vs Stirling sums, recurrences vs integer-partition
enumeration in exact rationals, analytic moments vs Monte Carlo) and
reports the worst discrepancy seen, under one rule (:func:`_worse`): a
NaN or infinite discrepancy fails.  A check called with no argument runs
the full level's cases, the pytest acceptance criteria's; ``full=False``
keeps enumeration at n <= 8 and the smaller ranges.  Only the full level
pushes one model through n = 30 and adds 100 000-replicate Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import FinitePopulation, smoothed_count, smoothed_discovery
from .gibbs import GibbsModel, TabularGibbsModel
from .oracle import oracle_moment_table, oracle_stirling
from .pitman_yor import PitmanYor, jeffreys_estimate, johnson_estimate
from .sampler import SE_GATE, monte_carlo_moments
from .specfun import StirlingRows, iter_stirling_log_rows, log_rising

__all__ = ["CheckResult", "run_checks", "LEVELS"]

LEVELS = ("fast", "full")

#: seed for every randomized check; fixed so the suite is deterministic
_SEED = 20230815


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when a == b is finite,
    NaN when either side is NaN or infinite."""
    diff = abs(a - b)
    return diff / max(abs(a), abs(b)) if diff else diff


def _worse(worst: float, *errs) -> float:
    """The running worst: the largest of ``worst`` and ``errs`` (numbers or
    arrays).  NaN outranks every number and stays, so a NaN or infinite
    discrepancy fails every gate."""
    for err in errs:
        err = float(np.max(err)) if isinstance(err, np.ndarray) else err
        if math.isnan(err) or err > worst:
            worst = err
    return worst


def _tol_result(name: str, worst: float, tol: float, what: str) -> CheckResult:
    detail = f"{what}: worst {worst:.2e} (tol {tol:.0e})"
    return CheckResult(name, worst <= tol, detail)


def _closed_grid():
    return [
        PitmanYor(alpha, theta)
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9)
        for theta in (-alpha / 2, 0.5, 1.0, 10.0)
    ]


def _oracle_grid():
    models = [
        PitmanYor(alpha, theta)
        for alpha in (0.0, 0.25, 0.5, 0.9)
        for theta in (0.5, 1.0)
    ]
    # alpha < 0 forces theta = |alpha| s; (-1, 0.5) has no integer s
    models += [PitmanYor(-0.5, s=1), PitmanYor(-0.5, s=2), PitmanYor(-1.0, s=1)]
    return models


# -- individual checks ---------------------------------------------------


def check_closed_vs_stirling(full: bool = True) -> CheckResult:
    """Pitman-Yor discovery probability: Stirling-sum route vs (l-a)/(theta+n)."""
    n_max = 100 if full else 40
    worst = 0.0
    for model in _closed_grid():
        for n in range(1, n_max + 1):
            row = model.exact_good_turing_row(n)
            closed = (np.arange(1, n + 1) - model.alpha) / (model.theta + n)
            worst = _worse(worst, np.abs(row - closed) / closed)
    return _tol_result("closed-vs-stirling", worst, 1e-9, f"rel err, n <= {n_max}")


def check_weight_recursion(full: bool = True) -> CheckResult:
    """V(n,k) = (n - k a) V(n+1,k) + V(n+1,k+1) on Pitman-Yor weight rows."""
    n_max = 100 if full else 60
    models = _closed_grid() + [PitmanYor(0.0, 1.0), PitmanYor(0.9, -0.3)]
    models += [PitmanYor(-0.5, s=4), PitmanYor(-0.5, s=25), PitmanYor(-1.0, s=3)]
    worst = 0.0
    for model in models:
        r_next = model.log_weight_row(1, 1)
        for n in range(1, n_max + 1):
            r_n, r_next = r_next, model.log_weight_row(n + 1, n + 1)
            ks = np.arange(1, n + 1, dtype=float)
            rhs = np.logaddexp(np.log(n - ks * model.alpha) + r_next[:n], r_next[1 : n + 1])
            nonzero = r_n != -np.inf  # V(n, 1) > 0, so never empty
            worst = _worse(worst, np.abs(np.expm1(rhs[nonzero] - r_n[nonzero])))
    return _tol_result("weight-recursion", worst, 1e-10, f"residual, n <= {n_max}")


def check_normalization(full: bool = True) -> CheckResult:
    """sum_k V(n,k) S(n,k) = 1.  The terms are P(K_n = k) <= 1, summed by
    math.fsum with one rounding, so the sum shares no code with the model
    log-sums."""
    n_max = 200 if full else 100
    models = [PitmanYor(alpha, theta) for alpha in (0.25, 0.5) for theta in (0.5, 10.0)]
    models += [PitmanYor(0.9, 0.5), PitmanYor(0.9, -0.3), PitmanYor(0.0, 1.0)]
    models += [PitmanYor(-0.5, s=4), PitmanYor(-0.5, s=25)]
    worst = 0.0
    for model in models:
        for n, srow in enumerate(iter_stirling_log_rows(n_max, model.alpha)):
            if n == 0:
                continue
            total = math.fsum(np.exp(model.log_weight_row(n, n) + srow[1:]).tolist())
            worst = _worse(worst, abs(total - 1.0))
    return _tol_result("weight-normalization", worst, 1e-10, f"|sum - 1|, n <= {n_max}")


def check_stirling_enumeration(full: bool = True) -> CheckResult:
    """Cached recurrence rows (StirlingRows) vs the defining partition sums,
    in exact rationals."""
    n_max = 10 if full else 8
    worst = 0.0
    for alpha in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.9):
        rows = StirlingRows(alpha)
        for n in range(1, n_max + 1):
            srow, exact = rows.log_row(n), oracle_stirling(n, alpha)
            for k in range(1, n + 1):
                worst = _worse(worst, _rel_err(exact[k], math.exp(srow[k])))
    return _tol_result("stirling-enumeration", worst, 1e-10, f"rel err, n <= {n_max}")


def _compare_tables(model: GibbsModel, tables: dict, r_max: int) -> float:
    """Worst relative error between enumerated and analytic moments."""
    worst = 0.0
    sizes = sorted(tables)
    for n in sizes:
        t = tables[n]
        worst = _worse(worst, abs(t["eppf_total"] - 1.0))
        worst = _worse(worst, _rel_err(t["expected_k"], model.expected_species(n)))
        for l in range(1, n + 1):
            worst = _worse(worst, _rel_err(t["expected_cl"][l], model.expected_count(l, n)))
            for r in range(2, r_max + 1):
                worst = _worse(worst, _rel_err(t["falling"][r][l], model.falling_factorial_moment(l, n, r)))
    for n in sizes:
        if n + 1 not in tables:
            continue
        den, num = tables[n]["expected_cl"], tables[n + 1]["expected_cl"]
        for l in range(1, n + 1):
            if den[l] <= 0.0:
                continue  # conditioning on an impossible count; both routes refuse
            ratio = (l + 1) / (n + 1) * num[l + 1] / den[l]
            worst = _worse(worst, _rel_err(ratio, model.exact_good_turing(l, n)))
    return worst


def check_partition_moments() -> CheckResult:
    """EPPF total, E[K], E[C_l], falling moments, and the count-ratio identity
    against enumeration, over the Pitman-Yor grid including alpha <= 0."""
    worst = 0.0
    for model in _oracle_grid():
        tables = {n: oracle_moment_table(model, n, r_max=3) for n in range(1, 9)}
        worst = _worse(worst, _compare_tables(model, tables, r_max=3))
    return _tol_result("partition-moments", worst, 1e-10, "rel err, n <= 8")


def check_tabular_weights(full: bool = True) -> CheckResult:
    """Random numeric weight tables: enumeration vs the generic Gibbs formulas."""
    n_models = 20 if full else 8
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(n_models):
        alpha = float(rng.uniform(-1.0, 0.95))
        model = TabularGibbsModel.from_bottom_row(alpha, rng.uniform(0.5, 2.0, size=8))
        tables = {n: oracle_moment_table(model, n, r_max=2) for n in range(1, 9)}
        worst = _worse(worst, _compare_tables(model, tables, r_max=2))
    return _tol_result("tabular-weights", worst, 1e-10, f"rel err, {n_models} tables")


def check_fixed_population(full: bool = True) -> CheckResult:
    """Good's identity: posterior-mean form vs count-ratio form, plus the
    posterior-weighted frequency, at every possible l of random
    populations; and both forms at a pinned value."""
    n_pops = 1000 if full else 200
    pinned = FinitePopulation([0.5, 0.3, 0.2])
    pin_ratio = 2 / 3 * pinned.expected_count(2, 3) / pinned.expected_count(1, 2)
    pin_worst = _worse(0.0, *(_rel_err(x, 0.22 / 0.62) for x in (pinned.exact_good_turing(1, 2), pin_ratio)))
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(n_pops):
        s = int(rng.integers(1, 21))
        n = int(rng.integers(1, 13))
        p = rng.dirichlet(np.full(s, 0.7))
        pop = FinitePopulation(p / p.sum())
        for l in range(1, n + 1):
            if s == 1 and l < n:
                continue  # seeing the only species fewer than n times is impossible
            direct = pop.exact_good_turing(l, n)
            ratio = (l + 1) / (n + 1) * pop.expected_count(l + 1, n + 1) / pop.expected_count(l, n)
            posterior_mean = float(np.dot(pop.probs, pop.posterior(l, n)))
            worst = _worse(worst, _rel_err(direct, ratio), _rel_err(direct, posterior_mean))
    detail = (
        f"rel err, {n_pops} populations, every l: worst {worst:.2e} (tol 1e-12); "
        f"pinned 0.22/0.62, both forms: worst {pin_worst:.2e} (tol 1e-13)"
    )
    return CheckResult("fixed-population", worst <= 1e-12 and pin_worst <= 1e-13, detail)


def check_johnson_jeffreys() -> CheckResult:
    """Classical estimators as exact special cases of the closed form."""
    rng = np.random.default_rng(_SEED)
    bad = 0
    for _ in range(100):
        s = int(rng.integers(1, 60))
        n = int(rng.integers(1, 201))
        l = int(rng.integers(1, n + 1))
        a = float(rng.uniform(0.05, 3.0))
        if PitmanYor(-a, s=s).exact_good_turing_closed(l, n) != johnson_estimate(a, s, l, n):
            bad += 1
        if PitmanYor(-1.0, s=s).exact_good_turing_closed(l, n) != jeffreys_estimate(s, l, n):
            bad += 1
    return CheckResult("johnson-jeffreys", bad == 0, f"exact equality: {bad} mismatches in 200 cases")


def check_smoothing_chain() -> CheckResult:
    """(l+1)/n * c'_(l+1) across the smoothed counts, against
    smoothed_discovery and against the closed (k/n) a (1-a)_l / l!."""
    worst = 0.0
    for k_n, n in ((10, 100), (17, 53)):
        for alpha in (0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9):
            for l in range(101):
                lhs = (l + 1) / n * smoothed_count(alpha, k_n, l + 1)
                closed = k_n / n * alpha * math.exp(log_rising(1.0 - alpha, l) - math.lgamma(l + 1.0))
                plug_in = smoothed_discovery(alpha, k_n, n, l)
                worst = _worse(worst, _rel_err(lhs, closed), _rel_err(lhs, plug_in))
    return _tol_result("smoothing-chain", worst, 1e-12, "rel err, l <= 100")


def check_structural_species(full: bool = True) -> CheckResult:
    """E[K_n] through the structural distribution vs through the count sums:
    every n at theta = 1, and spot checks at theta 0.5 and 10."""
    n_max = 200 if full else 120
    cases = [(PitmanYor(alpha, 1.0), range(1, n_max + 1)) for alpha in (0.0, 0.25, 0.5, 0.75)]
    cases += [(PitmanYor(alpha, theta), (1, 50, n_max)) for alpha in (0.0, 0.5) for theta in (0.5, 10.0)]
    worst = 0.0
    for model, sizes in cases:
        for n in sizes:
            worst = _worse(worst, _rel_err(model.expected_species_structural(n), model.expected_species(n)))
    return _tol_result("structural-species", worst, 1e-8, f"rel err, n <= {n_max}")


def check_deep_enumeration() -> CheckResult:
    """One model pushed to n = 30: 5604 integer partitions, 8.5e23 set partitions."""
    model = PitmanYor(0.5, 0.5)
    tables = {n: oracle_moment_table(model, n, r_max=2) for n in (29, 30)}
    worst = _compare_tables(model, tables, r_max=2)
    return _tol_result("deep-enumeration", worst, 1e-10, "rel err, n in {29, 30}")


def check_monte_carlo() -> CheckResult:
    """Simulated K and C_1..C_5 within 4 standard errors of the analytic values."""
    reps, l_top = 100_000, 5
    worst_z = 0.0
    for source in (PitmanYor(0.5, 0.5), FinitePopulation([0.5, 0.3, 0.2])):
        for n in (10, 50):
            table = monte_carlo_moments(source, n, reps, seed=_SEED, l_max=l_top)
            exact = [source.expected_species(n)] + [source.expected_count(l, n) for l in range(1, l_top + 1)]
            worst_z = _worse(worst_z, *(table.z(label, x) for label, x in zip(table.labels, exact)))
    detail = f"worst |z| {worst_z:.2f} (gate {SE_GATE}, reps {reps}, n in {{10, 50}})"
    return CheckResult("monte-carlo", worst_z <= SE_GATE, detail)


# -- suite driver --------------------------------------------------------


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the verification suite; returns one CheckResult per check."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    full = level == "full"
    results = [
        check_closed_vs_stirling(full),
        check_weight_recursion(full),
        check_normalization(full),
        check_stirling_enumeration(full),
        check_partition_moments(),
        check_tabular_weights(full),
        check_fixed_population(full),
        check_johnson_jeffreys(),
        check_smoothing_chain(),
        check_structural_species(full),
    ]
    if full:
        results += [check_deep_enumeration(), check_monte_carlo()]
    return results
