"""Self-checking: every identity the library rests on, run as a suite.

Each check compares two independent computational routes to the same
quantity (closed form vs Stirling sums, recurrences vs integer-partition
enumeration in exact rationals, analytic moments vs Monte Carlo) and
reports the worst discrepancy seen.  The fast level keeps enumeration at
n <= 8 and skips simulation; the full level pushes one model through
n = 30 and adds seeded Monte Carlo runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import FinitePopulation, smoothed_count
from .gibbs import GibbsModel, TabularGibbsModel
from .oracle import oracle_moment_table, oracle_stirling
from .pitman_yor import PitmanYor, jeffreys_estimate, johnson_estimate
from .sampler import monte_carlo_moments
from .specfun import iter_stirling_log_rows, log_rising, logsumexp

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
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


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


def check_closed_vs_stirling(n_max: int) -> CheckResult:
    """Pitman-Yor discovery probability: Stirling-sum route vs (l-a)/(theta+n)."""
    worst = 0.0
    for model in _closed_grid():
        for n in range(1, n_max + 1):
            row = model.exact_good_turing_row(n)
            closed = (np.arange(1, n + 1) - model.alpha) / (model.theta + n)
            worst = max(worst, float(np.max(np.abs(row - closed) / closed)))
    return _tol_result("closed-vs-stirling", worst, 1e-9, f"rel err, n <= {n_max}")


def check_weight_recursion(n_max: int) -> CheckResult:
    """V(n,k) = (n - k a) V(n+1,k) + V(n+1,k+1) on Pitman-Yor weight rows."""
    models = _closed_grid() + [PitmanYor(0.0, 1.0), PitmanYor(-0.5, s=4), PitmanYor(-1.0, s=3)]
    worst = 0.0
    for model in models:
        for n in range(1, n_max + 1):
            r_n = model.log_weight_row(n, n)
            r_next = model.log_weight_row(n + 1, n + 1)
            ks = np.arange(1, n + 1, dtype=float)
            rhs = np.logaddexp(np.log(n - ks * model.alpha) + r_next[:n], r_next[1 : n + 1])
            mask = np.isfinite(r_n)
            if mask.any():
                worst = max(worst, float(np.max(np.abs(np.expm1(rhs[mask] - r_n[mask])))))
    return _tol_result("weight-recursion", worst, 1e-10, f"residual, n <= {n_max}")


def check_normalization(n_max: int) -> CheckResult:
    """sum_k V(n,k) S(n,k) = 1 in log space."""
    models = [
        PitmanYor(0.25, 0.5), PitmanYor(0.5, 10.0), PitmanYor(0.9, 0.5),
        PitmanYor(0.0, 1.0), PitmanYor(-0.5, s=4),
    ]
    worst = 0.0
    for model in models:
        for n, srow in enumerate(iter_stirling_log_rows(n_max, model.alpha)):
            if n == 0:
                continue
            total = logsumexp(model.log_weight_row(n, n) + srow[1:])
            worst = max(worst, abs(math.expm1(total)))
    return _tol_result("weight-normalization", worst, 1e-10, f"|sum - 1|, n <= {n_max}")


def check_stirling_enumeration(n_max: int) -> CheckResult:
    """Triangle recurrence vs the defining partition sum, in exact rationals."""
    worst = 0.0
    for alpha in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.9):
        rows = iter_stirling_log_rows(n_max, alpha)
        for n, srow in enumerate(rows):
            if n == 0:
                continue
            for k in range(1, n + 1):
                worst = max(worst, _rel_err(oracle_stirling(n, k, alpha), math.exp(srow[k])))
    return _tol_result("stirling-enumeration", worst, 1e-10, f"rel err, n <= {n_max}")


def _compare_tables(model: GibbsModel, tables: dict, r_max: int) -> float:
    """Worst relative error between enumerated and analytic moments."""
    worst = 0.0
    sizes = sorted(tables)
    for n in sizes:
        t = tables[n]
        worst = max(worst, abs(t["eppf_total"] - 1.0))
        worst = max(worst, _rel_err(t["expected_k"], model.expected_species(n)))
        for l in range(1, n + 1):
            worst = max(worst, _rel_err(t["expected_cl"][l], model.expected_count(l, n)))
            for r in range(2, r_max + 1):
                worst = max(
                    worst,
                    _rel_err(t["falling"][r][l], model.falling_factorial_moment(l, n, r)),
                )
    for n in sizes:
        if n + 1 not in tables:
            continue
        den, num = tables[n]["expected_cl"], tables[n + 1]["expected_cl"]
        for l in range(1, n + 1):
            if den[l] <= 0.0:
                continue  # conditioning on an impossible count; both routes refuse
            ratio = (l + 1) / (n + 1) * num[l + 1] / den[l]
            worst = max(worst, _rel_err(ratio, model.exact_good_turing(l, n)))
    return worst


def check_partition_moments(n_max: int) -> CheckResult:
    """EPPF total, E[K], E[C_l], falling moments, and the count-ratio identity
    against enumeration, over the Pitman-Yor grid including alpha <= 0."""
    worst = 0.0
    for model in _oracle_grid():
        tables = {n: oracle_moment_table(model, n, r_max=3) for n in range(1, n_max + 1)}
        worst = max(worst, _compare_tables(model, tables, r_max=3))
    return _tol_result("partition-moments", worst, 1e-10, f"rel err, n <= {n_max}")


def check_tabular_weights(n_models: int) -> CheckResult:
    """Random numeric weight tables: enumeration vs the generic Gibbs formulas."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(n_models):
        alpha = float(rng.uniform(-1.0, 0.95))
        model = TabularGibbsModel.from_bottom_row(alpha, rng.uniform(0.5, 2.0, size=8))
        tables = {n: oracle_moment_table(model, n, r_max=2) for n in range(1, 9)}
        worst = max(worst, _compare_tables(model, tables, r_max=2))
    return _tol_result("tabular-weights", worst, 1e-10, f"rel err, {n_models} tables")


def check_fixed_population(n_pops: int) -> CheckResult:
    """Good's identity: posterior-mean form vs count-ratio form, plus the
    posterior-weighted frequency, on random populations and a pinned one."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    pinned = FinitePopulation([0.5, 0.3, 0.2])
    worst = max(worst, _rel_err(pinned.exact_good_turing(1, 2), 0.22 / 0.62))
    for _ in range(n_pops):
        pop = FinitePopulation(rng.dirichlet(np.ones(int(rng.integers(2, 21)))))
        n = int(rng.integers(1, 13))
        l = int(rng.integers(1, n + 1))
        direct = pop.exact_good_turing(l, n)
        ratio = (l + 1) / (n + 1) * pop.expected_count(l + 1, n + 1) / pop.expected_count(l, n)
        posterior_mean = float(np.dot(pop.probs, pop.posterior(l, n)))
        worst = max(worst, _rel_err(direct, ratio), _rel_err(direct, posterior_mean))
    return _tol_result("fixed-population", worst, 1e-12, f"rel err, {n_pops} populations")


def check_johnson_jeffreys(n_cases: int) -> CheckResult:
    """Classical estimators as exact special cases of the closed form."""
    rng = np.random.default_rng(_SEED)
    bad = 0
    for _ in range(n_cases):
        s = int(rng.integers(1, 51))
        n = int(rng.integers(1, 201))
        l = int(rng.integers(1, n + 1))
        a = float(rng.uniform(0.1, 3.0))
        if PitmanYor(-a, s=s).exact_good_turing_closed(l, n) != johnson_estimate(a, s, l, n):
            bad += 1
        if PitmanYor(-1.0, s=s).exact_good_turing_closed(l, n) != jeffreys_estimate(s, l, n):
            bad += 1
    return CheckResult(
        "johnson-jeffreys",
        bad == 0,
        f"exact equality: {bad} mismatches in {2 * n_cases} cases",
    )


def check_smoothing_chain(l_max: int) -> CheckResult:
    """(l+1)/n * c'_(l+1) = (k/n) a (1-a)_l / l! across the smoothed counts."""
    worst = 0.0
    n, k_n = 100, 10
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for l in range(l_max + 1):
            lhs = (l + 1) / n * smoothed_count(alpha, k_n, l + 1)
            rhs = k_n / n * alpha * math.exp(log_rising(1.0 - alpha, l) - math.lgamma(l + 1.0))
            worst = max(worst, _rel_err(lhs, rhs))
    return _tol_result("smoothing-chain", worst, 1e-12, f"rel err, l <= {l_max}")


def check_structural_species(n_max: int) -> CheckResult:
    """E[K_n] through the structural distribution vs through the count sums."""
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75):
        model = PitmanYor(alpha, 1.0)
        for n in range(1, n_max + 1):
            worst = max(
                worst,
                _rel_err(model.expected_species_structural(n), model.expected_species(n)),
            )
    return _tol_result("structural-species", worst, 1e-8, f"rel err, n <= {n_max}")


def check_deep_enumeration() -> CheckResult:
    """One model pushed to n = 30: 5604 integer partitions, 8.5e23 set partitions."""
    model = PitmanYor(0.5, 0.5)
    tables = {n: oracle_moment_table(model, n, r_max=2) for n in (29, 30)}
    worst = _compare_tables(model, tables, r_max=2)
    return _tol_result("deep-enumeration", worst, 1e-10, "rel err, n in {29, 30}")


def check_monte_carlo() -> CheckResult:
    """Simulated moments within 4 standard errors of the analytic values."""
    reps, n, l_top = 20_000, 10, 5
    worst_z = 0.0

    def z_scores(table, exact_k, exact_cl):
        nonlocal worst_z
        zs = [abs(table.mean("K") - exact_k) / table.se("K")]
        for l in range(1, l_top + 1):
            se = table.se(f"C_{l}")
            diff = abs(table.mean(f"C_{l}") - exact_cl[l - 1])
            zs.append(diff / se if se > 0 else (0.0 if diff == 0 else math.inf))
        worst_z = max(worst_z, max(zs))

    model = PitmanYor(0.5, 0.5)
    mt = monte_carlo_moments(model, n, reps, seed=_SEED, l_max=l_top)
    z_scores(mt, model.expected_species(n), [model.expected_count(l, n) for l in range(1, l_top + 1)])
    pop = FinitePopulation([0.5, 0.3, 0.2])
    mt = monte_carlo_moments(pop, n, reps, seed=_SEED, l_max=l_top)
    z_scores(mt, pop.expected_species(n), [pop.expected_count(l, n) for l in range(1, l_top + 1)])
    detail = f"worst |z| {worst_z:.2f} (gate 4.0, reps {reps})"
    return CheckResult("monte-carlo", worst_z <= 4.0, detail)


# -- suite driver --------------------------------------------------------


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the verification suite; returns one CheckResult per check."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    full = level == "full"
    results = [
        check_closed_vs_stirling(100 if full else 40),
        check_weight_recursion(100 if full else 60),
        check_normalization(200 if full else 100),
        check_stirling_enumeration(10 if full else 8),
        check_partition_moments(8),
        check_tabular_weights(20 if full else 8),
        check_fixed_population(1000 if full else 200),
        check_johnson_jeffreys(100),
        check_smoothing_chain(100),
        check_structural_species(200 if full else 120),
    ]
    if full:
        results.append(check_deep_enumeration())
        results.append(check_monte_carlo())
    return results
