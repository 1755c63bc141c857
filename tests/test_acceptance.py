"""Acceptance suite: the eight headline guarantees, each printing one line.

Every test checks a full identity or agreement claim at its stated
tolerance and budgeted runtime, and reports a single pass/fail summary
line on the terminal even while pytest is capturing output.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from goodturing.cli import main
from goodturing.empirical import (
    FinitePopulation,
    smoothed_count,
    smoothed_discovery,
)
from goodturing.oracle import oracle_moment_table, oracle_stirling
from goodturing.pitman_yor import PitmanYor, jeffreys_estimate, johnson_estimate
from goodturing.sampler import monte_carlo_moments
from goodturing.specfun import StirlingRows, iter_stirling_log_rows


def _announce(capsys, num, ok, text):
    with capsys.disabled():
        print(f"acceptance {num}/8 {'PASS' if ok else 'FAIL'}: {text}")


def _err(got, want):
    """Relative error, falling back to absolute when the target is zero."""
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def test_criterion_1_closed_form_matches_stirling_sums(capsys):
    # (l - alpha)/(theta + n) against the weighted-Stirling ratio, every
    # l <= n <= 100, twenty parameter pairs
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        for theta in (-alpha / 2, 0.5, 1.0, 10.0):
            model = PitmanYor(alpha, theta)
            for n in range(1, 101):
                got = model.exact_good_turing_row(n)
                want = (np.arange(1, n + 1) - alpha) / (theta + n)
                assert np.all(np.isfinite(got))
                worst = max(worst, float(np.max(np.abs(got - want) / want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _announce(
        capsys, 1, ok,
        f"closed form vs Stirling sums, 20 models, n <= 100: "
        f"max rel err {worst:.2e}, {elapsed:.2f} s",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_enumeration_oracle_agreement(capsys):
    # exact integer-partition sums against every module formula, n <= 8
    t0 = time.perf_counter()
    worst = 0.0

    for alpha in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.9):
        tri = StirlingRows(alpha)
        for n in range(1, 9):
            for k in range(1, n + 1):
                worst = max(
                    worst, _err(oracle_stirling(n, k, alpha), math.exp(tri.log_row(n)[k]))
                )

    models = [
        PitmanYor(alpha, theta)
        for theta in (0.5, 1.0)
        for alpha in (0.0, 0.25, 0.5, 0.9)
    ]
    # alpha < 0 forces theta = |alpha| s: theta = 0.5 and 1 are reachable for
    # alpha = -0.5; only theta = 1 for alpha = -1
    models += [PitmanYor(-0.5, s=1), PitmanYor(-0.5, s=2), PitmanYor(-1.0, s=1)]

    for model in models:
        tables = {n: oracle_moment_table(model, n, r_max=3) for n in range(1, 9)}
        for n, tab in tables.items():
            worst = max(worst, abs(tab["eppf_total"] - 1.0))
            worst = max(worst, _err(tab["expected_k"], model.expected_species(n)))
            for l in range(1, n + 1):
                worst = max(
                    worst, _err(tab["expected_cl"][l], model.expected_count(l, n))
                )
                for r in (2, 3):
                    worst = max(
                        worst,
                        _err(
                            tab["falling"][r][l],
                            model.falling_factorial_moment(l, n, r),
                        ),
                    )
        # discovery-probability ratio, through enumerated counts at n and n+1
        for n in range(1, 8):
            for l in range(1, n + 1):
                den = tables[n]["expected_cl"][l]
                if den <= 0.0:
                    continue  # finite-support models: impossible counts
                by_oracle = (l + 1) / (n + 1) * tables[n + 1]["expected_cl"][l + 1] / den
                worst = max(worst, _err(by_oracle, model.exact_good_turing(l, n)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _announce(
        capsys, 2, ok,
        f"enumeration oracle vs formulas, n <= 8, 11 models: "
        f"max err {worst:.2e}, {elapsed:.2f} s",
    )
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_weight_recursion_and_normalization(capsys):
    models = [
        PitmanYor(0.5, 0.5),
        PitmanYor(0.25, 10.0),
        PitmanYor(0.0, 1.0),
        PitmanYor(0.9, -0.3),
        PitmanYor(-0.5, s=25),
    ]
    worst_rec = 0.0
    for model in models:
        rows = {n: model.log_weight_row(n, n) for n in range(1, 102)}
        for n in range(1, 101):
            lw, nxt = rows[n], rows[n + 1]
            ks = np.arange(1, n + 1, dtype=float)
            with np.errstate(invalid="ignore"):
                rhs = np.logaddexp(np.log(n - ks * model.alpha) + nxt[:n], nxt[1:])
            mask = np.isfinite(lw)
            worst_rec = max(
                worst_rec, float(np.max(np.abs(np.expm1(rhs[mask] - lw[mask]))))
            )

    worst_norm = 0.0
    for model in models:
        for n, srow in enumerate(iter_stirling_log_rows(200, model.alpha)):
            if n == 0:
                continue
            total = logsumexp(model.log_weight_row(n, n) + srow[1:])
            worst_norm = max(worst_norm, abs(math.expm1(total)))

    ok = worst_rec <= 1e-10 and worst_norm <= 1e-10
    _announce(
        capsys, 3, ok,
        f"weight recursion (n <= 100) and normalization (n <= 200): "
        f"residuals {worst_rec:.2e} / {worst_norm:.2e}",
    )
    assert worst_rec <= 1e-10
    assert worst_norm <= 1e-10


def test_criterion_4_fixed_population_two_forms(capsys):
    pinned = FinitePopulation([0.5, 0.3, 0.2])
    direct = pinned.exact_good_turing(1, 2)
    ratio = 2 / 3 * pinned.expected_count(2, 3) / pinned.expected_count(1, 2)
    pin_ok = direct == pytest.approx(0.22 / 0.62, rel=1e-13) and ratio == pytest.approx(
        0.22 / 0.62, rel=1e-13
    )

    rng = np.random.default_rng(20230815)
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(1, 21))
        n = int(rng.integers(1, 13))
        p = rng.dirichlet(np.full(s, 0.7))
        pop = FinitePopulation(p / p.sum())
        for l in range(1, n + 1):
            if pop.s == 1 and l < n:
                continue  # seeing the only species fewer than n times is impossible
            a = pop.exact_good_turing(l, n)
            b = (l + 1) / (n + 1) * pop.expected_count(l + 1, n + 1) / pop.expected_count(l, n)
            worst = max(worst, _err(b, a))

    ok = pin_ok and worst <= 1e-12
    _announce(
        capsys, 4, ok,
        f"posterior-mean vs count-ratio forms, 1000 populations: "
        f"max rel err {worst:.2e}, pinned value {'ok' if pin_ok else 'WRONG'}",
    )
    assert pin_ok
    assert worst <= 1e-12


def test_criterion_5_johnson_and_jeffreys_exact(capsys):
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(100):
        s = int(rng.integers(1, 60))
        n = int(rng.integers(1, 120))
        l = int(rng.integers(1, n + 1))
        a = float(rng.uniform(0.05, 3.0))
        if johnson_estimate(a, s, l, n) != PitmanYor(-a, s=s).exact_good_turing_closed(l, n):
            mismatches += 1
        if jeffreys_estimate(s, l, n) != PitmanYor(-1.0, s=s).exact_good_turing_closed(l, n):
            mismatches += 1
    ok = mismatches == 0
    _announce(
        capsys, 5, ok,
        f"Johnson and Jeffreys rules vs finite-Dirichlet closed form, "
        f"100 random cases: {mismatches} float mismatches",
    )
    assert mismatches == 0


def test_criterion_6_smoothing_chain(capsys):
    k_n, n = 17, 53
    worst = 0.0
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        for l in range(0, 101):
            lhs = (l + 1) / n * smoothed_count(alpha, k_n, l + 1)
            rhs = smoothed_discovery(alpha, k_n, n, l)
            worst = max(worst, _err(lhs, rhs))
    ok = worst <= 1e-12
    _announce(
        capsys, 6, ok,
        f"smoothed counts feed the plug-in estimator, l <= 100: max rel err {worst:.2e}",
    )
    assert worst <= 1e-12


def test_criterion_7_structural_species_consistency(capsys):
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75):
        model = PitmanYor(alpha, 1.0)
        for n in range(1, 201):
            worst = max(
                worst,
                _err(model.expected_species_structural(n), model.expected_species(n)),
            )
    # other concentrations, spot-checked at the extremes
    for alpha in (0.0, 0.5):
        for theta in (0.5, 10.0):
            model = PitmanYor(alpha, theta)
            for n in (1, 50, 200):
                worst = max(
                    worst,
                    _err(model.expected_species_structural(n), model.expected_species(n)),
                )
    ok = worst <= 1e-8
    _announce(
        capsys, 7, ok,
        f"size-biased route vs partition route for E[K_n], n <= 200: max rel err {worst:.2e}",
    )
    assert worst <= 1e-8


def test_criterion_8_monte_carlo_agreement(capsys):
    t0 = time.perf_counter()
    seed, reps = 12345, 100_000
    sources = [
        ("PD(0.5,0.5)", PitmanYor(0.5, 0.5)),
        ("population", FinitePopulation([0.5, 0.3, 0.2])),
    ]
    worst_z = 0.0
    for name, source in sources:
        for n in (10, 50):
            table = monte_carlo_moments(source, n, reps, seed, l_max=5)
            analytic = [source.expected_species(n)] + [
                source.expected_count(l, n) for l in range(1, 6)
            ]
            for (label, mean, se), want in zip(table.rows(), analytic):
                diff = abs(mean - want)
                if diff == 0.0:
                    continue
                assert se > 0.0, f"{name} n={n} {label}: no spread but mean is off"
                worst_z = max(worst_z, diff / se)

    # identical seeds give byte-identical reports
    argv = [
        "simulate", "--alpha", "0.5", "--theta", "0.5",
        "--n", "10", "--reps", str(reps), "--seed", str(seed), "--l", "5",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    stable = first == second and len(first) > 0

    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and stable and elapsed < 60.0
    _announce(
        capsys, 8, ok,
        f"100k-replicate moments within 4 SE, reports byte-stable: "
        f"max z {worst_z:.2f}, {elapsed:.1f} s",
    )
    assert worst_z <= 4.0
    assert stable
    assert elapsed < 60.0
