import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from goodturing.empirical import (
    FinitePopulation,
    FrequencyCounts,
    UndefinedEstimateError,
    good_turing_approx,
    good_turing_ratio,
    smoothed_count,
    smoothed_discovery,
)


@pytest.fixture
def fc():
    # n = 7 observations, k = 5 species
    return FrequencyCounts({1: 3, 2: 2})


class TestFrequencyCounts:
    def test_from_sample(self):
        fc = FrequencyCounts.from_sample(["a", "b", "a", "c"])
        assert dict(fc.items()) == {1: 2, 2: 1}
        assert fc.n == 4 and fc.k == 3

    def test_from_sample_single_species(self):
        fc = FrequencyCounts.from_sample(["a", "a", "a"])
        assert dict(fc.items()) == {3: 1}
        assert fc.n == 3 and fc.k == 1

    def test_absent_keys_are_zero(self, fc):
        assert fc.count(1) == 3
        assert fc.count(5) == 0

    def test_equality(self):
        assert FrequencyCounts({2: 1, 1: 2}) == FrequencyCounts({1: 2, 2: 1})
        assert FrequencyCounts({1: 1}) != FrequencyCounts({2: 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyCounts({})
        with pytest.raises(ValueError):
            FrequencyCounts({0: 2})
        with pytest.raises(ValueError):
            FrequencyCounts({-1: 2})
        with pytest.raises(ValueError):
            FrequencyCounts({1: 0})
        with pytest.raises(ValueError):
            FrequencyCounts({1.5: 2})
        with pytest.raises(ValueError):
            FrequencyCounts.from_sample([])

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_totals_consistent(self, labels):
        fc = FrequencyCounts.from_sample(labels)
        assert fc.n == sum(l * c for l, c in fc.items()) == len(labels)
        assert fc.k == sum(c for _, c in fc.items()) == len(set(labels))


class TestGoodTuringEstimators:
    def test_approx_pinned(self, fc):
        assert good_turing_approx(fc, 0) == 3 / 7  # missing mass c_1 / n
        assert good_turing_approx(fc, 1) == 4 / 7
        assert good_turing_approx(fc, 2) == 0.0  # c_3 = 0

    def test_approx_rejects_negative_l(self, fc):
        with pytest.raises(ValueError):
            good_turing_approx(fc, -1)

    def test_ratio_pinned(self, fc):
        assert good_turing_ratio(fc, 1) == pytest.approx(4 / 21, rel=1e-15)
        assert good_turing_ratio(fc, 2) == 0.0

    def test_ratio_undefined_without_c_l(self, fc):
        with pytest.raises(UndefinedEstimateError, match="c_3 = 0"):
            good_turing_ratio(fc, 3)
        # the error is still a ValueError for callers that catch broadly
        with pytest.raises(ValueError):
            good_turing_ratio(fc, 3)

    def test_ratio_rejects_l_zero(self, fc):
        with pytest.raises(ValueError):
            good_turing_ratio(fc, 0)

    def test_approx_equals_ratio_times_count_share(self, fc):
        # (l+1) c_{l+1} / n = ratio * c_l whenever the ratio exists
        for l in (1, 2):
            assert good_turing_approx(fc, l) == pytest.approx(
                good_turing_ratio(fc, l) * fc.count(l), rel=1e-15
            )


class TestSmoothing:
    def test_pinned_values(self):
        assert smoothed_count(0.5, 10, 1) == pytest.approx(5.0, rel=1e-14)
        assert smoothed_count(0.5, 10, 2) == pytest.approx(1.25, rel=1e-14)
        assert smoothed_count(0.5, 10, 3) == pytest.approx(0.625, rel=1e-13)

    def test_validation(self):
        for bad_alpha in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                smoothed_count(bad_alpha, 10, 1)
        with pytest.raises(ValueError):
            smoothed_count(0.5, 0, 1)
        with pytest.raises(ValueError):
            smoothed_count(0.5, 10, 0)
        with pytest.raises(ValueError):
            smoothed_discovery(0.5, 10, 5, -1)
        with pytest.raises(ValueError):
            smoothed_discovery(0.5, 10, 0, 1)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_partial_sums(self, alpha):
        # sum_{l<=L} c'_l = k_n (1 - (1-alpha)_L / L!)
        k_n = 17
        total = 0.0
        for L in range(1, 61):
            total += smoothed_count(alpha, k_n, L)
            log_tail = gammaln(L + 1 - alpha) - gammaln(1 - alpha) - gammaln(L + 1)
            want = k_n * -math.expm1(log_tail)
            assert total == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_tail_decay_rate(self, alpha):
        # the mass not covered by l <= L behaves like k L^(-alpha)/Gamma(1-alpha)
        k_n, L = 1, 2000
        log_tail = gammaln(L + 1 - alpha) - gammaln(1 - alpha) - gammaln(L + 1)
        residual = k_n * math.exp(log_tail)
        asymptote = k_n * L ** -alpha / math.gamma(1 - alpha)
        assert residual == pytest.approx(asymptote, rel=1e-2)

    def test_discovery_pinned(self):
        # l = 0 reduces to the smoothed missing mass alpha k / n
        assert smoothed_discovery(0.5, 10, 20, 0) == pytest.approx(0.25, rel=1e-14)
        assert smoothed_discovery(0.5, 10, 20, 1) == pytest.approx(
            0.5 * 0.5 * 10 / 20, rel=1e-13
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_discovery_matches_plugin_chain(self, alpha):
        # feeding smoothed counts to the approximated estimator gives the
        # same discovery probabilities
        k_n, n = 12, 40
        for l in range(0, 101):
            lhs = (l + 1) / n * smoothed_count(alpha, k_n, l + 1)
            assert lhs == pytest.approx(
                smoothed_discovery(alpha, k_n, n, l), rel=1e-12
            )


@pytest.fixture
def pop():
    return FinitePopulation([0.5, 0.3, 0.2])


class TestFinitePopulation:
    def test_pinned_moments(self, pop):
        assert pop.s == 3
        assert pop.expected_species(2) == pytest.approx(1.62, rel=1e-13)
        assert pop.expected_count(1, 2) == pytest.approx(1.24, rel=1e-13)
        assert pop.expected_count(2, 2) == pytest.approx(0.38, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_count_totals(self, pop, n):
        counts = [pop.expected_count(l, n) for l in range(1, n + 1)]
        assert sum((l + 1) * c for l, c in enumerate(counts)) == pytest.approx(n, rel=1e-12)
        assert sum(counts) == pytest.approx(pop.expected_species(n), rel=1e-12)

    def test_posterior_pinned(self, pop):
        post = pop.posterior(1, 2)
        assert post[0] == pytest.approx(0.25 / 0.62, rel=1e-13)
        assert post.sum() == pytest.approx(1.0, rel=1e-14)

    def test_exact_good_turing_pinned(self, pop):
        assert pop.exact_good_turing(1, 2) == pytest.approx(0.22 / 0.62, rel=1e-13)

    def test_exact_equals_posterior_mean(self, pop):
        for n in (1, 3, 9):
            for l in range(1, n + 1):
                want = float(pop.posterior(l, n) @ pop.probs)
                assert pop.exact_good_turing(l, n) == pytest.approx(want, rel=1e-12)

    def test_exact_equals_count_ratio(self, pop):
        # the identity linking the two forms of the exact estimator
        for n in (1, 2, 6, 11):
            for l in range(1, n + 1):
                want = (
                    (l + 1)
                    / (n + 1)
                    * pop.expected_count(l + 1, n + 1)
                    / pop.expected_count(l, n)
                )
                assert pop.exact_good_turing(l, n) == pytest.approx(want, rel=1e-12)

    def test_uniform_population(self):
        pop = FinitePopulation([0.25] * 4)
        for l, n in [(1, 1), (2, 5), (5, 5)]:
            assert pop.exact_good_turing(l, n) == pytest.approx(0.25, rel=1e-13)
            np.testing.assert_allclose(pop.posterior(l, n), 0.25, rtol=1e-13)

    def test_expected_species_large_population(self):
        # s = 10^5, n = 10: s - sum (1 - p_j)^n cancels to about 2e-13 relative
        mpmath = pytest.importorskip("mpmath")
        g = np.random.default_rng(1).gamma(1.0, size=100_000)
        pop = FinitePopulation(g / g.sum())
        with mpmath.workdps(30):
            want = mpmath.fsum(1 - (1 - mpmath.mpf(float(p))) ** 10 for p in pop.probs)
            err = abs((pop.expected_species(10) - want) / want)
        assert err <= 1e-14

    def test_single_species_population(self):
        pop = FinitePopulation([1.0])
        for n in (1, 2, 7):
            assert pop.expected_species(n) == pytest.approx(1.0, rel=1e-14)
            assert pop.expected_count(n, n) == pytest.approx(1.0, rel=1e-13)
            assert pop.exact_good_turing(n, n) == pytest.approx(1.0, rel=1e-13)
            if n > 1:
                assert pop.expected_count(1, n) == 0.0
                with pytest.raises(ValueError, match="no species"):
                    pop.exact_good_turing(1, n)
                with pytest.raises(ValueError, match="no species"):
                    pop.posterior(1, n)

    def test_posterior_concentrates_on_heavy_species(self, pop):
        assert pop.posterior(50, 50)[0] > 0.999

    def test_validation(self):
        with pytest.raises(ValueError):
            FinitePopulation([])
        with pytest.raises(ValueError):
            FinitePopulation([[0.5, 0.5]])
        with pytest.raises(ValueError):
            FinitePopulation([0.7, -0.1, 0.4])
        with pytest.raises(ValueError):
            FinitePopulation([0.7, 0.2])  # sums to 0.9
        with pytest.raises(ValueError):
            FinitePopulation([0.7, 0.31])

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 1.0]])
    def test_rejects_non_finite_frequencies(self, probs):
        # NaN passes both the sign and the sum comparisons
        with pytest.raises(ValueError, match="finite"):
            FinitePopulation(probs)

    def test_zero_probabilities_dropped(self):
        with pytest.warns(UserWarning, match="zero-probability"):
            pop = FinitePopulation([0.5, 0.0, 0.5])
        assert pop.s == 2
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                FinitePopulation([0.0, 0.0])

    def test_probs_are_read_only(self, pop):
        with pytest.raises(ValueError):
            pop.probs[0] = 0.9

    def test_range_checks(self, pop):
        with pytest.raises(ValueError):
            pop.expected_species(0)
        with pytest.raises(ValueError):
            pop.expected_count(0, 3)
        with pytest.raises(ValueError):
            pop.expected_count(4, 3)
        with pytest.raises(ValueError):
            pop.exact_good_turing(1, 0)

    def test_random_populations_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = int(rng.integers(2, 12))
            p = rng.dirichlet(np.full(s, 0.8))
            pop = FinitePopulation(p / p.sum())
            n = int(rng.integers(1, 10))
            for l in range(1, n + 1):
                lhs = pop.exact_good_turing(l, n)
                rhs = (
                    (l + 1)
                    / (n + 1)
                    * pop.expected_count(l + 1, n + 1)
                    / pop.expected_count(l, n)
                )
                assert lhs == pytest.approx(rhs, rel=1e-11)
