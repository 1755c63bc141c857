import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from goodturing.empirical import FinitePopulation
from goodturing.gibbs import TabularGibbsModel
from goodturing.oracle import oracle_moment_table, oracle_stirling
from goodturing.pitman_yor import PitmanYor
from goodturing.sampler import (
    ALIAS_THRESHOLD,
    POPULATION_BLOCK,
    URN_BLOCK,
    CategoricalSampler,
    MomentTable,
    monte_carlo_moments,
    sample_gibbs,
    sample_population,
    _replicate_blocks,
    _urn_generic,
    _urn_pitman_yor,
)


def _replicate_stats(source, n, reps, seed, l_max):
    """(reps, 1 + l_max) array: K, C_1 .. C_lmax of every replicate."""
    return np.concatenate(list(_replicate_blocks(source, n, reps, seed, l_max)))


class FakeRng:
    """Hands out a fixed block of uniforms, for pinning draw mappings."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values


@pytest.fixture
def pd_half():
    return PitmanYor(0.5, 0.5)


@pytest.fixture
def pop():
    return FinitePopulation([0.5, 0.3, 0.2])


class TestSampleGibbs:
    def test_deterministic(self, pd_half):
        a = sample_gibbs(pd_half, 25, seed=42)
        b = sample_gibbs(pd_half, 25, seed=42)
        assert a.composition == b.composition
        assert a.frequency_counts == b.frequency_counts

    def test_seed_changes_output(self, pd_half):
        comps = {sample_gibbs(pd_half, 30, seed=s).composition for s in range(8)}
        assert len(comps) > 1

    def test_summary_consistency(self, pd_half):
        summ = sample_gibbs(pd_half, 40, seed=3)
        assert summ.n == 40
        assert summ.k == summ.composition.k == len(summ.composition.parts)
        assert summ.frequency_counts.n == 40
        assert summ.frequency_counts.k == summ.k

    def test_single_draw(self, pd_half):
        summ = sample_gibbs(pd_half, 1, seed=0)
        assert summ.composition.parts == (1,)
        assert summ.k == 1

    def test_closed_and_generic_urns_agree(self, pd_half):
        u = np.random.default_rng(0).random((100, 11))
        np.testing.assert_array_equal(_urn_pitman_yor(pd_half, u), _urn_generic(pd_half, u))

    def test_closed_and_generic_agree_finite_support(self):
        m = PitmanYor(-1.0, s=3)
        u = np.random.default_rng(1).random((60, 9))
        closed = _urn_pitman_yor(m, u)
        np.testing.assert_array_equal(closed, _urn_generic(m, u))
        assert closed.max() == 2  # three species at most, and some row finds all three

    def test_validation(self, pd_half):
        with pytest.raises(ValueError):
            sample_gibbs(pd_half, 0, seed=1)

    def test_finite_support_never_exceeded(self):
        m = PitmanYor(-0.5, s=2)
        for seed in range(30):
            assert sample_gibbs(m, 15, seed=seed).k <= 2

    @pytest.mark.parametrize("alpha", [-0.5, -1.0, -1.5, -3.0])
    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    def test_saturated_urn_at_the_top_uniform(self, alpha, s):
        # uniforms just below 1 sit on the upper edge of every step's range,
        # where rounding can leave the founders' region of a saturated urn
        model = PitmanYor(alpha, s=s)
        u = np.full((1, 39), np.nextafter(1.0, 0.0))
        for urn in (_urn_pitman_yor, _urn_generic):
            labels = urn(model, u)[0]
            assert labels.size == 40
            assert np.unique(labels).tolist() == list(range(s))


class TestCategoricalSampler:
    def test_scan_mapping_pinned(self):
        sampler = CategoricalSampler(np.array([0.5, 0.3, 0.2]))
        assert not sampler.use_alias
        got = sampler.draw(FakeRng([0.1, 0.49, 0.5, 0.79, 0.8, 0.999]), 6)
        np.testing.assert_array_equal(got, [0, 0, 1, 1, 2, 2])

    def test_alias_engaged_above_threshold(self):
        small = CategoricalSampler(np.full(ALIAS_THRESHOLD, 1.0 / ALIAS_THRESHOLD))
        big = CategoricalSampler(np.full(ALIAS_THRESHOLD + 1, 1.0 / (ALIAS_THRESHOLD + 1)))
        assert not small.use_alias
        assert big.use_alias

    def test_alias_uniform_case_pinned(self):
        # uniform probabilities make every cell accept, so draw = floor(u s)
        s = 64
        sampler = CategoricalSampler(np.full(s, 1.0 / s))
        u = np.array([0.0, 0.5, 0.25 + 1e-9, 0.999999])
        got = sampler.draw(FakeRng(u), 4)
        np.testing.assert_array_equal(got, np.floor(u * s).astype(int))

    def test_alias_matches_target_distribution(self):
        rng = np.random.default_rng(11)
        p = rng.geometric(0.12, size=50).astype(float)
        p /= p.sum()
        sampler = CategoricalSampler(p)
        assert sampler.use_alias
        draws = sampler.draw(np.random.default_rng(99), 200_000)
        assert draws.min() >= 0 and draws.max() < 50
        freq = np.bincount(draws, minlength=50) / 200_000
        tol = 5 * np.sqrt(p * (1 - p) / 200_000)
        assert np.all(np.abs(freq - p) <= tol + 1e-12)

    def test_scan_matches_target_distribution(self):
        p = np.array([0.6, 0.25, 0.1, 0.05])
        draws = CategoricalSampler(p).draw(np.random.default_rng(5), 200_000)
        freq = np.bincount(draws, minlength=4) / 200_000
        tol = 5 * np.sqrt(p * (1 - p) / 200_000)
        assert np.all(np.abs(freq - p) <= tol)


class TestSamplePopulation:
    def test_deterministic(self, pop):
        a = sample_population(pop, 50, seed=9)
        b = sample_population(pop, 50, seed=9)
        assert a.composition == b.composition

    def test_totals(self, pop):
        summ = sample_population(pop, 200, seed=4)
        assert summ.n == 200
        assert summ.k <= pop.s

    def test_first_appearance_order(self, pop):
        # reference implementation: tally draws with a dict, which preserves
        # insertion (= first appearance) order
        seed, n = 21, 80
        draws = CategoricalSampler(pop.probs).draw(np.random.default_rng((seed, 0)), n)
        order: dict[int, int] = {}
        for d in draws.tolist():
            order[d] = order.get(d, 0) + 1
        assert sample_population(pop, n, seed=seed).composition.parts == tuple(order.values())

    def test_validation(self, pop):
        with pytest.raises(ValueError):
            sample_population(pop, 0, seed=1)


class TestMonteCarloMoments:
    def test_repeat_runs_identical(self, pd_half):
        a = monte_carlo_moments(pd_half, 8, reps=200, seed=17)
        b = monte_carlo_moments(pd_half, 8, reps=200, seed=17)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.ses, b.ses)

    def test_labels_and_shapes(self, pd_half):
        t = monte_carlo_moments(pd_half, 6, reps=150, seed=1, l_max=3)
        assert t.labels == ("K", "C_1", "C_2", "C_3")
        assert t.means.shape == t.ses.shape == (4,)
        assert t.n == 6 and t.reps == 150 and t.seed == 1

    def test_rows_and_accessors(self, pd_half):
        t = monte_carlo_moments(pd_half, 5, reps=120, seed=2)
        rows = t.rows()
        assert [r[0] for r in rows] == list(t.labels)
        assert t.mean("K") == rows[0][1]
        assert t.se("C_1") == rows[1][2]
        with pytest.raises(ValueError):
            t.mean("C_99")

    def test_z_score(self):
        t = MomentTable(
            n=3, reps=100, seed=0, labels=("K", "C_1"), means=np.array([3.0, 1.5]), ses=np.array([0.0, 0.25])
        )
        assert t.z("C_1", 1.0) == 2.0
        assert t.z("K", 3.0) == 0.0  # no spread and exact
        # no spread: an integer statistic with mean d < 1 off its value has variance >= d(1 - d)
        assert t.z("K", 3.0 - 1e-5) == pytest.approx(math.sqrt(100 * 1e-5 / (1 - 1e-5)), rel=1e-12)
        assert t.z("K", 2.5) == 10.0
        assert t.z("K", 2.0) == t.z("K", 7.5) == math.inf
        assert math.isnan(t.z("C_1", math.nan)) and math.isnan(t.z("K", math.nan))

    def test_first_replicate_matches_sample_gibbs(self, pd_half):
        # row 0 of block 0 is the sample sample_gibbs draws for the same seed,
        # through the Pitman-Yor urn and through the generic urn
        seed, n = 33, 9
        tab = TabularGibbsModel.from_bottom_row(-0.5, np.linspace(0.5, 2.0, 12))
        for model in (pd_half, tab):
            summ = sample_gibbs(model, n, seed=seed)
            first = _replicate_stats(model, n, reps=100, seed=seed, l_max=n)[0]
            assert first[0] == summ.k
            assert first[1:].tolist() == [summ.frequency_counts.count(l) for l in range(1, n + 1)]

    def test_block_rows_are_independent_urns(self, pd_half):
        # each row of a block is the urn its own uniforms drive alone
        n = 12
        u = np.random.default_rng((5, 0)).random((40, n - 1))
        tab = TabularGibbsModel.from_bottom_row(0.3, np.linspace(0.5, 2.0, n))
        for urn, model in ((_urn_pitman_yor, pd_half), (_urn_generic, pd_half), (_urn_generic, tab)):
            block = urn(model, u)
            for i in range(u.shape[0]):
                np.testing.assert_array_equal(block[i], urn(model, u[i : i + 1])[0])
            assert block.shape == (u.shape[0], n)

    @pytest.mark.parametrize("kind", ["pitman-yor", "generic", "population"])
    def test_replicates_do_not_depend_on_reps(self, kind, pop):
        # the first replicates come out the same whether the run ends inside
        # the first block or spills into a second one
        n = 16
        source = {
            "pitman-yor": PitmanYor(0.5, 1.0),
            "generic": TabularGibbsModel.from_bottom_row(-0.5, np.linspace(0.5, 2.0, n)),
            "population": pop,
        }[kind]
        rows = (POPULATION_BLOCK // max(n, pop.s)) if kind == "population" else URN_BLOCK // n
        short, long = rows - 100, rows + 100
        a = _replicate_stats(source, n, short, seed=8, l_max=n)
        b = _replicate_stats(source, n, long, seed=8, l_max=n)
        np.testing.assert_array_equal(a, b[:short])
        assert not np.array_equal(b[rows : rows + 100], b[:100])  # block 1 has its own stream

    def test_population_source(self, pop):
        t = monte_carlo_moments(pop, 12, reps=400, seed=5)
        analytic = pop.expected_species(12)
        assert abs(t.mean("K") - analytic) <= 5 * max(t.se("K"), 1e-12)

    def test_gibbs_means_near_analytic(self, pd_half):
        t = monte_carlo_moments(pd_half, 10, reps=3000, seed=8)
        assert abs(t.mean("K") - pd_half.expected_species(10)) <= 5 * t.se("K")
        for l in (1, 2, 3):
            analytic = pd_half.expected_count(l, 10)
            assert abs(t.mean(f"C_{l}") - analytic) <= 5 * t.se(f"C_{l}")

    def test_population_first_replicate_matches_sample(self, pop):
        seed, n = 77, 30
        summ = sample_population(pop, n, seed=seed)
        first = _replicate_stats(pop, n, reps=100, seed=seed, l_max=n)[0]
        assert first[0] == summ.k
        assert first[1:].tolist() == [summ.frequency_counts.count(l) for l in range(1, n + 1)]

    def test_validation(self, pd_half, pop):
        with pytest.raises(ValueError):
            monte_carlo_moments(pd_half, 5, reps=99, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_moments(pd_half, 0, reps=100, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_moments(pd_half, 5, reps=100, seed=1, l_max=6)
        with pytest.raises(ValueError):
            monte_carlo_moments(pd_half, 5, reps=100, seed=1, l_max=0)
        with pytest.raises(ValueError):
            monte_carlo_moments([0.5, 0.5], 5, reps=100, seed=1)

    def test_l_max_defaults_to_n(self, pop):
        t = monte_carlo_moments(pop, 4, reps=100, seed=3)
        assert t.labels == ("K", "C_1", "C_2", "C_3", "C_4")


def test_moments_come_from_exact_sums(pd_half, pop):
    # means equal float64 averages of the statistics bit for bit; the
    # variance is the exact rational one, correctly rounded
    for source, n in ((pd_half, 9), (pop, 7)):
        reps = 2500
        stats = _replicate_stats(source, n, reps, seed=4, l_max=n)
        t = monte_carlo_moments(source, n, reps, seed=4)
        np.testing.assert_array_equal(t.means, stats.mean(axis=0))
        for j, column in enumerate(stats.T.tolist()):
            mean = Fraction(sum(column), reps)
            var = sum((Fraction(v) - mean) ** 2 for v in column) / (reps - 1)
            assert t.ses[j] == np.sqrt(float(var)) / np.sqrt(reps)


def test_memory_does_not_grow_with_reps():
    # statistics are summed block by block; keeping every replicate's row
    # took 46 MiB at 20 000 replicates
    model = PitmanYor(0.5, 1.0)
    monte_carlo_moments(model, 200, 100, 1)  # imports and first-call set-up
    tracemalloc.start()
    try:
        monte_carlo_moments(model, 200, 20_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_moment_table_is_frozen(pd_half):
    t = monte_carlo_moments(pd_half, 4, reps=100, seed=1)
    with pytest.raises(AttributeError):
        t.n = 10


def _py_saturated_table(n):
    # PD(-1, 3) weights as a table: V(m, k) = 0 for k > 3 drives the generic
    # urn's saturated branch
    model = PitmanYor(-1.0, s=3)
    return TabularGibbsModel(-1.0, [np.exp(model.log_weight_row(m, m)) for m in range(1, n + 1)])


LAW_MODELS = {
    "py-0": PitmanYor(0.0, 1.0),
    "py-0.5": PitmanYor(0.5, 1.0),
    "py-0.9": PitmanYor(0.9, 1.0),
    "dirichlet-s3": PitmanYor(-1.0, s=3),
    "tabular-neg": TabularGibbsModel.from_bottom_row(-0.7, [0.6, 1.9, 0.8, 1.3, 0.5, 1.1]),
    "tabular-s3": _py_saturated_table(6),
}


@pytest.mark.parametrize("name", sorted(LAW_MODELS))
def test_urn_samples_the_exact_law(name):
    """The law of K_n and the means of C_l against the exact oracle.

    Every P(K_n = k) and every E[C_l] within 4 standard errors; a zero
    standard error with any difference fails.
    """
    model, n, reps = LAW_MODELS[name], 6, 200_000
    stats = _replicate_stats(model, n, reps, seed=2024, l_max=n)
    k_freq = np.bincount(stats[:, 0], minlength=n + 1)[1:] / reps
    s_row = oracle_stirling(n, model.alpha)
    exact_k = [s_row[k] * math.exp(model.log_weight(n, k)) for k in range(1, n + 1)]
    k_se = np.sqrt(k_freq * (1.0 - k_freq) / (reps - 1))
    means = stats[:, 1:].mean(axis=0)
    c_se = stats[:, 1:].std(axis=0, ddof=1) / math.sqrt(reps)
    exact_c = oracle_moment_table(model, n)["expected_cl"][1:]
    for label, got, se, want in zip(
        [f"P(K={k})" for k in range(1, n + 1)] + [f"E[C_{l}]" for l in range(1, n + 1)],
        np.concatenate([k_freq, means]),
        np.concatenate([k_se, c_se]),
        exact_k + exact_c,
    ):
        diff = abs(got - want)
        assert diff <= 4.0 * se if se > 0 else diff == 0.0, f"{name} {label}: {got} vs {want} (se {se})"
