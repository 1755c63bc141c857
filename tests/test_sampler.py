import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodturing import sampler
from goodturing.empirical import FinitePopulation
from goodturing.gibbs import GibbsModel, TabularGibbsModel
from goodturing.oracle import oracle_moment_table, oracle_stirling
from goodturing.pitman_yor import PitmanYor
from goodturing.sampler import (
    ALIAS_THRESHOLD,
    MAX_N,
    POPULATION_BLOCK,
    POPULATION_PASS,
    SHORT_ROW,
    URN_BLOCK,
    URN_PASS,
    CategoricalSampler,
    MomentTable,
    monte_carlo_moments,
    sample_gibbs,
    sample_population,
    _build_alias,
    _replicate_blocks,
    _stats,
    _urn_generic,
    _urn_pitman_yor,
)


def _replicate_stats(source, n, reps, seed, l_max):
    """(reps, 1 + l_max) array: K, C_1 .. C_lmax of every replicate."""
    return np.concatenate(list(_replicate_blocks(source, n, reps, seed, l_max)))


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
        # an urn writes its labels over its uniforms, so each gets a copy
        u = np.random.default_rng(0).random((100, 11))
        np.testing.assert_array_equal(_urn_pitman_yor(pd_half, u.copy()), _urn_generic(pd_half, u.copy()))

    def test_closed_and_generic_agree_finite_support(self):
        m = PitmanYor(-1.0, s=3)
        u = np.random.default_rng(1).random((60, 9))
        closed = _urn_pitman_yor(m, u.copy())
        np.testing.assert_array_equal(closed, _urn_generic(m, u.copy()))
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
            labels = urn(model, u.copy())[0]
            assert labels.size == 40
            assert np.unique(labels).tolist() == list(range(s))


class TestCategoricalSampler:
    def test_scan_mapping_pinned(self):
        sampler = CategoricalSampler(np.array([0.5, 0.3, 0.2]))
        assert not sampler.use_alias
        got = sampler.draw(np.array([0.1, 0.49, 0.5, 0.79, 0.8, 0.999]))
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
        got = sampler.draw(u)
        np.testing.assert_array_equal(got, np.floor(u * s).astype(int))
        np.testing.assert_array_equal(u, [0.0, 0.5, 0.25 + 1e-9, 0.999999])  # the uniforms are left as they were

    def test_alias_matches_target_distribution(self):
        rng = np.random.default_rng(11)
        p = rng.geometric(0.12, size=50).astype(float)
        p /= p.sum()
        sampler = CategoricalSampler(p)
        assert sampler.use_alias
        draws = sampler.draw(np.random.default_rng(99).random(200_000))
        assert draws.min() >= 0 and draws.max() < 50
        freq = np.bincount(draws, minlength=50) / 200_000
        tol = 5 * np.sqrt(p * (1 - p) / 200_000)
        assert np.all(np.abs(freq - p) <= tol + 1e-12)

    def test_alias_table_is_built_once_per_population(self, monkeypatch):
        # the table is kept on the population: a second run, and a sample,
        # draw from it, and the same probabilities in a new population
        # build their own, equal to it
        builds = []

        def counting(p):
            builds.append(p)
            return _build_alias(p)

        monkeypatch.setattr(sampler, "_build_alias", counting)
        pop = _linspace_population(ALIAS_THRESHOLD + 8)
        first = monte_carlo_moments(pop, 20, 100, 1)
        second = monte_carlo_moments(pop, 20, 100, 1)
        sample_population(pop, 20, 1)
        assert len(builds) == 1
        np.testing.assert_array_equal(first.means, second.means)
        again = FinitePopulation(pop.probs)
        np.testing.assert_array_equal(monte_carlo_moments(again, 20, 100, 1).means, first.means)
        assert len(builds) == 2
        accept, alias = _build_alias(pop.probs)
        kept = sampler._population_sampler(pop)
        np.testing.assert_array_equal(kept._accept, accept)
        np.testing.assert_array_equal(kept._jump, alias - np.arange(pop.s))

    def test_scan_matches_target_distribution(self):
        p = np.array([0.6, 0.25, 0.1, 0.05])
        draws = CategoricalSampler(p).draw(np.random.default_rng(5).random(200_000))
        freq = np.bincount(draws, minlength=4) / 200_000
        tol = 5 * np.sqrt(p * (1 - p) / 200_000)
        assert np.all(np.abs(freq - p) <= tol)


class TestInputChecks:
    @pytest.mark.parametrize(
        "probs",
        [[math.nan, 1.0], [-0.5, 1.5], [0.2, 0.2], [], [[0.5, 0.5]], [math.inf, 0.0], [1e308, 1e308]],
    )
    def test_probabilities_follow_the_population_rules(self, probs):
        with pytest.raises(ValueError) as sampler_error:
            CategoricalSampler(probs)
        with pytest.raises(ValueError) as population_error:
            FinitePopulation(probs)
        assert str(sampler_error.value) == str(population_error.value)

    @pytest.mark.parametrize("s", [3, ALIAS_THRESHOLD + 3])
    def test_zero_probabilities_are_kept_and_never_drawn(self, s):
        p = np.zeros(s)
        p[1:] = 1.0 / (s - 1)
        sampler = CategoricalSampler(p)
        assert sampler.s == s
        assert 0 not in sampler.draw(np.random.default_rng(3).random(5000))

    @pytest.mark.parametrize(
        "bad", [{"n": 5.5}, {"n": 0}, {"n": math.nan}, {"seed": 1.5}, {"seed": -1}, {"seed": math.inf}]
    )
    @pytest.mark.parametrize("run", ["sample_gibbs", "sample_population", "monte_carlo_moments"])
    def test_n_and_seed_must_be_integers(self, run, bad, pd_half, pop):
        call = {
            "sample_gibbs": lambda **kw: sample_gibbs(pd_half, **kw),
            "sample_population": lambda **kw: sample_population(pop, **kw),
            "monte_carlo_moments": lambda **kw: monte_carlo_moments(pd_half, reps=100, **kw),
        }[run]
        with pytest.raises(ValueError, match="n must|seed must"):
            call(**{"n": 5, "seed": 1, **bad})

    @pytest.mark.parametrize("n, rejected", [(MAX_N, False), (MAX_N + 1, True), (3_000_000_000, True)])
    @pytest.mark.parametrize("run", ["sample_gibbs", "sample_population", "monte_carlo_moments"])
    def test_n_past_the_int32_labels_is_rejected(self, run, n, rejected, pd_half, pop, monkeypatch):
        # before anything is drawn: with the streams and passes refused, an
        # n that gets past the check fails at once instead of allocating
        # (rows, n - 1) doubles
        class Drawn(Exception):
            pass

        def refuse(*args):
            raise Drawn

        monkeypatch.setattr(sampler, "_stream", refuse)
        monkeypatch.setattr(sampler, "_passes", refuse)
        call = {
            "sample_gibbs": lambda: sample_gibbs(pd_half, n, 1),
            "sample_population": lambda: sample_population(pop, n, 1),
            "monte_carlo_moments": lambda: monte_carlo_moments(pd_half, n, 100, 1, l_max=3),
        }[run]
        with pytest.raises(ValueError if rejected else Drawn, match="int32" if rejected else None):
            call()

    @pytest.mark.parametrize("bad", [{"reps": 150.5}, {"reps": math.nan}, {"reps": 99}, {"l_max": 2.5}, {"l_max": 0}])
    def test_reps_and_l_max_must_be_integers(self, bad, pd_half):
        with pytest.raises(ValueError, match="reps must|l_max must"):
            monte_carlo_moments(pd_half, **{"n": 5, "reps": 100, "seed": 1, **bad})

    def test_integral_floats_are_integers(self, pd_half):
        a = monte_carlo_moments(pd_half, 5.0, 100.0, 1.0, l_max=3.0)
        b = monte_carlo_moments(pd_half, 5, 100, 1, l_max=3)
        assert (a.n, a.reps, a.seed) == (5, 100, 1) and type(a.seed) is int
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.ses, b.ses)

    def test_source_kind(self, pd_half, pop):
        with pytest.raises(ValueError, match="GibbsModel"):
            sample_gibbs(pop, 5, 1)
        with pytest.raises(ValueError, match="FinitePopulation"):
            sample_population(pd_half, 5, 1)


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
        draws = CategoricalSampler(pop.probs).draw(np.random.default_rng((seed, 0)).random(n))
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
            block = urn(model, u.copy())
            for i in range(u.shape[0]):
                np.testing.assert_array_equal(block[i], urn(model, u[i : i + 1].copy())[0])
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


@pytest.mark.parametrize("kind", ["pitman-yor", "saturated", "generic"])
@pytest.mark.parametrize("n, reps", [(300, 3000), (1000, 900)])
def test_passes_read_each_blocks_own_stream(n, reps, kind):
    # the reference runs the urn block by block, each block on its own
    # random((rows, n - 1)); both sizes span three passes
    model = {
        "pitman-yor": lambda: PitmanYor(0.5, 1.0),
        "saturated": lambda: PitmanYor(-1.0, s=3),
        "generic": lambda: _StoredRows(PitmanYor(0.5, 1.0), n),
    }[kind]()
    urn, seed = (_urn_generic if kind == "generic" else _urn_pitman_yor), 12
    rows = URN_BLOCK // n
    assert reps > 2 * (URN_PASS // (rows * n)) * rows
    want = []
    for b, lo in enumerate(range(0, reps, rows)):
        u = np.random.default_rng((seed, b)).random((min(rows, reps - lo), n - 1))
        for labels in urn(model, u):
            counts = np.bincount(labels)
            want.append([np.count_nonzero(counts), *np.bincount(counts, minlength=n + 1)[1:]])
    np.testing.assert_array_equal(_replicate_stats(model, n, reps, seed, n), want)


def _linspace_population(s):
    w = np.linspace(1.0, 3.0, s)
    return FinitePopulation(w / w.sum())


@pytest.mark.parametrize(
    "s, n, reps",
    [(1000, 50, 1500), (3, 20, 5000), (40, 60, 1700)],
    ids=["sorted-runs", "scan-histogram", "alias-histogram"],
)
def test_population_passes_read_each_blocks_own_stream(s, n, reps):
    # the reference draws a population block by block, each block on its
    # own random((rows, n)), and counts each row with np.bincount; every
    # size spans three passes
    pop, seed = _linspace_population(s), 14
    sampler = CategoricalSampler(pop.probs)
    rows = POPULATION_BLOCK // max(n, s)
    assert reps > 2 * (POPULATION_PASS // (rows * n)) * rows
    want = []
    for b, lo in enumerate(range(0, reps, rows)):
        u = np.random.default_rng((seed, b)).random((min(rows, reps - lo), n))
        for draws in sampler.draw(u):
            counts = np.bincount(draws)
            want.append([np.count_nonzero(counts), *np.bincount(counts, minlength=n + 1)[1:]])
    np.testing.assert_array_equal(_replicate_stats(pop, n, reps, seed, n), want)


@st.composite
def label_rows(draw):
    """A (rows, n) int array of species labels in [0, n), and 1 <= l_max <= n:
    rows of any labels, rows of one species each, or rows of n distinct ones."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["any", "one species", "all distinct"]))
    if shape == "one species":
        species = draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
        labels = np.repeat(np.array(species)[:, None], n, axis=1)
    elif shape == "all distinct":
        labels = np.array([draw(st.permutations(range(n))) for _ in range(rows)])
    else:
        k = draw(st.integers(1, n))
        row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
        labels = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    return labels.astype(np.intp), draw(st.integers(1, n))


@given(case=label_rows())
@example(case=(np.zeros((2, 7), dtype=np.intp), 3))
@example(case=(np.tile(np.arange(7), (2, 1)), 7))
@example(case=(np.tile(np.arange(SHORT_ROW + 1) // 2, (2, 1)), 2))
@example(case=(np.tile(np.repeat(np.arange(3), 5), (2, 1)), 2))  # every run longer than l_max
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sorted_runs_and_histogram_count_alike(case):
    # both routes, at every row length up to and past SHORT_ROW, on intp
    # labels and on int32 ones (the urn's and the draws' dtype); spreading
    # the labels over a wide range changes nothing, nor does a histogram
    # wider than the labels (s = 3n, where most species are unseen)
    labels, l_max = case
    rows, n = labels.shape
    kept = labels.copy()
    want = []
    for row in labels:
        counts = np.bincount(row)
        want.append([np.count_nonzero(counts), *np.bincount(counts, minlength=n + 1)[1 : l_max + 1]])
    for dtype in (np.intp, np.int32):
        typed = labels.astype(dtype)
        for s in (n, int(typed.max()) + 1, 3 * n):
            np.testing.assert_array_equal(_stats(typed, s, l_max, sort=False), want)
            np.testing.assert_array_equal(_stats(typed, s, l_max, sort=True), want)
        np.testing.assert_array_equal(_stats(997 * typed + 3, 997 * n, l_max, sort=True), want)
    np.testing.assert_array_equal(labels, kept)


@pytest.mark.parametrize("kind", ["pitman-yor", "saturated", "generic"])
def test_urn_state_stays_int32(kind, monkeypatch):
    # k and the largest non-repeat label stay in the labels' width at every
    # step: a wider state makes every step widen its chosen labels and cast
    # them back into the int32 slots
    n = 40
    model = {
        "pitman-yor": lambda: PitmanYor(0.5, 1.0),
        "saturated": lambda: PitmanYor(-1.0, s=3),
        "generic": lambda: _StoredRows(PitmanYor(0.5, 1.0), n),
    }[kind]()
    seen, run = [], sampler._urn

    def spy(uniforms, alpha, weights):
        def recorded(m, k):
            total, cap = weights(m, k)
            seen.append((k.dtype, cap.dtype))
            return total, cap

        return run(uniforms, alpha, recorded)

    monkeypatch.setattr(sampler, "_urn", spy)
    urn = _urn_generic if kind == "generic" else _urn_pitman_yor
    labels = urn(model, np.random.default_rng(5).random((30, n - 1)))
    assert len(seen) == n - 1 and set(seen) == {(np.dtype(np.int32), np.dtype(np.int32))}
    assert labels.dtype == np.int32


#: PY(-0.5, s) tables at n = 50, 200 replicates, seed 3, l_max = 3, and the
#: first sample's parts, as drawn with an int64 urn state
_DISTINCT = ([50.0, 50.0, 0.0, 0.0], [0.0] * 4, (1,) * 50)
PINNED_URNS = {
    3: (
        [2.625, 0.195, 0.175, 0.105],
        [0.039109111637383516, 0.028085923439997246, 0.02874030314950815, 0.021730995856253862],
        (46, 4),
    ),
    2**31 - 1: _DISTINCT,
    2**31: _DISTINCT,
    10**12: _DISTINCT,
}


@pytest.mark.parametrize("s", list(PINNED_URNS))
def test_urn_tables_pinned_from_saturating_to_huge_s(s):
    # s = 3 saturates long before n = 50.  An urn of n <= s draws never
    # saturates, and an s - 1 past int32 must not meet its int32 state;
    # there a repeat draw has probability about n^2 / (|alpha| s) per
    # replicate, and at seed 3 every replicate draws n distinct species
    model = PitmanYor(-0.5, s=s)
    means, ses, parts = PINNED_URNS[s]
    t = monte_carlo_moments(model, 50, 200, 3, l_max=3)
    assert t.means.tolist() == means and t.ses.tolist() == ses
    assert sample_gibbs(model, 50, 3).composition.parts == parts


class _StoredRows(GibbsModel):
    """A model's log weight rows, stored: a plain Gibbs model, so the sampler
    takes its generic urn, at sizes no weight table reaches."""

    def __init__(self, model, n):
        super().__init__(model.alpha)
        self._rows = [model.log_weight_row(m, m) for m in range(1, n + 1)]

    def log_weight_row(self, n, kmax):
        return self._rows[n - 1][:kmax]


#: source kind -> (n, reps) of a run that spans several passes
MEMORY_RUNS = {
    "pitman-yor": (1000, 4000),
    "generic": (1000, 4000),
    "population-wide": (50, 20_000),
    "population-square": (1000, 20_000),
}


@pytest.mark.parametrize("kind", list(MEMORY_RUNS))
def test_memory_is_one_pass(kind):
    # an urn pass holds 8 bytes per element (float64 uniforms, with the
    # labels written over them), 3 MiB, and lives while its blocks are
    # counted; beside it live one block of statistics (rows x (1 + n)
    # int64, as l_max = n) and the block's int32 counting temporaries.  A
    # population pass is smaller, and its draw and count (by sorted runs at
    # s = 1000) stay inside the same budget
    n, reps = MEMORY_RUNS[kind]
    model = PitmanYor(0.5, 1.0)
    source = {
        "pitman-yor": lambda: model,
        "generic": lambda: _StoredRows(model, 1000),
        "population-wide": lambda: _linspace_population(1000),
        "population-square": lambda: _linspace_population(1000),
    }[kind]()
    assert 8 * URN_PASS <= 3 * 2**20  # a pass's bytes
    monte_carlo_moments(source, n, 100, 1)  # first-call set-up
    tracemalloc.start()
    try:
        monte_carlo_moments(source, n, reps, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**18 + 12 * URN_BLOCK


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
