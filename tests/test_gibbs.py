import math
import sys
import threading

import numpy as np
import pytest

from goodturing.gibbs import Composition, GibbsModel, TabularGibbsModel
from goodturing.pitman_yor import PitmanYor
from goodturing.specfun import CHECKPOINT_STRIDE, DENSE_ROWS, iter_stirling_log_rows


@pytest.fixture
def pd_half():
    return PitmanYor(0.5, 0.5)


def test_composition_basics():
    c = Composition((2, 1, 1))
    assert c.n == 4 and c.k == 3
    assert list(c) == [2, 1, 1]
    assert len(c) == 3
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((1, 0))
    with pytest.raises(ValueError):
        Composition((-2,))


def test_base_class_requires_log_weight():
    model = GibbsModel(0.5)
    with pytest.raises(NotImplementedError):
        model.log_weight_row(1, 1)
    with pytest.raises(NotImplementedError):
        model.log_weight(1, 1)  # the scalar reads the row


def test_alpha_validation():
    with pytest.raises(ValueError):
        GibbsModel(1.0)
    with pytest.raises(ValueError):
        GibbsModel(1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            GibbsModel(bad)


def test_eppf_pinned_values(pd_half):
    assert pd_half.eppf(Composition((2,))) == pytest.approx(1 / 3, rel=1e-12)
    assert pd_half.eppf(Composition((1, 1))) == pytest.approx(2 / 3, rel=1e-12)
    # accepts raw tuples too
    assert pd_half.eppf((1, 1)) == pytest.approx(2 / 3, rel=1e-12)


def test_eppf_depends_only_on_multiset(pd_half):
    a = pd_half.eppf(Composition((3, 1, 2)))
    b = pd_half.eppf(Composition((1, 2, 3)))
    assert a == pytest.approx(b, rel=1e-13)


def test_eppf_zero_outside_support():
    m = PitmanYor(-0.5, s=2)  # at most two species
    assert m.eppf(Composition((1, 1, 1))) == 0.0


def test_predictive_pinned_values(pd_half):
    assert pd_half.predict_new(3, 2) == pytest.approx(3 / 7, rel=1e-12)
    assert pd_half.predict_old(3, 2, 2) == pytest.approx(3 / 7, rel=1e-12)
    assert pd_half.predict_old(3, 2, 1) == pytest.approx(1 / 7, rel=1e-12)


def test_predictive_validation(pd_half):
    tab = TabularGibbsModel.from_bottom_row(0.5, np.ones(4))
    cases = [
        (lambda: pd_half.predict_old(0, 1, 1), "n must be >= 1, got 0"),
        (lambda: pd_half.predict_new(0, 1), "n must be >= 1, got 0"),
        (lambda: tab.predict_old(4, 2, 1), "n=5 beyond supported sample size 4"),
        (lambda: tab.predict_new(4, 2), "n=5 beyond supported sample size 4"),
        (lambda: pd_half.predict_old(3, 4, 1), "need 1 <= k <= n, got k=4, n=3"),
        (lambda: pd_half.predict_new(3, 0), "need 1 <= k <= n, got k=0, n=3"),
        (lambda: pd_half.predict_old(3, 2, 5), "need 1 <= n_j <= n, got n_j=5"),
        (lambda: pd_half.predict_old(3, 2, 0), "need 1 <= n_j <= n, got n_j=0"),
        (lambda: PitmanYor(-0.5, s=2).predict_new(3, 3), r"V\(3,3\) = 0: state outside model support"),
        (lambda: PitmanYor(-0.5, s=2).predict_old(3, 3, 1), r"V\(3,3\) = 0: state outside model support"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_predict_sums_to_one(pd_half):
    for counts in ([1], [2, 1], [5, 3, 1, 1], [1] * 7):
        n, k = sum(counts), len(counts)
        old = [pd_half.predict_old(n, k, n_j) for n_j in counts]
        new = pd_half.predict_new(n, k)
        assert math.fsum(old) + new == pytest.approx(1.0, rel=1e-12)
        assert min(old) > 0 and new > 0


def test_predict_new_matches_closed_form(pd_half):
    # (theta + k alpha)/(theta + n), from the first draw on
    for n, k in ((1, 1), (2, 1), (2, 2), (7, 3), (40, 40)):
        assert pd_half.predict_new(n, k) == pytest.approx((0.5 + k * 0.5) / (0.5 + n), rel=1e-12)


def test_predict_old_matches_closed_form(pd_half):
    # (n_j - alpha)/(theta + n) through the weights
    cases = [(pd_half, [1]), (pd_half, [3, 1]), (pd_half, [2, 2, 1]), (PitmanYor(0.3, 2.0), [4, 2, 1])]
    for model, counts in cases:
        n, k = sum(counts), len(counts)
        for n_j in counts:
            assert model.predict_old(n, k, n_j) == pytest.approx(
                (n_j - model.alpha) / (model.theta + n), rel=1e-12
            )


def test_predict_new_vanishes_at_saturated_support():
    m = PitmanYor(-0.5, s=2)
    assert m.predict_new(5, 2) == 0.0
    assert m.predict_old(5, 2, 3) + m.predict_old(5, 2, 2) == pytest.approx(1.0, rel=1e-12)


def test_expected_count_pinned(pd_half):
    assert pd_half.expected_count(1, 2) == pytest.approx(4 / 3, rel=1e-12)
    assert pd_half.expected_count(2, 2) == pytest.approx(1 / 3, rel=1e-12)


def test_expected_count_totals(pd_half):
    # sum_l l E[C_l] = n and sum_l E[C_l] = E[K_n]
    for n in (1, 2, 5, 13):
        cl = [pd_half.expected_count(l, n) for l in range(1, n + 1)]
        assert sum(l * c for l, c in zip(range(1, n + 1), cl)) == pytest.approx(n, rel=1e-12)
        assert sum(cl) == pytest.approx(pd_half.expected_species(n), rel=1e-12)


def test_expected_count_range_errors(pd_half):
    with pytest.raises(ValueError):
        pd_half.expected_count(0, 3)
    with pytest.raises(ValueError):
        pd_half.expected_count(4, 3)


def test_falling_factorial_moment(pd_half):
    assert pd_half.falling_factorial_moment(1, 2, 2) == pytest.approx(4 / 3, rel=1e-12)
    # r = 1 reduces to the expected count
    for l, n in ((1, 5), (2, 6), (3, 3)):
        assert pd_half.falling_factorial_moment(l, n, 1) == pytest.approx(
            pd_half.expected_count(l, n), rel=1e-12
        )
    # more blocks of size l than fit in n
    assert pd_half.falling_factorial_moment(4, 7, 2) == 0.0
    with pytest.raises(ValueError):
        pd_half.falling_factorial_moment(1, 5, 0)


def test_expected_species_pinned(pd_half):
    assert pd_half.expected_species(1) == pytest.approx(1.0, rel=1e-12)
    assert pd_half.expected_species(2) == pytest.approx(5 / 3, rel=1e-12)
    assert pd_half.expected_species(3) == pytest.approx(2.2, rel=1e-12)


def test_expected_species_monotone(pd_half):
    values = [pd_half.expected_species(n) for n in range(1, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def _py_expected_species(mpmath, alpha, theta, n):
    # Pitman (2006): (theta/alpha) ((theta+alpha)_n / (theta)_n - 1); sum theta/(theta+i) at alpha = 0
    a, t = mpmath.mpf(alpha), mpmath.mpf(theta)
    if alpha == 0:
        return mpmath.fsum(t / (t + i) for i in range(n))
    return t / a * (mpmath.rf(t + a, n) / mpmath.rf(t, n) - 1)


def test_expected_species_matches_closed_form():
    mpmath = pytest.importorskip("mpmath")
    models = [
        PitmanYor(0.5, 1.0), PitmanYor(0.0, 2.0), PitmanYor(0.9, 0.5), PitmanYor(0.25, -0.1),
        PitmanYor(-0.5, s=50), PitmanYor(-1.5, s=1000),
    ]
    with mpmath.workdps(50):
        for model in models:
            for n in (1, 2, 10, 100, 1024, 1025, 2000, 4000):
                want = _py_expected_species(mpmath, model.alpha, model.theta, n)
                got = model.expected_species(n)
                assert abs((got - want) / want) <= 1e-9, (model, n)


def test_exact_good_turing_pinned(pd_half):
    assert pd_half.exact_good_turing(1, 2) == pytest.approx(0.2, rel=1e-12)


def test_exact_good_turing_errors(pd_half):
    with pytest.raises(ValueError):
        pd_half.exact_good_turing(0, 5)
    with pytest.raises(ValueError):
        pd_half.exact_good_turing(6, 5)


def test_exact_good_turing_impossible_count():
    m = PitmanYor(-0.5, s=1)  # single species: C(l, n) = 0 for l < n
    with pytest.raises(ValueError, match="impossible"):
        m.exact_good_turing(1, 3)
    assert m.exact_good_turing(3, 3) == pytest.approx(1.0, rel=1e-12)


def test_exact_good_turing_row_matches_scalar(pd_half):
    for n in (1, 2, 7, 23):
        row = pd_half.exact_good_turing_row(n)
        want = [pd_half.exact_good_turing(l, n) for l in range(1, n + 1)]
        np.testing.assert_allclose(row, want, rtol=1e-12)


def test_exact_good_turing_row_marks_impossible_counts():
    m = PitmanYor(-0.5, s=1)
    row = m.exact_good_turing_row(4)
    assert np.isnan(row[:3]).all()
    assert row[3] == pytest.approx(1.0, rel=1e-12)


def test_max_size_enforced():
    m = TabularGibbsModel.from_bottom_row(0.5, np.ones(4))
    with pytest.raises(ValueError):
        m.expected_count(1, 5)
    with pytest.raises(ValueError):
        m.exact_good_turing(1, 4)  # needs weights at n + 1 = 5
    m.exact_good_turing(1, 3)  # fine


# -- numeric weight tables ----------------------------------------------


def test_from_bottom_row_builds_valid_table():
    m = TabularGibbsModel.from_bottom_row(0.3, [2.0, 1.0, 0.5, 0.25, 0.125])
    assert math.exp(m.log_weight(1, 1)) == pytest.approx(1.0, rel=1e-14)
    # recursion holds everywhere by construction (validation did not raise)
    for n in range(1, 5):
        for k in range(1, n + 1):
            lhs = math.exp(m.log_weight(n, k))
            rhs = (n - k * 0.3) * math.exp(m.log_weight(n + 1, k)) + math.exp(
                m.log_weight(n + 1, k + 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tabular_matches_pitman_yor():
    pd = PitmanYor(0.25, 2.0)
    bottom = [math.exp(pd.log_weight(8, k)) for k in range(1, 9)]
    tab = TabularGibbsModel.from_bottom_row(0.25, bottom)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert math.exp(tab.log_weight(n, k)) == pytest.approx(
                math.exp(pd.log_weight(n, k)), rel=1e-10
            )
    for n in range(1, 8):
        for l in range(1, n + 1):
            assert tab.exact_good_turing(l, n) == pytest.approx(
                pd.exact_good_turing_closed(l, n), rel=1e-10
            )


def test_tabular_validation_rejects_bad_tables():
    with pytest.raises(ValueError, match="V\\(1,1\\)"):
        TabularGibbsModel(0.5, [[2.0]])
    with pytest.raises(ValueError, match="recursion"):
        TabularGibbsModel(0.5, [[1.0], [0.9, 0.1]])  # (2-a)*0.9+0.1 != 1
    with pytest.raises(ValueError, match="negative"):
        TabularGibbsModel(0.5, [[1.0], [0.7, -0.1]])
    with pytest.raises(ValueError):
        TabularGibbsModel(0.5, [[1.0], [0.5]])  # wrong row length
    with pytest.raises(ValueError):
        TabularGibbsModel(0.5, [])


@pytest.mark.parametrize("rows", [[[1.0], [0.5, math.nan]], [[1.0], [math.inf, 1.0]]])
def test_tabular_rejects_non_finite_weights(rows):
    # NaN and inf pass the positivity and recursion comparisons
    with pytest.raises(ValueError, match="finite"):
        TabularGibbsModel(0.5, rows)


def test_tabular_support_must_be_contiguous():
    # row with an interior zero: V(3,2) = 0 but V(3,3) > 0
    rows = [[1.0], [0.6, 0.1], [0.2, 0.0, 0.1]]
    with pytest.raises(ValueError, match="support"):
        TabularGibbsModel(0.5, rows)


def test_tabular_rows_are_read_only():
    m = TabularGibbsModel.from_bottom_row(0.5, np.ones(8))
    before = m.exact_good_turing(1, 4)
    row = m.log_weight_row(4, 4)
    assert not row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        row[:] = 0.0
    assert m.exact_good_turing(1, 4) == before


def test_tabular_degenerate_single_species():
    # V(n, k) = 0 for k > 1 is a legal model (everything lands in one block)
    alpha = -0.5
    rows = [[1.0]]
    for n in range(1, 5):
        prev = rows[-1][0]
        rows.append([prev / (n - alpha), 0.0])
        rows[-1] += [0.0] * (n - 1)
    m = TabularGibbsModel(alpha, rows)
    assert m.eppf(Composition((5,))) == pytest.approx(1.0, rel=1e-10)
    assert m.eppf(Composition((4, 1))) == 0.0


def test_inconsistent_table_is_rejected():
    # V(1,1) = (1-alpha) V(2,1) + V(2,2) = 0.5 * 1.0 + 0.5, checked to rel 1e-8
    TabularGibbsModel(0.5, [[1.0], [1.0, 0.5 * (1 + 1e-10)]])
    for rows in ([[1.0], [1.0, 0.5 * (1 + 1e-6)]], [[1.0], [0.9, 0.1]]):
        with pytest.raises(ValueError, match="recursion"):
            TabularGibbsModel(0.5, rows)


@pytest.mark.parametrize("make", [lambda: PitmanYor(0.5, 1.0), lambda: PitmanYor(-0.5, s=2),
                                  lambda: TabularGibbsModel.from_bottom_row(0.5, np.ones(5))],
                         ids=["pitman-yor", "pitman-yor-finite", "tabular"])
@pytest.mark.parametrize("kmax", [10, 4, 0, -2])
def test_log_weight_row_rejects_kmax_out_of_range(make, kmax):
    model = make()
    with pytest.raises(ValueError, match="kmax"):
        model.log_weight_row(3, kmax)
    assert len(model.log_weight_row(3, 3)) == 3


def _first_recursion_failure(alpha, table, rtol=1e-8):
    # the scalar loop the vectorized validation replaced, as the reference
    for n in range(1, len(table)):
        v_n, v_next = table[n - 1], table[n]
        for k in range(1, n + 1):
            lhs = v_n[k - 1]
            rhs = (n - k * alpha) * v_next[k - 1] + v_next[k]
            if abs(lhs - rhs) > rtol * max(abs(lhs), abs(rhs), 1e-300):
                return (
                    f"backward recursion fails at (n={n}, k={k}): "
                    f"V(n,k)={lhs!r} vs (n-k*alpha)V(n+1,k)+V(n+1,k+1)={rhs!r}"
                )
    return None


@pytest.mark.parametrize("seed", range(6))
def test_validation_reports_first_failure_like_the_loop(seed):
    # perturb a few entries of a valid table; the error names the first
    # failing (n, k) in row-major order with the loop's exact message
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(-1.0, 0.9))
    good = TabularGibbsModel.from_bottom_row(alpha, rng.uniform(0.5, 2.0, 30))
    table = [np.exp(good.log_weight_row(n, n)) for n in range(1, 31)]
    for _ in range(3):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, n + 1))
        table[n - 1][k - 1] *= 1.0 + float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-7, -2)
    want = _first_recursion_failure(alpha, table)
    assert want is not None
    with pytest.raises(ValueError) as exc:
        TabularGibbsModel(alpha, table)
    assert str(exc.value) == want


def test_from_bottom_row_rejects_nonpositive():
    with pytest.raises(ValueError):
        TabularGibbsModel.from_bottom_row(0.5, [1.0, 0.0, 1.0])


# -- one model shared between threads ---------------------------------------


def test_shared_model_across_threads():
    # dense rows, rows around the checkpoints and rows past the highest one
    # built, requested in a different order by each thread while the cache grows
    model = PitmanYor(0.5, 1.0)
    top = DENSE_ROWS + 10 * CHECKPOINT_STRIDE
    wanted = sorted(
        {0, 1, 2, 100, 511, DENSE_ROWS - 1, DENSE_ROWS, DENSE_ROWS + 1}
        | {DENSE_ROWS + j * CHECKPOINT_STRIDE + d for j in (1, 2, 5) for d in (-1, 0, 1)}
        | set(range(top - 40, top + 1, 8))
    )
    ref = {m: row for m, row in enumerate(iter_stirling_log_rows(top, 0.5)) if m in set(wanted)}
    errors = []

    def worker(seed):
        try:
            rng = np.random.default_rng(seed)
            for m in rng.permutation(wanted):
                row = model.stirling_rows.log_row(int(m))
                if row.flags.writeable or not np.array_equal(row, ref[m]):
                    errors.append(f"row {m}")
            for n in rng.permutation([10, DENSE_ROWS + 3, top - 5]):
                got = model.exact_good_turing(1, int(n))
                if abs(got - model.exact_good_turing_closed(1, int(n))) > 1e-9 * got:
                    errors.append(f"estimate at n={n}")
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "a worker thread did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
