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
        model.log_weight(1, 1)


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
    with pytest.raises(ValueError):
        pd_half.predict_old(3, 4, 1)  # k > n
    with pytest.raises(ValueError):
        pd_half.predict_old(3, 2, 5)  # n_j > n
    with pytest.raises(ValueError):
        pd_half.predict_new(0, 1)


def test_predictive_probs_sum_to_one(pd_half):
    for counts in ([1], [2, 1], [5, 3, 1, 1], [1] * 7):
        old, new = pd_half.predictive_probs(counts)
        assert old.sum() + new == pytest.approx(1.0, rel=1e-12)
        assert np.all(old > 0) and new > 0


def test_predictive_probs_empty_urn(pd_half):
    old, new = pd_half.predictive_probs([])
    assert len(old) == 0 and new == 1.0


def test_predictive_probs_generic_matches_closed(pd_half):
    # the base-class route through the weights vs the Pitman-Yor shortcut
    for counts in ([1], [3, 1], [2, 2, 1]):
        old_c, new_c = pd_half.predictive_probs(counts)
        old_g, new_g = GibbsModel.predictive_probs(pd_half, counts)
        np.testing.assert_allclose(old_g, old_c, rtol=1e-12)
        assert new_g == pytest.approx(new_c, rel=1e-12)


def test_predictive_probs_saturated_support():
    m = PitmanYor(-0.5, s=2)
    old, new = m.predictive_probs([3, 2])
    assert new == 0.0
    assert old.sum() == pytest.approx(1.0, rel=1e-12)


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
    # recursion holds everywhere by construction (validate=True did not raise)
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
    with pytest.raises(ValueError, match="finite"):
        TabularGibbsModel(0.5, rows, validate=False)


def test_tabular_support_must_be_contiguous():
    # row with an interior zero: V(3,2) = 0 but V(3,3) > 0
    rows = [[1.0], [0.6, 0.1], [0.2, 0.0, 0.1]]
    with pytest.raises(ValueError, match="support"):
        TabularGibbsModel(0.5, rows, validate=False)


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


def test_validate_flag_skips_consistency_check():
    rows = [[1.0], [0.9, 0.1]]  # recursion violated
    TabularGibbsModel(0.5, rows, validate=False)  # does not raise
    with pytest.raises(ValueError):
        TabularGibbsModel(0.5, rows, validate=True)


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
