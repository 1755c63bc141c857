import math
import sys
import threading
import warnings

import numpy as np
import pytest

from goodturing import gibbs
from goodturing.gibbs import Composition, GibbsModel, TabularGibbsModel
from goodturing.pitman_yor import PitmanYor
from goodturing.specfun import CHECKPOINT_STRIDE, DENSE_ROWS, iter_stirling_log_rows


@pytest.fixture
def pd_half():
    # a Pitman-Yor model; the moment and estimator tests below call the
    # Stirling-sum route as GibbsModel.<method>(pd_half, ...), since
    # PitmanYor's own methods answer from closed forms
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
    assert GibbsModel.expected_count(pd_half, 1, 2) == pytest.approx(4 / 3, rel=1e-12)
    assert GibbsModel.expected_count(pd_half, 2, 2) == pytest.approx(1 / 3, rel=1e-12)


def test_expected_count_totals(pd_half):
    # sum_l l E[C_l] = n and sum_l E[C_l] = E[K_n]
    for n in (1, 2, 5, 13):
        cl = [GibbsModel.expected_count(pd_half, l, n) for l in range(1, n + 1)]
        assert sum(l * c for l, c in zip(range(1, n + 1), cl)) == pytest.approx(n, rel=1e-12)
        assert sum(cl) == pytest.approx(GibbsModel.expected_species(pd_half, n), rel=1e-12)


#: the closed-form route and the Stirling-sum route of a Pitman-Yor model
ROUTES = (PitmanYor, GibbsModel)


def test_expected_count_range_errors(pd_half):
    for route in ROUTES:
        for l, n in ((0, 3), (4, 3), (1, 0)):
            with pytest.raises(ValueError):
                route.expected_count(pd_half, l, n)


def test_falling_factorial_moment(pd_half):
    assert GibbsModel.falling_factorial_moment(pd_half, 1, 2, 2) == pytest.approx(4 / 3, rel=1e-12)
    # r = 1 reduces to the expected count
    for l, n in ((1, 5), (2, 6), (3, 3)):
        assert GibbsModel.falling_factorial_moment(pd_half, l, n, 1) == pytest.approx(
            GibbsModel.expected_count(pd_half, l, n), rel=1e-12
        )
    # more blocks of size l than fit in n
    assert GibbsModel.falling_factorial_moment(pd_half, 4, 7, 2) == 0.0


@pytest.mark.parametrize("l, n, r", [(1, 5, 0), (1, 5, -1), (0, 5, 1), (6, 5, 1), (1, 0, 1)])
def test_falling_factorial_moment_errors(pd_half, l, n, r):
    for route in ROUTES:
        with pytest.raises(ValueError):
            route.falling_factorial_moment(pd_half, l, n, r)


@pytest.mark.parametrize("n", [0, -1])
def test_expected_species_errors(pd_half, n):
    for route in ROUTES:
        with pytest.raises(ValueError, match="must be >= 1"):
            route.expected_species(pd_half, n)


def test_expected_species_pinned(pd_half):
    assert GibbsModel.expected_species(pd_half, 1) == pytest.approx(1.0, rel=1e-12)
    assert GibbsModel.expected_species(pd_half, 2) == pytest.approx(5 / 3, rel=1e-12)
    assert GibbsModel.expected_species(pd_half, 3) == pytest.approx(2.2, rel=1e-12)


def test_expected_species_monotone(pd_half):
    values = [GibbsModel.expected_species(pd_half, n) for n in range(1, 30)]
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
                got = GibbsModel.expected_species(model, n)
                assert abs((got - want) / want) <= 1e-9, (model, n)


def test_exact_good_turing_pinned(pd_half):
    assert GibbsModel.exact_good_turing(pd_half, 1, 2) == pytest.approx(0.2, rel=1e-12)


def test_exact_good_turing_errors(pd_half):
    for route in ROUTES:
        for l, n in ((0, 5), (6, 5), (1, 0)):
            with pytest.raises(ValueError):
                route.exact_good_turing(pd_half, l, n)


def test_exact_good_turing_impossible_count():
    m = PitmanYor(-0.5, s=1)  # single species: C(l, n) = 0 for l < n
    for route in ROUTES:
        with pytest.raises(ValueError, match="impossible"):
            route.exact_good_turing(m, 1, 3)
        assert route.exact_good_turing(m, 3, 3) == pytest.approx(1.0, rel=1e-12)


def test_exact_good_turing_row_matches_scalar(pd_half):
    for n in (1, 2, 7, 23):
        row = pd_half.exact_good_turing_row(n)
        want = [GibbsModel.exact_good_turing(pd_half, l, n) for l in range(1, n + 1)]
        np.testing.assert_allclose(row, want, rtol=1e-12)


def test_exact_good_turing_row_marks_impossible_counts():
    m = PitmanYor(-0.5, s=1)
    row = m.exact_good_turing_row(4)
    assert np.isnan(row[:3]).all()
    assert row[3] == pytest.approx(1.0, rel=1e-12)


def _two_log_sums_logsumexp(x):
    mx = x.max(axis=1)
    out = np.full(x.shape[0], -np.inf)
    finite = np.isfinite(mx)
    if finite.any():
        z = np.exp(x[finite] - mx[finite, None])
        out[finite] = mx[finite] + np.log(z.sum(axis=1))
    return out


def _two_log_sums_row(model, n, block=128):
    """The estimator row as two log-sums per row, numerator and denominator
    apart: the reference for the row's one shared exp pass."""
    lw_n = model.log_weight_row(n, n)
    lw_next = model.log_weight_row(n + 1, n + 1)[:n]
    num, den = np.empty(n), np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        m_rows = np.full((hi - lo, hi), -np.inf)
        for m in range(lo, hi):
            m_rows[m - lo, : m + 1] = model.stirling_rows.log_row(m)
        num[lo:hi] = _two_log_sums_logsumexp(m_rows + lw_next[:hi])
        den[lo:hi] = _two_log_sums_logsumexp(m_rows + lw_n[:hi])
    with np.errstate(invalid="ignore"):
        out = np.arange(n, 0, -1, dtype=float) - model.alpha
        out *= np.exp(num - den)
    return out[::-1]


def _assert_rows_agree(got, want, rtol=1e-12):
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    known = ~np.isnan(want)
    np.testing.assert_allclose(got[known], want[known], rtol=rtol, atol=0)


_ROW_SIZES = (1, 2, 40, 127, 128, 129, 1024, 1025, 1100)  # block and DENSE_ROWS edges


@pytest.mark.parametrize(
    "model",
    [
        PitmanYor(0.0, 1.0),
        PitmanYor(0.3, 1.0),
        PitmanYor(0.9, 0.5),
        PitmanYor(0.5, -0.25),
        PitmanYor(-0.5, s=1),
        PitmanYor(-0.5, s=2),
        PitmanYor(-1.0, s=300),
        TabularGibbsModel.from_bottom_row(0.4, np.random.default_rng(3).uniform(0.5, 2.0, 160)),
        TabularGibbsModel.from_bottom_row(-0.3, np.random.default_rng(4).uniform(0.5, 2.0, 130)),
    ],
    ids=lambda m: repr(m) if isinstance(m, PitmanYor) else f"tabular(alpha={m.alpha}, N={m.max_size})",
)
def test_exact_good_turing_row_matches_two_log_sums(model):
    for n in _ROW_SIZES:
        if model.max_size is None or n < model.max_size:
            _assert_rows_agree(GibbsModel.exact_good_turing_row(model, n), _two_log_sums_row(model, n))


def test_pitman_yor_row_matches_closed_form_at_2000():
    for model in (PitmanYor(0.3, 1.0), PitmanYor(0.75, -0.5), PitmanYor(-1.0, s=300)):
        n = 2000
        closed = (np.arange(1, n + 1) - model.alpha) / (model.theta + n)
        np.testing.assert_allclose(GibbsModel.exact_good_turing_row(model, n), closed, rtol=1e-10, atol=0)


class _SteepRatios(GibbsModel):
    """Not a Gibbs model: log V(size, k) = tilt (k-1), and each weight at
    size + 1 is that times exp(690 - slope (k-1)), so the ratios
    V(size+1, k)/V(size, k) span slope (size-1) in log.  Rows whose mass sits
    at large k have a shared-pass numerator below the normal floats."""

    def __init__(self, alpha, size, tilt, slope):
        super().__init__(alpha)
        self.size, self.tilt, self.slope = size, tilt, slope

    def log_weight_row(self, n, kmax):
        self._check_row(n, kmax)
        k = np.arange(kmax, dtype=float)
        return self.tilt * k + (690.0 - self.slope * k if n > self.size else 0.0)


class _VanishingWeights(GibbsModel):
    """Not a Gibbs model: V(size, k) = 0 for k > 5 while V(size+1, k) > 0,
    a numerator term the shared pass cannot see."""

    def __init__(self, alpha, size):
        super().__init__(alpha)
        self.size = size

    def log_weight_row(self, n, kmax):
        self._check_row(n, kmax)
        row = -np.arange(kmax, dtype=float)
        if n == self.size:
            row[5:] = -np.inf
        return row


#: a table the library accepts whose weight ratios at n = 11 span 689 in log
_EXTREME_TABLE = TabularGibbsModel.from_bottom_row(0.5, np.resize([1e-150, 1e150], 12))


@pytest.mark.parametrize(
    "model, n",
    [
        (_SteepRatios(-1.0, 300, 10.0, 6.0), 300),
        (_SteepRatios(0.5, 300, 10.0, 6.0), 300),
        (_VanishingWeights(0.5, 40), 40),
        (_EXTREME_TABLE, 11),
    ],
    ids=["steep-alpha-neg", "steep-alpha-half", "vanishing", "extreme-table"],
)
def test_exact_good_turing_row_redoes_rows_the_shared_pass_cannot_give(model, n, monkeypatch):
    redone = []
    two_sums = gibbs._row_logsumexp
    monkeypatch.setattr(gibbs, "_row_logsumexp", lambda x: redone.append(len(x)) or two_sums(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = GibbsModel.exact_good_turing_row(model, n)
    assert 0 < sum(redone) // 2 < n  # some rows redone, some not
    monkeypatch.undo()
    _assert_rows_agree(got, _two_log_sums_row(model, n))


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


def test_zero_weight_against_a_subnormal_one_is_rejected():
    # V(2,2) = 0 but (2 - 2 alpha) V(3,2) + V(3,3) = 2e-320: the recursion
    # check has no absolute floor, so a residual below 1e-300 still counts
    rows = [[1.0], [2.0, 0.0], [(2 - 1e-320) / 1.5, 1e-320, 1e-320]]
    with pytest.raises(ValueError, match=r"recursion fails at \(n=2, k=2\)"):
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
                got = GibbsModel.exact_good_turing(model, 1, int(n))
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
