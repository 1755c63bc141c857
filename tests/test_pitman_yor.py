import math

import numpy as np
import pytest

from goodturing.gibbs import GibbsModel
from goodturing.pitman_yor import PitmanYor, jeffreys_estimate, johnson_estimate


def test_constructor_validation():
    with pytest.raises(ValueError):
        PitmanYor(1.0, 1.0)
    with pytest.raises(ValueError):
        PitmanYor(0.5)  # theta missing
    with pytest.raises(ValueError):
        PitmanYor(0.5, -0.5)  # theta + alpha = 0 not allowed
    with pytest.raises(ValueError):
        PitmanYor(0.5, -0.7)
    with pytest.raises(ValueError):
        PitmanYor(0.5, 1.0, s=3)  # s only for alpha < 0
    with pytest.raises(ValueError):
        PitmanYor(-0.5)  # s missing
    with pytest.raises(ValueError):
        PitmanYor(-0.5, s=0)
    with pytest.raises(ValueError):
        PitmanYor(-0.5, s=2.5)
    with pytest.raises(ValueError):
        PitmanYor(-0.5, theta=3.0, s=2)  # |alpha| s = 1, not 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        PitmanYor(bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        PitmanYor(bad, s=3)
    with pytest.raises(ValueError, match="finite"):
        PitmanYor(0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        PitmanYor(-0.5, theta=bad, s=2)


def test_negative_alpha_infers_theta():
    m = PitmanYor(-0.5, s=4)
    assert m.theta == 2.0 and m.s == 4
    # consistent theta is accepted
    m2 = PitmanYor(-0.5, theta=2.0, s=4)
    assert m2.theta == 2.0


def test_repr_mentions_parameters():
    assert "0.5" in repr(PitmanYor(0.5, 1.25))
    assert "s=3" in repr(PitmanYor(-1.0, s=3))


def test_weights_pinned():
    m = PitmanYor(0.5, 0.5)
    assert math.exp(m.log_weight(2, 1)) == pytest.approx(2 / 3, rel=1e-12)
    assert math.exp(m.log_weight(2, 2)) == pytest.approx(2 / 3, rel=1e-12)
    assert m.log_weight(1, 1) == 0.0


def test_weight_row_matches_mpmath():
    # V(n, k) = prod_{i<k} (theta + i alpha) / (theta + 1)_(n-1), in 40 digits
    mpmath = pytest.importorskip("mpmath")
    models = [PitmanYor(0.5, 0.5), PitmanYor(0.0, 2.0), PitmanYor(-0.5, s=40),
              PitmanYor(0.9, -0.3), PitmanYor(0.25, -0.1)]
    n_top = 3000
    with mpmath.workdps(40):
        for m in models:
            a, t = mpmath.mpf(m.alpha), mpmath.mpf(m.theta)
            kmax = n_top if m.s is None else m.s
            log_num = [mpmath.mpf(0)]
            for i in range(1, kmax):
                log_num.append(log_num[-1] + mpmath.log(t + i * a))
            log_den = [mpmath.mpf(0)]
            for i in range(1, n_top):
                log_den.append(log_den[-1] + mpmath.log(t + i))
            for n in (1, 2, 10, 1000, n_top):
                row = m.log_weight_row(n, n)
                if m.s is not None:
                    assert np.all(row[m.s:] == -math.inf), (m, n)
                for k in range(1, min(n, kmax) + 1):
                    want = log_num[k - 1] - log_den[n - 1]
                    assert abs(mpmath.expm1(row[k - 1] - want)) <= 1e-9, (m, n, k)


def test_finite_support_weights_vanish():
    m = PitmanYor(-0.5, s=2)
    assert m.log_weight(5, 3) == -math.inf
    row = m.log_weight_row(5, 5)
    assert np.all(np.isinf(row[2:]))
    assert np.all(np.isfinite(row[:2]))
    # theta within the accepted rounding of |alpha| s leaves factor theta + s alpha
    # slightly positive; the weights still vanish beyond s species
    m = PitmanYor(-0.1, theta=0.3 + 1e-11, s=3)
    assert m.theta + 3 * m.alpha > 0
    row = m.log_weight_row(6, 6)
    assert np.all(np.isinf(row[3:])) and np.all(np.isfinite(row[:3]))
    assert m.log_weight(6, 4) == -math.inf


def test_backward_recursion_small_grid():
    for m in (PitmanYor(0.5, 0.5), PitmanYor(0.1, 10.0), PitmanYor(0.0, 1.0), PitmanYor(-1.0, s=5)):
        for n in range(1, 25):
            for k in range(1, n + 1):
                v_n = math.exp(m.log_weight(n, k))
                if v_n == 0.0:
                    continue
                v_a = math.exp(m.log_weight(n + 1, k))
                v_b = math.exp(m.log_weight(n + 1, k + 1)) if k + 1 <= n + 1 else 0.0
                assert v_n == pytest.approx((n - k * m.alpha) * v_a + v_b, rel=1e-11)


def test_closed_form_pinned():
    m = PitmanYor(0.5, 0.5)
    assert m.exact_good_turing_closed(1, 2) == pytest.approx(0.2, rel=1e-15)
    assert m.exact_good_turing_closed(1, 2) == (1 - 0.5) / (0.5 + 2)
    with pytest.raises(ValueError):
        m.exact_good_turing_closed(0, 2)


def test_predictive_mean_equals_predict_old():
    # the posterior mean frequency of an observed species is the urn's
    # probability that the next draw extends it
    m = PitmanYor(0.3, 2.0)
    counts = (4, 2, 1)
    n, k = sum(counts), len(counts)
    for n_j in counts:
        assert m.exact_good_turing_closed(n_j, n) == pytest.approx(
            m.predict_old(n, k, n_j), rel=1e-12
        )


def test_closed_matches_stirling_route():
    for m in (PitmanYor(0.25, 1.0), PitmanYor(0.9, -0.4), PitmanYor(0.0, 0.5)):
        for n in (1, 2, 5, 12):
            for l in range(1, n + 1):
                assert GibbsModel.exact_good_turing(m, l, n) == pytest.approx(
                    m.exact_good_turing_closed(l, n), rel=1e-11
                )


def test_johnson_jeffreys_pinned():
    assert johnson_estimate(1.0, 3, 2, 5) == 3 / 8
    assert jeffreys_estimate(4, 1, 6) == 0.2
    # exact agreement with the corresponding Pitman-Yor closed forms
    assert PitmanYor(-1.0, s=3).exact_good_turing_closed(2, 5) == johnson_estimate(1.0, 3, 2, 5)
    assert PitmanYor(-0.5, s=6).exact_good_turing_closed(1, 4) == johnson_estimate(0.5, 6, 1, 4)


def test_johnson_validation():
    with pytest.raises(ValueError):
        johnson_estimate(0.0, 3, 1, 2)
    with pytest.raises(ValueError):
        johnson_estimate(0.5, 0, 1, 2)
    with pytest.raises(ValueError):
        johnson_estimate(0.5, 3, 0, 2)
    with pytest.raises(ValueError):
        johnson_estimate(0.5, 3, 3, 2)
    for abs_alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            johnson_estimate(abs_alpha, 3, 1, 2)
    with pytest.raises(ValueError, match="finite"):
        johnson_estimate(1e308, 2, 1, 3)  # |alpha| s overflows


def test_overflowing_species_bound_rejected():
    # |alpha| s = inf would pass the theta consistency test, inf > inf being false
    with pytest.raises(ValueError, match="finite"):
        PitmanYor(-1e308, theta=1.4e-54, s=4473)
    with pytest.raises(ValueError, match="finite"):
        PitmanYor(-1e308, s=2)


def test_huge_discount_stays_finite():
    # |alpha| s is finite, but n |alpha| overflows inside the Stirling factors n - k alpha
    m = PitmanYor(-1e306, s=2)
    for l, n in ((1, 3), (1, 500), (250, 500)):
        assert GibbsModel.exact_good_turing(m, l, n) == pytest.approx(m.exact_good_turing_closed(l, n), rel=1e-9)
    assert GibbsModel.expected_species(m, 500) == pytest.approx(2.0, rel=1e-8)  # as at alpha = -1e100
    for route in (GibbsModel, PitmanYor):
        with pytest.raises(ValueError, match="probability zero"):
            route.exact_good_turing(PitmanYor(-1e308, s=1), 1, 5)  # one species is always seen n times


def test_structural_species_dirichlet_process_harmonic():
    # alpha = 0: E[K_n] = sum_{j<n} theta/(theta+j)
    m = PitmanYor(0.0, 1.0)
    assert m.expected_species_structural(4) == pytest.approx(25 / 12, rel=1e-13)
    assert m.expected_species_structural(1) == pytest.approx(1.0, rel=1e-14)
    for n in (2, 7, 30):
        want = sum(1.0 / (1.0 + j) for j in range(n))
        assert m.expected_species_structural(n) == pytest.approx(want, rel=1e-12)


def test_structural_species_matches_partition_route():
    for m in (PitmanYor(0.5, 0.5), PitmanYor(0.25, 2.0)):
        for n in (1, 2, 3, 10, 40):
            assert m.expected_species_structural(n) == pytest.approx(
                GibbsModel.expected_species(m, n), rel=1e-10
            )


def test_structural_species_rejects_negative_alpha():
    with pytest.raises(ValueError):
        PitmanYor(-0.5, s=3).expected_species_structural(5)


def test_finite_model_species_bounded():
    m = PitmanYor(-1.0, s=3)
    values = [m.expected_species(n) for n in (1, 2, 5, 20, 60)]
    assert all(v <= 3.0 + 1e-12 for v in values)
    assert values == sorted(values)
    # symmetric Dirichlet(1,1,1): a given species is missed with
    # probability 2/(n+2), so E[K_n] = 3n/(n+2)
    assert values[-1] == pytest.approx(90 / 31, rel=1e-10)


def test_generic_weight_route_matches_closed_urn():
    # predict_old/predict_new through the weights vs the urn rule
    # (n_j - alpha)/(theta + n) and (theta + k alpha)/(theta + n), 0 at k = s
    for m in (PitmanYor(0.5, 0.5), PitmanYor(0.0, 2.0), PitmanYor(0.9, -0.3), PitmanYor(-0.5, s=3)):
        for counts in ([1], [2, 1], [3, 3, 1]):
            n, k = sum(counts), len(counts)
            old = [m.predict_old(n, k, n_j) for n_j in counts]
            for n_j, got in zip(counts, old):
                assert got == pytest.approx((n_j - m.alpha) / (m.theta + n), rel=1e-12)
            new = m.predict_new(n, k)
            if m.s is not None and k == m.s:
                assert new == 0.0
            else:
                assert new == pytest.approx((m.theta + k * m.alpha) / (m.theta + n), rel=1e-12)
            assert math.fsum(old) + new == pytest.approx(1.0, rel=1e-12)
