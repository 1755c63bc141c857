"""The Pitman-Yor closed forms of goodturing.closed against 50-digit references."""

import math

import pytest

from goodturing import closed
from goodturing.gibbs import GibbsModel
from goodturing.pitman_yor import PitmanYor

mpmath = pytest.importorskip("mpmath")

SIZES = (1, 10, 1000, 10_000)

MODELS = {
    "dirichlet-process": (0.0, 2.0, None),
    "alpha-1e-9": (1e-9, 1.0, None),
    "alpha-1e-9-theta-negative": (1e-9, -0.5e-9, None),
    "half": (0.5, 1.0, None),
    "theta-negative": (0.9, -0.3, None),
    "theta-near-minus-alpha": (0.25, -0.25 + 1e-9, None),
    "theta-large": (0.3, 1e6, None),
    "finite-s1": (-0.5, None, 1),
    "finite-s2": (-0.5, None, 2),
    "finite-s60": (-0.5, None, 60),
    "finite-alpha-1e-9": (-1e-9, None, 2),
    "huge-discount": (-1e306, None, 2),
    "theta-off-by-rounding": (-0.1, 0.3 * (1 + 5e-10), 3),
}


class Reference:
    """PD(alpha, theta) moments in mpmath; theta = |alpha| s for alpha < 0,
    with the factors theta + i alpha exactly |alpha| (s - i)."""

    def __init__(self, alpha, theta, s):
        # log-gamma differences lose the magnitude of their arguments, and
        # E[K_n] at tiny alpha cancels to about alpha: carry enough digits
        scale = max(abs(alpha) * (s or 1), abs(theta or 0.0), 1.0 / abs(alpha) if alpha else 1.0, 1.0)
        self.dps = 50 + int(math.log10(scale))
        with mpmath.workdps(self.dps):
            self.a = mpmath.mpf(alpha)
            self.s = s
            self.t = -self.a * s if s is not None else mpmath.mpf(theta)

    def factor(self, i):
        return -self.a * (self.s - i) if self.s is not None else self.t + i * self.a

    @staticmethod
    def log_rising(x, m):
        return mpmath.loggamma(x + m) - mpmath.loggamma(x) if m else mpmath.mpf(0)

    def falling(self, l, n, r):
        with mpmath.workdps(self.dps):
            m = n - l * r
            weights = [self.factor(i) for i in range(1, r)]
            base = self.factor(r)
            if m < 0 or 0 in weights or (base == 0 and m > 0):
                return mpmath.mpf(0)
            log = (
                mpmath.loggamma(n + 1) - r * mpmath.loggamma(l + 1) - mpmath.loggamma(m + 1)
                + r * self.log_rising(1 - self.a, l - 1)
                + mpmath.fsum(mpmath.log(w) for w in weights)
                + (self.log_rising(base, m) if m else 0)
                - self.log_rising(self.t + 1, n - 1)
            )
            return mpmath.exp(log)

    def species(self, n):
        with mpmath.workdps(self.dps):
            a, t = self.a, self.t
            if a == 0:
                return t * (mpmath.digamma(t + n) - mpmath.digamma(t))
            # theta/alpha ((theta+alpha)_n/(theta)_n - 1) with the i = 0 factors split off
            log_ratio = self.log_rising(t + a + 1, n - 1) - self.log_rising(t + 1, n - 1)
            return (t * mpmath.expm1(log_ratio) + a * mpmath.exp(log_ratio)) / a


def _rel(got, want):
    return float(abs(got - want) / want) if want else abs(got)


@pytest.mark.parametrize("name", MODELS)
def test_moments_match_50_digit_reference(name):
    model = PitmanYor(*MODELS[name][:2], s=MODELS[name][2])
    ref = Reference(*MODELS[name])
    worst = 0.0
    for n in SIZES:
        worst = max(worst, _rel(model.expected_species(n), ref.species(n)))
        for r in (1, 2, 3):
            for l in range(1, min(n, 20) + 1):
                got, want = model.falling_factorial_moment(l, n, r), ref.falling(l, n, r)
                if want == 0:
                    assert got == 0.0, (n, l, r)
                elif want > 1e-290:  # below that the answer itself is subnormal or zero
                    worst = max(worst, _rel(got, want))
                if r == 1:
                    assert model.expected_count(l, n) == got
    assert worst <= 1e-12


def test_finite_model_zeros_are_exact():
    m = PitmanYor(-0.1, theta=0.3 + 1e-11, s=3)  # theta + 3 alpha = 1e-11 > 0
    assert m.falling_factorial_moment(1, 10, 3) == 0.0  # three singletons among 10 draws of 3 species
    assert m.falling_factorial_moment(1, 10, 4) == 0.0
    assert m.falling_factorial_moment(2, 6, 3) > 0.0  # every species seen twice
    assert all(m.expected_species(n) <= 3.0 for n in (1, 10, 10_000))
    assert PitmanYor(-0.5, s=1).expected_species(10_000) == 1.0


def test_impossible_count_raises_on_both_routes():
    m = PitmanYor(-0.5, s=1)
    for route in (PitmanYor, GibbsModel):
        with pytest.raises(ValueError, match="probability zero"):
            route.exact_good_turing(m, 2, 7)
    assert m.exact_good_turing(7, 7) == 1.0
    assert m.exact_good_turing_closed(2, 7) == (2 + 0.5) / (0.5 + 7)  # the bare formula keeps its value


@pytest.mark.parametrize("y, d, m", [(1.0, 0.5, 7), (0.5 + 1e-9, -0.5, 40), (1e-9, 1.0, 3), (3.0, -2.0, 1000)])
def test_log_rising_ratio(y, d, m):
    with mpmath.workdps(50):
        want = mpmath.fsum(mpmath.log(mpmath.mpf(y) + d + i) - mpmath.log(mpmath.mpf(y) + i) for i in range(m))
    assert closed.log_rising_ratio(y, d, m) == pytest.approx(float(want), rel=1e-14)


@pytest.mark.parametrize("alpha", [1e-200, 1e-310, 5e-324])
def test_species_at_a_vanishing_discount(alpha):
    # the log1p terms of a subnormal alpha lose their bits: the mean reads the harmonic sum
    for n in (2, 1000):
        assert PitmanYor(alpha, 2.0).expected_species(n) == pytest.approx(PitmanYor(0.0, 2.0).expected_species(n), rel=1e-15)
