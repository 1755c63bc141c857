import math
from functools import partial

import numpy as np
import pytest

from goodturing import verify
from goodturing.empirical import FinitePopulation
from goodturing.pitman_yor import PitmanYor
from goodturing.specfun import StirlingRows


def _with_nan(value):
    """NaN in place of a number, or in the last entry of an array."""
    if np.ndim(value) == 0:
        return math.nan
    out = np.array(value, dtype=float)
    out[-1] = math.nan
    return out


@pytest.mark.parametrize(
    "owner, attr, check",
    [
        (PitmanYor, "exact_good_turing_row", partial(verify.check_closed_vs_stirling, full=False)),
        (PitmanYor, "log_weight_row", partial(verify.check_weight_recursion, full=False)),
        (PitmanYor, "log_weight_row", partial(verify.check_normalization, full=False)),
        (StirlingRows, "log_row", partial(verify.check_stirling_enumeration, full=False)),
        (FinitePopulation, "exact_good_turing", partial(verify.check_fixed_population, full=False)),
        (verify, "smoothed_count", verify.check_smoothing_chain),
        (PitmanYor, "expected_species_structural", partial(verify.check_structural_species, full=False)),
    ],
    ids=[
        "closed-vs-stirling", "weight-recursion", "weight-normalization", "stirling-enumeration",
        "fixed-population", "smoothing-chain", "structural-species",
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_fails_the_check(monkeypatch, owner, attr, check):
    # a NaN in the quantity under test is a failure, not a zero discrepancy
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **kw: _with_nan(original(*a, **kw)))
    result = check()
    assert result.passed is False
    assert "nan" in result.detail


def test_infinite_on_both_routes_fails():
    # inf against inf is no agreement: a NaN discrepancy, which stays the worst
    assert math.isnan(verify._worse(0.0, verify._rel_err(math.inf, math.inf), 1.0))
