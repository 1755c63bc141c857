import math
from functools import partial

import numpy as np
import pytest

from goodturing import cli, verify
from goodturing.empirical import FinitePopulation
from goodturing.gibbs import GibbsModel
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
        (GibbsModel, "exact_good_turing_row", partial(verify.check_closed_vs_stirling, full=False)),
        (PitmanYor, "log_weight_row", partial(verify.check_weight_recursion, full=False)),
        (PitmanYor, "log_weight_row", partial(verify.check_normalization, full=False)),
        (StirlingRows, "log_row", partial(verify.check_stirling_enumeration, full=False)),
        (FinitePopulation, "exact_good_turing", partial(verify.check_fixed_population, full=False)),
        (verify, "smoothed_count", verify.check_smoothing_chain),
        (PitmanYor, "expected_species_structural", partial(verify.check_structural_species, full=False)),
        (GibbsModel, "expected_species", partial(verify.check_structural_species, full=False)),
        (GibbsModel, "predict_old", partial(verify.check_pd_characterization, full=False)),
    ],
    ids=[
        "closed-vs-stirling", "weight-recursion", "weight-normalization", "stirling-enumeration",
        "fixed-population", "smoothing-chain", "structural-species", "structural-species-stirling",
        "pd-characterization",
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


def test_checks_still_run_the_stirling_route(monkeypatch, capsys):
    # PitmanYor answers from closed forms; the checks that compare it with the
    # oracle, and bnp --check, must still reach the Stirling-sum contraction
    original = GibbsModel._log_stirling_sum

    def wrong(self, n, m, r=1):  # off by 1e-6 n, so the estimator's ratio moves too
        return original(self, n, m, r) + 1e-6 * n

    monkeypatch.setattr(GibbsModel, "_log_stirling_sum", wrong)
    assert verify.check_partition_moments().passed is False
    assert verify.check_deep_enumeration().passed is False
    assert cli.main(["bnp", "--alpha", "0.5", "--theta", "1", "--l", "2", "--n", "9", "--check"]) == 1
    assert "check\tfail" in capsys.readouterr().out
