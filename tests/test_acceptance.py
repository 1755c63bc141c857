"""Acceptance suite: the eight headline guarantees, each printing one line.

Every criterion names the `goodturing.verify` checks it stands on and runs
them at the full level's cases, so the identities, their grids and their
gates live in one place.  Each prints a single pass/fail line on the
terminal even while pytest is capturing output, and the slow ones keep a
runtime budget.  Together the criteria run every check of
``goodturing verify --level full`` exactly once.
"""

import time

from goodturing import verify
from goodturing.verify import CheckResult

CRITERIA = {
    1: [verify.check_closed_vs_stirling],
    2: [
        verify.check_stirling_enumeration,
        verify.check_partition_moments,
        verify.check_tabular_weights,
        verify.check_deep_enumeration,
    ],
    3: [verify.check_weight_recursion, verify.check_normalization],
    4: [verify.check_fixed_population],
    5: [verify.check_johnson_jeffreys],
    6: [verify.check_smoothing_chain],
    7: [verify.check_structural_species],
    8: [verify.check_monte_carlo],
}


def _criterion(capsys, num, budget_s=float("inf")):
    t0 = time.perf_counter()
    results = [check() for check in CRITERIA[num]]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < budget_s
    line = "; ".join(f"{r.name} {r.detail}" for r in results) + f"; {elapsed:.2f} s"
    with capsys.disabled():
        print(f"acceptance {num}/8 {'PASS' if ok else 'FAIL'}: {line}")
    assert ok, line


def test_criterion_1_closed_form_matches_stirling_sums(capsys):
    _criterion(capsys, 1, budget_s=10.0)


def test_criterion_2_enumeration_oracle_agreement(capsys):
    _criterion(capsys, 2, budget_s=30.0)


def test_criterion_3_weight_recursion_and_normalization(capsys):
    _criterion(capsys, 3)


def test_criterion_4_fixed_population_two_forms(capsys):
    _criterion(capsys, 4)


def test_criterion_5_johnson_and_jeffreys_exact(capsys):
    _criterion(capsys, 5)


def test_criterion_6_smoothing_chain(capsys):
    _criterion(capsys, 6)


def test_criterion_7_structural_species_consistency(capsys):
    _criterion(capsys, 7)


def test_criterion_8_monte_carlo_agreement(capsys):
    _criterion(capsys, 8, budget_s=60.0)


def test_criteria_cover_the_full_level_once(monkeypatch):
    names = [check.__name__ for checks in CRITERIA.values() for check in checks]
    # every check of the verify module belongs to exactly one criterion
    assert sorted(names) == sorted(n for n in dir(verify) if n.startswith("check_"))
    # and run_checks("full") calls each once: stand-ins record the calls
    called = []
    for name in names:
        monkeypatch.setattr(verify, name, lambda *_, name=name: called.append(name) or CheckResult(name, True, ""))
    verify.run_checks("full")
    assert sorted(called) == sorted(names)
