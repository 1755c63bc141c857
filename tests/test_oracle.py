import math

import pytest

from goodturing.oracle import (
    MAX_N,
    PartitionEnumeration,
    bell_number,
    enumerate_partitions,
    oracle_eppf_total,
    oracle_exact_gt,
    oracle_expected_cl,
    oracle_expected_k,
    oracle_falling_moment,
    oracle_moment_table,
    oracle_stirling,
    rising_factorial,
)
from goodturing.pitman_yor import PitmanYor
from goodturing.specfun import StirlingRows


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def test_bell_numbers():
    for n, b in enumerate(BELL):
        assert bell_number(n) == b
    with pytest.raises(ValueError):
        bell_number(-1)


def test_rising_factorial_values():
    assert rising_factorial(0.5, 2) == 0.75
    assert rising_factorial(2.0, 3) == 24.0  # 2*3*4
    assert rising_factorial(3.0, 0) == 1.0  # the empty product
    assert rising_factorial(0.0, 1) == 0.0
    assert rising_factorial(-2.0, 3) == 0.0  # hits the factor at 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_enumeration_count(n):
    assert PartitionEnumeration(n).count() == BELL[n]


def test_enumeration_order_is_first_appearance_lex():
    # restricted growth strings in lexicographic order: 000, 001, 010, 011, 012
    got = [tuple(c.parts) for c in PartitionEnumeration(3)]
    assert got == [(3,), (2, 1), (2, 1), (1, 2), (1, 1, 1)]


def test_enumeration_yields_valid_compositions():
    for c in enumerate_partitions(5):
        assert c.n == 5
        assert c.k == len(c.parts)


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        PartitionEnumeration(0)
    with pytest.raises(ValueError):
        PartitionEnumeration(MAX_N + 1)


class TestOracleStirling:
    def test_pinned(self):
        assert oracle_stirling(3, 2, 0.5) == pytest.approx(1.5, rel=1e-14)
        assert oracle_stirling(4, 2, 0.0) == pytest.approx(11.0, rel=1e-14)
        for n in (1, 3, 6):
            assert oracle_stirling(n, n, 0.37) == pytest.approx(1.0, rel=1e-14)
            assert oracle_stirling(n, 0, 0.37) == 0.0

    def test_matches_recurrence_triangle(self):
        for alpha in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.9):
            tri = StirlingRows(alpha)
            for n in range(1, 8):
                for k in range(1, n + 1):
                    assert oracle_stirling(n, k, alpha) == pytest.approx(
                        math.exp(tri.log_row(n)[k]), rel=1e-12, abs=1e-300
                    )

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle_stirling(3, 4, 0.5)
        with pytest.raises(ValueError):
            oracle_stirling(3, -1, 0.5)
        with pytest.raises(ValueError):
            oracle_stirling(13, 2, 0.5)


@pytest.fixture(params=[(0.5, 0.5, None), (0.0, 1.0, None), (-0.5, None, 2)])
def model(request):
    alpha, theta, s = request.param
    return PitmanYor(alpha, theta, s=s)


class TestOracleAgainstModel:
    def test_eppf_total_is_one(self, model):
        for n in range(1, 7):
            assert oracle_eppf_total(model, n) == pytest.approx(1.0, rel=1e-12)

    def test_eppf_sums_to_one_through_public_eppf(self, model):
        total = sum(model.eppf(c) for c in PartitionEnumeration(5))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_expected_counts(self, model):
        for n in range(1, 7):
            for l in range(1, n + 1):
                assert oracle_expected_cl(model, l, n) == pytest.approx(
                    model.expected_count(l, n), rel=1e-11, abs=1e-15
                )

    def test_expected_species(self, model):
        for n in range(1, 7):
            assert oracle_expected_k(model, n) == pytest.approx(
                model.expected_species(n), rel=1e-11
            )

    def test_falling_moments(self, model):
        for n in (4, 6):
            for l in range(1, n + 1):
                for r in (1, 2, 3):
                    assert oracle_falling_moment(model, l, n, r) == pytest.approx(
                        model.falling_factorial_moment(l, n, r), rel=1e-11, abs=1e-15
                    )

    def test_exact_good_turing(self, model):
        for n in range(1, 7):
            for l in range(1, n + 1):
                if oracle_expected_cl(model, l, n) == 0.0:
                    continue
                assert oracle_exact_gt(model, l, n) == pytest.approx(
                    model.exact_good_turing(l, n), rel=1e-11
                )


def test_exact_gt_pinned():
    m = PitmanYor(0.5, 0.5)
    assert oracle_exact_gt(m, 1, 2) == pytest.approx(0.2, rel=1e-12)
    # a species seen every time: enumeration agrees with (n - alpha)/(theta + n)
    assert oracle_exact_gt(m, 3, 3) == pytest.approx(2.5 / 3.5, rel=1e-12)


def test_exact_gt_zero_denominator():
    # one-species model: nobody is ever seen just once in two draws
    m = PitmanYor(-0.5, s=1)
    with pytest.raises(ValueError, match="0/0"):
        oracle_exact_gt(m, 1, 2)


def test_exact_gt_needs_room_for_n_plus_one():
    m = PitmanYor(0.5, 0.5)
    with pytest.raises(ValueError, match="n\\+1"):
        oracle_exact_gt(m, 1, MAX_N)


def test_falling_moment_validation():
    m = PitmanYor(0.5, 0.5)
    with pytest.raises(ValueError):
        oracle_falling_moment(m, 1, 4, 0)
    with pytest.raises(ValueError):
        oracle_falling_moment(m, 0, 4, 1)
    with pytest.raises(ValueError):
        oracle_falling_moment(m, 5, 4, 1)


def test_moment_table_matches_single_passes():
    m = PitmanYor(0.25, 1.0)
    n = 5
    table = oracle_moment_table(m, n, r_max=3)
    assert table["eppf_total"] == pytest.approx(oracle_eppf_total(m, n), rel=1e-14)
    assert table["expected_k"] == pytest.approx(oracle_expected_k(m, n), rel=1e-14)
    for l in range(1, n + 1):
        assert table["expected_cl"][l] == pytest.approx(
            oracle_expected_cl(m, l, n), rel=1e-14, abs=1e-300
        )
        for r in (2, 3):
            assert table["falling"][r][l] == pytest.approx(
                oracle_falling_moment(m, l, n, r), rel=1e-14, abs=1e-300
            )
    with pytest.raises(ValueError):
        oracle_moment_table(m, n, r_max=0)
