import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from goodturing.gibbs import Composition, TabularGibbsModel
from goodturing.oracle import (
    MAX_N,
    _integer_partitions,
    oracle_moment_table,
    oracle_stirling,
    rising_factorial,
)
from goodturing.pitman_yor import PitmanYor
from goodturing.specfun import StirlingRows
from goodturing.verify import _oracle_grid


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


# -- the definition: a walk over every set partition, in exact rationals ----


def set_partitions(n):
    """Every set partition of {1..n}, block sizes by first appearance.

    Walks the restricted growth strings a_1...a_n (a_1 = 0, a_i <= 1 + max
    of the prefix) in lexicographic order and reports the label counts.
    """
    counts = [0] * n

    def go(i, k):
        if i == n:
            yield Composition(tuple(counts[:k]))
            return
        for j in range(k):
            counts[j] += 1
            yield from go(i + 1, k)
            counts[j] -= 1
        counts[k] = 1
        yield from go(i + 1, k + 1)
        counts[k] = 0

    yield from go(0, 0)


def block_weight(alpha, m):
    """(1 - alpha)_(m-1), exactly."""
    return math.prod(1 - Fraction(alpha) + i for i in range(m - 1))


@functools.cache
def walk_sums(n, alpha):
    """Fraction sums over every set partition of {1..n}, split by its k blocks.

    Returns ``(w, c)``: ``w[k]`` sums prod_j (1 - alpha)_(n_j - 1) over the
    partitions with k blocks, and ``c[r][k][l]`` sums the same terms times
    (C_l)_[r], the r-th falling factorial of the number of size-l blocks,
    for r = 1, 2, 3.
    """
    bw = [block_weight(alpha, m) for m in range(n + 1)]
    w = [Fraction(0)] * (n + 1)
    c = {r: [[Fraction(0)] * (n + 1) for _ in range(n + 1)] for r in (1, 2, 3)}
    for comp in set_partitions(n):
        t = math.prod(bw[m] for m in comp.parts)
        w[comp.k] += t
        for l, count in Counter(comp.parts).items():
            for r in range(1, min(count, 3) + 1):
                c[r][comp.k][l] += math.prod(range(count - r + 1, count + 1)) * t
    return w, c


def walk_stirling(n, alpha):
    """[S(n, 0), ..., S(n, n)] by definition."""
    return [float(x) for x in walk_sums(n, alpha)[0]]


def walk_moment_table(model, n, r_max):
    """oracle_moment_table by definition, for r_max <= 3."""
    v = [Fraction(0)] + [Fraction(math.exp(lw)) for lw in model.log_weight_row(n, n)]
    w, c = walk_sums(n, model.alpha)

    def expect(by_k):
        return float(sum(v[k] * by_k[k] for k in range(n + 1)))

    return {
        "eppf_total": expect(w),
        "expected_k": expect([k * w[k] for k in range(n + 1)]),
        "expected_cl": [expect([c[1][k][l] for k in range(n + 1)]) for l in range(n + 1)],
        "falling": {
            r: [expect([c[r][k][l] for k in range(n + 1)]) for l in range(n + 1)]
            for r in range(2, r_max + 1)
        },
    }


def count_ratio_gt(tables, l, n):
    """Exact Good-Turing as (l+1)/(n+1) E[C(l+1, n+1)] / E[C(l, n)]."""
    return (l + 1) / (n + 1) * tables[n + 1]["expected_cl"][l + 1] / tables[n]["expected_cl"][l]


# -- the walk itself ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_enumeration_count(n):
    assert sum(1 for _ in set_partitions(n)) == BELL[n]


def test_enumeration_order_is_first_appearance_lex():
    # restricted growth strings in lexicographic order: 000, 001, 010, 011, 012
    got = [tuple(c.parts) for c in set_partitions(3)]
    assert got == [(3,), (2, 1), (2, 1), (1, 2), (1, 1, 1)]


def test_enumeration_yields_valid_compositions():
    for c in set_partitions(5):
        assert c.n == 5
        assert c.k == len(c.parts)


# -- the oracle --------------------------------------------------------------


def test_bell_numbers():
    # the set-partition counts over the integer partitions of n sum to B_n
    for n in range(1, len(BELL)):
        assert sum(count for _, count in _integer_partitions(n)) == BELL[n]
    # p(30) and p(40) integer partitions, each listed once, sizes distinct
    for n, p_n in ((30, 5604), (MAX_N, 37338)):
        seen = [parts for parts, _ in _integer_partitions(n)]
        assert len(seen) == len(set(seen)) == p_n
        assert all(sum(s * m for s, m in parts) == n for parts in seen)
        assert all(len({s for s, _ in parts}) == len(parts) for parts in seen)


def test_rising_factorial_values():
    assert rising_factorial(0.5, 2) == 0.75
    assert rising_factorial(2.0, 3) == 24.0  # 2*3*4
    assert rising_factorial(3.0, 0) == 1.0  # the empty product
    assert rising_factorial(0.0, 1) == 0.0
    assert rising_factorial(-2.0, 3) == 0.0  # hits the factor at 0
    assert rising_factorial(Fraction(1, 3), 3) == Fraction(28, 27)  # exact on rationals


def test_enumeration_bounds():
    m = PitmanYor(0.5, 0.5)
    for n in (0, MAX_N + 1):
        with pytest.raises(ValueError):
            oracle_moment_table(m, n)
        with pytest.raises(ValueError):
            oracle_stirling(n, 1, 0.5)


def test_oracle_matches_set_partition_walk():
    # bit for bit: both are exact sums of the same rationals, rounded once
    models = _oracle_grid() + [TabularGibbsModel.from_bottom_row(0.37, np.linspace(0.5, 2.0, 8))]
    for model in models:
        for n in range(1, 9):
            assert oracle_moment_table(model, n, r_max=3) == walk_moment_table(model, n, 3)
            want = walk_stirling(n, model.alpha)
            assert [oracle_stirling(n, k, model.alpha) for k in range(n + 1)] == want


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
            oracle_stirling(MAX_N + 1, 2, 0.5)


@pytest.fixture(params=[(0.5, 0.5, None), (0.0, 1.0, None), (-0.5, None, 2)])
def model(request):
    alpha, theta, s = request.param
    return PitmanYor(alpha, theta, s=s)


@pytest.fixture
def tables(model):
    return {n: oracle_moment_table(model, n, r_max=3) for n in range(1, 8)}


class TestOracleAgainstModel:
    def test_eppf_total_is_one(self, tables):
        for n in range(1, 7):
            assert tables[n]["eppf_total"] == pytest.approx(1.0, rel=1e-12)

    def test_eppf_sums_to_one_through_public_eppf(self, model):
        total = sum(model.eppf(c) for c in set_partitions(5))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_expected_counts(self, model, tables):
        for n in range(1, 7):
            for l in range(1, n + 1):
                assert tables[n]["expected_cl"][l] == pytest.approx(
                    model.expected_count(l, n), rel=1e-11, abs=1e-15
                )

    def test_expected_species(self, model, tables):
        for n in range(1, 7):
            assert tables[n]["expected_k"] == pytest.approx(model.expected_species(n), rel=1e-11)

    def test_falling_moments(self, model, tables):
        for n in (4, 6):
            for l in range(1, n + 1):
                for r in (1, 2, 3):
                    got = tables[n]["expected_cl"][l] if r == 1 else tables[n]["falling"][r][l]
                    assert got == pytest.approx(
                        model.falling_factorial_moment(l, n, r), rel=1e-11, abs=1e-15
                    )

    def test_exact_good_turing(self, model, tables):
        for n in range(1, 7):
            for l in range(1, n + 1):
                if tables[n]["expected_cl"][l] == 0.0:
                    continue
                assert count_ratio_gt(tables, l, n) == pytest.approx(
                    model.exact_good_turing(l, n), rel=1e-11
                )


def test_exact_gt_pinned():
    m = PitmanYor(0.5, 0.5)
    tables = {n: oracle_moment_table(m, n) for n in (2, 3, 4)}
    assert count_ratio_gt(tables, 1, 2) == pytest.approx(0.2, rel=1e-12)
    # a species seen every time: enumeration agrees with (n - alpha)/(theta + n)
    assert count_ratio_gt(tables, 3, 3) == pytest.approx(2.5 / 3.5, rel=1e-12)


def test_exact_gt_zero_denominator():
    # one-species model: nobody is ever seen just once in two draws, and the
    # exact oracle says so with an exact zero
    table = oracle_moment_table(PitmanYor(-0.5, s=1), 2)
    assert table["expected_cl"][1] == 0.0
    assert table["expected_cl"][2] == 1.0


def test_exact_gt_needs_room_for_n_plus_one():
    # the count ratio at n reads the table at n + 1, so n = MAX_N - 1 is the top
    m = PitmanYor(0.5, 0.5)
    n = MAX_N - 1
    tables = {n: oracle_moment_table(m, n), n + 1: oracle_moment_table(m, n + 1)}
    for l in (1, 2, 5, n):
        assert count_ratio_gt(tables, l, n) == pytest.approx((l - 0.5) / (0.5 + n), rel=1e-11)
    with pytest.raises(ValueError, match=str(MAX_N)):
        oracle_moment_table(m, n + 2)


def test_falling_moment_validation():
    m = PitmanYor(0.5, 0.5)
    for r_max in (0, -1):
        with pytest.raises(ValueError, match="r_max"):
            oracle_moment_table(m, 4, r_max=r_max)
    assert oracle_moment_table(m, 4)["falling"] == {}
