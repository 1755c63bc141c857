import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from goodturing import specfun
from goodturing.specfun import (
    CHECKPOINT_STRIDE,
    DENSE_ROWS,
    StirlingRows,
    iter_stirling_log_rows,
    log_rising,
    logsumexp,
)

# unsigned Stirling numbers of the first kind, rows n = 1..6 (the alpha = 0 case)
STIRLING1 = {
    1: [1],
    2: [1, 1],
    3: [2, 3, 1],
    4: [6, 11, 6, 1],
    5: [24, 50, 35, 10, 1],
    6: [120, 274, 225, 85, 15, 1],
}


def test_log_rising():
    assert log_rising(2.5, 0) == 0.0
    assert log_rising(2.0, 3) == pytest.approx(math.log(24.0), rel=1e-15)
    assert log_rising(0.5, 4) == pytest.approx(math.log(0.5 * 1.5 * 2.5 * 3.5), rel=1e-14)
    with pytest.raises(ValueError):
        log_rising(-1.0, 2)
    with pytest.raises(ValueError):
        log_rising(0.0, 1)


def test_triangle_pinned_alpha_half():
    tri = StirlingRows(0.5)
    row3 = np.exp(tri.log_row(3))
    assert row3[1] == pytest.approx(0.75, rel=1e-13)
    assert row3[2] == pytest.approx(1.5, rel=1e-13)
    assert row3[3] == 1.0  # diagonal entries are exactly 1 in log space


def test_triangle_alpha_zero_is_stirling_first_kind():
    tri = StirlingRows(0.0)
    for n, wants in STIRLING1.items():
        row = np.exp(tri.log_row(n))
        assert row[0] == 0.0
        for k, want in enumerate(wants, start=1):
            assert row[k] == pytest.approx(want, rel=1e-12)


def test_triangle_structure():
    tri = StirlingRows(0.3)
    assert np.exp(tri.log_row(0))[0] == 1.0
    for n in range(1, 9):
        row = tri.log_row(n)
        assert row.shape == (n + 1,)
        assert row[0] == -math.inf  # S(n, 0) = 0 for n >= 1
        assert np.all(np.isfinite(row[1:]))  # interior strictly positive
        assert row[n] == 0.0  # S(n, n) = 1
        assert not row.flags.writeable


def test_triangle_column_one_is_rising_factorial():
    # S(n, 1) = (1 - alpha)_(n-1)
    for alpha in (-1.0, -0.25, 0.0, 0.5, 0.9):
        tri = StirlingRows(alpha)
        for n in range(1, 8):
            assert tri.log_row(n)[1] == pytest.approx(
                log_rising(1.0 - alpha, n - 1), rel=1e-13, abs=1e-13
            )


def test_triangle_recurrence_holds():
    for alpha in (-0.7, 0.0, 0.42, 0.95):
        tri = StirlingRows(alpha)
        for n in range(1, 20):
            cur = np.exp(tri.log_row(n))
            nxt = np.exp(tri.log_row(n + 1))
            for k in range(1, n + 2):
                prev_km1 = cur[k - 1]
                prev_k = cur[k] if k <= n else 0.0
                want = prev_km1 + (n - k * alpha) * prev_k
                assert nxt[k] == pytest.approx(want, rel=1e-12)


def test_entry_accessors():
    tri = StirlingRows(0.5)
    assert tri.log_row(2).shape == (3,)  # no entries past k = n
    assert math.exp(tri.log_row(3)[2]) == pytest.approx(1.5, rel=1e-13)
    assert tri.log_row(3)[0] == -math.inf  # S(3, 0) = 0
    assert tri.log_row(np.int64(3)) is tri.log_row(3)
    with pytest.raises(ValueError):
        tri.log_row(-1)
    with pytest.raises(TypeError):
        tri.log_row(2.0)


def test_triangle_rejects_bad_parameters():
    for alpha in (1.0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            StirlingRows(alpha)


def test_streaming_rows_match_triangle():
    alpha = 0.37
    tri = StirlingRows(alpha)
    for n, row in enumerate(iter_stirling_log_rows(12, alpha)):
        np.testing.assert_allclose(row, tri.log_row(n), rtol=0, atol=0)
    np.testing.assert_array_equal(StirlingRows(alpha).log_row(7), tri.log_row(7))


def test_streaming_validates_input():
    with pytest.raises(ValueError):
        list(iter_stirling_log_rows(3, 1.2))
    with pytest.raises(ValueError):
        list(iter_stirling_log_rows(-1, 0.5))
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            list(iter_stirling_log_rows(3, alpha))


def test_large_row_stays_finite():
    # entries overflow doubles long before n = 400; logs must not
    row = StirlingRows(0.5).log_row(400)
    assert np.all(np.isfinite(row[1:]))
    assert row.shape == (401,)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 0.9])
def test_rows_bit_identical_to_streaming(alpha):
    wanted = [0, 1, 1023, 1024, 1025, 1088, 1100, 2000]
    ref = {m: row for m, row in enumerate(iter_stirling_log_rows(2000, alpha)) if m in wanted}
    rows = StirlingRows(alpha)
    for m in np.random.default_rng(7).permutation(wanted):
        got = rows.log_row(int(m))
        np.testing.assert_array_equal(got, ref[m])
        assert not got.flags.writeable


def test_no_row_rebuilt_from_row_zero(monkeypatch):
    steps = []
    step = specfun._next_row

    def counting(row, n, alpha):
        steps.append(n)
        return step(row, n, alpha)

    monkeypatch.setattr(specfun, "_next_row", counting)
    rows = StirlingRows(0.5)
    rows.log_row(2000)
    assert steps == list(range(2000))  # the first build visits each row once
    for m in np.random.default_rng(3).integers(0, 2001, size=60):
        steps.clear()
        rows.log_row(int(m))
        assert len(steps) < CHECKPOINT_STRIDE
        assert not steps or steps[0] >= m - CHECKPOINT_STRIDE
    rows.log_row(1500)
    for m in range(1501, 1521):  # increasing requests: one step per row
        steps.clear()
        rows.log_row(m)
        assert steps == [m - 1]
    steps.clear()
    rows.log_row(2100)  # past the highest row built: from the last checkpoint below it
    assert steps[0] >= 2000 - CHECKPOINT_STRIDE and steps[-1] == 2099


def test_rows_memory_bound():
    rows = StirlingRows(0.5)
    for m in (4000, 3000, 1500, 17):
        rows.log_row(m)
    kept = rows._dense + rows._checkpoints + [rows._last[1]]
    assert len(rows._dense) == DENSE_ROWS + 1
    assert len(rows._checkpoints) == (4000 - DENSE_ROWS) // CHECKPOINT_STRIDE
    assert sum(r.nbytes for r in kept) < 6e6  # about 5 MB at M = 4000


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(11)
    cases = [rng.normal(0, 50, size) for size in (1, 2, 10, 1000)]
    cases.append(rng.normal(-3e4, 10, 500))  # log Stirling-scale magnitudes
    mixed = rng.normal(0, 5, 40)
    mixed[::3] = -np.inf
    cases.append(mixed)
    for x in cases:
        assert logsumexp(x) == pytest.approx(float(scipy_logsumexp(x)), rel=1e-13, abs=1e-13)
    for x in (np.full(5, -np.inf), np.array([-np.inf])):
        assert logsumexp(x) == -math.inf == scipy_logsumexp(x)
    assert logsumexp(np.array([1.0, np.inf])) == math.inf
    assert math.isnan(logsumexp(np.array([1.0, np.nan])))
