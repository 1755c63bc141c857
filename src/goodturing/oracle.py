"""Brute-force ground truth by set-partition enumeration.

Everything the analytic modules compute through Stirling sums is recomputed
here, at small n, as a plain sum over every set partition of {1..n}.  The
enumeration walks restricted growth strings in lexicographic order, so
blocks come out indexed by order of first appearance, the same convention
the urn sampler uses, which lets composition-level probabilities be
compared directly.  Deliberately explicit and slow: no integer-partition
shortcuts, capped at n = 12 (Bell number 4 213 597).
"""

from __future__ import annotations

import math
from typing import Iterator

from .gibbs import Composition, GibbsModel

__all__ = [
    "MAX_N",
    "bell_number",
    "rising_factorial",
    "PartitionEnumeration",
    "enumerate_partitions",
    "oracle_eppf_total",
    "oracle_stirling",
    "oracle_expected_cl",
    "oracle_falling_moment",
    "oracle_expected_k",
    "oracle_exact_gt",
    "oracle_moment_table",
]

MAX_N = 12


def bell_number(n: int) -> int:
    """B_n via the Bell triangle (Peirce) recurrence."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class PartitionEnumeration:
    """Iterable over all set partitions of {1..n}, one Composition each."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"enumeration supports 1 <= n <= {MAX_N}, got {n}")
        self.n = n

    def __iter__(self) -> Iterator[Composition]:
        for sizes in _block_size_sequences(self.n):
            yield Composition(sizes)

    def count(self) -> int:
        """Walk the whole enumeration; must equal bell_number(n)."""
        return sum(1 for _ in _block_size_sequences(self.n))


def enumerate_partitions(n: int) -> PartitionEnumeration:
    return PartitionEnumeration(n)


def _block_size_sequences(n: int):
    """Yield block sizes (by first appearance) of every set partition of [n].

    Equivalent to enumerating restricted growth strings a_1...a_n
    (a_1 = 0, a_i <= 1 + max of the prefix) in lexicographic order and
    reporting the label counts.
    """
    counts = [0] * n

    def go(i: int, k: int):
        if i == n:
            yield tuple(counts[:k])
            return
        for j in range(k):
            counts[j] += 1
            yield from go(i + 1, k)
            counts[j] -= 1
        counts[k] = 1
        yield from go(i + 1, k + 1)
        counts[k] = 0

    yield from go(0, 0)


def rising_factorial(x: float, m: int) -> float:
    """(x)_m = x (x+1) ... (x+m-1) as a plain float product; 1.0 at m = 0.

    The oracle's own, so it shares no code with the log-space
    :func:`goodturing.specfun.log_rising` the model formulas use.
    """
    return math.prod(x + i for i in range(m))


def _block_weights(alpha: float, n: int) -> list[float]:
    """(1-alpha)_(m-1) for block sizes m = 0..n (index 0 unused)."""
    return [0.0] + [rising_factorial(1.0 - alpha, m - 1) for m in range(1, n + 1)]


def _weight_table(model: GibbsModel, n: int) -> list[list[float]]:
    """V(m, k) as plain floats for m = 1..n; index [m][k], zeros padded."""
    table: list[list[float]] = [[]]
    for m in range(1, n + 1):
        table.append([0.0] + [math.exp(lw) for lw in model.log_weight_row(m, m)])
    return table


def oracle_eppf_total(model: GibbsModel, n: int) -> float:
    """Sum of the partition probabilities over every partition; should be 1."""
    _check_n(n)
    w = _block_weights(model.alpha, n)
    v = _weight_table(model, n)
    total = 0.0
    for sizes in _block_size_sequences(n):
        total += v[n][len(sizes)] * math.prod(w[m] for m in sizes)
    return total


def oracle_stirling(n: int, k: int, alpha: float) -> float:
    """Generalized Stirling number as its defining set-partition sum.

    Independent of the triangular recurrence in :mod:`goodturing.specfun`,
    which it exists to validate.
    """
    _check_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    w = _block_weights(alpha, n)
    total = 0.0
    for sizes in _block_size_sequences(n):
        if len(sizes) == k:
            total += math.prod(w[m] for m in sizes)
    return total


def oracle_expected_cl(model: GibbsModel, l: int, n: int) -> float:
    """E[C(l, n)] as sum over partitions of eppf * (number of size-l blocks)."""
    _check_n(n)
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    w = _block_weights(model.alpha, n)
    v = _weight_table(model, n)
    total = 0.0
    for sizes in _block_size_sequences(n):
        c_l = sum(1 for m in sizes if m == l)
        if c_l:
            total += c_l * v[n][len(sizes)] * math.prod(w[m] for m in sizes)
    return total


def oracle_falling_moment(model: GibbsModel, l: int, n: int, r: int) -> float:
    """E[(C(l,n))_[r]], the falling factorial moment, by enumeration."""
    _check_n(n)
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if r < 1:
        raise ValueError(f"moment order must be >= 1, got {r}")
    w = _block_weights(model.alpha, n)
    v = _weight_table(model, n)
    total = 0.0
    for sizes in _block_size_sequences(n):
        c_l = sum(1 for m in sizes if m == l)
        if c_l >= r:
            ff = math.prod(range(c_l - r + 1, c_l + 1))
            total += ff * v[n][len(sizes)] * math.prod(w[m] for m in sizes)
    return total


def oracle_expected_k(model: GibbsModel, n: int) -> float:
    """E[K_n] as sum over partitions of eppf * (number of blocks)."""
    _check_n(n)
    w = _block_weights(model.alpha, n)
    v = _weight_table(model, n)
    total = 0.0
    for sizes in _block_size_sequences(n):
        total += len(sizes) * v[n][len(sizes)] * math.prod(w[m] for m in sizes)
    return total


def oracle_exact_gt(model: GibbsModel, l: int, n: int) -> float:
    """Exact Good-Turing through the count-ratio identity.

    (l+1)/(n+1) * E[C(l+1, n+1)] / E[C(l, n)], both expectations by
    enumeration, a route through sizes n and n+1 that never touches the
    Stirling-sum implementation it is compared against.
    """
    if n + 1 > MAX_N:
        raise ValueError(f"needs enumeration at n+1; n must be <= {MAX_N - 1}")
    den = oracle_expected_cl(model, l, n)
    if den == 0.0:
        raise ValueError(
            f"a species seen {l} times in {n} draws has probability zero "
            "under this model; the ratio form is 0/0"
        )
    num = oracle_expected_cl(model, l + 1, n + 1)
    return (l + 1) / (n + 1) * num / den


def oracle_moment_table(model: GibbsModel, n: int, r_max: int = 1) -> dict:
    """One enumeration pass collecting every moment at once.

    Returns ``{"eppf_total": ..., "expected_k": ..., "expected_cl": [...],
    "falling": {r: [...]}}`` with lists indexed by l (index 0 unused).
    Used by the full verification sweep, where n = 12 makes one pass per
    quantity too slow.
    """
    _check_n(n)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    w = _block_weights(model.alpha, n)
    v = _weight_table(model, n)
    eppf_total = 0.0
    expected_k = 0.0
    expected_cl = [0.0] * (n + 1)
    falling = {r: [0.0] * (n + 1) for r in range(2, r_max + 1)}
    for sizes in _block_size_sequences(n):
        p = v[n][len(sizes)] * math.prod(w[m] for m in sizes)
        eppf_total += p
        expected_k += len(sizes) * p
        seen: dict[int, int] = {}
        for m in sizes:
            seen[m] = seen.get(m, 0) + 1
        for m, c in seen.items():
            expected_cl[m] += c * p
            for r in range(2, r_max + 1):
                if c >= r:
                    falling[r][m] += math.prod(range(c - r + 1, c + 1)) * p
    return {
        "eppf_total": eppf_total,
        "expected_k": expected_k,
        "expected_cl": expected_cl,
        "falling": falling,
    }


def _check_n(n: int):
    if not 1 <= n <= MAX_N:
        raise ValueError(f"oracle supports 1 <= n <= {MAX_N}, got {n}")
