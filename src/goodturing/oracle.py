"""Exact ground truth by integer-partition enumeration in rationals.

Every partition probability here is a Gibbs-type EPPF,
V(n, k) prod_j (1 - alpha)_(n_j - 1), which depends only on the multiset
of block sizes.  So a sum over the set partitions of {1..n} is a sum over
the integer partitions of n, each weighted by its number of set
partitions, n! / (prod_i lambda_i! prod_j m_j!) (Pitman, *Combinatorial
Stochastic Processes*, 2006, ch. 1-2).  The sums are exact rationals: the
model's stored weights enter as ``Fraction`` of the floats they are, the
block weights come exactly from ``Fraction(alpha)``, and each result is
rounded to float once.  Capped at n = 40 (37 338 integer partitions).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["MAX_N", "rising_factorial", "oracle_stirling", "oracle_moment_table"]

MAX_N = 40


def rising_factorial(x, m: int):
    """(x)_m = x (x+1) ... (x+m-1) as a direct product; 1 at m = 0.

    Exact when ``x`` is a Fraction.  The oracle's own, so it shares no code
    with the log-space :func:`goodturing.specfun.log_rising` the model
    formulas use.
    """
    return math.prod(x + i for i in range(m))


def _integer_partitions(n: int):
    """Yield ``(parts, count)`` for every integer partition of n.

    ``parts`` is a tuple of (block size, multiplicity) pairs with distinct
    sizes, largest first; ``count`` is the number of set partitions of
    {1..n} with those block sizes.
    """
    fact = [math.factorial(i) for i in range(n + 1)]

    def go(rest: int, largest: int, parts: tuple, denom: int):
        if rest == 0:
            yield parts, fact[n] // denom
            return
        for size in range(min(rest, largest), 0, -1):
            for mult in range(1, rest // size + 1):
                yield from go(
                    rest - size * mult,
                    size - 1,
                    parts + ((size, mult),),
                    denom * fact[size] ** mult * fact[mult],
                )

    yield from go(n, n, (), 1)


def _block_terms(alpha: float, n: int):
    """The integer partitions of n with their exact weights over one denominator.

    Returns ``(den, terms)``.  ``terms`` yields ``(parts, k, num)`` for each
    partition with k blocks, where ``num / den`` is its number of set
    partitions times prod_j (1 - alpha)_(n_j - 1).  Integer numerators keep
    the sums exact without a gcd per addition.
    """
    one_minus = 1 - Fraction(alpha)
    b = one_minus.denominator
    # b^(m-1) (1 - alpha)_(m-1) is an integer; a factor b^k completes b^n
    w = [0] + [int(rising_factorial(one_minus, m - 1) * b ** (m - 1)) for m in range(1, n + 1)]

    def terms():
        for parts, count in _integer_partitions(n):
            k = sum(mult for _, mult in parts)
            yield parts, k, count * b**k * math.prod(w[size] ** mult for size, mult in parts)

    return b**n, terms()


def oracle_stirling(n: int, alpha: float) -> list[float]:
    """Generalized Stirling numbers S(n, 0..n) as their defining partition sums.

    One pass over the integer partitions of n fills the whole row.
    Independent of the triangular recurrence in :mod:`goodturing.specfun`,
    which it exists to validate.
    """
    _check_n(n)
    den, terms = _block_terms(alpha, n)
    sums = [0] * (n + 1)
    for _, k, num in terms:
        sums[k] += num
    return [float(Fraction(x, den)) for x in sums]


def oracle_moment_table(model, n: int, r_max: int = 1) -> dict:
    """One enumeration pass collecting every moment at once.

    Returns ``{"eppf_total": ..., "expected_k": ..., "expected_cl": [...],
    "falling": {r: [...]}}`` with lists indexed by l (index 0 unused);
    ``falling[r][l]`` is E[(C(l,n))_[r]] for r = 2..r_max.
    """
    _check_n(n)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    den, terms = _block_terms(model.alpha, n)
    # the stored weights V(n, k), exactly, as integers over one denominator
    stored = [Fraction(math.exp(lw)) for lw in model.log_weight_row(n, n)]
    scale = math.lcm(*(x.denominator for x in stored))
    v = [0] + [x.numerator * (scale // x.denominator) for x in stored]
    den *= scale
    eppf_total = expected_k = 0
    expected_cl = [0] * (n + 1)
    falling = {r: [0] * (n + 1) for r in range(2, r_max + 1)}
    for parts, k, num in terms:
        p = v[k] * num
        eppf_total += p
        expected_k += k * p
        for size, mult in parts:
            expected_cl[size] += mult * p
            for r in range(2, min(mult, r_max) + 1):
                falling[r][size] += math.perm(mult, r) * p

    def rounded(x: int) -> float:
        return float(Fraction(x, den))

    return {
        "eppf_total": rounded(eppf_total),
        "expected_k": rounded(expected_k),
        "expected_cl": [rounded(x) for x in expected_cl],
        "falling": {r: [rounded(x) for x in row] for r, row in falling.items()},
    }


def _check_n(n: int):
    if not 1 <= n <= MAX_N:
        raise ValueError(f"oracle supports 1 <= n <= {MAX_N}, got {n}")
