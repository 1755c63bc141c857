"""Pitman-Yor closed forms in plain floats: this module imports only ``math``.

Under PD(alpha, theta) every quantity the Stirling-sum route of
:mod:`goodturing.gibbs` computes has a closed form (Pitman and Yor, 1997;
Pitman, 2006, ch. 3):

* the exact Good-Turing discovery probability ``(l - alpha)/(theta + n)``;
* the falling factorial moments of the frequency counts C(l, n),

      n! / ((l!)^r (n-lr)!) [(1-alpha)_(l-1)]^r prod_{0<i<r} (theta + i alpha)
          (theta + r alpha)_(n-lr) / (theta + 1)_(n-1),

  whose r = 1 case is E[C(l, n)];
* E[K_n] = theta/alpha ((theta + alpha)_n / (theta)_n - 1), with the limit
  sum_{i<n} theta/(theta + i) at alpha = 0.

For alpha < 0 the model is the symmetric Dirichlet on s species, and
every factor theta + i alpha is taken as |alpha| (s - i), so the moments
vanish exactly where s species cannot hold the counts; the moments use
theta = |alpha| s.  The discovery probability reads theta as stored, so
Johnson's and Jeffreys' rules are reproduced bit for bit.

Ratios of rising factorials go through one helper, :func:`log_rising_ratio`,
a sum of ``log1p`` terms that are each accurate to a few ulps, in place of
a difference of two large log-gamma values.  A moment or E[K_n] costs O(n)
float operations and no Stirling row; the discovery probability is O(1).
At n = 10^4 the moments stay within about 1e-13 of 50-digit references.
"""

from __future__ import annotations

import math

__all__ = [
    "check_discount",
    "check_parameters",
    "log_rising_ratio",
    "discovery",
    "falling_factorial_moment",
    "expected_species",
    "johnson_estimate",
    "jeffreys_estimate",
]

#: minimum admissible value of theta + alpha (guard band around the open boundary)
_THETA_GUARD = 1e-12


# -- parameters --------------------------------------------------------------


def check_discount(alpha: float) -> float:
    """``alpha`` as a float, or ValueError unless it is finite and < 1."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"discount parameter must be finite, got {alpha}")
    if alpha >= 1.0:
        raise ValueError(f"discount parameter must be < 1, got {alpha}")
    return alpha


def check_parameters(alpha: float, theta: float | None = None, s: int | None = None):
    """PD(alpha, theta) parameters as ``(alpha, theta, s)``, or ValueError.

    alpha in [0, 1) needs theta > -alpha; alpha < 0 needs the species count
    s, and theta is then |alpha| s (a theta passed as well must agree with
    it to 1e-9).  ``s`` is None for alpha >= 0.
    """
    alpha = check_discount(alpha)
    if theta is not None and not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if alpha < 0.0:
        if s is None:
            raise ValueError("alpha < 0 needs the finite species count s")
        if s != int(s) or s < 1:
            raise ValueError(f"s must be a positive integer, got {s}")
        s = int(s)
        inferred = abs(alpha) * s
        if not math.isfinite(inferred):
            raise ValueError(f"|alpha|*s must be finite, got alpha={alpha}, s={s}")
        if theta is None:
            theta = inferred
        elif abs(theta - inferred) > 1e-9 * max(1.0, abs(inferred)):
            raise ValueError(
                f"theta={theta} inconsistent with |alpha|*s={inferred} for alpha={alpha}, s={s}"
            )
    else:
        if s is not None:
            raise ValueError("s only applies to alpha < 0")
        if theta is None:
            raise ValueError("theta is required for alpha >= 0")
        if theta + alpha <= _THETA_GUARD:
            raise ValueError(f"need theta > -alpha, got theta={theta}, alpha={alpha}")
    return alpha, float(theta), s


# -- rising-factorial ratios -------------------------------------------------


def log_rising_ratio(y: float, d: float, m: int) -> float:
    """log((y + d)_m / (y)_m) = sum_{i<m} log1p(d / (y + i)), for y > 0 and y + d > 0.

    Pass the shift d as computed from the parameters, never as a difference
    of two rounded bases.  A negative shift is summed from the other end,
    -log((y + d - d)_m / (y + d)_m), so every log1p argument is >= 0 and
    each term keeps full relative accuracy however close y + d is to 0.
    """
    y, d = float(y), float(d)
    if d < 0:
        return -log_rising_ratio(y + d, -d, m)
    return math.fsum(math.log1p(d / (y + i)) for i in range(m))


def _log_ratio(x: float, y: float) -> float:
    """log(x / y) for x, y > 0, from the quotient unless it underflows."""
    q = x / y
    return math.log(q) if q > 1e-300 else math.log(x) - math.log(y)


# -- closed forms ------------------------------------------------------------


def discovery(alpha: float, theta: float, l: int, n: int) -> float:
    """(l - alpha) / (theta + n): the exact Good-Turing discovery probability."""
    return (l - alpha) / (theta + n)


def falling_factorial_moment(alpha: float, theta: float, s: int | None, l: int, n: int, r: int) -> float:
    """E[C(l,n) (C(l,n)-1) ... (C(l,n)-r+1)], for 1 <= l <= n and r >= 1; zero when l r > n.

    With m = n - l r this is the exact integer n! / ((l!)^r m!), times
    (theta + r alpha)_m / (theta + 1)_m from :func:`log_rising_ratio`, times
    the l r - 1 factors of [(1-alpha)_(l-1)]^r prod_{0<i<r} (theta + i alpha),
    each divided by one factor of (theta + 1 + m)_(lr-1).  Every log is of
    a ratio near the answer's scale, so a huge |alpha| cancels exactly.
    """
    m = n - l * r
    if m < 0:
        return 0.0
    if alpha < 0.0:
        if r > s or (r == s and m > 0):
            return 0.0  # a factor theta + s alpha = 0
        theta = -alpha * s
        base = -alpha * (s - r)  # theta + r alpha
        weights = [-alpha * (s - i) for i in range(1, r)]
    else:
        base = theta + r * alpha
        weights = [theta + i * alpha for i in range(1, r)]
    numerators = [1.0 - alpha + i for i in range(l - 1)] * r + weights
    terms = [_log_ratio(x, theta + (m + 1 + j)) for j, x in enumerate(numerators)]
    terms.append(math.log(math.comb(n, l * r) * math.factorial(l * r) // math.factorial(l) ** r))
    if m:
        terms.append(-log_rising_ratio(base, 1.0 - r * alpha, m))
    return math.exp(math.fsum(terms))


def expected_species(alpha: float, theta: float, s: int | None, n: int) -> float:
    """E[K_n] for n >= 1, with the i = 0 factor of the rising factorials split off.

    With L = log((theta+1+alpha)_(n-1) / (theta+1)_(n-1)) the mean is
    ((theta + alpha) e^L - theta) / alpha, written as a sum of positive terms:
    e^L + theta/alpha expm1(L) for theta >= 0 (theta sum_{i<n} 1/(theta+i)
    at alpha = 0), (theta+alpha)/alpha e^L - theta/alpha for theta < 0, and
    1 - (s-1) expm1(L) for alpha < 0.
    """
    if alpha < 0.0:
        # theta + alpha + 1 = |alpha| (s-1) + 1, and theta + 1 is |alpha| more
        log_ratio = -log_rising_ratio(-alpha * (s - 1) + 1.0, -alpha, n - 1)
        return 1.0 - (s - 1) * math.expm1(log_ratio)
    if theta < 0.0:
        log_ratio = log_rising_ratio(theta + 1.0, alpha, n - 1)
        return (theta + alpha) / alpha * math.exp(log_ratio) - theta / alpha
    if alpha < 1e-150:  # log1p(alpha/x) = alpha/x to a relative 1e-150: L / alpha is harmonic
        rate = math.fsum(1.0 / (theta + 1.0 + i) for i in range(n - 1))
        log_ratio = alpha * rate
    else:
        log_ratio = log_rising_ratio(theta + 1.0, alpha, n - 1)
        rate = log_ratio / alpha
    # theta/alpha expm1(L) as theta (L/alpha) (expm1(L)/L): no overflow as alpha -> 0
    growth = math.expm1(log_ratio) / log_ratio if log_ratio else 1.0
    return math.exp(log_ratio) + theta * rate * growth


# -- the classical finite-population rules ------------------------------------


def johnson_estimate(abs_alpha: float, s: int, l: int, n: int) -> float:
    """Johnson (1932)'s rule (l + |alpha|)/(n + |alpha| s).

    This is the discovery probability under a symmetric Dirichlet
    superpopulation with concentration |alpha| on s species, i.e.
    PD(-|alpha|, |alpha| s).
    """
    if not 0 < abs_alpha < math.inf:
        raise ValueError(f"abs_alpha must be finite and > 0, got {abs_alpha}")
    if s != int(s) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if not math.isfinite(abs_alpha * s):
        raise ValueError(f"|alpha|*s must be finite, got abs_alpha={abs_alpha}, s={s}")
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    return (l + abs_alpha) / (abs_alpha * s + n)


def jeffreys_estimate(s: int, l: int, n: int) -> float:
    """Jeffreys (1948)'s (l + 1)/(n + s): the uniform-prior case |alpha| = 1."""
    return johnson_estimate(1.0, s, l, n)
