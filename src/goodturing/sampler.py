"""Seeded Monte Carlo generators for checking every expectation empirically.

Two sources: the sequential urn driven by a Gibbs model's predictive rules,
and i.i.d. categorical draws from a known finite population.  Replicates
are simulated in blocks, a whole block one urn step (or one draw matrix)
at a time.  Reproducibility is by construction:

- block b of a run seeded with s draws a row-major (rows, n - 1) matrix of
  uniforms ((rows, n) for a population) from the numpy stream keyed by
  (s, b); row i holds replicate b * rows + i;
- rows per block are a fixed budget of elements divided by n (by
  max(n, s) for a population of s species), so a table is a pure function
  of (source, n, reps, seed, l_max), and replicate r's sample does not
  depend on ``reps``;
- replicate 0 is exactly ``sample_gibbs(model, n, seed)`` or
  ``sample_population(pop, n, seed)``, which run the same code on a block
  of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import FinitePopulation, FrequencyCounts
from .gibbs import Composition, GibbsModel
from .pitman_yor import PitmanYor

__all__ = [
    "SampleSummary",
    "MomentTable",
    "CategoricalSampler",
    "sample_gibbs",
    "sample_population",
    "monte_carlo_moments",
]

#: populations larger than this use alias-table sampling; smaller ones a cumulative scan
ALIAS_THRESHOLD = 32
#: elements (rows x n) per urn block.  The uniforms and the labels are the
#: block-sized arrays (16 bytes per element); a larger budget speeds up
#: large n, where numpy's per-call cost dominates a step, at the cost of
#: peak memory
URN_BLOCK = 1 << 16
#: elements (rows x max(n, s)) per population block; a draw makes several
#: temporaries of the block's size, so these blocks are smaller
POPULATION_BLOCK = 1 << 14
#: flag threshold for a table statistic's z (:meth:`MomentTable.z`) against its analytic value
SE_GATE = 4.0


def _stream(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(block)))


@dataclass(frozen=True)
class SampleSummary:
    """One simulated sample: multiplicities in order of appearance plus totals."""

    composition: Composition
    frequency_counts: FrequencyCounts
    k: int

    @property
    def n(self) -> int:
        return self.composition.n


def _summarize(parts: list[int]) -> SampleSummary:
    comp = Composition(tuple(parts))
    fc: dict[int, int] = {}
    for p in parts:
        fc[p] = fc.get(p, 0) + 1
    return SampleSummary(comp, FrequencyCounts(fc), comp.k)


# -- Gibbs urn -----------------------------------------------------------


def sample_gibbs(model: GibbsModel, n: int, seed: int) -> SampleSummary:
    """One sequential sample of size n from the model's predictive rules.

    A Pitman-Yor model steps by its closed form (total weight theta + m,
    new-species weight theta + k alpha), any other model by the generic
    route through the weights.  Both consume one uniform per step and
    split it the same way, so on the same uniforms they draw the same
    sample.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    model._check_size(n)
    urn = _urn_pitman_yor if isinstance(model, PitmanYor) else _urn_generic
    labels = urn(model, _stream(seed, 0).random((1, n - 1)))[0]
    return _summarize(np.bincount(labels).tolist())


def _urn_pitman_yor(model: PitmanYor, uniforms: np.ndarray) -> np.ndarray:
    theta, s = model.theta, model.s

    def weights(m, k):
        # total weight theta + m; a saturated urn (k = s) founds no species
        return theta + m, (k if s is None else np.minimum(k, s - 1))

    return _urn(uniforms, model.alpha, weights)


def _urn_generic(model: GibbsModel, uniforms: np.ndarray) -> np.ndarray:
    alpha = model.alpha

    def weights(m, k):
        # in units of V(m+1, k): 1 per repeat draw, 1 - alpha per founder and
        # V(m+1, k+1)/V(m+1, k) for a new species; the backward recursion
        # makes the total V(m, k)/V(m+1, k)
        lw = model.log_weight_row(m + 1, m + 1)
        with np.errstate(invalid="ignore"):
            new = np.exp(lw[1:] - lw[:-1])[k - 1]
        if not np.isfinite(new).all():
            raise ValueError(f"V({m + 1}, k) = 0 at a reachable state: the weights leave the model's support")
        return (m - alpha * k) + new, k - (new == 0.0)

    return _urn(uniforms, alpha, weights)


def _urn(uniforms: np.ndarray, alpha: float, weights) -> np.ndarray:
    """Run one urn per row of ``uniforms`` (rows, n - 1).

    Returns a (rows, n) array whose row i lists the species label of each
    of row i's n draws, in no particular order; labels number species in
    order of appearance from 0.  Species j's weight c_j - alpha is split as
    1 per earlier repeat draw of j plus 1 - alpha for its founding draw
    (Pitman, 2006, ch. 3), so at step m the uniform, scaled by the total
    weight, lands in one of three regions: the m - k repeat draws (pick one
    and copy its label), the k founders, or a new species.  ``weights(m, k)``
    returns the per-row total weight and the largest label a non-repeat
    draw may take: k, or k - 1 when no new species can be founded.
    """
    rows, steps = uniforms.shape
    n = steps + 1
    # repeat draws fill a row from the left, slot m - k taking draw m's
    # label; the founders' labels k-1 .. 0 sit preset in the last k slots
    labels = np.tile(np.arange(n - 1, -1, -1), (rows, 1))
    flat = labels.ravel()
    base = np.arange(rows) * n
    k = np.ones(rows, dtype=np.intp)
    inv = 1.0 / (1.0 - alpha)
    for m in range(1, n):
        total, cap = weights(m, k)
        u = uniforms[:, m - 1] * total
        repeats = m - k
        label = flat[base + np.minimum(u, m - 1).astype(np.intp)]
        u -= repeats  # negative inside the repeat region
        chosen = np.where(u < 0.0, label, np.minimum(u * inv, cap).astype(np.intp))
        # a draw that founds species k writes k to slot m - k, which the
        # next draw overwrites, or, if no draw follows, is species k's
        # preset slot; slots below m - k are never rewritten
        flat[base + repeats] = chosen
        k += chosen == k
    return labels


def _offset_bincount(values: np.ndarray, width: int) -> np.ndarray:
    """Row-wise bincount of values in [0, width): out[i, v] counts v in row i.

    ``values``, an intp array, is overwritten.
    """
    rows = values.shape[0]
    values += (np.arange(rows) * width)[:, None]
    return np.bincount(values.ravel(), minlength=rows * width).reshape(rows, width)


# -- finite population ---------------------------------------------------


class CategoricalSampler:
    """Draw species indices with fixed probabilities.

    Uses a Vose alias table above :data:`ALIAS_THRESHOLD` entries (O(1) per
    draw) and a cumulative-probability scan below it.  One uniform per
    draw either way, so the stream layout is the same.
    """

    def __init__(self, probs: np.ndarray):
        p = np.asarray(probs, dtype=float)
        self.s = p.size
        self.use_alias = self.s > ALIAS_THRESHOLD
        if self.use_alias:
            self._accept, self._alias = _build_alias(p)
        else:
            self._cum = np.cumsum(p)
            self._cum[-1] = 1.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Species indices of shape ``size`` (an int or a tuple)."""
        u = rng.random(size)
        if not self.use_alias:
            return np.searchsorted(self._cum, u, side="right")
        u = u * self.s
        idx = u.astype(np.intp)
        np.minimum(idx, self.s - 1, out=idx)
        u -= idx
        alias = u >= self._accept[idx]  # the fractional part picks the cell or its alias
        del u
        idx[alias] = self._alias[idx[alias]]
        return idx


def _build_alias(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = p.size
    accept = np.zeros(s)
    alias = np.zeros(s, dtype=np.int64)
    scaled = (p * s).tolist()
    small = [i for i, v in enumerate(scaled) if v < 1.0]
    large = [i for i, v in enumerate(scaled) if v >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        accept[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    for i in large + small:
        accept[i] = 1.0
    return accept, alias


def sample_population(pop: FinitePopulation, n: int, seed: int) -> SampleSummary:
    """n independent draws from the fixed frequencies, summarized."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draws = CategoricalSampler(pop.probs).draw(_stream(seed, 0), (1, n))[0]
    _, first, counts = np.unique(draws, return_index=True, return_counts=True)
    return _summarize(counts[np.argsort(first, kind="stable")].tolist())


# -- moment estimation ---------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Monte Carlo means with standard errors, one row per statistic.

    Row labels are ``K`` followed by ``C_1 ... C_lmax``.  The table is a
    pure function of (source, n, reps, seed, l_max).
    """

    n: int
    reps: int
    seed: int
    labels: tuple[str, ...]
    means: np.ndarray
    ses: np.ndarray

    def rows(self):
        return list(zip(self.labels, self.means.tolist(), self.ses.tolist()))

    def mean(self, label: str) -> float:
        return float(self.means[self.labels.index(label)])

    def se(self, label: str) -> float:
        return float(self.ses[self.labels.index(label)])

    def z(self, label: str, exact: float) -> float:
        """|mean - exact| in standard errors.  With a zero standard error every
        replicate showed one integer, and an integer law with mean ``exact`` a
        distance d < 1 from it has variance >= d(1 - d): z = sqrt(reps d / (1 - d))."""
        diff = abs(self.mean(label) - exact)
        se = self.se(label)
        if se > 0:
            return diff / se
        return math.inf if diff >= 1 else math.sqrt(self.reps * diff / (1.0 - diff))


def monte_carlo_moments(
    source,
    n: int,
    reps: int,
    seed: int,
    l_max: int | None = None,
) -> MomentTable:
    """Estimate E[K_n] and E[C(l, n)], l <= l_max, over independent replicates.

    ``source`` is a GibbsModel (urn sampling) or FinitePopulation
    (multinomial sampling).  Replicates run in blocks; block b uses the
    stream keyed by (seed, b) (see the module docstring).  Each statistic
    and its square are summed over the replicates in integers, which is
    exact, so the result does not depend on the block layout and memory
    stays within one block whatever ``reps`` is.  The variance comes from
    those exact sums, correctly rounded.
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if l_max is None:
        l_max = n
    if not 1 <= l_max <= n:
        raise ValueError(f"need 1 <= l_max <= n, got l_max={l_max}")
    # every statistic is at most n, so int64 holds reps * n^2
    sums = np.zeros(1 + l_max, dtype=np.int64)
    squares = np.zeros(1 + l_max, dtype=np.int64)
    for stats in _replicate_blocks(source, n, reps, seed, l_max):
        sums += stats.sum(axis=0)
        squares += (stats * stats).sum(axis=0)
    # below 2^53 the float conversion is exact: the same means as averaging
    # the statistics in float64
    means = sums / reps
    var = [(reps * q - t * t) / (reps * (reps - 1)) for t, q in zip(sums.tolist(), squares.tolist())]
    ses = np.sqrt(var) / np.sqrt(reps)
    labels = ("K",) + tuple(f"C_{l}" for l in range(1, l_max + 1))
    return MomentTable(n=n, reps=reps, seed=seed, labels=labels, means=means, ses=ses)


def _replicate_blocks(source, n: int, reps: int, seed: int, l_max: int):
    """Yield one (rows, 1 + l_max) int64 array per block: K, C_1 .. C_lmax
    of each replicate, in replicate order."""
    if isinstance(source, GibbsModel):
        source._check_size(n)
        urn = _urn_pitman_yor if isinstance(source, PitmanYor) else _urn_generic
        rows = max(1, URN_BLOCK // n)

        def block(rng, size):
            return _offset_bincount(urn(source, rng.random((size, n - 1))), n)

    elif isinstance(source, FinitePopulation):
        sampler = CategoricalSampler(source.probs)
        rows = max(1, POPULATION_BLOCK // max(n, sampler.s))

        def block(rng, size):
            return _offset_bincount(sampler.draw(rng, (size, n)), sampler.s)

    else:
        raise ValueError(f"source must be a GibbsModel or FinitePopulation, got {type(source)!r}")

    for b, lo in enumerate(range(0, reps, rows)):
        counts = block(_stream(seed, b), min(rows, reps - lo))  # species multiplicities, one row per replicate
        stats = np.empty((counts.shape[0], 1 + l_max), dtype=np.int64)
        stats[:, 0] = np.count_nonzero(counts, axis=1)
        stats[:, 1:] = _offset_bincount(counts, n + 1)[:, 1 : l_max + 1]
        del counts  # free the block before the next one is drawn
        yield stats
