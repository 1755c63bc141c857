"""Seeded Monte Carlo generators for checking every expectation empirically.

Two sources: the sequential urn driven by a Gibbs model's predictive rules,
and i.i.d. categorical draws from a known finite population.

Stream blocks fix which uniforms each replicate reads, so reproducibility
is by construction:

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

Passes fix only how the work is batched.  A pass is as many consecutive
stream blocks as fit in :data:`URN_PASS` elements and, for the urn,
:data:`URN_PASS_ROWS` rows (:data:`POPULATION_PASS` elements for a
population): each block's uniforms are written into its own rows of the
pass, so the replicates read the same uniforms as block by block.  The urn
takes one step for every row of a pass at once; at large n a block holds
few rows and numpy's per-call cost dominates a step, so the fewer, longer
steps of a pass are faster.  The urn's species count k and the labels
it draws are int32, so a step never widens a label and casts it back, and
n is at most :data:`MAX_N`.  The urn writes each draw's label over a
uniform it has already read, so a pass holds its labels in its own 8
bytes per element.  Its statistics are taken one stream block at a time:
rows of up to :data:`SHORT_ROW` labels are counted by a row-wise
histogram, longer ones are sorted and their runs counted; either way K
is read from the tally of counts.  A population pass is drawn and
counted at once, as its blocks hold few rows when s is large (16 at
s = 1000 and any n <= 1000).  A population's draws are int32 as well.
With more species than draws each row's draws are sorted and their runs
counted, so no array is s wide; with s <= n a row-wise histogram counts
them.

Memory stays bounded whatever ``reps`` is: an urn pass holds 8 bytes per
element (float64 uniforms, the int32 labels written over them), and
beside it live one block's statistics and counting temporaries.  A call
allocates one pass buffer, at its first pass's size, and every pass
writes its uniforms into it.  A population pass is smaller, as its draw
and count make several temporaries of its size.  A population's alias
table is built once and kept on the population.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .counts import _check_integer
from .empirical import FinitePopulation, FrequencyCounts, check_probabilities
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
#: elements (rows x n) per urn stream block: block b draws
#: ``URN_BLOCK // n`` rows from stream b.  Part of the stream layout, so
#: changing it changes every table
URN_BLOCK = 1 << 16
#: elements (rows x n) per urn pass: the urn runs once over as many
#: consecutive stream blocks as fit.  Not part of the layout; a pass holds
#: 8 bytes per element (float64 uniforms, the labels written over them),
#: so 3 MiB
URN_PASS = 3 << 17
#: elements (rows x n) per population pass: a population is drawn and
#: counted once per run of consecutive stream blocks that fits.  Not part
#: of the layout; the draw and the count make several temporaries of the
#: pass's size, so it is smaller than an urn pass
POPULATION_PASS = 1 << 15
#: elements (rows x max(n, s)) per population stream block: block b draws
#: ``POPULATION_BLOCK // max(n, s)`` rows from stream b.  Only the stream
#: layout reads it, so changing it changes every population table
POPULATION_BLOCK = 1 << 14
#: rows per urn pass at most: each urn step reads one uniform and writes
#: one label in every row, a cache line per row, and from about 2^13 rows
#: on those lines no longer stay in cache from one step to the next
URN_PASS_ROWS = 1 << 13
#: longest urn run counted by a row-wise histogram, as wide as the row;
#: longer rows are sorted and their runs counted, which is faster there
#: (an urn row holds few species, and the histogram's count of its n-wide
#: counts costs as much as its count of the labels)
SHORT_ROW = 12
#: largest sample size n: the urn's labels and its species count are int32
MAX_N = 2**31 - 1
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
    n, seed = _check_run(model, (GibbsModel,), n, seed)
    urn = _urn_pitman_yor if isinstance(model, PitmanYor) else _urn_generic
    labels = urn(model, _stream(seed, 0).random((1, n - 1)))[0]
    return _summarize(np.bincount(labels).tolist())


def _check_run(source, kinds: tuple[type, ...], n, seed) -> tuple[int, int]:
    """n and seed as ints, if the source is one of ``kinds``, n >= 1 and
    seed >= 0 are integers, n fits the int32 labels, and a model supports
    size n; ValueError otherwise."""
    if not isinstance(source, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"source must be a {names}, got {type(source)!r}")
    _check_integer("n", n, 1)
    _check_integer("seed", seed, 0)
    n = int(n)
    if n > MAX_N:
        raise ValueError(f"n={n} beyond the int32 labels' range, need n <= {MAX_N}")
    if isinstance(source, GibbsModel):
        source._check_size(n)
    return n, int(seed)


def _urn_pitman_yor(model: PitmanYor, uniforms: np.ndarray) -> np.ndarray:
    theta, s = model.theta, model.s
    # k <= n - 1 at every step, so only s < n can saturate, and the cap
    # then fits k's int32
    last = None if s is None or s > uniforms.shape[1] else s - 1

    def weights(m, k):
        # total weight theta + m; a saturated urn (k = s) founds no species
        return theta + m, (k if last is None else np.minimum(k, last))

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
    """Run one urn per row of the C-contiguous float64 ``uniforms`` (rows, n - 1).

    Returns a (rows, n) int32 view whose row i lists the species label of
    each of row i's n draws, in no particular order; labels number species
    in order of appearance from 0.  The labels are written over uniforms
    the urn has already read, so ``uniforms`` is consumed.  Species j's
    weight c_j - alpha is split as 1 per earlier repeat draw of j plus
    1 - alpha for its founding draw (Pitman, 2006, ch. 3), so at step m the
    uniform, scaled by the total weight, lands in one of three regions: the
    m - k repeat draws (pick one and copy its label), the k founders, or a
    new species.  ``weights(m, k)`` returns the per-row total weight and the
    largest label a non-repeat draw may take: k, or k - 1 when no new
    species can be founded.
    """
    rows, steps = uniforms.shape
    n = steps + 1
    if n == 1:
        return np.zeros((rows, 1), dtype=np.int32)
    # a row of 8 (n - 1) bytes holds 2 (n - 1) >= n int32 label slots, and
    # column c's uniform holds slots 2c and 2c + 1.  Repeat draws fill a row
    # from the left, slot m - k taking draw m's label; the founders' labels
    # k-1 .. 0 sit in the last k slots, preset to n - 1 - j in slot j.  Step
    # m has read columns 0 .. m - 1: it writes slot m - k <= m - 1 and, at
    # m = 1, 2, 4, ..., presets columns m/2 .. m - 1, slots m .. 2m - 1 that
    # no draw has written yet (at m = 1, column 0, before its write)
    slots = uniforms.view(np.int32)
    flat = slots.reshape(-1)
    pairs = uniforms.view(np.int64)  # two slots per 8-byte store
    preset = (n - 1 - np.arange(2 * steps)).astype(np.int32).view(np.int64)
    top = (n + 1) // 2  # the columns that hold slots 0 .. n - 1
    base = np.arange(rows) * (2 * steps)
    k = np.ones(rows, dtype=np.int32)  # the labels' width
    inv = 1.0 / (1.0 - alpha)
    done, preset_at = 0, 1  # columns below done are preset; the next preset is at step preset_at
    for m in range(1, n):
        total, cap = weights(m, k)
        u = uniforms[:, m - 1] * total
        repeats = m - k
        label = flat[base + np.minimum(u, m - 1).astype(np.intp)]
        u -= repeats  # negative inside the repeat region
        chosen = np.where(u < 0.0, label, np.minimum(u * inv, cap).astype(np.int32))
        if m == preset_at:  # u is a copy, so its column may be overwritten
            hi = min(m, top)
            pairs[:, done:hi] = preset[done:hi]
            done, preset_at = hi, 2 * m
        # a draw that founds species k writes k to slot m - k, which the
        # next draw overwrites, or, if no draw follows, is species k's
        # preset slot; slots below m - k are never rewritten
        flat[base + repeats] = chosen
        k += chosen == k
    return slots[:, :n]


def _offset_bincount(values: np.ndarray, width: int) -> np.ndarray:
    """Row-wise bincount of integer values in [0, width): out[i, v] counts v in row i."""
    rows = values.shape[0]
    offset = values + (np.arange(rows) * width)[:, None]
    return np.bincount(offset.ravel(), minlength=rows * width).reshape(rows, width)


# -- finite population ---------------------------------------------------


class CategoricalSampler:
    """Draw species indices with fixed probabilities.

    Uses a Vose alias table above :data:`ALIAS_THRESHOLD` entries (O(1) per
    draw) and a cumulative-probability scan below it.  One uniform per
    draw either way, so the stream layout is the same.  ``probs`` follows
    :class:`FinitePopulation`'s rules, zeros aside, which are kept.
    """

    def __init__(self, probs: np.ndarray):
        p = check_probabilities(probs)
        self.s = p.size
        self.use_alias = self.s > ALIAS_THRESHOLD
        if self.use_alias:
            self._accept, alias = _build_alias(p)
            self._jump = (alias - np.arange(self.s)).astype(np.int32)  # from each cell to its alias
        else:
            self._cum = np.cumsum(p)
            self._cum[-1] = 1.0

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The species index each uniform in ``u`` (in [0, 1)) maps to, in
        an int32 array of ``u``'s shape; ``u`` is left as it is."""
        if not self.use_alias:
            return np.searchsorted(self._cum, u, side="right").astype(np.int32)
        u = u * self.s
        idx = u.astype(np.int32)
        np.minimum(idx, self.s - 1, out=idx)
        u -= idx  # the fractional part picks the cell or its alias
        idx += self._jump[idx] * (u >= self._accept[idx])  # no branch per draw
        return idx


def _population_sampler(pop: FinitePopulation) -> CategoricalSampler:
    """The population's sampler, built on first use and kept on ``pop`` for
    as long as ``pop.probs`` is the read-only array it was built from."""
    kept = getattr(pop, "_sampler", None)
    if kept is None or kept[0] is not pop.probs:
        kept = pop._sampler = (pop.probs, CategoricalSampler(pop.probs))
    return kept[1]


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
    n, seed = _check_run(pop, (FinitePopulation,), n, seed)
    draws = _population_sampler(pop).draw(_stream(seed, 0).random((1, n)))[0]
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
    exact, so the result does not depend on the block layout, and memory
    stays within one pass whatever ``reps`` is.  The variance comes from
    those exact sums, correctly rounded.  ``n``, ``reps``, ``seed`` and
    ``l_max`` must be integers; ValueError otherwise.
    """
    n, seed = _check_run(source, (GibbsModel, FinitePopulation), n, seed)
    _check_integer("reps", reps, 100)
    reps = int(reps)
    if l_max is None:
        l_max = n
    _check_integer("l_max", l_max, 1)
    l_max = int(l_max)
    if l_max > n:
        raise ValueError(f"need 1 <= l_max <= n, got l_max={l_max}")
    # every statistic is at most n, so int64 holds reps * n^2
    sums = np.zeros(1 + l_max, dtype=np.int64)
    squares = np.zeros(1 + l_max, dtype=np.int64)
    for stats in _replicate_blocks(source, n, reps, seed, l_max):
        # einsum sums a column without a block-sized product and, unlike
        # sum(axis=0), quickly when rows are many and short
        sums += np.einsum("ij->j", stats)
        squares += np.einsum("ij,ij->j", stats, stats)
        del stats  # before the next block is counted
    # below 2^53 the float conversion is exact: the same means as averaging
    # the statistics in float64
    means = sums / reps
    var = [(reps * q - t * t) / (reps * (reps - 1)) for t, q in zip(sums.tolist(), squares.tolist())]
    ses = np.sqrt(var) / np.sqrt(reps)
    labels = ("K",) + tuple(f"C_{l}" for l in range(1, l_max + 1))
    return MomentTable(n=n, reps=reps, seed=seed, labels=labels, means=means, ses=ses)


def _replicate_blocks(source, n: int, reps: int, seed: int, l_max: int):
    """Yield (rows, 1 + l_max) int64 arrays of K, C_1 .. C_lmax per
    replicate, in replicate order: one per urn stream block, one per
    population pass.  The caller checks the arguments."""
    if isinstance(source, FinitePopulation):
        sampler = _population_sampler(source)
        rows = max(1, POPULATION_BLOCK // max(n, sampler.s))
        for draws, _ in _passes(seed, reps, rows, POPULATION_PASS // (rows * n), n, sampler.draw):
            yield _stats(draws, sampler.s, l_max, sort=sampler.s > n)
            del draws  # free the pass's draws before the next pass is drawn
        return
    urn = _urn_pitman_yor if isinstance(source, PitmanYor) else _urn_generic
    rows = max(1, URN_BLOCK // n)
    per_pass = min(URN_PASS // (rows * n), URN_PASS_ROWS // rows)
    for labels, bounds in _passes(seed, reps, rows, per_pass, n - 1, lambda u: urn(source, u)):
        for lo, hi in zip(bounds, bounds[1:]):
            yield _stats(labels[lo:hi], n, l_max, sort=n > SHORT_ROW)


def _passes(seed: int, reps: int, rows: int, per_pass: int, width: int, draw):
    """Yield ``draw(u)`` and the row bounds of u's stream blocks, pass by pass.

    A pass is ``per_pass`` (at least 1) consecutive stream blocks of
    ``rows`` rows, the last cut short at ``reps``.  u is a (rows in the
    pass, width) array; block b writes its own rows from stream (seed, b),
    which gives the doubles of ``random((rows, width))``.  Every pass's u
    is the leading rows of one buffer, allocated at the first pass's size,
    the largest, and freed after the last pass.  ``draw`` may return u's
    own memory (the urn writes its labels over u), so the caller is done
    with a pass's ``draw(u)`` once it asks for the next."""
    sizes = [min(rows, reps - lo) for lo in range(0, reps, rows)]
    per_pass = max(1, per_pass)
    buffer = np.empty((sum(sizes[:per_pass]), width))
    for first in range(0, len(sizes), per_pass):
        bounds = list(itertools.accumulate(sizes[first : first + per_pass], initial=0))
        uniforms = buffer[: bounds[-1]]
        for b, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=first):
            _stream(seed, b).random(out=uniforms[lo:hi])
        yield draw(uniforms), bounds


def _stats(labels: np.ndarray, s: int, l_max: int, sort: bool) -> np.ndarray:
    """K, C_1 .. C_lmax of each row of ``labels``, species labels in [0, s).

    With ``sort`` each row is sorted and its runs are counted, so no array
    is s wide; otherwise a row-wise histogram of width s counts the
    species.  Both give the same integers.
    """
    rows, n = labels.shape
    if not sort:
        counts = _offset_bincount(labels, s)
        tally = _offset_bincount(counts, n + 1)
        tally[:, 0] = s - tally[:, 0]  # K, in place of the species seen 0 times
        return tally[:, : 1 + l_max]
    ordered = np.sort(labels, axis=1)
    first = np.empty(ordered.shape, dtype=bool)  # where each run of equal labels starts
    first[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    del ordered
    starts = np.flatnonzero(first)  # a row's first run starts the row, so no run spans two rows
    del first
    lengths = np.diff(starts, append=rows * n)
    lengths *= lengths <= l_max  # longer runs go to column 0, which K then fills
    starts //= n  # each run's row
    starts *= 1 + l_max
    starts += lengths
    tally = np.bincount(starts, minlength=rows * (1 + l_max)).reshape(rows, 1 + l_max)
    tally[:, 0] = np.einsum("ij->i", tally)  # every run is in one column, so K is the row sum
    return tally
