"""The four benchmark workloads and the independent checks on every op.

Each workload is a closed loop with one client: ``round(r)`` returns a list
of ops, the runner times each op's ``run()`` and then hands its result to
``check()``, which returns None or the reason the result is wrong.  A round
is a fixed mix of op kinds; its inputs are a pure function of (seed, r).
Sizes follow a low-discrepancy schedule (see Strata), so every run covers
each size range evenly and runs with different seeds do comparable work.

References are computed here, from closed forms with ``math.lgamma`` or from
plain sums, never from the code path under test.  Tolerances are the
repository's own: 1e-9 for discovery probabilities and moments against
closed forms, 1e-8 for E[K_n], 1e-10 for the tabular count-ratio identity,
1e-12 for the population identity, smoothing and empirical estimates, and
4 standard errors for Monte Carlo means.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

SE_GATE = 4.0
#: Monte Carlo inputs (models, sizes, replicates and streams) come from a
#: fixed pool of MC_POOL rounds drawn from MC_POOL_SEED, and --seed picks
#: the round a run starts at.  The 4-SE gate misses a correct sampler about
#: once in 16 000 means, so fresh streams in every run would fail a correct
#: program by chance about once in 120 montecarlo runs (128 means each).  On a fixed pool, as in
#: verify.py, which fixes its seed too, passing the gates is a property of
#: the program; smoke.py checks every table of the pool.
MC_POOL_SEED = 20230815
MC_POOL = 8


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]  # (result, want) -> None or the reason it is wrong
    want: Any = None  # the independent reference; None where check derives it from the result
    replicates: int = 0  # Monte Carlo replicates the op asks for


# -- references -------------------------------------------------------------


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def within(got: float, want: float, tol: float, what: str) -> str | None:
    if not math.isfinite(got):
        return f"{what}: got {got!r}, want {want!r}"
    err = rel_err(got, want)
    return None if err <= tol else f"{what}: got {got!r}, want {want!r} (rel err {err:.2e} > {tol:.0e})"


def near(tol: float, what: str) -> Callable[[Any, Any], str | None]:
    return lambda got, want: within(got, want, tol, what)


def log_rising(x: float, m: int) -> float:
    return math.lgamma(x + m) - math.lgamma(x) if m else 0.0


def log_binom(n: int, l: int) -> float:
    # exact enough at large n for small l: no difference of huge lgamma values
    return math.fsum(math.log(n - i) for i in range(l)) - math.lgamma(l + 1)


def py_discovery(a: float, t: float, l: int, n: int) -> float:
    return (l - a) / (t + n)


def py_species(a: float, t: float, n: int) -> float:
    """E[K_n] = theta/alpha ((theta+alpha)_n / (theta)_n - 1)."""
    return t / a * math.expm1(log_rising(t + a, n) - log_rising(t, n))


def py_count(a: float, t: float, l: int, n: int) -> float:
    """E[C(l,n)] = C(n,l) (1-alpha)_{l-1} (theta+alpha)_{n-l} / (theta+1)_{n-1}."""
    return math.exp(
        log_binom(n, l) + log_rising(1 - a, l - 1) + log_rising(t + a, n - l) - log_rising(t + 1, n - 1)
    )


def py_falling(a: float, t: float, l: int, n: int, r: int) -> float:
    """E[(C(l,n))_r] = n!/((l!)^r (n-lr)!) [(1-a)_{l-1}]^r prod_{i<r}(t+ia) (t+ra)_{n-lr} / (t+1)_{n-1}."""
    m = n - l * r
    if m < 0:
        return 0.0
    log = (
        math.lgamma(n + 1) - r * math.lgamma(l + 1) - math.lgamma(m + 1)
        + r * log_rising(1 - a, l - 1)
        + math.fsum(math.log(t + i * a) for i in range(1, r))
        + log_rising(t + r * a, m)
        - log_rising(t + 1, n - 1)
    )
    return math.exp(log)


def smoothed_count_ref(a: float, k: int, l: int) -> float:
    return k * a * math.exp(log_rising(1 - a, l - 1) - math.lgamma(l + 1))


def smoothed_discovery_ref(a: float, k: int, n: int, l: int) -> float:
    return k / n * a * math.exp(log_rising(1 - a, l) - math.lgamma(l + 1))


class PopulationRef:
    """Plain-sum expectations for a known population (no library code)."""

    def __init__(self, p: np.ndarray):
        self.p = p
        self.log_p = np.log(p)
        self.log_q = np.log1p(-p)

    def count(self, l: int, n: int) -> float:
        terms = np.exp(l * self.log_p + (n - l) * self.log_q)
        return math.exp(log_binom(n, l)) * math.fsum(terms.tolist())

    def species(self, n: int) -> float:
        return math.fsum((-np.expm1(n * self.log_q)).tolist())

    def discovery(self, l: int, n: int) -> float:
        """Count-ratio identity (l+1)/(n+1) E[C(l+1,n+1)] / E[C(l,n)]."""
        return (l + 1) / (n + 1) * self.count(l + 1, n + 1) / self.count(l, n)


class TabularRef:
    """E[K_n], E[C(l,n)] and the discovery probability for a small weight
    table, in plain floats.

    Builds V(n,k) by the backward recursion and S(n,k) by the triangle
    recurrence itself; both fit in a double for n <= 12.
    """

    def __init__(self, alpha: float, bottom: np.ndarray):
        self.alpha = alpha
        size = len(bottom)
        v = [None] * (size + 1)
        v[size] = [0.0] + [float(x) for x in bottom]
        for n in range(size - 1, 0, -1):
            v[n] = [0.0] + [(n - k * alpha) * v[n + 1][k] + v[n + 1][k + 1] for k in range(1, n + 1)]
        scale = v[1][1]
        self.v = [None] + [[x / scale for x in row] for row in v[1:]]
        s = [[1.0]]
        for n in range(size):
            prev = s[n] + [0.0]
            s.append([0.0] + [prev[k - 1] + (n - k * alpha) * prev[k] for k in range(1, n + 2)])
        self.s = s

    def species(self, n: int) -> float:
        return math.fsum(k * self.v[n][k] * self.s[n][k] for k in range(1, n + 1))

    def singletons(self, n: int) -> float:
        return self.count(1, n)

    def count(self, l: int, n: int) -> float:
        """E[C(l,n)] = C(n,l) (1-alpha)_{l-1} sum_k V(n,k) S(n-l,k-1)."""
        m = n - l
        return math.exp(log_binom(n, l) + log_rising(1 - self.alpha, l - 1)) * math.fsum(
            self.v[n][k] * self.s[m][k - 1] for k in range(1, m + 2))

    def discovery(self, l: int, n: int) -> float:
        """Count-ratio identity (l+1)/(n+1) E[C(l+1,n+1)] / E[C(l,n)]."""
        return (l + 1) / (n + 1) * self.count(l + 1, n + 1) / self.count(l, n)


def se_gate(label: str, mean: float, se: float, want: float) -> str | None:
    """The repository's 4-SE gate; a zero SE with any difference fails."""
    diff = abs(mean - want)
    z = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
    return None if z <= SE_GATE else f"{label}: mean {mean!r} vs {want!r}, |z| {z:.2f} > {SE_GATE}"


def z_check(table, refs: dict[str, float]) -> str | None:
    for label, want in refs.items():
        if reason := se_gate(label, table.mean(label), table.se(label), want):
            return reason
    return None


# -- stratified inputs ------------------------------------------------------


class Strata:
    """Slot j of round r sits at frac((j + 1 + r) * a_d) in dimension d.

    a_d = g^-(d+1) with g^4 = g + 1 (the R3 low-discrepancy sequence), so up
    to three sizes of one slot cover their joint range evenly.  The schedule
    is the same for every seed: sizes set most of an op's cost, so runs with
    different seeds do comparable work, while the seed draws every model
    parameter, occurrence count l and Monte Carlo stream.
    """

    STEPS = tuple(1.2207440846057596 ** -(d + 1) for d in range(3))

    def __init__(self, slots: int):
        self.u0 = np.array([[(j + 1) * a % 1.0 for a in self.STEPS] for j in range(slots)])

    def u(self, j: int, r: int, dim: int = 0) -> float:
        return (self.u0[j, dim] + r * self.STEPS[dim]) % 1.0


def log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def strat_int(lo: int, hi: int, i: int, count: int, u: float) -> int:
    """Integer in stratum i of ``count`` equal log-width strata of [lo, hi]."""
    return min(hi, max(lo, int(log_uniform(lo, hi, (i + u) / count))))


def _rand_l(rng, n: int, top: int) -> int:
    return int(rng.integers(1, min(n, top) + 1))


class Workload:
    name = ""
    #: op times are reported at reference host speed (run.calibration); the
    #: loop runs in this process, so it tracks ops that run here too
    host_scaled = True
    #: an untraced run stops only after a whole multiple of this many rounds
    cycle = 1

    def __init__(self, seed: int, G, ctx: "Context"):
        self.seed = seed
        self.G = G
        self.ctx = ctx

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOADS.index(type(self)), r])

    def pool_round(self, r: int) -> int:
        return (self.seed + r) % MC_POOL

    def pool_rng(self, r: int, *key: int) -> np.random.Generator:
        """The stream of round r's Monte Carlo inputs, from the fixed pool."""
        return np.random.default_rng([MC_POOL_SEED, WORKLOADS.index(type(self)), self.pool_round(r), *key])


@dataclass
class Context:
    root: Path
    work: Path
    env: dict = field(default_factory=dict)
    tracer: Any = None  # set while the cli workload runs traced


# -- fitted: a pool of models queried many times ----------------------------


class Fitted(Workload):
    """PitmanYor, tabular and population objects built once and queried at
    n log-uniform over 10..4000 (about a quarter above the 1024-row cache),
    plus one estimator row per round just above the cache limit."""

    name = "fitted"
    SLOTS = {"egt": 8, "ec": 8, "ffm": 4, "es": 4, "row": 3, "row_cliff": 1, "pop": 4, "tab": 4, "tab_small": 2}

    def __init__(self, seed, G, ctx):
        super().__init__(seed, G, ctx)
        rng = np.random.default_rng([seed, 101])
        self.py = [G.PitmanYor(float(rng.uniform(0.05, 0.9)), log_uniform(0.2, 20.0, rng.random()))
                   for _ in range(4)]
        self.py += [G.PitmanYor(float(rng.uniform(-2.0, -0.2)), s=int(log_uniform(50, 2000, rng.random())))
                    for _ in range(2)]
        self.tab = [G.TabularGibbsModel.from_bottom_row(float(rng.uniform(-0.5, 0.9)), rng.uniform(0.5, 2.0, size))
                    for size in (120, 160)]
        # small enough for plain-float sums: an independent reference
        a, bottom = float(rng.uniform(-0.5, 0.9)), rng.uniform(0.5, 2.0, 12)
        self.tab_small = G.TabularGibbsModel.from_bottom_row(a, bottom)
        self.tab_small_ref = TabularRef(a, bottom)
        self.pops, self.pop_refs = [], []
        for s, shape in ((1000, 0.5), (100_000, 1.0)):
            g = rng.gamma(shape, size=s)
            p = g / g.sum()
            self.pops.append(G.FinitePopulation(p))
            self.pop_refs.append(PopulationRef(p))
        self.strata = Strata(sum(self.SLOTS.values()))
        for m in self.py:  # fills each Stirling cache up to its 1024-row limit
            m.exact_good_turing(1, 1025)
        for m in self.tab + [self.tab_small]:
            m.exact_good_turing(1, m.max_size // 2)
        for pop in self.pops:
            pop.exact_good_turing(1, 100)

    def round(self, r):
        rng, G = self.rng(r), self.G
        slot = iter(range(len(self.strata.u0)))
        ops: list[Op] = []

        def u():
            return self.strata.u(next(slot), r)

        def model():
            return self.py[int(rng.integers(len(self.py)))]

        for i in range(self.SLOTS["egt"]):
            m, n = model(), strat_int(10, 4000, i, self.SLOTS["egt"], u())
            l = _rand_l(rng, n, 20)
            ops.append(Op("egt", lambda m=m, l=l, n=n: m.exact_good_turing(l, n),
                          near(1e-9, "discovery"), py_discovery(m.alpha, m.theta, l, n)))
        for i in range(self.SLOTS["ec"]):
            m, n = model(), strat_int(10, 4000, i, self.SLOTS["ec"], u())
            l = _rand_l(rng, n, 10)
            ops.append(Op("ec", lambda m=m, l=l, n=n: m.expected_count(l, n),
                          near(1e-9, "E[C(l,n)]"), py_count(m.alpha, m.theta, l, n)))
        for i in range(self.SLOTS["ffm"]):
            m, n = model(), strat_int(10, 4000, i, self.SLOTS["ffm"], u())
            l, k = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            ops.append(Op("ffm", lambda m=m, l=l, n=n, k=k: m.falling_factorial_moment(l, n, k),
                          near(1e-9, "E[(C)_r]"), py_falling(m.alpha, m.theta, l, n, k)))
        for i in range(self.SLOTS["es"]):
            m, n = model(), strat_int(10, 4000, i, self.SLOTS["es"], u())
            ops.append(Op("es", lambda m=m, n=n: m.expected_species(n),
                          near(1e-8, "E[K_n]"), py_species(m.alpha, m.theta, n)))
        rows = [strat_int(10, 1024, i, self.SLOTS["row"], u()) for i in range(self.SLOTS["row"])]
        rows.append(1025 + int(u() * 76))  # 1025..1100: every row above 1024 is rebuilt from row 0
        for n in rows:
            m = model()
            want = (np.arange(1, n + 1) - m.alpha) / (m.theta + n)
            ops.append(Op("row", lambda m=m, n=n: m.exact_good_turing_row(n), _row_check, want))
        for i in range(self.SLOTS["pop"]):
            j = i % len(self.pops)
            n = strat_int(10, 4000, i // len(self.pops), self.SLOTS["pop"] // len(self.pops), u())
            l, pop = _rand_l(rng, n, 10), self.pops[j]
            ops.append(Op("pop", lambda pop=pop, l=l, n=n: pop.exact_good_turing(l, n),
                          near(1e-12, "population"), self.pop_refs[j].discovery(l, n)))
        for i in range(self.SLOTS["tab"]):
            m = self.tab[i % len(self.tab)]
            n = 2 + int(u() * (m.max_size - 2))
            l = _rand_l(rng, n, 10)
            ops.append(Op("tab", lambda m=m, l=l, n=n: (m, m.exact_good_turing(l, n)),
                          lambda x, _, l=l, n=n: _tab_identity(*x, l, n)))
        for _ in range(self.SLOTS["tab_small"]):
            n = 1 + int(u() * (self.tab_small.max_size - 1))  # n + 1 <= max_size for the reference
            l = _rand_l(rng, n, n)
            ops.append(Op("tab_small", lambda l=l, n=n: self.tab_small.exact_good_turing(l, n),
                          near(1e-10, "tabular discovery"), self.tab_small_ref.discovery(l, n)))
        for _ in range(2):
            a, k, l = float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 1001)), int(rng.integers(1, 101))
            n = k + int(rng.integers(0, 5000))
            ops.append(Op("smooth", lambda a=a, k=k, l=l: G.smoothed_count(a, k, l),
                          near(1e-12, "smoothed count"), smoothed_count_ref(a, k, l)))
            ops.append(Op("smooth", lambda a=a, k=k, n=n, l=l: G.smoothed_discovery(a, k, n, l - 1),
                          near(1e-12, "smoothed discovery"), smoothed_discovery_ref(a, k, n, l - 1)))
        positive = [m for m in self.py if m.alpha >= 0]
        for _ in range(2):
            m = positive[int(rng.integers(len(positive)))]
            n = int(log_uniform(10, 4000, rng.random()))
            l = _rand_l(rng, n, 20)
            ops.append(Op("closed", lambda m=m, l=l, n=n: m.exact_good_turing_closed(l, n),
                          near(1e-9, "closed form"), py_discovery(m.alpha, m.theta, l, n)))
            ops.append(Op("closed", lambda m=m, n=n: m.expected_species_structural(n),
                          near(1e-8, "structural E[K_n]"), py_species(m.alpha, m.theta, n)))
        rng.shuffle(ops)
        return ops


def _row_check(got, want) -> str | None:
    got = np.asarray(got)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return f"row: shape {got.shape} or non-finite entries"
    worst = float(np.max(np.abs(got - want) / want))
    return None if worst <= 1e-9 else f"row: worst rel err {worst:.2e} > 1e-09"


def _tab_identity(model, got: float, l: int, n: int) -> str | None:
    # the identity's two expectations come from the same model, after the op
    want = (l + 1) / (n + 1) * model.expected_count(l + 1, n + 1) / model.expected_count(l, n)
    return within(got, want, 1e-10, "tabular count-ratio identity")


# -- sweep: a fresh object per op -------------------------------------------


class Sweep(Workload):
    """Every op builds a new model at a new parameter point and asks one
    question, so nothing is reused between ops."""

    name = "sweep"
    KINDS = ("egt", "ec", "ffm")
    PER_KIND = 3
    #: largest table built: from_bottom_row overflowed from N = 167..173 when the benchmark was written
    TAB_MAX = 160

    def __init__(self, seed, G, ctx):
        super().__init__(seed, G, ctx)
        self.strata = Strata(len(self.KINDS) * self.PER_KIND + 1)
        G.PitmanYor(0.5, 1.0).exact_good_turing(1, 100)
        G.TabularGibbsModel.from_bottom_row(0.5, np.ones(20)).exact_good_turing(1, 10)

    def round(self, r):
        rng, G = self.rng(r), self.G
        ops: list[Op] = []
        for j, kind in enumerate(self.KINDS):
            for i in range(self.PER_KIND):
                a, t = float(rng.uniform(0.05, 0.95)), log_uniform(0.1, 50.0, rng.random())
                n = strat_int(100, 2000, i, self.PER_KIND, self.strata.u(j * self.PER_KIND + i, r))
                l = _rand_l(rng, n, 10)
                if kind == "egt":
                    ops.append(Op(kind, lambda a=a, t=t, l=l, n=n: G.PitmanYor(a, t).exact_good_turing(l, n),
                                  near(1e-9, "discovery"), py_discovery(a, t, l, n)))
                elif kind == "ec":
                    ops.append(Op(kind, lambda a=a, t=t, l=l, n=n: G.PitmanYor(a, t).expected_count(l, n),
                                  near(1e-9, "E[C(l,n)]"), py_count(a, t, l, n)))
                else:
                    k = int(rng.integers(2, 4))
                    ops.append(Op(kind, lambda a=a, t=t, l=l, n=n, k=k:
                                  G.PitmanYor(a, t).falling_factorial_moment(l, n, k),
                                  near(1e-9, "E[(C)_r]"), py_falling(a, t, l, n, k)))
        size = 20 + int(self.strata.u(len(self.strata.u0) - 1, r) * (self.TAB_MAX - 19))
        a, bottom = float(rng.uniform(-1.0, 0.9)), rng.uniform(0.5, 2.0, size)
        n = int(rng.integers(size // 2, size))
        l = _rand_l(rng, n, 10)

        def tabular(a=a, bottom=bottom, l=l, n=n):
            model = G.TabularGibbsModel.from_bottom_row(a, bottom)
            return model, model.exact_good_turing(l, n)

        ops.append(Op("tab", tabular, lambda x, _, l=l, n=n: _tab_identity(*x, l, n)))
        rng.shuffle(ops)
        return ops


def tabular_overflow_frac(G, seed: int, probes: int = 16) -> float:
    """Share of from_bottom_row builds over N = 20..300 that raise.

    When the benchmark was written every table above N of about 170
    overflowed its linear-space rows; this probe keeps that defect in view
    without failing ops.
    """
    rng = np.random.default_rng([seed, 199])
    failed = 0
    for i in range(probes):
        size = 20 + int((i + rng.random()) / probes * 281)
        with np.errstate(all="ignore"):
            try:
                G.TabularGibbsModel.from_bottom_row(float(rng.uniform(-1.0, 0.9)), rng.uniform(0.5, 2.0, size))
            except (ValueError, FloatingPointError, OverflowError):
                failed += 1
    return failed / probes


# -- montecarlo: seeded moment tables ---------------------------------------


class MonteCarlo(Workload):
    """monte_carlo_moments from five sources: the PitmanYor urn, an alpha < 0
    finite Dirichlet model, the generic urn on a small tabular model, and
    populations with s = 3 (cumulative scan) and s = 1000 (alias table).
    Every input comes from the fixed Monte Carlo pool (MC_POOL)."""

    name = "montecarlo"
    #: every run plays whole passes over the pool, so all runs time the
    #: same tables, in an order that starts at the round the seed picks
    cycle = MC_POOL
    PY_SLOTS = 4
    #: replicates per op are sized by a fixed cost model to take about this long
    TARGET_S = 0.3

    def __init__(self, seed, G, ctx):
        super().__init__(seed, G, ctx)
        rng = np.random.default_rng([MC_POOL_SEED, 103])
        a, bottom = float(rng.uniform(-0.5, 0.9)), rng.uniform(0.5, 2.0, 12)
        self.tab = G.TabularGibbsModel.from_bottom_row(a, bottom)
        self.tab_ref = TabularRef(a, bottom)
        p3 = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
        g = rng.gamma(0.5, size=1000)
        p1000 = g / g.sum()
        self.pops = [(G.FinitePopulation(p), PopulationRef(p)) for p in (p3, p1000)]
        self.strata = Strata(self.PY_SLOTS + 4)
        for source in (G.PitmanYor(0.5, 1.0), G.PitmanYor(-1.0, s=10), self.tab, self.pops[0][0], self.pops[1][0]):
            G.monte_carlo_moments(source, 5, 100, 1, l_max=1)

    def _op(self, kind, source, n, per_rep_us, rng, k_ref, c1_ref) -> Op:
        # per_rep_us: cost of one replicate in microseconds, fitted on a
        # 2-core Xeon when the benchmark was written; urn steps scan the
        # species found so far, which an alpha < 0 model spreads evenly
        G, seed = self.G, int(rng.integers(2**31))
        reps = int(np.clip(self.TARGET_S * 1e6 / per_rep_us, 1000, 20000))
        return Op(kind, lambda: G.monte_carlo_moments(source, n, reps, seed, l_max=1),
                  z_check, {"K": k_ref, "C_1": c1_ref}, replicates=reps)

    def round(self, r):
        rng, G, q = self.pool_rng(r), self.G, self.pool_round(r)
        u = lambda j, dim=0: self.strata.u(j, q, dim)  # noqa: E731
        ops = []
        for i in range(self.PY_SLOTS):
            n = strat_int(10, 1000, i, self.PY_SLOTS, u(i))
            a, t = float(rng.uniform(0.1, 0.5)), log_uniform(0.3, 3.0, rng.random())
            k = py_species(a, t, n)
            ops.append(self._op("urn", G.PitmanYor(a, t), n, 20 + n * (0.6 + 0.01 * k), rng, k, py_count(a, t, 1, n)))
        j = self.PY_SLOTS
        s = int(log_uniform(20, 200, u(j)))
        a = float(rng.uniform(-1.5, -0.3))
        n = int(log_uniform(10, s, u(j, 1)))
        model = G.PitmanYor(a, s=s)
        k = py_species(a, model.theta, n)
        ops.append(self._op("dirichlet", model, n, 20 + n * (0.05 + 0.056 * k), rng, k,
                            py_count(a, model.theta, 1, n)))
        n = 4 + int(u(j + 1) * 9)
        ops.append(self._op("generic", self.tab, n, 20 + 5 * n, rng,
                            self.tab_ref.species(n), self.tab_ref.singletons(n)))
        (pop3, ref3), (pop1000, ref1000) = self.pops
        # n <= 10 keeps K and C_1 off their extremes in hundreds of
        # replicates (P(K < 3) >= (2/3)^10 with every p_i >= 0.1); at larger n
        # every replicate can see all three species, and a zero SE fails
        # the gate
        n = 4 + int(u(j + 2) * 7)
        ops.append(self._op("pop3", pop3, n, 35, rng, ref3.species(n), ref3.count(1, n)))
        n = int(log_uniform(50, 1000, u(j + 3)))
        ops.append(self._op("pop1000", pop1000, n, 40 + 0.26 * n, rng, ref1000.species(n), ref1000.count(1, n)))
        rng.shuffle(ops)
        return ops


# -- cli: the command line in subprocesses ----------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_cli(ctx: Context, args: list[str]) -> CliResult:
    """``python -m goodturing.cli ARGS`` in a child; when traced, the child
    runs under tracehost.py and its spans join the current op."""
    tracer = ctx.tracer
    if tracer is None:
        cmd = [sys.executable, "-m", "goodturing.cli", *args]
    else:
        spans = ctx.work / f"spans-{len(tracer.spans)}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("tracehost.py")), str(spans), *args]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ctx.env,
                            cwd=ctx.root, text=True)
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # SIGTERM or an error: stop and reap the child first
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None and spans.exists():
        tracer.merge_child(str(spans), tracer.current(), spawned, time.perf_counter())
        spans.unlink()
    return CliResult(proc.returncode, out, err, usage.ru_maxrss)


def parse_report(text: str) -> dict[str, list[str]]:
    return {cells[0]: cells[1:] for cells in (line.split("\t") for line in text.splitlines()) if cells}


def _exit_ok(res: CliResult) -> str | None:
    return None if res.code == 0 else f"exit {res.code}: {res.stderr.strip()[-200:]}"


def report_near(tol: float) -> Callable[[CliResult, dict], str | None]:
    """Exit 0, and each ``key<TAB>value`` row named in want within tol."""

    def check(res: CliResult, want: dict[str, float]) -> str | None:
        if reason := _exit_ok(res):
            return reason
        rows = parse_report(res.stdout)
        for key, value in want.items():
            if key not in rows:
                return f"no {key!r} row in report"
            if reason := within(float(rows[key][0]), value, tol, key):
                return reason
        return None

    return check


def _bnp_check(res: CliResult, want: dict[str, float]) -> str | None:
    if parse_report(res.stdout).get("check") != ["pass"] and res.code == 0:
        return "check row is not 'pass'"
    return report_near(1e-9)(res, want)


def _simulate_check(res: CliResult, want: dict[str, float]) -> str | None:
    """Exit 0, the analytic column to 1e-9 and the simulated mean within
    4 standard errors, for each statistic in want."""
    if reason := _exit_ok(res):
        return reason
    rows = parse_report(res.stdout)
    for label, value in want.items():
        if label not in rows:
            return f"no {label!r} row"
        mean, se, analytic = (float(x) for x in rows[label][:3])
        if reason := within(analytic, value, 1e-9, f"analytic {label}") or se_gate(label, mean, se, value):
            return reason
    return None


def _verify_check(res: CliResult, _) -> str | None:
    if res.code != 0:
        return f"exit {res.code}: {res.stdout.strip()[-300:]} {res.stderr.strip()[-200:]}"
    rows = parse_report(res.stdout)
    if rows.get("failures") != ["0"] or "FAIL" in rows:
        return "verify reported failures"
    return None


def _write_labels(path: Path, rng, size: int, species: int) -> Counter:
    g = rng.gamma(0.3, size=species)
    draws = rng.choice(species, size=size, p=g / g.sum())
    labels = [f"sp{d}" for d in draws.tolist()]
    path.write_text("\n".join(labels) + "\n", encoding="utf-8")
    return Counter(Counter(labels).values())


class Cli(Workload):
    """``goodturing`` commands one at a time: bnp (closed, stirling, --check),
    gt (--counts, --sample on 10^5 labels), smooth, a small simulate, and
    verify --level fast once per round."""

    name = "cli"
    #: each op is a child process whose speed the parent's loop does not
    #: track: scaling did not narrow the spread of cli times, so they are raw
    host_scaled = False
    PER_KIND = 2

    def __init__(self, seed, G, ctx):
        super().__init__(seed, G, ctx)
        rng = np.random.default_rng([seed, 104])
        ctx.work.mkdir(parents=True, exist_ok=True)
        self.counts_path = ctx.work / "counts.csv"
        self.sample_path = ctx.work / "sample.txt"
        g = rng.gamma(0.5, size=5000)
        draws = rng.choice(5000, size=20_000, p=g / g.sum())
        self.counts = dict(sorted(Counter(Counter(draws.tolist()).values()).items()))
        self.counts_path.write_text(
            "# l,c_l\n" + "".join(f"{l},{c}\n" for l, c in self.counts.items()), encoding="utf-8")
        self.sample = _write_labels(self.sample_path, rng, 100_000, 30_000)
        self.strata = Strata(3)
        warm = self._bnp(rng, "closed", 0.0, negative=False)
        if reason := warm.check(warm.run(), warm.want):
            raise RuntimeError(f"cli warm-up failed: {reason}")

    def _cli(self, kind: str, args: list[str], check, want, replicates: int = 0) -> Op:
        return Op(kind, lambda: run_cli(self.ctx, args), check, want, replicates)

    def _bnp(self, rng, method: str, u: float, negative: bool, top: int = 4000) -> Op:
        n = int(log_uniform(10, top, u))
        l = _rand_l(rng, n, 20)
        if negative:
            a, s = float(rng.uniform(-2.0, -0.2)), int(log_uniform(10, 1000, rng.random()))
            t, model = abs(a) * s, [f"--alpha={a!r}", "--s", str(s)]
        else:
            a, t = float(rng.uniform(0.05, 0.95)), log_uniform(0.1, 50.0, rng.random())
            model = [f"--alpha={a!r}", f"--theta={t!r}"]
        want = py_discovery(a, t, l, n)
        args = ["bnp", *model, "--l", str(l), "--n", str(n)]
        if method == "check":
            return self._cli("bnp_check", args + ["--check"], _bnp_check,
                             {"estimate_closed": want, "estimate_stirling": want})
        return self._cli(f"bnp_{method}", args + ["--method", method], report_near(1e-9), {"estimate": want})

    def _gt(self, rng, kind: str, mode: str) -> Op:
        path, counts = (self.counts_path, self.counts) if kind == "gt_counts" else (self.sample_path, self.sample)
        n = sum(l * c for l, c in counts.items())
        if mode == "approx":
            l = int(rng.integers(0, 6))
            want = (l + 1) * counts.get(l + 1, 0) / n
        else:
            l = int(rng.choice([k for k in counts if k <= 20]))
            want = (l + 1) * counts.get(l + 1, 0) / (n * counts[l])
        args = ["gt", "--" + kind[3:], str(path), "--l", str(l), "--mode", mode]
        return self._cli(kind, args, report_near(1e-12), {"estimate": want})

    def _smooth(self, rng) -> Op:
        a, l = float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 11))
        n, k = sum(l_ * c for l_, c in self.counts.items()), sum(self.counts.values())
        args = ["smooth", f"--alpha={a!r}", "--counts", str(self.counts_path), "--l", str(l)]
        want = {"smoothed_count": smoothed_count_ref(a, k, l), "discovery": smoothed_discovery_ref(a, k, n, l)}
        return self._cli("smooth", args, report_near(1e-12), want)

    def _simulate(self, rng, population: bool) -> Op:
        n, reps, seed = int(rng.integers(10, 41)), 2000, int(rng.integers(2**31))
        if population:
            q = 0.05 + rng.dirichlet(np.ones(5))
            p = q / q.sum()
            ref = PopulationRef(p)
            want = {"K": ref.species(n), "C_1": ref.count(1, n)}
            source = ["--pop", ",".join(repr(float(x)) for x in p)]
        else:
            a, t = float(rng.uniform(0.2, 0.8)), log_uniform(0.5, 5.0, rng.random())
            want = {"K": py_species(a, t, n), "C_1": py_count(a, t, 1, n)}
            source = [f"--alpha={a!r}", f"--theta={t!r}"]
        args = ["simulate", *source, "--n", str(n), "--reps", str(reps), "--seed", str(seed), "--l", "1"]
        return self._cli("simulate", args, _simulate_check, want, reps)

    def round(self, r):
        rng = self.rng(r)
        u = lambda j: self.strata.u(j, r)  # noqa: E731
        ops = [self._cli("verify", ["verify", "--level", "fast"], _verify_check, None)]
        for i in range(self.PER_KIND):
            ops.append(self._bnp(rng, "closed", (i + u(0)) / self.PER_KIND, negative=i == 1))
            ops.append(self._bnp(rng, "stirling", (i + u(1)) / self.PER_KIND, negative=False, top=2000))
            ops.append(self._bnp(rng, "check", (i + u(2)) / self.PER_KIND, negative=i == 1, top=1000))
            mode = "approx" if i == 0 else "ratio"
            ops.append(self._gt(rng, "gt_counts", mode))
            ops.append(self._gt(rng, "gt_sample", mode))
            ops.append(self._smooth(rng))
            ops.append(self._simulate(self.pool_rng(r, i), population=i == 1))
        rng.shuffle(ops)
        return ops


WORKLOADS: list[type[Workload]] = [Fitted, Sweep, MonteCarlo, Cli]
BY_NAME = {w.name: w for w in WORKLOADS}
