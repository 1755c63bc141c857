"""Span tracing for the traced benchmark run.

The tracer replaces functions with timing wrappers *where they are bound in
the calling module* (``goodturing.gibbs.stirling_log_row``, a method in its
class dictionary, ...), so nothing under ``src/`` changes and the untraced
run pays nothing.  A name that no longer exists is recorded as missing and
the metrics that depend only on missing names come out as ``null``.

Every span holds its name, start, end, parent and the id of the operation
it belongs to.  Spans stay in memory until the run ends; self time is a
span's duration minus the time covered by its child spans.  Counts derived
from call arguments are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Span groups: the layer name plus the boundary it measures.
STIRLING = "specfun.stirling"
LOG_RISING = "specfun.log_rising"
ESTIMATOR = "gibbs.estimator"
MOMENT = "gibbs.moment"
WEIGHT_ROW = "gibbs.log_weight_row"
LOGSUMEXP = "gibbs.logsumexp"
TABULAR = "gibbs.tabular_build"
SIGNEDLOG = "signedlog"
PY_CLOSED = "pitman_yor.closed"
POPULATION = "empirical.population"
SMOOTHING = "empirical.smoothing"
FROM_SAMPLE = "empirical.from_sample"
RNG = "sampler.rng"
URN = "sampler.urn"
DRAW = "sampler.draw"
MONTE_CARLO = "sampler.monte_carlo"
ORACLE = "oracle"
VERIFY = "verify"
PARSE = "cli.parse"
RENDER = "cli.render"
MAIN = "cli.main"
IMPORT = "import"  # a traced child's interpreter start, imports and exit
OP = "op"


def _arg(args, kwargs, i: int, name: str):
    return kwargs[name] if name in kwargs else args[i]


def _bell(n: int) -> int:
    # Bell triangle; the benchmark's own copy, so counting calls no oracle code
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# -- counters derived from call arguments ---------------------------------


def _rows_first_arg(name: str):
    def count(counts, args, kwargs):
        rows = int(_arg(args, kwargs, 0, name))
        counts["specfun.stirling_rows"] += rows
        counts["gibbs.stirling_rows"] += rows

    return count


def _rows_verify(counts, args, kwargs):
    counts["specfun.stirling_rows"] += int(_arg(args, kwargs, 0, "n_max"))


def _requested(rows: Callable):
    def count(counts, args, kwargs):
        counts["gibbs.rows_requested"] += max(int(rows(args, kwargs)), 0)

    return count


def _ffm_rows(args, kwargs):
    l, n, r = (_arg(args, kwargs, i, k) for i, k in ((1, "l"), (2, "n"), (3, "r")))
    return n - l * r if l * r <= n else 0


def _scalar_weight(counts, args, kwargs):
    counts["signedlog.scalar_weight_calls"] += 1


def _monte_carlo(counts, args, kwargs):
    source = _arg(args, kwargs, 0, "source")
    n, reps = int(_arg(args, kwargs, 1, "n")), int(_arg(args, kwargs, 2, "reps"))
    counts["sampler.replicates"] += reps
    if type(source).__name__ != "FinitePopulation":
        counts["sampler.urn_steps"] += reps * (n - 1)


def _partitions(i: int, name: str):
    def count(counts, args, kwargs):
        counts["oracle.partitions"] += _bell(int(_arg(args, kwargs, i, name)))

    return count


@dataclass(frozen=True)
class Boundary:
    """One wrapped name: ``module`` is where the caller looks it up."""

    group: str
    module: str
    attr: str  # dotted path from the module, e.g. "GibbsModel.expected_count"
    count: Callable | None = None
    caller: str | None = None  # only calls made from this module are recorded


_G, _PY, _E, _S = "goodturing.gibbs", "goodturing.pitman_yor", "goodturing.empirical", "goodturing.sampler"
_V, _C, _O, _PKG = "goodturing.verify", "goodturing.cli", "goodturing.oracle", "goodturing"

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary(STIRLING, _G, "stirling_triangle", _rows_first_arg("n_max")),
    Boundary(STIRLING, _G, "stirling_log_row", _rows_first_arg("n")),
    Boundary(STIRLING, _G, "iter_stirling_log_rows", _rows_first_arg("n_max")),
    Boundary(STIRLING, _V, "iter_stirling_log_rows", _rows_verify),
    Boundary(LOG_RISING, _G, "log_rising"),
    Boundary(LOG_RISING, _PY, "log_rising"),
    Boundary(LOG_RISING, _V, "log_rising"),
    Boundary(ESTIMATOR, _G, "GibbsModel.exact_good_turing",
             _requested(lambda a, k: _arg(a, k, 2, "n") - _arg(a, k, 1, "l"))),
    Boundary(ESTIMATOR, _G, "GibbsModel.exact_good_turing_row",
             _requested(lambda a, k: _arg(a, k, 1, "n") - 1)),
    Boundary(MOMENT, _G, "GibbsModel.expected_count",
             _requested(lambda a, k: _arg(a, k, 2, "n") - _arg(a, k, 1, "l"))),
    Boundary(MOMENT, _G, "GibbsModel.falling_factorial_moment", _requested(_ffm_rows)),
    Boundary(MOMENT, _G, "GibbsModel.expected_species",
             _requested(lambda a, k: _arg(a, k, 1, "n") - 1)),
    Boundary(WEIGHT_ROW, _G, "GibbsModel.log_weight_row"),
    Boundary(WEIGHT_ROW, _G, "TabularGibbsModel.log_weight_row"),
    Boundary(WEIGHT_ROW, _PY, "PitmanYor.log_weight_row"),
    Boundary(LOGSUMEXP, _G, "logsumexp"),
    Boundary(LOGSUMEXP, _G, "_row_logsumexp"),
    Boundary(TABULAR, _G, "TabularGibbsModel.from_bottom_row"),
    Boundary(TABULAR, _G, "TabularGibbsModel.__init__"),
    Boundary(SIGNEDLOG, _PY, "rising_factorial_step", _scalar_weight),
    Boundary(SIGNEDLOG, _O, "rising_factorial"),
    Boundary(SIGNEDLOG, _G, "GibbsModel.weight"),
    Boundary(PY_CLOSED, _PY, "PitmanYor.exact_good_turing_closed"),
    Boundary(PY_CLOSED, _PY, "PitmanYor.expected_species_structural"),
    Boundary(PY_CLOSED, _PY, "PitmanYor.predictive_probs"),
    Boundary(PY_CLOSED, _V, "johnson_estimate"),
    Boundary(PY_CLOSED, _V, "jeffreys_estimate"),
    Boundary(POPULATION, _E, "FinitePopulation.__init__"),
    Boundary(POPULATION, _E, "FinitePopulation.exact_good_turing"),
    Boundary(POPULATION, _E, "FinitePopulation.expected_count"),
    Boundary(POPULATION, _E, "FinitePopulation.expected_species"),
    Boundary(POPULATION, _E, "FinitePopulation.posterior"),
    Boundary(SMOOTHING, _PKG, "smoothed_count"),
    Boundary(SMOOTHING, _PKG, "smoothed_discovery"),
    Boundary(SMOOTHING, _C, "smoothed_count"),
    Boundary(SMOOTHING, _C, "smoothed_discovery"),
    Boundary(SMOOTHING, _V, "smoothed_count"),
    Boundary(FROM_SAMPLE, _E, "FrequencyCounts.from_sample"),
    Boundary(RNG, _S, "np.random.default_rng", caller=_S),
    Boundary(URN, _S, "_urn_pitman_yor"),
    Boundary(URN, _S, "_urn_generic"),
    Boundary(DRAW, _S, "CategoricalSampler.draw"),
    Boundary(MONTE_CARLO, _PKG, "monte_carlo_moments", _monte_carlo),
    Boundary(MONTE_CARLO, _C, "monte_carlo_moments", _monte_carlo),
    Boundary(MONTE_CARLO, _V, "monte_carlo_moments", _monte_carlo),
    Boundary(ORACLE, _V, "oracle_moment_table", _partitions(1, "n")),
    Boundary(ORACLE, _V, "oracle_stirling", _partitions(0, "n")),
    Boundary(VERIFY, _C, "run_checks"),
    Boundary(PARSE, _C, "build_parser"),
    Boundary(PARSE, _C, "argparse.ArgumentParser.parse_args"),
    Boundary(RENDER, _C, "Report.emit"),
    Boundary(RENDER, _C, "Report.render"),
    Boundary(MAIN, _C, "main"),
)

COUNTERS = (
    "specfun.stirling_rows",
    "gibbs.stirling_rows",
    "gibbs.rows_requested",
    "signedlog.scalar_weight_calls",
    "sampler.replicates",
    "sampler.urn_steps",
    "oracle.partitions",
    "verify.checks",
)


def _one_check(counts, args, kwargs):
    counts["verify.checks"] += 1


def _verify_checks() -> tuple[Boundary, ...]:
    # every check_* function of the verify module, whatever the suite holds
    try:
        mod = importlib.import_module(_V)
    except ImportError:
        return ()
    names = sorted(n for n in dir(mod) if n.startswith("check_"))
    return tuple(
        Boundary(VERIFY, _V, n, _one_check) for n in names if inspect.isfunction(getattr(mod, n))
    )


class Tracer:
    """Records spans and counts while ``active``; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.active = False
        self.present: set[str] = set()  # groups with at least one bound name
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        self.missing = []
        for b in BOUNDARIES + _verify_checks():
            if self._wrap(b):
                self.present.add(b.group)
            else:
                self.missing.append(f"{b.module}.{b.attr}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, b: Boundary) -> bool:
        try:
            owner = importlib.import_module(b.module)
        except ImportError:
            return False
        *path, name = b.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if inspect.isclass(owner):
            if name not in owner.__dict__:
                return False
            original = owner.__dict__[name]
        elif hasattr(owner, name):
            original = getattr(owner, name)
        else:
            return False
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, b))
        elif callable(original):
            replacement = self._wrapper(original, b)
        else:
            return False
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)
        return True

    def _wrapper(self, fn, b: Boundary):
        tracer, group, count, caller = self, b.group, b.count, b.caller

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (
                caller is not None and sys._getframe(1).f_globals.get("__name__") != caller
            ):
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs)
            sid = tracer.open(group)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if inspect.isgenerator(out):
                return tracer._steps(out, group)
            return out

        return traced

    def _steps(self, gen, group):
        # a generator does its work in next(): one span per step
        while True:
            sid = self.open(group)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(sid)
            yield item

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1]

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        self.active = True
        return self.open(OP)

    def end_op(self, sid: int) -> None:
        self.close(sid)
        self.active = False

    # -- spans recorded in a child process -------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "present": sorted(self.present), "missing": self.missing}, fh)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span under the open one, or at top level."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self._op])

    def merge_child(self, path: str, parent_sid: int, spawned: float, ended: float) -> None:
        """Adopt a child's spans under ``parent_sid``; perf_counter is
        CLOCK_MONOTONIC on Linux, so child and parent times share a base.

        The child was started at ``spawned`` and reaped at ``ended``; the
        time before its first span and after its last is interpreter start
        and exit, recorded as IMPORT spans.
        """
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        op = self.spans[parent_sid][4]
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent_sid if parent < 0 else base + parent, op])
        if data["spans"]:
            first = min(span[1] for span in data["spans"])
            last = max(span[2] for span in data["spans"])
            self.spans.append([IMPORT, spawned, first, parent_sid, op])
            self.spans.append([IMPORT, last, ended, parent_sid, op])
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.present.update(data["present"])
        self.missing = sorted(set(self.missing) | set(data["missing"]))


# -- aggregation ----------------------------------------------------------


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time (outermost spans of the name
    only, so recursion is not counted twice) and self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["incl_s"] += end - start
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """The per-layer metrics of BENCHMARK.json that the spans define."""
    agg = summarize(tracer.spans)
    c = tracer.counts

    def get(group, field):
        if group not in tracer.present:
            return None
        return float(agg.get(group, {}).get(field, 0))

    def counter(key, group):
        return float(c[key]) if group in tracer.present else None

    requested = c["gibbs.rows_requested"]
    reuse = None
    if ESTIMATOR in tracer.present and STIRLING in tracer.present:
        reuse = 1.0 - c["gibbs.stirling_rows"] / max(requested, 1)
    return {
        "specfun.stirling_rows": counter("specfun.stirling_rows", STIRLING),
        "specfun.stirling_s": get(STIRLING, "incl_s"),
        "specfun.log_rising_calls": get(LOG_RISING, "calls"),
        "specfun.log_rising_s": get(LOG_RISING, "incl_s"),
        "gibbs.rows_requested": counter("gibbs.rows_requested", ESTIMATOR),
        "gibbs.row_reuse": reuse,
        "gibbs.estimator_calls": get(ESTIMATOR, "calls"),
        "gibbs.estimator_self_s": get(ESTIMATOR, "self_s"),
        "gibbs.moment_calls": get(MOMENT, "calls"),
        "gibbs.moment_self_s": get(MOMENT, "self_s"),
        "gibbs.log_weight_row_s": get(WEIGHT_ROW, "incl_s"),
        "gibbs.logsumexp_calls": get(LOGSUMEXP, "calls"),
        "gibbs.logsumexp_s": get(LOGSUMEXP, "incl_s"),
        "gibbs.tabular_build_s": get(TABULAR, "incl_s"),
        "signedlog.scalar_weight_calls": counter("signedlog.scalar_weight_calls", SIGNEDLOG),
        "signedlog.s": get(SIGNEDLOG, "self_s"),
        "pitman_yor.closed_s": get(PY_CLOSED, "incl_s"),
        "empirical.population_s": get(POPULATION, "incl_s"),
        "empirical.smoothing_s": get(SMOOTHING, "incl_s"),
        "empirical.from_sample_s": get(FROM_SAMPLE, "incl_s"),
        "sampler.rng_streams": get(RNG, "calls"),
        "sampler.rng_setup_s": get(RNG, "incl_s"),
        "sampler.urn_steps": counter("sampler.urn_steps", MONTE_CARLO),
        "sampler.urn_s": get(URN, "incl_s"),
        "sampler.draw_s": get(DRAW, "incl_s"),
        "sampler.aggregate_s": get(MONTE_CARLO, "self_s"),
        "oracle.partitions": counter("oracle.partitions", ORACLE),
        "oracle.s": get(ORACLE, "incl_s"),
        "verify.checks": counter("verify.checks", VERIFY),
        "verify.self_s": get(VERIFY, "self_s"),
        "cli.parse_s": get(PARSE, "incl_s"),
        "cli.render_s": get(RENDER, "incl_s"),
        "cli.main_self_s": get(MAIN, "self_s"),
    }


def accounting(tracer: Tracer) -> dict[str, float]:
    """Op time split into wrapped-layer self time and the rest."""
    agg = summarize(tracer.spans)
    op = agg.get(OP, {"incl_s": 0.0, "self_s": 0.0})
    layers = sum(v["self_s"] for k, v in agg.items() if k != OP)
    return {"op_s": op["incl_s"], "layer_self_s": layers, "unattributed_s": op["self_s"]}
