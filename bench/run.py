"""goodturing benchmark: one closed-loop client, four workloads.

    python3 bench/run.py --workload {fitted,sweep,montecarlo,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off: a run plays whole rounds of ops until S seconds of op time have passed,
and set-up is timed in fresh child processes spread over the run.
``--trace 1`` plays rounds for S/2 seconds, each untraced and traced, and
reports the per-layer metrics plus the tracing overhead.  Every op's result
is checked (workloads.py).
Human-readable rows come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracing import Tracer, accounting, layer_metrics
from workloads import BY_NAME, Context, tabular_overflow_frac

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: fresh child processes timed for setup_s, spread evenly over the run; the median is reported
SETUP_REPEATS = 7
#: interpreter and import-time probes in the traced run; medians reported
IMPORT_PROBES = 3
#: calibration() on the 2-core Xeon host the bounds were set on, in ms
REFERENCE_MS = 7.0
#: op time between two calibrations
CALIBRATE_EVERY_S = 0.5
#: largest share of traced op time that wrapped layers may leave unattributed
UNATTRIBUTED_LIMIT = 0.05


@dataclass
class Stats:
    """Per-op records of one or more measured stretches of rounds."""

    durations: list[float] = field(default_factory=list)  # seconds, as measured
    factors: list[float] = field(default_factory=list)  # host speed around each op, 1 = reference
    ok: list[bool] = field(default_factory=list)
    replicates: list[int] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    rounds: int = 0
    child_maxrss_kb: int = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def latencies(self, scaled: bool) -> list[float]:
        """Op latencies in seconds, at reference host speed if ``scaled``;
        a failed op counts as infinitely slow."""
        return [(d / f if scaled else d) if good else math.inf
                for d, f, good in zip(self.durations, self.factors, self.ok)]

    def op_time(self, scaled: bool = False, replicates_only: bool = False) -> float:
        return math.fsum(d / f if scaled else d for d, f, n in zip(self.durations, self.factors, self.replicates)
                         if n or not replicates_only)

    def ops_per_s(self, scaled: bool) -> float:
        return sum(self.ok) / self.op_time(scaled)

    def replicates_per_s(self) -> float:
        time_in_sampling = self.op_time(True, replicates_only=True)
        return sum(self.replicates) / time_in_sampling if time_in_sampling else 0.0


def measure(workload, rounds, seconds: float | None = None, tracer: Tracer | None = None,
            stats: Stats | None = None, between: Callable[[float], None] | None = None) -> Stats:
    """Closed loop: each op starts when the previous one and its check end.

    Plays ``rounds`` until the round in which ``stats`` reaches ``seconds``
    of op time, rounded up to a whole ``workload.cycle`` of rounds.  ``between(op_time)`` runs before each op, outside its
    timing.  Every CALIBRATE_EVERY_S of ops, and at both ends, the host's
    speed is sampled; each op gets the mean of the samples around it.
    Results are added to ``stats`` when given.
    """
    stats = stats or Stats()
    previous, last, pending = calibration(), time.perf_counter(), 0
    op_time = stats.op_time()

    def calibrate():
        nonlocal previous, last, pending
        now = calibration()
        stats.factors.extend([(previous + now) / 2 / REFERENCE_MS] * pending)
        previous, last, pending = now, time.perf_counter(), 0

    for r in rounds:
        for op in workload.round(r):
            if between:
                between(op_time)
            sid = tracer.begin_op(stats.attempted) if tracer else -1
            t0 = time.perf_counter()
            try:
                out, reason = op.run(), None
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                out, reason = None, f"raised {exc!r}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op(sid)
            if reason is None:
                try:
                    reason = op.check(out, op.want)
                except Exception as exc:
                    reason = f"check raised {exc!r}"
            stats.durations.append(dt)
            op_time += dt
            stats.ok.append(reason is None)
            stats.replicates.append(op.replicates)
            if reason is not None:
                stats.failures.append((op.kind, reason))
            stats.child_maxrss_kb = max(stats.child_maxrss_kb, getattr(out, "maxrss_kb", 0))
            pending += 1
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                calibrate()
        stats.rounds += 1
        if seconds is not None and op_time >= seconds and stats.rounds % workload.cycle == 0:
            break
    calibrate()
    return stats


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def wall_time(cmd: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt, proc.stderr


def _outermost_ms(lines: list[tuple[int, int, str]], package: str) -> float:
    """Cumulative import time of ``package`` where neither it nor numpy or
    scipy imported it: numpy modules pulled in by scipy count as scipy.

    ``-X importtime`` prints an import after its nested imports, indented
    two spaces per level; walking backwards meets parents first.
    """
    def named(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    owners = {package, "numpy", "scipy"}
    total, stack = 0, []
    for level, cumulative, name in reversed(lines):
        while stack and stack[-1][0] >= level:
            stack.pop()
        if named(name, package) and not any(named(n, p) for _, n in stack for p in owners):
            total += cumulative
        stack.append((level, name))
    return total / 1000.0


def import_probe(env: dict) -> dict[str, float]:
    interp = [wall_time([sys.executable, "-c", "pass"], env)[0] * 1000.0 for _ in range(IMPORT_PROBES)]
    per_package: dict[str, list[float]] = {"numpy": [], "scipy": [], "goodturing": []}
    for _ in range(IMPORT_PROBES):
        _, err = wall_time([sys.executable, "-X", "importtime", "-c", "import goodturing"], env)
        lines = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                lines.append(((len(name) - len(name.lstrip()) - 1) // 2, int(cumulative), name.strip()))
        for package, values in per_package.items():
            values.append(_outermost_ms(lines, package))
    out = {"import.interpreter_ms": statistics.median(interp)}
    out.update({f"import.{p}_ms": statistics.median(v) for p, v in per_package.items()})
    return out


def calibration() -> float:
    """Time of a fixed pure-Python loop, in ms: how fast the host runs now.

    The host is shared, and its speed drifts by a fifth or more between runs
    a minute apart; the loop follows that drift where the work is bound by
    the processor rather than by memory (README, Host speed).
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return (time.perf_counter() - t0) * 1000.0


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def setup_time(args, env) -> tuple[float, float]:
    """Wall time of one fresh set-up process, and the same at reference
    speed: the child times calibration() itself once set up, so the speed
    is that of the process measured."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-500:]}")
    return seconds, seconds * REFERENCE_MS / float(proc.stdout.split()[-1])


def untraced(workload, args, env) -> tuple[dict, dict, Stats]:
    """End-to-end metrics, extra report rows, and the op records."""
    setup: list[tuple[float, float]] = []

    def setup_when_due(op_time: float) -> None:
        if len(setup) < SETUP_REPEATS and op_time >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(setup_time(args, env))

    stats = measure(workload, itertools.count(), args.seconds, between=setup_when_due)
    while len(setup) < SETUP_REPEATS:  # came due during the last op
        setup.append(setup_time(args, env))
    rss_kb = stats.child_maxrss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def metrics(scaled: bool) -> dict:
        latencies = stats.latencies(scaled and workload.host_scaled)

        def quantile_ms(q):  # JSON has no inf: a tail of failed ops reads null
            value = nearest_rank(latencies, q)
            return value * 1000.0 if math.isfinite(value) else None

        return {
            "setup_s": statistics.median(pair[scaled] for pair in setup),
            "ops_per_s": stats.ops_per_s(scaled and workload.host_scaled),
            "op_p50_ms": quantile_ms(0.5),
            "op_p90_ms": quantile_ms(0.9),
        }

    extra = {f"raw_{k}": v for k, v in metrics(scaled=False).items()} | {
        "host_factor": stats.op_time(False) / stats.op_time(True),
        "host_scaled_ops": workload.host_scaled,
        "replicates_per_s": stats.replicates_per_s(),
        "rounds": stats.rounds,
    }
    return metrics(scaled=True) | {"peak_rss_mb": rss_kb / 1024.0}, extra, stats


def traced(workload, args, env, ctx, G) -> tuple[dict, dict, Stats]:
    """Per-layer metrics, extra report rows, and the op records."""
    probe = import_probe(env)
    overflow = tabular_overflow_frac(G, args.seed)
    plain, with_spans, tracer = Stats(), Stats(), Tracer()
    for r in itertools.count():  # each round untraced and traced, in ABBA order
        for traced_now in ((False, True) if r % 2 == 0 else (True, False)):
            if not traced_now:
                measure(workload, [r], stats=plain)
                continue
            tracer.install()
            ctx.tracer = tracer
            try:
                measure(workload, [r], tracer=tracer, stats=with_spans)
            finally:
                ctx.tracer = None
                tracer.uninstall()
        if plain.op_time() >= args.seconds / 2:
            break
    metrics = layer_metrics(tracer)
    metrics["gibbs.tabular_overflow_frac"] = overflow
    metrics["replicates_per_s"] = plain.replicates_per_s()
    metrics.update(probe)
    scaled = workload.host_scaled
    metrics["trace.overhead_frac"] = with_spans.op_time(scaled) / plain.op_time(scaled) - 1.0
    split = accounting(tracer)
    share = split["unattributed_s"] / split["op_s"]
    extra = {
        "rounds": plain.rounds,
        "untraced_op_s": plain.op_time(),
        "spans": len(tracer.spans),
        "missing_names": tracer.missing,
    } | {f"traced_{k}": v for k, v in split.items()} | {
        "unattributed_frac": share,
        "accounting": "ok" if share <= UNATTRIBUTED_LIMIT else f"over {UNATTRIBUTED_LIMIT}",
    }
    both = Stats(durations=plain.durations + with_spans.durations, failures=plain.failures + with_spans.failures)
    return metrics, extra, both


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error: subprocess.run kills and reaps its child
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "goodturing" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no goodturing sources under {SRC} (run from a checkout)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import goodturing as G

    env = child_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(root=ROOT, work=work, env=env)
    try:
        workload = BY_NAME[args.workload](args.seed, G, ctx)
        if args.setup_only:  # the parent scales this process's wall time by its speed
            print(statistics.median(calibration() for _ in range(5)))
            return 0
        host = machine()
        if args.trace:
            metrics, extra, stats = traced(workload, args, env, ctx, G)
            wanted = spec["per_layer"]
        else:
            metrics, extra, stats = untraced(workload, args, env)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"machine": host, "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    for kind, reason in stats.failures[:10]:
        print(f"failed\t{kind}\t{reason}")
    print(f"attempted\t{stats.attempted}\tcount")
    print(f"failed_frac\t{len(stats.failures) / stats.attempted:.6g}\tratio")
    for key, value in extra.items():
        print(f"{key}\t{value}")
    for entry in wanted:
        print(f"{entry['name']}\t{metrics[entry['name']]}\t{entry['unit']}")
    result = {
        "correct": not stats.failures,
        "attempted": stats.attempted,
        "failed": len(stats.failures),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
