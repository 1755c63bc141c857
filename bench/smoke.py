"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

1. Runs every workload for one second, untraced and traced, and checks that
   the last line of stdout is a result with every metric of BENCHMARK.json,
   each with its unit, and no failed op; and that the traced run leaves at
   most run.UNATTRIBUTED_LIMIT of op time outside the wrapped layers.
2. Runs the ops of each workload's first round, and every Monte Carlo op
   of the fixed pool (workloads.MC_POOL rounds), in this process and checks
   that every result check passes against its reference and fails against a
   deliberately wrong one, or, where the check derives its reference from
   the result, on a deliberately wrong result.

Exits 0 when all of that holds.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import MC_POOL, WORKLOADS, CliResult, Context


def wrong(want):
    if isinstance(want, dict):
        return {k: wrong(v) for k, v in want.items()}
    return want * 1.5 + 1.0


def wrong_result(out):
    """A result that the checks without a fixed reference must reject."""
    if isinstance(out, CliResult):  # verify: a report of one failure
        return CliResult(out.code, out.stdout.replace("failures\t0", "failures\t1"), out.stderr, out.maxrss_kb)
    model, value = out  # tabular: (model, estimate)
    return model, wrong(value)


def check_output(name: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, run.__file__, "--workload", name, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name} trace={trace}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{name} trace={trace}: correct={result.get('correct')} failed={result.get('failed')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{name} trace={trace}: {m['name']} = {got}")
    rows = dict(line.split("\t", 1) for line in proc.stdout.splitlines() if "\t" in line)
    if trace and rows.get("accounting") != "ok":
        errors.append(f"{name} trace=1: unattributed share {rows.get('unattributed_frac')} "
                      f"> {run.UNATTRIBUTED_LIMIT}")
    return errors


def check_checks(G) -> list[str]:
    errors = []
    work = run.ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    ctx = Context(root=run.ROOT, work=work, env=run.child_env())
    try:
        for cls in WORKLOADS:
            workload = cls(1, G, ctx)
            ops = [op for r in range(MC_POOL) for op in workload.round(r) if r == 0 or op.replicates]
            for op in ops:
                out = op.run()
                if reason := op.check(out, op.want):
                    errors.append(f"{cls.name}/{op.kind}: check fails on the real reference: {reason}")
                if op.want is not None and op.check(out, wrong(op.want)) is None:
                    errors.append(f"{cls.name}/{op.kind}: check passes a wrong reference")
                if op.want is None and op.check(wrong_result(out), None) is None:
                    errors.append(f"{cls.name}/{op.kind}: check passes a wrong result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for cls in WORKLOADS:
        for trace in (0, 1):
            errors += check_output(cls.name, trace, spec)
    sys.path.insert(0, str(run.SRC))
    import goodturing as G

    errors += check_checks(G)
    for e in errors:
        print(e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
