"""A traced benchmark run ends in a strict-JSON result line.

``bench/run.py`` prints its result as the last line of stdout, and whoever
reads it takes that line as the result.  A null, NaN or infinite metric, or
any output printed after the result, leaves no readable result.  This runs
one short traced ``fitted`` run and one ``montecarlo`` run; it reads
``bench/`` and changes nothing in it.
"""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _traced_result(workload):
    """The result of a short traced run of ``workload`` and its other stdout
    lines by key, after checking that it exits 0, is correct, and ends in a
    strict-JSON line of finite metrics."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    bad = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if isinstance(metric["value"], bool)
        or not isinstance(metric["value"], (int, float))
        or not math.isfinite(metric["value"])
    }
    assert result["metrics"] and not bad, bad
    lines = dict(line.split("\t", 2)[:2] for line in proc.stdout.splitlines()[1:-1] if "\t" in line)
    return result, lines


def test_traced_fitted_run_ends_in_a_strict_json_result():
    _traced_result("fitted")


def test_traced_montecarlo_run_binds_every_sampler_metric():
    # a sampler name the tracer wraps (the urns, the draw, the stream's
    # default_rng) that is renamed or moved is listed as missing, and a
    # metric whose names are all missing reads null, which _traced_result
    # rejects
    result, lines = _traced_result("montecarlo")
    missing = ast.literal_eval(lines["missing_names"])
    assert not [name for name in missing if name.startswith("goodturing.sampler.")], missing
    assert lines["accounting"] == "ok", lines
    assert {name for name in result["metrics"] if name.startswith("sampler.")} >= {
        "sampler.rng_streams",
        "sampler.rng_setup_s",
        "sampler.urn_steps",
        "sampler.urn_s",
        "sampler.draw_s",
        "sampler.aggregate_s",
    }
