"""A traced benchmark run ends in a strict-JSON result line.

``bench/run.py`` prints its result as the last line of stdout, and whoever
reads it takes that line as the result.  A null, NaN or infinite metric, or
any output printed after the result, leaves no readable result.  This runs
one short traced ``fitted`` run; it reads ``bench/`` and changes nothing in
it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_traced_fitted_run_ends_in_a_strict_json_result():
    cmd = [sys.executable, "bench/run.py", "--workload", "fitted", "--seed", "1", "--seconds", "0.5", "--trace", "1"]
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
