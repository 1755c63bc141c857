"""The report corpus: fixed command lines, their stdout bytes and exit status.

Each case runs ``goodturing.cli.main(argv)`` in process.  ``cases.json``
maps a case name to its argv and exit status, and ``<name>.out`` holds its
stdout, byte for byte; ``tests/test_golden.py`` reruns every case and
compares.  ``{golden}`` in an argv stands for this directory.

    PYTHONPATH=src python tests/golden/regen.py

rewrites every ``.out`` file and the exit statuses from the current code.
A change that moves any byte says which cases moved, and why;

    PYTHONPATH=src python tests/golden/regen.py --check

writes nothing, prints the name of each case whose argv, stdout bytes or
exit status would move, one a line, and exits 1 if any would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
CASES = GOLDEN / "cases.json"

#: name -> argv, in the order the corpus lists them
ARGV = {
    "bnp_closed": ["bnp", "--alpha", "0.5", "--theta", "0.5", "--l", "1", "--n", "2"],
    "bnp_closed_large_n": ["bnp", "--alpha", "0.3", "--theta", "2.7", "--l", "4", "--n", "1000000"],
    "bnp_closed_impossible_count": ["bnp", "--alpha", "-0.5", "--s", "1", "--l", "1", "--n", "5"],
    "bnp_human": ["bnp", "--alpha", "0.5", "--theta", "0.3", "--l", "1", "--n", "7", "--human"],
    "bnp_johnson": ["bnp", "--alpha", "-1", "--s", "3", "--l", "2", "--n", "5"],
    "bnp_exponent_form": ["bnp", "--alpha=-1e-1", "--s", "3", "--l", "1", "--n", "2"],
    "bnp_stirling": ["bnp", "--alpha", "0.25", "--theta", "1", "--l", "2", "--n", "9", "--method", "stirling"],
    "bnp_stirling_negative_theta": [
        "bnp", "--alpha", "0.9", "--theta=-0.4", "--l", "3", "--n", "200", "--method", "stirling",
    ],
    "bnp_stirling_negative_alpha": [
        "bnp", "--alpha=-0.5", "--s", "20", "--l", "2", "--n", "50", "--method", "stirling",
    ],
    "bnp_stirling_impossible_count": [
        "bnp", "--alpha", "-0.5", "--s", "1", "--l", "1", "--n", "5", "--method", "stirling",
    ],
    "bnp_stirling_above_ceiling": [
        "bnp", "--alpha", "0.5", "--theta", "1", "--l", "1", "--n", "20002", "--method", "stirling",
    ],
    "bnp_check": ["bnp", "--alpha", "0.5", "--theta", "10", "--l", "3", "--n", "40", "--check"],
    "bnp_check_negative_alpha": ["bnp", "--alpha=-0.5", "--s", "20", "--l", "2", "--n", "50", "--check"],
    "bnp_check_human": ["bnp", "--alpha", "0.75", "--theta", "2", "--l", "5", "--n", "300", "--check", "--human"],
    "bnp_l_above_n": ["bnp", "--alpha", "0.5", "--theta", "1", "--l", "5", "--n", "4"],
    "bnp_nan_alpha": ["bnp", "--alpha=nan", "--theta", "1", "--l", "1", "--n", "10"],
    "bnp_inconsistent_theta": ["bnp", "--alpha", "-1", "--theta", "5", "--s", "3", "--l", "1", "--n", "2"],
    "bnp_overflowing_species_bound": ["bnp", "--alpha=-1e308", "--s", "2", "--l", "1", "--n", "3"],
    "bnp_exponent_without_equals": ["bnp", "--alpha", "-1e-1", "--s", "3", "--l", "1", "--n", "2"],
    "simulate_pitman_yor": [
        "simulate", "--alpha", "0.5", "--theta", "0.5", "--n", "5", "--reps", "300", "--seed", "7", "--l", "3",
    ],
    "simulate_negative_theta": [
        "simulate", "--alpha", "0.75", "--theta=-0.5", "--n", "40", "--reps", "1000", "--seed", "2", "--l", "5",
    ],
    "simulate_dirichlet": [
        "simulate", "--alpha=-0.5", "--s", "4", "--n", "12", "--reps", "2000", "--seed", "11", "--l", "4",
    ],
    "simulate_check_human": [
        "simulate", "--alpha", "0.25", "--theta", "2", "--n", "30", "--reps", "2000", "--seed", "5",
        "--check", "--human",
    ],
    "simulate_population": ["simulate", "--pop", "0.5,0.3,0.2", "--n", "4", "--reps", "200", "--seed", "3"],
    "simulate_bad_population": ["simulate", "--pop", "0.5,zebra", "--n", "4", "--reps", "200", "--seed", "3"],
    "simulate_pitman_yor_passes": [
        "simulate", "--alpha", "0.5", "--theta", "1", "--n", "1000", "--reps", "1000", "--seed", "4", "--l", "5",
    ],
    "simulate_negative_alpha_passes": [
        "simulate", "--alpha=-0.5", "--s", "50", "--n", "300", "--reps", "1200", "--seed", "6", "--l", "5",
    ],
    "simulate_population_alias": [
        "simulate", "--pop", ",".join(["0.03"] * 20 + ["0.02"] * 20), "--n", "60", "--reps", "3000", "--seed", "8",
    ],
    "simulate_population_wide": [
        "simulate", "--pop", ",".join(["0.006"] * 50 + ["0.014"] * 50), "--n", "40", "--reps", "3000", "--seed", "9",
    ],
    "simulate_false_alarm": [
        "simulate", "--alpha=0.449907895057036", "--theta=-1.192092896e-07", "--l=39", "--n=120", "--reps=176",
        "--seed=1444", "--check",
    ],
    "simulate_population_check": [
        "simulate", "--pop", "0.4,0.3,0.2,0.1", "--n", "10", "--reps", "1000", "--seed", "12", "--check",
    ],
    "gt_counts": ["gt", "--counts", "{golden}/counts.csv", "--l", "1"],
    "gt_sample": ["gt", "--sample", "{golden}/sample.txt", "--l", "1"],
    "gt_ratio_undefined": ["gt", "--counts", "{golden}/counts.csv", "--l", "3", "--mode", "ratio"],
    "smooth": ["smooth", "--alpha", "0.6", "--counts", "{golden}/counts.csv", "--l", "3"],
    "smooth_human": ["smooth", "--alpha", "0.25", "--counts", "{golden}/counts.csv", "--l", "0", "--human"],
    "verify_fast": ["verify", "--level", "fast"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of one in-process run; stderr is discarded."""
    from goodturing.cli import main

    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the report corpus from the current code.")
    parser.add_argument("--check", action="store_true", help="write nothing; list the cases that would move")
    check = parser.parse_args(args).check
    cases, outputs = {}, {}
    for name, argv in ARGV.items():
        code, stdout = run_case(argv)
        cases[name] = {"argv": argv, "exit": code}
        outputs[name] = stdout.encode("utf-8")
    if check:
        moved = _moved(cases, outputs)
        for name in moved:
            print(name)
        print(f"{len(moved)} of {len(cases)} cases moved", file=sys.stderr)
        return 1 if moved else 0
    for name, stdout in outputs.items():
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    CASES.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
    return 0


def _moved(cases: dict, outputs: dict[str, bytes]) -> list[str]:
    """Names, sorted, of the cases that are new, gone, or differ from the
    stored corpus in argv, exit status or stdout bytes."""
    stored = json.loads(CASES.read_text(encoding="utf-8")) if CASES.exists() else {}

    def stored_bytes(name):
        path = GOLDEN / f"{name}.out"
        return path.read_bytes() if path.exists() else None

    names = sorted(stored.keys() | cases.keys())
    return [n for n in names if stored.get(n) != cases.get(n) or stored_bytes(n) != outputs.get(n)]


if __name__ == "__main__":
    sys.exit(main())
