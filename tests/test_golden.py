"""The report corpus: every case in tests/golden/ reproduces its stdout
bytes and exit status exactly.  ``tests/golden/regen.py`` rewrites it."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = json.loads(regen.CASES.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert {name: case["argv"] for name, case in CASES.items()} == regen.ARGV


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    code, stdout = regen.run_case(CASES[name]["argv"])
    assert code == CASES[name]["exit"]
    assert stdout.encode() == (regen.GOLDEN / f"{name}.out").read_bytes()
