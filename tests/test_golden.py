"""The report corpus: every case in tests/golden/ reproduces its stdout
bytes and exit status exactly.  ``tests/golden/regen.py`` rewrites it, and
``regen.py --check`` lists the cases that would move."""

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


def test_check_lists_moved_cases_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # a corpus of three cases in a scratch directory: the check passes on
    # it as written, then names the case whose stdout bytes moved and the
    # case whose exit status moved, and leaves every file as it was
    names = ["bnp_closed", "bnp_l_above_n", "simulate_population"]
    for name in names:
        (tmp_path / f"{name}.out").write_bytes((regen.GOLDEN / f"{name}.out").read_bytes())
    corpus = {name: CASES[name] for name in names}
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    monkeypatch.setattr(regen, "CASES", tmp_path / "cases.json")
    monkeypatch.setattr(regen, "ARGV", {name: CASES[name]["argv"] for name in names})
    regen.CASES.write_text(json.dumps(corpus), encoding="utf-8")
    assert regen.main(["--check"]) == 0
    assert capsys.readouterr().out == ""

    with (tmp_path / "simulate_population.out").open("ab") as out:
        out.write(b"\n")
    corpus["bnp_l_above_n"] = {**corpus["bnp_l_above_n"], "exit": 0}
    regen.CASES.write_text(json.dumps(corpus), encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == ["bnp_l_above_n", "simulate_population"]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
