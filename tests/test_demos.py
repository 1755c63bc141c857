"""Every script under demos/ runs to a clean exit."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{path.name} exited with {exc.code}"
    assert capsys.readouterr().out
