"""What importing the package and running each subcommand loads.

Each check runs in a fresh interpreter, so modules the test session has
already imported cannot hide an import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goodturing
from goodturing import cli

SRC = str(Path(goodturing.__file__).resolve().parent.parent)

PROBE = """
import json, sys
{setup}
print(json.dumps({{"numpy": "numpy" in sys.modules, "scipy": "scipy" in sys.modules}}))
"""

CLI_RUN = """
import contextlib, io
from goodturing import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
assert code == 0, code
"""


def loaded_after(setup: str) -> dict[str, bool]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(setup=setup)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def counts_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("counts") / "counts.csv"
    path.write_text("1,3\n2,2\n")
    return str(path)


def test_import_package_loads_neither_numpy_nor_scipy():
    assert loaded_after("import goodturing") == {"numpy": False, "scipy": False}


@pytest.mark.parametrize("argv", [
    ["gt", "--l", "1"],
    ["gt", "--l", "1", "--mode", "ratio"],
    ["smooth", "--alpha", "0.5", "--l", "2"],
])
def test_count_commands_leave_numpy_out(argv, counts_file):
    setup = CLI_RUN.format(argv=argv + ["--counts", counts_file])
    assert loaded_after(setup) == {"numpy": False, "scipy": False}


@pytest.mark.parametrize("argv", [
    ["bnp", "--alpha", "0.5", "--theta", "1", "--l", "1", "--n", "10"],
    ["bnp", "--alpha=-0.5", "--s", "4", "--l", "1", "--n", "10", "--method", "closed", "--human"],
])
def test_closed_form_bnp_leaves_numpy_out(argv):
    assert loaded_after(CLI_RUN.format(argv=argv)) == {"numpy": False, "scipy": False}


def test_johnson_and_jeffreys_load_no_numpy():
    setup = "from goodturing import jeffreys_estimate, johnson_estimate; johnson_estimate(0.5, 3, 1, 2)"
    assert loaded_after(setup) == {"numpy": False, "scipy": False}


@pytest.mark.parametrize("argv", [
    ["bnp", "--alpha", "0.5", "--theta", "1", "--l", "1", "--n", "10", "--check"],
    ["simulate", "--alpha", "0.5", "--theta", "1", "--n", "5", "--reps", "200", "--seed", "1"],
    ["simulate", "--pop", "0.5,0.5", "--n", "5", "--reps", "200", "--seed", "1"],
    ["verify", "--level", "fast"],
])
def test_no_command_loads_scipy(argv):
    assert loaded_after(CLI_RUN.format(argv=argv))["scipy"] is False


def test_every_public_name_resolves_to_its_module():
    for name in goodturing.__all__:
        module = importlib.import_module(f"goodturing.{goodturing._SOURCES[name]}")
        assert getattr(goodturing, name) is getattr(module, name), name
    assert set(goodturing.__all__) <= set(dir(goodturing))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from goodturing import *", namespace)
    assert set(goodturing.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        goodturing.no_such_name
    with pytest.raises(ImportError):
        exec("from goodturing import no_such_name", {})


def test_cli_level_choices_match_verify():
    from goodturing import verify

    assert cli.LEVELS == verify.LEVELS


def test_empirical_reexports_the_count_estimators():
    from goodturing import counts, empirical

    for name in counts.__all__:
        assert getattr(empirical, name) is getattr(counts, name), name
