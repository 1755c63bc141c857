import contextlib
import io
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodturing import cli, sampler
from goodturing.cli import main
from goodturing.empirical import smoothed_count, smoothed_discovery
from goodturing.pitman_yor import PitmanYor
from goodturing.sampler import MomentTable
from goodturing.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def report_dict(out):
    rows = [line.split("\t") for line in out.splitlines()]
    return {r[0]: (r[1] if len(r) == 2 else r[1:]) for r in rows}


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("# frequency-of-frequencies\n1,3\n\n2,2  # doubletons\n")
    return str(path)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("a\nb\na\n\nc\n")
    return str(path)


class TestGt:
    def test_approx(self, capsys, counts_file):
        code, out, _ = run_cli(capsys, "gt", "--counts", counts_file, "--l", "1")
        assert code == 0
        rep = report_dict(out)
        assert rep["estimator"] == "good-turing-approx"
        assert rep["n"] == "7" and rep["k"] == "5"
        assert rep["c_2"] == "2"
        assert float(rep["estimate"]) == 4 / 7

    def test_missing_mass(self, capsys, counts_file):
        code, out, _ = run_cli(capsys, "gt", "--counts", counts_file, "--l", "0")
        assert code == 0
        assert float(report_dict(out)["estimate"]) == 3 / 7

    def test_ratio(self, capsys, counts_file):
        code, out, _ = run_cli(
            capsys, "gt", "--counts", counts_file, "--l", "1", "--mode", "ratio"
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["c_1"] == "3" and rep["c_2"] == "2"
        assert float(rep["estimate"]) == 2 * 2 / (7 * 3)

    def test_ratio_undefined_exits_3(self, capsys, counts_file):
        code, out, err = run_cli(
            capsys, "gt", "--counts", counts_file, "--l", "3", "--mode", "ratio"
        )
        assert code == 3
        assert "c_3 = 0" in err

    def test_sample_input(self, capsys, sample_file):
        code, out, _ = run_cli(capsys, "gt", "--sample", sample_file, "--l", "0")
        assert code == 0
        rep = report_dict(out)
        assert rep["n"] == "4" and rep["k"] == "3"
        assert float(rep["estimate"]) == 0.5  # c_1 = 2 of n = 4

    def test_negative_l_rejected(self, capsys, counts_file):
        code, _, err = run_cli(capsys, "gt", "--counts", counts_file, "--l", "-1")
        assert code == 2 and "error:" in err

    def test_requires_exactly_one_source(self, capsys, counts_file, sample_file):
        code, _, err = run_cli(capsys, "gt", "--l", "1")
        assert code == 2 and "exactly one" in err
        code, _, err = run_cli(
            capsys, "gt", "--counts", counts_file, "--sample", sample_file, "--l", "1"
        )
        assert code == 2 and "exactly one" in err


class TestCountsParsing:
    def run_with(self, capsys, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return run_cli(capsys, "gt", "--counts", str(path), "--l", "1")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gt", "--counts", str(tmp_path / "nope.csv"), "--l", "1"
        )
        assert code == 2 and "cannot read" in err

    def test_wrong_field_count(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, "1,2\nbogus\n")
        assert code == 2
        assert ":2:" in err and "expected 'l,c_l'" in err

    def test_non_integer(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, "1,2\n2,x\n")
        assert code == 2 and ":2:" in err and "integers" in err

    def test_non_positive(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, "0,5\n")
        assert code == 2 and "positive" in err

    def test_duplicate_l(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, "1,2\n# x\n1,3\n")
        assert code == 2 and ":3:" in err and "duplicate" in err

    def test_comment_only_file(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, "# nothing here\n\n")
        assert code == 2 and "no counts found" in err

    def test_empty_sample(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n  \n")
        code, _, err = run_cli(capsys, "gt", "--sample", str(path), "--l", "0")
        assert code == 2 and "no labels" in err


class TestBnp:
    def test_closed(self, capsys):
        code, out, _ = run_cli(
            capsys, "bnp", "--alpha", "0.5", "--theta", "0.5", "--l", "1", "--n", "2"
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["method"] == "closed"
        assert float(rep["estimate"]) == PitmanYor(0.5, 0.5).exact_good_turing_closed(1, 2)

    def test_stirling_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "bnp", "--alpha", "0.25", "--theta", "1", "--l", "2", "--n", "9",
            "--method", "stirling",
        )
        assert code == 0
        got = float(report_dict(out)["estimate"])
        assert got == pytest.approx(PitmanYor(0.25, 1.0).exact_good_turing_closed(2, 9), rel=1e-11)

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bnp", "--alpha", "0.5", "--theta", "10", "--l", "3", "--n", "40", "--check"
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["check"] == "pass"
        assert float(rep["difference"]) <= 1e-9
        assert "estimate_closed" in rep and "estimate_stirling" in rep

    def test_johnson_via_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "bnp", "--alpha", "-1", "--s", "3", "--l", "2", "--n", "5"
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["s"] == "3"
        assert rep["estimate"] == "0.375"

    def test_inconsistent_theta_s(self, capsys):
        code, _, err = run_cli(
            capsys, "bnp", "--alpha", "-1", "--theta", "5", "--s", "3", "--l", "1", "--n", "2"
        )
        assert code == 2 and "error:" in err

    def test_l_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "bnp", "--alpha", "0.5", "--theta", "1", "--l", "5", "--n", "4"
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "bnp", "--alpha", "0.5", "--theta", "1", "--l", "0", "--n", "4"
        )
        assert code == 2

    @pytest.mark.parametrize("alpha, theta", [("nan", "1"), ("inf", "1"), ("0.5", "nan"), ("0.5", "inf")])
    def test_non_finite_parameters_exit_2(self, capsys, alpha, theta):
        code, out, err = run_cli(
            capsys, "bnp", f"--alpha={alpha}", f"--theta={theta}", "--l", "1", "--n", "10"
        )
        assert code == 2 and "finite" in err and out == ""

    def test_negative_exponent_form_needs_equals_sign(self, capsys):
        # argparse takes "-1e-1" for an option; "--alpha=-1e-1" passes it as a value
        with pytest.raises(SystemExit) as exc:
            main(["bnp", "--alpha", "-1e-1", "--s", "3", "--l", "1", "--n", "2"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "bnp", "--alpha=-1e-1", "--s", "3", "--l", "1", "--n", "2")
        assert code == 0
        assert float(report_dict(out)["estimate"]) == pytest.approx(1.1 / 2.3, rel=1e-15)

    @pytest.mark.parametrize("command", ["bnp", "simulate"])
    def test_help_names_the_equals_form(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--alpha=-1e-1" in help_text and "--theta=-1e-1" in help_text

    @pytest.mark.parametrize("method", ["closed", "stirling"])
    def test_overflowing_species_bound_exits_2(self, capsys, method):
        # |alpha| s = inf: the closed form read theta inf and the Stirling route nan
        code, out, err = run_cli(
            capsys, "bnp", "--alpha=-1e308", "--s", "2", "--l", "1", "--n", "3", "--method", method
        )
        assert code == 2 and out == "" and "finite" in err

    def test_stirling_route_above_the_row_ceiling_exits_2(self, capsys, monkeypatch):
        from goodturing import specfun

        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(specfun, "_next_row", no_rows)
        n = str(specfun.MAX_ROW + 2)
        code, out, err = run_cli(
            capsys, "bnp", "--alpha", "0.5", "--theta", "1", "--l", "1", "--n", n, "--method", "stirling"
        )
        assert code == 2 and out == "" and "ceiling" in err
        code, out, _ = run_cli(capsys, "bnp", "--alpha", "0.5", "--theta", "1", "--l", "1", "--n", n)
        assert code == 0 and float(report_dict(out)["estimate"]) == 0.5 / (1 + specfun.MAX_ROW + 2)

    def test_alpha_required_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bnp", "--theta", "1", "--l", "1", "--n", "2"])
        assert exc.value.code == 2


class TestSmooth:
    def test_values(self, capsys, counts_file):
        code, out, _ = run_cli(
            capsys, "smooth", "--alpha", "0.5", "--counts", counts_file, "--l", "2"
        )
        assert code == 0
        rep = report_dict(out)
        assert float(rep["smoothed_count"]) == smoothed_count(0.5, 5, 2)
        assert float(rep["discovery"]) == smoothed_discovery(0.5, 5, 7, 2)

    def test_l_zero_has_no_count_row(self, capsys, counts_file):
        code, out, _ = run_cli(
            capsys, "smooth", "--alpha", "0.5", "--counts", counts_file, "--l", "0"
        )
        assert code == 0
        rep = report_dict(out)
        assert "smoothed_count" not in rep
        assert float(rep["discovery"]) == smoothed_discovery(0.5, 5, 7, 0)

    def test_sample_source(self, capsys, sample_file):
        code, out, _ = run_cli(
            capsys, "smooth", "--alpha", "0.25", "--sample", sample_file, "--l", "1"
        )
        assert code == 0
        assert float(report_dict(out)["smoothed_count"]) == smoothed_count(0.25, 3, 1)

    def test_alpha_out_of_range(self, capsys, counts_file):
        code, _, err = run_cli(
            capsys, "smooth", "--alpha", "1.5", "--counts", counts_file, "--l", "1"
        )
        assert code == 2 and "error:" in err


class TestSimulate:
    ARGS = (
        "simulate", "--alpha", "0.5", "--theta", "0.5",
        "--n", "5", "--reps", "300", "--seed", "7", "--l", "3",
    )

    def test_model_run(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        rep = report_dict(out)
        assert rep["source"] == "pitman-yor"
        assert rep["statistic"] == ["simulated", "se", "analytic", "z", "flag"]
        for label in ("K", "C_1", "C_2", "C_3"):
            assert rep[label][4] in ("ok", "off")
        analytic_k = float(rep["K"][2])
        assert analytic_k == pytest.approx(PitmanYor(0.5, 0.5).expected_species(5), rel=1e-12)

    def test_byte_identical_reruns(self, capsys):
        # the second run spans three blocks of URN_BLOCK // 5 replicates
        many_blocks = ("simulate", "--alpha", "0.5", "--theta", "0.5", "--n", "5", "--reps", "30000", "--seed", "7")
        for args in (self.ARGS, many_blocks):
            _, first, _ = run_cli(capsys, *args)
            _, second, _ = run_cli(capsys, *args)
            assert first == second and first

    def test_population_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pop", "0.5,0.3,0.2",
            "--n", "4", "--reps", "200", "--seed", "3",
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["source"] == "population"
        assert "C_4" in rep  # l defaults to min(n, 10)

    def test_pop_and_model_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--pop", "0.5,0.5", "--alpha", "0.5",
            "--n", "4", "--reps", "200", "--seed", "3",
        )
        assert code == 2 and "not both" in err

    def test_bad_pop_string(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--pop", "0.5,zebra",
            "--n", "4", "--reps", "200", "--seed", "3",
        )
        assert code == 2

    def test_l_above_n(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1",
            "--n", "4", "--reps", "200", "--seed", "3", "--l", "9",
        )
        assert code == 2

    def test_nan_population_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--pop", "nan,1", "--n", "5", "--reps", "100", "--seed", "1")
        assert code == 2
        assert out == "" and "finite" in err

    def test_n_past_the_int32_labels_exits_2(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew past the n check")

        monkeypatch.setattr(sampler, "_stream", refuse)
        monkeypatch.setattr(sampler, "_passes", refuse)
        code, out, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1",
            "--n", "3000000000", "--seed", "3",
        )
        assert code == 2 and out == "" and "int32" in err

    def test_too_few_reps(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1",
            "--n", "4", "--reps", "50", "--seed", "3",
        )
        assert code == 2

    def test_check_flags_bad_table(self, capsys, monkeypatch):
        def fake_table(source, n, reps, seed, l_max=None):
            return MomentTable(
                n=n, reps=reps, seed=seed, labels=("K", "C_1"),
                means=np.array([9.0, 9.0]), ses=np.array([0.01, 0.01]),
            )

        monkeypatch.setattr(cli, "monte_carlo_moments", fake_table)
        common = ("--pop", "0.5,0.5", "--n", "2", "--reps", "200", "--seed", "1", "--l", "1")
        code, out, _ = run_cli(capsys, "simulate", *common)
        assert code == 0  # flags are reported but not fatal without --check
        rep = report_dict(out)
        assert rep["K"][4] == "off" and rep["flagged"] == "2"
        code, _, _ = run_cli(capsys, "simulate", *common, "--check")
        assert code == 1


    def test_exact_sampler_without_spread_passes(self, capsys):
        # every replicate shows all three species (probability 0.24), so K has se 0
        # while its mean sits 1.4e-5 above E[K_50]
        code, out, _ = run_cli(
            capsys, "simulate", "--pop", "0.5,0.3,0.2", "--n", "50", "--reps", "100000", "--seed", "3", "--check"
        )
        assert code == 0
        k_row = report_dict(out)["K"]
        assert k_row[1] == "0" and float(k_row[3]) == pytest.approx(1.2, abs=0.01) and k_row[4] == "ok"

    def test_nan_z_is_flagged(self, capsys, monkeypatch):
        def fake_table(source, n, reps, seed, l_max=None):
            return MomentTable(
                n=n, reps=reps, seed=seed, labels=("K", "C_1"),
                means=np.array([math.nan, 1.0]), ses=np.array([0.1, 0.1]),
            )

        monkeypatch.setattr(cli, "monte_carlo_moments", fake_table)
        common = ("--pop", "0.5,0.5", "--n", "2", "--reps", "200", "--seed", "1", "--l", "1")
        code, out, _ = run_cli(capsys, "simulate", *common, "--check")
        assert code == 1 and report_dict(out)["K"][4] == "off"


class TestVerify:
    def test_all_pass(self, capsys, monkeypatch):
        fake = [CheckResult("a", True, "ok"), CheckResult("b", True, "ok")]
        monkeypatch.setattr(cli, "run_checks", lambda level: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        rep = report_dict(out)
        assert rep["checks"] == "2" and rep["failures"] == "0"
        assert out.count("PASS") == 2

    def test_failure_exits_1(self, capsys, monkeypatch):
        fake = [CheckResult("a", True, "ok"), CheckResult("b", False, "max err 1")]
        monkeypatch.setattr(cli, "run_checks", lambda level: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL\tb" in out

    def test_level_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--level", "extreme"])
        assert exc.value.code == 2


class TestFormatting:
    def test_human_rounds_to_six_digits(self, capsys):
        argv = ("bnp", "--alpha", "0.5", "--theta", "0.3", "--l", "1", "--n", "7")
        _, full, _ = run_cli(capsys, *argv)
        _, human, _ = run_cli(capsys, *argv, "--human")
        value = PitmanYor(0.5, 0.3).exact_good_turing_closed(1, 7)
        assert report_dict(full)["estimate"] == format(value, ".17g")
        assert report_dict(human)["estimate"] == format(value, ".6g")

    def test_full_precision_round_trips(self, capsys):
        _, out, _ = run_cli(
            capsys, "bnp", "--alpha", "0.3", "--theta", "2.7", "--l", "4", "--n", "11"
        )
        got = float(report_dict(out)["estimate"])
        assert got == PitmanYor(0.3, 2.7).exact_good_turing_closed(4, 11)


# -- fuzz: bnp and simulate flags, in process ------------------------------

EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -1e306, 5e-324, 0.0, 1.0, -1.0])
FLOATS = EXTREMES | st.floats()


def _flag(name, value):
    return [] if value is None else [f"--{name}={value!r}"]


@st.composite
def _model(draw, alpha_optional=False):
    kind = draw(st.sampled_from(["pitman-yor", "dirichlet", "any"]))
    if kind == "pitman-yor":
        return _flag("alpha", draw(EXTREMES | st.floats(0.0, 1.0))) + _flag("theta", draw(EXTREMES | st.floats(-1.0, 50.0)))
    if kind == "dirichlet":  # theta = |alpha| s
        return _flag("alpha", draw(EXTREMES | st.floats(-10.0, 0.0) | st.floats(max_value=0.0))) + _flag(
            "s", draw(st.integers(1, 50) | st.integers(-1, 10**6))
        )
    alpha = draw(st.none() | FLOATS if alpha_optional else FLOATS)
    return _flag("alpha", alpha) + _flag("theta", draw(st.none() | FLOATS)) + _flag("s", draw(st.none() | st.integers(-1, 10**6)))


@st.composite
def _sizes(draw, n_top):
    n = draw(st.integers(1, n_top) | st.integers(-1, 0))
    return _flag("l", draw(st.integers(1, max(n, 1)) | st.integers(-1, max(n, 1) + 1))) + _flag("n", n)


@st.composite
def bnp_argv(draw):
    method = draw(st.sampled_from(["closed", "stirling", None]))
    check = draw(st.booleans())
    n_top = 500 if method == "stirling" or check else 10**12  # the Stirling route builds n rows
    argv = ["bnp", *draw(_model()), *draw(_sizes(n_top))]
    return argv + ["--method", method] * (method is not None) + ["--check"] * check


@st.composite
def simulate_argv(draw):
    if draw(st.booleans()):
        pop = draw(st.lists(FLOATS | st.floats(0.0, 1.0), min_size=1, max_size=4))
        argv = ["simulate", "--pop=" + ",".join(map(repr, pop))]
    else:
        argv = ["simulate", *draw(_model(alpha_optional=True))]
    argv += draw(_sizes(200)) + _flag("reps", draw(st.integers(99, 500)))
    argv += _flag("seed", draw(st.integers(-1, 2**64)))
    return argv + ["--check"] * draw(st.booleans())


@pytest.mark.filterwarnings("ignore:dropping zero-probability species:UserWarning")  # --pop=0.5,0
@given(argv=bnp_argv() | simulate_argv())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzz_bnp_and_simulate_flags(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)  # an exception escaping main, a numpy warning included, fails the test
    assert code in (0, 1, 2, 3)
    if argv[0] == "bnp" and code == 0:
        cells = out.getvalue().replace("\n", "\t").split("\t")
        assert not {"nan", "inf", "-inf"} & set(cells), out.getvalue()


# -- fuzz: gt and smooth over generated counts and sample files ------------

COUNT = st.integers(-2, 30) | st.integers(-(10**30), 10**30) | st.sampled_from(["x", "", " 3 ", "1e3", "nan", "9" * 5000])
JUNK_LINE = st.builds(lambda l, c: f"{l},{c}", COUNT, COUNT) | st.sampled_from(["1,2,3", "1;2", ","]) | st.text(max_size=12)
COUNTS_TABLE = st.dictionaries(st.integers(1, 12), st.integers(1, 40), max_size=8).map(
    lambda table: [f" {l} ,{c}  # c_l" if l % 3 == 0 else f"{l},{c}" for l, c in table.items()])
LABEL = st.sampled_from(["a", "b", "c", " d ", ""]) | st.text(max_size=4)


@st.composite
def count_file_argv(draw):
    """argv for gt or smooth (the file path goes in at index 2), and the file's bytes."""
    if draw(st.booleans()):
        kind, lines = "--counts", ["# l,c_l", ""] + draw(COUNTS_TABLE)
        if draw(st.booleans()):  # one line that may be malformed
            lines.insert(draw(st.integers(0, len(lines))), draw(JUNK_LINE))
        body = "\n".join(lines).encode()
    else:
        kind = "--sample"
        labels = st.lists(LABEL, min_size=1, max_size=30).map(lambda ls: "\n".join(ls).encode())
        body = draw(labels | st.binary(max_size=40))
    l = _flag("l", draw(st.integers(0, 12) | st.integers(-(10**20), 10**20)))
    if draw(st.booleans()):
        return ["gt", kind, *l, "--mode", draw(st.sampled_from(["approx", "ratio"]))], body
    alpha = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | FLOATS
    return ["smooth", kind, *l, *_flag("alpha", draw(alpha))], body


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(case=count_file_argv())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fuzz_gt_and_smooth_inputs(case, fuzz_dir):
    argv, body = case
    path = fuzz_dir / "input"
    path.write_bytes(body)
    argv = argv[:2] + [str(path)] + argv[2:]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2, 3)


def test_no_subcommand_prints_usage(capsys):
    code = main([])
    cap = capsys.readouterr()
    assert code == 2
    assert "usage" in cap.err


@pytest.mark.skipif(shutil.which("goodturing") is None, reason="entry point not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["goodturing", "bnp", "--alpha", "0.5", "--theta", "0.5", "--l", "1", "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "estimate\t0.2" in proc.stdout
