import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import berezin
from berezin.cli import parse_complex

# The directory that holds the imported `berezin` package. The child runs in
# a temporary directory, so a relative PYTHONPATH (such as `src`) would not
# reach it; this absolute path makes it run the same source tree as the tests.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(berezin.__file__)))

_NO_PACKAGE = re.compile(r"No module named '?berezin'?$", re.MULTILINE)


def run_cli(args, cwd):
    return run_python(["-m", "berezin", *args], cwd)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    if _NO_PACKAGE.search(proc.stderr):
        pytest.fail(
            "the CLI child process could not import berezin "
            f"(PYTHONPATH={env['PYTHONPATH']!r}, cwd={str(cwd)!r}): "
            f"{proc.stderr.strip()}"
        )
    return proc


class TestParseComplex:
    def test_literals(self):
        cases = {
            "0.25+0.25i": 0.25 + 0.25j,
            "-0.5": -0.5,
            "0.7i": 0.7j,
            "i": 1j,
            "-i": -1j,
            "1e-3i": 1e-3j,
            "2-i": 2 - 1j,
            " 1 + 2i ": 1 + 2j,
            "3": 3.0,
        }
        for text, expected in cases.items():
            assert parse_complex(text) == expected, text

    def test_rejects_garbage(self):
        for text in ("abc", "1+2j+3i", "", "--"):
            with pytest.raises(ValueError):
                parse_complex(text)


class TestRange:
    def test_real_elliptic_is_convex(self, tmp_path):
        proc = run_cli(
            ["range", "--space", "hardy", "--symbol", "elliptic", "--alpha", "-0.5"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict CONVEX" in proc.stdout
        for ext in ("csv", "json", "svg"):
            assert (tmp_path / f"range_hardy_elliptic.{ext}").exists()
        payload = json.loads((tmp_path / "range_hardy_elliptic.json").read_text())
        assert payload["schema"] == 1
        assert payload["report"]["verdict"] == "CONVEX"

    def test_complex_elliptic_is_not_convex(self, tmp_path):
        proc = run_cli(
            [
                "range",
                "--space", "hardy",
                "--symbol", "elliptic",
                "--alpha", "0.25+0.25i",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict NOT_CONVEX" in proc.stdout

    def test_bergman_blaschke_half_not_convex(self, tmp_path):
        proc = run_cli(
            ["range", "--space", "bergman", "--symbol", "blaschke", "--alpha", "0.5"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict NOT_CONVEX" in proc.stdout

    def test_invalid_symbol_parameter_exits_2(self, tmp_path):
        proc = run_cli(
            ["range", "--space", "hardy", "--symbol", "elliptic", "--alpha", "1.5"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip()

    @pytest.mark.parametrize(
        "params, name",
        [
            (["--symbol", "elliptic", "--alpha", "nan"], "alpha"),
            (["--symbol", "blaschke", "--alpha", "nan+0.1i"], "alpha"),
            (["--symbol", "automorphism", "--a", "nan"], "parameter a"),
            (["--symbol", "automorphism", "--a", "1.25", "--b", "nani"], "parameter b"),
            (["--symbol", "automorphism", "--a", "inf", "--b", "inf"], "parameter a"),
        ],
    )
    def test_non_finite_symbol_parameter_exits_2(self, tmp_path, params, name):
        proc = run_cli(["range", "--space", "hardy", *params], tmp_path)
        assert proc.returncode == 2
        assert name in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_2(self, tmp_path, tol):
        proc = run_cli(
            ["range", "--space", "hardy", "--symbol", "elliptic", "--alpha", "0.5i",
             "--r-steps", "20", "--theta-steps", "16", f"--tol={tol}"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert f"tolerance must be finite and > 0, got {tol}" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_missing_alpha_exits_2(self, tmp_path):
        proc = run_cli(
            ["range", "--space", "bergman", "--symbol", "blaschke"], tmp_path
        )
        assert proc.returncode == 2

    def test_unwritable_path_exits_3(self, tmp_path):
        proc = run_cli(
            [
                "range",
                "--space", "hardy",
                "--symbol", "elliptic",
                "--alpha", "0.5",
                "--csv", str(tmp_path / "missing_dir" / "out.csv"),
            ],
            tmp_path,
        )
        assert proc.returncode == 3

    def test_byte_identical_reruns(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            proc = run_cli(
                [
                    "range",
                    "--space", "bergman",
                    "--symbol", "elliptic",
                    "--alpha", "0.3+0.4i",
                    "--r-steps", "40",
                    "--theta-steps", "32",
                ],
                d,
            )
            assert proc.returncode == 0, proc.stderr
            dirs.append(d)
        for ext in ("csv", "json", "svg"):
            fa = (dirs[0] / f"range_bergman_elliptic.{ext}").read_bytes()
            fb = (dirs[1] / f"range_bergman_elliptic.{ext}").read_bytes()
            assert fa == fb, ext


class TestSweep:
    def test_real_axis_all_convex(self, tmp_path):
        proc = run_cli(
            [
                "sweep",
                "--space", "hardy",
                "--alphas=-1,-0.5,0,0.5,1",
                "--r-steps", "400",
                "--theta-steps", "8",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((tmp_path / "sweep_hardy_elliptic.json").read_text())
        assert [e["verdict"] for e in payload["entries"]] == ["CONVEX"] * 5

    def test_unit_imaginary_not_convex(self, tmp_path):
        proc = run_cli(
            [
                "sweep",
                "--space", "hardy",
                "--alphas", "i",
                "--r-steps", "400",
                "--theta-steps", "8",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "alpha=1i: NOT_CONVEX" in proc.stdout

    def test_bergman_complex_not_convex(self, tmp_path):
        proc = run_cli(
            [
                "sweep",
                "--space", "bergman",
                "--alphas", "0.25+0.25i",
                "--r-steps", "400",
                "--theta-steps", "8",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "NOT_CONVEX" in proc.stdout

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_2(self, tmp_path, tol):
        proc = run_cli(
            ["sweep", "--space", "hardy", "--symbol", "elliptic", "--alphas=0.5,0.5i",
             "--r-steps", "20", "--theta-steps", "16", f"--tol={tol}"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert f"tolerance must be finite and > 0, got {tol}" in proc.stderr
        assert not proc.stdout
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alphas", [",", "", " , ,"])
    def test_empty_parameter_list_exits_2(self, tmp_path, alphas):
        proc = run_cli(["sweep", "--space", "hardy", f"--alphas={alphas}"], tmp_path)
        assert proc.returncode == 2
        assert "--alphas names no parameter value" in proc.stderr
        assert not proc.stdout
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize("alphas", ["0.5,2", "0.5,nan"])
    def test_invalid_parameter_later_in_the_list_exits_2(self, tmp_path, alphas):
        proc = run_cli(["sweep", "--space", "hardy", f"--alphas={alphas}"], tmp_path)
        assert proc.returncode == 2
        assert "elliptic symbol requires |alpha| <= 1" in proc.stderr
        assert not proc.stdout
        assert not list(tmp_path.iterdir())


class TestVerify:
    def test_clean_suite_exits_0(self, tmp_path):
        proc = run_cli(["verify", "--suite", "matrix-diag"], tmp_path)
        assert proc.returncode == 0, proc.stdout
        assert "5/5 checks passed" in proc.stdout

    def test_failing_suite_exits_1_with_json_tail(self, tmp_path):
        proc = run_cli(
            ["verify", "--suite", "blaschke", "--json", "report.json"], tmp_path
        )
        assert proc.returncode == 1
        tail = json.loads(proc.stdout.strip().split("\n")[-1])
        names = [f["check"] for f in tail["failures"]]
        assert names == ["real-axis-fourth-power-identity"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["failed"] == 1

    def test_unknown_suite_rejected_by_parser(self, tmp_path):
        proc = run_cli(["verify", "--suite", "nonsense"], tmp_path)
        assert proc.returncode == 2


class TestIneq:
    def test_default_harness_reports_failing_displayed_form(self, tmp_path):
        proc = run_cli(["ineq", "--trials", "100", "--dim", "4"], tmp_path)
        assert proc.returncode == 1
        assert "eq4" in proc.stderr

    def test_true_checks_pass(self, tmp_path):
        proc = run_cli(
            ["ineq", "--check", "eq16", "--trials", "60", "--dim", "4"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["min_slack"] >= -1e-9

    def test_diag_only_mapping_identity(self, tmp_path):
        proc = run_cli(
            ["ineq", "--map", "identity", "--diag-only", "--trials", "60"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["condition18_pass_rate"] == 1.0

    def test_neg_const_takes_zero_correction(self, tmp_path):
        proc = run_cli(["ineq", "--f", "neg-const", "--trials", "60"], tmp_path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_exits_2(self, tmp_path, dim):
        proc = run_cli(["ineq", "--dim", dim, "--trials", "5"], tmp_path)
        assert proc.returncode == 2
        assert "--dim" in proc.stderr
        assert not proc.stdout

    @pytest.mark.parametrize("exponent", ["inf", "nan", "-inf"])
    def test_non_finite_exponent_exits_2(self, tmp_path, exponent):
        proc = run_cli(["ineq", "--f", f"power:{exponent}", "--trials", "5"], tmp_path)
        assert proc.returncode == 2
        assert f"power exponent must be finite, got {exponent}" in proc.stderr
        assert not proc.stdout

    def test_negative_seed_exits_2(self, tmp_path):
        proc = run_cli(["ineq", "--seed", "-1", "--trials", "5"], tmp_path)
        assert proc.returncode == 2
        assert "seed must be >= 0" in proc.stderr
        assert not proc.stdout

    def test_hypothesis_violation_exits_2(self, tmp_path):
        proc = run_cli(["ineq", "--f", "power:1.5", "--check", "eq4"], tmp_path)
        assert proc.returncode == 2
        assert "superquadratic" in proc.stderr

    def test_overflowing_function_exits_2(self, tmp_path):
        proc = run_cli(["ineq", "--f", "power:400"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: check eq1 gave a non-finite slack (nan) at trial 0 for power:400: "
            "a value overflowed or was undefined\n"
        )
        assert not proc.stdout

    def test_largest_catalog_power_still_runs(self, tmp_path):
        proc = run_cli(["ineq", "--f", "power:300"], tmp_path)
        assert proc.returncode == 0
        assert not proc.stderr
        payload = json.loads(proc.stdout)
        assert (payload["min_slack"], payload["argmin_trial"]) == (4.596167175370184e-204, 564)
        assert payload["skipped_checks"] == ["mapping"]

    def test_report_is_deterministic(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            proc = run_cli(
                [
                    "ineq",
                    "--check", "eq16",
                    "--trials", "40",
                    "--dim", "3",
                    "--json", name,
                ],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_spatial_unloaded(tmp_path):
    proc = run_python(
        ["-c", "import sys, berezin.cli; print('scipy.spatial' in sys.modules)"], tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["berezin", "berezin.cli", "berezin.closed_form",
                                    "berezin.geometry", "berezin.inequalities",
                                    "berezin.kernels", "berezin.matrix_oracle",
                                    "berezin.output", "berezin.symbols", "berezin.verify"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_range_and_sweep_leave_scipy_spatial_unloaded(tmp_path):
    # A REGION2D range runs the grid coverage test and a SEGMENT sweep the
    # probe coverage test; neither needs scipy.
    code = (
        "import sys\n"
        "from berezin.cli import main\n"
        "a = main(['range', '--space', 'hardy', '--symbol', 'elliptic', '--alpha', '0.5i'])\n"
        "b = main(['sweep', '--space', 'hardy', '--symbol', 'elliptic', '--alphas=-0.5'])\n"
        "print(a, b, 'scipy.spatial' in sys.modules)\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "(shape REGION2D," in proc.stdout
    assert "alpha=-0.5: CONVEX (SEGMENT)" in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "0 0 False"
