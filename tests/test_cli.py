import ast
import importlib
import json
import os
import pathlib
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
        for text in ("abc", "1+2j+3i", "", "--", "1+2j", "j", "(1)", "(1+2i)"):
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

    def test_r_max_too_small_for_distinct_radii_exits_2(self, tmp_path):
        # r_max^2 underflows, so every radius would be 0
        proc = run_cli(
            ["range", "--space", "hardy", "--symbol", "elliptic", "--alpha", "0.5",
             "--r-max", "1e-170"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "r_max = 1e-170 is too small for r_steps = 200 distinct radii" in proc.stderr
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
        assert proc.stderr.splitlines()[-1] == (
            "berezin verify: error: argument --suite: invalid choice: 'nonsense' "
            "(choose from 'hardy-elliptic', 'bergman-elliptic', 'blaschke', "
            "'automorphism-b0', 'model', 'matrix-diag', 'oracle', 'inequalities')"
        )


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

    def test_unparsable_function_exits_2(self, tmp_path):
        proc = run_cli(["ineq", "--f", "power:abc", "--trials", "5"], tmp_path)
        assert proc.returncode == 2
        assert "error: cannot parse function spec 'power:abc': " in proc.stderr
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

    @pytest.mark.parametrize("args, status", [
        (["--map", "pinching", "--json", "r.json"], 1),  # eq4 fails by design
        (["--diag-only", "--json", "d.json"], 0),
    ], ids=["violation", "diag-only"])
    def test_json_file_holds_the_printed_report(self, tmp_path, args, status):
        proc = run_cli(["ineq", "--trials", "50", *args], tmp_path)
        assert proc.returncode == status, proc.stderr
        assert (tmp_path / args[-1]).read_bytes() == proc.stdout.encode()

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


def test_range_and_sweep_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs 13-15 ms of imports; np.unique is what would load it.
    code = (
        "import sys\n"
        "from berezin.cli import main\n"
        "a = main(['range', '--space', 'hardy', '--symbol', 'blaschke', '--alpha=0.3i'])\n"
        "b = main(['sweep', '--space', 'hardy', '--symbol', 'elliptic', '--alphas=-0.5'])\n"
        "print(a, b, 'numpy.ma' in sys.modules)\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "(shape REGION2D," in proc.stdout
    assert "alpha=-0.5: CONVEX (SEGMENT)" in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "0 0 False"


@pytest.mark.parametrize("command", [
    ["range", "--space", "bergman", "--symbol", "blaschke", "--alpha=0.5"],
    ["sweep", "--space", "bergman", "--symbol", "blaschke", "--alphas=0.5"],
])
def test_grid_too_large_to_allocate_exits_2(tmp_path, command):
    # A 10**8 x 10**8 mesh takes 142 PiB, more than any address space; the
    # grid is refused before its axes are built.
    argv = [*command, "--r-steps", "100000000", "--theta-steps", "100000000"]
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: out of memory: a 100000000 x 100000000 grid needs 142 PiB per complex array\n"
    )
    assert not proc.stdout
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["range", "--space", "hardy", "--symbol", "elliptic", "--alpha=0.5"],
    ["sweep", "--space", "hardy", "--symbol", "elliptic", "--alphas=0.5"],
])
@pytest.mark.parametrize("param, reason", [
    (["--r-max", "nan"], "r_max must lie in (0, 1)"),
    (["--r-max", "1"], "r_max must lie in (0, 1)"),
    (["--r-steps", "1"], "r_steps must be >= 2, got 1"),
    (["--theta-steps", "0"], "theta_steps must be >= 1, got 0"),
])
def test_invalid_grid_parameter_exits_2(tmp_path, command, param, reason):
    proc = run_cli([*command, *param], tmp_path)
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert not list(tmp_path.iterdir())


def test_memory_error_of_a_command_exits_2(monkeypatch, capsys, tmp_path):
    # A refused allocation inside a command becomes one error line, not a traceback.
    def refuse(*args):
        raise MemoryError("Unable to allocate 711. PiB for an array")

    monkeypatch.setattr(berezin.closed_form, "sample_range", refuse)
    monkeypatch.chdir(tmp_path)
    code = berezin.cli.main(["range", "--space", "hardy", "--symbol", "elliptic", "--alpha=0.5"])
    assert code == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: out of memory: Unable to allocate 711. PiB for an array\n"
    assert not list(tmp_path.iterdir())


_MODULES = ("cli", "closed_form", "geometry", "inequalities", "kernels",
            "matrix_oracle", "output", "symbols", "verify")

# A child that runs `python -m berezin ARGV`, then writes its exit code and
# the loaded modules of numpy and the package as the last line of stderr.
_LOADED_BY = """
import json, runpy, sys
sys.argv[0] = "berezin"
try:
    runpy.run_module("berezin", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, [m for m in sys.modules if m == "numpy" or m.startswith("berezin")]]),
      file=sys.stderr)
"""


_CLI_ONLY = {"numpy", *(f"berezin.{m}" for m in _MODULES if m != "cli")}
_NOT_INEQ = {"berezin.geometry", "berezin.closed_form", "berezin.matrix_oracle",
             "berezin.verify", "berezin.output"}


@pytest.mark.parametrize("argv, exit_code, unloaded", [
    (["--help"], 0, _CLI_ONLY),
    (["nonsense"], 2, _CLI_ONLY),
    (["range", "--space", "nowhere"], 2, _CLI_ONLY),
    (["sweep", "--r-steps", "x"], 2, _CLI_ONLY),
    (["ineq", "--trials", "20", "--dim", "2", "--check", "eq16"], 0, _NOT_INEQ),
    # the usage line lists the --check choices, which inequalities owns
    (["ineq", "--trials", "x"], 2, _NOT_INEQ),
    (["range", "--space", "hardy", "--symbol", "elliptic", "--alpha", "0.5i",
      "--r-steps", "20", "--theta-steps", "16"],
     0, {"berezin.inequalities", "berezin.matrix_oracle", "berezin.verify"}),
    (["sweep", "--space", "hardy", "--alphas=-0.5,0.5i", "--r-steps", "20"],
     0, {"berezin.inequalities", "berezin.matrix_oracle", "berezin.verify"}),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, exit_code, unloaded):
    proc = run_python(["-c", _LOADED_BY, *argv], tmp_path)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == exit_code, proc.stderr
    assert "berezin.cli" in loaded
    assert not unloaded & set(loaded)


def test_package_namespace_holds_only_the_submodules(tmp_path):
    code = f"""
import json, sys
import berezin
loaded = [m for m in sys.modules if m == "numpy" or m.startswith("berezin.")]
modules = {{m: getattr(berezin, m) for m in {_MODULES!r}}}
resolved = [m for m, module in modules.items() if module is sys.modules[f"berezin.{{m}}"]]
exported = sorted({{n for module in modules.values() for n in module.__all__
                   if hasattr(berezin, n)}})
print(json.dumps([loaded, resolved, exported, berezin.__all__]))
"""
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded, resolved, exported, names = json.loads(proc.stdout)
    assert loaded == []
    assert resolved == list(_MODULES)
    assert exported == []
    assert names == ["__version__"]


# The CLI with every option's choices read eagerly, as a plain list.
_EAGER_CHOICES = """
import importlib, sys
import berezin.cli as cli
cli._OwnedChoices = lambda module, name: list(
    getattr(importlib.import_module(f"berezin.{module}"), name))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["verify", "--help"],
    ["ineq", "--help"],
    ["verify", "--suite", "nonsense"],
    ["ineq", "--check", "eq99"],
    ["ineq", "--map", "bogus"],
])
def test_lazy_choices_print_as_eager_ones(tmp_path, argv):
    lazy = run_cli(argv, tmp_path)
    eager = run_python(["-c", _EAGER_CHOICES, *argv], tmp_path)
    assert (lazy.returncode, lazy.stdout, lazy.stderr) == (
        eager.returncode, eager.stdout, eager.stderr)
    if argv[-1] == "eq99":
        assert lazy.stderr.splitlines()[-1] == (
            "berezin ineq: error: argument --check: invalid choice: 'eq99' "
            "(choose from 'eq1', 'eq2', 'eq4', 'eq5', 'eq16', 'eq21', 'mapping')"
        )
    if argv[-1] == "bogus":
        assert lazy.stderr.splitlines()[-1] == (
            "berezin ineq: error: argument --map: invalid choice: 'bogus' "
            "(choose from 'identity', 'pinching', 'compression')"
        )


def test_cli_and_package_import_no_package_module_at_module_level():
    # Each command imports the modules it runs and the package resolves its
    # names on first access; a module-level import would load a module for
    # every command, --help included.
    found = []
    root = pathlib.Path(berezin.__file__).parent
    for name in ("__init__.py", "cli.py"):
        stack = list(ast.parse((root / name).read_text(), name).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if not node.level else ["berezin"]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] == "berezin"]
    assert not found


def _parsed_modules():
    root = pathlib.Path(berezin.__file__).parent
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(root.glob("*.py"))]


def test_only_inequalities_names_check_requires():
    # Each check's hypotheses are read through inequalities.checks_for, so
    # the CLI and the library cannot disagree on what a check needs.
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}
    named = [f"{name}:{getattr(node, 'lineno', '?')}"
             for name, tree in _parsed_modules() if name != "inequalities.py"
             for node in ast.walk(tree)
             if getattr(node, field.get(type(node), ""), None) == "CHECK_REQUIRES"]
    assert not named


def test_cli_imports_no_dataclasses():
    # dataclasses pulls in inspect, a visible share of a --help process.
    imported = set()
    for node in ast.walk(dict(_parsed_modules())["cli.py"]):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def _names_used(tree, skip=None):
    """The identifiers a module reads as names or attributes or imports,
    outside its top-level definition of ``skip``."""
    used = set()
    for top in tree.body:
        if getattr(top, "name", None) == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _exports(tree):
    """The names in a module's __all__ but dunders such as __version__, which
    tools read by convention."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [elt.value for elt in node.value.elts if not elt.value.startswith("__")]
    return []


# Exported only so that bench/tracer.py:129 can wrap them by name; they leave
# src with the benchmark revision (ROADMAP items 1 and 14).
_TRACED_ONLY = {"geometry.classify_shape", "geometry.default_tolerance",
                "geometry.hausdorff_distance", "geometry.hull_signed_depth"}


def test_every_export_has_a_caller_outside_the_tests():
    # A name in a module's __all__ is read by another package module, by its
    # own module outside its definition, or by the benchmark's code.  The
    # traced-only names must still be wrapped and have no caller, so the
    # allow-list fails once they gain one or the tracer drops them.
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    bench_used = set().union(*(_names_used(ast.parse(path.read_text(), str(path)))
                               for path in sorted(bench.glob("*.py"))))
    modules = _parsed_modules()
    used = {name: _names_used(tree) for name, tree in modules}
    uncalled = set()
    for name, tree in modules:
        callers = bench_used.union(*(u for other, u in used.items() if other != name))
        uncalled |= {f"{name[:-3]}.{export}" for export in _exports(tree)
                     if export not in callers | _names_used(tree, skip=export)}
    assert uncalled == _TRACED_ONLY
    tracer = ast.parse((bench / "tracer.py").read_text())
    wrapped = {node.value for node in ast.walk(tracer) if isinstance(node, ast.Constant)}
    assert {name.partition(".")[2] for name in _TRACED_ONLY} <= wrapped
