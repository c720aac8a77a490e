import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dhlattice
from dhlattice import cli
from dhlattice.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NO_ORBIT,
    EXIT_OK,
    ProblemConfig,
    _csv_rows,
    build_parser,
    builtin_config_path,
    load_config,
    main,
)
from dhlattice.core import ConfigurationError, Window
from dhlattice.solver import SolveOptions, StartStrategy
from helpers import reject_constant


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=reject_constant)


def command_argv(command, config, tmp_path):
    """``command`` on ``config`` with only the arguments it reads: --out for
    spectrum and solve (``tmp_path``/out), an orbit file for verify."""
    argv = [command, "--config", str(config)]
    if command in ("spectrum", "solve"):
        argv += ["--out", str(tmp_path / "out")]
    if command == "verify":
        argv.append(str(tmp_path / "orbit.csv"))
    return argv


@pytest.fixture()
def model_config_path(tmp_path):
    """Model config shrunk to half_width 32 to keep solver runs quick."""
    raw = json.loads(builtin_config_path("model").read_text())
    raw["window"]["half_width"] = 32
    path = tmp_path / "model32.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigParsing:
    @pytest.mark.parametrize("name", ["model", "period2", "n2"])
    def test_bundled_configs_load(self, name):
        config = load_config(str(builtin_config_path(name)))
        coeffs = config.build_coefficients()
        assert coeffs.lambda0 > 0
        config.build_nonlinearity()
        config.build_window()
        config.build_solve_options()

    def test_missing_field_rejected(self):
        with pytest.raises(Exception, match="missing required field"):
            ProblemConfig.from_dict({"block_dim": 1, "period": 1})

    def test_wrong_matrix_width_names_field(self):
        with pytest.raises(Exception, match=r"matrices\[0\]"):
            ProblemConfig.from_dict(
                {"block_dim": 1, "period": 1, "matrices": [[0.0, -1.0, -1.0]]}
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(Exception, match="family"):
            ProblemConfig.from_dict(
                {
                    "block_dim": 1,
                    "period": 1,
                    "matrices": [[0.0, -1.0, -1.0, 0.0]],
                    "nonlinearity": {"family": "cubic"},
                }
            )

    def test_empty_nonlinearity_names_the_missing_family(self, capsys, tmp_path):
        # an empty section is validated like a partial one, not replaced by the default
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"] = {}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw))
        code, report = run_cli(capsys, "check", "--config", str(path))
        assert code == EXIT_CONFIG_ERROR
        assert "nonlinearity.family" in report["error"]

    @pytest.mark.parametrize("section", ["nonlinearity", "window", "solver"])
    def test_null_section_is_malformed_not_absent(self, section):
        raw = json.loads(builtin_config_path("model").read_text())
        with pytest.raises(ConfigurationError, match=f"^{section} must be a JSON object"):
            ProblemConfig.from_dict({**raw, section: None})

    def test_empty_window_and_solver_take_their_field_defaults(self):
        raw = json.loads(builtin_config_path("model").read_text())
        absent = ProblemConfig.from_dict(
            {k: v for k, v in raw.items() if k not in ("window", "solver")}
        )
        empty = ProblemConfig.from_dict({**raw, "window": {}, "solver": {}})
        for config in (absent, empty):
            assert config.build_window() == Window(64)
            assert config.build_solve_options() == SolveOptions()

    def test_every_solver_and_start_field_loads(self):
        # one valid value per dataclass field: a field added to either
        # dataclass must be added here too
        start = {"kind": "gaussian", "amplitude": 2.0, "width": 1.5}
        solver = {"max_iter": 7, "seed": 3, "starts": [start]}
        assert set(start) == {f.name for f in dataclasses.fields(StartStrategy)}
        assert set(solver) == {f.name for f in dataclasses.fields(SolveOptions)}
        raw = json.loads(builtin_config_path("model").read_text())
        options = ProblemConfig.from_dict({**raw, "solver": solver}).build_solve_options()
        assert options == SolveOptions(
            max_iter=7, starts=(StartStrategy("gaussian", 2.0, 1.5),), seed=3
        )

    @pytest.mark.parametrize(
        "path, name",
        [((), "configuration"), (("window",), "window"), (("solver",), "solver"),
         (("solver", "starts", 0), "solver.starts[0]"),
         (("solver", "starts", 4), "solver.starts[4]")],
    )
    def test_misspelt_key_names_its_object(self, path, name):
        raw = json.loads(builtin_config_path("model").read_text())
        target = raw
        for step in path:
            target = target[step]
        target["sead"] = 1
        with pytest.raises(ConfigurationError) as info:
            ProblemConfig.from_dict(raw)
        assert str(info.value) == f"unknown {name} fields: ['sead']"

    def test_misspelt_nonlinearity_parameter_reaches_the_family(self):
        # the nonlinearity section has no field set: its parameters go to the
        # family function, which refuses a name it does not take
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"]["nuu"] = 4.0
        with pytest.raises(ConfigurationError, match="^nonlinearity parameters invalid: .*'nuu'"):
            ProblemConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "change, text",
        [(lambda raw: [raw], "configuration must be a JSON object, got [{"),
         (lambda raw: {**raw, "solver": {"starts": [{"kind": "random"}, 1]}},
          "solver.starts[1] must be a JSON object, got 1")],
        ids=["root", "start"],
    )
    def test_value_that_is_not_an_object_is_named(self, change, text):
        raw = json.loads(builtin_config_path("model").read_text())
        with pytest.raises(ConfigurationError) as info:
            ProblemConfig.from_dict(change(raw))
        assert str(info.value).startswith(text)

    def test_field_added_to_a_dataclass_loads_without_a_loader_edit(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Start(StartStrategy):
            code: int = 0

        @dataclasses.dataclass(frozen=True)
        class Options(SolveOptions):
            budget: int = 0

        monkeypatch.setattr(cli, "StartStrategy", Start)
        monkeypatch.setattr(cli, "SolveOptions", Options)
        raw = json.loads(builtin_config_path("model").read_text())
        raw["solver"] = {"budget": 5, "starts": [{"kind": "random", "code": 3}]}
        options = ProblemConfig.from_dict(raw).build_solve_options()
        assert options == Options(starts=(Start("random", code=3),), budget=5)

    @pytest.mark.parametrize("first_format", ["%.17g", "%d"])
    def test_row_format_equals_per_element_join(self, first_format):
        table = np.array(
            [[-3.0, -0.0, 5e-324, 1e300, -1.5], [0.0, np.pi, -1e-300, np.inf, np.nan]]
        )
        per_element = [
            ",".join([first_format % row[0]] + ["%.17g" % v for v in row[1:]])
            for row in table
        ]
        assert _csv_rows(first_format, table) == per_element


class TestCheckCommand:
    def test_model_passes(self, capsys):
        code, report = run_cli(
            capsys, "check", "--config", str(builtin_config_path("model"))
        )
        assert code == EXIT_OK
        assert report["all_pass"] is True
        assert report["delta0_estimate"] > 0

    def test_check_leaves_scipy_linalg_unloaded(self):
        # a fresh check runs no LAPACK, so it should not pay for importing it
        script = (
            "import contextlib, io, sys\n"
            "from dhlattice.cli import builtin_config_path, main\n"
            "assert 'scipy.linalg' not in sys.modules, 'import dhlattice.cli'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['check', '--config', str(builtin_config_path('model'))])\n"
            "assert code == 0 and 'scipy.linalg' not in sys.modules, 'check'\n"
        )
        src = str(Path(dhlattice.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_gap_violation_exits_one_and_quotes_bound(self, capsys, tmp_path):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"]["nu"] = 2.5
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(raw))
        code, report = run_cli(capsys, "check", "--config", str(path))
        assert code == EXIT_CHECK_FAILED
        assert report["failed"] == ["R3"]
        assert "2 + Lambda0 = 3" in report["checks"]["R3"]["detail"]

    def test_positivity_violation_exits_one(self, capsys, tmp_path):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["matrices"] = [[0.0, 1.0, 1.0, 0.0]]
        path = tmp_path / "r0.json"
        path.write_text(json.dumps(raw))
        code, report = run_cli(capsys, "check", "--config", str(path))
        assert code == EXIT_CHECK_FAILED
        assert report["failed"] == ["R0"]
        assert "(R0)" in report["checks"]["R0"]["detail"]

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run_cli(capsys, "check", "--config", str(path))
        assert code == EXIT_CONFIG_ERROR
        assert "error" in report

    @pytest.mark.parametrize(
        "params",
        [
            {"family": "radial_rational", "nu": float("nan")},
            {"family": "log_saturating", "nu": float("inf")},
            {"family": "quadratic", "strength": float("nan")},
        ],
    )
    def test_non_finite_parameter_exits_two(self, capsys, tmp_path, params):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"] = params
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw))  # writes the NaN / Infinity literals
        code, report = run_cli(capsys, "check", "--config", str(path))
        assert code == EXIT_CONFIG_ERROR
        assert "finite" in report["error"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_prints_strict_json(self, capsys, tmp_path):
        # the radial profile overflows: (R1) fails on the first non-finite
        # sample instead of a floating-point warning, and the non-finite
        # numbers the report carries are written as null, never as the NaN /
        # Infinity literals
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"]["nu"] = 1e300
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        code = main(["check", "--config", str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert code == EXIT_CHECK_FAILED
        assert captured.err == ""
        assert report["growth_envelope"]["constant"] is None
        r1 = report["checks"]["R1"]
        assert r1["status"] == "fail" and "not finite" in r1["detail"]
        assert sorted(r1["witness"]) == ["direction", "n", "radius"]
        # the grid-based checks decide nothing on a non-finite grid; the (R3)
        # gap test does not read the grid and still passes
        for name in ("R2", "R3", "R4"):
            check = report["checks"][name]
            assert check["status"] == "inconclusive" and "(R1)" in check["detail"]
            assert "witness" not in check
        assert report["checks"]["R3"]["detail"].startswith("gap test passed")
        assert report["delta0_estimate"] is None

    @pytest.mark.parametrize("command", ["check", "spectrum", "solve", "verify"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_matrix_exits_two(self, capsys, tmp_path, command, bad):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["matrices"] = [[bad, -1.0, -1.0, 0.0]]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw))  # writes the NaN / Infinity literals
        code = main(command_argv(command, path, tmp_path))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        assert "non-finite" in json.loads(captured.out)["error"]
        assert captured.err == ""

    def test_bad_dimensions_exit_two(self, capsys, tmp_path):
        raw = {"block_dim": 1, "period": 2, "matrices": [[0.0, -1.0, -1.0, 0.0]]}
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(raw))
        code, report = run_cli(capsys, "check", "--config", str(path))
        assert code == EXIT_CONFIG_ERROR
        assert "error" in report


class TestSpectrumCommand:
    def test_model_band_extrema(self, capsys, tmp_path):
        code, summary = run_cli(
            capsys,
            "spectrum",
            "--config", str(builtin_config_path("model")),
            "--grid", "256",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        ext = summary["band_extrema"]
        assert abs(ext["positive_min"] - 1.0) < 1e-9
        assert abs(ext["positive_max"] - 3.0) < 1e-9
        assert abs(ext["negative_min"] + 3.0) < 1e-9
        assert abs(ext["negative_max"] + 1.0) < 1e-9
        assert summary["inclusion_pass"] is True
        assert summary["periodic_crosscheck"]["max_mismatch"] < 1e-9
        band_file = tmp_path / summary["band_file"]
        lines = band_file.read_text().strip().splitlines()
        assert lines[0] == "theta,band_1,band_2"
        assert len(lines) == 257

    def test_minimal_grid(self, capsys, tmp_path):
        code, summary = run_cli(
            capsys,
            "spectrum",
            "--config", str(builtin_config_path("model")),
            "--grid", "2",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert len((tmp_path / "bands.csv").read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("grid", ["1", "0", "-4"])
    def test_grid_below_two_exits_two(self, capsys, tmp_path, grid):
        code, report = run_cli(
            capsys,
            "spectrum",
            "--config", str(builtin_config_path("model")),
            "--grid", grid,
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG_ERROR
        assert "--grid" in report["error"]
        assert not (tmp_path / "bands.csv").exists()

    def test_period2_bands_column_count(self, capsys, tmp_path):
        code, summary = run_cli(
            capsys,
            "spectrum",
            "--config", str(builtin_config_path("period2")),
            "--grid", "8",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        header = (tmp_path / "bands.csv").read_text().splitlines()[0]
        assert header == "theta,band_1,band_2,band_3,band_4"


class TestSolveCommand:
    def test_model_finds_orbit(self, capsys, tmp_path, model_config_path):
        out = tmp_path / "out"
        code, payload = run_cli(
            capsys, "solve", "--config", model_config_path, "--out", str(out)
        )
        assert code == EXIT_OK
        assert len(payload["results"]) >= 1
        top = payload["results"][0]
        assert top["status"] == "verified"
        assert top["phi"] > 0
        assert top["grad_inf_norm"] < 1e-10
        orbit_file = out / top["orbit_csv"]
        assert orbit_file.exists()
        header = orbit_file.read_text().splitlines()[0]
        assert header == "n,x1_1,x2_1"

    def test_results_carry_stop_reason_and_gradient_count(
        self, capsys, tmp_path, model_config_path
    ):
        code, payload = run_cli(
            capsys, "solve", "--config", model_config_path, "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        for entry in payload["results"]:
            diag = entry["diagnostics"]
            assert sorted(diag) == [
                "fallback_steps", "gradient_evaluations", "polish_iterations",
                "regularizations", "stop_reason",
            ]
            assert diag["stop_reason"] in ("converged", "polish_floor")
            assert diag["gradient_evaluations"] > entry["iterations"]

    def test_failed_check_blocks_solve(self, capsys, tmp_path):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"] = {"family": "quadratic", "strength": 4.0}
        raw["window"]["half_width"] = 16
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(raw))
        code, payload = run_cli(
            capsys, "solve", "--config", str(path), "--out", str(tmp_path / "o")
        )
        assert code == EXIT_CHECK_FAILED
        assert payload["results"] == []

    def test_linear_gap_problem_has_no_orbit(self, capsys, tmp_path):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["nonlinearity"] = {"family": "quadratic", "strength": 4.0}
        raw["window"]["half_width"] = 16
        raw["solver"]["starts"] = [
            {"kind": "linking", "amplitude": 1.0},
            {"kind": "gaussian", "amplitude": 1.0, "width": 2.0},
            {"kind": "random", "amplitude": 1.0},
        ]
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(raw))
        code, payload = run_cli(
            capsys,
            "solve",
            "--config", str(path),
            "--out", str(tmp_path / "o"),
            "--skip-check",
        )
        assert code == EXIT_NO_ORBIT
        assert payload["results"] == []
        assert payload["skip_check"] is True

    def test_window_override(self, capsys, tmp_path, model_config_path):
        code, payload = run_cli(
            capsys,
            "solve",
            "--config", model_config_path,
            "--out", str(tmp_path / "o"),
            "--window", "24",
        )
        assert code == EXIT_OK
        assert payload["window"]["half_width"] == 24

    @pytest.mark.parametrize("command", ["check", "spectrum", "solve", "verify"])
    def test_periodic_boundary_exits_two(self, capsys, tmp_path, command):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["window"]["boundary"] = "periodic"
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(raw))
        code, report = run_cli(capsys, *command_argv(command, path, tmp_path))
        assert code == EXIT_CONFIG_ERROR
        assert "zero_pad" in report["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "starts",
        [
            [{"kind": "annealing", "amplitude": 1.0}],
            [{"amplitude": 1.0}],
            [{"kind": "gaussian", "amplitude": -1.0}],
            ["gaussian"],
            {"kind": "gaussian"},
            [],
        ],
    )
    def test_bad_starts_exit_two(self, capsys, tmp_path, starts):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["solver"]["starts"] = starts
        path = tmp_path / "starts.json"
        path.write_text(json.dumps(raw))
        code, report = run_cli(
            capsys, "solve", "--config", str(path), "--out", str(tmp_path / "o")
        )
        assert code == EXIT_CONFIG_ERROR
        assert "solver" in report["error"]

    @pytest.mark.parametrize("field", [{"armijo": 1e-4}, {"damping_shrink": 0.5}])
    def test_line_search_constants_are_not_fields(self, capsys, tmp_path, field):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["solver"].update(field)
        path = tmp_path / "line_search.json"
        path.write_text(json.dumps(raw))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        assert "unknown solver fields" in json.loads(captured.out)["error"]
        assert next(iter(field)) in json.loads(captured.out)["error"]
        assert captured.err == ""


class TestVerifyCommand:
    @pytest.fixture()
    def solved(self, capsys, tmp_path, model_config_path):
        out = tmp_path / "out"
        code, payload = run_cli(
            capsys, "solve", "--config", model_config_path, "--out", str(out)
        )
        assert code == EXIT_OK
        return model_config_path, out / payload["results"][0]["orbit_csv"]

    def test_round_trip_verifies(self, capsys, solved):
        config_path, orbit_path = solved
        code, report = run_cli(
            capsys, "verify", "--config", config_path, str(orbit_path)
        )
        assert code == EXIT_OK
        assert report["passed"] is True

    def test_zero_orbit_fails_nontriviality(self, capsys, tmp_path, model_config_path):
        config = load_config(model_config_path)
        window = config.build_window()
        lines = ["n,x1_1,x2_1"]
        for n in window.nodes:
            lines.append(f"{int(n)},0,0")
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(lines) + "\n")
        code, report = run_cli(
            capsys, "verify", "--config", model_config_path, str(path)
        )
        assert code == EXIT_CHECK_FAILED
        assert report["checks"]["nontrivial"] is False

    def test_corrupted_orbit_fails_residual(self, capsys, solved):
        config_path, orbit_path = solved
        lines = orbit_path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        fixed = []
        for row in rows:
            parts = row.split(",")
            if parts[0] == "0":
                parts[1] = repr(float(parts[1]) + 0.1)
            fixed.append(",".join(parts))
        bad_path = orbit_path.parent / "corrupt.csv"
        bad_path.write_text("\n".join([header] + fixed) + "\n")
        code, report = run_cli(
            capsys, "verify", "--config", config_path, str(bad_path)
        )
        assert code == EXIT_CHECK_FAILED
        assert report["dhs_residual_inf"] > 1e-3

    def test_dimension_mismatch_exits_two(self, capsys, tmp_path, solved):
        config_path, orbit_path = solved
        lines = orbit_path.read_text().splitlines()
        truncated = tmp_path / "short.csv"
        truncated.write_text("\n".join(lines[:-3]) + "\n")
        code, report = run_cli(
            capsys, "verify", "--config", config_path, str(truncated)
        )
        assert code == EXIT_CONFIG_ERROR
        assert "error" in report

    @pytest.mark.parametrize("header", ["foo,bar,baz", "n,x2_1,x1_1", "n,x1_1,x2_1,"])
    def test_orbit_csv_header_must_match(self, capsys, solved, header):
        config_path, orbit_path = solved
        rows = orbit_path.read_text().splitlines()[1:]
        edited = orbit_path.parent / "header.csv"
        edited.write_text("\n".join([header] + rows) + "\n")
        code, report = run_cli(capsys, "verify", "--config", config_path, str(edited))
        assert code == EXIT_CONFIG_ERROR
        assert "header" in report["error"]

    def test_orbit_csv_header_lists_x1_then_x2(self):
        from dhlattice.cli import _orbit_header

        assert _orbit_header(2) == "n,x1_1,x1_2,x2_1,x2_2"

    def test_orbit_csv_labels_parse_as_int_and_rows_keep_their_width(
        self, solved, model_config_path
    ):
        from dhlattice.cli import ConfigurationError, _read_orbit_csv

        config_path, orbit_path = solved
        window = load_config(model_config_path).build_window()
        header, *rows = orbit_path.read_text().splitlines()
        edited = orbit_path.parent / "edited.csv"
        # int() accepts a signed, padded label, so the orbit reads the same
        signed = [f" +{r}" if r.startswith("1,") else r for r in rows]
        edited.write_text("\n".join([header] + signed) + "\n")
        np.testing.assert_array_equal(
            _read_orbit_csv(str(edited), window, 1).entries,
            _read_orbit_csv(str(orbit_path), window, 1).entries,
        )
        short = [rows[0].rsplit(",", 1)[0]] + rows[1:]
        edited.write_text("\n".join([header] + short) + "\n")
        with pytest.raises(ConfigurationError, match="row 2 has 2 columns"):
            _read_orbit_csv(str(edited), window, 1)

    def test_orbit_csv_full_precision_round_trip(self, solved, model_config_path):
        config_path, orbit_path = solved
        config = load_config(model_config_path)
        window = config.build_window()
        from dhlattice.cli import _read_orbit_csv

        orbit = _read_orbit_csv(str(orbit_path), window, config.block_dim)
        from dhlattice.cli import _write_orbit_csv

        second = orbit_path.parent / "rewrite.csv"
        _write_orbit_csv(second, orbit)
        assert second.read_text() == orbit_path.read_text()


class TestHugeFiniteNumbers:
    """Finite inputs whose squares overflow: the norms and the nonlinearity
    give inf and NaN, every check they feed fails, and no floating-point
    warning is raised (warnings are errors here, as in CI)."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_huge_orbit_fails_every_check(self, capsys, tmp_path):
        config = builtin_config_path("model")
        nodes = load_config(str(config)).build_window().nodes
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["n,x1_1,x2_1"] + [f"{n},1e160,1e160" for n in nodes]) + "\n")
        code = main(["verify", "--config", str(config), str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert code == EXIT_CHECK_FAILED
        assert captured.err == ""
        assert report["passed"] is False
        assert not any(report["checks"].values())
        for key in ("dhs_residual_inf", "energy_identity_defect", "orbit_linf",
                    "window_stability_inf"):
            assert report[key] is None, key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_solve_huge_start_finds_no_orbit(self, capsys, tmp_path):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["window"]["half_width"] = 16
        raw["solver"]["starts"] = [{"kind": "gaussian", "amplitude": 1e160, "width": 2.0}]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--skip-check"])
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert code == EXIT_NO_ORBIT
        assert captured.err == ""
        assert report["results"] == []


class TestDeterminism:
    def test_solve_byte_identical(self, capsys, tmp_path, model_config_path):
        outs = []
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(
                ["solve", "--config", model_config_path, "--out", str(out), "--seed", "0"]
            )
            texts.append(capsys.readouterr().out)
            assert code == EXIT_OK
            outs.append(out)
        assert texts[0] == texts[1]
        csv_a = sorted(p.name for p in outs[0].glob("*.csv"))
        csv_b = sorted(p.name for p in outs[1].glob("*.csv"))
        assert csv_a == csv_b
        for name in csv_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _case(case_id, command, change=None, flags=(), orbit_cell=None, text=None):
    """One malformed input: a model.json field change, extra flags, or an orbit
    CSV edit, with ``text`` the error message must contain (when given)."""
    return pytest.param(command, change, list(flags), orbit_cell, text, id=case_id)


MALFORMED_INPUTS = [
    _case("half_width-text-solve", "solve", ("window", "half_width", "abc"), text='got "abc"'),
    _case("half_width-text-spectrum", "spectrum", ("window", "half_width", "abc")),
    _case("half_width-list-solve", "solve", ("window", "half_width", [1]), text="got [1]"),
    _case("half_width-list-spectrum", "spectrum", ("window", "half_width", [1])),
    _case(
        "half_width-inf-spectrum", "spectrum", ("window", "half_width", float("inf")),
        text="got Infinity",
    ),
    _case("num_nodes-text-solve", "solve", ("window", "num_nodes", "x")),
    _case("seed-negative-solve", "solve", ("solver", "seed", -1)),
    _case("seed-float-solve", "solve", ("solver", "seed", 1.5), text="got 1.5"),
    _case("max_iter-float-solve", "solve", ("solver", "max_iter", 2.5)),
    _case("max_iter-inf-solve", "solve", ("solver", "max_iter", float("inf"))),
    _case("grad_tol-nan-solve", "solve", ("solver", "grad_tol", float("nan"))),
    _case("block_dim-float-check", "check", (None, "block_dim", 1.5)),
    _case("block_dim-float-spectrum", "spectrum", (None, "block_dim", 1.5)),
    _case("block_dim-float-solve", "solve", (None, "block_dim", 1.5)),
    _case("block_dim-float-verify", "verify", (None, "block_dim", 1.5)),
    _case("seed-flag-negative-check", "check", flags=("--seed", "-1")),
    _case("out-is-file-spectrum", "spectrum", flags=("--out", "{file}")),
    _case("out-is-file-solve", "solve", flags=("--out", "{file}")),
    _case("window-flag-negative-spectrum", "spectrum", flags=("--window", "-3")),
    _case("orbit-text-value-verify", "verify", orbit_cell=(3, 1, "abc")),
    _case("orbit-float-label-verify", "verify", orbit_cell=(3, 0, "-5.5")),
    _case("orbit-inf-verify", "verify", orbit_cell=(3, 1, "inf")),
    _case("orbit-nan-verify", "verify", orbit_cell=(3, 2, "nan")),
]

# malformed sections that only some commands read: the config is rejected at
# load, so every command must exit 2
ONE_VERDICT_CHANGES = {
    "max_iter-text": ("solver", "max_iter", "x"),
    "solver-unknown-field": ("solver", "tolerance", 1e-8),
    "start-kind-unknown": ("solver", "starts", [{"kind": "nope", "amplitude": 1.0}]),
    "nu-negative": ("nonlinearity", "nu", -1),
    "nonlinearity-unknown-parameter": ("nonlinearity", "scale", 2.0),
    "boundary-periodic": ("window", "boundary", "periodic"),
    "window-misspelt-key": (None, "window", {"halfwidth": 8}),
    "nonlinearity-empty": (None, "nonlinearity", {}),
    "nonlinearity-null": (None, "nonlinearity", None),
    "window-null": (None, "window", None),
    "solver-null": (None, "solver", None),
    "matrix-entry-bool": (None, "matrices", [[True, -1.0, -1.0, 0.0]]),
    "matrix-entry-text": (None, "matrices", [["0", -1.0, -1.0, 0.0]]),
    "nu-bool": ("nonlinearity", "nu", True),
    "strength-bool": (None, "nonlinearity", {"family": "quadratic", "strength": True}),
    "start-amplitude-text": ("solver", "starts", [{"kind": "gaussian", "amplitude": "2"}]),
    "start-amplitude-bool": ("solver", "starts", [{"kind": "gaussian", "amplitude": True}]),
    "start-width-text": ("solver", "starts", [{"kind": "gaussian", "width": "2"}]),
    "start-width-null": ("solver", "starts", [{"kind": "gaussian", "width": None}]),
    "start-unknown-field": ("solver", "starts", [{"kind": "gaussian", "amplitud": 5}]),
    "start-width-linking": ("solver", "starts", [{"kind": "linking", "width": 2}]),
    "start-width-random": ("solver", "starts", [{"kind": "random", "width": 2}]),
}
# the offending value as the config spells it in JSON, not as Python would
ONE_VERDICT_TEXT = {
    "max_iter-text": 'max_iter must be an integer, got "x"',
    "start-kind-unknown": 'got "nope"',
    "boundary-periodic": 'got "periodic"',
    "nonlinearity-empty": "nonlinearity.family must be one of",
    "nonlinearity-null": "nonlinearity must be a JSON object, got null",
    "window-null": "window must be a JSON object, got null",
    "solver-null": "solver must be a JSON object, got null",
    "matrix-entry-bool": "entry must be a number, got true",
    "matrix-entry-text": 'entry must be a number, got "0"',
    "nu-bool": "nu must be a number, got true",
    "strength-bool": "strength must be a number, got true",
    "start-amplitude-text": 'amplitude must be a number, got "2"',
    "start-amplitude-bool": "amplitude must be a number, got true",
    "start-width-text": 'width must be a number, got "2"',
    "start-width-null": "width must be a number, got null",
    "start-width-linking": 'starts[0].width is read by gaussian starts only, not by kind "linking"',
    "start-width-random": 'starts[0].width is read by gaussian starts only, not by kind "random"',
}
MALFORMED_INPUTS += [
    _case(f"{name}-{command}", command, change, text=ONE_VERDICT_TEXT.get(name))
    for name, change in ONE_VERDICT_CHANGES.items()
    for command in ("check", "spectrum", "solve", "verify")
]


class TestMalformedInput:
    @pytest.mark.parametrize("command, change, flags, orbit_cell, text", MALFORMED_INPUTS)
    def test_exits_two_with_one_json_error(
        self, capsys, tmp_path, command, change, flags, orbit_cell, text
    ):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["window"]["half_width"] = 8
        if change is not None:
            section, key, value = change
            (raw[section] if section else raw)[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))  # writes NaN / Infinity literals as such
        existing_file = tmp_path / "file.txt"
        existing_file.write_text("not a directory\n")
        argv = command_argv(command, config, tmp_path)
        argv += [str(existing_file) if f == "{file}" else f for f in flags]
        if command == "verify":
            rows = [["n", "x1_1", "x2_1"]] + [[str(n), "0", "0"] for n in range(-8, 9)]
            if orbit_cell is not None:
                row, col, cell = orbit_cell
                rows[row][col] = cell
            (tmp_path / "orbit.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        report = json.loads(captured.out)
        assert set(report) == {"error"}
        assert text is None or text in report["error"], report["error"]
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv",
        [[], ["frob"], ["check"], ["check", "--config", "c.json", "--seed", "abc"],
         ["check", "--config", "c.json", "--bogus"]],
    )
    def test_bad_command_line_exits_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        assert set(json.loads(captured.out)) == {"error"}
        assert captured.err == ""

    @pytest.mark.parametrize(
        "command, extra",
        [("check", ["--out", "o"]), ("check", ["--window", "8"]),
         ("spectrum", ["--seed", "3"]), ("verify", ["--seed", "7"]),
         ("verify", ["--out", "o"]), ("bands", [])],
        ids=["check-out", "check-window", "spectrum-seed", "verify-seed", "verify-out", "bands"],
    )
    def test_argument_the_command_does_not_read_exits_two(
        self, capsys, tmp_path, command, extra
    ):
        argv = command_argv(command, builtin_config_path("model"), tmp_path) + extra
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        report = json.loads(captured.out)
        assert set(report) == {"error"}
        assert (extra or [command])[0] in report["error"]
        assert captured.err == ""

    def test_removed_fields_exit_two_naming_the_field(self, capsys, tmp_path):
        # the tolerances and the node-count override are not config fields
        for section, key, value in [
            ("solver", "grad_tol", 1e-10),
            ("solver", "trivial_tol", 1e-6),
            ("window", "num_nodes", 17),
        ]:
            raw = json.loads(builtin_config_path("model").read_text())
            raw[section][key] = value
            config = tmp_path / "config.json"
            config.write_text(json.dumps(raw))
            for command in ("check", "spectrum", "solve", "verify"):
                argv = command_argv(command, config, tmp_path)
                code = main(argv)
                captured = capsys.readouterr()
                assert code == EXIT_CONFIG_ERROR, (key, command)
                error = json.loads(captured.out)["error"]
                assert f"unknown {section} fields" in error and key in error, (key, command)

    @pytest.mark.parametrize(
        "command, flag", [("spectrum", "--window"), ("spectrum", "--grid"), ("solve", "--window")]
    )
    def test_too_large_to_allocate_exits_two(self, capsys, tmp_path, command, flag):
        # 10^15 nodes or grid points: numpy refuses the array at once
        argv = command_argv(command, builtin_config_path("model"), tmp_path)
        code = main(argv + [flag, "1000000000000000"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        report = json.loads(captured.out)
        assert set(report) == {"error"}
        assert "Unable to allocate" in report["error"]
        assert captured.err == ""
        # the failure comes before any file is written
        assert not list((tmp_path / "out").glob("*"))

    def test_deeply_nested_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["check", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        assert "not valid JSON" in json.loads(captured.out)["error"]
        assert captured.err == ""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()
