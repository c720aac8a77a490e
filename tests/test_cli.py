import json

import numpy as np
import pytest

from dhlattice.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NO_ORBIT,
    EXIT_OK,
    ProblemConfig,
    build_parser,
    builtin_config_path,
    load_config,
    main,
)
from helpers import reject_constant


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=reject_constant)


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

    @pytest.mark.parametrize("name", ["model", "period2", "n2"])
    def test_round_trip_identity(self, name, tmp_path):
        config = load_config(str(builtin_config_path(name)))
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(config.to_dict()))
        again = load_config(str(path))
        assert again == config
        assert again.to_dict() == config.to_dict()

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


class TestCheckCommand:
    def test_model_passes(self, capsys):
        code, report = run_cli(
            capsys, "check", "--config", str(builtin_config_path("model"))
        )
        assert code == EXIT_OK
        assert report["all_pass"] is True
        assert report["delta0_estimate"] > 0

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
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "verify":
            argv.append(str(tmp_path / "orbit.csv"))
        code = main(argv)
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

    def test_bands_alias(self, capsys, tmp_path):
        code, summary = run_cli(
            capsys,
            "bands",
            "--config", str(builtin_config_path("model")),
            "--grid", "4",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert (tmp_path / "bands.csv").exists()

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


    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_periodic_boundary_exits_two(self, capsys, tmp_path, command):
        raw = json.loads(builtin_config_path("model").read_text())
        raw["window"]["boundary"] = "periodic"
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(raw))
        extra = [str(tmp_path / "orbit.csv")] if command == "verify" else []
        code, report = run_cli(
            capsys, command, "--config", str(path), "--out", str(tmp_path / "o"), *extra
        )
        assert code == EXIT_CONFIG_ERROR
        assert "zero_pad" in report["error"]
        assert not (tmp_path / "o").exists()

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


def _case(case_id, command, change=None, flags=(), orbit_cell=None):
    """One malformed input: a model.json field change, extra flags, or an orbit CSV edit."""
    return pytest.param(command, change, list(flags), orbit_cell, id=case_id)


MALFORMED_INPUTS = [
    _case("half_width-text-solve", "solve", ("window", "half_width", "abc")),
    _case("half_width-text-spectrum", "spectrum", ("window", "half_width", "abc")),
    _case("half_width-list-solve", "solve", ("window", "half_width", [1])),
    _case("half_width-list-spectrum", "spectrum", ("window", "half_width", [1])),
    _case("half_width-inf-spectrum", "spectrum", ("window", "half_width", float("inf"))),
    _case("num_nodes-text-solve", "solve", ("window", "num_nodes", "x")),
    _case("seed-negative-solve", "solve", ("solver", "seed", -1)),
    _case("seed-float-solve", "solve", ("solver", "seed", 1.5)),
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


class TestMalformedInput:
    @pytest.mark.parametrize("command, change, flags, orbit_cell", MALFORMED_INPUTS)
    def test_exits_two_with_one_json_error(
        self, capsys, tmp_path, command, change, flags, orbit_cell
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
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        argv += [str(existing_file) if f == "{file}" else f for f in flags]
        if command == "verify":
            rows = [["n", "x1_1", "x2_1"]] + [[str(n), "0", "0"] for n in range(-8, 9)]
            if orbit_cell is not None:
                row, col, text = orbit_cell
                rows[row][col] = text
            orbit = tmp_path / "orbit.csv"
            orbit.write_text("\n".join(",".join(r) for r in rows) + "\n")
            argv.append(str(orbit))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        assert set(json.loads(captured.out)) == {"error"}
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
