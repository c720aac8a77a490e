import json

import pytest

from dhlattice.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NO_ORBIT,
    EXIT_OK,
    ProblemConfig,
    builtin_config_path,
    load_config,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


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
