import dataclasses
import json
import math

import numpy as np
import pytest

from dhlattice import (
    Nonlinearity,
    SamplingPlan,
    check_hypotheses,
    eval_tildeR,
    family_log_saturating,
    family_quadratic,
    family_radial_rational,
)
from dhlattice.cli import builtin_config_path, load_config
from dhlattice.nonlinearity import SAMPLE_RADII, _row_norms, _sample_grid
from helpers import model_coefficients, period2_coefficients


# delta0 estimate (repr), the (R0) eigenvalue bounds, the (R3) gap test and
# the (R3) ratio at infinity of each shipped config's check report at seed 0
SHIPPED_REPORTS = {
    "model": ("0.040922403680301186", "lambda0 = 1, Lambda0 = 1", "4 > 3", "1.490e-15"),
    "period2": (
        "0.03950707780039562", "lambda0 = 0.8, Lambda0 = 1.2", "4 > 3.2", "1.490e-15"
    ),
    "n2": (
        "0.04339746592491284",
        "lambda0 = 0.878779, Lambda0 = 1.37122",
        "4 > 3.37122",
        "1.468e-15",
    ),
}


def fd_gradient(nl, n, z, h):
    g = np.empty_like(z)
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (nl.value(n, zp) - nl.value(n, zm)) / (2.0 * h)
    return g


def fd_hessian(nl, n, z, h):
    m = np.empty((z.size, z.size))
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        m[:, j] = (
            np.asarray(nl.gradient(n, zp)) - np.asarray(nl.gradient(n, zm))
        ) / (2.0 * h)
    return m


class TestTildeR:
    def test_quadratic_homogeneity_kills_tilde(self):
        rng = np.random.default_rng(30)
        nl = family_quadratic(2.5, block_dim=2)
        for _ in range(20):
            z = rng.standard_normal(4)
            scale = 1.0 + abs(nl.value(0, z))
            assert abs(eval_tildeR(nl, 0, z)) <= 1e-12 * scale

    def test_radial_rational_closed_form(self):
        nl = family_radial_rational(4.0)
        z = np.array([1.0, 0.0])  # r = 1
        assert eval_tildeR(nl, 0, z) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        nl = family_radial_rational(1.0)
        assert eval_tildeR(nl, 0, np.zeros(2)) == 0.0


class TestRadialRational:
    def test_origin(self):
        nl = family_radial_rational(4.0)
        assert nl.value(0, np.zeros(2)) == 0.0
        np.testing.assert_array_equal(nl.gradient(0, np.zeros(2)), np.zeros(2))

    def test_unit_radius_values(self):
        nl = family_radial_rational(4.0)
        z = np.array([1.0, 0.0])
        assert nl.value(0, z) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(nl.gradient(0, z), 3.0 * z, atol=1e-12)

    def test_asymptotic_remainder(self):
        nl = family_radial_rational(4.0)
        z = np.array([1e3, 0.0])  # r = 1e6
        remainder = np.linalg.norm(nl.gradient(0, z) - 4.0 * z) / np.linalg.norm(z)
        assert remainder == pytest.approx(4.0 / (1.0 + 1e6) ** 2, rel=1e-10)

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            family_radial_rational(0.0)
        with pytest.raises(ValueError):
            family_radial_rational(-1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        nl = family_radial_rational(4.0, block_dim=2)
        for _ in range(20):
            z = rng.standard_normal(4) * rng.choice([0.1, 1.0, 10.0])
            h = 1e-6 * (1.0 + np.linalg.norm(z))
            approx = fd_gradient(nl, 0, z, h)
            exact = np.asarray(nl.gradient(0, z))
            denom = max(1.0, np.linalg.norm(exact))
            assert np.linalg.norm(approx - exact) / denom < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        nl = family_radial_rational(4.0, block_dim=2)
        for _ in range(10):
            z = rng.standard_normal(4)
            h = 1e-6 * (1.0 + np.linalg.norm(z))
            approx = fd_hessian(nl, 0, z, h)
            exact = np.asarray(nl.hessian(0, z))
            denom = max(1.0, np.linalg.norm(exact))
            assert np.linalg.norm(approx - exact) / denom < 1e-5


class TestLogSaturating:
    def test_origin(self):
        nl = family_log_saturating(4.0)
        assert nl.value(0, np.zeros(2)) == 0.0

    def test_unit_radius_values(self):
        nl = family_log_saturating(4.0)
        z = np.array([0.0, 1.0])
        assert nl.value(0, z) == pytest.approx(2.0 * (1.0 - math.log(2.0)), abs=1e-12)
        assert eval_tildeR(nl, 0, z) == pytest.approx(
            2.0 * (math.log(2.0) - 0.5), abs=1e-12
        )

    def test_tilde_monotone_on_log_grid(self):
        nl = family_log_saturating(4.0)
        radii_sq = np.geomspace(1e-6, 1e6, 61)
        values = [eval_tildeR(nl, 0, np.array([np.sqrt(r), 0.0])) for r in radii_sq]
        diffs = np.diff(values)
        assert (diffs >= -1e-12).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        nl = family_log_saturating(3.0, block_dim=1)
        for _ in range(20):
            z = rng.standard_normal(2)
            h = 1e-6 * (1.0 + np.linalg.norm(z))
            approx = fd_gradient(nl, 0, z, h)
            exact = np.asarray(nl.gradient(0, z))
            assert np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact)) < 1e-6

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            family_log_saturating(-2.0)


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "factory", [family_radial_rational, family_log_saturating, family_quadratic]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_families_reject(self, factory, bad):
        with pytest.raises(ValueError, match="finite"):
            factory(bad)

    @pytest.mark.parametrize(
        "factory", [family_radial_rational, family_log_saturating, family_quadratic]
    )
    @pytest.mark.parametrize("bad", [True, "4", None])
    def test_families_reject_non_numbers(self, factory, bad):
        with pytest.raises(ValueError, match="must be a number"):
            factory(bad)

    def test_quadratic_accepts_zero(self):
        assert family_quadratic(0.0).lambda_infinity == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_s_infinity_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Nonlinearity(
                block_dim=1,
                period=1,
                value=lambda n, z: 0.0,
                gradient=lambda n, z: np.zeros(2),
                s_infinity=np.full((1, 2, 2), bad),
            )

    def test_nan_at_origin_rejected(self):
        with pytest.raises(ValueError, match="value"):
            Nonlinearity(
                block_dim=1,
                period=1,
                value=lambda n, z: math.nan,
                gradient=lambda n, z: np.zeros(2),
                s_infinity=np.zeros((1, 2, 2)),
            )


class TestNonlinearityInvariants:
    def test_origin_enforced(self):
        with pytest.raises(ValueError, match="value"):
            Nonlinearity(
                block_dim=1,
                period=1,
                value=lambda n, z: 1.0,
                gradient=lambda n, z: np.zeros(2),
                s_infinity=np.zeros((1, 2, 2)),
            )
        with pytest.raises(ValueError, match="gradient"):
            Nonlinearity(
                block_dim=1,
                period=1,
                value=lambda n, z: 0.0,
                gradient=lambda n, z: np.ones(2),
                s_infinity=np.zeros((1, 2, 2)),
            )

    def test_lambda_infinity_is_min_eigenvalue(self):
        s_inf = np.array([np.diag([3.0, 5.0]), np.diag([2.0, 7.0])])
        nl = Nonlinearity(
            block_dim=1,
            period=2,
            value=lambda n, z: 0.0,
            gradient=lambda n, z: np.zeros(2),
            s_infinity=s_inf,
        )
        assert nl.lambda_infinity == 2.0

    def test_asymmetric_s_infinity_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Nonlinearity(
                block_dim=1,
                period=1,
                value=lambda n, z: 0.0,
                gradient=lambda n, z: np.zeros(2),
                s_infinity=np.array([[[0.0, 1.0], [0.0, 0.0]]]),
            )

    def test_nonnegativity_of_families_on_samples(self):
        rng = np.random.default_rng(34)
        for nl in (family_radial_rational(4.0), family_log_saturating(2.0)):
            for _ in range(200):
                z = rng.standard_normal(2) * rng.choice([1e-4, 0.1, 1.0, 10.0, 1e4])
                r = nl.value(0, z)
                assert r >= -1e-12
                scale = 1.0 + abs(r) + abs(0.5 * np.dot(nl.gradient(0, z), z))
                assert eval_tildeR(nl, 0, z) >= -1e-10 * scale


class TestCheckHypotheses:
    def test_model_family_all_pass(self):
        report = check_hypotheses(family_radial_rational(4.0), model_coefficients())
        assert report.all_pass
        assert {k: v.status for k, v in report.checks.items()} == {
            "R0": "pass", "R1": "pass", "R2": "pass", "R3": "pass", "R4": "pass",
        }
        assert report.delta0_estimate is not None and report.delta0_estimate > 0
        assert "gap test passed (4 > 3)" in report.checks["R3"].detail

    def test_gap_violation_fails_only_r3(self):
        report = check_hypotheses(family_radial_rational(2.5), model_coefficients())
        assert report.failed == ["R3"]
        assert "2 + Lambda0 = 3" in report.checks["R3"].detail
        assert report.checks["R3"].witness["required_bound"] == pytest.approx(3.0)

    def test_quadratic_fails_only_r2(self):
        report = check_hypotheses(family_quadratic(4.0), model_coefficients())
        assert report.failed == ["R2"]
        assert report.checks["R4"].status == "inconclusive"
        assert report.delta0_estimate is None

    def test_log_saturating_all_pass(self):
        report = check_hypotheses(family_log_saturating(4.0), model_coefficients())
        assert report.all_pass

    def test_periodicity_violation_detected(self):
        def value(n, z):
            z = np.asarray(z)
            return (1.0 + (n % 2)) * np.vecdot(z, z) ** 2

        def gradient(n, z):
            z = np.asarray(z)
            return ((1.0 + (n % 2)) * 4.0 * np.vecdot(z, z))[..., None] * z

        nl = Nonlinearity(
            block_dim=1,
            period=1,  # declared period 1, actual dependence has period 2
            value=value,
            gradient=gradient,
            s_infinity=4.0 * np.eye(2)[None, :, :],
        )
        report = check_hypotheses(nl, model_coefficients())
        assert report.checks["R1"].status == "fail"
        assert report.checks["R1"].witness is not None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_sample_fails_r1_with_witness(self):
        nl = family_radial_rational(1e300)  # the profile overflows at large |z|
        report = check_hypotheses(nl, model_coefficients())
        r1 = report.checks["R1"]
        assert r1.status == "fail" and "not finite" in r1.detail
        for name in ("R2", "R3", "R4"):
            check = report.checks[name]
            assert check.status == "inconclusive" and "(R1)" in check.detail
            assert check.witness is None
        assert report.checks["R3"].detail.startswith("gap test passed")
        assert report.delta0_estimate is None
        n, radius = r1.witness["n"], r1.witness["radius"]
        direction = np.array(r1.witness["direction"])
        # the witness is the first sample, by radius, where R or grad R
        # overflows; the profile is radial, so one direction stands for all
        i = int(np.flatnonzero(SAMPLE_RADII == radius)[0])
        assert i > 0
        with np.errstate(over="ignore", invalid="ignore"):
            at, below = radius * direction, SAMPLE_RADII[i - 1] * direction
            assert not np.isfinite([nl.value(n, at), *nl.gradient(n, at)]).all()
            assert np.isfinite([nl.value(n, below), *nl.gradient(n, below)]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_gradients_keep_finite_norms(self):
        # |grad R| reaches 1e168 on the grid: its square overflows, the entries do not
        nl = family_radial_rational(1e160)
        plan = SamplingPlan.default()
        _, _, _, _, grad_norm, asym_ratio, finite, _ = _sample_grid(nl, plan)
        assert finite.all()
        grad_ratio = grad_norm / SAMPLE_RADII[:, None]
        assert np.isfinite(grad_ratio).all() and np.isfinite(asym_ratio).all()
        assert grad_ratio.max() == pytest.approx(1e160, rel=1e-12)
        report = check_hypotheses(nl, model_coefficients())
        assert report.checks["R1"].status == "pass"
        assert report.growth_envelope["constant"] == pytest.approx(2e160, rel=1e-12)

    def test_row_norms_exact_scaling(self):
        rng = np.random.default_rng(36)
        rows = rng.standard_normal((50, 4)) * rng.choice([1e-100, 1.0, 1e100], (50, 1))
        np.testing.assert_array_equal(_row_norms(rows), np.sqrt(np.vecdot(rows, rows)))
        huge = 2.0**700
        big = np.array([[3.0 * huge, 4.0 * huge], [0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]])
        np.testing.assert_array_equal(_row_norms(big), [5.0 * huge, 0.0, np.inf, np.nan])

    def test_deterministic_under_fixed_seed(self):
        plan = SamplingPlan.default(seed=7)
        a = check_hypotheses(family_radial_rational(4.0), model_coefficients(), plan)
        b = check_hypotheses(family_radial_rational(4.0), model_coefficients(), plan)
        assert a.to_dict() == b.to_dict()

    def test_report_json_serializable(self):
        report = check_hypotheses(family_radial_rational(4.0), period2_coefficients())
        json.dumps(report.to_dict())

    def test_fail_entries_carry_witness(self):
        report = check_hypotheses(family_quadratic(4.0), model_coefficients())
        assert report.checks["R2"].witness is not None

    @pytest.mark.parametrize("name", sorted(SHIPPED_REPORTS))
    def test_shipped_reports_are_pinned(self, name):
        # every figure of the check report on the shipped configs at seed 0,
        # so a change to the sample grid that drifts the report shows here
        delta0, lam, gap, at_infinity = SHIPPED_REPORTS[name]
        config = load_config(str(builtin_config_path(name)))
        report = check_hypotheses(
            config.build_nonlinearity(), config.build_coefficients(), SamplingPlan.default(0)
        )
        assert repr(report.delta0_estimate) == delta0
        assert report.growth_envelope == {"p": 4.0, "eps": 0.1, "constant": 5.739063213174844}
        assert {k: (v.status, v.detail) for k, v in report.checks.items()} == {
            "R0": ("pass", f"J0*S(n) symmetric positive definite for all n; {lam}"),
            "R1": ("pass", "periodicity residual 0.000e+00 within 1e-12"),
            "R2": ("pass", "|grad R|/|z| near 0: limit ratio 8.000e-16 below 1e-06"),
            "R3": (
                "pass",
                f"gap test passed ({gap}); |grad R - S_inf z|/|z| at infinity: "
                f"limit ratio {at_infinity} below 1e-06",
            ),
            "R4": (
                "pass",
                f"tilde R >= 0 on all samples; uniform delta0 estimate {float(delta0):.6g} "
                f"(scan over (0, lambda0) with {lam.split(',')[0]})",
            ),
        }


class TestGrowthEnvelope:
    def test_fitted_constant_verifies(self):
        nl = family_radial_rational(4.0)
        fit = check_hypotheses(nl, model_coefficients()).growth_envelope
        assert (fit["p"], fit["eps"]) == (4.0, 0.1)
        c = fit["constant"]
        assert 0.0 < c < 100.0
        # the constant is fitted on the plan grid; off-grid samples get a margin
        rng = np.random.default_rng(35)
        for _ in range(300):
            z = rng.standard_normal(2)
            z *= rng.choice([1e-3, 0.3, 1.0, 3.0, 1e3]) / np.linalg.norm(z)
            lhs = np.linalg.norm(nl.gradient(0, z))
            rhs = 0.1 * np.linalg.norm(z) + c * np.linalg.norm(z) ** 3
            assert lhs <= 1.1 * rhs + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_sample_leaves_no_constant(self):
        # a gradient that is NaN beyond |z|^2 = 1e10: the fit over the finite
        # samples alone would bound nothing there, so no constant is reported
        base = family_radial_rational(4.0)

        def gradient(n, z):
            z = np.asarray(z, dtype=float)
            g = np.asarray(base.gradient(n, z), dtype=float)
            return np.where((np.vecdot(z, z) > 1e10)[..., None], np.nan, g)

        nl = dataclasses.replace(base, gradient=gradient)
        report = check_hypotheses(nl, model_coefficients())
        r1 = report.checks["R1"]
        assert r1.status == "fail"
        assert r1.detail.startswith("R or grad R is not finite at 384 of 2048 samples")
        assert report.growth_envelope["constant"] is None
