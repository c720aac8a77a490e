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
    growth_envelope_constant,
)
from helpers import model_coefficients, period2_coefficients


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


class TestGrowthEnvelope:
    def test_fitted_constant_verifies(self):
        nl = family_radial_rational(4.0)
        plan = SamplingPlan.default()
        fit = growth_envelope_constant(nl, plan, p=4.0, eps=0.1)
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
