import numpy as np
import pytest

from dhlattice import (
    BlockVector,
    FunctionalContext,
    SolveOptions,
    StartStrategy,
    Window,
    assemble,
    decay_fit,
    energy_identity_check,
    family_radial_rational,
    grad_Phi,
    initial_guess,
    l2_inner,
    lp_norm,
    manufactured_problem,
    newton_solve,
    residual_DHS,
    verify_orbit,
    window_stability,
)
from helpers import model_coefficients, period2_coefficients, random_block_vector


def model_ctx(half_width=32):
    return FunctionalContext(
        assemble(Window.zero_pad(half_width), model_coefficients()),
        family_radial_rational(4.0),
    )


def verify_on(ctx, x):
    """Every orbit check of x, the window-doubling re-solve on ctx's data."""
    return verify_orbit(
        ctx,
        x,
        ctx_builder=lambda w: FunctionalContext(assemble(w, ctx.op.coeffs), ctx.nl),
        solve_opts=SolveOptions(starts=()),
    )


@pytest.fixture(scope="module")
def model_orbit():
    ctx = model_ctx(64)
    x0 = initial_guess(StartStrategy("gaussian", 1.0, width=2.0), ctx, 1.0)
    result = newton_solve(ctx, x0, SolveOptions(), start_tag="g")
    assert result.success
    return ctx, result.orbit


class TestResidualDHS:
    def test_zero_orbit_zero_residual(self):
        coeffs = model_coefficients()
        nl = family_radial_rational(4.0)
        x = BlockVector.zeros(Window.zero_pad(8), 1)
        res, res_inf = residual_DHS(coeffs, nl, x)
        assert res_inf == 0.0
        np.testing.assert_array_equal(res, np.zeros_like(x.entries))

    def test_blockwise_rotation_of_gradient(self):
        rng = np.random.default_rng(50)
        ctx = model_ctx(10)
        for _ in range(25):
            x = random_block_vector(ctx.window, 1, rng)
            res, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, x)
            g = grad_Phi(ctx, x)
            # per node the residual is the quarter-turn (-g2, g1)
            np.testing.assert_allclose(res[:, 0], -g.entries[:, 1], atol=1e-12)
            np.testing.assert_allclose(res[:, 1], g.entries[:, 0], atol=1e-12)
            assert res_inf == pytest.approx(lp_norm(g, np.inf), abs=1e-12)

    def test_blockwise_rotation_general_period(self):
        rng = np.random.default_rng(51)
        ctx = FunctionalContext(
            assemble(Window.zero_pad(9), period2_coefficients()),
            family_radial_rational(4.0),
        )
        for _ in range(10):
            x = random_block_vector(ctx.window, 1, rng)
            res, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, x)
            assert res_inf == pytest.approx(lp_norm(grad_Phi(ctx, x), np.inf), abs=1e-12)

    def test_converged_orbit_small_residual(self, model_orbit):
        ctx, orbit = model_orbit
        _, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, orbit)
        assert res_inf < 1e-9

    def test_periodic_window_rejected(self):
        coeffs = model_coefficients()
        x = BlockVector.zeros(Window.periodic(8), 1)
        with pytest.raises(ValueError):
            residual_DHS(coeffs, family_radial_rational(4.0), x)
        ctx = FunctionalContext(assemble(Window.periodic(8), coeffs), family_radial_rational(4.0))
        with pytest.raises(ValueError):
            verify_on(ctx, x)


class TestDecayFit:
    def test_exact_geometric_input(self):
        w = Window.zero_pad(20)
        v = np.array([0.6, 0.8])
        entries = 0.5 ** np.abs(w.nodes)[:, None] * v
        fit = decay_fit(BlockVector(w, 1, entries))
        assert fit.conclusive
        assert fit.rate == pytest.approx(0.5, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_constant_tail_rate_one(self):
        w = Window.zero_pad(20)
        fit = decay_fit(BlockVector(w, 1, np.ones((41, 2))))
        assert fit.conclusive
        assert fit.rate == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_amplitudes_still_exact(self):
        w = Window.zero_pad(20)
        norms = np.where(w.nodes < 0, 5.0, 1.0) * 0.4 ** np.abs(w.nodes)
        entries = np.zeros((41, 2))
        entries[:, 0] = norms
        fit = decay_fit(BlockVector(w, 1, entries))
        assert fit.rate == pytest.approx(0.4, abs=1e-9)
        assert fit.r_squared > 0.999999

    def test_too_few_usable_nodes_inconclusive(self):
        w = Window.zero_pad(20)
        entries = np.zeros((41, 2))
        entries[20] = [1.0, 0.0]  # tails are identically zero
        fit = decay_fit(BlockVector(w, 1, entries))
        assert not fit.conclusive

    def test_converged_orbit(self, model_orbit):
        _, orbit = model_orbit
        fit = decay_fit(orbit)
        assert fit.conclusive and fit.rate < 1.0 and fit.r_squared > 0.99
        assert fit.rate == pytest.approx(0.5, abs=1e-6)


class TestEnergyIdentity:
    def test_zero(self):
        ctx = model_ctx(8)
        assert energy_identity_check(ctx, BlockVector.zeros(ctx.window, 1)) == 0.0

    def test_noncritical_equals_half_gradient_pairing(self):
        rng = np.random.default_rng(52)
        ctx = model_ctx(10)
        for _ in range(25):
            x = random_block_vector(ctx.window, 1, rng)
            value = energy_identity_check(ctx, x)
            assert value == pytest.approx(
                0.5 * abs(l2_inner(grad_Phi(ctx, x), x)), abs=1e-12
            )

    def test_converged_orbit(self, model_orbit):
        ctx, orbit = model_orbit
        assert energy_identity_check(ctx, orbit) < 1e-8


class TestWindowStability:
    def test_manufactured_fixture_is_exact(self):
        mp = manufactured_problem()
        drift = window_stability(mp.ctx_builder, mp.orbit, SolveOptions())
        assert drift < 1e-12

    def test_converged_orbit(self, model_orbit):
        ctx, orbit = model_orbit
        coeffs = ctx.op.coeffs
        nl = ctx.nl

        def builder(w):
            return FunctionalContext(assemble(w, coeffs), nl)

        drift = window_stability(builder, orbit, SolveOptions())
        assert drift < 1e-8


class TestManufacturedFixture:
    def test_residual_below_checker_proof_threshold(self):
        mp = manufactured_problem()
        _, res_inf = residual_DHS(mp.coeffs, mp.nl, mp.orbit)
        assert res_inf < 1e-12

    def test_decay_matches_construction(self):
        mp = manufactured_problem(decay=0.1)
        fit = decay_fit(mp.orbit)
        assert fit.rate == pytest.approx(0.1, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_full_verification_passes(self):
        mp = manufactured_problem()
        report = verify_orbit(
            mp.ctx,
            mp.orbit,
            ctx_builder=mp.ctx_builder,
            solve_opts=SolveOptions(),
        )
        assert report.passed
        assert report.dhs_residual_inf < 1e-12
        assert report.window_stability_inf < 1e-12


class TestVerifyOrbit:
    def test_corrupted_entry_localizes(self, model_orbit):
        ctx, orbit = model_orbit
        entries = np.array(orbit.entries)
        center = 0 - orbit.window.lo
        entries[center, 0] += 0.1
        bad = BlockVector(orbit.window, 1, entries)
        res, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, bad)
        assert res_inf > 1e-3
        node_norms = np.linalg.norm(res, axis=1)
        hot = {int(n) for n, v in zip(orbit.window.nodes, node_norms) if v > 1e-3}
        assert hot and hot.issubset({-1, 0, 1})
        report = verify_on(ctx, bad)
        assert not report.passed
        assert not report.checks["residual"]

    def test_zero_orbit_fails_nontriviality(self):
        ctx = model_ctx(8)
        report = verify_on(ctx, BlockVector.zeros(ctx.window, 1))
        assert not report.passed
        assert not report.checks["nontrivial"]
        # the re-solve from zero converges to the trivial root, which fails too
        assert report.window_stability_inf == float("inf")
        assert not report.checks["window_stability"]

    def test_report_serializable(self, model_orbit):
        import json

        ctx, orbit = model_orbit
        report = verify_on(ctx, orbit)
        assert report.passed
        assert set(report.checks) == {
            "residual", "energy_identity", "nontrivial", "decay", "window_stability"
        }
        json.dumps(report.to_dict())

    def test_one_action_evaluation_per_verify(self, model_orbit, monkeypatch):
        # the energy identity reads Phi once; the window-doubling re-solve
        # reads only its iterate and status, so it evaluates no action
        import dhlattice.solver as solver_module
        import dhlattice.verify as verify_module

        ctx, orbit = model_orbit
        calls = []
        for module in (solver_module, verify_module):
            phi = module.Phi

            def counted(*args, _phi=phi, _name=module.__name__, **kwargs):
                calls.append(_name)
                return _phi(*args, **kwargs)

            monkeypatch.setattr(module, "Phi", counted)
        report = solver_module.verify_candidate(ctx, orbit, SolveOptions())
        assert report.passed
        assert calls == ["dhlattice.verify"]
