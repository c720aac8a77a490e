import dataclasses

import numpy as np
import pytest

from dhlattice import (
    BlockVector,
    ConfigurationError,
    FunctionalContext,
    NumericalError,
    Phi,
    SolveOptions,
    StartStrategy,
    Window,
    assemble,
    continuation,
    deduplicate_results,
    eigendecompose,
    family_quadratic,
    family_radial_rational,
    initial_guess,
    lp_norm,
    multi_start,
    newton_solve,
    shift,
)
from dhlattice.cli import builtin_config_path, load_config
from dhlattice.solver import STAGNATION_RATIO, STAGNATION_WINDOW
from helpers import model_coefficients, random_block_vector


def model_ctx(half_width=64):
    return FunctionalContext(
        assemble(Window.zero_pad(half_width), model_coefficients()),
        family_radial_rational(4.0),
    )


@pytest.fixture(scope="module")
def solved_model():
    ctx = model_ctx()
    x0 = initial_guess("gaussian", ctx, 1.0, width=2.0)
    result = newton_solve(ctx, x0, SolveOptions(), start_tag="gaussian(a=1,w=2)")
    assert result.success
    return ctx, result


class TestInitialGuess:
    def test_linking_zero_amplitude(self):
        ctx = model_ctx(8)
        x = initial_guess("linking", ctx, 0.0)
        assert lp_norm(x, 2) == 0.0

    def test_linking_normalization(self):
        ctx = model_ctx(8)
        for amp in (0.5, 1.0, 7.0):
            x = initial_guess("linking", ctx, amp)
            assert lp_norm(x, 2) == pytest.approx(amp, abs=1e-12)

    def test_linking_is_smallest_positive_eigenvector(self):
        ctx = model_ctx(8).with_decomposition()
        x = initial_guess("linking", ctx, 1.0)
        dec = ctx.dec
        lam = dec.eigenvalues[dec.split_index]
        applied = ctx.op.apply(x)
        np.testing.assert_allclose(applied.entries, lam * x.entries, atol=1e-10)

    def test_gaussian_profile(self):
        ctx = model_ctx(8)
        x = initial_guess("gaussian", ctx, 2.0, width=3.0)
        center = x.window.index_of(0)
        np.testing.assert_allclose(
            x.entries[center], 2.0 * np.ones(2) / np.sqrt(2.0), atol=1e-12
        )
        profile = np.linalg.norm(x.entries, axis=1)
        assert profile[center] == profile.max()

    def test_random_scaling(self):
        ctx = model_ctx(8)
        x = initial_guess("random", ctx, 3.0, rng=np.random.default_rng(5))
        assert lp_norm(x, 2) == pytest.approx(3.0, abs=1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            initial_guess("annealing", model_ctx(8), 1.0)

    @pytest.mark.parametrize(
        "kind,amplitude,width",
        [("annealing", 1.0, None), (None, 1.0, None), ("gaussian", -1.0, 2.0),
         ("gaussian", float("nan"), 2.0), ("gaussian", 1.0, 0.0), ("random", float("inf"), None)],
    )
    def test_start_strategy_validated(self, kind, amplitude, width):
        with pytest.raises(ConfigurationError):
            StartStrategy(kind, amplitude, width)

    def test_action_sign_change_along_linking_ray(self):
        ctx = model_ctx(64).with_decomposition()
        e = initial_guess("linking", ctx, 1.0)
        values = []
        for t in np.geomspace(1e-2, 1e2, 25):
            values.append(Phi(ctx, e.with_entries(t * e.entries)))
        values = np.array(values)
        assert values[0] > 0.0
        assert values.min() < 0.0  # bracket exists inside [1e-2, 1e2]


class TestNewtonSolve:
    def test_zero_start_is_rejected_trivial(self):
        ctx = model_ctx(16)
        result = newton_solve(ctx, BlockVector.zeros(ctx.window, 1), SolveOptions())
        assert result.status == "trivial"
        assert result.iterations <= 1
        assert result.verification is None

    def test_model_orbit_end_to_end(self, solved_model):
        _, result = solved_model
        assert result.grad_inf_norm < 1e-10
        assert lp_norm(result.orbit, np.inf) > 1e-3
        assert result.phi_value > 0.0
        report = result.verification
        assert report.passed
        assert report.dhs_residual_inf < 1e-9
        assert report.decay.rate < 1.0
        assert report.decay.r_squared > 0.99
        assert report.energy_identity_defect < 1e-8
        assert report.window_stability_inf < 1e-8

    def test_window_doubling_re_solve_is_stable(self, solved_model):
        ctx, result = solved_model
        from dhlattice import reembed

        doubled = Window.zero_pad(128)
        big_ctx = FunctionalContext(
            assemble(doubled, model_coefficients()), family_radial_rational(4.0)
        )
        seeded = newton_solve(
            big_ctx, reembed(result.orbit, doubled), SolveOptions(), start_tag="reembed"
        )
        assert seeded.status == "verified"
        offset = result.orbit.window.lo - doubled.lo
        inner = seeded.orbit.entries[offset : offset + result.orbit.window.num_nodes]
        drift = np.linalg.norm(inner - result.orbit.entries, axis=1).max()
        assert drift < 1e-8

    def test_quadratic_convergence_tail(self, solved_model):
        _, result = solved_model
        history = result.diagnostics["residual_history"]
        tail = [h for h in history if h > 0]
        # last three transitions above the floating-point floor
        pairs = [
            (tail[i], tail[i + 1])
            for i in range(max(0, len(tail) - 4), len(tail) - 1)
            if tail[i + 1] > 1e-13 and tail[i] < 1e-2
        ]
        assert pairs, "no superlinear tail transitions recorded"
        for fk, fk1 in pairs:
            assert fk1 <= 10.0 * fk**1.5

    def test_determinism(self):
        ctx = model_ctx(32)
        opts = SolveOptions(seed=3)
        runs = []
        for _ in range(2):
            x0 = initial_guess("gaussian", ctx, 2.0, width=2.0)
            runs.append(newton_solve(ctx, x0, opts, start_tag="g"))
        assert runs[0].iterations == runs[1].iterations
        np.testing.assert_array_equal(runs[0].orbit.entries, runs[1].orbit.entries)
        assert runs[0].phi_value == runs[1].phi_value

    def test_periodic_context_rejected(self):
        ctx = FunctionalContext(
            assemble(Window.periodic(16), model_coefficients()), family_radial_rational(4.0)
        )
        x0 = initial_guess("gaussian", ctx, 1.0, width=2.0)
        with pytest.raises(ConfigurationError, match="zero-pad"):
            newton_solve(ctx, x0)
        with pytest.raises(ConfigurationError, match="zero-pad"):
            multi_start(ctx, SolveOptions(starts=(StartStrategy("linking", 1.0),)))

    def test_singular_jacobian_handled(self):
        # quadratic interaction with strength equal to an operator eigenvalue
        # makes the Newton matrix singular at every iterate; on a small and a
        # large window the search must still end in a documented status with
        # finite numbers (the line search accepts only steps that reduce ||F||)
        coeffs = model_coefficients()
        for half_width in (8, 260):
            op = assemble(Window.zero_pad(half_width), coeffs)
            lam = eigendecompose(op).eigenvalues[-1]
            ctx = FunctionalContext(op, family_quadratic(float(lam)))
            rng = np.random.default_rng(6)
            x0 = random_block_vector(ctx.window, 1, rng)
            result = newton_solve(ctx, x0, SolveOptions(max_iter=50))
            assert result.status in ("trivial", "unverified", "no_convergence"), half_width
            assert np.isfinite(result.grad_inf_norm)
            assert np.isfinite(result.orbit.entries).all()


def stuck_model_start(ctx):
    # model's gaussian(a=0.5,w=2) start: Newton stalls at |F|_inf ~ 0.07
    return initial_guess("gaussian", ctx, 0.5, width=2.0)


class TestStopReason:
    def test_stalled_start_stops_early(self):
        ctx = model_ctx()
        result = newton_solve(ctx, stuck_model_start(ctx), SolveOptions())
        assert result.status == "no_convergence"
        assert result.diagnostics["stop_reason"] == "stagnated"
        assert STAGNATION_WINDOW <= result.iterations <= 2 * STAGNATION_WINDOW
        best = np.minimum.accumulate(result.diagnostics["residual_history"])
        assert best[-1] > STAGNATION_RATIO * best[-1 - STAGNATION_WINDOW]
        assert best[-2] <= STAGNATION_RATIO * best[-2 - STAGNATION_WINDOW]

    def test_iteration_cap_before_the_window(self):
        ctx = model_ctx()
        result = newton_solve(ctx, stuck_model_start(ctx), SolveOptions(max_iter=20))
        assert result.status == "no_convergence"
        assert result.iterations == 20
        assert result.diagnostics["stop_reason"] == "max_iter"

    def test_non_finite_newton_matrix_goes_to_rescue(self):
        # the LU gives no finite step, and the rescue's descent direction is
        # NaN, so the start stops without taking a step
        base = family_quadratic(2.0)
        nl = dataclasses.replace(
            base, hessian=lambda n, z: np.full(np.shape(z) + (2,), np.nan)
        )
        ctx = FunctionalContext(assemble(Window.zero_pad(8), model_coefficients()), nl)
        x0 = initial_guess("gaussian", ctx, 1.0, width=2.0)
        result = newton_solve(ctx, x0)
        assert result.status == "no_convergence"
        assert result.iterations == 1
        assert result.diagnostics["stop_reason"] == "line_search_failed"
        assert result.diagnostics["regularizations"] == 1
        assert result.diagnostics["fallback_steps"] == 0
        assert np.isfinite(result.orbit.entries).all()
        np.testing.assert_array_equal(result.orbit.entries, x0.entries)

    def test_gradient_evaluations_counted(self, monkeypatch):
        ctx = model_ctx(32)
        calls = []
        original = FunctionalContext.gradient_entries

        def counting(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(FunctionalContext, "gradient_entries", counting)
        x0 = initial_guess("gaussian", ctx, 2.0, width=2.0)
        result = newton_solve(ctx, x0, SolveOptions(), run_verification=False)
        assert result.diagnostics["gradient_evaluations"] == len(calls) > result.iterations


# Every start of the shipped configs, run as `solve` runs them: (start,
# status, Newton iterations, stop reason, rescue steps, gradient
# evaluations).  None marks the one stalled start, whose iteration count is
# bounded instead.  Any step that moves changes the last two counts.
SHIPPED_STARTS = {
    "model": [
        ("gaussian(a=1,w=2)", "verified", 10, "polish_floor", 0, 13),
        ("gaussian(a=2,w=2)", "verified", 6, "polish_floor", 0, 7),
        ("gaussian(a=0.5,w=2)", "no_convergence", None, "stagnated", 3, 1085),
        ("linking(a=1)", "trivial", 4, "polish_floor", 0, 5),
        ("random(a=1)", "trivial", 4, "polish_floor", 0, 5),
    ],
    "period2": [
        ("gaussian(a=1,w=2)", "verified", 63, "polish_floor", 6, 1272),
        ("gaussian(a=2,w=2)", "verified", 44, "polish_floor", 4, 933),
        ("linking(a=1)", "trivial", 4, "polish_floor", 0, 5),
    ],
    "n2": [
        ("gaussian(a=1,w=2)", "verified", 15, "polish_floor", 0, 50),
        ("gaussian(a=2,w=2)", "verified", 38, "polish_floor", 2, 479),
        ("linking(a=1)", "trivial", 5, "polish_floor", 0, 6),
    ],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_STARTS))
def test_shipped_starts_are_pinned(name):
    # period2's two verified starts plateau before converging at 63 and 44
    # iterations: the stagnation exit must leave them alone
    config = load_config(str(builtin_config_path(name)))
    ctx = FunctionalContext(
        assemble(config.build_window(), config.build_coefficients()),
        config.build_nonlinearity(),
    ).with_decomposition()
    opts = config.build_solve_options()
    rng = np.random.default_rng(opts.seed)
    got = []
    for strategy in opts.starts:
        x0 = initial_guess(strategy, ctx, strategy.amplitude, rng=rng)
        result = newton_solve(ctx, x0, opts, start_tag=strategy.tag)
        diag = result.diagnostics
        assert diag["regularizations"] == 0, strategy.tag
        iterations = result.iterations
        if diag["stop_reason"] == "stagnated":
            assert iterations <= 60
            iterations = None
        got.append((result.start_used, result.status, iterations, diag["stop_reason"],
                    diag["fallback_steps"], diag["gradient_evaluations"]))
    assert got == SHIPPED_STARTS[name]


class TestMultiStart:
    def test_all_trivial_returns_empty(self):
        # strength 4 keeps the linear operator invertible: only the zero root
        ctx = FunctionalContext(
            assemble(Window.zero_pad(16), model_coefficients()), family_quadratic(4.0)
        )
        opts = SolveOptions(
            starts=(StartStrategy("linking", 0.5), StartStrategy("random", 0.5))
        )
        assert multi_start(ctx, opts) == []

    def test_empty_starts_rejected(self):
        ctx = model_ctx(8)
        with pytest.raises(ConfigurationError):
            multi_start(ctx, SolveOptions(starts=()))

    def test_model_mixed_starts_deduplicate(self):
        ctx = model_ctx()
        opts = SolveOptions(
            starts=(
                StartStrategy("gaussian", 1.0, width=2.0),
                StartStrategy("gaussian", 2.0, width=2.0),
                StartStrategy("gaussian", 0.5, width=2.0),
                StartStrategy("linking", 1.0),
                StartStrategy("random", 1.0),
            )
        )
        results = multi_start(ctx, opts)
        assert len(results) >= 1
        for res in results:
            assert res.success and res.verification.passed
        phis = [r.phi_value for r in results]
        assert phis == sorted(phis)

    def test_shifted_duplicate_collapses(self, solved_model):
        ctx, result = solved_model
        shifted_start = shift(result.orbit, 1)  # one period for T = 1
        second = newton_solve(ctx, shifted_start, SolveOptions(), start_tag="shifted")
        assert second.success
        merged = deduplicate_results([result, second], period=1)
        assert len(merged) == 1

    def test_distinct_orbits_kept(self, solved_model):
        ctx, result = solved_model
        from dhlattice.solver import SolveResult

        far = SolveResult(
            orbit=BlockVector(ctx.window, 1, 2.0 * result.orbit.entries),
            phi_value=result.phi_value + 1.0,
            grad_inf_norm=result.grad_inf_norm,
            iterations=1,
            start_used="synthetic",
            status="verified",
        )
        merged = deduplicate_results([result, far], period=1)
        assert len(merged) == 2
        assert merged[0].phi_value <= merged[1].phi_value


class TestContinuation:
    def test_single_step_equals_seed(self):
        def family(nu):
            return FunctionalContext(
                assemble(Window.zero_pad(32), model_coefficients()),
                family_radial_rational(nu),
            )

        opts = SolveOptions(starts=(StartStrategy("gaussian", 1.0, width=2.0),))
        entries = continuation(family, 4.0, 4.0, 1, opts)
        assert len(entries) == 1
        nu, res = entries[0]
        assert nu == 4.0 and res.success
        baseline = multi_start(family(4.0), opts)[0]
        assert res.phi_value == pytest.approx(baseline.phi_value, abs=1e-12)

    def test_walk_down_in_nu(self):
        def family(nu):
            return FunctionalContext(
                assemble(Window.zero_pad(32), model_coefficients()),
                family_radial_rational(nu),
            )

        opts = SolveOptions(starts=(StartStrategy("gaussian", 1.0, width=2.0),))
        entries = continuation(family, 4.0, 3.2, 8, opts)
        assert len(entries) >= 2
        for nu, res in entries:
            assert res.success
        for (nu_a, res_a), (nu_b, res_b) in zip(entries, entries[1:]):
            assert abs(res_b.phi_value - res_a.phi_value) < 10.0 * abs(nu_b - nu_a)

    def test_exploratory_walk_past_gap_threshold_records_only(self):
        def family(nu):
            return FunctionalContext(
                assemble(Window.zero_pad(32), model_coefficients()),
                family_radial_rational(nu),
            )

        opts = SolveOptions(starts=(StartStrategy("gaussian", 1.0, width=2.0),))
        entries = continuation(family, 4.0, 2.5, 6, opts)
        assert 1 <= len(entries) <= 6
        last_nu, last = entries[-1]
        assert last.success  # every recorded entry is verified; where it stops is data

    def test_failed_initial_solve_raises(self):
        def family(nu):
            return FunctionalContext(
                assemble(Window.zero_pad(16), model_coefficients()),
                family_quadratic(nu),
            )

        opts = SolveOptions(starts=(StartStrategy("random", 0.5),))
        with pytest.raises(NumericalError):
            continuation(family, 4.0, 5.0, 2, opts)

    def test_bad_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            continuation(lambda nu: model_ctx(8), 4.0, 3.0, 0)
