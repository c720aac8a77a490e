import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dhlattice import (
    BlockVector,
    ConfigurationError,
    FunctionalContext,
    NumericalError,
    PeriodicCoefficients,
    Phi,
    SolveOptions,
    StartStrategy,
    Window,
    assemble,
    deduplicate_results,
    default_starts,
    eigendecompose,
    family_quadratic,
    family_radial_rational,
    initial_guess,
    lp_norm,
    multi_start,
    newton_solve,
    shift,
)
from dhlattice import solver as solver_module
from dhlattice.cli import builtin_config_path, load_config
from dhlattice.operators import banded_matvec
from dhlattice.solver import (
    ARMIJO,
    BACKTRACK_TRIALS,
    CORE_HALF_WIDTH,
    DUPLICATE_TOL,
    GRAD_TOL,
    POLISH_FLOOR,
    RESCUE_TRIALS,
    STAGNATION_RATIO,
    STAGNATION_WINDOW,
    _general_band,
    _jacobian,
    _node_hessians,
    _same_orbit,
    _solve_linear,
    verify_candidate,
)
from helpers import (
    model_coefficients,
    n2_coefficients,
    period2_coefficients,
    random_block_vector,
    random_coefficients,
)


def model_ctx(half_width=64):
    return FunctionalContext(
        assemble(Window.zero_pad(half_width), model_coefficients()),
        family_radial_rational(4.0),
    )


def bump_start(ctx, amplitude, width=2.0):
    """The gaussian start of the given amplitude and width."""
    return initial_guess(StartStrategy("gaussian", amplitude, width), ctx, amplitude)


@pytest.fixture(scope="module")
def solved_model():
    ctx = model_ctx()
    x0 = bump_start(ctx, 1.0)
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
        values = ctx.dec.eigenvalues
        lam = values[np.searchsorted(values, 0.0, side="right")]
        applied = ctx.op.apply(x)
        np.testing.assert_allclose(applied.entries, lam * x.entries, atol=1e-10)

    def test_periodic_window_rejected(self):
        ctx = FunctionalContext(
            assemble(Window.periodic(8), model_coefficients()), family_radial_rational(4.0)
        )
        with pytest.raises(ConfigurationError, match="zero-pad"):
            initial_guess("linking", ctx, 1.0)

    def test_gaussian_profile(self):
        ctx = model_ctx(8)
        x = bump_start(ctx, 2.0, width=3.0)
        center = 0 - x.window.lo
        np.testing.assert_allclose(
            x.entries[center], 2.0 * np.ones(2) / np.sqrt(2.0), atol=1e-12
        )
        profile = np.linalg.norm(x.entries, axis=1)
        assert profile[center] == profile.max()

    def test_narrow_gaussian_is_one_node_without_warning(self):
        # (n / w)^2 overflows for every n != 0; exp(-inf) = 0 is the profile there
        ctx = model_ctx(16)
        x = bump_start(ctx, 1.0, width=1e-200)
        center = 0 - x.window.lo
        np.testing.assert_array_equal(x.entries[center], np.ones(2) / np.sqrt(2.0))
        assert np.count_nonzero(x.entries) == 2

    def test_random_scaling(self):
        ctx = model_ctx(8)
        x = initial_guess("random", ctx, 3.0, rng=np.random.default_rng(5))
        assert lp_norm(x, 2) == pytest.approx(3.0, abs=1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            initial_guess("annealing", model_ctx(8), 1.0)

    @pytest.mark.parametrize(
        "amplitude,width", [(1.0, 0.0), (float("nan"), None), (-1.0, None), (1.0, float("inf"))]
    )
    def test_non_finite_gaussian_start_rejected(self, amplitude, width):
        # a bad width fails in StartStrategy, a bad amplitude in initial_guess
        with pytest.raises(ConfigurationError):
            initial_guess(StartStrategy("gaussian", 1.0, width), model_ctx(8), amplitude)

    @pytest.mark.parametrize(
        "kind,amplitude,width",
        [("annealing", 1.0, None), (None, 1.0, None), ("gaussian", -1.0, 2.0),
         ("gaussian", float("nan"), 2.0), ("gaussian", 1.0, 0.0), ("random", float("inf"), None),
         ("gaussian", True, 2.0), ("gaussian", "2", 2.0), ("gaussian", 1.0, "2"),
         ("gaussian", 1.0, True)],
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


def assert_linking_is_dense_eigenvector(op):
    """The linking start against the dense eigh eigenvector of the smallest
    positive eigenvalue: equal up to sign, and largest entry positive."""
    ctx = FunctionalContext(op, family_radial_rational(4.0, block_dim=op.block_dim))
    v = initial_guess("linking", ctx, 1.0).flat
    values, vectors = scipy.linalg.eigh(op.to_dense())
    lam = values[values > 0][0]
    # a degenerate smallest positive eigenvalue admits any vector of its eigenspace
    basis = vectors[:, np.abs(values - lam) <= 1e-8 * np.abs(values).max()]
    if basis.shape[1] == 1:
        u = basis[:, 0]
        assert min(np.abs(v - u).max(), np.abs(v + u).max()) < 1e-10
    assert np.abs(v - basis @ (basis.T @ v)).max() < 1e-10
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert v[np.argmax(np.abs(v))] > 0


class TestLinkingStart:
    @pytest.mark.parametrize("name", ["model", "period2", "n2"])
    def test_shipped_window(self, name):
        config = load_config(str(builtin_config_path(name)))
        assert_linking_is_dense_eigenvector(
            assemble(config.build_window(), config.build_coefficients())
        )

    @pytest.mark.parametrize(
        "coeffs", [model_coefficients(), period2_coefficients(), n2_coefficients()]
    )
    @pytest.mark.parametrize("half_width", [0, 1])
    def test_one_and_three_node_windows(self, coeffs, half_width):
        assert_linking_is_dense_eigenvector(assemble(Window.zero_pad(half_width), coeffs))

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        block_dim=st.sampled_from([1, 2]),
        period=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        half_width=st.integers(0, 24),
    )
    def test_random_coefficients(self, block_dim, period, seed, half_width):
        coeffs = random_coefficients(block_dim, period, np.random.default_rng(seed))
        assert_linking_is_dense_eigenvector(assemble(Window.zero_pad(half_width), coeffs))

    def test_multi_start_makes_no_dense_eigensolve(self, monkeypatch):
        import dhlattice.functional
        import dhlattice.spectral

        def forbidden(*args, **kwargs):
            raise AssertionError("full-spectrum eigensolve in the orbit search")

        # built first: the coefficients take the 2N x 2N eigenvalues of J0 S(n)
        ctx = model_ctx()
        for module, name in [(scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                             (scipy.linalg, "eigvals_banded"), (np.linalg, "eigh"),
                             (np.linalg, "eigvalsh"), (dhlattice.spectral, "eigendecompose"),
                             (dhlattice.functional, "eigendecompose")]:
            monkeypatch.setattr(module, name, forbidden)
        assert lp_norm(initial_guess("linking", ctx, 1.0), 2) == pytest.approx(1.0)
        results = multi_start(ctx, SolveOptions(starts=default_starts()))
        assert results and all(r.success for r in results)

    def test_large_window_against_tridiagonal_eigenvector(self):
        # 8194 unknowns, where a dense eigh is impractical: the model operator
        # is tridiagonal with no zero eigenvalue, so lambda+ has index dim / 2
        op = assemble(Window.zero_pad(2048), model_coefficients())
        ctx = FunctionalContext(op, family_radial_rational(4.0))
        v = initial_guess("linking", ctx, 1.0).flat
        m = op.dim // 2
        _, u = scipy.linalg.eigh_tridiagonal(
            op.bands[0], op.bands[1, :-1], select="i", select_range=(m, m)
        )
        assert min(np.abs(v - u[:, 0]).max(), np.abs(v + u[:, 0]).max()) < 1e-10

    def test_huge_coefficients(self):
        # model x 1e200 satisfies (R0); the inverse iterates are so small that
        # their squares underflow, so the norm must be taken after scaling
        coeffs = PeriodicCoefficients(1e200 * np.asarray(model_coefficients().matrices))
        assert_linking_is_dense_eigenvector(assemble(Window.zero_pad(16), coeffs))

    def test_middle_eigenvalue_must_be_positive(self):
        negative = -np.ones((1, 4))
        with pytest.raises(NumericalError, match="at index 2 of 4 is not positive"):
            solver_module._linking_direction(negative)
        # model's spectrum lies in [-3, -1] and [1, 3]; shifted by -4, none is positive
        bands = assemble(Window.zero_pad(4), model_coefficients()).bands.copy()
        bands[0] -= 4.0
        with pytest.raises(NumericalError, match="at index 9 of 18 is not positive"):
            solver_module._linking_direction(bands)

    def test_one_selected_eigenvalue_and_no_count(self, monkeypatch):
        import dhlattice.operators

        calls = []
        eig_banded = scipy.linalg.eig_banded

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return eig_banded(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("Sturm count in the linking start")

        monkeypatch.setattr(scipy.linalg, "eig_banded", recording)
        monkeypatch.setattr(dhlattice.operators, "sturm_count", forbidden)
        assert not hasattr(solver_module, "sturm_count")
        for coeffs in (model_coefficients(), period2_coefficients(), n2_coefficients()):
            calls.clear()
            op = assemble(Window.zero_pad(6), coeffs)
            solver_module._linking_direction(op.bands)
            m = op.dim // 2
            assert [(c["select"], c["select_range"]) for c in calls] == [("i", (m, m))]

    @pytest.mark.parametrize("half_width", [255, 512])
    def test_wide_linking_start_is_pinned(self, half_width):
        # perfbench/configs/wide.json's coefficients at 511 and 1025 nodes
        ctx = model_ctx(half_width)
        x0 = initial_guess("linking", ctx, 1.0)
        result = newton_solve(ctx, x0, SolveOptions(), start_tag="linking(a=1)")
        diag = result.diagnostics
        assert (result.status, result.iterations, diag["stop_reason"],
                diag["gradient_evaluations"]) == ("trivial", 3, "polish_floor", 4)


class TestNewtonSolve:
    def test_zero_start_is_rejected_trivial(self):
        ctx = model_ctx(16)
        result = newton_solve(ctx, BlockVector.zeros(ctx.window, 1), SolveOptions())
        assert result.status == "trivial"
        assert result.iterations <= 1
        assert result.verification is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_start_ends_without_convergence_or_warning(self):
        # squares of 1e160 overflow: the gradient is not finite, so the start
        # fails the convergence test and names why it stopped
        ctx = model_ctx(16)
        result = newton_solve(ctx, bump_start(ctx, 1e160), SolveOptions())
        assert result.status == "no_convergence"
        assert result.diagnostics["stop_reason"] == "line_search_failed"
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
            x0 = bump_start(ctx, 2.0)
            runs.append(newton_solve(ctx, x0, opts, start_tag="g"))
        assert runs[0].iterations == runs[1].iterations
        np.testing.assert_array_equal(runs[0].orbit.entries, runs[1].orbit.entries)
        assert runs[0].phi_value == runs[1].phi_value

    def test_periodic_context_rejected(self):
        ctx = FunctionalContext(
            assemble(Window.periodic(16), model_coefficients()), family_radial_rational(4.0)
        )
        x0 = bump_start(ctx, 1.0)
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
    return bump_start(ctx, 0.5)


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
        x0 = bump_start(ctx, 1.0)
        result = newton_solve(ctx, x0)
        assert result.status == "no_convergence"
        assert result.iterations == 1
        assert result.diagnostics["stop_reason"] == "line_search_failed"
        assert result.diagnostics["regularizations"] == 1
        assert result.diagnostics["fallback_steps"] == 0
        assert np.isfinite(result.orbit.entries).all()
        np.testing.assert_array_equal(result.orbit.entries, x0.entries)

    @pytest.mark.parametrize("scale", [0.0, 0.01])
    def test_overflowing_trials_match_sequential(self, scale):
        # nu = 1e160 with the Newton matrix's Hessian blocks scaled down, so
        # the full step overshoots the bump: the t = 1 trial's core gradient
        # overflows although the start's is finite.  Without the Hessian
        # (scale 0) no Armijo trial passes and the rescue runs all its trials;
        # with 1 % of it a shorter step passes after the overflowing ones
        base = family_radial_rational(1e160)
        nl = dataclasses.replace(base, hessian=lambda n, z: scale * base.hessian(n, z))
        ctx = FunctionalContext(assemble(Window.zero_pad(12), model_coefficients()), nl)
        x0 = bump_start(ctx, 1e-3)
        g = ctx.gradient_entries(x0)
        assert np.isfinite(np.vdot(g, g))
        jac = _jacobian(ctx.op, _node_hessians(ctx, x0))
        delta = _solve_linear(_general_band(jac), -g.reshape(-1))
        peak = int(np.argmax(np.abs(x0.entries).max(axis=1)))
        core = slice(peak - CORE_HALF_WIDTH, peak + CORE_HALF_WIDTH + 1)
        with np.errstate(all="ignore"):
            trial = x0.with_entries(x0.entries + delta.reshape(g.shape))
            g_trial = ctx.gradient_entries(trial)[core]
            assert not np.isfinite(np.vdot(g_trial, g_trial))
            result = assert_matches_sequential(ctx, x0, SolveOptions(max_iter=30))
        diag = result.diagnostics
        if scale == 0.0:
            assert diag["stop_reason"] == "line_search_failed"
            assert diag["gradient_evaluations"] == 1 + BACKTRACK_TRIALS + RESCUE_TRIALS
        else:
            assert diag["residual_history"][1] < diag["residual_history"][0]

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        block_dim=st.sampled_from([1, 2]),
        period=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**16),
        half_width=st.integers(3, 10),
        nu=st.sampled_from([3.0, 6.0, 12.0]),
        start=st.sampled_from(["gaussian", "random", "linking"]),
        amplitude=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    )
    def test_gradient_evaluations_counted(
        self, block_dim, period, seed, half_width, nu, start, amplitude
    ):
        # random coefficient sets satisfying (R0); the batched line search
        # must take every step and count every evaluation as one trial at a time
        rng = np.random.default_rng(seed)
        ctx = FunctionalContext(
            assemble(Window.zero_pad(half_width), random_coefficients(block_dim, period, rng)),
            family_radial_rational(nu, block_dim=block_dim),
        )
        x0 = initial_guess(StartStrategy(start, amplitude, 2.0), ctx, amplitude, rng=rng)
        assert_matches_sequential(ctx, x0, SolveOptions(max_iter=60))


def sequential_newton(ctx, x0, opts):
    """newton_solve's iteration with one gradient call per line-search trial.

    Returns the final iterate and (gradient evaluations, rescue steps,
    iterations, stop reason).
    """
    evaluations = 0

    def grad(entries):
        nonlocal evaluations
        evaluations += 1
        return ctx.gradient_entries(BlockVector(ctx.window, ctx.op.block_dim, entries))

    def inf_norm(rows):
        return float(np.linalg.norm(rows, axis=1).max(initial=0.0))

    x = np.array(x0.entries)
    g = grad(x)
    g_inf = inf_norm(g)
    best = [g_inf]
    fallback_steps = polish = iterations = 0
    converged = g_inf <= GRAD_TOL
    stop_reason = "max_iter"
    for iterations in range(1, opts.max_iter + 1):
        if converged and (g_inf <= POLISH_FLOOR or polish >= 6):
            iterations -= 1
            break
        bv = BlockVector(ctx.window, ctx.op.block_dim, x)
        jac = _jacobian(ctx.op, _node_hessians(ctx, bv))
        delta = _solve_linear(_general_band(jac), -g.reshape(-1))
        g_sq = float(np.vdot(g, g))
        accepted = False
        if delta is not None:
            t = 1.0
            while t >= 2.0**-40:
                x_trial = x + t * delta.reshape(x.shape)
                g_trial = grad(x_trial)
                if float(np.vdot(g_trial, g_trial)) <= (1.0 - 2.0 * ARMIJO * t) * g_sq:
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            d = banded_matvec(jac, g.reshape(-1))
            jd = banded_matvec(jac, d)
            jd_sq = float(np.vdot(jd, jd))
            if not jd_sq > 0.0:
                stop_reason = "line_search_failed"
                break
            t = float(np.vdot(d, d)) / jd_sq
            for _ in range(60):
                x_trial = x - t * d.reshape(x.shape)
                g_trial = grad(x_trial)
                if float(np.vdot(g_trial, g_trial)) < g_sq:
                    accepted = True
                    fallback_steps += 1
                    break
                t *= 0.5
            if not accepted:
                stop_reason = "line_search_failed"
                break
        new_inf = inf_norm(g_trial)
        if converged:
            if new_inf >= 0.5 * g_inf:
                break
            polish += 1
        x, g, g_inf = x_trial, g_trial, new_inf
        best.append(min(best[-1], g_inf))
        if g_inf <= GRAD_TOL:
            converged = True
        elif (
            iterations >= STAGNATION_WINDOW
            and best[-1] > STAGNATION_RATIO * best[-1 - STAGNATION_WINDOW]
        ):
            stop_reason = "stagnated"
            break
    if converged:
        stop_reason = "polish_floor" if g_inf <= POLISH_FLOOR else "converged"
    return x, (evaluations, fallback_steps, iterations, stop_reason)


def assert_matches_sequential(ctx, x0, opts):
    result = newton_solve(ctx, x0, opts, run_verification=False)
    x, counts = sequential_newton(ctx, x0, opts)
    diag = result.diagnostics
    assert np.array_equal(result.orbit.entries, x)
    assert counts == (diag["gradient_evaluations"], diag["fallback_steps"],
                      result.iterations, diag["stop_reason"])
    return result


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


def shipped_problem(name):
    """The shipped config's context on its own window, and its solve options."""
    config = load_config(str(builtin_config_path(name)))
    ctx = FunctionalContext(
        assemble(config.build_window(), config.build_coefficients()),
        config.build_nonlinearity(),
    )
    return ctx, config.build_solve_options()


@pytest.mark.parametrize("name", sorted(SHIPPED_STARTS))
def test_shipped_starts_are_pinned(name):
    # period2's two verified starts plateau before converging at 63 and 44
    # iterations: the stagnation exit must leave them alone
    ctx, opts = shipped_problem(name)
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


@pytest.mark.parametrize("name", sorted(SHIPPED_STARTS))
def test_shipped_starts_match_sequential(name):
    # the batched line search takes the one-at-a-time search's steps and counts
    ctx, opts = shipped_problem(name)
    rng = np.random.default_rng(opts.seed)
    rescued = 0
    for strategy in opts.starts:
        x0 = initial_guess(strategy, ctx, strategy.amplitude, rng=rng)
        rescued += assert_matches_sequential(ctx, x0, opts).diagnostics["fallback_steps"]
    assert rescued > 0


def test_one_newton_matrix_per_step(monkeypatch):
    # period2's gaussian(a=1,w=2) start takes 6 rescue steps among its 63:
    # each step builds its Newton matrix once, and the rescue reuses it
    calls = []

    def counting(op, hess_blocks):
        calls.append(hess_blocks.shape)
        return _jacobian(op, hess_blocks)

    monkeypatch.setattr(solver_module, "_jacobian", counting)
    ctx, _ = shipped_problem("period2")
    result = newton_solve(ctx, bump_start(ctx, 1.0), run_verification=False)
    assert (result.iterations, result.diagnostics["fallback_steps"]) == (63, 6)
    assert len(calls) == result.iterations


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

    @pytest.mark.parametrize("name,expected", [("model", 1), ("period2", 1), ("n2", 2)])
    def test_one_verification_per_distinct_orbit(self, monkeypatch, name, expected):
        # model and period2 each reach one orbit from two starts, n2 two orbits
        calls = []

        def counting(ctx, orbit, opts):
            calls.append(orbit)
            return verify_candidate(ctx, orbit, opts)

        monkeypatch.setattr(solver_module, "verify_candidate", counting)
        ctx, opts = shipped_problem(name)
        results = multi_start(ctx, opts)
        assert len(calls) == len(results) == expected
        assert [r.orbit for r in results] == sorted(calls, key=lambda o: Phi(ctx, o))

    def test_failed_cleanest_copy_falls_back_to_next(self, monkeypatch):
        ctx, opts = shipped_problem("model")
        [cleanest] = multi_start(ctx, opts)
        calls = []

        def first_fails(ctx, orbit, opts):
            calls.append(orbit)
            report = verify_candidate(ctx, orbit, opts)
            return dataclasses.replace(report, passed=len(calls) > 1)

        monkeypatch.setattr(solver_module, "verify_candidate", first_fails)
        [result] = multi_start(ctx, opts)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0].entries, cleanest.orbit.entries)
        assert result.orbit is calls[1]
        assert result.success and result.verification.passed
        assert result.start_used != cleanest.start_used
        assert result.grad_inf_norm >= cleanest.grad_inf_norm

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


def all_shifts_same_orbit(a, b, period):
    """The reference decision: compare every period shift on the whole window."""
    count = a.window.num_nodes
    best = np.inf
    for k in range(-(count // period), count // period + 1):
        rows = np.linalg.norm(a.entries - shift(b, k * period).entries, axis=1)
        best = min(best, float(rows.max(initial=0.0)))
    return best < DUPLICATE_TOL


class TestSameOrbit:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        block_dim=st.integers(1, 3),
        period=st.integers(1, 3),
        half_width=st.integers(0, 12),
        periodic=st.booleans(),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1.0, 1e-3, 1e-6, 1e-7]),
        noise=st.sampled_from([0.0, 1e-8, 3e-7, 5e-7, 7e-7, 1e-6, 2e-6]),
        offset=st.integers(-30, 30),
    )
    def test_matches_all_shifts(
        self, block_dim, period, half_width, periodic, seed, scale, noise, offset
    ):
        # shifted copies of a localized orbit, perturbed around the tolerance
        if periodic:
            window = Window.periodic_cells(period, 2 * half_width // period + 1)
        else:
            window = Window.zero_pad(half_width)
        rng = np.random.default_rng(seed)
        n2 = 2 * block_dim
        profile = scale * np.exp(-np.abs(window.nodes - rng.integers(-3, 4)) / 1.5)
        a = BlockVector(window, block_dim, profile[:, None] * rng.standard_normal(n2))
        perturb = noise * rng.uniform(-1.0, 1.0, (window.num_nodes, n2)) / np.sqrt(n2)
        b = a.with_entries(shift(a, offset).entries + perturb)
        assert _same_orbit(a, b, period) == all_shifts_same_orbit(a, b, period)
        assert _same_orbit(b, a, period) == all_shifts_same_orbit(b, a, period)

    def test_localized_pairs_compare_few_shifts(self, monkeypatch):
        # on 1025 nodes a pair of bumps is screened on one row per shift; only
        # shifts where the peak rows agree get the full-window comparison
        window = Window.zero_pad(512)
        calls = []

        def counting(x, k):
            calls.append(k)
            return shift(x, k)

        monkeypatch.setattr(solver_module, "shift", counting)
        bump = BlockVector(window, 1, np.outer(np.exp(-((window.nodes / 2.0) ** 2)), [1.0, 0.5]))
        moved = shift(bump, 37)
        other = bump.with_entries(0.5 * bump.entries)
        assert _same_orbit(bump, moved, 1)
        assert len(calls) <= 3
        calls.clear()
        assert not _same_orbit(bump, other, 1)
        assert len(calls) <= 3


class TestSolveOptions:
    @pytest.mark.parametrize(
        "field",
        [
            {"seed": True},
            {"seed": 1.5},
            {"seed": 2.0},
            {"seed": -1},
            {"max_iter": 2.5},
            {"max_iter": float("inf")},
        ],
    )
    def test_bad_field_rejected(self, field):
        with pytest.raises(ConfigurationError, match=next(iter(field))):
            SolveOptions(**field)

    def test_numpy_integers_accepted(self):
        opts = SolveOptions(max_iter=np.int64(5), seed=np.int32(3))
        assert (opts.max_iter, opts.seed) == (5, 3)
