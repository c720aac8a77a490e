import numpy as np
import pytest

from dhlattice import (
    BlockVector,
    ConfigurationError,
    FunctionalContext,
    Phi,
    Phi_split,
    Psi,
    SpectralDecomposition,
    SpectralGapError,
    Window,
    assemble,
    energy_defect,
    eval_tildeR,
    family_log_saturating,
    family_quadratic,
    family_radial_rational,
    grad_Phi,
    l2_inner,
    lp_norm,
    shift,
)
from helpers import (
    first_positive,
    free_model_ctx,
    model_coefficients,
    n2_coefficients,
    period2_coefficients,
    random_block_vector,
)


def model_ctx(window=None):
    window = window or Window.zero_pad(8)
    return FunctionalContext(
        assemble(window, model_coefficients()), family_radial_rational(4.0)
    )


def contexts_all():
    return [
        model_ctx(),
        FunctionalContext(
            assemble(Window.zero_pad(8), period2_coefficients()),
            family_radial_rational(4.0),
        ),
        FunctionalContext(
            assemble(Window.zero_pad(6), n2_coefficients()),
            family_radial_rational(4.0, block_dim=2),
        ),
    ]


class TestPsi:
    def test_zero(self):
        ctx = model_ctx()
        assert Psi(ctx, BlockVector.zeros(ctx.window, 1)) == 0.0

    def test_single_block_value(self):
        ctx = model_ctx(Window.zero_pad(2))
        entries = np.zeros((5, 2))
        entries[2] = [1.0, 0.0]
        assert Psi(ctx, BlockVector(ctx.window, 1, entries)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_nonnegative_on_randoms(self):
        rng = np.random.default_rng(40)
        for ctx in contexts_all():
            for _ in range(80):
                x = random_block_vector(ctx.window, ctx.op.block_dim, rng)
                assert Psi(ctx, x) >= 0.0


class TestPhi:
    def test_zero(self):
        ctx = model_ctx()
        assert Phi(ctx, BlockVector.zeros(ctx.window, 1)) == 0.0

    def test_hand_value(self):
        ctx = model_ctx(Window.zero_pad(2))
        entries = np.zeros((5, 2))
        entries[2] = [1.0, 0.0]
        assert Phi(ctx, BlockVector(ctx.window, 1, entries)) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_period_shift_invariance_on_periodic_window(self):
        rng = np.random.default_rng(41)
        coeffs = period2_coefficients()
        ctx = FunctionalContext(
            assemble(Window.periodic_cells(2, 10), coeffs), family_radial_rational(4.0)
        )
        for _ in range(10):
            x = random_block_vector(ctx.window, 1, rng)
            assert Phi(ctx, shift(x, 2)) == pytest.approx(Phi(ctx, x), abs=1e-10)


class TestGradPhi:
    def test_zero(self):
        ctx = model_ctx()
        g = grad_Phi(ctx, BlockVector.zeros(ctx.window, 1))
        assert lp_norm(g, 2) == 0.0

    def test_directional_derivative_oracle(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for ctx in contexts_all():
            for _ in range(20):
                x = random_block_vector(ctx.window, ctx.op.block_dim, rng, scale=0.7)
                y = random_block_vector(ctx.window, ctx.op.block_dim, rng)
                y = y.with_entries(y.entries / lp_norm(y, 2))
                xp = x.with_entries(x.entries + h * y.entries)
                xm = x.with_entries(x.entries - h * y.entries)
                fd = (Phi(ctx, xp) - Phi(ctx, xm)) / (2.0 * h)
                exact = l2_inner(grad_Phi(ctx, x), y)
                assert abs(fd - exact) / max(1.0, abs(exact)) < 1e-6


class TestPhiSplit:
    def test_requires_decomposition(self):
        ctx = model_ctx()
        with pytest.raises(ConfigurationError):
            Phi_split(ctx, BlockVector.zeros(ctx.window, 1))

    def test_zero(self):
        ctx = model_ctx().with_decomposition()
        assert Phi_split(ctx, BlockVector.zeros(ctx.window, 1)) == (0.0, 0.0, 0.0)

    def test_positive_eigenvector_with_zero_interaction(self):
        coeffs = model_coefficients()
        window = Window.periodic(9)
        op = assemble(window, coeffs)
        ctx = FunctionalContext(op, family_quadratic(0.0)).with_decomposition()
        values = ctx.dec.eigenvalues
        idx = int(np.argmin(np.abs(values - 1.0)))
        lam = values[idx]
        v = BlockVector.from_flat(window, 1, ctx.dec.eigenvectors[:, idx])
        plus, minus, psi = Phi_split(ctx, v)
        assert plus == pytest.approx(0.5 * lam, abs=1e-10)
        assert minus == pytest.approx(0.0, abs=1e-10)
        assert psi == 0.0
        assert Phi(ctx, v) == pytest.approx(0.5 * lam, abs=1e-10)

    def test_split_consistency_with_direct_value(self):
        rng = np.random.default_rng(43)
        ctx = FunctionalContext(
            assemble(Window.periodic(17), model_coefficients()),
            family_radial_rational(4.0),
        ).with_decomposition()
        for _ in range(20):
            x = random_block_vector(ctx.window, 1, rng)
            plus, minus, psi = Phi_split(ctx, x)
            assert plus - minus - psi == pytest.approx(Phi(ctx, x), abs=1e-9)

    def test_sign_structure_with_zero_interaction(self):
        rng = np.random.default_rng(44)
        ctx = free_model_ctx(15)
        dec = ctx.dec
        lambda0 = ctx.op.coeffs.lambda0
        s = first_positive(dec.eigenvalues)
        for _ in range(10):
            c_plus = rng.standard_normal(dec.eigenvalues.size - s)
            x_plus = BlockVector.from_flat(
                ctx.window, 1, dec.eigenvectors[:, s:] @ c_plus
            )
            assert Phi(ctx, x_plus) >= 0.5 * lambda0 * lp_norm(x_plus, 2) ** 2 - 1e-10
            c_minus = rng.standard_normal(s)
            x_minus = BlockVector.from_flat(
                ctx.window, 1, dec.eigenvectors[:, :s] @ c_minus
            )
            assert Phi(ctx, x_minus) <= -0.5 * lambda0 * lp_norm(x_minus, 2) ** 2 + 1e-10

    def test_norm_equivalence(self):
        # (1/2) lambda0 |x|^2 <= (1/2) ||x||_E^2 <= (1/2) (2 + Lambda0) |x|^2
        rng = np.random.default_rng(23)
        coeffs = period2_coefficients()
        ctx = FunctionalContext(
            assemble(Window.periodic_cells(2, 16), coeffs), family_quadratic(0.0)
        ).with_decomposition()
        for _ in range(20):
            x = random_block_vector(ctx.window, 1, rng)
            plus, minus, _ = Phi_split(ctx, x)
            sq = lp_norm(x, 2) ** 2
            lo, hi = 0.5 * coeffs.lambda0 * sq, 0.5 * (2.0 + coeffs.Lambda0) * sq
            assert lo - 1e-10 <= plus + minus <= hi + 1e-10

    def test_near_zero_eigenvalue_raises(self):
        ctx = free_model_ctx(5)
        dec = ctx.dec
        tweaked = np.array(dec.eigenvalues)
        tweaked[first_positive(tweaked)] = 1e-12
        bad = SpectralDecomposition(
            window=dec.window, eigenvalues=tweaked, eigenvectors=dec.eigenvectors
        )
        bad_ctx = FunctionalContext(ctx.op, ctx.nl, dec=bad)
        x = BlockVector.from_flat(dec.window, 1, dec.eigenvectors[:, 0])
        with pytest.raises(SpectralGapError):
            Phi_split(bad_ctx, x)


class TestEnergyDefect:
    def test_zero(self):
        ctx = model_ctx()
        assert energy_defect(ctx, BlockVector.zeros(ctx.window, 1)) == 0.0

    def test_identity_on_randoms_both_families(self):
        rng = np.random.default_rng(45)
        for family in (family_radial_rational(4.0), family_log_saturating(3.0)):
            ctx = FunctionalContext(
                assemble(Window.zero_pad(10), model_coefficients()), family
            )
            for _ in range(500):
                x = random_block_vector(ctx.window, 1, rng)
                assert abs(energy_defect(ctx, x)) < 1e-10

    def test_half_gradient_pairing_equals_phi_minus_tilde_sum(self):
        rng = np.random.default_rng(46)
        ctx = model_ctx()
        for _ in range(20):
            x = random_block_vector(ctx.window, 1, rng)
            tilde_sum = sum(
                eval_tildeR(ctx.nl, int(n), x.entries[i])
                for i, n in enumerate(ctx.window.nodes)
            )
            lhs = Phi(ctx, x) - tilde_sum
            rhs = 0.5 * l2_inner(grad_Phi(ctx, x), x)
            assert lhs == pytest.approx(rhs, abs=1e-12)
