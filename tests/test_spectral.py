import json

import numpy as np
import pytest

from dhlattice import (
    BlockVector,
    SpectralGapError,
    Window,
    assemble,
    band_structure,
    e_norm,
    eigendecompose,
    floquet_symbol,
    l2_inner,
    lp_norm,
    projectors,
)
from dhlattice import spectral
from dhlattice.cli import builtin_config_path, load_config, main
from dhlattice.spectral import SpectralDecomposition
from helpers import (
    model_coefficients,
    n2_coefficients,
    period2_coefficients,
    random_block_vector,
)


def model_periodic_decomposition(num_nodes=33):
    coeffs = model_coefficients()
    op = assemble(Window.periodic(num_nodes), coeffs)
    return op, eigendecompose(op)


class TestEigendecompose:
    def test_single_node_model(self):
        op = assemble(Window.zero_pad(0), model_coefficients())
        dec = eigendecompose(op)
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 2.0], atol=1e-12)

    def test_periodic_eight_nodes_analytic(self):
        coeffs = model_coefficients()
        dec = eigendecompose(assemble(Window.periodic(8), coeffs))
        analytic = sorted(
            s * np.sqrt(5.0 - 4.0 * np.cos(2.0 * np.pi * j / 8))
            for j in range(8)
            for s in (-1.0, 1.0)
        )
        np.testing.assert_allclose(dec.eigenvalues, analytic, atol=1e-12)

    @pytest.mark.parametrize(
        "coeffs_fn", [model_coefficients, period2_coefficients, n2_coefficients]
    )
    def test_eigenpair_residuals_and_orthonormality(self, coeffs_fn):
        coeffs = coeffs_fn()
        op = assemble(Window.periodic_cells(coeffs.period, 20), coeffs)
        dec = eigendecompose(op)
        mat = op.to_dense()
        residual = mat @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.linalg.norm(residual, axis=0).max() <= 1e-10
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.abs(gram - np.eye(op.dim)).max() <= 1e-10

    @pytest.mark.parametrize(
        "coeffs_fn", [model_coefficients, period2_coefficients, n2_coefficients]
    )
    def test_spectral_inclusion_periodic(self, coeffs_fn):
        coeffs = coeffs_fn()
        dec = eigendecompose(assemble(Window.periodic_cells(coeffs.period, 24), coeffs))
        tol = 1e-9
        ev = dec.eigenvalues
        assert (np.abs(ev) >= coeffs.lambda0 - tol).all()
        assert (np.abs(ev) <= coeffs.Lambda0 + 2.0 + tol).all()

    def test_half_gap_certificate_periodic(self):
        _, dec = model_periodic_decomposition()
        assert (np.abs(dec.eigenvalues) >= dec.lambda0 / 2.0).all()

    def test_split_index(self):
        _, dec = model_periodic_decomposition()
        assert (dec.eigenvalues[: dec.split_index] < 0).all()
        assert (dec.eigenvalues[dec.split_index :] > 0).all()


class TestProjectors:
    def test_eigenvector_splits_cleanly(self):
        op, dec = model_periodic_decomposition()
        idx = dec.split_index  # smallest positive eigenvalue
        v = BlockVector.from_flat(dec.window, 1, dec.eigenvectors[:, idx])
        minus, plus = projectors(dec, v)
        assert lp_norm(minus, 2) <= 1e-10
        np.testing.assert_allclose(plus.entries, v.entries, atol=1e-10)

    def test_zero_vector(self):
        _, dec = model_periodic_decomposition()
        minus, plus = projectors(dec, BlockVector.zeros(dec.window, 1))
        assert lp_norm(minus, 2) == 0.0 and lp_norm(plus, 2) == 0.0

    def test_recomposition_idempotence_orthogonality(self):
        rng = np.random.default_rng(20)
        op, dec = model_periodic_decomposition()
        for _ in range(10):
            x = random_block_vector(dec.window, 1, rng)
            minus, plus = projectors(dec, x)
            np.testing.assert_allclose(
                minus.entries + plus.entries, x.entries, atol=1e-10
            )
            assert abs(l2_inner(minus, plus)) <= 1e-10
            m2, p2 = projectors(dec, plus)
            assert lp_norm(m2, 2) <= 1e-10
            np.testing.assert_allclose(p2.entries, plus.entries, atol=1e-10)

    def test_quadratic_form_bounds(self):
        rng = np.random.default_rng(21)
        op, dec = model_periodic_decomposition()
        for _ in range(20):
            x = random_block_vector(dec.window, 1, rng)
            minus, plus = projectors(dec, x)
            qp = l2_inner(op.apply(plus), plus)
            qm = l2_inner(op.apply(minus), minus)
            assert qp >= dec.lambda0 * l2_inner(plus, plus) - 1e-9
            assert qm <= -dec.lambda0 * l2_inner(minus, minus) + 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(22)
        _, dec = model_periodic_decomposition()
        for _ in range(10):
            x = random_block_vector(dec.window, 1, rng)
            c = dec.coords(x)
            assert np.sum(c * c) == pytest.approx(lp_norm(x, 2) ** 2, abs=1e-10)

    def test_near_zero_eigenvalue_raises(self):
        _, dec = model_periodic_decomposition(num_nodes=5)
        tweaked = np.array(dec.eigenvalues)
        tweaked[dec.split_index] = 1e-12
        bad = SpectralDecomposition(
            window=dec.window,
            block_dim=dec.block_dim,
            eigenvalues=tweaked,
            eigenvectors=dec.eigenvectors,
            split_index=dec.split_index,
            lambda0=dec.lambda0,
            Lambda0=dec.Lambda0,
        )
        x = BlockVector.from_flat(dec.window, 1, dec.eigenvectors[:, 0])
        with pytest.raises(SpectralGapError):
            projectors(bad, x)
        with pytest.raises(SpectralGapError):
            e_norm(bad, x)


class TestENorm:
    def test_eigenvector_value(self):
        _, dec = model_periodic_decomposition()
        for idx in (0, dec.split_index, len(dec.eigenvalues) - 1):
            v = BlockVector.from_flat(dec.window, 1, dec.eigenvectors[:, idx])
            assert e_norm(dec, v) == pytest.approx(
                np.sqrt(abs(dec.eigenvalues[idx])), abs=1e-12
            )

    def test_zero(self):
        _, dec = model_periodic_decomposition()
        assert e_norm(dec, BlockVector.zeros(dec.window, 1)) == 0.0

    def test_norm_equivalence_square_root_constants(self):
        rng = np.random.default_rng(23)
        coeffs = period2_coefficients()
        dec = eigendecompose(assemble(Window.periodic_cells(2, 16), coeffs))
        lo = np.sqrt(coeffs.lambda0)
        hi = np.sqrt(2.0 + coeffs.Lambda0)
        for _ in range(20):
            x = random_block_vector(dec.window, 1, rng)
            l2 = lp_norm(x, 2)
            en = e_norm(dec, x)
            assert lo * l2 - 1e-10 <= en <= hi * l2 + 1e-10

    def test_orthogonal_additivity(self):
        rng = np.random.default_rng(24)
        _, dec = model_periodic_decomposition()
        for _ in range(10):
            x = random_block_vector(dec.window, 1, rng)
            minus, plus = projectors(dec, x)
            assert e_norm(dec, x) ** 2 == pytest.approx(
                e_norm(dec, minus) ** 2 + e_norm(dec, plus) ** 2, abs=1e-9
            )


class TestBandStructure:
    def test_model_extrema(self):
        bands = band_structure(model_coefficients(), 256)
        ext = bands.extrema()
        assert ext["positive_min"] == pytest.approx(1.0, abs=1e-12)
        assert ext["positive_max"] == pytest.approx(3.0, abs=1e-12)
        assert ext["negative_min"] == pytest.approx(-3.0, abs=1e-12)
        assert ext["negative_max"] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "coeffs_fn", [model_coefficients, period2_coefficients, n2_coefficients]
    )
    def test_bands_outside_gap(self, coeffs_fn):
        coeffs = coeffs_fn()
        bands = band_structure(coeffs, 64)
        assert (np.abs(bands.bands) >= coeffs.lambda0 - 1e-10).all()
        assert (np.abs(bands.bands) <= coeffs.Lambda0 + 2.0 + 1e-10).all()

    def test_even_about_pi(self):
        bands = band_structure(period2_coefficients(), 32)
        for j in range(1, 32):
            np.testing.assert_allclose(bands.bands[j], bands.bands[32 - j], atol=1e-12)

    def test_minimal_grid(self):
        bands = band_structure(model_coefficients(), 2)
        assert bands.bands.shape == (2, 2)
        with pytest.raises(ValueError):
            band_structure(model_coefficients(), 1)


@pytest.mark.parametrize("name", ["model", "period2", "n2"])
def test_batched_symbol(name, tmp_path, capsys):
    config_path = builtin_config_path(name)
    coeffs = load_config(str(config_path)).build_coefficients()
    thetas = 2.0 * np.pi * np.arange(12) / 12
    stack = floquet_symbol(thetas, coeffs)
    np.testing.assert_array_equal(stack, [floquet_symbol(t, coeffs) for t in thetas])

    bands = band_structure(coeffs, 12)
    for theta, row in zip(bands.thetas, bands.bands):
        np.testing.assert_allclose(
            row, np.linalg.eigvalsh(floquet_symbol(theta, coeffs)), rtol=0, atol=1e-12
        )

    argv = ["spectrum", "--config", str(config_path), "--out", str(tmp_path), "--window", "0"]
    assert main(argv) == 0
    cross = json.loads(capsys.readouterr().out)["periodic_crosscheck"]
    assert cross["num_nodes"] == coeffs.period and cross["momenta"] == 1
    assert cross["max_mismatch"] <= 1e-9


@pytest.mark.parametrize(
    "coeffs_fn", [model_coefficients, period2_coefficients, n2_coefficients]
)
@pytest.mark.parametrize("symbols_per_chunk", [0, 1, 3])
def test_symbol_chunks_match_one_batch(coeffs_fn, symbols_per_chunk, monkeypatch):
    # a budget of 3 symbols splits 10 thetas into chunks of 3, 3, 3 and 1; a
    # budget below one symbol still takes one symbol per chunk
    coeffs = coeffs_fn()
    size = 2 * coeffs.block_dim * coeffs.period
    thetas = 2.0 * np.pi * np.arange(10) / 10
    whole = np.linalg.eigvalsh(floquet_symbol(thetas, coeffs))
    chunks = []

    def counting_symbol(theta, c):
        chunks.append(np.size(theta))
        return floquet_symbol(theta, c)

    monkeypatch.setattr(spectral, "floquet_symbol", counting_symbol)
    monkeypatch.setattr(spectral, "SYMBOL_CHUNK_BYTES", symbols_per_chunk * 16 * size * size)
    np.testing.assert_array_equal(spectral.symbol_eigenvalues(thetas, coeffs), whole)
    assert chunks == ([3, 3, 3, 1] if symbols_per_chunk == 3 else [1] * 10)
    np.testing.assert_array_equal(band_structure(coeffs, 10).bands, whole)
