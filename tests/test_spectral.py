import functools
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dhlattice import (
    BlockVector,
    PeriodicCoefficients,
    Phi_split,
    Window,
    assemble,
    band_structure,
    coupling_matrix,
    eigendecompose,
    floquet_symbol,
    l2_inner,
    lp_norm,
)
from dhlattice import operators, spectral
from dhlattice.cli import builtin_config_path, load_config, main
from helpers import (
    first_positive,
    free_model_ctx,
    model_coefficients,
    n2_coefficients,
    period2_coefficients,
    random_block_vector,
)


def model_periodic_decomposition(num_nodes=33):
    coeffs = model_coefficients()
    op = assemble(Window.periodic(num_nodes), coeffs)
    return op, eigendecompose(op)


def sign_parts(dec, x):
    """(x-, x+): the parts of x along the negative and the positive eigenvectors."""
    s = first_positive(dec.eigenvalues)
    c = dec.eigenvectors.T @ x.flat
    minus = dec.eigenvectors[:, :s] @ c[:s]
    plus = dec.eigenvectors[:, s:] @ c[s:]
    return (
        BlockVector.from_flat(dec.window, x.block_dim, minus),
        BlockVector.from_flat(dec.window, x.block_dim, plus),
    )


def e_norm_squared(ctx, x):
    """||x||_E^2 = sum |lambda| c^2, twice the two quadratic terms of Phi_split."""
    plus, minus, _ = Phi_split(ctx, x)
    return 2.0 * (plus + minus)


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
        op, dec = model_periodic_decomposition()
        assert (np.abs(dec.eigenvalues) >= op.coeffs.lambda0 / 2.0).all()


class TestProjectors:
    def test_eigenvector_splits_cleanly(self):
        _, dec = model_periodic_decomposition()
        s = first_positive(dec.eigenvalues)
        for idx in (0, s - 1, s, dec.eigenvalues.size - 1):
            v = BlockVector.from_flat(dec.window, 1, dec.eigenvectors[:, idx])
            minus, plus = sign_parts(dec, v)
            own, other = (plus, minus) if dec.eigenvalues[idx] > 0 else (minus, plus)
            assert lp_norm(other, 2) <= 1e-10
            np.testing.assert_allclose(own.entries, v.entries, atol=1e-10)

    def test_zero_vector(self):
        ctx = free_model_ctx(33)
        minus, plus = sign_parts(ctx.dec, BlockVector.zeros(ctx.window, 1))
        assert lp_norm(minus, 2) == 0.0 and lp_norm(plus, 2) == 0.0
        assert Phi_split(ctx, BlockVector.zeros(ctx.window, 1)) == (0.0, 0.0, 0.0)

    def test_recomposition_idempotence_orthogonality(self):
        # each half of Phi_split sees only its own part of x = x- + x+
        rng = np.random.default_rng(20)
        ctx = free_model_ctx(33)
        dec = ctx.dec
        for _ in range(10):
            x = random_block_vector(dec.window, 1, rng)
            minus, plus = sign_parts(dec, x)
            np.testing.assert_allclose(
                minus.entries + plus.entries, x.entries, atol=1e-10
            )
            assert abs(l2_inner(minus, plus)) <= 1e-10
            m2, p2 = sign_parts(dec, plus)
            assert lp_norm(m2, 2) <= 1e-10
            np.testing.assert_allclose(p2.entries, plus.entries, atol=1e-10)
            split_plus, split_minus, _ = Phi_split(ctx, x)
            plus_p, minus_p, _ = Phi_split(ctx, plus)
            plus_m, minus_m, _ = Phi_split(ctx, minus)
            assert plus_p == pytest.approx(split_plus, abs=1e-10) and minus_p <= 1e-10
            assert minus_m == pytest.approx(split_minus, abs=1e-10) and plus_m <= 1e-10

    def test_quadratic_form_bounds(self):
        rng = np.random.default_rng(21)
        ctx = free_model_ctx(33)
        op, dec = ctx.op, ctx.dec
        lambda0 = op.coeffs.lambda0
        for _ in range(20):
            x = random_block_vector(dec.window, 1, rng)
            minus, plus = sign_parts(dec, x)
            qp = l2_inner(op.apply(plus), plus)
            qm = l2_inner(op.apply(minus), minus)
            assert qp >= lambda0 * l2_inner(plus, plus) - 1e-9
            assert qm <= -lambda0 * l2_inner(minus, minus) + 1e-9
            split_plus, split_minus, _ = Phi_split(ctx, x)
            assert split_plus == pytest.approx(0.5 * qp, abs=1e-9)
            assert split_minus == pytest.approx(-0.5 * qm, abs=1e-9)


class TestENorm:
    def test_eigenvector_value(self):
        # an eigenvector lands wholly on its own side of Phi_split with (1/2)|lambda|
        ctx = free_model_ctx(33)
        values = ctx.dec.eigenvalues
        s = first_positive(values)
        for idx in (0, s - 1, s, values.size - 1):
            v = BlockVector.from_flat(ctx.window, 1, ctx.dec.eigenvectors[:, idx])
            plus, minus, _ = Phi_split(ctx, v)
            half = 0.5 * abs(values[idx])
            expected = (half, 0.0) if values[idx] > 0 else (0.0, half)
            assert (plus, minus) == pytest.approx(expected, abs=1e-12)
            assert np.sqrt(e_norm_squared(ctx, v)) == pytest.approx(
                np.sqrt(abs(values[idx])), abs=1e-12
            )

    def test_zero(self):
        ctx = free_model_ctx(33)
        assert e_norm_squared(ctx, BlockVector.zeros(ctx.window, 1)) == 0.0

    def test_orthogonal_additivity(self):
        rng = np.random.default_rng(24)
        ctx = free_model_ctx(33)
        for _ in range(10):
            x = random_block_vector(ctx.window, 1, rng)
            minus, plus = sign_parts(ctx.dec, x)
            assert e_norm_squared(ctx, x) == pytest.approx(
                e_norm_squared(ctx, minus) + e_norm_squared(ctx, plus), abs=1e-9
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


def test_spectrum_runs_no_window_sized_dense_eigensolve(tmp_path, capsys, monkeypatch):
    # Bloch symbols are 2NT wide; any wider dense eigensolve is the window's
    symbol_size = 2

    def guarded(solver):
        def call(a, *args, **kwargs):
            if np.shape(a)[-1] > symbol_size:
                raise RuntimeError(f"dense eigensolve of a {np.shape(a)} matrix")
            return solver(a, *args, **kwargs)

        return call

    for module, name in [
        (np.linalg, "eigvalsh"), (np.linalg, "eigh"), (scipy.linalg, "eigh"),
        (scipy.linalg, "eigvalsh"),
    ]:
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    config_path = builtin_config_path("model")
    argv = ["spectrum", "--config", str(config_path), "--out", str(tmp_path), "--window", "64"]
    assert main(argv) == 0
    cross = json.loads(capsys.readouterr().out)["periodic_crosscheck"]
    assert set(cross) == {
        "num_nodes", "momenta", "max_mismatch", "eigenvalue_min", "eigenvalue_max",
    }
    assert cross["num_nodes"] == 129 and cross["max_mismatch"] <= 1e-9


def draw_r0_matrix(draw, n):
    """S = J0 [[P, Q], [Q, P]] with P - (N + 1/2) I positive semidefinite and
    |Q_ij| <= 1, so |Q| <= N < lambda_min(P) and J0 S is positive definite."""
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    p = draw(arrays(float, (n, n), elements=entries))
    p = p @ p.T + (n + 0.5) * np.eye(n)
    q = draw(arrays(float, (n, n), elements=entries))
    q = 0.5 * (q + q.T)
    return coupling_matrix(n) @ np.block([[p, q], [q, p]])


@st.composite
def r0_coefficients(draw):
    """A period-T family of (R0) matrices, each drawn on its own."""
    n = draw(st.sampled_from([1, 2]))
    period = draw(st.integers(1, 3))
    return PeriodicCoefficients([draw_r0_matrix(draw, n) for _ in range(period)])


@st.composite
def reflection_symmetric_coefficients(draw):
    """(R0) matrices drawn for n = 0..T//2, with S(-n mod T) set to P S(n) P,
    P the swap of x1 and x2."""
    n = draw(st.sampled_from([1, 2]))
    period = draw(st.integers(1, 3))
    swap = np.roll(np.arange(2 * n), n)
    mats = [None] * period
    for k in range(period // 2 + 1):
        mats[k] = draw_r0_matrix(draw, n)
        mats[-k % period] = mats[k][swap][:, swap]
    return PeriodicCoefficients(mats)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(coeffs=r0_coefficients(), cells=st.integers(1, 9))
def test_periodic_window_eigenvalues_are_symbol_union(coeffs, cells):
    cross = spectral.periodic_crosscheck(coeffs, cells)
    thetas = 2.0 * np.pi * np.arange(cells) / cells
    union = np.linalg.eigvalsh(floquet_symbol(thetas, coeffs))
    tol = 1e-12 * (2.0 + coeffs.Lambda0)
    assert (cross["num_nodes"], cross["momenta"]) == (cells * coeffs.period, cells)
    assert cross["max_mismatch"] <= tol
    assert abs(cross["eigenvalue_min"] - union.min()) <= tol
    assert abs(cross["eigenvalue_max"] - union.max()) <= tol


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
    bands = band_structure(coeffs, 10).bands
    np.testing.assert_array_equal(bands[:6], whole[:6])
    np.testing.assert_array_equal(bands[6:], bands[4:0:-1])
    np.testing.assert_allclose(bands[6:], whole[6:], rtol=0, atol=1e-12)


def banded_eigenvalues(bands):
    return scipy.linalg.eigvals_banded(bands, lower=True)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(coeffs=reflection_symmetric_coefficients(), cells=st.integers(1, 9))
def test_reflection_blocks_split_the_folded_ring(coeffs, cells):
    # counts cells * T of both parities: an even count has a second fixed
    # node at count/2
    count = cells * coeffs.period
    n = coeffs.block_dim
    assert operators._reflection_symmetric(coeffs)
    blocks = operators._reflected_ring_bands(coeffs, count)
    assert len(blocks) == 2
    for bands in blocks:
        assert bands.shape[1] == n * count  # L / 2 columns
        assert bands.shape[0] <= 2 * n  # at most 2N - 1 sub-diagonals
    split = np.sort(np.concatenate([banded_eigenvalues(bands) for bands in blocks]))
    folded = banded_eigenvalues(operators._folded_ring_bands(coeffs, count))
    assert np.abs(split - folded).max() <= 1e-12 * (2.0 + coeffs.Lambda0)


@functools.cache
def perfbench_random_coefficients():
    """The benchmark's random N = 2, T = 4 set, which is not reflection-symmetric."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    raw = workloads.random_r0_config(3)
    return PeriodicCoefficients(np.reshape(raw["matrices"], (raw["period"], 4, 4)))


def named_coefficients(name):
    """A shipped config's coefficients, or the benchmark's random set."""
    if name == "perfbench_random":
        return perfbench_random_coefficients()
    return load_config(str(builtin_config_path(name))).build_coefficients()


@pytest.mark.parametrize("name", ["model", "period2", "n2"])
def test_one_ulp_breaks_the_reflection_symmetry(name):
    coeffs = named_coefficients(name)
    assert operators._reflection_symmetric(coeffs)
    mats = np.array(coeffs.matrices)
    mats[0, 0, 0] = np.nextafter(mats[0, 0, 0], np.inf)
    assert not operators._reflection_symmetric(PeriodicCoefficients(mats))


def test_benchmark_random_set_is_not_reflection_symmetric():
    assert not operators._reflection_symmetric(perfbench_random_coefficients())


@pytest.mark.parametrize(
    "name, reflected",
    [("model", True), ("period2", True), ("n2", True), ("perfbench_random", False)],
)
def test_crosscheck_takes_the_reflected_path_on_symmetric_sets(name, reflected, monkeypatch):
    coeffs = named_coefficients(name)
    calls = {"_reflected_ring_bands": 0, "_folded_ring_bands": 0}

    def counting(builder):
        def build(*args):
            calls[builder.__name__] += 1
            return builder(*args)

        return build

    for key in calls:
        monkeypatch.setattr(spectral, key, counting(getattr(spectral, key)))
    cross = spectral.periodic_crosscheck(coeffs, 5)
    assert calls == {"_reflected_ring_bands": int(reflected), "_folded_ring_bands": int(not reflected)}
    assert cross["max_mismatch"] <= 1e-12 * (2.0 + coeffs.Lambda0)


@pytest.mark.parametrize("name", ["model", "period2", "n2", "perfbench_random"])
@pytest.mark.parametrize("grid_size", [2, 3, 4, 7, 256])
def test_uniform_grid_rows_mirror_about_pi(name, grid_size):
    coeffs = named_coefficients(name)
    thetas, rows = spectral._uniform_grid_eigenvalues(coeffs, grid_size)
    np.testing.assert_array_equal(thetas, 2.0 * np.pi * np.arange(grid_size) / grid_size)
    for j in range(1, grid_size):
        np.testing.assert_array_equal(rows[grid_size - j], rows[j])
    own = np.linalg.eigvalsh(floquet_symbol(thetas, coeffs))
    np.testing.assert_allclose(rows, own, rtol=0, atol=1e-12)
