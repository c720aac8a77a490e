import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhlattice import (
    BlockVector,
    Boundary,
    ConfigurationError,
    DimensionMismatchError,
    PeriodicCoefficients,
    TruncatedOperator,
    Window,
    apply_A,
    apply_S,
    assemble,
    eigendecompose,
    floquet_symbol,
    l2_inner,
    lp_norm,
)
from dhlattice import operators
from dhlattice.operators import (
    _chain_bands,
    _reflection_symmetric,
    _ring_bands,
    _ring_matrix,
    sturm_count,
)
from helpers import (
    MODEL_MATRICES,
    model_coefficients,
    n2_coefficients,
    period2_coefficients,
    random_block_vector,
    random_coefficients,
    random_window,
)

TOL = 1e-12


def dense_from_apply(window, block_dim, op):
    """Matrix oracle: apply the operator to every canonical basis vector."""
    dim = window.num_nodes * 2 * block_dim
    mat = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        mat[:, j] = op(BlockVector.from_flat(window, block_dim, e)).flat
    return mat


class TestApplyA:
    def test_zero(self):
        x = BlockVector.zeros(Window.zero_pad(2), 1)
        assert lp_norm(apply_A(x), 2) == 0.0

    def test_hand_example(self):
        w = Window.zero_pad(1)
        x = BlockVector(w, 1, [[0, 0], [1, 0], [0, 0]])
        z = apply_A(x)
        np.testing.assert_allclose(z.entries, [[0, -1], [0, 1], [0, 0]], atol=TOL)
        assert l2_inner(z, z) == pytest.approx(2.0, abs=TOL)
        assert l2_inner(z, z) <= 4.0 * l2_inner(x, x)

    @pytest.mark.parametrize("boundary", [Boundary.ZERO_PAD, Boundary.PERIODIC])
    def test_self_adjoint_random(self, boundary):
        rng = np.random.default_rng(10)
        for _ in range(100):
            half = int(rng.integers(1, 12))
            w = Window(half, boundary)
            n = int(rng.integers(1, 4))
            x = random_block_vector(w, n, rng)
            y = random_block_vector(w, n, rng)
            assert l2_inner(apply_A(x), y) == pytest.approx(
                l2_inner(x, apply_A(y)), abs=TOL
            )

    def test_dense_oracle_symmetric(self):
        rng = np.random.default_rng(11)
        w = Window.zero_pad(4)
        mat = dense_from_apply(w, 2, apply_A)
        np.testing.assert_allclose(mat, mat.T, atol=TOL)
        x = random_block_vector(w, 2, rng)
        np.testing.assert_allclose(mat @ x.flat, apply_A(x).flat, atol=TOL)

    def test_norm_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = random_window(1, rng, max_half_width=32)
            x = random_block_vector(w, int(rng.integers(1, 4)), rng)
            assert lp_norm(apply_A(x), 2) <= 2.0 * lp_norm(x, 2) + TOL


class TestApplyS:
    def test_zero(self):
        x = BlockVector.zeros(Window.zero_pad(2), 1)
        coeffs = model_coefficients()
        assert lp_norm(apply_S(x, coeffs), 2) == 0.0

    def test_sign_convention(self):
        coeffs = model_coefficients()
        w = Window.zero_pad(0)
        for t in (1.0, -2.5, 0.25):
            x = BlockVector(w, 1, [[t, 0.0]])
            np.testing.assert_allclose(apply_S(x, coeffs).entries, [[0.0, t]], atol=TOL)

    def test_norm_bound_lambda(self):
        rng = np.random.default_rng(13)
        coeffs = period2_coefficients()
        for _ in range(100):
            w = random_window(coeffs.period, rng, max_half_width=24)
            x = random_block_vector(w, 1, rng)
            assert lp_norm(apply_S(x, coeffs), 2) <= coeffs.Lambda0 * lp_norm(x, 2) + TOL

    def test_dimension_mismatch(self):
        coeffs = model_coefficients()
        x = BlockVector.zeros(Window.zero_pad(1), 2)
        with pytest.raises(DimensionMismatchError):
            apply_S(x, coeffs)

    def test_periodic_divisibility_enforced(self):
        coeffs = period2_coefficients()
        x = BlockVector.zeros(Window(2, Boundary.PERIODIC), 1)  # 5 nodes, period 2
        with pytest.raises(ConfigurationError):
            apply_S(x, coeffs)

    def test_phase_convention(self):
        coeffs = period2_coefficients()
        w = Window.zero_pad(2)
        x = BlockVector(w, 1, np.ones((5, 2)))
        z = apply_S(x, coeffs)
        # node n uses S(n mod T): nodes -2, 0, 2 -> S(0); -1, 1 -> S(1)
        for i, n in enumerate(w.nodes):
            expected = -coeffs.matrices[n % 2] @ x.entries[i]
            np.testing.assert_allclose(z.entries[i], expected, atol=TOL)


class TestAssemble:
    def test_single_node_hand_assembly(self):
        # zero-padded single node: A contributes [[0,1],[1,0]], -S(0) another
        op = assemble(Window.zero_pad(0), model_coefficients())
        np.testing.assert_allclose(op.to_dense(), [[0.0, 2.0], [2.0, 0.0]], atol=TOL)

    @pytest.mark.parametrize("boundary", [Boundary.ZERO_PAD, Boundary.PERIODIC])
    def test_matrix_symmetric(self, boundary):
        coeffs = period2_coefficients()
        w = Window.periodic_cells(2, 6) if boundary is Boundary.PERIODIC else Window.zero_pad(6)
        mat = assemble(w, coeffs).to_dense()
        np.testing.assert_allclose(mat, mat.T, atol=TOL)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(14)
        for coeffs in (model_coefficients(), period2_coefficients(), n2_coefficients()):
            for _ in range(34):
                w = random_window(coeffs.period, rng, max_half_width=16)
                op = assemble(w, coeffs)
                x = random_block_vector(w, coeffs.block_dim, rng)
                expected = apply_A(x).entries + apply_S(x, coeffs).entries
                np.testing.assert_allclose(
                    op.apply(x).entries, expected, atol=TOL
                )

    def test_operator_norm_bound(self):
        for coeffs in (model_coefficients(), period2_coefficients(), n2_coefficients()):
            w = Window.zero_pad(20)
            op = assemble(w, coeffs)
            norm = np.abs(np.linalg.eigvalsh(op.to_dense())).max()
            assert norm <= 2.0 + coeffs.Lambda0 + 1e-10

    def test_combined_norm_bound_random(self):
        rng = np.random.default_rng(15)
        coeffs = n2_coefficients()
        w = Window.zero_pad(16)
        op = assemble(w, coeffs)
        for _ in range(100):
            x = random_block_vector(w, coeffs.block_dim, rng)
            assert lp_norm(op.apply(x), 2) <= (2.0 + coeffs.Lambda0) * lp_norm(x, 2) + TOL

    def test_periodic_divisibility(self):
        with pytest.raises(ConfigurationError):
            assemble(Window(3, Boundary.PERIODIC), period2_coefficients())  # 7 nodes


def reference_matrix(window, coeffs):
    """Columns are apply_A + apply_S on the unit vectors of the window."""
    dim = window.num_nodes * 2 * coeffs.block_dim
    cols = []
    for e in np.eye(dim):
        x = BlockVector.from_flat(window, coeffs.block_dim, e)
        cols.append((apply_A(x).entries + apply_S(x, coeffs).entries).reshape(-1))
    return np.column_stack(cols)


class TestBandedStorage:
    def test_banded_matches_dense(self):
        rng = np.random.default_rng(16)
        coeffs = n2_coefficients()
        w = Window.zero_pad(9)
        op = assemble(w, coeffs)
        assert op.storage == "banded" and op.matrix is None
        reference = reference_matrix(w, coeffs)
        np.testing.assert_array_equal(op.to_dense(), reference)
        for _ in range(10):
            v = rng.standard_normal(op.dim)
            applied = op.apply(BlockVector.from_flat(w, coeffs.block_dim, v)).flat
            np.testing.assert_allclose(applied, reference @ v, atol=1e-10)
        dec = eigendecompose(op)
        wb, vb = dec.eigenvalues, dec.eigenvectors
        np.testing.assert_allclose(wb, np.linalg.eigvalsh(reference), atol=1e-9)
        np.testing.assert_allclose(
            np.linalg.norm(reference @ vb - vb * wb, axis=0), np.zeros(op.dim), atol=1e-9
        )

    @pytest.mark.parametrize(
        "coeffs_fn", [model_coefficients, period2_coefficients, n2_coefficients]
    )
    def test_storage_follows_boundary(self, coeffs_fn):
        coeffs = coeffs_fn()
        for w in (Window.zero_pad(0), Window.zero_pad(1), Window.zero_pad(7)):
            op = assemble(w, coeffs)
            assert op.storage == "banded" and op.matrix is None
            np.testing.assert_array_equal(op.to_dense(), reference_matrix(w, coeffs))
        for cells in (1, 2, 5):
            w = Window.periodic_cells(coeffs.period, cells)
            op = assemble(w, coeffs)
            assert op.storage == "dense" and op.bands is None
            # one or two cells add both wrap-around couplings onto one block
            np.testing.assert_allclose(op.to_dense(), reference_matrix(w, coeffs), atol=TOL)


def reference_bands(window, coeffs):
    """Lower-banded storage written one node and one block entry at a time."""
    n = coeffs.block_dim
    n2 = 2 * n
    a_diag = np.zeros((n2, n2))
    a_diag[:n, n:] = np.eye(n)
    a_diag[n:, :n] = np.eye(n)
    # coupling of node m's z1 rows to node m-1's x2 columns
    c_low = np.zeros((n2, n2))
    c_low[:n, n:] = -np.eye(n)
    bands = np.zeros((n2, window.num_nodes * n2))
    for i, node in enumerate(window.nodes):
        blk = a_diag - coeffs.matrices[node % coeffs.period]
        for a in range(n2):
            for b in range(a, n2):
                bands[b - a, i * n2 + a] = blk[b, a]
    for i in range(window.num_nodes - 1):
        for a in range(n2):
            for b in range(n2):
                if c_low[b, a] != 0.0:
                    bands[n2 + b - a, i * n2 + a] = c_low[b, a]
    return bands


@pytest.mark.parametrize("block_dim", [1, 2])
@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("num_nodes", [1, 2, 129])
def test_banded_assembly_equals_per_node_loop(block_dim, period, num_nodes):
    # one node is the window whose bandwidth exceeds the matrix size
    coeffs = random_coefficients(block_dim, period, np.random.default_rng(num_nodes))
    window = Window(half_width=num_nodes // 2, num_nodes=num_nodes)
    bands = _chain_bands(coeffs, window.nodes)
    assert np.array_equal(bands, reference_bands(window, coeffs))
    # the matrix has no entry beyond offset 2N - 1, so 2N rows drop nothing
    dense = reference_matrix(window, coeffs)
    rows, cols = np.nonzero(dense)
    assert np.abs(rows - cols).max() <= 2 * block_dim - 1
    assert np.array_equal(TruncatedOperator(window, coeffs, bands=bands).to_dense(), dense)


def random_n2_t4_coefficients():
    return random_coefficients(2, 4, np.random.default_rng(40))


@pytest.mark.parametrize(
    "coeffs_fn",
    [model_coefficients, period2_coefficients, n2_coefficients, random_n2_t4_coefficients],
)
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 64])
def test_folded_ring_bands_equal_permuted_ring(coeffs_fn, count, monkeypatch):
    # the ring's scalar unknowns in the order 0, L-1, 1, L-2, ...; on one node
    # both wrap-around blocks land in the diagonal block.  The shipped sets
    # are reflection-symmetric, so the folded basis is forced on them.
    coeffs = coeffs_fn()
    monkeypatch.setattr(operators, "_reflection_symmetric", lambda coeffs: False)
    n = coeffs.block_dim
    ring = _ring_matrix(coeffs, np.arange(count), 1.0)
    dim = ring.shape[0]
    perm = [i // 2 if i % 2 == 0 else dim - 1 - i // 2 for i in range(dim)]
    folded = ring[perm][:, perm]
    rows_expected = 2 * n if count == 1 else 4 * n - 1
    rows, cols = np.nonzero(folded)
    assert np.abs(rows - cols).max() == rows_expected - 1
    expected = np.zeros((rows_expected, dim))
    for k in range(rows_expected):
        expected[k, : dim - k] = np.diagonal(folded, -k)
    assert np.array_equal(np.stack(_ring_bands(coeffs, count)), expected[None])


def random_n2_t2_coefficients():
    return random_coefficients(2, 2, np.random.default_rng(41))


@pytest.mark.parametrize(
    "coeffs_fn",
    [model_coefficients, period2_coefficients, n2_coefficients, random_n2_t2_coefficients],
)
@pytest.mark.parametrize("cells", [1, 2, 3, 4, 5, 9, 32])
def test_reflected_ring_bands_equal_dense_blocks(coeffs_fn, cells):
    # R maps unknown (n, c) to (-n mod count, c +- N); each block keeps the
    # smaller unknown a of each pair and holds H[a, b] + sigma H[a, R b]
    coeffs = coeffs_fn()
    n = coeffs.block_dim
    count = cells * coeffs.period
    assert _reflection_symmetric(coeffs)
    ring = _ring_matrix(coeffs, np.arange(count), 1.0)
    dim = ring.shape[0]
    node, comp = np.divmod(np.arange(dim), 2 * n)
    mirror = (-node % count) * 2 * n + (comp + n) % (2 * n)
    assert np.array_equal(ring[mirror][:, mirror], ring)
    kept = np.flatnonzero(np.arange(dim) < mirror)
    assert kept.size == dim // 2
    blocks = _ring_bands(coeffs, count)
    assert len(blocks) == 2
    for sign, bands in zip((1.0, -1.0), blocks):
        block = ring[np.ix_(kept, kept)] + sign * ring[np.ix_(kept, mirror[kept])]
        rows, cols = np.nonzero(block)
        assert np.abs(rows - cols).max(initial=0) <= 2 * n - 1
        expected = np.zeros((min(2 * n, dim // 2), dim // 2))
        for k in range(expected.shape[0]):
            expected[k, : dim // 2 - k] = np.diagonal(block, -k)
        # on one node an entry sums three terms, in another order than here
        np.testing.assert_allclose(bands, expected, rtol=0, atol=1e-15 * (2.0 + coeffs.Lambda0))


def dense_count(op, sigma):
    """Eigenvalues <= sigma of the operator, from a dense eigensolve."""
    return int((np.linalg.eigvalsh(op.to_dense() - sigma * np.eye(op.dim)) <= 0).sum())


class TestSturmCount:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        block_dim=st.sampled_from([1, 2]),
        period=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        half_width=st.integers(0, 24),
        fraction=st.floats(0.01, 0.99),
    )
    def test_equals_dense_count(self, block_dim, period, seed, half_width, fraction):
        coeffs = random_coefficients(block_dim, period, np.random.default_rng(seed))
        op = assemble(Window.zero_pad(half_width), coeffs)
        values = np.linalg.eigvalsh(op.to_dense())
        assert sturm_count(op.bands) == dense_count(op, 0.0)
        # a shift inside the spectrum, clear of every eigenvalue at roundoff
        sigma = values[0] + fraction * (values[-1] - values[0])
        assume(np.abs(values - sigma).min() > 1e-9 * np.abs(values).max())
        assert sturm_count(op.bands, sigma) == dense_count(op, sigma)

    @pytest.mark.parametrize("half_width", [0, 1, 2, 7, 24])
    def test_model_zero_diagonal(self, half_width):
        # every pivot of the model operator at sigma = 0 starts at zero
        op = assemble(Window.zero_pad(half_width), model_coefficients())
        assert not op.bands[0].any()
        assert sturm_count(op.bands) == dense_count(op, 0.0) == op.dim // 2

    @pytest.mark.parametrize(
        "coeffs,sigma",
        [(model_coefficients(), 2.0), (model_coefficients(), -2.0),
         (period2_coefficients(), 1.8), (period2_coefficients(), -2.2)],
    )
    def test_eigenvalue_exact_in_floating_point(self, coeffs, sigma):
        # on one node M - sigma I is exactly singular: the zero pivot becomes
        # -pivmin and the eigenvalue at sigma counts
        op = assemble(Window.zero_pad(0), coeffs)
        shifted = op.to_dense() - sigma * np.eye(2)
        assert shifted[0, 0] * shifted[1, 1] == shifted[0, 1] * shifted[1, 0]
        assert sturm_count(op.bands, sigma) == dense_count(op, sigma)


class TestFiniteWindowGap:
    """Under (R0) every window's matrix has dim/2 eigenvalues <= -lambda0,
    dim/2 >= lambda0 and none between; the linking start relies on it
    (``solver._linking_direction`` proves it for zero-pad windows)."""

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(
        block_dim=st.integers(1, 3),
        period=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        periodic=st.booleans(),
        size=st.integers(0, 24),
    )
    def test_half_the_spectrum_on_each_side_of_the_gap(
        self, block_dim, period, seed, periodic, size
    ):
        coeffs = random_coefficients(block_dim, period, np.random.default_rng(seed))
        if periodic:
            window = Window.periodic_cells(period, size // period + 1)
        else:
            window = Window.zero_pad(size)
        op = assemble(window, coeffs)
        values = np.linalg.eigvalsh(op.to_dense())
        assert int((values < 0).sum()) == op.dim // 2
        assert np.abs(values).min() >= coeffs.lambda0 * (1.0 - 1e-12)
        if not periodic:
            assert sturm_count(op.bands) == op.dim // 2


class TestFloquetSymbol:
    def test_model_analytic_endpoints(self):
        coeffs = model_coefficients()
        sym0 = floquet_symbol(0.0, coeffs)
        np.testing.assert_allclose(sym0, [[0, 1], [1, 0]], atol=TOL)
        np.testing.assert_allclose(np.linalg.eigvalsh(sym0), [-1.0, 1.0], atol=TOL)
        sym_pi = floquet_symbol(np.pi, coeffs)
        np.testing.assert_allclose(sym_pi, [[0, 3], [3, 0]], atol=TOL)
        np.testing.assert_allclose(np.linalg.eigvalsh(sym_pi), [-3.0, 3.0], atol=TOL)

    def test_model_analytic_formula(self):
        coeffs = model_coefficients()
        for theta in np.linspace(0.0, 2.0 * np.pi, 17, endpoint=False):
            sym = floquet_symbol(theta, coeffs)
            expected = np.array(
                [[0.0, 2.0 - np.exp(-1j * theta)], [2.0 - np.exp(1j * theta), 0.0]]
            )
            np.testing.assert_allclose(sym, expected, atol=TOL)

    @pytest.mark.parametrize(
        "coeffs_fn", [model_coefficients, period2_coefficients, n2_coefficients]
    )
    def test_hermitian(self, coeffs_fn):
        coeffs = coeffs_fn()
        for theta in (0.0, 0.7, np.pi, 4.0):
            sym = floquet_symbol(theta, coeffs)
            np.testing.assert_allclose(sym, sym.conj().T, atol=TOL)

    @pytest.mark.parametrize(
        "coeffs_fn",
        [model_coefficients, period2_coefficients, n2_coefficients, random_n2_t4_coefficients],
    )
    def test_wrap_convention_matches_periodic_window_cells(self, coeffs_fn):
        # on x(n + T) = exp(i theta) x(n), cell 0 (nodes 0..T-1) of a 3-cell
        # periodic window sees cell 1 as exp(i theta) x(cell 0) and cell 2, its
        # left neighbour around the ring, as exp(-i theta) x(cell 0)
        coeffs = coeffs_fn()
        window = Window(half_width=0, boundary=Boundary.PERIODIC, num_nodes=3 * coeffs.period)
        h = reference_matrix(window, coeffs)
        c0, c1, c2 = np.split(np.arange(h.shape[0]), 3)
        for theta in (0.0, 0.7, np.pi, 4.0):
            expected = (
                h[np.ix_(c0, c0)]
                + np.exp(1j * theta) * h[np.ix_(c0, c1)]
                + np.exp(-1j * theta) * h[np.ix_(c0, c2)]
            )
            assert np.array_equal(floquet_symbol(theta, coeffs), expected)

    def test_conjugation_symmetry(self):
        coeffs = period2_coefficients()
        m = 16
        for j in range(m):
            a = np.linalg.eigvalsh(floquet_symbol(2 * np.pi * j / m, coeffs))
            b = np.linalg.eigvalsh(floquet_symbol(2 * np.pi * (m - j) / m, coeffs))
            np.testing.assert_allclose(a, b, atol=TOL)

    @pytest.mark.parametrize(
        "coeffs_fn,cells",
        [
            (model_coefficients, 8),
            (model_coefficients, 9),
            (period2_coefficients, 8),
            (n2_coefficients, 8),
        ],
    )
    def test_floquet_consistency_with_direct_eigensolve(self, coeffs_fn, cells):
        coeffs = coeffs_fn()
        window = Window.periodic_cells(coeffs.period, cells)
        direct = np.sort(np.linalg.eigvalsh(assemble(window, coeffs).to_dense()))
        union = np.sort(
            np.concatenate(
                [
                    np.linalg.eigvalsh(floquet_symbol(2 * np.pi * j / cells, coeffs))
                    for j in range(cells)
                ]
            )
        )
        np.testing.assert_allclose(direct, union, atol=1e-9)


class TestCoercivityBounds:
    """lambda0 and Lambda0: the extreme eigenvalues of J0 S(n) over one period."""

    def test_model(self):
        coeffs = PeriodicCoefficients(MODEL_MATRICES)
        assert (coeffs.lambda0, coeffs.Lambda0) == pytest.approx((1.0, 1.0), abs=TOL)

    def test_split(self):
        coeffs = PeriodicCoefficients([[[0.2, -1.0], [-1.0, 0.2]]])
        assert coeffs.lambda0 == pytest.approx(0.8, abs=TOL)
        assert coeffs.Lambda0 == pytest.approx(1.2, abs=TOL)

    def test_random_families_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            coeffs = random_coefficients(int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
            assert 0.0 < coeffs.lambda0 <= coeffs.Lambda0
            rebuilt = PeriodicCoefficients(coeffs.matrices)
            assert (rebuilt.lambda0, rebuilt.Lambda0) == (coeffs.lambda0, coeffs.Lambda0)
