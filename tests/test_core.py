import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhlattice import (
    BlockVector,
    Boundary,
    ConfigurationError,
    DimensionMismatchError,
    HypothesisViolationError,
    PeriodicCoefficients,
    Window,
    coupling_matrix,
    l2_inner,
    lp_norm,
    reembed,
    shift,
)
from dhlattice.core import SYMMETRY_TOL, json_text, require_real
from helpers import model_coefficients, random_block_vector, random_coefficients

TOL = 1e-12


class TestWindow:
    def test_default_symmetric_range(self):
        w = Window.zero_pad(3)
        assert w.lo == -3 and w.hi == 3 and w.num_nodes == 7
        assert list(w.nodes) == [-3, -2, -1, 0, 1, 2, 3]

    def test_periodic_even_count(self):
        w = Window.periodic(8)
        assert w.num_nodes == 8
        assert w.lo == -4 and w.hi == 3

    def test_periodic_cells(self):
        w = Window.periodic_cells(2, 8)
        assert w.num_nodes == 16 and w.boundary is Boundary.PERIODIC

    def test_negative_half_width_rejected(self):
        with pytest.raises(ConfigurationError):
            Window(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"half_width": 2.5}, {"half_width": 2, "num_nodes": 4.7}, {"half_width": True}],
    )
    def test_non_integer_sizes_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            Window(**kwargs)

    def test_window_must_contain_origin(self):
        with pytest.raises(ConfigurationError):
            Window(2, Boundary.ZERO_PAD, num_nodes=1)  # range [-2, -2]


class TestBlockVector:
    def test_shape_validation(self):
        w = Window.zero_pad(1)
        with pytest.raises(DimensionMismatchError):
            BlockVector(w, 1, np.zeros((2, 2)))
        with pytest.raises(DimensionMismatchError):
            BlockVector(w, 1, np.zeros((3, 4)))

    def test_entries_read_only(self):
        x = BlockVector.zeros(Window.zero_pad(1), 1)
        with pytest.raises(ValueError):
            x.entries[0, 0] = 1.0

    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        w = Window.zero_pad(2)
        x = random_block_vector(w, 2, rng)
        y = BlockVector.from_flat(w, 2, x.flat)
        np.testing.assert_array_equal(x.entries, y.entries)


class TestL2Inner:
    def test_zero(self):
        x = BlockVector.zeros(Window.zero_pad(2), 1)
        assert l2_inner(x, x) == 0.0

    def test_orthogonal_blocks(self):
        w = Window.zero_pad(1)
        x = BlockVector(w, 1, [[0, 0], [1, 0], [0, 0]])
        y = BlockVector(w, 1, [[0, 0], [0, 2], [0, 0]])
        assert l2_inner(x, y) == 0.0

    def test_hand_summed_value(self):
        w = Window.zero_pad(1)
        x = BlockVector(w, 1, [[0, 0], [1, 2], [3, 0]])
        assert l2_inner(x, x) == pytest.approx(14.0, abs=TOL)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        w = Window.zero_pad(4)
        x, y, z = (random_block_vector(w, 2, rng) for _ in range(3))
        assert l2_inner(x, y) == pytest.approx(l2_inner(y, x), abs=TOL)
        combo = y.with_entries(2.0 * y.entries + 3.0 * z.entries)
        assert l2_inner(x, combo) == pytest.approx(
            2.0 * l2_inner(x, y) + 3.0 * l2_inner(x, z), abs=1e-10
        )

    def test_window_mismatch_raises(self):
        x = BlockVector.zeros(Window.zero_pad(1), 1)
        y = BlockVector.zeros(Window.zero_pad(2), 1)
        with pytest.raises(DimensionMismatchError):
            l2_inner(x, y)


class TestLpNorm:
    def test_zero_any_p(self):
        x = BlockVector.zeros(Window.zero_pad(2), 1)
        for p in (2, 3, 4, np.inf):
            assert lp_norm(x, p) == 0.0

    def test_single_block(self):
        w = Window.zero_pad(1)
        x = BlockVector(w, 1, [[0, 0], [3, 0], [0, 0]])
        for p in (2, 2.5, 4, np.inf):
            assert lp_norm(x, p) == pytest.approx(3.0, abs=TOL)

    def test_three_four_five(self):
        w = Window.zero_pad(1)
        x = BlockVector(w, 1, [[3, 0], [0, 4], [0, 0]])
        assert lp_norm(x, 2) == pytest.approx(5.0, abs=TOL)
        assert lp_norm(x, np.inf) == pytest.approx(4.0, abs=TOL)
        assert lp_norm(x, np.inf) <= lp_norm(x, 2)

    def test_small_p_rejected(self):
        x = BlockVector.zeros(Window.zero_pad(1), 1)
        with pytest.raises(ValueError):
            lp_norm(x, 1.5)

    def test_embedding_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = Window.zero_pad(int(rng.integers(1, 20)))
            x = random_block_vector(w, int(rng.integers(1, 4)), rng)
            for p in (3, 4, np.inf):
                assert lp_norm(x, p) <= lp_norm(x, 2) + TOL

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = Window.zero_pad(int(rng.integers(1, 16)))
            n = int(rng.integers(1, 4))
            x = random_block_vector(w, n, rng)
            y = random_block_vector(w, n, rng)
            assert abs(l2_inner(x, y)) <= lp_norm(x, 2) * lp_norm(y, 2) + TOL


class TestShift:
    def test_identity(self):
        rng = np.random.default_rng(4)
        x = random_block_vector(Window.zero_pad(3), 1, rng)
        assert shift(x, 0) is x

    def test_periodic_full_rotation(self):
        rng = np.random.default_rng(5)
        w = Window.periodic(7)
        x = random_block_vector(w, 1, rng)
        np.testing.assert_array_equal(shift(x, 7).entries, x.entries)

    def test_zero_pad_bookkeeping(self):
        w = Window.zero_pad(1)
        a, b, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
        x = BlockVector(w, 1, [a, b, c])
        y = shift(x, 1)
        np.testing.assert_array_equal(y.entries, [b, c, [0.0, 0.0]])

    def test_periodic_isometry(self):
        rng = np.random.default_rng(6)
        w = Window.periodic(9)
        for _ in range(10):
            x = random_block_vector(w, 2, rng)
            k = int(rng.integers(-20, 20))
            assert lp_norm(shift(x, k), 2) == pytest.approx(lp_norm(x, 2), abs=TOL)

    def test_zero_pad_shift_out(self):
        rng = np.random.default_rng(7)
        x = random_block_vector(Window.zero_pad(2), 1, rng)
        assert lp_norm(shift(x, 10), 2) == 0.0


class TestReembed:
    def test_same_window_identity(self):
        rng = np.random.default_rng(8)
        x = random_block_vector(Window.zero_pad(3), 1, rng)
        np.testing.assert_array_equal(reembed(x, x.window).entries, x.entries)

    def test_new_nodes_zero(self):
        x = BlockVector(Window.zero_pad(1), 1, np.ones((3, 2)))
        y = reembed(x, Window.zero_pad(2))
        np.testing.assert_array_equal(y.entries[0], [0, 0])
        np.testing.assert_array_equal(y.entries[-1], [0, 0])
        np.testing.assert_array_equal(y.entries[1:4], x.entries)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        x = random_block_vector(Window.zero_pad(4), 2, rng)
        assert lp_norm(reembed(x, Window.zero_pad(9)), 2) == lp_norm(x, 2)

    def test_shrinking_rejected(self):
        x = BlockVector.zeros(Window.zero_pad(3), 1)
        with pytest.raises(ValueError):
            reembed(x, Window.zero_pad(2))


class TestStructureMatrices:
    def test_identities(self):
        for n in (1, 2, 3):
            j0 = coupling_matrix(n)
            np.testing.assert_array_equal(j0 @ j0, np.eye(2 * n))
            np.testing.assert_array_equal(j0.T, j0)


class TestPeriodicCoefficients:
    def test_model_bounds(self):
        coeffs = model_coefficients()
        assert coeffs.lambda0 == pytest.approx(1.0, abs=TOL)
        assert coeffs.Lambda0 == pytest.approx(1.0, abs=TOL)
        assert coeffs.period == 1 and coeffs.block_dim == 1

    def test_split_bounds(self):
        coeffs = PeriodicCoefficients([[[0.2, -1.0], [-1.0, 0.2]]])
        assert coeffs.lambda0 == pytest.approx(0.8, abs=TOL)
        assert coeffs.Lambda0 == pytest.approx(1.2, abs=TOL)

    def test_sign_flip_violates_positivity(self):
        with pytest.raises(HypothesisViolationError, match="n=0"):
            PeriodicCoefficients([[[0.0, 1.0], [1.0, 0.0]]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            PeriodicCoefficients([[[0.0, -1.0], [-0.5, 0.0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0, 0), (0, 0, 1), (1, 1, 0)])
    def test_non_finite_rejected(self, bad, where):
        mats = np.array([[[0.2, -1.0], [-1.0, 0.2]], [[-0.1, -1.1], [-1.1, -0.1]]])
        mats[where] = bad
        with pytest.raises(ConfigurationError, match=rf"matrices\[{where[0]}\].*non-finite"):
            PeriodicCoefficients(mats)

    def test_matrices_read_only(self):
        coeffs = model_coefficients()
        with pytest.raises(ValueError):
            coeffs.matrices[0, 0, 0] = 5.0

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 0), (2, 2), (1, 2, 3), (1, 3, 3)])
    def test_empty_or_misshapen_stack_rejected(self, shape):
        with pytest.raises(ConfigurationError, match=r"matrices must have shape \(T, 2N, 2N\)"):
            PeriodicCoefficients(np.zeros(shape))

    @pytest.mark.parametrize(
        "matrices,message",
        [
            ([[[1, 0], [0, 1]]], "n=0: J0*S(n) is not positive definite (min eigenvalue -1)"),
            ([[[0, -1], [-1, 0.5]]], "n=0: J0*S(n) is not symmetric"),
            ([[[0, -1], [-1, 0]], [[0.3, -1], [-1, 0]]], "n=1: J0*S(n) is not symmetric"),
            ([[[0, -1], [-1, 0]], [[1, 2], [2, 1]]],
             "n=1: J0*S(n) is not positive definite (min eigenvalue -3)"),
            # not positive definite at n = 0 comes before asymmetric at n = 1
            ([[[1, 0], [0, 1]], [[0.3, -1], [-1, 0]]],
             "n=0: J0*S(n) is not positive definite (min eigenvalue -1)"),
        ],
    )
    def test_first_r0_fault_named(self, matrices, message):
        with pytest.raises(HypothesisViolationError) as info:
            PeriodicCoefficients(matrices)
        assert str(info.value) == "(R0) violated at " + message


def per_n_rule(mats: np.ndarray) -> tuple[float, float]:
    """(R0) and its gap bounds decided one n at a time: every S(n) symmetric,
    then each J0 S(n) symmetric before positive definite, in order of n."""
    for n, s in enumerate(mats):
        if np.abs(s - s.T).max() > SYMMETRY_TOL:
            raise ConfigurationError(f"matrices[{n}] is not symmetric")
    j0 = coupling_matrix(mats.shape[1] // 2)
    lo, hi = np.inf, -np.inf
    for n, s in enumerate(mats):
        g = j0 @ s
        if np.abs(g - g.T).max() > SYMMETRY_TOL:
            raise HypothesisViolationError(f"(R0) violated at n={n}: J0*S(n) is not symmetric")
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0.0:
            raise HypothesisViolationError(
                f"(R0) violated at n={n}: J0*S(n) is not positive definite "
                f"(min eigenvalue {eigs[0]:.6g})"
            )
        lo, hi = min(lo, eigs[0]), max(hi, eigs[-1])
    return float(lo), float(hi)


def add_fault(mats: np.ndarray, n: int, kind: str) -> None:
    """Break S(n) in place so that one stage of the (R0) decision fails at n."""
    half = mats.shape[1] // 2
    if kind == "S asymmetric":
        mats[n, 0, 1] += 0.5
    elif kind == "J0 S asymmetric":
        # S(n) stays symmetric; (J0 S)(half, 0) moves and (J0 S)(0, half) does not
        mats[n, 0, 0] += 0.3
    else:  # "J0 S indefinite": J0 S(n) - c I with c between its extreme eigenvalues
        eigs = np.linalg.eigvalsh(coupling_matrix(half) @ mats[n])
        mats[n] -= 0.5 * (eigs[0] + eigs[-1]) * coupling_matrix(half)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    block_dim=st.integers(1, 3),
    period=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    faults=st.dictionaries(
        st.integers(0, 3),
        st.sampled_from(["S asymmetric", "J0 S asymmetric", "J0 S indefinite"]),
        max_size=2,
    ),
)
def test_one_pass_matches_per_n_rule(block_dim, period, seed, faults):
    """The batched (R0) decision gives the per-n rule's bounds bit for bit, and
    its exception type and message (the first offending n) on broken stacks."""
    mats = np.array(random_coefficients(block_dim, period, np.random.default_rng(seed)).matrices)
    faults = {n: kind for n, kind in faults.items() if n < period}
    for n, kind in faults.items():
        add_fault(mats, n, kind)
    try:
        expected = per_n_rule(mats)
    except (ConfigurationError, HypothesisViolationError) as exc:
        assert faults
        with pytest.raises(type(exc)) as info:
            PeriodicCoefficients(mats)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    assert not faults
    coeffs = PeriodicCoefficients(mats)
    assert (coeffs.lambda0, coeffs.Lambda0) == expected


class TestRequireReal:
    @pytest.mark.parametrize("value", [2, 2.5, np.float64(-1.5), np.int64(3), float("nan")])
    def test_real_numbers_become_floats(self, value):
        got = require_real("x", value)
        assert type(got) is float
        assert got == float(value) or (np.isnan(got) and np.isnan(value))

    @pytest.mark.parametrize("value", [True, False, "2", None, [2.0], 10**400])
    def test_bools_strings_and_huge_ints_rejected(self, value):
        with pytest.raises(ConfigurationError, match="^x "):
            require_real("x", value)


@pytest.mark.parametrize(
    "value, text",
    [(None, "null"), (True, "true"), ("2", '"2"'), ([1.5, None], "[1.5, null]"),
     (float("inf"), "Infinity"), (np.int64(3), "np.int64(3)"), ({1j}, "{1j}")],
)
def test_json_text_spells_json_and_falls_back_to_repr(value, text):
    assert json_text(value) == text
