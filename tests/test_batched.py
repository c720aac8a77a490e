"""Batched nonlinearity calls agree exactly with single-node calls.

Every nonlinearity callable broadcasts over node labels and blocks, and the
solver, the verifier and the checker make one call per window.  Solve outputs
are expected to be byte-identical to a per-node evaluation, so each comparison
here is exact (==), never a tolerance: row i of a batched call must equal the
single-node call on row i, and the window-level functions must equal a
per-node reference loop written out below.
"""

import dataclasses
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dhlattice import (
    BlockVector,
    FunctionalContext,
    Phi,
    Psi,
    SamplingPlan,
    TruncatedOperator,
    Window,
    apply_A,
    apply_S,
    assemble,
    check_hypotheses,
    eval_tildeR,
    family_log_saturating,
    family_quadratic,
    family_radial_rational,
    manufactured_problem,
    residual_DHS,
)
from dhlattice.functional import tildeR_sum
from dhlattice.solver import _jacobian, _node_hessians
from helpers import model_coefficients, n2_coefficients, period2_coefficients

BOUNDED = settings(max_examples=60, deadline=None, database=None)

MANUFACTURED = {bd: manufactured_problem(half_width=8, block_dim=bd) for bd in (1, 2)}

NONLINEARITIES = {
    "radial_rational": lambda bd: family_radial_rational(4.0, block_dim=bd),
    "log_saturating": lambda bd: family_log_saturating(3.0, block_dim=bd),
    "quadratic": lambda bd: family_quadratic(2.5, block_dim=bd),
    "manufactured": lambda bd: MANUFACTURED[bd].nl,
}

COEFFICIENTS = {1: (model_coefficients(), period2_coefficients()), 2: (n2_coefficients(),)}

# magnitudes from far below to far above the unit scale of the families
entries = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def node_batches(draw):
    bd = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 12))
    nodes = draw(arrays(np.int64, k, elements=st.integers(-40, 40)))
    z = draw(arrays(float, (k, 2 * bd), elements=entries))
    return bd, nodes, z


@st.composite
def window_vectors(draw):
    """(context, vector) on a bundled coefficient set or the manufactured fixture."""
    name = draw(st.sampled_from(sorted(NONLINEARITIES)))
    bd = draw(st.sampled_from([1, 2]))
    if name == "manufactured":
        ctx = MANUFACTURED[bd].ctx
    else:
        coeffs = draw(st.sampled_from(COEFFICIENTS[bd]))
        window = Window.zero_pad(draw(st.integers(1, 10)))
        ctx = FunctionalContext(assemble(window, coeffs), NONLINEARITIES[name](bd))
    z = draw(arrays(float, (ctx.window.num_nodes, 2 * bd), elements=entries))
    return ctx, BlockVector(ctx.window, bd, z)


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
@seed(20141408)
@BOUNDED
@given(batch=node_batches())
def test_batched_rows_equal_single_node_calls(name, batch):
    bd, nodes, z = batch
    nl = NONLINEARITIES[name](bd)
    k, n2 = z.shape
    callables = {"value": (k,), "gradient": (k, n2), "hessian": (k, n2, n2)}
    for attr, shape in callables.items():
        fn = getattr(nl, attr)
        if fn is None:
            continue
        batched = np.asarray(fn(nodes, z))
        assert batched.shape == shape, attr
        for i in range(k):
            single = np.asarray(fn(int(nodes[i]), z[i]))
            assert single.shape == shape[1:], attr
            assert np.array_equal(batched[i], single), (attr, i)
    tilde = eval_tildeR(nl, nodes, z)
    for i in range(k):
        assert tilde[i] == eval_tildeR(nl, int(nodes[i]), z[i])


def reference_gradient_entries(ctx, x):
    out = apply_A(x).entries + apply_S(x, ctx.op.coeffs).entries
    for i, n in enumerate(ctx.window.nodes):
        out[i] -= ctx.nl.gradient(int(n), x.entries[i])
    return out


def reference_residual(coeffs, nl, x):
    n_blk = x.block_dim
    res = np.empty_like(x.entries)
    for i, n in enumerate(x.window.nodes):
        n = int(n)
        z = x.entries[i]
        grad_h = coeffs.matrix_at(n) @ z + np.asarray(nl.gradient(n, z), dtype=float)
        x_next, x_prev = x.block(n + 1), x.block(n - 1)
        res[i, :n_blk] = x_next[:n_blk] - z[:n_blk] + grad_h[n_blk:]
        res[i, n_blk:] = z[n_blk:] - x_prev[n_blk:] - grad_h[:n_blk]
    return res


def reference_hessians(ctx, x):
    """Per-node analytic Hessians, or the per-node central-difference fallback."""
    nl = ctx.nl
    n2 = 2 * x.block_dim
    blocks = []
    for i, n in enumerate(ctx.window.nodes):
        z = x.entries[i]
        if nl.hessian is not None:
            blocks.append(nl.hessian(int(n), z))
            continue
        h = 1e-6 * (1.0 + float(np.linalg.norm(z)))
        cols = np.empty((n2, n2))
        for j in range(n2):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            cols[:, j] = (nl.gradient(int(n), zp) - nl.gradient(int(n), zm)) / (2.0 * h)
        blocks.append(0.5 * (cols + cols.T))
    return np.array(blocks)


@seed(20141408)
@BOUNDED
@given(case=window_vectors())
def test_window_functions_equal_per_node_loops(case):
    ctx, x = case
    nodes = [int(n) for n in ctx.window.nodes]
    assert np.array_equal(ctx.gradient_entries(x), reference_gradient_entries(ctx, x))
    linear = apply_A(x).entries + apply_S(x, ctx.op.coeffs).entries
    assert Phi(ctx, x) == 0.5 * float(np.vdot(linear, x.entries)) - Psi(ctx, x)
    assert Psi(ctx, x) == float(sum(ctx.nl.value(n, x.entries[i]) for i, n in enumerate(nodes)))
    assert tildeR_sum(ctx, x) == float(
        sum(eval_tildeR(ctx.nl, n, x.entries[i]) for i, n in enumerate(nodes))
    )
    res, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, x)
    expected = reference_residual(ctx.op.coeffs, ctx.nl, x)
    assert np.array_equal(res, expected)
    assert res_inf == float(np.linalg.norm(expected, axis=1).max())
    assert np.array_equal(_node_hessians(ctx, x), reference_hessians(ctx, x))


@st.composite
def point_stacks(draw):
    """(context, (m, K, 2N) stack) on either boundary, or the manufactured fixture."""
    name = draw(st.sampled_from(sorted(NONLINEARITIES)))
    bd = draw(st.sampled_from([1, 2]))
    if name == "manufactured":
        ctx = MANUFACTURED[bd].ctx
    else:
        coeffs = draw(st.sampled_from(COEFFICIENTS[bd]))
        if draw(st.booleans()):
            window = Window.zero_pad(draw(st.integers(0, 10)))
        else:
            window = Window.periodic_cells(coeffs.period, draw(st.integers(1, 6)))
        ctx = FunctionalContext(assemble(window, coeffs), NONLINEARITIES[name](bd))
    m = draw(st.integers(1, 6))
    z = draw(arrays(float, (m, ctx.window.num_nodes, 2 * bd), elements=entries))
    return ctx, z


@seed(20141408)
@BOUNDED
@given(case=point_stacks(), chunked=st.booleans())
def test_stack_gradient_equals_per_point_gradients(case, chunked):
    ctx, z = case
    # a one-byte chunk bound puts every point in its own chunk
    with mock.patch("dhlattice.functional.STACK_CHUNK_BYTES", 1) if chunked else nullcontext():
        stacked = ctx.gradient_stack(z)
    assert stacked.shape == z.shape
    for i, point in enumerate(z):
        x = BlockVector(ctx.window, ctx.op.block_dim, point)
        assert np.array_equal(stacked[i], ctx.gradient_entries(x)), i


def test_banded_and_dense_jacobians_agree():
    # Newton's banded matrix is the operator minus the block-diagonal Hessian
    window = Window.zero_pad(6)
    coeffs = n2_coefficients()
    op = assemble(window, coeffs)
    ctx = FunctionalContext(op, family_radial_rational(4.0, block_dim=2))
    rng = np.random.default_rng(7)
    x = BlockVector(window, 2, rng.standard_normal((window.num_nodes, 4)))
    blocks = _node_hessians(ctx, x)
    expected = op.to_dense() - scipy.linalg.block_diag(*blocks)
    banded = _jacobian(op, blocks)
    assert np.array_equal(TruncatedOperator(window, coeffs, bands=banded).to_dense(), expected)


def counted(nl):
    """``nl`` with value and gradient wrapped to record each call's label shape.

    The records start after the wrapped nonlinearity's own construction, whose
    origin checks call both once.
    """
    calls = {"value": [], "gradient": []}

    def wrap(name):
        fn = getattr(nl, name)

        def call(n, z):
            calls[name].append(np.shape(n))
            return fn(n, z)

        return call

    wrapped = dataclasses.replace(nl, value=wrap("value"), gradient=wrap("gradient"))
    for records in calls.values():
        records.clear()
    return wrapped, calls


@pytest.mark.parametrize("bd", [1, 2])
def test_checker_evaluates_the_grid_once(bd):
    # the sample grid once, then the periodicity subsample at shifted labels
    nl, calls = counted(family_radial_rational(4.0, block_dim=bd))
    check_hypotheses(nl, COEFFICIENTS[bd][0], SamplingPlan.default())
    assert (len(calls["value"]), len(calls["gradient"])) == (2, 3)


@pytest.mark.parametrize("bd", [1, 2])
def test_difference_hessian_is_one_gradient_call(bd):
    problem = MANUFACTURED[bd]
    assert problem.nl.hessian is None
    nl, calls = counted(problem.nl)
    ctx = FunctionalContext(problem.ctx.op, nl)
    _node_hessians(ctx, problem.orbit)
    assert calls == {"value": [], "gradient": [(ctx.window.num_nodes,)]}


def test_stack_gradient_is_one_call_per_chunk():
    window = Window.zero_pad(5)
    nl, calls = counted(family_radial_rational(4.0, block_dim=2))
    ctx = FunctionalContext(assemble(window, n2_coefficients()), nl)
    z = np.random.default_rng(3).standard_normal((5, window.num_nodes, 4))
    ctx.gradient_stack(z)
    assert calls["gradient"] == [(window.num_nodes,)]
    # a bound of two points' tiled node matrices: chunks of 2, 2 and 1 points
    calls["gradient"].clear()
    two_points = 2 * 8 * window.num_nodes * 4 * 4
    with mock.patch("dhlattice.functional.STACK_CHUNK_BYTES", two_points):
        ctx.gradient_stack(z)
    assert calls["gradient"] == [(window.num_nodes,)] * 3
