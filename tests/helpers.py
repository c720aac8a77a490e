"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from dhlattice import (
    BlockVector,
    FunctionalContext,
    PeriodicCoefficients,
    Window,
    assemble,
    coupling_matrix,
    family_quadratic,
)

MODEL_MATRICES = [[[0.0, -1.0], [-1.0, 0.0]]]

PERIOD2_MATRICES = [
    [[0.2, -1.0], [-1.0, 0.2]],
    [[-0.1, -1.1], [-1.1, -0.1]],
]

N2_MATRICES = [
    [
        [-0.15, 0.0, -1.2, -0.1],
        [0.0, 0.1, -0.1, -1.0],
        [-1.2, -0.1, -0.15, 0.0],
        [-0.1, -1.0, 0.0, 0.1],
    ]
]


def model_coefficients() -> PeriodicCoefficients:
    return PeriodicCoefficients(MODEL_MATRICES)


def period2_coefficients() -> PeriodicCoefficients:
    return PeriodicCoefficients(PERIOD2_MATRICES)


def n2_coefficients() -> PeriodicCoefficients:
    return PeriodicCoefficients(N2_MATRICES)


def free_model_ctx(num_nodes: int) -> FunctionalContext:
    """Model operator on a periodic window, zero interaction, with its eigensystem."""
    return FunctionalContext(
        assemble(Window.periodic(num_nodes), model_coefficients()), family_quadratic(0.0)
    ).with_decomposition()


def first_positive(values: np.ndarray) -> int:
    """Index of the first positive entry of an ascending eigenvalue array."""
    return int(np.searchsorted(values, 0.0, side="right"))


def random_block_vector(
    window: Window, block_dim: int, rng: np.random.Generator, scale: float = 1.0
) -> BlockVector:
    return BlockVector(
        window, block_dim, scale * rng.standard_normal((window.num_nodes, 2 * block_dim))
    )


def random_coefficients(
    block_dim: int, period: int, rng: np.random.Generator
) -> PeriodicCoefficients:
    """A random family satisfying the positivity hypothesis by construction.

    S(n) = J0 G(n) is symmetric with J0 S(n) = G(n) symmetric positive definite
    exactly when G(n) = [[P, Q], [Q, P]] with P + Q and P - Q positive definite.
    """
    j0 = coupling_matrix(block_dim)
    mats = []
    for _ in range(period):
        p = rng.standard_normal((block_dim, block_dim))
        p = p @ p.T + (block_dim + 0.5) * np.eye(block_dim)
        q = 0.3 * rng.standard_normal((block_dim, block_dim))
        q = 0.5 * (q + q.T)
        mats.append(j0 @ np.block([[p, q], [q, p]]))
    return PeriodicCoefficients(mats)


def folded_diagonals(ring: np.ndarray) -> np.ndarray:
    """Every sub-diagonal of a dense ring with its L scalar unknowns in the
    order 0, L-1, 1, L-2, ..., as lower-banded storage with L rows."""
    dim = ring.shape[0]
    perm = [i // 2 if i % 2 == 0 else dim - 1 - i // 2 for i in range(dim)]
    folded = ring[perm][:, perm]
    bands = np.zeros((dim, dim))
    for k in range(dim):
        bands[k, : dim - k] = np.diagonal(folded, -k)
    return bands


def random_window(
    period: int, rng: np.random.Generator, max_half_width: int = 64
) -> Window:
    half = int(rng.integers(2, max_half_width + 1))
    if rng.random() < 0.5:
        return Window.zero_pad(half)
    cells = max(2, (2 * half + 1) // period)
    return Window.periodic_cells(period, cells)


def reject_constant(name: str):
    """``json.loads`` hook that refuses the non-standard NaN / Infinity literals."""
    raise ValueError(f"{name} is not strict JSON")
