"""The linear part of the lattice system: difference operator, coefficient
operator, truncated matrix assembly, and the Bloch symbol.

On a block sequence x the two operators act node-wise as

    (A x)(n) = ( x2(n) - x2(n-1),  x1(n) - x1(n+1) )
    (S x)(n) = -S(n) x(n)

with neighbor references resolved by the window's boundary rule.  Both are
self-adjoint for the plain l2 inner product; A has operator norm at most 2 and
S at most Lambda0, so the sum is bounded by 2 + Lambda0.

The truncated matrix of A + S is assembled in the node-major, block-minor
basis (x1 components then x2 components within a node).  Storage follows the
boundary rule: a zero-pad matrix is block-tridiagonal with scalar bandwidth
4N - 1 and is stored in LAPACK lower-banded form; a periodic matrix is dense,
because the wrap-around couplings fill its corners.  Periodic windows serve
spectral certification only; the orbit search runs on zero-pad windows.

One builder makes every dense matrix: the nodes closed into a ring, with
the wrap-around coupling weighted by a phase.  Phase 1 on the window's nodes
is the periodic matrix; exp(i theta) on the period cell 0..T-1 is the Bloch
symbol at quasimomentum theta, built for a whole array of theta at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .core import (
    BlockVector,
    Boundary,
    ConfigurationError,
    DimensionMismatchError,
    PeriodicCoefficients,
    Window,
)


def _neighbor(entries: np.ndarray, step: int, boundary: Boundary) -> np.ndarray:
    """Row i of the result holds row i + step of ``entries`` under the boundary rule."""
    if boundary is Boundary.PERIODIC:
        return np.roll(entries, -step, axis=0)
    out = np.zeros_like(entries)
    if step == 1:
        out[:-1] = entries[1:]
    elif step == -1:
        out[1:] = entries[:-1]
    else:
        raise ValueError("only unit steps are needed")
    return out


def _difference_rows(entries: np.ndarray, block_dim: int, boundary: Boundary) -> np.ndarray:
    """Rows of A x on the raw (K, 2N) entries of x."""
    x1, x2 = entries[:, :block_dim], entries[:, block_dim:]
    out = np.empty_like(entries)
    out[:, :block_dim] = x2 - _neighbor(x2, -1, boundary)
    out[:, block_dim:] = x1 - _neighbor(x1, +1, boundary)
    return out


def apply_A(x: BlockVector) -> BlockVector:
    """First-order difference part: z(n) = (x2(n) - x2(n-1), x1(n) - x1(n+1))."""
    return x.with_entries(_difference_rows(x.entries, x.block_dim, x.window.boundary))


def apply_S(x: BlockVector, coeffs: PeriodicCoefficients) -> BlockVector:
    """Coefficient part: z(n) = -S(n mod T) x(n)."""
    if coeffs.block_dim != x.block_dim:
        raise DimensionMismatchError(
            f"coefficients have block dimension {coeffs.block_dim}, vector has {x.block_dim}"
        )
    window = x.window
    if window.boundary is Boundary.PERIODIC and window.num_nodes % coeffs.period:
        raise ConfigurationError(
            f"periodic window needs a node count divisible by the period "
            f"({window.num_nodes} nodes, period {coeffs.period})"
        )
    per_node = coeffs.matrices[window.nodes % coeffs.period]
    return x.with_entries(-np.einsum("kij,kj->ki", per_node, x.entries))


def _node_blocks(coeffs: PeriodicCoefficients, nodes: np.ndarray):
    """Diagonal blocks (one per node label) and the neighbor coupling block of A + S."""
    n = coeffs.block_dim
    eye = np.eye(n)
    a_diag = np.zeros((2 * n, 2 * n))
    a_diag[:n, n:] = eye
    a_diag[n:, :n] = eye
    # coupling of node m's z1 rows to node m-1's x2 columns
    c_low = np.zeros((2 * n, 2 * n))
    c_low[:n, n:] = -eye
    diags = a_diag - coeffs.matrices[np.asarray(nodes) % coeffs.period]
    return diags, c_low


def _ring_matrix(coeffs: PeriodicCoefficients, nodes: np.ndarray, phase) -> np.ndarray:
    """Dense A + S on consecutive nodes closed into a ring.

    The first node couples to the last through the wrap-around blocks,
    weighted by conj(phase) and phase.  Phase 1 gives the periodic window's
    matrix; exp(i theta) on one period cell gives the Bloch symbol.  An array
    of phases gives one matrix per entry, stacked along leading axes.
    """
    phase = np.asarray(phase)
    diags, c_low = _node_blocks(coeffs, nodes)
    count, n2 = diags.shape[0], diags.shape[1]
    idx = np.arange(count)
    # mat[g, i, :, j, :] is block (i, j) of the g-th matrix
    mat = np.zeros((phase.size, count, n2, count, n2), dtype=np.result_type(phase, float))
    mat[:, idx, :, idx, :] = diags[:, None]
    mat[:, idx[1:], :, idx[:-1], :] = c_low
    mat[:, idx[:-1], :, idx[1:], :] = c_low.T
    mat = mat.reshape(phase.shape + (count * n2, count * n2))
    # node 0's left neighbor is the last node of the previous cell; on one
    # node both wrap-around blocks land on the diagonal block
    mat[..., :n2, -n2:] += np.conj(phase)[..., None, None] * c_low
    mat[..., -n2:, :n2] += phase[..., None, None] * c_low.T
    return mat


def _assemble_banded(window: Window, coeffs: PeriodicCoefficients) -> np.ndarray:
    """Lower-banded storage of a zero-pad window: bands[k, j] = M[j + k, j]."""
    diags, c_low = _node_blocks(coeffs, window.nodes)
    n2 = 2 * coeffs.block_dim
    count = window.num_nodes
    bands = np.zeros((2 * n2, count * n2))
    # entry (b, a) of node i's block sits in column i * n2 + a: one strided
    # slice per block entry covers every node
    for a in range(n2):
        for b in range(a, n2):
            bands[b - a, a::n2] = diags[:, b, a]
    # M[rows(i+1), cols(i)] = c_low for i < count - 1: offset n2 + b - a
    for b, a in zip(*np.nonzero(c_low)):
        bands[n2 + b - a, a : (count - 1) * n2 : n2] = c_low[b, a]
    return bands


def banded_matvec(bands: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Product of a symmetric lower-banded matrix with a vector."""
    bw = bands.shape[0] - 1
    ab = np.ascontiguousarray(bands)
    return scipy.linalg.blas.dsbmv(bw, 1.0, ab, vec, lower=1)


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """The matrix of A + S on a window: ``bands`` on zero-pad, ``matrix`` on periodic."""

    window: Window
    coeffs: PeriodicCoefficients
    matrix: Optional[np.ndarray] = None
    bands: Optional[np.ndarray] = None
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "dim", self.window.num_nodes * 2 * self.coeffs.block_dim
        )

    @property
    def block_dim(self) -> int:
        return self.coeffs.block_dim

    @property
    def storage(self) -> str:
        """'dense' on periodic windows, 'banded' on zero-pad ones."""
        return "dense" if self.window.boundary is Boundary.PERIODIC else "banded"

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        if self.bands is None:
            return self.matrix @ flat
        return banded_matvec(self.bands, flat)

    def apply(self, x: BlockVector) -> BlockVector:
        if x.window != self.window or x.block_dim != self.block_dim:
            raise DimensionMismatchError("vector does not match the operator's window")
        return BlockVector.from_flat(self.window, self.block_dim, self.matvec(x.flat))

    def to_dense(self) -> np.ndarray:
        if self.bands is None:
            return self.matrix
        mat = np.zeros((self.dim, self.dim))
        for k in range(min(self.bands.shape[0], self.dim)):
            idx = np.arange(self.dim - k)
            mat[idx + k, idx] = self.bands[k, : self.dim - k]
            mat[idx, idx + k] = self.bands[k, : self.dim - k]
        return mat

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Full symmetric eigendecomposition, eigenvalues ascending."""
        return scipy.linalg.eigh(self.to_dense())


def assemble(window: Window, coeffs: PeriodicCoefficients) -> TruncatedOperator:
    """Matrix of x -> apply_A(x) + apply_S(x, coeffs) on the window."""
    if window.boundary is Boundary.PERIODIC:
        if window.num_nodes % coeffs.period:
            raise ConfigurationError(
                f"periodic window needs a node count divisible by the period "
                f"({window.num_nodes} nodes, period {coeffs.period})"
            )
        return TruncatedOperator(window, coeffs, matrix=_ring_matrix(coeffs, window.nodes, 1.0))
    return TruncatedOperator(window, coeffs, bands=_assemble_banded(window, coeffs))


def floquet_symbol(theta, coeffs: PeriodicCoefficients) -> np.ndarray:
    """Bloch symbol of A + S at quasimomentum theta.

    Restricts the operator to sequences with x(n + T) = exp(i theta) x(n) and
    expresses it on the period cell of nodes 0..T-1, giving a Hermitian matrix
    of size 2NT whose eigenvalues over theta in [0, 2pi) sweep out the
    full-lattice spectrum.  It is the cell's ring matrix with the wrap-around
    coupling weighted by exp(-i theta) (row node 0, column node T-1) and its
    conjugate.  A scalar theta gives one (2NT, 2NT) matrix; an array of shape
    (G,) gives a (G, 2NT, 2NT) stack.
    """
    theta = np.asarray(theta, dtype=float)
    return _ring_matrix(coeffs, np.arange(coeffs.period), np.exp(1j * theta))
