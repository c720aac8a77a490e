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
boundary rule: a zero-pad matrix is block-tridiagonal, but its only coupling
between neighbours, -I from node m's z1 rows to node m-1's x2 columns, sits
at scalar offset exactly N, inside the diagonal blocks' reach of 2N - 1; so
its scalar half-bandwidth is 2N - 1 (tridiagonal for N = 1), and it is
stored in LAPACK lower-banded form with 2N rows.  A periodic matrix is dense,
because the wrap-around couplings fill its corners.  Periodic windows serve
spectral certification only; the orbit search runs on zero-pad windows.  The
periodic crosscheck of ``spectrum`` does not assemble its window; both of
its builders read the ring's entry list from ``_ring_entries``.  When
P S(-n mod T) P == S(n) exactly, P the swap of x1 and x2, the ring commutes
with the site reflection x(n) -> P x(-n) and splits into a reflection-even
and a reflection-odd block, each written straight into band storage with
L/2 = NK columns and half-bandwidth 2N - 1.  Other coefficients take the
ring's L = 2NK scalar unknowns reordered as 0, L-1, 1, L-2, ..., which brings
every coupling, the wrap-around one included, within a scalar half-bandwidth
of 4N - 2.

One builder makes every dense matrix: the nodes closed into a ring, with
the wrap-around coupling weighted by a phase.  Phase 1 on the window's nodes
is the periodic matrix; exp(i theta) on the period cell 0..T-1 is the Bloch
symbol at quasimomentum theta, built for a whole array of theta at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BlockVector,
    Boundary,
    ConfigurationError,
    DimensionMismatchError,
    PeriodicCoefficients,
    Window,
)


def _difference_rows(entries: np.ndarray, block_dim: int, boundary: Boundary) -> np.ndarray:
    """Rows of A x on the raw (..., K, 2N) entries of x, or of each x in a stack.

    A zero-pad window's first row has no x2(n-1) and its last row no x1(n+1);
    a periodic window subtracts the wrapped row there.
    """
    x1, x2 = entries[..., :block_dim], entries[..., block_dim:]
    out = np.concatenate([x2, x1], axis=-1)
    z1, z2 = out[..., :block_dim], out[..., block_dim:]
    z1[..., 1:, :] -= x2[..., :-1, :]
    z2[..., :-1, :] -= x1[..., 1:, :]
    if boundary is Boundary.PERIODIC:
        z1[..., :1, :] -= x2[..., -1:, :]
        z2[..., -1:, :] -= x1[..., :1, :]
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


def _diagonal_bands(diags: np.ndarray, rows: int) -> np.ndarray:
    """Lower-banded storage with ``rows`` bands holding only the diagonal blocks."""
    count, n2 = diags.shape[:2]
    bands = np.zeros((rows, count * n2))
    # entry (b, a) of node i's block sits in column i * n2 + a: one strided
    # slice per block entry covers every node
    for a in range(n2):
        for b in range(a, n2):
            bands[b - a, a::n2] = diags[:, b, a]
    return bands


def _assemble_banded(window: Window, coeffs: PeriodicCoefficients) -> np.ndarray:
    """Lower-banded storage of a zero-pad window: bands[k, j] = M[j + k, j]."""
    diags, c_low = _node_blocks(coeffs, window.nodes)
    n2 = 2 * coeffs.block_dim
    count = window.num_nodes
    bands = _diagonal_bands(diags, n2)
    # M[rows(i+1), cols(i)] = c_low for i < count - 1: offset n2 + b - a,
    # which is N for c_low's one nonzero block, so the n2 rows hold it
    for b, a in zip(*np.nonzero(c_low)):
        bands[n2 + b - a, a : (count - 1) * n2 : n2] = c_low[b, a]
    return bands


def _ring_entries(coeffs: PeriodicCoefficients, count: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, vals) of the periodic ring on nodes 0..count-1, its
    L = 2N count scalar unknowns numbered node-major.

    The ring matrix is the sum over entries of v (E[r, c] + E[c, r]), or
    v E[r, r] on the diagonal: each diagonal block's lower triangle, and the
    -1 from node m's z1 rows to node m-1's x2 columns, the wrap-around one
    included.  On one node that coupling lands in the diagonal block and adds
    to it.
    """
    diags, c_low = _node_blocks(coeffs, np.arange(count))
    n2 = diags.shape[1]
    b, a = np.tril_indices(n2)
    cb, ca = np.nonzero(c_low)
    first = np.arange(count)[:, None] * n2
    rows = np.concatenate([(first + b).ravel(), (first + cb).ravel()])
    cols = np.concatenate([(first + a).ravel(), (np.roll(first, 1, axis=0) + ca).ravel()])
    vals = np.concatenate([diags[:, b, a].ravel(), np.tile(c_low[cb, ca], count)])
    return rows, cols, vals


def _folded_ring_bands(coeffs: PeriodicCoefficients, count: int) -> np.ndarray:
    """Lower-banded storage of the periodic ring on nodes 0..count-1, with its
    scalar unknowns ordered 0, L-1, 1, L-2, 2, ...: bands[k, j] = P[j + k, j].

    P is ``_ring_matrix(coeffs, arange(count), 1.0)`` under a symmetric
    permutation, so it has the ring's eigenvalues.  Unknown s sits at position
    2s (ascending half) or 2(L-1-s)+1 (descending half).  Every ring
    coupling, the wrap-around one included, joins unknowns at most 2N - 1
    apart around the ring, so positions at most 4N - 2 apart: 4N - 1 band
    rows, or 2N on one node.
    """
    rows, cols, vals = _ring_entries(coeffs, count)
    size = count * 2 * coeffs.block_dim
    unknowns = np.arange(size)
    pos = np.minimum(2 * unknowns, 2 * (size - 1 - unknowns) + 1)
    bands = np.zeros((min(4 * coeffs.block_dim - 1, size), size))
    np.add.at(bands, (np.abs(pos[rows] - pos[cols]), np.minimum(pos[rows], pos[cols])), vals)
    return bands


def _reflection_symmetric(coeffs: PeriodicCoefficients) -> bool:
    """Whether P S(-n mod T) P == S(n) exactly for every n, P the swap of x1
    and x2: then A + S commutes with the site reflection x(n) -> P x(-n)."""
    n = coeffs.block_dim
    swap = np.roll(np.arange(2 * n), n)
    mats = coeffs.matrices
    mirrored = mats[-np.arange(coeffs.period) % coeffs.period][:, swap][:, :, swap]
    return bool(np.array_equal(mirrored, mats))


def _reflected_ring_bands(coeffs: PeriodicCoefficients, count: int) -> tuple[np.ndarray, ...]:
    """Lower-banded storage of the periodic ring's reflection-even and
    reflection-odd blocks, for coefficients that pass ``_reflection_symmetric``.

    The reflection R maps scalar unknown (n, c) to (-n mod count, c +- N).  It
    fixes no unknown, since it swaps x1 and x2 even on the fixed nodes 0 and
    count/2, so it pairs the L = 2N count unknowns; each block keeps the
    smaller unknown a of each pair {a, R a}, in node-major order, and its
    entry is H[a, b] + sigma H[a, R b], sigma = 1 for the even block and -1
    for the odd one: H in the basis (e_a + sigma e_Ra) / sqrt(2).  The kept
    unknowns are node 0's x1, every unknown of nodes 1..(count-1)//2, and
    node count/2's x1 on an even count.  The wrap-around coupling of node 0
    becomes one to node 1 and the middle nodes couple to their own mirrors,
    so each block has L/2 columns and half-bandwidth 2N - 1, against the
    folded ring's L columns and 4N - 2.
    """
    rows, cols, vals = _ring_entries(coeffs, count)
    n = coeffs.block_dim
    size = count * 2 * n
    node, comp = np.divmod(np.arange(size), 2 * n)
    mirror = (-node % count) * 2 * n + (comp + n) % (2 * n)
    kept = np.arange(size) < mirror
    pos = np.cumsum(kept) - 1
    # every entry of H in both orientations, the diagonal once
    off = rows != cols
    left = np.concatenate([rows, cols[off]])
    right = np.concatenate([cols, rows[off]])
    vals = np.concatenate([vals, vals[off]])
    # H[a, b'] lands in column b = min(b', R b'), times sigma when b' = R b;
    # only kept rows a and the lower triangle are stored
    i, j = pos[left], pos[np.minimum(right, mirror[right])]
    on = kept[left] & (i >= j)
    index = (i[on] - j[on], j[on])
    mirrored, vals = ~kept[right[on]], vals[on]
    blocks = []
    for sign in (1.0, -1.0):
        bands = np.zeros((min(2 * n, size // 2), size // 2))
        np.add.at(bands, index, np.where(mirrored, sign * vals, vals))
        blocks.append(bands)
    return tuple(blocks)


def banded_matvec(bands: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Product of a symmetric lower-banded matrix with a vector."""
    import scipy.linalg  # deferred: commands without LAPACK, like check, skip its import
    bw = bands.shape[0] - 1
    ab = np.ascontiguousarray(bands)
    return scipy.linalg.blas.dsbmv(bw, 1.0, ab, vec, lower=1)


def sturm_count(bands: np.ndarray, sigma: float = 0.0) -> int:
    """Number of eigenvalues <= sigma of a symmetric lower-banded matrix M.

    By Sylvester's law of inertia it is the number of negative pivots of
    M - sigma I = L D L^T without pivoting.  One pass over the rows keeps the
    bw + 1 columns the next pivot updates, so the count takes O(dim bw^2)
    scalar operations: linear in the dimension at fixed bandwidth.  A pivot
    of magnitude below pivmin is replaced by -pivmin, LAPACK ``dstebz``'s rule
    (Demmel, Dhillon & Ren 1995): an eigenvalue equal to sigma counts, and a
    zero diagonal, like the model operator's at sigma = 0, divides by no zero.
    """
    bw = bands.shape[0] - 1
    dim = bands.shape[1]
    cols = np.array(bands, dtype=float)
    for k in range(1, bw + 1):
        cols[k, max(dim - k, 0) :] = 0.0  # entries past the matrix's last row
    cols[0] -= sigma
    largest = float(np.abs(cols[1:]).max(initial=0.0))
    pivmin = np.finfo(float).tiny * max(1.0, largest * largest)
    # columns j..j+bw of the updated matrix, each its entries from the
    # diagonal down: active[c][k] = M'[j + c + k, j + c]
    columns = cols.T.tolist() + [[0.0] * (bw + 1) for _ in range(bw + 1)]
    active = columns[: bw + 1]
    count = 0
    for j in range(dim):
        col = active[0]
        pivot = col[0]
        if abs(pivot) < pivmin:
            pivot = -pivmin
        if pivot < 0.0:
            count += 1
        for c in range(1, bw + 1):
            factor = col[c] / pivot
            if factor:
                target = active[c]
                for k in range(bw + 1 - c):
                    target[k] -= factor * col[c + k]
        active = active[1:] + [columns[j + bw + 1]]
    return count


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

    def apply(self, x: BlockVector) -> BlockVector:
        if x.window != self.window or x.block_dim != self.block_dim:
            raise DimensionMismatchError("vector does not match the operator's window")
        if self.bands is None:
            flat = self.matrix @ x.flat
        else:
            flat = banded_matvec(self.bands, x.flat)
        return BlockVector.from_flat(self.window, self.block_dim, flat)

    def to_dense(self) -> np.ndarray:
        if self.bands is None:
            return self.matrix
        mat = np.zeros((self.dim, self.dim))
        for k in range(min(self.bands.shape[0], self.dim)):
            idx = np.arange(self.dim - k)
            mat[idx + k, idx] = self.bands[k, : self.dim - k]
            mat[idx, idx + k] = self.bands[k, : self.dim - k]
        return mat


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
