"""The linear part of the lattice system: difference operator, coefficient
operator, truncated matrix assembly, and the Bloch symbol.

On a block sequence x the two operators act node-wise as

    (A x)(n) = ( x2(n) - x2(n-1),  x1(n) - x1(n+1) )
    (S x)(n) = -S(n) x(n)

with neighbor references resolved by the window's boundary rule.  Both are
self-adjoint for the plain l2 inner product; A has operator norm at most 2 and
S at most Lambda0, so the sum is bounded by 2 + Lambda0.

The truncated matrix of A + S is assembled in the node-major, block-minor
basis (x1 components then x2 components within a node).  One builder,
``_chain_bands``, writes its sparsity: each node's diagonal block and the -I
coupling from node m's z1 rows to node m-1's x2 columns, which sits at
scalar offset exactly N, inside the diagonal blocks' reach of 2N - 1.  That
is the zero-pad matrix, in LAPACK lower-banded form with 2N rows (scalar
half-bandwidth 2N - 1, tridiagonal for N = 1).  Closing the nodes into a
ring adds one wrap-around rule, -1 from node 0's z1 rows to the last node's
x2 columns, and every other matrix is read from those entries
(``_ring_entries``).  The dense ring matrix weights the wrap-around entries
by a phase: phase 1 on the window's nodes is the periodic matrix, exp(i
theta) on the period cell 0..T-1 the Bloch symbol at quasimomentum theta,
built for a whole array of theta at once.  Periodic windows serve spectral
certification only; the orbit search runs on zero-pad windows.  The
periodic crosscheck of ``spectrum`` takes the ring on K nodes, L = 2NK
scalar unknowns, in band storage from ``_ring_bands``: when
P S(-n mod T) P == S(n) exactly, P the swap of x1 and x2, the ring commutes
with the site reflection x(n) -> P x(-n) and splits into a reflection-even
and a reflection-odd block, each with L/2 = NK columns and half-bandwidth
2N - 1.  On other coefficients with an even
number of cells the half-turn x(n) -> x(n + K/2), a translation by whole
periods, commutes with the ring; in the basis (e_a +- e_(a + L/2)) / sqrt(2)
the ring is the direct sum of a periodic and an antiperiodic ring on K/2
nodes, the wrap-around entries times +1 and -1, each entry one entry of the
ring.  The periodic half is split again while its cell count is even, so
cells = 2^a b, b odd, give the antiperiodic rings on K/2, K/4, ..., K/2^a
nodes and the periodic ring on K/2^a.  Each is folded by
``_folded_ring_bands``: its scalar unknowns reordered as 0, L-1, 1, L-2,
..., which brings every coupling, the wrap-around one included, within a
scalar half-bandwidth of 4N - 2.
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


def _require_whole_periods(window: Window, coeffs: PeriodicCoefficients) -> None:
    """A periodic window must hold a whole number of coefficient periods."""
    if window.boundary is Boundary.PERIODIC and window.num_nodes % coeffs.period:
        raise ConfigurationError(
            f"periodic window needs a node count divisible by the period "
            f"({window.num_nodes} nodes, period {coeffs.period})"
        )


def apply_S(x: BlockVector, coeffs: PeriodicCoefficients) -> BlockVector:
    """Coefficient part: z(n) = -S(n mod T) x(n)."""
    if coeffs.block_dim != x.block_dim:
        raise DimensionMismatchError(
            f"coefficients have block dimension {coeffs.block_dim}, vector has {x.block_dim}"
        )
    window = x.window
    _require_whole_periods(window, coeffs)
    per_node = coeffs.matrices[window.nodes % coeffs.period]
    return x.with_entries(-np.einsum("kij,kj->ki", per_node, x.entries))


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


def _chain_bands(coeffs: PeriodicCoefficients, nodes: np.ndarray) -> np.ndarray:
    """Lower-banded storage of A + S on consecutive nodes without wrap-around,
    the zero-pad matrix: bands[k, j] = M[j + k, j], 2N rows.

    Node m's diagonal block is [[0, I], [I, 0]] - S(m mod T), and -1 couples
    node m's z1 rows to node m-1's x2 columns, at scalar offset exactly N.
    """
    n = coeffs.block_dim
    a_diag = np.zeros((2 * n, 2 * n))
    a_diag[:n, n:] = np.eye(n)
    a_diag[n:, :n] = np.eye(n)
    bands = _diagonal_bands(a_diag - coeffs.matrices[np.asarray(nodes) % coeffs.period], 2 * n)
    # row N holds the coupling in the x2 columns of every node but the last
    bands[n].reshape(-1, 2 * n)[:-1, n:] = -1.0
    return bands


def _ring_entries(coeffs: PeriodicCoefficients, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, vals) of A + S on consecutive nodes closed into a ring,
    its L = 2N count scalar unknowns numbered node-major.

    The ring matrix is the sum over entries of v (E[r, c] + E[c, r]), or
    v E[r, r] on the diagonal: the nonzero entries of ``_chain_bands``, then
    the wrap-around rule as the last N entries, -1 from node 0's z1 rows to
    the last node's x2 columns.  On one node the wrap-around entries land in
    the diagonal block and add to it.
    """
    bands = _chain_bands(coeffs, nodes)
    n, size = coeffs.block_dim, bands.shape[1]
    offset, col = np.nonzero(bands)
    wrap = np.arange(n)
    return (
        np.concatenate([col + offset, wrap]),
        np.concatenate([col, size - n + wrap]),
        np.concatenate([bands[offset, col], np.full(n, -1.0)]),
    )


def _ring_matrix(coeffs: PeriodicCoefficients, nodes: np.ndarray, phase) -> np.ndarray:
    """Dense A + S on consecutive nodes closed into a ring.

    The scattered ``_ring_entries``, the wrap-around ones weighted by
    conj(phase) and, transposed, by phase.  Phase 1 gives the periodic
    window's matrix; exp(i theta) on one period cell gives the Bloch symbol.
    An array of phases gives one matrix per entry, stacked along leading axes.
    """
    phase = np.asarray(phase)
    rows, cols, vals = _ring_entries(coeffs, nodes)
    n, size = coeffs.block_dim, len(nodes) * 2 * coeffs.block_dim
    mat = np.zeros(phase.shape + (size, size), dtype=np.result_type(phase, float))
    mat[..., rows[:-n], cols[:-n]] = vals[:-n]
    mat[..., cols[:-n], rows[:-n]] = vals[:-n]
    # on one node the wrap-around entries land on the diagonal block
    mat[..., rows[-n:], cols[-n:]] += np.conj(phase)[..., None] * vals[-n:]
    mat[..., cols[-n:], rows[-n:]] += phase[..., None] * vals[-n:]
    return mat


def _reflection_symmetric(coeffs: PeriodicCoefficients) -> bool:
    """Whether P S(-n mod T) P == S(n) exactly for every n, P the swap of x1
    and x2: then A + S commutes with the site reflection x(n) -> P x(-n)."""
    n = coeffs.block_dim
    swap = np.roll(np.arange(2 * n), n)
    mats = coeffs.matrices
    mirrored = mats[-np.arange(coeffs.period) % coeffs.period][:, swap][:, :, swap]
    return bool(np.array_equal(mirrored, mats))


def _folded_ring_bands(coeffs: PeriodicCoefficients, count: int, sign: float) -> np.ndarray:
    """Lower-banded storage of the ring on nodes 0..count-1 with its
    wrap-around entries times ``sign``: 1 is the periodic ring, -1 the
    antiperiodic one (``_ring_matrix`` at phase +-1).

    The ring's L = 2N count scalar unknowns sit at positions 0, L-1, 1, L-2,
    ...; every coupling, the wrap-around one included, joins unknowns at most
    2N - 1 apart around the ring, so positions at most 4N - 2 apart.  On one
    node the wrap-around entries land in the diagonal block and add to it.
    """
    rows, cols, vals = _ring_entries(coeffs, np.arange(count))
    n = coeffs.block_dim
    size = count * 2 * n
    vals[-n:] *= sign
    unknowns = np.arange(size)
    pos = np.minimum(2 * unknowns, 2 * (size - 1 - unknowns) + 1)
    i, j = pos[rows], pos[cols]
    bands = np.zeros((min(4 * n - 1, size), size))
    np.add.at(bands, (np.abs(i - j), np.minimum(i, j)), vals)
    return bands


def _ring_bands(coeffs: PeriodicCoefficients, count: int) -> tuple[np.ndarray, ...]:
    """Lower-banded storage of the periodic ring on nodes 0..count-1, count a
    whole number of periods, as blocks whose eigenvalues together are the
    ring's.

    On coefficients that pass ``_reflection_symmetric`` the ring commutes
    with R, the site reflection (n, c) -> (-n mod count, c +- N) of its
    L = 2N count scalar unknowns, which fixes no unknown since it swaps x1
    and x2 even on the fixed nodes 0 and count/2.  Each block keeps the
    smaller unknown a of each pair {a, R a}, at position pos[a], and its
    entry is H[a, b] + sigma H[a, R b]: H in the basis (e_a + sigma e_Ra) /
    sqrt(2).  The kept unknowns, in node-major order, are node 0's x1, every
    unknown of nodes 1..(count-1)//2 and node count/2's x1 on an even count;
    node 0's wrap-around coupling becomes one to node 1 and the middle nodes
    couple to their own mirrors, so the even (sigma = 1) and odd
    (sigma = -1) blocks have L/2 columns and half-bandwidth 2N - 1.

    Other coefficients split by half-turns.  On an even number of cells the
    half-turn x(n) -> x(n + count/2) is a translation by whole periods, so
    it commutes with the ring.  In the basis (e_a +- e_(a + L/2)) / sqrt(2),
    a < L/2, the ring is the direct sum of the rings on count/2 nodes with
    the wrap-around entries times +1 and times -1, and each of their entries
    is one entry of H: the couplings across the cut at node count/2 and the
    wrap-around ones become the half ring's wrap-around pair.  The
    antiperiodic half is kept and the periodic half split again while its
    cell count is even, so cells = 2^a b, b odd, give a + 1 blocks: the
    antiperiodic rings on count/2, count/4, ..., count/2^a nodes and the
    periodic ring on count/2^a, each folded by ``_folded_ring_bands``.
    """
    if not _reflection_symmetric(coeffs):
        blocks = []
        while count % (2 * coeffs.period) == 0:
            count //= 2
            blocks.append(_folded_ring_bands(coeffs, count, -1.0))
        return (*blocks, _folded_ring_bands(coeffs, count, 1.0))
    rows, cols, vals = _ring_entries(coeffs, np.arange(count))
    n = coeffs.block_dim
    size = count * 2 * n
    unknowns = np.arange(size)
    node, comp = np.divmod(unknowns, 2 * n)
    mirror = (-node % count) * 2 * n + (comp + n) % (2 * n)
    kept = unknowns < mirror
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
    No solve path calls it: a zero-pad window's count at 0 is dim/2 under
    (R0) (``solver._linking_direction``), so it is kept for the relative
    Morse index of an orbit's Newton matrix J, ``sturm_count(J) - dim/2``.
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
    _require_whole_periods(window, coeffs)
    if window.boundary is Boundary.PERIODIC:
        return TruncatedOperator(window, coeffs, matrix=_ring_matrix(coeffs, window.nodes, 1.0))
    return TruncatedOperator(window, coeffs, bands=_chain_bands(coeffs, window.nodes))


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
