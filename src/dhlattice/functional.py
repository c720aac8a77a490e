"""The action functional whose critical points are the truncated orbits.

With H0 the truncated operator A + S and Psi the lattice sum of the
interaction density, the functional and its l2 gradient are

    Phi(x)      = (1/2) (H0 x, x) - Psi(x)
    grad Phi(x) = H0 x - grad R(., x(.))            (node-wise gradient)

so grad Phi = 0 is exactly the truncated difference system.  Given a spectral
decomposition H0 = V diag(lambda) V^T the same value splits as

    Phi(x) = (1/2) ||x+||^2 - (1/2) ||x-||^2 - Psi(x)

in the |A+S|^{1/2} norm, which exhibits the saddle structure: the quadratic
part is positive definite on the span of positive eigenvectors and negative
definite on the rest.  Phi_split reads both halves off the coordinates
c = V^T x, since (1/2) lambda_i c_i^2 summed over lambda_i > 0 is
(1/2) ||x+||^2 and minus the same sum over lambda_i < 0 is (1/2) ||x-||^2.
The identity

    Phi(x) - (1/2) (grad Phi(x), x) = sum_n tildeR(n, x(n))

holds exactly because the quadratic part cancels; energy_defect returns its
floating-point residual.  Every node-wise term (R, grad R, tildeR) is
evaluated with one vectorized nonlinearity call per window.

The linear rows (A+S)x, shared by Phi and the gradient, are computed on the
raw (K, 2N) node array with the context's cached node labels and per-node
coefficient matrices, skipping the validated BlockVector copies of apply_A
and apply_S.  The arithmetic is theirs, operation for operation, so the rows
equal apply_A(x) + apply_S(x) exactly; a banded matvec on the assembled
operator would round differently and move the Newton iterates.

``gradient_stack`` takes grad Phi at m points at once, an (m, K, 2N) stack:
the Newton line search evaluates a batch of trial step lengths with one
call.  Its rows go through the same einsum and nonlinearity kernels as one
point's rows, so each point's gradient equals ``gradient_entries`` on that
point bit for bit; ``gradient_entries`` is the stack of one point.  The
window's [K] node labels broadcast over the stack in the nonlinearity call.
The per-node coefficient matrices are tiled instead: ``einsum`` on the
(m K, 2N) rows with a tiled (m K, 2N, 2N) operand is several times faster
than the same product broadcasting over the stack axis, and gives the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BlockVector,
    ConfigurationError,
    DimensionMismatchError,
    SpectralGapError,
    l2_inner,
)
from .nonlinearity import Nonlinearity, eval_tildeR
from .operators import TruncatedOperator, _difference_rows
from .spectral import SpectralDecomposition, eigendecompose

GAP_EIGENVALUE_TOL = 1e-10
STACK_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True, eq=False)
class FunctionalContext:
    """Operator, nonlinearity, and optional spectral data for one problem."""

    op: TruncatedOperator
    nl: Nonlinearity
    dec: Optional[SpectralDecomposition] = None
    _nodes: np.ndarray = field(init=False, repr=False)
    _node_matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.op.block_dim != self.nl.block_dim:
            raise DimensionMismatchError(
                f"operator block dimension {self.op.block_dim} != "
                f"nonlinearity block dimension {self.nl.block_dim}"
            )
        if self.op.coeffs.period % self.nl.period:
            raise DimensionMismatchError(
                f"coefficient period {self.op.coeffs.period} is not a multiple of "
                f"the nonlinearity period {self.nl.period}"
            )
        if self.dec is not None and self.dec.window != self.op.window:
            raise DimensionMismatchError("decomposition window does not match operator")
        nodes = self.op.window.nodes
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(
            self, "_node_matrices", self.op.coeffs.matrices[nodes % self.op.coeffs.period]
        )

    @property
    def window(self):
        return self.op.window

    def with_decomposition(self) -> "FunctionalContext":
        if self.dec is not None:
            return self
        return FunctionalContext(op=self.op, nl=self.nl, dec=eigendecompose(self.op))

    def _check(self, x: BlockVector) -> None:
        if x.window != self.op.window or x.block_dim != self.op.block_dim:
            raise DimensionMismatchError("vector does not match the context's window")

    def _linear_rows(self, z: np.ndarray) -> np.ndarray:
        """Rows of (A+S)x on raw (..., K, 2N) entries, equal to apply_A + apply_S.

        A stack of points goes through one einsum on its (m K, 2N) rows with
        the node matrices tiled, the same kernel that one point's K rows go
        through, so each row rounds exactly as it would alone.
        """
        count, n2 = z.shape[-2:]
        reps = z.size // (count * n2)
        mats = self._node_matrices if reps == 1 else np.tile(self._node_matrices, (reps, 1, 1))
        out = _difference_rows(z, self.op.block_dim, self.window.boundary)
        out -= np.einsum("kij,kj->ki", mats, z.reshape(-1, n2)).reshape(out.shape)
        return out

    def gradient_stack(self, z: np.ndarray) -> np.ndarray:
        """Rows of grad Phi at each point of a (m, K, 2N) stack of raw entries.

        Each point's rows equal ``gradient_entries`` on that point bit for bit:
        the stack makes one gradient call, the [K] node labels broadcasting
        over the points.  Stacks larger than STACK_CHUNK_BYTES of tiled node
        matrices (``_linear_rows``) are taken in chunks of points, at least
        one per chunk, each chunk one gradient call.
        """
        m, count, n2 = z.shape
        chunk = max(1, STACK_CHUNK_BYTES // (8 * count * n2 * n2))
        if m > chunk:
            return np.concatenate(
                [self.gradient_stack(z[start : start + chunk]) for start in range(0, m, chunk)]
            )
        return self._linear_rows(z) - np.asarray(self.nl.gradient(self._nodes, z), dtype=float)

    def gradient_entries(self, x: BlockVector) -> np.ndarray:
        """Per-node rows of grad Phi(x), with one gradient call for the window."""
        return self.gradient_stack(x.entries[None])[0]


def Psi(ctx: FunctionalContext, x: BlockVector) -> float:
    """Sum over window nodes of the interaction density R(n, x(n)).

    The lattice sum runs left to right (Python ``sum``, not the pairwise
    ``np.sum``), so its rounding does not depend on how the terms were batched.
    """
    ctx._check(x)
    return float(sum(ctx.nl.value(ctx.window.nodes, x.entries)))


def tildeR_sum(ctx: FunctionalContext, x: BlockVector) -> float:
    """Lattice sum of tildeR(n, x(n)) over the window, left to right like Psi."""
    ctx._check(x)
    return float(sum(eval_tildeR(ctx.nl, ctx.window.nodes, x.entries)))


def Phi(ctx: FunctionalContext, x: BlockVector) -> float:
    """Action value (1/2)((A+S)x, x) - Psi(x)."""
    ctx._check(x)
    lin = ctx._linear_rows(x.entries)
    return 0.5 * float(np.vdot(lin, x.entries)) - Psi(ctx, x)


def grad_Phi(ctx: FunctionalContext, x: BlockVector) -> BlockVector:
    """l2 representer of the derivative: (A+S)x - grad R(., x(.)) node-wise."""
    ctx._check(x)
    return x.with_entries(ctx.gradient_entries(x))


def Phi_split(ctx: FunctionalContext, x: BlockVector) -> tuple[float, float, float]:
    """The three terms ((1/2)||x+||^2, (1/2)||x-||^2, Psi(x)) of the saddle form.

    With c = V^T x the eigenbasis coordinates of x and q_i = (1/2) lambda_i c_i^2,
    the first term is the sum of q_i over lambda_i > 0 and the second is minus
    the sum over lambda_i < 0.  An eigenvalue within GAP_EIGENVALUE_TOL of zero
    leaves the sign splitting ill-defined and raises SpectralGapError.
    """
    dec = ctx.dec
    if dec is None:
        raise ConfigurationError(
            "Phi_split needs a FunctionalContext carrying a spectral decomposition"
        )
    ctx._check(x)
    closest = np.abs(dec.eigenvalues).min()
    if closest < GAP_EIGENVALUE_TOL:
        raise SpectralGapError(
            f"eigenvalue {closest:.3e} within {GAP_EIGENVALUE_TOL:.0e} of zero; "
            "the sign splitting is ill-defined"
        )
    c = dec.eigenvectors.T @ x.flat
    q = 0.5 * dec.eigenvalues * c * c
    positive = dec.eigenvalues > 0.0
    return float(q[positive].sum()), float(-q[~positive].sum()), Psi(ctx, x)


def energy_defect(ctx: FunctionalContext, x: BlockVector) -> float:
    """Residual of the exact identity Phi - (1/2)(grad Phi, x) = sum tildeR."""
    return Phi(ctx, x) - 0.5 * l2_inner(grad_Phi(ctx, x), x) - tildeR_sum(ctx, x)
