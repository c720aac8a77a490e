"""Lattice windows, block sequences, and periodic coefficient data.

State vectors are sequences x(n) of blocks in R^{2N} living on a finite run of
consecutive integer nodes.  Each block splits into halves x(n) = (x1(n), x2(n)).
Truncation of the infinite lattice uses one of two boundary rules:

* zero padding: any node reference outside the window reads as the zero block
  (matches orbits that decay at infinity),
* periodic wrap: node indices are taken modulo the window size (keeps the
  translation symmetry of periodic coefficients exact, which makes spectral
  statements on the truncation certifiable).

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

SYMMETRY_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live on different windows or block dimensions."""


class ConfigurationError(ValueError):
    """A window, coefficient set, or option combination is inconsistent."""


class HypothesisViolationError(ValueError):
    """Coefficient data fails the positivity hypothesis (R0)."""


def require_int(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer (not a bool or a float) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


class SpectralGapError(ArithmeticError):
    """An eigenvalue sits too close to zero for a sign splitting."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge."""


class Boundary(str, enum.Enum):
    ZERO_PAD = "zero_pad"
    PERIODIC = "periodic"


def coupling_matrix(block_dim: int) -> np.ndarray:
    """The 2N x 2N matrix [[0, -I], [-I, 0]] used in the coercivity test."""
    n = block_dim
    j0 = np.zeros((2 * n, 2 * n))
    j0[:n, n:] = -np.eye(n)
    j0[n:, :n] = -np.eye(n)
    return j0


@dataclass(frozen=True)
class Window:
    """A run of consecutive lattice nodes with a boundary rule.

    The default node range is the symmetric [-half_width, half_width].
    ``num_nodes`` may override the node count, extending the range to
    [-half_width, -half_width + num_nodes - 1]; periodic windows use this to
    reach node counts divisible by an even coefficient period, which an
    odd-sized symmetric range cannot provide.
    """

    half_width: int
    boundary: Boundary = Boundary.ZERO_PAD
    num_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        half_width = require_int("half_width", self.half_width, 0)
        if self.num_nodes is None:
            count = 2 * half_width + 1
        else:
            count = require_int("num_nodes", self.num_nodes, 1)
        object.__setattr__(self, "half_width", half_width)
        object.__setattr__(self, "num_nodes", count)
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not (self.lo <= 0 <= self.hi):
            raise ConfigurationError("window must contain the node n = 0")

    @classmethod
    def zero_pad(cls, half_width: int) -> "Window":
        return cls(half_width=half_width, boundary=Boundary.ZERO_PAD)

    @classmethod
    def periodic(cls, num_nodes: int) -> "Window":
        return cls(half_width=num_nodes // 2, boundary=Boundary.PERIODIC, num_nodes=num_nodes)

    @classmethod
    def periodic_cells(cls, period: int, cells: int) -> "Window":
        """Periodic window holding exactly ``cells`` coefficient periods."""
        return cls.periodic(period * cells)

    @property
    def lo(self) -> int:
        return -self.half_width

    @property
    def hi(self) -> int:
        return self.lo + self.num_nodes - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.num_nodes)

    def index_of(self, n: int) -> int:
        """Row index of node n; periodic windows wrap, zero-pad windows raise."""
        if self.boundary is Boundary.PERIODIC:
            return (n - self.lo) % self.num_nodes
        if not self.lo <= n <= self.hi:
            raise IndexError(f"node {n} outside window [{self.lo}, {self.hi}]")
        return n - self.lo

    def contains(self, other: "Window") -> bool:
        return self.lo <= other.lo and self.hi >= other.hi


@dataclass(frozen=True, eq=False)
class BlockVector:
    """A sequence of R^{2N} blocks on a window, stored as a (K, 2N) array.

    Row i holds the block at node ``window.lo + i``; within a row the first N
    entries are the x1 half and the last N the x2 half.
    """

    window: Window
    block_dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (self.window.num_nodes, 2 * self.block_dim):
            raise DimensionMismatchError(
                f"entries shape {arr.shape} does not match window "
                f"({self.window.num_nodes} nodes) and block dimension {self.block_dim}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def zeros(cls, window: Window, block_dim: int) -> "BlockVector":
        return cls(window, block_dim, np.zeros((window.num_nodes, 2 * block_dim)))

    @classmethod
    def from_flat(cls, window: Window, block_dim: int, flat: np.ndarray) -> "BlockVector":
        arr = np.asarray(flat, dtype=float).reshape(window.num_nodes, 2 * block_dim)
        return cls(window, block_dim, arr)

    @property
    def flat(self) -> np.ndarray:
        """Node-major, block-minor flattening (read-only view)."""
        return self.entries.reshape(-1)

    def block(self, n: int) -> np.ndarray:
        """The block at node n (zero for out-of-window nodes under zero padding)."""
        if self.window.boundary is Boundary.ZERO_PAD and not (
            self.window.lo <= n <= self.window.hi
        ):
            return np.zeros(2 * self.block_dim)
        return self.entries[self.window.index_of(n)]

    def with_entries(self, entries: np.ndarray) -> "BlockVector":
        return BlockVector(self.window, self.block_dim, entries)


def _check_compatible(x: BlockVector, y: BlockVector) -> None:
    if x.window != y.window or x.block_dim != y.block_dim:
        raise DimensionMismatchError("vectors live on different windows or block dimensions")


def l2_inner(x: BlockVector, y: BlockVector) -> float:
    """Sum over nodes of x(n) . y(n)."""
    _check_compatible(x, y)
    return float(np.vdot(x.entries, y.entries))


def lp_norm(x: BlockVector, p: float) -> float:
    """The l^p norm over nodes of the Euclidean block norms, p in [2, inf]."""
    if not (p >= 2.0):
        raise ValueError(f"p must be >= 2 or inf, got {p}")
    block_norms = np.linalg.norm(x.entries, axis=1)
    if np.isinf(p):
        return float(block_norms.max(initial=0.0))
    return float(np.linalg.norm(block_norms, ord=p))


def shift(x: BlockVector, k: int) -> BlockVector:
    """The translated sequence y(n) = x(n + k) under the window's boundary rule."""
    if k == 0:
        return x
    if x.window.boundary is Boundary.PERIODIC:
        return x.with_entries(np.roll(x.entries, -k, axis=0))
    out = np.zeros_like(x.entries)
    count = x.window.num_nodes
    src_lo = max(0, k)
    src_hi = min(count, count + k)
    if src_lo < src_hi:
        out[src_lo - k : src_hi - k] = x.entries[src_lo:src_hi]
    return x.with_entries(out)


def reembed(x: BlockVector, target: Window) -> BlockVector:
    """Zero-padded copy of x on a larger window (node labels preserved)."""
    if not target.contains(x.window):
        raise ValueError(
            f"target window [{target.lo}, {target.hi}] does not contain "
            f"source window [{x.window.lo}, {x.window.hi}]"
        )
    out = np.zeros((target.num_nodes, 2 * x.block_dim))
    offset = x.window.lo - target.lo
    out[offset : offset + x.window.num_nodes] = x.entries
    return BlockVector(target, x.block_dim, out)


def gap_bounds_from_matrices(matrices: np.ndarray) -> tuple[float, float]:
    """Min and max eigenvalues of J0 S(n) over one period.

    Raises HypothesisViolationError, naming the offending index, if any
    J0 S(n) is non-symmetric or not positive definite.
    """
    mats = np.asarray(matrices, dtype=float)
    block_dim = mats.shape[-1] // 2
    j0 = coupling_matrix(block_dim)
    lo = np.inf
    hi = -np.inf
    for n, s in enumerate(mats):
        g = j0 @ s
        if np.abs(g - g.T).max() > SYMMETRY_TOL:
            raise HypothesisViolationError(
                f"(R0) violated at n={n}: J0*S(n) is not symmetric"
            )
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0.0:
            raise HypothesisViolationError(
                f"(R0) violated at n={n}: J0*S(n) is not positive definite "
                f"(min eigenvalue {eigs[0]:.6g})"
            )
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    return float(lo), float(hi)


@dataclass(frozen=True, eq=False)
class PeriodicCoefficients:
    """A period-T family of symmetric 2N x 2N matrices S(n) with its gap bounds.

    lambda0 and Lambda0 are the extreme eigenvalues of J0 S(n) over one period;
    construction fails unless every J0 S(n) is symmetric positive definite.
    """

    matrices: np.ndarray
    period: int = field(init=False)
    block_dim: int = field(init=False)
    lambda0: float = field(init=False)
    Lambda0: float = field(init=False)

    def __post_init__(self) -> None:
        mats = np.array(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] % 2:
            raise ConfigurationError(
                f"matrices must have shape (T, 2N, 2N), got {mats.shape}"
            )
        # NaN passes both the symmetry and the positivity test below
        bad = np.argwhere(~np.isfinite(mats))
        if bad.size:
            raise ConfigurationError(
                f"matrices[{bad[0, 0]}] holds a non-finite entry {mats[tuple(bad[0])]!r}"
            )
        for n, s in enumerate(mats):
            if np.abs(s - s.T).max() > SYMMETRY_TOL:
                raise ConfigurationError(f"matrices[{n}] is not symmetric")
        lam0, lam1 = gap_bounds_from_matrices(mats)
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "period", mats.shape[0])
        object.__setattr__(self, "block_dim", mats.shape[1] // 2)
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "Lambda0", lam1)

    def matrix_at(self, n: int) -> np.ndarray:
        """The coefficient matrix for node n (index taken modulo the period)."""
        return self.matrices[n % self.period]
