"""Lattice windows, block sequences, and periodic coefficient data.

State vectors are sequences x(n) of blocks in R^{2N} living on a finite run of
consecutive integer nodes.  Each block splits into halves x(n) = (x1(n), x2(n)).
Truncation of the infinite lattice uses one of two boundary rules:

* zero padding: any node reference outside the window reads as the zero block
  (matches orbits that decay at infinity),
* periodic wrap: node indices are taken modulo the window size (keeps the
  translation symmetry of periodic coefficients exact, which makes spectral
  statements on the truncation certifiable).

Per-period matrix stacks (S(n), S_inf(n)) pass one finite/symmetric check;
(R0) and its gap bounds come from one batched eigenvalue call on J0 S(n).
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import enum
import json
import math
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


def json_text(value) -> str:
    """``value`` spelt as JSON input spells it (null, true, "2"), or its repr
    when it is not a JSON value."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        return repr(value)


def require_int(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer (not a bool or a float) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {json_text(value)}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def require_real(name: str, value) -> float:
    """``value`` as a float if it is a real number (not a bool or a string)
    within the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {json_text(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ConfigurationError(f"{name} is beyond the float range") from exc


def require_positive(name: str, value, allow_zero: bool = False) -> float:
    """``value`` as a float if it is a real number (``require_real``) that is
    finite and positive, or finite and nonnegative when ``allow_zero``."""
    value = require_real(name, value)
    if not math.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise ConfigurationError(f"{name} must be finite and {kind}, got {value}")
    return value


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


def _asymmetric(stack: np.ndarray) -> np.ndarray:
    """True for each matrix of a (T, M, M) stack not symmetric within SYMMETRY_TOL."""
    return np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL


def _symmetric_stack(name: str, stack) -> np.ndarray:
    """``stack`` as a read-only float array of T >= 1 finite symmetric 2N x 2N matrices;
    anything else raises ConfigurationError naming ``name`` and the first bad index."""
    mats = np.array(stack, dtype=float)
    if mats.ndim != 3 or not mats.size or mats.shape[1] != mats.shape[2] or mats.shape[1] % 2:
        raise ConfigurationError(f"{name} must have shape (T, 2N, 2N), T, N >= 1: {mats.shape}")
    # NaN passes the symmetry test and every eigenvalue test after it
    bad = np.argwhere(~np.isfinite(mats))
    if bad.size:
        raise ConfigurationError(
            f"{name}[{bad[0, 0]}] holds a non-finite entry {mats[tuple(bad[0])]!r}"
        )
    bad = np.flatnonzero(_asymmetric(mats))
    if bad.size:
        raise ConfigurationError(f"{name}[{bad[0]}] is not symmetric")
    mats.flags.writeable = False
    return mats


@dataclass(frozen=True, eq=False)
class PeriodicCoefficients:
    """A period-T family of symmetric 2N x 2N matrices S(n) with its gap bounds.

    One eigenvalue call on the stack J0 S(n) decides (R0): the first n where
    J0 S(n) is asymmetric, or else not positive definite, raises
    HypothesisViolationError.  lambda0 and Lambda0 are that call's extremes.
    """

    matrices: np.ndarray
    period: int = field(init=False)
    block_dim: int = field(init=False)
    lambda0: float = field(init=False)
    Lambda0: float = field(init=False)

    def __post_init__(self) -> None:
        mats = _symmetric_stack("matrices", self.matrices)
        g = coupling_matrix(mats.shape[1] // 2) @ mats
        eigs = np.linalg.eigvalsh(g)
        asymmetric = _asymmetric(g)
        bad = np.flatnonzero(asymmetric | (eigs[:, 0] <= 0.0))
        if bad.size:
            n = bad[0]
            fault = "is not symmetric" if asymmetric[n] else (
                f"is not positive definite (min eigenvalue {eigs[n, 0]:.6g})")
            raise HypothesisViolationError(f"(R0) violated at n={n}: J0*S(n) {fault}")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "period", mats.shape[0])
        object.__setattr__(self, "block_dim", mats.shape[1] // 2)
        object.__setattr__(self, "lambda0", float(eigs[:, 0].min()))
        object.__setattr__(self, "Lambda0", float(eigs[:, -1].max()))
