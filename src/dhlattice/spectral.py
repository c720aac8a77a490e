"""Eigendecomposition of the truncated operator, the sign splitting of the
state space, the |A+S|^{1/2} norm, and band-structure reporting.

The splitting separates eigenvectors with negative and positive eigenvalues.
On periodic windows the truncation is spectrally exact (every eigenvalue is a
Bloch symbol sample), so the gap (-lambda0, lambda0) is certified free of
eigenvalues.  Zero-pad truncation can create boundary-localized modes inside
the gap; those are truncation artifacts, not spectrum.  The band structure
takes batched eigenvalue calls on Bloch symbol stacks of at most
SYMBOL_CHUNK_BYTES each, so memory does not grow with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BlockVector,
    DimensionMismatchError,
    NumericalError,
    PeriodicCoefficients,
    SpectralGapError,
    Window,
)
from .operators import TruncatedOperator, floquet_symbol

GAP_EIGENVALUE_TOL = 1e-10
SYMBOL_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a truncated operator with its sign splitting."""

    window: Window
    block_dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    split_index: int
    lambda0: float
    Lambda0: float

    def coords(self, x: BlockVector) -> np.ndarray:
        """Coordinates of x in the orthonormal eigenbasis."""
        if x.window != self.window or x.block_dim != self.block_dim:
            raise DimensionMismatchError("vector does not match the decomposition's window")
        return self.eigenvectors.T @ x.flat

    def _check_gap(self) -> None:
        closest = np.abs(self.eigenvalues).min()
        if closest < GAP_EIGENVALUE_TOL:
            raise SpectralGapError(
                f"eigenvalue {closest:.3e} within {GAP_EIGENVALUE_TOL:.0e} of zero; "
                "the sign splitting is ill-defined"
            )


def eigendecompose(op: TruncatedOperator) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the truncated operator, ascending order."""
    try:
        eigenvalues, eigenvectors = op.eigh()
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(
            f"eigensolver failed on a {op.dim}x{op.dim} matrix "
            f"({op.window.boundary.value} window): {exc}"
        ) from exc
    eigenvalues = np.ascontiguousarray(eigenvalues)
    eigenvalues.flags.writeable = False
    eigenvectors = np.ascontiguousarray(eigenvectors)
    eigenvectors.flags.writeable = False
    split = int(np.searchsorted(eigenvalues, 0.0, side="right"))
    return SpectralDecomposition(
        window=op.window,
        block_dim=op.block_dim,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        split_index=split,
        lambda0=op.coeffs.lambda0,
        Lambda0=op.coeffs.Lambda0,
    )


def projectors(
    dec: SpectralDecomposition, x: BlockVector
) -> tuple[BlockVector, BlockVector]:
    """Split x = x_minus + x_plus along negative and positive eigenvectors."""
    dec._check_gap()
    c = dec.coords(x)
    s = dec.split_index
    minus_flat = dec.eigenvectors[:, :s] @ c[:s]
    plus_flat = dec.eigenvectors[:, s:] @ c[s:]
    return (
        BlockVector.from_flat(dec.window, dec.block_dim, minus_flat),
        BlockVector.from_flat(dec.window, dec.block_dim, plus_flat),
    )


def e_norm(dec: SpectralDecomposition, x: BlockVector) -> float:
    """The norm (sum_i |lambda_i| c_i^2)^{1/2} induced by |A+S|^{1/2}."""
    dec._check_gap()
    c = dec.coords(x)
    return float(np.sqrt(np.sum(np.abs(dec.eigenvalues) * c * c)))


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Bloch symbol eigenvalues on a quasimomentum grid, bands sorted per theta."""

    thetas: np.ndarray
    bands: np.ndarray  # shape (grid_size, 2NT)
    lambda0: float
    Lambda0: float

    def extrema(self) -> dict[str, float]:
        """Extreme band values split by sign."""
        neg = self.bands[self.bands < 0.0]
        pos = self.bands[self.bands > 0.0]
        out: dict[str, float] = {}
        if neg.size:
            out["negative_min"] = float(neg.min())
            out["negative_max"] = float(neg.max())
        if pos.size:
            out["positive_min"] = float(pos.min())
            out["positive_max"] = float(pos.max())
        return out


def symbol_eigenvalues(thetas: np.ndarray, coeffs: PeriodicCoefficients) -> np.ndarray:
    """Ascending symbol eigenvalues per theta, shape (G, 2NT), one ``eigvalsh``
    per chunk of thetas whose stack fits SYMBOL_CHUNK_BYTES (at least one)."""
    thetas = np.asarray(thetas, dtype=float)
    size = 2 * coeffs.block_dim * coeffs.period
    chunk = max(1, SYMBOL_CHUNK_BYTES // (16 * size * size))  # complex128 entries
    out = np.empty((thetas.size, size))
    for start in range(0, thetas.size, chunk):
        part = thetas[start : start + chunk]
        out[start : start + chunk] = np.linalg.eigvalsh(floquet_symbol(part, coeffs))
    return out


def band_structure(coeffs: PeriodicCoefficients, grid_size: int) -> BandStructure:
    """Symbol eigenvalues at theta_j = 2 pi j / grid_size for j = 0..grid_size-1."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    bands = symbol_eigenvalues(thetas, coeffs)
    return BandStructure(
        thetas=thetas, bands=bands, lambda0=coeffs.lambda0, Lambda0=coeffs.Lambda0
    )
