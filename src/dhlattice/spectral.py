"""Eigendecomposition of the truncated operator and band-structure reporting.

The eigenvalues split the state space into the spans of negative and positive
eigenvectors; functional.Phi_split reads that splitting from the eigenvector
coordinates.  On periodic windows the truncation is spectrally exact (every
eigenvalue is a Bloch symbol sample), so the gap (-lambda0, lambda0) is
certified free of eigenvalues.  Zero-pad truncation can create
boundary-localized modes inside the gap; those are truncation artifacts, not
spectrum.  The band structure takes batched eigenvalue calls on Bloch symbol
stacks of at most SYMBOL_CHUNK_BYTES each, so memory does not grow with the
grid.  The periodic crosscheck compares a periodic window's eigenvalues, taken
from the folded ring's band storage, with the union of symbol samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import NumericalError, PeriodicCoefficients, Window
from .operators import TruncatedOperator, _folded_ring_bands, floquet_symbol

SYMBOL_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a truncated operator, eigenvalues ascending."""

    window: Window
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigendecompose(op: TruncatedOperator) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the truncated operator, ascending order."""
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(op.to_dense())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(
            f"eigensolver failed on a {op.dim}x{op.dim} matrix "
            f"({op.window.boundary.value} window): {exc}"
        ) from exc
    eigenvalues = np.ascontiguousarray(eigenvalues)
    eigenvalues.flags.writeable = False
    eigenvectors = np.ascontiguousarray(eigenvectors)
    eigenvectors.flags.writeable = False
    return SpectralDecomposition(
        window=op.window, eigenvalues=eigenvalues, eigenvectors=eigenvectors
    )


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Bloch symbol eigenvalues on a quasimomentum grid, bands sorted per theta."""

    thetas: np.ndarray
    bands: np.ndarray  # shape (grid_size, 2NT)

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
    return BandStructure(thetas=thetas, bands=bands)


def periodic_crosscheck(coeffs: PeriodicCoefficients, cells: int) -> dict:
    """Eigenvalues of the periodic window of ``cells`` periods against the union
    of symbol eigenvalues at theta = 2 pi j / cells, j = 0..cells-1.

    The two sets are equal in exact arithmetic; ``max_mismatch`` is the largest
    gap between them after sorting.  The window's K = cells * T nodes are not
    assembled: one banded eigensolve of the folded ring takes O(K^2 N^3) time
    and O(K N^2) memory, where a dense one takes O(K^3 N^3) and O(K^2 N^2).
    """
    count = cells * coeffs.period
    window_eigs = scipy.linalg.eigvals_banded(_folded_ring_bands(coeffs, count), lower=True)
    thetas = 2.0 * np.pi * np.arange(cells) / cells
    sym_union = np.sort(symbol_eigenvalues(thetas, coeffs), axis=None)
    return {
        "num_nodes": count,
        "momenta": cells,
        "max_mismatch": float(np.abs(window_eigs - sym_union).max()),
        "eigenvalue_min": float(window_eigs[0]),
        "eigenvalue_max": float(window_eigs[-1]),
    }
