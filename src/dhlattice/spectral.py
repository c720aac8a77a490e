"""Eigendecomposition of the truncated operator and band-structure reporting.

The eigenvalues split the state space into the spans of negative and positive
eigenvectors; functional.Phi_split reads that splitting from the eigenvector
coordinates.  On periodic windows the truncation is spectrally exact (every
eigenvalue is a Bloch symbol sample), so the gap (-lambda0, lambda0) is
certified free of eigenvalues.  Zero-pad truncation can create
boundary-localized modes inside the gap; those are truncation artifacts, not
spectrum.  The band structure takes batched eigenvalue calls on Bloch symbol
stacks of at most SYMBOL_CHUNK_BYTES each, so memory does not grow with the
grid.  On the uniform grid theta_j = 2 pi j / G only rows j = 0..G/2 are
solved: real coefficients make M(-theta) = conj M(theta), so row G - j is a
copy of row j.  The periodic crosscheck compares a periodic window's
eigenvalues with the union of symbol samples on such a grid.  The window's
eigenvalues come from band storage: from the reflection-even and -odd blocks
when the coefficients are invariant under the site reflection, else from the
folded ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, PeriodicCoefficients, Window
from .operators import (
    TruncatedOperator,
    _folded_ring_bands,
    _reflected_ring_bands,
    _reflection_symmetric,
    floquet_symbol,
)

SYMBOL_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a truncated operator, eigenvalues ascending."""

    window: Window
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigendecompose(op: TruncatedOperator) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the truncated operator, ascending order."""
    import scipy.linalg  # deferred: commands without LAPACK, like check, skip its import
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


def _uniform_grid_eigenvalues(coeffs: PeriodicCoefficients, grid_size: int):
    """(thetas, eigenvalues) at theta_j = 2 pi j / grid_size, j = 0..grid_size-1.

    Real coefficients make M(-theta) = conj M(theta), so every band is even in
    theta: rows j = 0..grid_size // 2 are solved and row grid_size - j is a
    copy of row j.
    """
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    half = grid_size // 2 + 1
    out = np.empty((grid_size, 2 * coeffs.block_dim * coeffs.period))
    out[:half] = symbol_eigenvalues(thetas[:half], coeffs)
    out[half:] = out[grid_size - half : 0 : -1]
    return thetas, out


def band_structure(coeffs: PeriodicCoefficients, grid_size: int) -> BandStructure:
    """Symbol eigenvalues at theta_j = 2 pi j / grid_size for j = 0..grid_size-1."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    thetas, bands = _uniform_grid_eigenvalues(coeffs, grid_size)
    return BandStructure(thetas=thetas, bands=bands)


def periodic_crosscheck(coeffs: PeriodicCoefficients, cells: int) -> dict:
    """Eigenvalues of the periodic window of ``cells`` periods against the union
    of symbol eigenvalues at theta = 2 pi j / cells, j = 0..cells-1.

    The two sets are equal in exact arithmetic; ``max_mismatch`` is the largest
    gap between them after sorting.  The window's K = cells * T nodes are not
    assembled.  On coefficients that pass ``_reflection_symmetric`` its
    eigenvalues are the sorted union of the reflection-even and -odd blocks:
    two banded eigensolves of size NK at half-bandwidth 2N - 1.  Other
    coefficients take the folded ring, one banded eigensolve of size 2NK at
    half-bandwidth 4N - 2.  Either way the cost is O(K^2 N^3) time and
    O(K N^2) memory, where a dense eigensolve takes O(K^3 N^3) and
    O(K^2 N^2); the two half-size solves take about half the folded one's time.
    """
    import scipy.linalg  # deferred: commands without LAPACK, like check, skip its import
    count = cells * coeffs.period
    if _reflection_symmetric(coeffs):
        blocks = _reflected_ring_bands(coeffs, count)
    else:
        blocks = (_folded_ring_bands(coeffs, count),)
    window_eigs = np.sort(np.concatenate(
        [scipy.linalg.eigvals_banded(bands, lower=True) for bands in blocks]
    ))
    sym_union = np.sort(_uniform_grid_eigenvalues(coeffs, cells)[1], axis=None)
    return {
        "num_nodes": count,
        "momenta": cells,
        "max_mismatch": float(np.abs(window_eigs - sym_union).max()),
        "eigenvalue_min": float(window_eigs[0]),
        "eigenvalue_max": float(window_eigs[-1]),
    }
