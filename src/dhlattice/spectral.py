"""Eigendecomposition of the truncated operator and band-structure reporting.

The eigenvalues split the state space into the spans of negative and positive
eigenvectors; functional.Phi_split reads that splitting from the eigenvector
coordinates.  On periodic windows the truncation is spectrally exact (every
eigenvalue is a Bloch symbol sample), so the gap (-lambda0, lambda0) is
certified free of eigenvalues.  Zero-pad truncation puts no eigenvalue in
(-lambda0, lambda0) either (``solver._linking_direction`` proves it from
(R0)), but where the spectrum's own gap is wider it can create
boundary-localized modes between +-lambda0 and the band edges; those are
truncation artifacts, not spectrum.  (period2 has lambda0 = 0.8 and band
edges near -1.095 and 0.980; its zero-pad windows' spectrum starts at 0.98.)
The band structure takes batched eigenvalue calls on Bloch symbol
stacks of at most SYMBOL_CHUNK_BYTES each, so memory does not grow with the
grid.  On the uniform grid theta_j = 2 pi j / G only rows j = 0..G/2 are
solved: real coefficients make M(-theta) = conj M(theta), so row G - j is a
copy of row j.  The periodic crosscheck compares a periodic window's
eigenvalues with the union of symbol samples on such a grid.  The window's
eigenvalues are the union of those of the ring's band-storage blocks from
``operators._ring_bands``, which splits the ring by site reflection where
the coefficients allow it and otherwise by half-turns, into an antiperiodic
ring of half the nodes for each factor 2 of the cell count and one periodic
ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, PeriodicCoefficients, Window, require_int
from .operators import TruncatedOperator, _ring_bands, floquet_symbol

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
    thetas, bands = _uniform_grid_eigenvalues(coeffs, require_int("grid_size", grid_size, 2))
    return BandStructure(thetas=thetas, bands=bands)


def periodic_crosscheck(coeffs: PeriodicCoefficients, cells: int) -> dict:
    """Eigenvalues of the periodic window of ``cells`` periods against the union
    of symbol eigenvalues at theta = 2 pi j / cells, j = 0..cells-1.

    The two sets are equal in exact arithmetic; ``max_mismatch`` is the largest
    gap between them after sorting.  The window's K = cells * T nodes are not
    assembled: its eigenvalues are the sorted union of one banded eigensolve
    per block of ``_ring_bands``: two of size NK at half-bandwidth 2N - 1 on
    reflection-symmetric coefficients; else, for cells = 2^a b with b odd,
    a + 1 folded rings at half-bandwidth 4N - 2, antiperiodic ones of sizes
    NK, NK/2, ..., 2NK/2^a and a periodic one of 2NK/2^a.  Either way the
    cost is O(K^2 N^3) time and O(K N^2) memory, where a dense eigensolve
    takes O(K^3 N^3) and O(K^2 N^2).  Against one folded ring on all 2NK
    unknowns, the two reflection blocks take about half the time, and the
    half-turn blocks 1/2 on a = 1, 3/8 on a = 2, down to about 1/3.
    """
    import scipy.linalg  # deferred: commands without LAPACK, like check, skip its import
    cells = require_int("cells", cells, 1)
    count = cells * coeffs.period
    window_eigs = np.sort(np.concatenate(
        [scipy.linalg.eigvals_banded(bands, lower=True) for bands in _ring_bands(coeffs, count)]
    ))
    sym_union = np.sort(_uniform_grid_eigenvalues(coeffs, cells)[1], axis=None)
    return {
        "num_nodes": count,
        "momenta": cells,
        "max_mismatch": float(np.abs(window_eigs - sym_union).max()),
        "eigenvalue_min": float(window_eigs[0]),
        "eigenvalue_max": float(window_eigs[-1]),
    }
