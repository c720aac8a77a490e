"""Exact-solution fixtures for validating the verification module itself.

The construction picks a geometrically decaying sequence x*(n) = rho^|n| c and
*defines* the interaction gradient to make x* an exact solution: with
f(n) = ((A+S)x*)(n) the forcing the linear part produces, the interaction

    R(n, z) = (f(n) . z) * s(|z|^2),      s(r) = exp(-r0 / r)

has gradient s(r) f(n) + 2 (f(n).z) s'(r) z, which equals f(n) at z = x*(n)
up to terms of order exp(-50) because r0 is chosen 50 times smaller than the
smallest block amplitude squared.  The switch factor s also forces value and
gradient to vanish at z = 0, so the object is a well-formed nonlinearity.

The node dependence of f is folded into a coefficient period equal to the
window size, so residual evaluation (which reduces node labels modulo the
period) sees exactly the intended forcing on the original window, and the
wrapped labels appearing after window doubling only meet tail values below
the verification tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BlockVector, PeriodicCoefficients, Window, coupling_matrix
from .functional import FunctionalContext
from .nonlinearity import Nonlinearity
from .operators import apply_A, apply_S, assemble


@dataclass(frozen=True, eq=False)
class ManufacturedProblem:
    coeffs: PeriodicCoefficients
    nl: Nonlinearity
    orbit: BlockVector
    window: Window
    ctx: FunctionalContext
    ctx_builder: Callable[[Window], FunctionalContext]
    decay: float


def manufactured_problem(
    half_width: int = 16, decay: float = 0.1, block_dim: int = 1
) -> ManufacturedProblem:
    """An exactly solvable fixture on a zero-pad window.

    ``decay`` is the per-node geometric rate of the built-in orbit; keep it at
    0.1 or below so the window-doubling check meets its 1e-12 target.
    """
    window = Window.zero_pad(half_width)
    count = window.num_nodes
    n2 = 2 * block_dim

    coeffs = PeriodicCoefficients(np.tile(coupling_matrix(block_dim), (count, 1, 1)))

    direction = np.arange(1, n2 + 1, dtype=float)
    direction /= np.linalg.norm(direction)
    profile = decay ** np.abs(window.nodes.astype(float))
    orbit = BlockVector(window, block_dim, np.outer(profile, direction))

    forcing_window = apply_A(orbit).entries + apply_S(orbit, coeffs).entries
    forcing = np.zeros_like(forcing_window)
    for i, n in enumerate(window.nodes):
        forcing[int(n) % count] = forcing_window[i]
    forcing.flags.writeable = False

    r_min = float(np.min(np.sum(orbit.entries**2, axis=1)))
    r0 = r_min / 50.0

    def switch(r: np.ndarray) -> np.ndarray:
        positive = r > 0.0
        return np.where(positive, np.exp(-r0 / np.where(positive, r, 1.0)), 0.0)

    def value(n, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.vecdot(forcing[n % count], z) * switch(np.vecdot(z, z))

    def gradient(n, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        f = forcing[n % count]
        r = np.vecdot(z, z)
        s = switch(r)
        # where s underflows to 0 the gradient is 0, and r0 / r^2 may overflow
        live = s > 0.0
        coef = 2.0 * np.vecdot(f, z) * s * (r0 / np.float_power(np.where(live, r, 1.0), 2))
        return np.where(live[..., None], s[..., None] * f + coef[..., None] * z, 0.0)

    nl = Nonlinearity(
        block_dim=block_dim,
        period=count,
        value=value,
        gradient=gradient,
        hessian=None,
        s_infinity=np.zeros((count, n2, n2)),
    )

    def ctx_builder(w: Window) -> FunctionalContext:
        return FunctionalContext(assemble(w, coeffs), nl)

    return ManufacturedProblem(
        coeffs=coeffs,
        nl=nl,
        orbit=orbit,
        window=window,
        ctx=ctx_builder(window),
        ctx_builder=ctx_builder,
        decay=decay,
    )
