"""Independent verification of candidate orbits.

The residual check evaluates the raw first-order difference equations

    r1(n) = x1(n+1) - x1(n) + H_x2(n, x(n))
    r2(n) = x2(n)   - x2(n-1) - H_x1(n, x(n))      H(n,z) = (1/2) S(n)z.z + R(n,z)

directly, without going through the assembled operator or the functional
gradient, so it is an independent oracle for solver output.  Node-wise the
residual blocks are a rotation of the gradient blocks (r1 = -g2, r2 = g1), so
their max norms agree, which the tests exploit as a cross-implementation
check.

Decay is certified empirically: a least-squares fit of log|x(n)| against |n|
over the outer tail of the window, with a shared slope and one intercept per
side, must give a per-node rate below 1 with r^2 above 0.99.  Window-doubling
re-solves the system on a window twice as wide, seeded with the zero-padded
orbit, and reports the drift on the original nodes.

The tolerances are fixed module constants:

* RESIDUAL_TOL = 1e-9        max block norm of the difference-equation residual
* ENERGY_TOL = 1e-8          |Phi(x) - sum tilde R| at the orbit
* WINDOW_DRIFT_TOL = 1e-8    drift on the original nodes after window doubling
* DECAY_RATE_MAX = 1.0       fitted per-node decay rate must lie below it
* R_SQUARED_MIN = 0.99       r^2 of the decay fit must exceed it
* TAIL_FRACTION = 0.25       share of usable nodes per side in the decay fit
* TRIVIAL_TOL = 1e-6         an orbit with max block norm at or below it is
                             trivial: it fails the nontrivial check, and the
                             solver reports it with status ``trivial``
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BlockVector,
    Boundary,
    PeriodicCoefficients,
    Window,
    lp_norm,
    reembed,
)
from .functional import FunctionalContext, Phi, tildeR_sum
from .nonlinearity import Nonlinearity

RESIDUAL_TOL = 1e-9
ENERGY_TOL = 1e-8
WINDOW_DRIFT_TOL = 1e-8
DECAY_RATE_MAX = 1.0
R_SQUARED_MIN = 0.99
TAIL_FRACTION = 0.25
TRIVIAL_TOL = 1e-6


def residual_DHS(
    coeffs: PeriodicCoefficients, nl: Nonlinearity, x: BlockVector
) -> tuple[np.ndarray, float]:
    """Per-node residual of the difference equations and its max block norm."""
    if x.window.boundary is not Boundary.ZERO_PAD:
        raise ValueError("the difference-equation residual is defined on zero-pad windows")
    n_blk = x.block_dim
    z = x.entries
    nodes = x.window.nodes
    per_node = coeffs.matrices[nodes % coeffs.period]
    grad_h = (per_node @ z[:, :, None])[:, :, 0] + np.asarray(nl.gradient(nodes, z), dtype=float)
    # x(n + 1) and x(n - 1), zero outside the window
    x_next = np.zeros_like(z)
    x_next[:-1] = z[1:]
    x_prev = np.zeros_like(z)
    x_prev[1:] = z[:-1]
    res = np.empty_like(z)
    res[:, :n_blk] = x_next[:, :n_blk] - z[:, :n_blk] + grad_h[:, n_blk:]
    res[:, n_blk:] = z[:, n_blk:] - x_prev[:, n_blk:] - grad_h[:, :n_blk]
    res_inf = float(np.linalg.norm(res, axis=1).max(initial=0.0))
    return res, res_inf


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float
    n_points: int
    conclusive: bool

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
            "conclusive": self.conclusive,
        }


FIT_FLOOR = 1e-14


def decay_fit(x: BlockVector) -> DecayFit:
    """Geometric decay rate per node fitted on the outer tails of the orbit.

    Fits log|x(n)| = a_side + s|n| by least squares over the outer
    TAIL_FRACTION of usable nodes on each side of the center and returns
    rate = exp(s).  Usable means block norm at least FIT_FLOOR: orbits decay
    below double precision well inside wide windows, so the tail is taken from
    what the floating-point representation actually resolves.  Fewer than 4
    usable tail nodes overall gives an inconclusive result.
    """
    norms = np.linalg.norm(x.entries, axis=1)
    nodes = x.window.nodes
    rows: list[tuple[float, float, float]] = []  # (|n|, log|x|, side)
    for mask, side in ((nodes < 0, 0.0), (nodes > 0, 1.0)):
        usable = mask & (norms >= FIT_FLOOR)
        side_count = int(usable.sum())
        if side_count == 0:
            continue
        width = max(2, int(round(TAIL_FRACTION * side_count)))
        dist = np.where(usable, np.abs(nodes), -1)
        picked = np.argsort(dist)[-min(width, side_count):]
        for i in picked:
            rows.append((abs(float(nodes[i])), math.log(norms[i]), side))
    if len(rows) < 4:
        return DecayFit(rate=float("nan"), r_squared=0.0, n_points=len(rows), conclusive=False)
    dist = np.array([r[0] for r in rows])
    logv = np.array([r[1] for r in rows])
    side = np.array([r[2] for r in rows])
    design = np.column_stack([dist, 1.0 - side, side])
    sol, *_ = np.linalg.lstsq(design, logv, rcond=None)
    fitted = design @ sol
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(np.exp(sol[0])), r_squared=r2, n_points=len(rows), conclusive=True
    )


def energy_identity_check(ctx: FunctionalContext, x: BlockVector) -> float:
    """|Phi(x) - sum_n tildeR(n, x(n))|; small at (approximately) critical points."""
    return abs(Phi(ctx, x) - tildeR_sum(ctx, x))


def window_stability(
    ctx_builder: Callable[[Window], FunctionalContext],
    x: BlockVector,
    opts,
) -> float:
    """Drift on the original nodes after re-solving on a doubled window.

    Returns inf (failure) if the re-solve does not converge.
    """
    from .solver import newton_solve  # deferred: solver builds on this module

    src = x.window
    doubled = Window(2 * src.half_width, Boundary.ZERO_PAD, 2 * src.num_nodes - 1)
    big_ctx = ctx_builder(doubled)
    seed = reembed(x, doubled)
    result = newton_solve(big_ctx, seed, opts, run_verification=False)
    if result.status not in ("converged", "verified"):
        return float("inf")
    offset = src.lo - doubled.lo
    big = result.orbit.entries[offset : offset + src.num_nodes]
    return float(np.linalg.norm(big - x.entries, axis=1).max(initial=0.0))


@dataclass(eq=False)
class VerificationReport:
    """Outcome of all orbit checks; ``passed`` iff every check is in tolerance."""

    dhs_residual_inf: float
    energy_identity_defect: float
    orbit_linf: float
    decay: DecayFit
    window_stability_inf: float
    checks: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "dhs_residual_inf": self.dhs_residual_inf,
            "energy_identity_defect": self.energy_identity_defect,
            "orbit_linf": self.orbit_linf,
            "decay": self.decay.to_dict(),
            "window_stability_inf": self.window_stability_inf,
            "checks": dict(self.checks),
            "passed": self.passed,
        }


def verify_orbit(
    ctx: FunctionalContext,
    x: BlockVector,
    *,
    ctx_builder: Callable[[Window], FunctionalContext],
    solve_opts,
) -> VerificationReport:
    """Run every orbit check and combine them into a report.

    ``x`` must live on a zero-pad window (``residual_DHS`` raises ValueError
    otherwise).  The window-doubling re-solve builds its context with
    ``ctx_builder`` and runs ``newton_solve`` with ``solve_opts``.
    """
    _, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, x)
    energy = energy_identity_check(ctx, x)
    linf = lp_norm(x, np.inf)
    fit = decay_fit(x)
    drift = window_stability(ctx_builder, x, solve_opts)
    checks = {
        "residual": res_inf <= RESIDUAL_TOL,
        "energy_identity": energy <= ENERGY_TOL,
        "nontrivial": linf > TRIVIAL_TOL,
        "decay": fit.conclusive and fit.rate < DECAY_RATE_MAX and fit.r_squared > R_SQUARED_MIN,
        "window_stability": drift <= WINDOW_DRIFT_TOL,
    }
    return VerificationReport(
        dhs_residual_inf=res_inf, energy_identity_defect=energy, orbit_linf=linf, decay=fit,
        window_stability_inf=drift, checks=checks, passed=all(checks.values()),
    )
