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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass(frozen=True)
class VerifyThresholds:
    """Tolerances an orbit must meet to count as verified."""

    residual: float = 1e-9
    energy: float = 1e-8
    window_drift: float = 1e-8
    decay_rate_max: float = 1.0
    r_squared_min: float = 0.99
    trivial_tol: float = 1e-6


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


def decay_fit(x: BlockVector, tail_fraction: float = 0.25) -> DecayFit:
    """Geometric decay rate per node fitted on the outer tails of the orbit.

    Fits log|x(n)| = a_side + s|n| by least squares over the outer
    ``tail_fraction`` of usable nodes on each side of the center and returns
    rate = exp(s).  Usable means block norm at least 1e-14: orbits decay below
    double precision well inside wide windows, so the tail is taken from what
    the floating-point representation actually resolves.  Fewer than 4 usable
    tail nodes overall gives an inconclusive result.
    """
    if not 0.0 < tail_fraction <= 0.5:
        raise ValueError("tail_fraction must lie in (0, 0.5]")
    norms = np.linalg.norm(x.entries, axis=1)
    nodes = x.window.nodes
    rows: list[tuple[float, float, float]] = []  # (|n|, log|x|, side)
    for mask, side in ((nodes < 0, 0.0), (nodes > 0, 1.0)):
        usable = mask & (norms >= FIT_FLOOR)
        side_count = int(usable.sum())
        if side_count == 0:
            continue
        width = max(2, int(round(tail_fraction * side_count)))
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
    """Outcome of all orbit checks; ``passed`` iff every enabled check is in tolerance."""

    dhs_residual_inf: float
    energy_identity_defect: float
    orbit_linf: float
    decay: Optional[DecayFit] = None
    window_stability_inf: Optional[float] = None
    checks: dict = field(default_factory=dict)
    passed: bool = False
    thresholds: VerifyThresholds = field(default_factory=VerifyThresholds)

    def to_dict(self) -> dict:
        return {
            "dhs_residual_inf": self.dhs_residual_inf,
            "energy_identity_defect": self.energy_identity_defect,
            "orbit_linf": self.orbit_linf,
            "decay": self.decay.to_dict() if self.decay is not None else None,
            "window_stability_inf": self.window_stability_inf,
            "checks": dict(self.checks),
            "passed": self.passed,
        }


def verify_orbit(
    ctx: FunctionalContext,
    x: BlockVector,
    thresholds: Optional[VerifyThresholds] = None,
    *,
    ctx_builder: Optional[Callable[[Window], FunctionalContext]] = None,
    solve_opts=None,
    window_check: bool = True,
) -> VerificationReport:
    """Run every orbit check and combine them into a report.

    Decay and window-doubling apply on zero-pad windows only; the doubling
    re-solve additionally needs ``ctx_builder`` and ``solve_opts``.
    """
    thresholds = thresholds or VerifyThresholds()
    _, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, x)
    energy = energy_identity_check(ctx, x)
    linf = lp_norm(x, np.inf)
    checks = {
        "residual": res_inf <= thresholds.residual,
        "energy_identity": energy <= thresholds.energy,
        "nontrivial": linf > thresholds.trivial_tol,
    }
    report = VerificationReport(
        dhs_residual_inf=res_inf,
        energy_identity_defect=energy,
        orbit_linf=linf,
        thresholds=thresholds,
    )
    if x.window.boundary is Boundary.ZERO_PAD:
        fit = decay_fit(x)
        report.decay = fit
        checks["decay"] = (
            fit.conclusive
            and fit.rate < thresholds.decay_rate_max
            and fit.r_squared > thresholds.r_squared_min
        )
        if window_check and ctx_builder is not None and solve_opts is not None:
            drift = window_stability(ctx_builder, x, solve_opts)
            report.window_stability_inf = drift
            checks["window_stability"] = drift <= thresholds.window_drift
    report.checks = checks
    report.passed = all(checks.values())
    return report
