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
orbit, and reports the drift on the original nodes; the re-solve evaluates
no action, so ``verify_orbit`` evaluates Phi once, for the energy identity.

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
from dataclasses import asdict, dataclass
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
    picked, sides = [], []  # per side, the tail rows in increasing |n|
    for mask, side in ((nodes < 0, 0.0), (nodes > 0, 1.0)):
        usable = np.flatnonzero(mask & (norms >= FIT_FLOOR))
        width = max(2, int(round(TAIL_FRACTION * usable.size)))
        tail = usable[np.argsort(np.abs(nodes[usable]))[-min(width, usable.size):]]
        picked.append(tail)
        sides.append(np.full(tail.size, side))
    rows = np.concatenate(picked)
    if rows.size < 4:
        return DecayFit(rate=float("nan"), r_squared=0.0, n_points=rows.size, conclusive=False)
    dist = np.abs(nodes[rows]).astype(float)
    # math.log per entry: np.log can differ from it in the last bit
    logv = np.array([math.log(v) for v in norms[rows].tolist()])
    side = np.concatenate(sides)
    design = np.column_stack([dist, 1.0 - side, side])
    sol, *_ = np.linalg.lstsq(design, logv, rcond=None)
    fitted = design @ sol
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(np.exp(sol[0])), r_squared=r2, n_points=rows.size, conclusive=True
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

    The re-solve is the Newton iteration of ``solver.newton_solve`` from the
    zero-padded orbit, without its action value or verification: only the
    final iterate and its status are read.  Returns inf (failure) if the
    re-solve does not converge or converges to the trivial orbit.
    """
    from .solver import _newton_iterate  # deferred: solver builds on this module

    src = x.window
    doubled = Window.zero_pad(2 * src.half_width)
    big_ctx = ctx_builder(doubled)
    seed = reembed(x, doubled)
    orbit, _, _, status, _ = _newton_iterate(big_ctx, seed, opts)
    if status != "converged":
        return float("inf")
    offset = src.lo - doubled.lo
    big = orbit.entries[offset : offset + src.num_nodes]
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
        return asdict(self)


@np.errstate(all="ignore")
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
    ``ctx_builder`` and runs the Newton iteration with ``solve_opts``.
    Floating-point overflow raises no warning: a check whose value is not
    finite (an orbit too large for its norms, say) fails.
    """
    _, res_inf = residual_DHS(ctx.op.coeffs, ctx.nl, x)
    energy = energy_identity_check(ctx, x)
    linf = lp_norm(x, np.inf)
    fit = decay_fit(x)
    drift = window_stability(ctx_builder, x, solve_opts)
    checks = {
        "residual": res_inf <= RESIDUAL_TOL,
        "energy_identity": energy <= ENERGY_TOL,
        "nontrivial": TRIVIAL_TOL < linf < math.inf,
        "decay": fit.conclusive and fit.rate < DECAY_RATE_MAX and fit.r_squared > R_SQUARED_MIN,
        "window_stability": drift <= WINDOW_DRIFT_TOL,
    }
    return VerificationReport(
        dhs_residual_inf=res_inf, energy_identity_defect=energy, orbit_linf=linf, decay=fit,
        window_stability_inf=drift, checks=checks, passed=all(checks.values()),
    )
