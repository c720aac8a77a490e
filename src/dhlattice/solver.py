"""Damped Newton search for nontrivial critical points of the action.

The root problem is F(x) = (A+S)x - grad R(., x(.)) = 0.  Each step solves

    [H0 - HessR(x)] delta = -F(x)

with the assembled operator matrix H0 and the block-diagonal Hessian of the
interaction sum (the interaction couples nodes only through themselves, so its
Hessian is one 2N x 2N block per node).  The search runs on zero-pad windows,
where the Newton matrix keeps the operator's lower-banded storage and each
step is one banded LU solve.  Armijo backtracking on the squared residual
norm accepts only steps that reduce ||F||; when it finds none, or the LU gives
no finite step, the one fallback is a rescue step of descent on (1/2)||F||^2.

Near a nonzero local minimizer of (1/2)||F||^2 the Newton matrix is nearly
singular and the line search only creeps, so a start can spend its whole
iteration budget without converging.  A stagnation exit stops such a start:
after each accepted step of a start that has not converged, if at least
STAGNATION_WINDOW steps have been taken and the smallest max-norm residual
seen so far is still above STAGNATION_RATIO times the smallest one seen
STAGNATION_WINDOW steps earlier, the start ends as ``no_convergence``.  The
window is wide enough for starts that plateau for a few dozen steps and then
converge (period2's bumps converge at iterations 44 and 63).  Every result
records why its iteration stopped in ``diagnostics["stop_reason"]``:
``polish_floor`` or ``converged`` for a start that met the tolerance (the
first when the residual reached POLISH_FLOOR), and ``stagnated``,
``line_search_failed`` (the rescue found no decrease) or ``max_iter`` for one
that did not.  Diagnostics also count ``gradient_evaluations``, rescue
``fallback_steps`` and ``regularizations``: Newton steps with no finite LU step.

Zero is always a root, so converged points below a smallness threshold are
rejected as trivial; accepted orbits are handed to the verification module
(difference-equation residual, decay fit, energy identity, window doubling)
and only fully verified results count as successes.

Initial guesses recycle the saddle geometry of the functional: the eigenvector
of the smallest positive eigenvalue is the flattest ascent direction of the
quadratic part, along which the action rises first and eventually falls once
the interaction takes over, so scaled copies of it bracket interesting
amplitudes.  Bump and random starts cover orbits the delocalized eigenvector
misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .core import (
    BlockVector,
    Boundary,
    ConfigurationError,
    NumericalError,
    Window,
    lp_norm,
    shift,
)
from .functional import FunctionalContext, Phi
from .operators import TruncatedOperator, assemble, banded_matvec
from .spectral import eigendecompose
from .verify import VerificationReport, VerifyThresholds, verify_orbit

POLISH_FLOOR = 1e-13
STAGNATION_WINDOW = 30
STAGNATION_RATIO = 0.9
BACKTRACK_MIN = 2.0**-40
BACKTRACK_SHRINK = 0.5
ARMIJO = 1e-4
START_KINDS = ("linking", "gaussian", "random")


@dataclass(frozen=True)
class StartStrategy:
    """One initial-guess recipe for the multi-start driver."""

    kind: str  # one of START_KINDS
    amplitude: float
    width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in START_KINDS:
            raise ConfigurationError(
                f"start kind must be one of {list(START_KINDS)}, got {self.kind!r}"
            )
        if not 0.0 <= self.amplitude < np.inf:
            raise ConfigurationError(
                f"start amplitude must be finite and nonnegative, got {self.amplitude}"
            )
        if self.width is not None and not 0.0 < self.width < np.inf:
            raise ConfigurationError(f"start width must be finite and positive, got {self.width}")

    @property
    def tag(self) -> str:
        extra = f",w={self.width:g}" if self.width is not None else ""
        return f"{self.kind}(a={self.amplitude:g}{extra})"


def default_starts() -> tuple[StartStrategy, ...]:
    """A mix of eigenvector rays, bumps at orbit-like widths, and random seeds.

    Localized orbits are a few nodes wide, so narrow bumps carry most of the
    success probability; the wide bump and the eigenvector rays cover
    delocalized basins and the random seeds hedge against symmetry traps.
    """
    starts = [StartStrategy("linking", a) for a in (0.1, 1.0, 10.0)]
    starts += [StartStrategy("gaussian", a, width=2.0) for a in (0.5, 1.0, 2.0, 4.0)]
    starts += [StartStrategy("gaussian", 1.0)]
    starts += [StartStrategy("random", 1.0), StartStrategy("random", 3.0)]
    return tuple(starts)


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget, tolerances, starts and seed; the line search constants are fixed."""

    max_iter: int = 200
    grad_tol: float = 1e-10
    trivial_tol: float = 1e-6
    starts: tuple[StartStrategy, ...] = field(default_factory=default_starts)
    seed: int = 0
    thresholds: VerifyThresholds = field(default_factory=VerifyThresholds)

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")
        for name in ("grad_tol", "trivial_tol"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(eq=False)
class SolveResult:
    """A candidate orbit with its convergence and verification record."""

    orbit: BlockVector
    phi_value: float
    grad_inf_norm: float
    iterations: int
    start_used: str
    status: str  # 'verified' | 'converged' | 'trivial' | 'unverified' | 'no_convergence'
    verification: Optional[VerificationReport] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.status == "verified"

    def to_dict(self) -> dict:
        return {
            "phi": self.phi_value,
            "grad_inf_norm": self.grad_inf_norm,
            "iterations": self.iterations,
            "start_used": self.start_used,
            "status": self.status,
            "verification": self.verification.to_dict() if self.verification else None,
            "diagnostics": {
                k: v for k, v in self.diagnostics.items() if k != "residual_history"
            },
            "residual_history": [float(v) for v in self.diagnostics.get("residual_history", [])],
        }


def initial_guess(
    strategy,
    ctx: FunctionalContext,
    amplitude: float,
    *,
    width: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> BlockVector:
    """Build a starting vector; ``strategy`` is a StartStrategy or its kind string."""
    if isinstance(strategy, StartStrategy):
        width = strategy.width if width is None else width
        strategy = strategy.kind
    if amplitude < 0:
        raise ConfigurationError("amplitude must be nonnegative")
    window = ctx.window
    n2 = 2 * ctx.op.block_dim
    if strategy == "linking":
        dec = ctx.dec or eigendecompose(ctx.op)
        positive = dec.eigenvalues > 0
        if not positive.any():
            raise NumericalError("operator has no positive eigenvalues")
        idx = int(np.argmax(positive))  # smallest positive eigenvalue
        flat = dec.eigenvectors[:, idx]
        flat = amplitude * flat / np.linalg.norm(flat)
        return BlockVector.from_flat(window, ctx.op.block_dim, flat)
    if strategy == "gaussian":
        w = width if width is not None else max(window.half_width, 1) / 8.0
        direction = np.ones(n2) / np.sqrt(n2)
        profile = amplitude * np.exp(-((window.nodes / w) ** 2))
        return BlockVector(window, ctx.op.block_dim, np.outer(profile, direction))
    if strategy == "random":
        rng = rng or np.random.default_rng(0)
        entries = rng.standard_normal((window.num_nodes, n2))
        norm = np.linalg.norm(entries)
        if norm > 0 and amplitude > 0:
            entries *= amplitude / norm
        else:
            entries *= 0.0
        return BlockVector(window, ctx.op.block_dim, entries)
    raise ConfigurationError(f"unknown start strategy {strategy!r}")


def _node_hessians(ctx: FunctionalContext, x: BlockVector) -> np.ndarray:
    """Hessian blocks [K, 2N, 2N] of R along the window, from batched calls.

    Without an analytic Hessian, central differences of the gradient cost 2N
    batched gradient calls, one per coordinate direction.
    """
    nl = ctx.nl
    nodes = ctx.window.nodes
    z = x.entries
    if nl.hessian is not None:
        return np.asarray(nl.hessian(nodes, z), dtype=float)
    n2 = 2 * x.block_dim
    h = 1e-6 * (1.0 + np.sqrt(np.vecdot(z, z)))
    cols = np.empty((len(nodes), n2, n2))
    for j in range(n2):
        zp = z.copy()
        zm = z.copy()
        zp[:, j] += h
        zm[:, j] -= h
        cols[:, :, j] = (
            np.asarray(nl.gradient(nodes, zp), float) - np.asarray(nl.gradient(nodes, zm), float)
        ) / (2.0 * h)[:, None]
    return 0.5 * (cols + cols.transpose(0, 2, 1))


def _jacobian(op: TruncatedOperator, hess_blocks: np.ndarray) -> np.ndarray:
    """Lower bands of H0 - HessR(x); the Hessian blocks sit on the block diagonal."""
    n2 = 2 * op.block_dim
    bands = op.bands.copy()
    for a in range(n2):
        for b in range(a, n2):
            bands[b - a, a::n2] -= hess_blocks[:, b, a]
    return bands


def _solve_linear(jac: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve jac x = rhs, jac in symmetric lower-band storage, by one banded LU.

    Returns None when ``dgbsv`` reports a singular factor or x is not finite.
    """
    bw = jac.shape[0] - 1
    dim = jac.shape[1]
    # M[i, j] sits at ab[2 bw + i - j, j]; the top bw rows are LU fill-in space
    ab = np.zeros((3 * bw + 1, dim))
    for k in range(min(bw + 1, dim)):
        ab[2 * bw + k, : dim - k] = jac[k, : dim - k]
        ab[2 * bw - k, k:] = jac[k, : dim - k]
    _, _, x, info = scipy.linalg.lapack.dgbsv(bw, bw, ab, rhs, overwrite_ab=1)
    if info != 0 or not np.all(np.isfinite(x)):
        return None
    return x


def newton_solve(
    ctx: FunctionalContext,
    x0: BlockVector,
    opts: Optional[SolveOptions] = None,
    *,
    start_tag: str = "given",
    run_verification: bool = True,
) -> SolveResult:
    """Damped Newton iteration on the gradient from a single starting vector.

    Convergence requires the max block norm of the gradient to fall below
    ``grad_tol``; once there the iteration keeps polishing while each step
    still halves the residual, down to the floating-point floor, so tail
    entries of the orbit stay meaningful well below the tolerance.  A start
    whose residual stalls short of the tolerance stops at the stagnation exit
    described in the module docstring.
    """
    opts = opts or SolveOptions()
    if ctx.window.boundary is not Boundary.ZERO_PAD:
        raise ConfigurationError(
            "the orbit search runs on zero-pad windows; periodic windows are for "
            "spectral certification only"
        )
    ctx._check(x0)
    window = ctx.window

    gradient_evaluations = 0

    def grad(entries: np.ndarray) -> np.ndarray:
        nonlocal gradient_evaluations
        gradient_evaluations += 1
        return ctx.gradient_entries(BlockVector(window, ctx.op.block_dim, entries))

    def inf_norm(rows: np.ndarray) -> float:
        return float(np.linalg.norm(rows, axis=1).max(initial=0.0))

    x = np.array(x0.entries)
    g = grad(x)
    g_inf = inf_norm(g)
    history = [g_inf]
    best = [g_inf]  # best[k]: smallest residual over the first k steps
    regularizations = 0
    fallback_steps = 0
    polish = 0
    converged = g_inf <= opts.grad_tol
    stop_reason = "max_iter"
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        if converged and (g_inf <= POLISH_FLOOR or polish >= 6):
            iterations -= 1
            break
        bv = BlockVector(window, ctx.op.block_dim, x)
        jac = _jacobian(ctx.op, _node_hessians(ctx, bv))
        delta = _solve_linear(jac, -g.reshape(-1))
        g_sq = float(np.vdot(g, g))
        accepted = False
        if delta is None:
            regularizations += 1
        else:
            delta_rows = delta.reshape(x.shape)
            t = 1.0
            while t >= BACKTRACK_MIN:
                x_trial = x + t * delta_rows
                g_trial = grad(x_trial)
                if float(np.vdot(g_trial, g_trial)) <= (1.0 - 2.0 * ARMIJO * t) * g_sq:
                    accepted = True
                    break
                t *= BACKTRACK_SHRINK
        if not accepted:
            # rescue path: steepest descent on (1/2)||F||^2, gradient J^T F
            d = banded_matvec(jac, g.reshape(-1))
            jd = banded_matvec(jac, d)
            jd_sq = float(np.vdot(jd, jd))
            if not jd_sq > 0.0:  # also NaN from a non-finite Newton matrix
                stop_reason = "line_search_failed"
                break
            t = float(np.vdot(d, d)) / jd_sq  # Cauchy step for the quadratic model
            for _ in range(60):
                x_trial = x - t * d.reshape(x.shape)
                g_trial = grad(x_trial)
                if float(np.vdot(g_trial, g_trial)) < g_sq:
                    accepted = True
                    fallback_steps += 1
                    break
                t *= BACKTRACK_SHRINK
            if not accepted:
                stop_reason = "line_search_failed"
                break
        new_inf = inf_norm(g_trial)
        if converged:
            if new_inf >= 0.5 * g_inf:
                break
            polish += 1
        x, g, g_inf = x_trial, g_trial, new_inf
        history.append(g_inf)
        best.append(min(best[-1], g_inf))
        if g_inf <= opts.grad_tol:
            converged = True
        elif (
            iterations >= STAGNATION_WINDOW
            and best[-1] > STAGNATION_RATIO * best[-1 - STAGNATION_WINDOW]
        ):
            stop_reason = "stagnated"
            break
    if converged:
        stop_reason = "polish_floor" if g_inf <= POLISH_FLOOR else "converged"

    orbit = BlockVector(window, ctx.op.block_dim, x)
    diagnostics = {
        "residual_history": history,
        "regularizations": regularizations,
        "fallback_steps": fallback_steps,
        "polish_iterations": polish,
        "gradient_evaluations": gradient_evaluations,
        "stop_reason": stop_reason,
    }
    phi_value = Phi(ctx, orbit)

    if not converged:
        return SolveResult(
            orbit, phi_value, g_inf, iterations, start_tag, "no_convergence", None, diagnostics
        )
    if lp_norm(orbit, np.inf) <= opts.trivial_tol:
        return SolveResult(
            orbit, phi_value, g_inf, iterations, start_tag, "trivial", None, diagnostics
        )
    if not run_verification:
        return SolveResult(
            orbit, phi_value, g_inf, iterations, start_tag, "converged", None, diagnostics
        )

    coeffs = ctx.op.coeffs
    nl = ctx.nl

    def ctx_builder(w: Window) -> FunctionalContext:
        return FunctionalContext(assemble(w, coeffs), nl)

    inner_opts = replace(opts, starts=())
    report = verify_orbit(
        ctx,
        orbit,
        replace(opts.thresholds, trivial_tol=opts.trivial_tol),
        ctx_builder=ctx_builder,
        solve_opts=inner_opts,
    )
    status = "verified" if report.passed else "unverified"
    return SolveResult(
        orbit, phi_value, g_inf, iterations, start_tag, status, report, diagnostics
    )


def _aligned_distance(a: BlockVector, b: BlockVector, period: int) -> float:
    """Min over integer multiples of the period of the shifted l-inf distance."""
    count = a.window.num_nodes
    best = np.inf
    for k in range(-(count // period), count // period + 1):
        shifted = shift(b, k * period)
        diff = float(np.linalg.norm(a.entries - shifted.entries, axis=1).max(initial=0.0))
        best = min(best, diff)
    return best


def deduplicate_results(
    results: Sequence[SolveResult], period: int, tol: float = 1e-6
) -> list[SolveResult]:
    """Collapse orbits equal up to a period shift, keeping the cleanest copy."""
    ordered = sorted(results, key=lambda r: (r.phi_value, r.grad_inf_norm, r.start_used))
    kept: list[SolveResult] = []
    for res in ordered:
        dup_at = None
        for i, existing in enumerate(kept):
            if _aligned_distance(existing.orbit, res.orbit, period) < tol:
                dup_at = i
                break
        if dup_at is None:
            kept.append(res)
        elif res.grad_inf_norm < kept[dup_at].grad_inf_norm:
            kept[dup_at] = res
    kept.sort(key=lambda r: (r.phi_value, r.grad_inf_norm, r.start_used))
    return kept


def multi_start(ctx: FunctionalContext, opts: Optional[SolveOptions] = None) -> list[SolveResult]:
    """Run one Newton solve per start, keep verified orbits, deduplicate, sort by action."""
    opts = opts or SolveOptions()
    if not opts.starts:
        raise ConfigurationError("opts.starts must not be empty")
    if any(s.kind == "linking" for s in opts.starts):
        ctx = ctx.with_decomposition()
    rng = np.random.default_rng(opts.seed)
    successes: list[SolveResult] = []
    for strategy in opts.starts:
        x0 = initial_guess(strategy, ctx, strategy.amplitude, rng=rng)
        result = newton_solve(ctx, x0, opts, start_tag=strategy.tag)
        if result.success:
            successes.append(result)
    return deduplicate_results(successes, ctx.op.coeffs.period)


def continuation(
    ctx_family: Callable[[float], FunctionalContext],
    nu_from: float,
    nu_to: float,
    steps: int,
    opts: Optional[SolveOptions] = None,
) -> list[tuple[float, SolveResult]]:
    """Walk a parameter geometrically, reseeding each solve with the last orbit.

    The first parameter value is solved from the configured starts and must
    succeed; later steps are seeded with the previous orbit and the walk stops
    at the first non-success, so the last entry records the last good value.
    """
    opts = opts or SolveOptions()
    if steps < 1:
        raise ConfigurationError("steps must be at least 1")
    if nu_from <= 0 or nu_to <= 0:
        raise ConfigurationError("geometric continuation needs positive parameter values")
    nus = np.geomspace(nu_from, nu_to, steps)
    first = multi_start(ctx_family(float(nus[0])), opts)
    if not first:
        raise NumericalError(f"no verified orbit found at the starting value {nu_from:g}")
    entries: list[tuple[float, SolveResult]] = [(float(nus[0]), first[0])]
    for nu in nus[1:]:
        ctx = ctx_family(float(nu))
        result = newton_solve(ctx, entries[-1][1].orbit, opts, start_tag=f"continuation(nu={nu:g})")
        if not result.success:
            break
        entries.append((float(nu), result))
    return entries
