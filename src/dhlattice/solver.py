"""Damped Newton search for nontrivial critical points of the action.

The root problem is F(x) = (A+S)x - grad R(., x(.)) = 0.  Each step solves

    [H0 - HessR(x)] delta = -F(x)

with the assembled operator matrix H0 and the block-diagonal Hessian of the
interaction sum (the interaction couples nodes only through themselves, so its
Hessian is one 2N x 2N block per node).  The search runs on zero-pad windows,
where the Newton matrix is banded and each step is one banded LU solve.
Armijo backtracking on the squared residual norm accepts only steps that
reduce ||F||; when it finds none, or the LU gives no finite step, the one
fallback is a rescue step of descent on (1/2)||F||^2.  Each step builds
the Newton matrix J once, in lower-band storage (``_jacobian``), converts a
copy to the general-band storage ``dgbsv`` reads, and the rescue step reuses
the same J for its two band products.

Both searches try step lengths t, t/2, t/4, ... (41 Armijo trials from t = 1,
60 rescue trials from the Cauchy step) in one loop and take the first that
passes.  The first trial gets the whole window; on the shipped configs 66 of
the 243 Newton steps (27 %) take t = 1 and the other 177 reject it.  That
rejection screens every later trial on the iterate's core, the rows within
CORE_HALF_WIDTH nodes of the row holding its largest entry: one slab stack
gradient (``FunctionalContext.gradient_stack``) gives the core rows of every
later trial, the slab one halo node wider on each side so that every core
row is exact.  The loop skips a trial whose core sum of squares, times
CORE_MARGIN, fails the test.  The core sum is a partial sum of the
nonnegative terms of the full ||g||^2, and the margin, 1e-9, exceeds the
relative rounding of the two sums together (about 2 K 2N eps, below 1e-9 up
to two million unknowns), so the full sum would fail too; a NaN or an
overflow in the core fails the test, as the full sum would.  A trial that
passes the screen gets the whole window and the test on its full ||g||^2.
Halving is exact, and every trial point and its gradient rows round as they
would one at a time, so the search accepts the same step as a one-at-a-time
search.  On the shipped configs the screen itself rejects 96 % of the
screened trials that fail.  The diagnostic ``gradient_evaluations`` counts
the starting point and the trials up to the accepted one (all of them when
none passes), the count of a one-at-a-time search.

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

Duplicates are found up to shifts by whole periods.  Each pair of orbits is
screened on one row per shift, the first orbit's largest; only shifts that
pass get the full-window comparison, so a pair of localized orbits costs O(K)
where comparing every shift on the whole window costs O(K^2).

Zero is always a root, so converged points below a smallness threshold are
rejected as trivial; accepted orbits are handed to the verification module
(difference-equation residual, decay fit, energy identity, window doubling)
and only fully verified results count as successes.  ``multi_start`` groups
the converged candidates of all its starts into distinct orbits first and
verifies each group's cleanest copy, falling back to the next copy only when
one fails, so an orbit that several starts reach is verified once.

Initial guesses recycle the saddle geometry of the functional: the eigenvector
of the smallest positive eigenvalue lambda+ is the flattest ascent direction of
the quadratic part, along which the action rises first and eventually falls
once the interaction takes over, so scaled copies of it bracket interesting
amplitudes.  The ``linking`` start gets that vector from the operator's band
storage without an eigenbasis.  Under (R0) every zero-pad window has exactly
dim/2 eigenvalues <= -lambda0 and dim/2 >= lambda0 (``_linking_direction``
proves it), so lambda+ is the eigenvalue at index dim/2: one selected
eigenvalue call for that index alone, one banded LU of H0 - lambda+ I, and
a few inverse-iteration solves on it from a fixed vector.  For N = 1 the
band is tridiagonal and every step is linear in the window.  For N >= 2 the
band's reduction to tridiagonal form inside the eigenvalue call stays
quadratic.
The result is normalized with its largest-magnitude entry positive; when
lambda+ is degenerate, any vector of its eigenspace serves.  Bump and random
starts cover orbits the delocalized eigenvector misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    BlockVector,
    Boundary,
    ConfigurationError,
    NumericalError,
    json_text,
    lp_norm,
    require_int,
    require_positive,
    require_real,
    shift,
)
from .functional import FunctionalContext, Phi
from .operators import TruncatedOperator, _diagonal_bands, assemble, banded_matvec
from .verify import TRIVIAL_TOL, VerificationReport, verify_orbit

GRAD_TOL = 1e-10
POLISH_FLOOR = 1e-13
STAGNATION_WINDOW = 30
STAGNATION_RATIO = 0.9
BACKTRACK_TRIALS = 41  # t = 1, 1/2, ..., 2^-40
RESCUE_TRIALS = 60
BACKTRACK_SHRINK = 0.5
CORE_HALF_WIDTH = 8  # the screened core: rows within 8 nodes of the largest
CORE_MARGIN = 1.0 - 1e-9  # covers the summation error of a core or full sum
ARMIJO = 1e-4
LINKING_SOLVES = 4
DUPLICATE_TOL = 1e-6
START_KINDS = ("linking", "gaussian", "random")


@dataclass(frozen=True)
class StartStrategy:
    """One initial-guess recipe for the multi-start search; amplitude and
    width must be real numbers, stored as floats.  Only ``gaussian`` reads
    the width."""

    kind: str  # one of START_KINDS
    amplitude: float = 1.0
    width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in START_KINDS:
            raise ConfigurationError(
                f"start kind must be one of {json_text(START_KINDS)}, got {json_text(self.kind)}"
            )
        # both fields must be numbers before either range is checked
        require_real("start amplitude", self.amplitude)
        if self.width is not None:
            require_real("start width", self.width)
        amplitude = require_positive("start amplitude", self.amplitude, allow_zero=True)
        object.__setattr__(self, "amplitude", amplitude)
        if self.width is not None:
            object.__setattr__(self, "width", require_positive("start width", self.width))

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
    """Iteration budget, starts and seed; the tolerances (GRAD_TOL, and
    TRIVIAL_TOL for the trivial status) and the line search constants are fixed."""

    max_iter: int = 200
    starts: tuple[StartStrategy, ...] = field(default_factory=default_starts)
    seed: int = 0

    def __post_init__(self) -> None:
        require_int("max_iter", self.max_iter, 1)
        require_int("seed", self.seed, 0)


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


def _require_zero_pad(ctx: FunctionalContext) -> None:
    if ctx.window.boundary is not Boundary.ZERO_PAD:
        raise ConfigurationError(
            "the orbit search runs on zero-pad windows; periodic windows are for "
            "spectral certification only"
        )


@np.errstate(all="ignore")  # a narrow gaussian's (n / w)^2 overflows to a zero profile
def initial_guess(
    strategy,
    ctx: FunctionalContext,
    amplitude: float,
    *,
    rng: Optional[np.random.Generator] = None,
) -> BlockVector:
    """Build a starting vector; ``strategy`` is a StartStrategy or its kind
    string, and ``amplitude`` replaces the strategy's own.

    ``linking`` is the unit eigenvector of the smallest positive eigenvalue of
    the zero-pad operator (any unit vector of its eigenspace when that
    eigenvalue is degenerate), signed so its largest-magnitude entry is
    positive, times ``amplitude``; it is computed from the band storage by
    inverse iteration (module docstring) and raises ConfigurationError on a
    periodic window.  ``gaussian`` is a bump along the diagonal direction, of
    the strategy's width (a kind string gets the default, an eighth of the
    half-width); ``random`` draws from ``rng``.  A bad kind or amplitude
    raises ConfigurationError, as in StartStrategy.
    """
    if isinstance(strategy, StartStrategy):
        start = replace(strategy, amplitude=amplitude)
    else:
        start = StartStrategy(strategy, amplitude)
    window = ctx.window
    n2 = 2 * ctx.op.block_dim
    if start.kind == "linking":
        _require_zero_pad(ctx)
        flat = amplitude * _linking_direction(ctx.op.bands)
        return BlockVector.from_flat(window, ctx.op.block_dim, flat)
    if start.kind == "gaussian":
        w = start.width if start.width is not None else max(window.half_width, 1) / 8.0
        direction = np.ones(n2) / np.sqrt(n2)
        profile = amplitude * np.exp(-((window.nodes / w) ** 2))
        return BlockVector(window, ctx.op.block_dim, np.outer(profile, direction))
    rng = rng or np.random.default_rng(0)
    entries = rng.standard_normal((window.num_nodes, n2))
    norm = np.linalg.norm(entries)
    if norm > 0 and amplitude > 0:
        entries *= amplitude / norm
    else:
        entries *= 0.0
    return BlockVector(window, ctx.op.block_dim, entries)


def _linking_direction(bands: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest positive eigenvalue of a zero-pad operator.

    Under (R0) a zero-pad window's matrix H0 = A + S has exactly dim/2
    eigenvalues <= -lambda0, dim/2 >= lambda0 and none between, so lambda+
    is the eigenvalue at index m = dim // 2:

    * Let H0 x = lambda x, and G(n) = J0 S(n) >= lambda0 I by (R0).  Since
      (S x)(n) = -S(n) x(n), multiplying by J0 node-wise gives
      J0 A x - G x = lambda J0 x.
    * <x, J0 A x> = sum x1(n) x1(n+1) + sum x2(n) x2(n-1) - |x|^2 <= 0 by
      Cauchy-Schwarz, since zero padding makes both shifts contractions.
    * So lambda <x, J0 x> <= -lambda0 |x|^2, and |<x, J0 x>| <= |x|^2
      gives |lambda| >= lambda0.
    * Replace S by t S for t in [0, 1].  (R0) holds with t lambda0 > 0 for
      t > 0, and A alone is nonsingular (its x2 -> z1 block is unit lower
      bidiagonal), so no eigenvalue crosses zero.
    * A's eigenvalues are +- the singular values of that block, so exactly
      KN = dim/2 of them are negative.

    One selected eigenvalue call (``dsbevx``: the band reduced to tridiagonal
    form, then bisection on index m alone) returns lambda+; bands that do not
    come from (R0) coefficients can give a value that is not positive, which
    raises NumericalError.  For N = 1 the band is tridiagonal, so the
    selection and the inverse iteration are linear in the window; for N >= 2
    the band reduction stays quadratic.

    Inverse iteration with the computed eigenvalue as shift: its error is at
    roundoff, so each solve multiplies the wanted component by about
    gap / (eps ||H0||) against the others and one or two solves reach the
    roundoff residual.  ||H0|| is bounded by the largest absolute row sum.
    Diagonal entries of U below eps times that bound are raised to that size
    (as LAPACK's tridiagonal inverse iteration does), so an eigenvalue that is
    exact in floating point gives no zero division.  The fixed start vector
    comes from a private generator, leaving the caller's random starts
    unchanged.
    """
    import scipy.linalg  # deferred: commands without LAPACK, like check, skip its import
    bw, dim = bands.shape[0] - 1, bands.shape[1]
    m = dim // 2
    lam = scipy.linalg.eig_banded(
        bands, lower=True, select="i", select_range=(m, m), eigvals_only=True
    )[0]
    if not lam > 0:
        raise NumericalError(
            f"eigenvalue {lam} at index {m} of {dim} is not positive: the bands "
            "do not come from coefficients satisfying (R0)"
        )
    # the largest absolute row sum bounds ||H0||_2
    row_sums = np.abs(bands[0])
    for k in range(1, min(bw + 1, dim)):
        off = np.abs(bands[k, : dim - k])
        row_sums[: dim - k] += off
        row_sums[k:] += off
    floor = np.finfo(float).eps * row_sums.max()
    shifted = bands.copy()
    shifted[0] -= lam
    lu, piv, _ = scipy.linalg.lapack.dgbtrf(_general_band(shifted), bw, bw, overwrite_ab=1)
    diag = lu[2 * bw]  # the diagonal of U, a view into lu
    tiny = np.abs(diag) < floor
    diag[tiny] = np.copysign(floor, diag[tiny])
    v = np.random.default_rng(0).standard_normal(dim)
    for _ in range(LINKING_SOLVES):
        v, _ = scipy.linalg.lapack.dgbtrs(lu, bw, bw, v, piv)
        v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])  # exact; the norm cannot underflow
        v /= np.linalg.norm(v)
        if np.linalg.norm(banded_matvec(bands, v) - lam * v) <= (2 * bw + 1) * floor:
            break
    return v if v[np.argmax(np.abs(v))] > 0 else -v


def _node_hessians(ctx: FunctionalContext, x: BlockVector) -> np.ndarray:
    """Hessian blocks [K, 2N, 2N] of R along the window, from one batched call.

    Without an analytic Hessian, central differences of the gradient: the
    2 * 2N points z + h e_j and z - h e_j go through one gradient call as a
    (2 * 2N, K, 2N) stack.  h is added to component j alone, so the other
    components keep their bits (a signed zero included).
    """
    nl = ctx.nl
    nodes = ctx.window.nodes
    z = x.entries
    if nl.hessian is not None:
        return np.asarray(nl.hessian(nodes, z), dtype=float)
    n2 = 2 * x.block_dim
    h = 1e-6 * (1.0 + np.sqrt(np.vecdot(z, z)))
    zs = np.repeat(z[None], 2 * n2, axis=0)
    for j in range(n2):
        zs[j, :, j] += h
        zs[n2 + j, :, j] -= h
    g = np.asarray(nl.gradient(nodes, zs), dtype=float)
    # cols[:, :, j] is the difference quotient along e_j
    cols = ((g[:n2] - g[n2:]) / (2.0 * h)[:, None]).transpose(1, 2, 0)
    return 0.5 * (cols + cols.transpose(0, 2, 1))


def _jacobian(op: TruncatedOperator, hess_blocks: np.ndarray) -> np.ndarray:
    """Lower bands of H0 - HessR(x); the Hessian blocks sit on the block diagonal."""
    return op.bands - _diagonal_bands(hess_blocks, op.bands.shape[0])


def _general_band(sym: np.ndarray) -> np.ndarray:
    """LAPACK general-band storage of a matrix in symmetric lower-band storage.

    M[i, j] sits at ab[2 bw + i - j, j]; the top bw rows are LU fill-in space.
    """
    bw = sym.shape[0] - 1
    dim = sym.shape[1]
    ab = np.zeros((3 * bw + 1, dim))
    for k in range(min(bw + 1, dim)):
        ab[2 * bw + k, : dim - k] = sym[k, : dim - k]
        ab[2 * bw - k, k:] = sym[k, : dim - k]
    return ab


def _solve_linear(ab: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve M x = rhs, M in LAPACK general-band storage (``_general_band``),
    by one banded LU that overwrites ``ab``.

    Returns None when ``dgbsv`` reports a singular factor or x is not finite.
    """
    import scipy.linalg  # deferred: commands without LAPACK, like check, skip its import
    bw = (ab.shape[0] - 1) // 3
    _, _, x, info = scipy.linalg.lapack.dgbsv(bw, bw, ab, rhs, overwrite_ab=1)
    if info != 0 or not np.all(np.isfinite(x)):
        return None
    return x


@np.errstate(all="ignore")
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
    GRAD_TOL; once there the iteration keeps polishing while each step
    still halves the residual, down to the floating-point floor, so tail
    entries of the orbit stay meaningful well below the tolerance.  A start
    whose residual stalls short of the tolerance stops at the stagnation exit
    described in the module docstring.  Floating-point overflow raises no
    warning: a start whose gradient is not finite fails the convergence test
    and ends ``no_convergence``.
    """
    opts = opts or SolveOptions()
    orbit, g_inf, iterations, status, diagnostics = _newton_iterate(ctx, x0, opts)
    report = None
    if status == "converged" and run_verification:
        report = verify_candidate(ctx, orbit, opts)
        status = "verified" if report.passed else "unverified"
    return SolveResult(
        orbit, Phi(ctx, orbit), g_inf, iterations, start_tag, status, report, diagnostics
    )


def _newton_iterate(
    ctx: FunctionalContext, x0: BlockVector, opts: SolveOptions
) -> tuple[BlockVector, float, int, str, dict]:
    """The iteration of ``newton_solve`` without the action or verification:
    (final iterate, its max-norm residual, steps taken, status, diagnostics),
    the status ``converged``, ``trivial`` or ``no_convergence``."""
    _require_zero_pad(ctx)
    ctx._check(x0)
    window = ctx.window

    gradient_evaluations = 0
    num_nodes = window.num_nodes

    def search(direction: np.ndarray, t: float, count: int, accept):
        """The first of the ``count`` step lengths t, t/2, t/4, ... whose
        trial x + t direction passes ``accept(t, ||g||^2)``, as (trial x,
        trial gradient rows), or None.

        One loop takes the trials in order.  The first gets the whole window;
        when it fails, one slab stack gradient gives the core rows of all the
        others (module docstring), and a later trial whose core fails the
        test is skipped.  The rest get the whole window and the test on
        their full ||g||^2.  The count of gradient evaluations is that of a
        one-at-a-time search.
        """
        nonlocal gradient_evaluations
        steps = []
        for _ in range(count):
            steps.append(t)
            t *= BACKTRACK_SHRINK
        core_sq = None
        for i, step in enumerate(steps):
            if i > 0 and not accept(step, core_sq[i - 1] * CORE_MARGIN):
                continue
            trial = x + step * direction
            grad = ctx.gradient_stack(trial[None])[0]
            if accept(step, float(np.vdot(grad, grad))):
                gradient_evaluations += i + 1
                return trial, grad
            if i == 0:
                peak = int(np.argmax(np.abs(x).max(axis=1)))  # the row of x's largest entry
                lo = max(peak - CORE_HALF_WIDTH, 0)
                hi = min(peak + CORE_HALF_WIDTH + 1, num_nodes)
                a, b = max(lo - 1, 0), min(hi + 1, num_nodes)  # one halo node each side
                rest = np.array(steps[1:])[:, None, None]
                slab = ctx.gradient_stack(x[a:b] + rest * direction[a:b], start=a)
                core = slab[:, lo - a : hi - a].reshape(count - 1, -1)
                core_sq = np.einsum("ij,ij->i", core, core).tolist()
        gradient_evaluations += count
        return None

    def inf_norm(rows: np.ndarray) -> float:
        return float(np.linalg.norm(rows, axis=1).max(initial=0.0))

    x = np.array(x0.entries)
    g = ctx.gradient_stack(x[None])[0]
    gradient_evaluations += 1
    g_inf = inf_norm(g)
    history = [g_inf]
    regularizations = 0
    fallback_steps = 0
    polish = 0
    converged = g_inf <= GRAD_TOL
    stop_reason = "max_iter"
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        if converged and (g_inf <= POLISH_FLOOR or polish >= 6):
            iterations -= 1
            break
        hess = _node_hessians(ctx, BlockVector(window, ctx.op.block_dim, x))
        jac = _jacobian(ctx.op, hess)
        delta = _solve_linear(_general_band(jac), -g.reshape(-1))
        g_sq = float(np.vdot(g, g))
        found = None
        if delta is None:
            regularizations += 1
        else:
            found = search(
                delta.reshape(x.shape),
                1.0,
                BACKTRACK_TRIALS,
                lambda t, trial_sq: trial_sq <= (1.0 - 2.0 * ARMIJO * t) * g_sq,
            )
        if found is None:
            # rescue path: steepest descent on (1/2)||F||^2, gradient J^T F
            d = banded_matvec(jac, g.reshape(-1))
            jd = banded_matvec(jac, d)
            jd_sq = float(np.vdot(jd, jd))
            if not jd_sq > 0.0:  # also NaN from a non-finite Newton matrix
                stop_reason = "line_search_failed"
                break
            # Cauchy step for the quadratic model; x + t (-d) rounds as x - t d
            found = search(
                -d.reshape(x.shape),
                float(np.vdot(d, d)) / jd_sq,
                RESCUE_TRIALS,
                lambda t, trial_sq: trial_sq < g_sq,
            )
            if found is None:
                stop_reason = "line_search_failed"
                break
            fallback_steps += 1
        x_trial, g_trial = found
        new_inf = inf_norm(g_trial)
        if converged:
            if new_inf >= 0.5 * g_inf:
                break
            polish += 1
        x, g, g_inf = x_trial, g_trial, new_inf
        history.append(g_inf)
        if g_inf <= GRAD_TOL:
            converged = True
        elif (
            iterations >= STAGNATION_WINDOW
            and min(history) > STAGNATION_RATIO * min(history[:-STAGNATION_WINDOW])
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
    if not converged:
        status = "no_convergence"
    elif lp_norm(orbit, np.inf) <= TRIVIAL_TOL:
        status = "trivial"
    else:
        status = "converged"
    return orbit, g_inf, iterations, status, diagnostics


def verify_candidate(
    ctx: FunctionalContext, orbit: BlockVector, opts: SolveOptions
) -> VerificationReport:
    """Every orbit check; the window-doubling re-solve runs on contexts built
    from ``ctx``'s coefficients and nonlinearity, with the options' iteration
    budget (the only option it reads)."""
    return verify_orbit(
        ctx,
        orbit,
        ctx_builder=lambda w: FunctionalContext(assemble(w, ctx.op.coeffs), ctx.nl),
        solve_opts=opts,
    )


def _same_orbit(a: BlockVector, b: BlockVector, period: int) -> bool:
    """Whether some shift of b by a multiple of the period is within
    DUPLICATE_TOL of a in the max row norm.

    Every shift is first screened on one row, a's largest: that row's norm
    is one term of the full max, computed the same way, so a shift whose
    screen is not below the tolerance cannot pass.  Only the shifts left
    get the full-window comparison, which takes O(K) per pair for localized
    orbits instead of O(K^2).
    """
    count = a.window.num_nodes
    ks = np.arange(-(count // period), count // period + 1)
    peak = int(np.argmax(np.linalg.norm(a.entries, axis=1)))
    rows = peak + ks * period  # shift(b, k T) holds b's row peak + k T at row peak
    if a.window.boundary is Boundary.PERIODIC:
        peak_rows = b.entries[rows % count]
    else:
        inside = (rows >= 0) & (rows < count)
        peak_rows = np.where(inside[:, None], b.entries[np.clip(rows, 0, count - 1)], 0.0)
    screen = np.linalg.norm(a.entries[peak] - peak_rows, axis=1)
    for k in ks[screen < DUPLICATE_TOL]:
        shifted = shift(b, int(k) * period)
        diff = float(np.linalg.norm(a.entries - shifted.entries, axis=1).max(initial=0.0))
        if diff < DUPLICATE_TOL:
            return True
    return False


def _result_order(res: SolveResult) -> tuple:
    return (res.phi_value, res.grad_inf_norm, res.start_used)


def _cleanest(group: Sequence[SolveResult]) -> SolveResult:
    return min(group, key=lambda r: r.grad_inf_norm)


def _orbit_groups(results: Sequence[SolveResult], period: int) -> list[list[SolveResult]]:
    """The results grouped into distinct orbits, each group in ``_result_order``.

    Results are taken in that order; each joins the first group whose
    cleanest member (smallest ``grad_inf_norm``, the earlier one on a tie)
    it matches up to a period shift (``_same_orbit``), or starts a new group.
    """
    groups: list[list[SolveResult]] = []
    for res in sorted(results, key=_result_order):
        for group in groups:
            if _same_orbit(_cleanest(group).orbit, res.orbit, period):
                group.append(res)
                break
        else:
            groups.append([res])
    return groups


def deduplicate_results(results: Sequence[SolveResult], period: int) -> list[SolveResult]:
    """Collapse orbits within DUPLICATE_TOL up to a period shift, keeping the cleanest copy."""
    return sorted((_cleanest(group) for group in _orbit_groups(results, period)),
                  key=_result_order)


def multi_start(ctx: FunctionalContext, opts: Optional[SolveOptions] = None) -> list[SolveResult]:
    """Run one Newton solve per start and return the verified distinct orbits,
    sorted by action.

    The starts are solved without verification.  Their converged candidates
    are grouped into distinct orbits as ``deduplicate_results`` groups them,
    and each group's members are verified in ascending ``grad_inf_norm``
    (ties in group order) until one passes: that copy is reported, so each
    distinct orbit is verified once unless its cleanest copy fails.
    """
    opts = opts or SolveOptions()
    if not opts.starts:
        raise ConfigurationError("opts.starts must not be empty")
    rng = np.random.default_rng(opts.seed)
    candidates: list[SolveResult] = []
    for strategy in opts.starts:
        x0 = initial_guess(strategy, ctx, strategy.amplitude, rng=rng)
        result = newton_solve(ctx, x0, opts, start_tag=strategy.tag, run_verification=False)
        if result.status == "converged":
            candidates.append(result)
    verified: list[SolveResult] = []
    for group in _orbit_groups(candidates, ctx.op.coeffs.period):
        for res in sorted(group, key=lambda r: r.grad_inf_norm):
            report = verify_candidate(ctx, res.orbit, opts)
            if report.passed:
                verified.append(replace(res, status="verified", verification=report))
                break
    return sorted(verified, key=_result_order)
