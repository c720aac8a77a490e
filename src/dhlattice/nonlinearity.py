"""Nonlinear interaction terms and the structured sampling checker for the
standing hypotheses (R0)-(R4).

A nonlinearity bundles the node-wise energy density R(n, z), its gradient,
an optional Hessian, and the asymptotic matrices S_inf(n) that describe the
linear behavior of the gradient at large amplitude.  The callables are
vectorized: given an int array of node labels ``nodes[K]`` and the blocks
``Z[K, 2N]`` of a whole window, one call returns R, grad R and the Hessian of
every node as arrays of shape [K], [K, 2N] and [K, 2N, 2N].  A scalar n with a
single block z is the K-less case of the same call, and further leading axes
broadcast the same way, so the solver, the verifier and the checker make one
call per window or sample grid instead of one per node.

The built-in families are radial (functions of r = |z|^2 only):

* radial_rational:  R = (nu/2) r^2 / (1 + r),     grad = nu (r^2 + 2r)/(1+r)^2 z
* log_saturating:   R = (nu/2) (r - log(1 + r)),  grad = nu r/(1+r) z
* quadratic:        R = (c/2) r,                  grad = c z

The first two satisfy all of (R1)-(R4) with S_inf = nu I whenever the gap
condition nu > 2 + Lambda0 holds; the quadratic family deliberately breaks the
small-amplitude condition (R2) and is used as a negative control.

The hypotheses quantify over all of R^{2N}, so the checker is a sampling-based
falsifier, not a proof: a "pass" only means no violation was found under the
given sampling plan.  The grid is fixed; only its random directions depend on
``SamplingPlan.seed``:

* SAMPLE_RADII             64 log-spaced radii from 1e-8 to 1e8
* DIRECTIONS_PER_RADIUS    32 random unit directions per radius and node
* PERIODICITY_TOL = 1e-12  relative (R1) periodicity residual
* DELTA_GRID_SIZE = 50     log-spaced delta values in the (R4) scan
* ENVELOPE_P = 4.0, ENVELOPE_EPS = 0.1
                           the growth envelope |grad R| <= eps|z| + C|z|^(p-1)

The grid is evaluated with floating-point warnings off: a sample where R or
grad R is not finite fails (R1) with that sample as its witness, and (R2),
(R4) and the sampled part of (R3) are then inconclusive.  The growth
envelope is fitted on the same grid's |grad R| and reports no constant when
grad R is not finite at one of its samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import PeriodicCoefficients, _symmetric_stack, require_positive

ORIGIN_TOL = 1e-12
NONNEGATIVITY_TOL = 1e-12
VANISHING_RATIO_TOL = 1e-6
VANISHING_SLOPE_MIN = 0.1
SAMPLE_RADII = np.geomspace(1e-8, 1e8, 64)
SAMPLE_RADII.flags.writeable = False
DIRECTIONS_PER_RADIUS = 32
PERIODICITY_TOL = 1e-12
DELTA_GRID_SIZE = 50
ENVELOPE_P = 4.0
ENVELOPE_EPS = 0.1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Node-wise interaction term R(n, z) with gradient and asymptotic data.

    ``value``, ``gradient`` and ``hessian`` take node labels n and blocks z and
    broadcast over leading axes.  With an int array ``nodes`` of shape [K] and
    ``Z`` of shape [K, 2N] they return arrays of shape [K], [K, 2N] and
    [K, 2N, 2N], row i belonging to node ``nodes[i]``; a scalar n with a 1-D
    z of length 2N gives a scalar, a 2N-vector and a 2N x 2N matrix.  Node
    labels are lattice integers, not reduced modulo the period, so n-dependent
    terms index their per-node data with ``n % period``.

    The callables must be T-periodic in n, vanish at z = 0, and be pure
    reentrant functions.  ``hessian`` is optional; solvers fall back to
    finite differences of the gradient.  ``s_infinity`` passes the stack check
    of S(n); lambda_infinity is its least eigenvalue, from one batched call.
    """

    block_dim: int
    period: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    s_infinity: np.ndarray
    hessian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    lambda_infinity: float = field(init=False)

    def __post_init__(self) -> None:
        s_inf = _symmetric_stack("s_infinity", self.s_infinity)
        expected = (self.period, 2 * self.block_dim, 2 * self.block_dim)
        if s_inf.shape != expected:
            raise ValueError(f"s_infinity must have shape {expected}, got {s_inf.shape}")
        object.__setattr__(self, "s_infinity", s_inf)
        object.__setattr__(self, "lambda_infinity", float(np.linalg.eigvalsh(s_inf)[:, 0].min()))
        nodes = np.arange(self.period)
        origin = np.zeros((self.period, 2 * self.block_dim))
        v0 = np.broadcast_to(np.asarray(self.value(nodes, origin), dtype=float), nodes.shape)
        bad = np.flatnonzero(~(np.abs(v0) <= ORIGIN_TOL))
        if bad.size:
            n = int(bad[0])
            raise ValueError(f"value({n}, 0) = {float(v0[n])!r}, expected 0")
        g0 = np.broadcast_to(np.asarray(self.gradient(nodes, origin), dtype=float), origin.shape)
        bad = np.flatnonzero(~(np.abs(g0).max(axis=1) <= ORIGIN_TOL))
        if bad.size:
            raise ValueError(f"gradient({int(bad[0])}, 0) is nonzero")


def eval_tildeR(nl: Nonlinearity, n, z: np.ndarray):
    """The density (1/2) grad R(n,z) . z - R(n,z); vanishes for quadratic R.

    Broadcasts like the nonlinearity callables: ``nodes[K]`` with ``Z[K, 2N]``
    gives the [K] densities of a whole window, a scalar n with one block gives
    one value.
    """
    z = np.asarray(z, dtype=float)
    return 0.5 * np.vecdot(nl.gradient(n, z), z) - nl.value(n, z)


def _radial_family(
    nu: float,
    block_dim: int,
    f: Callable[[np.ndarray], np.ndarray],
    fp: Callable[[np.ndarray], np.ndarray],
    fpp: Callable[[np.ndarray], np.ndarray],
) -> Nonlinearity:
    """Build a radial nonlinearity R(z) = f(|z|^2) from elementwise profiles of r.

    |z|^2 is ``np.vecdot`` (the same BLAS dot per row as ``np.dot`` on one
    block) and the profiles raise powers with ``np.float_power`` (libm ``pow``,
    as Python ``**`` on floats), so a batched row rounds exactly like the
    single-node call on that row.
    """

    def value(n, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return f(np.vecdot(z, z))

    def gradient(n, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return (2.0 * fp(np.vecdot(z, z)))[..., None] * z

    def hessian(n, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        r = np.vecdot(z, z)
        diag = (2.0 * fp(r))[..., None, None] * np.eye(z.shape[-1])
        return diag + (4.0 * fpp(r))[..., None, None] * (z[..., :, None] * z[..., None, :])

    return Nonlinearity(
        block_dim=block_dim,
        period=1,
        value=value,
        gradient=gradient,
        hessian=hessian,
        s_infinity=nu * np.eye(2 * block_dim)[None],
    )


def family_radial_rational(nu: float, block_dim: int = 1) -> Nonlinearity:
    """R = (nu/2) |z|^4 / (1 + |z|^2); asymptotically nu I with remainder nu/(1+r)^2."""
    require_positive("nu", nu)
    return _radial_family(
        nu,
        block_dim,
        f=lambda r: 0.5 * nu * r * r / (1.0 + r),
        fp=lambda r: 0.5 * nu * (r * r + 2.0 * r) / np.float_power(1.0 + r, 2),
        fpp=lambda r: nu / np.float_power(1.0 + r, 3),
    )


def family_log_saturating(nu: float, block_dim: int = 1) -> Nonlinearity:
    """R = (nu/2) (|z|^2 - log(1 + |z|^2)); asymptotically nu I with remainder nu/(1+r)."""
    require_positive("nu", nu)
    return _radial_family(
        nu,
        block_dim,
        f=lambda r: 0.5 * nu * (r - np.log1p(r)),
        fp=lambda r: 0.5 * nu * r / (1.0 + r),
        fpp=lambda r: 0.5 * nu / np.float_power(1.0 + r, 2),
    )


def family_quadratic(strength: float, block_dim: int = 1) -> Nonlinearity:
    """Pure quadratic R = (c/2)|z|^2; breaks (R2) because |grad R|/|z| = c at 0."""
    require_positive("strength", strength, allow_zero=True)
    c = float(strength)
    return _radial_family(
        c,
        block_dim,
        f=lambda r: 0.5 * c * r,
        fp=lambda r: np.full_like(r, 0.5 * c),
        fpp=np.zeros_like,
    )


FAMILIES = {
    "radial_rational": family_radial_rational,
    "log_saturating": family_log_saturating,
    "quadratic": family_quadratic,
}


@dataclass(frozen=True)
class SamplingPlan:
    """Seed of the random directions on the fixed sample grid (module docstring)."""

    seed: int = 0

    @classmethod
    def default(cls, seed: int = 0) -> "SamplingPlan":
        return cls(seed=seed)


@dataclass
class HypothesisCheck:
    status: str
    detail: str
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(eq=False)
class HypothesisReport:
    """Sampling-based falsification outcome for (R0)-(R4).

    A "pass" records that no violation was found under the sampling plan; it
    is not a proof.  Every "fail" carries a concrete witness sample.
    """

    checks: dict[str, HypothesisCheck]
    delta0_estimate: Optional[float]
    growth_envelope: dict
    note: str = (
        "statuses are sampling-based: pass means no violation found on the plan"
    )

    @property
    def failed(self) -> list[str]:
        return [k for k, v in self.checks.items() if v.status == FAIL]

    @property
    def all_pass(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "delta0_estimate": self.delta0_estimate,
            "growth_envelope": self.growth_envelope,
            "all_pass": self.all_pass,
            "failed": self.failed,
            "note": self.note,
        }


def _loglog_slope(radii: np.ndarray, values: np.ndarray) -> float:
    safe = np.clip(values, 1e-280, None)
    return float(np.polyfit(np.log(radii), np.log(safe), 1)[0])


def _vanishing_status(
    ratios_by_radius: np.ndarray, radii: np.ndarray, at_small: bool
) -> tuple[str, str]:
    """Decide whether max-over-direction gradient ratios vanish in the sampled limit.

    ``at_small`` tests the |z| -> 0 end, otherwise |z| -> infinity; the slope of
    the log-log trend over the outer quarter of radii guards against slowly
    varying ratios being mistaken for convergent ones.
    """
    quarter = max(4, len(radii) // 4)
    if at_small:
        sel = slice(0, quarter)
        limit_value = float(ratios_by_radius[0])
        want_slope_sign = 1.0
    else:
        sel = slice(len(radii) - quarter, len(radii))
        limit_value = float(ratios_by_radius[-1])
        want_slope_sign = -1.0
    slope = _loglog_slope(radii[sel], ratios_by_radius[sel]) * want_slope_sign
    if limit_value <= VANISHING_RATIO_TOL:
        return PASS, f"limit ratio {limit_value:.3e} below {VANISHING_RATIO_TOL:.0e}"
    if slope < VANISHING_SLOPE_MIN and limit_value > 1e-3:
        return (
            FAIL,
            f"ratio {limit_value:.3e} at the sampled limit with log-log slope "
            f"{want_slope_sign * slope:.3f} shows no decay",
        )
    return (
        INCONCLUSIVE,
        f"ratio {limit_value:.3e} still decaying (slope {want_slope_sign * slope:.3f}); "
        "extend the radial grid to decide",
    )


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, finite whenever the entries are.

    Each row is scaled by 2^-e, with 2^e just above its largest absolute
    entry, before the squares are summed, and the norm is scaled back.
    Power-of-two scaling is exact, so rows whose squares stay in range get the
    same bits as sqrt(v . v).
    """
    # a pairwise maximum over the components: numpy reduces a short last axis
    # one row at a time, several times slower
    _, e = np.frexp(functools.reduce(np.maximum, np.abs(np.moveaxis(v, -1, 0))))
    scaled = np.ldexp(v, -e[..., None])
    return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), e)


def _sample_grid(nl: Nonlinearity, plan: SamplingPlan):
    """The plan's directions; R, tilde R and its noise floor, |grad R| and
    |grad R - S_inf z|/|z| on the grid [T, radii, directions]; whether R and
    grad R are finite at each sample; and the worst (R1) periodicity residual.

    R and grad R are evaluated once on the grid.  tilde R is the difference
    of two terms that both grow like |z|^2, so its floating-point value
    carries a cancellation error proportional to their size; ``tilde_floor``
    records that per-sample noise level so sign and threshold tests do not
    misread roundoff as a violation.  The periodicity residual compares the
    grid's values on every 4th radius and 8th direction with one more call
    each at the node labels shifted by one period.
    """
    rng = np.random.default_rng(plan.seed)
    radii = SAMPLE_RADII
    dirs_all = rng.standard_normal((len(radii), DIRECTIONS_PER_RADIUS, 2 * nl.block_dim))
    dirs_all /= np.linalg.norm(dirs_all, axis=2, keepdims=True)
    eps_guard = 64.0 * np.finfo(float).eps
    nodes = np.arange(nl.period)[:, None, None]
    z = np.broadcast_to(radii[:, None, None] * dirs_all, (nl.period,) + dirs_all.shape)
    g = np.asarray(nl.gradient(nodes, z), dtype=float)
    r_vals = np.asarray(nl.value(nodes, z), dtype=float)
    half_gz = 0.5 * np.vecdot(g, z)
    tilde_vals = half_gz - r_vals
    tilde_floor = eps_guard * (1.0 + np.abs(half_gz) + np.abs(r_vals))
    grad_norm = _row_norms(g)
    s_inf = nl.s_infinity[:, None, None]
    asym = g - (s_inf @ z[..., None])[..., 0]
    asym_ratio = _row_norms(asym) / radii[:, None]
    finite = np.isfinite(r_vals) & np.isfinite(g).all(axis=-1)
    thin = (slice(None), slice(None, None, 4), slice(None, None, 8))
    v, g_thin = r_vals[thin], g[thin]
    shifted = nodes + nl.period
    v_shift = np.asarray(nl.value(shifted, z[thin]), dtype=float)
    g_shift = np.asarray(nl.gradient(shifted, z[thin]), dtype=float)
    dv = np.abs(v_shift - v) / np.maximum(1.0, np.abs(v))
    dg = np.abs(g_shift - g_thin).max(axis=-1) / np.maximum(1.0, np.abs(g_thin).max(axis=-1))
    # np.max propagates NaN, so a non-finite residual fails the check
    worst_period = float(np.max(np.concatenate([dv.ravel(), dg.ravel()]), initial=0.0))
    return dirs_all, r_vals, tilde_vals, tilde_floor, grad_norm, asym_ratio, finite, worst_period


def _sample_witness(index, radii: np.ndarray, dirs: np.ndarray) -> dict:
    """Node, radius and direction of the grid sample at ``index`` = (n, i, j)."""
    n, i, j = index
    return {"n": int(n), "radius": float(radii[i]), "direction": [float(v) for v in dirs[i, j]]}


def _worst_witness(
    values: np.ndarray, radii: np.ndarray, dirs: np.ndarray, pick_min: bool
) -> dict:
    flat = int(values.argmin() if pick_min else values.argmax())
    index = np.unravel_index(flat, values.shape)
    return {**_sample_witness(index, radii, dirs), "value": float(values[index])}


@np.errstate(all="ignore")
def check_hypotheses(
    nl: Nonlinearity,
    coeffs: PeriodicCoefficients,
    plan: Optional[SamplingPlan] = None,
) -> HypothesisReport:
    """Falsify the hypotheses (R0)-(R4) on a structured sample grid.

    Failures are report entries carrying witnesses, never exceptions or
    floating-point warnings: a non-finite sample fails (R1) and leaves the
    grid-based parts of (R2)-(R4) inconclusive.  The (R4) scan looks for a
    single delta that works uniformly over all sampled nodes and amplitudes
    (the strong reading); the estimate is the largest grid value for which
    every sample with |grad R| >= (lambda0 - delta)|z| also has
    tilde R >= delta.
    """
    plan = plan or SamplingPlan.default()
    checks: dict[str, HypothesisCheck] = {}

    # (R0): exact check on the coefficients.
    lam0, lam1 = coeffs.lambda0, coeffs.Lambda0
    checks["R0"] = HypothesisCheck(
        PASS,
        f"J0*S(n) symmetric positive definite for all n; "
        f"lambda0 = {lam0:.6g}, Lambda0 = {lam1:.6g}",
    )

    radii = SAMPLE_RADII
    dirs_all, r_vals, tilde_vals, tilde_floor, grad_norm, asym_ratio, finite, worst_period = (
        _sample_grid(nl, plan)
    )
    grad_ratio = grad_norm / radii[:, None]

    # (R1): R and grad R finite on the grid, and periodicity in n on a
    # thinned subsample.
    nonfinite = np.argwhere(~finite)
    if nonfinite.size:
        checks["R1"] = HypothesisCheck(
            FAIL,
            f"R or grad R is not finite at {len(nonfinite)} of {finite.size} samples; "
            "the witness is the first",
            witness=_sample_witness(nonfinite[0], radii, dirs_all),
        )
    elif worst_period <= PERIODICITY_TOL:
        checks["R1"] = HypothesisCheck(
            PASS, f"periodicity residual {worst_period:.3e} within {PERIODICITY_TOL:.0e}"
        )
    else:
        checks["R1"] = HypothesisCheck(
            FAIL,
            f"periodicity residual {worst_period:.3e} exceeds {PERIODICITY_TOL:.0e}",
            witness={"residual": worst_period},
        )

    # (R2)-(R4) read the sample grid, which decides nothing once (R1) has
    # found a non-finite sample on it; the (R3) gap test still decides.
    grid_note = None
    if nonfinite.size:
        grid_note = "not decided, since (R1) found R or grad R not finite on the sample grid"

    # (R2): nonnegativity of R plus vanishing gradient ratio at the origin.
    min_r = float(r_vals.min())
    if grid_note:
        checks["R2"] = HypothesisCheck(
            INCONCLUSIVE, "R >= 0 and |grad R|/|z| near 0: " + grid_note
        )
    elif min_r < -NONNEGATIVITY_TOL:
        checks["R2"] = HypothesisCheck(
            FAIL,
            f"R takes the negative value {min_r:.3e}",
            witness=_worst_witness(r_vals, radii, dirs_all, pick_min=True),
        )
    else:
        ratio_by_radius = grad_ratio.max(axis=(0, 2))
        status, detail = _vanishing_status(ratio_by_radius, radii, at_small=True)
        witness = None
        if status == FAIL:
            witness = _worst_witness(
                grad_ratio[:, :1, :], radii[:1], dirs_all[:1], pick_min=False
            )
        checks["R2"] = HypothesisCheck(status, "|grad R|/|z| near 0: " + detail, witness)

    # (R3): asymptotic linearity plus the spectral gap condition.
    gap_bound = 2.0 + lam1
    if nl.lambda_infinity <= gap_bound:
        checks["R3"] = HypothesisCheck(
            FAIL,
            f"gap test failed: lambda_infinity = {nl.lambda_infinity:.6g} must exceed "
            f"2 + Lambda0 = {gap_bound:.6g}",
            witness={"lambda_infinity": nl.lambda_infinity, "required_bound": gap_bound},
        )
    else:
        witness = None
        if grid_note:
            status, detail = INCONCLUSIVE, grid_note
        else:
            asym_by_radius = asym_ratio.max(axis=(0, 2))
            status, detail = _vanishing_status(asym_by_radius, radii, at_small=False)
        if status == FAIL:
            witness = _worst_witness(
                asym_ratio[:, -1:, :], radii[-1:], dirs_all[-1:], pick_min=False
            )
        checks["R3"] = HypothesisCheck(
            status,
            f"gap test passed ({nl.lambda_infinity:.6g} > {gap_bound:.6g}); "
            "|grad R - S_inf z|/|z| at infinity: " + detail,
            witness,
        )

    # (R4): tilde R >= 0 plus the uniform delta scan.  Both comparisons allow
    # the per-sample cancellation floor, since tilde R is computed as a
    # difference of terms that can dwarf it at large amplitude.
    delta0 = None
    slack = tilde_vals + np.maximum(tilde_floor, NONNEGATIVITY_TOL)
    if grid_note:
        checks["R4"] = HypothesisCheck(INCONCLUSIVE, "tilde R >= 0: " + grid_note)
    elif float(slack.min()) < 0.0:
        checks["R4"] = HypothesisCheck(
            FAIL,
            f"tilde R takes the negative value {float(tilde_vals.min()):.3e} "
            "(beyond the cancellation noise floor)",
            witness=_worst_witness(tilde_vals, radii, dirs_all, pick_min=True),
        )
    else:
        lam0_coeff = coeffs.lambda0
        ratios = grad_ratio.ravel()
        tildes_slack = (tilde_vals + tilde_floor).ravel()
        deltas = np.geomspace(1e-4 * lam0_coeff, 0.999 * lam0_coeff, DELTA_GRID_SIZE)
        for delta in deltas[::-1]:
            mask = ratios >= lam0_coeff - delta
            if not mask.any() or tildes_slack[mask].min() >= delta:
                delta0 = float(delta)
                break
        if delta0 is None:
            checks["R4"] = HypothesisCheck(
                INCONCLUSIVE,
                "tilde R >= 0 on all samples, but no uniform delta on the scan grid "
                "satisfies the implication |grad R| >= (lambda0-delta)|z| "
                "=> tilde R >= delta",
            )
        else:
            checks["R4"] = HypothesisCheck(
                PASS,
                f"tilde R >= 0 on all samples; uniform delta0 estimate {delta0:.6g} "
                f"(scan over (0, lambda0) with lambda0 = {lam0_coeff:.6g})",
            )

    # the growth envelope |grad R| <= eps |z| + C |z|^(p-1): the smallest C on
    # the grid, none when grad R is not finite at some sample, since no fit
    # over the finite ones bounds it there
    excess = grad_norm - ENVELOPE_EPS * radii[:, None]
    ratio = excess / np.float_power(radii[:, None], ENVELOPE_P - 1.0)
    constant = None
    if np.isfinite(grad_norm).all():
        constant = float(ratio[excess > 0.0].max(initial=0.0))
    envelope = {"p": ENVELOPE_P, "eps": ENVELOPE_EPS, "constant": constant}
    return HypothesisReport(checks=checks, delta0_estimate=delta0, growth_envelope=envelope)
