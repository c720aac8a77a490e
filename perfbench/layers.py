"""Per-layer measurements that do not come from a workload's CLI commands.

* ``replay_starts`` drives ``initial_guess`` and ``newton_solve`` itself, in
  the order and with the ``rng`` sequence ``multi_start`` uses, so it can record
  every start, failed ones included (``multi_start`` keeps verified orbits
  only).  The caller compares its deduplicated orbits with the CLI's.
* ``probe_metrics`` times each layer's public functions on fixed inputs at
  K = 129, 513, 2049 and 8193 zero-pad nodes (model coefficients,
  radial_rational(nu = 4), a Gaussian bump).  The probes are the same on
  every workload; they give the per-layer times a workload that bypasses a
  layer cannot.  Repeated calls are timed in scaled seconds, like the
  end-to-end metrics; the Newton probe's span times are wall seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from calibration import SpeedStopwatch
from tracing import Tracer

SIZES = (129, 513, 2049, 8193)
EIGEN_SIZES = (129, 513)  # 2049 takes about 9 s dense and 14 s banded
NEWTON_SIZES = (129, 513)


def median_time(fn, *, min_samples: int = 5, min_seconds: float = 0.2,
                max_samples: int = 200) -> float:
    """Median scaled seconds (calibration.py) of ``fn()`` over repeated calls."""
    samples: list[float] = []
    spent = 0.0
    while len(samples) < min_samples or (spent < min_seconds and len(samples) < max_samples):
        with SpeedStopwatch() as watch:
            fn()
        samples.append(watch.scaled)
        spent += watch.seconds
    return statistics.median(samples)


def replay_starts(config_path, half_width):
    """Per-start records and the deduplicated verified orbits of one solve."""
    from dhlattice.cli import load_config
    from dhlattice.functional import FunctionalContext
    from dhlattice.operators import assemble
    from dhlattice.solver import deduplicate_results, initial_guess, newton_solve

    config = load_config(str(config_path))
    coeffs = config.build_coefficients()
    opts = config.build_solve_options()
    ctx = FunctionalContext(assemble(config.build_window(half_width), coeffs),
                            config.build_nonlinearity())
    if any(s.kind == "linking" for s in opts.starts):
        ctx = ctx.with_decomposition()
    rng = np.random.default_rng(opts.seed)
    records, successes = [], []
    for strategy in opts.starts:
        start = perf_counter()
        x0 = initial_guess(strategy, ctx, strategy.amplitude, rng=rng)
        result = newton_solve(ctx, x0, opts, start_tag=strategy.tag)
        records.append({
            "start": strategy.tag,
            "status": result.status,
            "iterations": result.iterations,
            "regularizations": result.diagnostics["regularizations"],
            "fallback_steps": result.diagnostics["fallback_steps"],
            "final_grad_inf": result.grad_inf_norm,
            "seconds": perf_counter() - start,
        })
        if result.success:
            successes.append(result)
    return records, deduplicate_results(successes, coeffs.period)


def probe_metrics() -> tuple[dict, list[str]]:
    """Fixed layer probes: ({name: (value, unit)}, failed check messages)."""
    from dhlattice.core import BlockVector, PeriodicCoefficients, Window, shift
    from dhlattice.functional import FunctionalContext, Phi, grad_Phi
    from dhlattice.manufactured import manufactured_problem
    from dhlattice.nonlinearity import check_hypotheses, family_radial_rational
    from dhlattice.operators import assemble, floquet_symbol
    import dhlattice.solver as solver
    from dhlattice.solver import SolveOptions, StartStrategy, deduplicate_results, initial_guess
    from dhlattice.spectral import band_structure, eigendecompose
    from dhlattice.verify import (
        decay_fit,
        energy_identity_check,
        residual_DHS,
        verify_orbit,
        window_stability,
    )
    from workloads import random_r0_config

    metrics: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    coeffs = PeriodicCoefficients([[[0.0, -1.0], [-1.0, 0.0]]])
    nl = family_radial_rational(4.0)

    def bump(window: Window) -> BlockVector:
        profile = np.exp(-((window.nodes / 2.0) ** 2))
        return BlockVector(window, 1, np.outer(profile, np.ones(2) / np.sqrt(2.0)))

    for k in SIZES:
        window = Window.zero_pad((k - 1) // 2)
        op = assemble(window, coeffs)
        ctx = FunctionalContext(op, nl)
        x = bump(window)
        stored = op.matrix if op.storage == "dense" else op.bands
        metrics[f"operators.assemble_s.k{k}"] = (
            median_time(lambda: assemble(window, coeffs)), "s")
        metrics[f"operators.storage_bytes.k{k}"] = (float(stored.nbytes), "B")
        metrics[f"functional.grad_phi_s.k{k}"] = (median_time(lambda: grad_Phi(ctx, x)), "s")
        metrics[f"functional.phi_s.k{k}"] = (median_time(lambda: Phi(ctx, x)), "s")
        metrics[f"verify.residual_dhs_s.k{k}"] = (
            median_time(lambda: residual_DHS(coeffs, nl, x)), "s")
        metrics[f"verify.energy_identity_s.k{k}"] = (
            median_time(lambda: energy_identity_check(ctx, x)), "s")

    for k in EIGEN_SIZES:
        for label, window in (("zero_pad", Window.zero_pad((k - 1) // 2)),
                              ("periodic", Window.periodic(k))):
            op = assemble(window, coeffs)
            metrics[f"spectral.eigendecompose_s.{label}.k{k}"] = (
                median_time(lambda: eigendecompose(op), min_samples=3), "s")

    metrics["spectral.band_structure_s"] = (
        median_time(lambda: band_structure(coeffs, 1024)), "s")
    cfg = random_r0_config(0)
    coeffs_24 = PeriodicCoefficients(np.reshape(cfg["matrices"], (4, 4, 4)))
    metrics["operators.floquet_symbol_s.n1t1"] = (
        median_time(lambda: floquet_symbol(0.3, coeffs), min_samples=50), "s")
    metrics["operators.floquet_symbol_s.n2t4"] = (
        median_time(lambda: floquet_symbol(0.3, coeffs_24), min_samples=50), "s")
    metrics["nonlinearity.check_hypotheses_s"] = (
        median_time(lambda: check_hypotheses(nl, coeffs)), "s")

    start = StartStrategy("gaussian", 1.0, width=2.0)
    opts = SolveOptions(starts=(start,))
    for k in NEWTON_SIZES:
        window = Window.zero_pad((k - 1) // 2)
        op = assemble(window, coeffs)
        samples: dict[str, list[float]] = {}
        for _ in range(3):
            tracer = Tracer()
            with tracer.installed():
                ctx = FunctionalContext(op, tracer.wrap_nonlinearity(nl))
                x0 = initial_guess(start, ctx, start.amplitude)
                # through the module attribute, so the installed wrapper times it
                result = solver.newton_solve(ctx, x0, opts, run_verification=False)
            for name, value in (
                (f"solver.newton_solve_s.k{k}", tracer.inclusive["solver.newton_solve"]),
                (f"solver.linear_solve_s.k{k}",
                 tracer.inclusive["lapack.solve"] + tracer.inclusive["lapack.solve_banded"]),
                (f"functional.gradient_entries_s.k{k}",
                 tracer.inclusive["functional.gradient_entries"]),
                (f"nonlinearity.self_s.k{k}", tracer.self_time["nonlinearity"]),
            ):
                samples.setdefault(name, []).append(value)
        for name, values in samples.items():
            metrics[name] = (statistics.median(values), "s")
        if result.status != "converged":
            failures.append(f"newton probe on {k} nodes ended {result.status}")
        ctx = FunctionalContext(op, nl)
        metrics[f"solver.linking_setup_s.k{k}"] = (
            median_time(lambda: initial_guess("linking", FunctionalContext(op, nl), 1.0),
                        min_samples=3), "s")
        copies = [result, solver.newton_solve(ctx, shift(result.orbit, 3), opts,
                                       run_verification=False)]
        metrics[f"solver.dedup_s.k{k}"] = (
            median_time(lambda: deduplicate_results(copies, 1), min_samples=3), "s")
        if k == NEWTON_SIZES[0]:
            orbit = result.orbit

            def ctx_builder(w: Window) -> FunctionalContext:
                return FunctionalContext(assemble(w, coeffs), nl)

            verify_opts = SolveOptions(starts=())
            metrics["verify.decay_fit_s"] = (median_time(lambda: decay_fit(orbit)), "s")
            metrics["verify.window_stability_s"] = (
                median_time(lambda: window_stability(ctx_builder, orbit, verify_opts)), "s")
            report = verify_orbit(ctx, orbit, ctx_builder=ctx_builder, solve_opts=verify_opts)
            if not report.passed:
                failures.append(f"verify_orbit rejected the {k}-node probe orbit")
            metrics["verify.verify_orbit_s"] = (
                median_time(lambda: verify_orbit(ctx, orbit, ctx_builder=ctx_builder,
                                                 solve_opts=verify_opts)), "s")

    mp = manufactured_problem(64)
    report = verify_orbit(mp.ctx, mp.orbit, ctx_builder=mp.ctx_builder,
                          solve_opts=SolveOptions())
    if not (report.passed and report.dhs_residual_inf <= 1e-12):
        failures.append(
            f"manufactured_problem(64): passed={report.passed}, "
            f"residual {report.dhs_residual_inf:.3e}"
        )
    metrics["manufactured.verify_s"] = (
        median_time(lambda: verify_orbit(mp.ctx, mp.orbit, ctx_builder=mp.ctx_builder,
                                         solve_opts=SolveOptions())), "s")
    return metrics, failures
