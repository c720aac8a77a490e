"""dhlattice benchmark: CLI workloads end to end, and a traced per-layer run.

Run from the root of a dhlattice checkout:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Workloads are ``bundled``, ``wide`` and ``spectral`` (see workloads.py and
README.md).  With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics.  Human-readable tables and
the environment go to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The traced run also writes
its spans and per-start solver records to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The package is imported from ``src/`` of the checkout; nothing is installed.
BLAS runs single-threaded (set below, before numpy is imported), so the
figures do not depend on a second core being free.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# numpy reads the thread count when first imported, so these come after it.
import layers  # noqa: E402
import workloads  # noqa: E402
from calibration import SpeedStopwatch, Stopwatch  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
MAIN_SHARE = 0.7  # of --seconds spent on main passes; the rest on follow-up rounds
MIN_ROUNDS = 5
# A cold start, timed inside the child by the same stopwatch as the commands
# from the point numpy, which the stopwatch needs, is imported.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from calibration import SpeedStopwatch
with SpeedStopwatch() as watch:
    import scipy.linalg as la, dhlattice.cli
    import numpy as np
    m = np.diag(np.arange(1.0, 9.0))
    la.eigh(m); la.solve(m, np.ones(8)); la.solve_banded((0, 0), np.ones((1, 8)), np.ones(8))
print(watch.seconds, watch.scaled)
"""
LAYERS = ("cli", "operators", "spectral", "lapack", "nonlinearity", "functional", "solver",
          "verify")


class Tally:
    """Commands attempted and failed; failures are reported on stderr."""

    def __init__(self, cli_main, stopwatch) -> None:
        self.cli_main = cli_main
        self.stopwatch = stopwatch  # calibration.Stopwatch or SpeedStopwatch
        self.attempted = 0
        self.failed = 0
        self.failed_labels: set[str] = set()

    def run(self, commands):
        outcomes = []
        for cmd in commands:
            outcome = workloads.run_command(self.cli_main, cmd, self.stopwatch())
            self.attempted += 1
            if outcome.error is not None:
                self.fail(outcome.label, outcome.error)
            outcomes.append(outcome)
        return outcomes

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.failed_labels.add(label)
        print(f"perfbench: FAILED {label}: {message}", file=sys.stderr)


def certified(main_cmds, outcomes, tally: Tally) -> int:
    """Results of the last main pass that passed their check and every follow-up."""
    total = 0
    for cmd, outcome in zip(main_cmds, outcomes):
        if outcome.error is None:
            name = cmd.label.split(":", 1)[1]
            total += cmd.certifies - sum(
                1 for lab in tally.failed_labels if lab.startswith(f"verify:{name}:"))
    return total


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure_setup(env: dict, tally: Tally) -> tuple[list[float], list[float]]:
    """Cold starts in fresh interpreters: import plus first LAPACK calls.

    Returns wall times and scaled times; interpreter start, numpy import and
    exit, which the child cannot sample, count unscaled.
    """
    wall, scaled = [], []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall.append(perf_counter() - start)
        tally.attempted += 1
        if proc.returncode != 0:
            tally.fail("setup", proc.stderr.strip()[-500:])
            scaled.append(wall[-1])
            continue
        inside, inside_scaled = (float(v) for v in proc.stdout.split())
        scaled.append(wall[-1] - inside + inside_scaled)
    return wall, scaled


def end_to_end(workload: str, seed: int, seconds: int, run_dir: Path) -> tuple[dict, Tally]:
    import dhlattice.cli

    tally = Tally(dhlattice.cli.main, SpeedStopwatch)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    setup_wall, setup = measure_setup(env, tally)

    main_cmds, followup_cmds = workloads.build(workload, seed, run_dir)
    tally.run(main_cmds)  # warm-up: imports, caches, first LAPACK call at each size
    tally.run(followup_cmds)

    start = perf_counter()
    main_wall, main_samples = [], []
    while True:
        last_main = tally.run(main_cmds)
        main_wall.append(sum(o.seconds for o in last_main))
        main_samples.append(sum(o.scaled for o in last_main))
        if perf_counter() - start >= MAIN_SHARE * seconds:
            break
    followup_start = perf_counter()
    followup_wall, followup_samples = [], []
    while (len(followup_samples) < MIN_ROUNDS
           or perf_counter() - followup_start < (1.0 - MAIN_SHARE) * seconds):
        round_outcomes = tally.run(followup_cmds)
        followup_wall.append(sum(o.seconds for o in round_outcomes) / len(round_outcomes))
        followup_samples.append(sum(o.scaled for o in round_outcomes) / len(round_outcomes))

    count = certified(main_cmds, last_main, tally)
    main_s = statistics.median(main_samples)
    print(f"  {'metric':<16} {'median':>12} {'unit':<5} {'n':<6} {'q1':>10} {'q3':>10} "
          f"{'wall median':>12}")
    for name, values, wall in (("main_s", main_samples, main_wall),
                               ("followup_s", followup_samples, followup_wall),
                               ("setup_s", setup, setup_wall)):
        q1, med, q3 = quartiles(values)
        print(f"  {name:<16} {med:12.6f} {'s':<5} {len(values):<6} {q1:10.6f} {q3:10.6f} "
              f"{statistics.median(wall):12.6f}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "main_s": (main_s, "s"),
        "followup_s": (statistics.median(followup_samples), "s"),
        "certified": (float(count), "count"),
        # a run that certifies nothing has failed commands; divide by 1 to keep JSON finite
        "s_per_certified": (main_s / max(count, 1), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    for name in ("certified", "s_per_certified", "peak_rss_mb"):
        value, unit = metrics[name]
        print(f"  {name:<16} {value:12.6f} {unit:<5} 1")
    print(f"  commands: {tally.attempted} attempted, {tally.failed} failed, "
          f"failed_share={tally.failed / tally.attempted:.4f}")
    return metrics, tally


def traced(workload: str, seed: int, run_dir: Path) -> tuple[dict, Tally, dict]:
    import dhlattice.cli

    cli_main = dhlattice.cli.main
    tally = Tally(cli_main, Stopwatch)
    main_cmds, followup_cmds = workloads.build(workload, seed, run_dir)
    tally.run(main_cmds)  # warm-up
    tally.run(followup_cmds)
    untraced_s = sum(o.seconds for o in tally.run(main_cmds))

    tracer = Tracer()

    def traced_main(argv):
        with tracer.span(f"cli.{argv[0]}"):
            return cli_main(argv)

    tally.cli_main = traced_main
    with tracer.installed():
        last_main = tally.run(main_cmds)
        tally.run(followup_cmds)
    tally.cli_main = cli_main
    traced_s = sum(o.seconds for o in last_main)

    metrics: dict[str, tuple[float, str]] = {}
    traced_total = sum(v for k, v in tracer.inclusive.items() if k.startswith("cli."))
    metrics["cli.self_s"] = (tracer.self_time["cli"], "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (100.0 * tracer.self_time[layer] / traced_total, "%")
    calls = tracer.calls
    iterations = tracer.counters["solver.newton_iterations"]
    metrics.update({
        "nonlinearity.gradient_calls": (calls["nonlinearity.gradient"], "count"),
        "nonlinearity.hessian_calls": (calls["nonlinearity.hessian"], "count"),
        "nonlinearity.value_calls": (calls["nonlinearity.value"], "count"),
        "functional.gradient_entries_calls": (calls["functional.gradient_entries"], "count"),
        "solver.newton_solves": (tracer.counters["solver.newton_solves"], "count"),
        "solver.newton_iterations": (iterations, "count"),
        "solver.linear_solves": (calls["lapack.solve"] + calls["lapack.solve_banded"], "count"),
        "solver.regularizations": (tracer.counters["solver.regularizations"], "count"),
        "solver.fallback_steps": (tracer.counters["solver.fallback_steps"], "count"),
        "solver.gradient_evals_per_iter": (
            calls["functional.gradient_entries"] / iterations if iterations else 0.0, "1/iter"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    })

    payloads = {o.label: o.payload for o in last_main}
    starts: dict[str, list[dict]] = {}
    for label, config, half_width in workloads.solve_entries(workload):
        records, kept = layers.replay_starts(config, half_width)
        starts[label] = records
        tally.attempted += 1
        got = [(r.start_used, r.phi_value) for r in kept]
        want = [(r["start_used"], r["phi"])
                for r in (payloads[f"solve:{label}"] or {}).get("results", [])]
        if len(got) != len(want) or any(
            a[0] != b[0] or not abs(a[1] - b[1]) <= workloads.PHI_TOL
            for a, b in zip(got, want)
        ):
            tally.fail(f"replay:{label}", f"replayed orbits {got} differ from CLI {want}")
    records = [r for rs in starts.values() for r in rs]
    wasted = sum(r["seconds"] for r in records if r["status"] != "verified")
    spent = sum(r["seconds"] for r in records)
    metrics["solver.starts_tried"] = (len(records), "count")
    metrics["solver.start_success_ratio"] = (
        sum(r["status"] == "verified" for r in records) / len(records) if records else 0.0,
        "ratio")
    metrics["solver.wasted_pct"] = (100.0 * wasted / spent if spent else 0.0, "%")

    probe, failures = layers.probe_metrics()
    tally.attempted += 1
    for message in failures:
        tally.fail("probe", message)
    metrics.update(probe)

    for label, rs in starts.items():
        print(f"  per-start replay of {label}:")
        for r in rs:
            print(f"    {r['start']:<24} {r['status']:<15} it={r['iterations']:<4} "
                  f"reg={r['regularizations']:<3} fallback={r['fallback_steps']:<3} "
                  f"|F|_inf={r['final_grad_inf']:.3e} {r['seconds']:.3f}s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6g} {unit}")
    trace = {"untraced_main_s": untraced_s, "traced_main_s": traced_s,
             "starts": starts, **tracer.to_dict()}
    return metrics, tally, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dhlattice" / "cli.py").is_file():
        print(f"perfbench: no dhlattice sources under {SRC}; run from the root of a "
              "dhlattice checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dhlattice

    if Path(dhlattice.__file__).resolve().parent != SRC / "dhlattice":
        print(f"perfbench: imported dhlattice from {dhlattice.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    try:
        if args.trace:
            metrics, tally, trace = traced(args.workload, args.seed, run_dir)
            trace["environment"] = env
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(trace), encoding="utf-8")
            print(f"trace written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, tally = end_to_end(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
