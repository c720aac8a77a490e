"""Command-line surface: JSON problem configs in, JSON reports and CSV files out.

Subcommands
-----------
check     run the hypothesis checker on a config
spectrum  write the Bloch band CSV and a spectral summary (alias: bands)
solve     run the multi-start orbit search, write orbit CSVs and metadata
verify    re-check an orbit CSV against a config

Every command prints a JSON report to stdout; CSV files go to --out.  Exit
codes: 0 success, 1 check or verification failure, 2 malformed configuration,
3 no orbit found.

The configuration is a JSON object with explicit dimensions; matrices are
row-major.  A minimal example:

    {
      "block_dim": 1,
      "period": 1,
      "matrices": [[0.0, -1.0, -1.0, 0.0]],
      "nonlinearity": {"family": "radial_rational", "nu": 4.0},
      "window": {"half_width": 64, "boundary": "zero_pad"},
      "solver": {"seed": 0}
    }

``matrices`` lists the coefficient matrices S(n) of the Hamiltonian density
(1/2) S(n) z . z + R(n, z); the assembled operator applies their negation, so
check the sign convention of externally sourced data.  Reports contain no
timestamps or absolute paths: with a fixed seed, repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    BlockVector,
    Boundary,
    ConfigurationError,
    HypothesisViolationError,
    PeriodicCoefficients,
    Window,
)
from .functional import FunctionalContext
from .nonlinearity import FAMILIES, Nonlinearity, SamplingPlan, check_hypotheses
from .operators import assemble
from .spectral import band_structure, symbol_eigenvalues
from .solver import SolveOptions, StartStrategy, default_starts, multi_start
from .verify import VerifyThresholds, verify_orbit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NO_ORBIT = 3

FLOAT_FORMAT = "%.17g"


class ConfigError(ValueError):
    """Malformed configuration file or orbit file (exit code 2)."""


def builtin_config_path(name: str) -> Path:
    """Filesystem path of a bundled example config (model, period2, n2)."""
    candidate = resources.files("dhlattice").joinpath("configs", f"{name}.json")
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise KeyError(f"no bundled config named {name!r}")
        return Path(path)


_DEFAULT_NONLINEARITY = {"family": "radial_rational", "nu": 4.0}
_DEFAULT_WINDOW = {"half_width": 64, "boundary": "zero_pad"}


class ProblemConfig:
    """Validated mirror of the JSON configuration."""

    def __init__(
        self,
        block_dim: int,
        period: int,
        matrices: list[list[float]],
        nonlinearity: Optional[dict] = None,
        window: Optional[dict] = None,
        solver: Optional[dict] = None,
    ) -> None:
        self.block_dim = int(block_dim)
        self.period = int(period)
        self.matrices = [[float(v) for v in row] for row in matrices]
        self.nonlinearity = dict(nonlinearity) if nonlinearity else dict(_DEFAULT_NONLINEARITY)
        self.window = dict(window) if window else dict(_DEFAULT_WINDOW)
        self.solver = dict(solver) if solver else {}
        self.validate_shapes()

    def __eq__(self, other) -> bool:
        return isinstance(other, ProblemConfig) and self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        known = {"block_dim", "period", "matrices", "nonlinearity", "window", "solver"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
        for req in ("block_dim", "period", "matrices"):
            if req not in raw:
                raise ConfigError(f"missing required field {req!r}")
        try:
            return cls(
                block_dim=raw["block_dim"],
                period=raw["period"],
                matrices=raw["matrices"],
                nonlinearity=raw.get("nonlinearity"),
                window=raw.get("window"),
                solver=raw.get("solver"),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed configuration: {exc}") from exc

    def validate_shapes(self) -> None:
        if self.block_dim < 1:
            raise ConfigError(f"block_dim must be positive, got {self.block_dim}")
        if self.period < 1:
            raise ConfigError(f"period must be positive, got {self.period}")
        if len(self.matrices) != self.period:
            raise ConfigError(
                f"matrices holds {len(self.matrices)} rows but period is {self.period}"
            )
        width = (2 * self.block_dim) ** 2
        for n, row in enumerate(self.matrices):
            if len(row) != width:
                raise ConfigError(
                    f"matrices[{n}] has {len(row)} entries, expected {width} "
                    f"(row-major {2 * self.block_dim}x{2 * self.block_dim})"
                )
        family = self.nonlinearity.get("family")
        if family not in FAMILIES:
            raise ConfigError(
                f"nonlinearity.family must be one of {sorted(FAMILIES)}, got {family!r}"
            )
        boundary = self.window.get("boundary", "zero_pad")
        if boundary not in (b.value for b in Boundary):
            raise ConfigError(f"window.boundary must be zero_pad or periodic, got {boundary!r}")

    def to_dict(self) -> dict:
        return {
            "block_dim": self.block_dim,
            "period": self.period,
            "matrices": self.matrices,
            "nonlinearity": self.nonlinearity,
            "window": self.window,
            "solver": self.solver,
        }

    # --- domain object builders -------------------------------------------

    def coefficient_arrays(self) -> np.ndarray:
        n2 = 2 * self.block_dim
        return np.array(self.matrices, dtype=float).reshape(self.period, n2, n2)

    def build_coefficients(self) -> PeriodicCoefficients:
        try:
            return PeriodicCoefficients(self.coefficient_arrays())
        except ConfigurationError as exc:  # symmetry/shape trouble -> config error
            raise ConfigError(str(exc)) from exc

    def build_window(self, half_width: Optional[int] = None) -> Window:
        """The zero-pad window that solve and verify run on."""
        if self.window.get("boundary", "zero_pad") != Boundary.ZERO_PAD.value:
            raise ConfigError(
                "solve and verify need window.boundary zero_pad; periodic windows "
                "serve the spectrum command's crosscheck only"
            )
        half = int(half_width if half_width is not None else self.window.get("half_width", 64))
        num_nodes = self.window.get("num_nodes")
        try:
            return Window(half, Boundary.ZERO_PAD, int(num_nodes) if num_nodes else None)
        except ConfigurationError as exc:
            raise ConfigError(str(exc)) from exc

    def build_nonlinearity(self) -> Nonlinearity:
        params = dict(self.nonlinearity)
        family = params.pop("family")
        try:
            return FAMILIES[family](block_dim=self.block_dim, **params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"nonlinearity parameters invalid: {exc}") from exc

    def build_solve_options(self, seed: Optional[int] = None) -> SolveOptions:
        raw = dict(self.solver)
        starts_raw = raw.pop("starts", None)
        if seed is not None:
            raw["seed"] = seed
        allowed = {"max_iter", "grad_tol", "trivial_tol", "seed"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
        if starts_raw is not None and not (
            isinstance(starts_raw, list)
            and starts_raw
            and all(isinstance(s, dict) for s in starts_raw)
        ):
            raise ConfigError("solver.starts must be a non-empty list of objects")
        try:
            if starts_raw is None:
                starts = default_starts()
            else:
                starts = tuple(
                    StartStrategy(
                        kind=s.get("kind"),
                        amplitude=float(s.get("amplitude", 1.0)),
                        width=float(s["width"]) if s.get("width") is not None else None,
                    )
                    for s in starts_raw
                )
            return SolveOptions(starts=starts, **raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"solver options invalid: {exc}") from exc


def load_config(path: str) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ProblemConfig.from_dict(raw)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _write_orbit_csv(path: Path, orbit: BlockVector) -> None:
    n_blk = orbit.block_dim
    header = (
        ["n"]
        + [f"x1_{i + 1}" for i in range(n_blk)]
        + [f"x2_{i + 1}" for i in range(n_blk)]
    )
    lines = [",".join(header)]
    for node, row in zip(orbit.window.nodes, orbit.entries):
        lines.append(",".join([str(int(node))] + [FLOAT_FORMAT % v for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_orbit_csv(path: str, window: Window, block_dim: int) -> BlockVector:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read orbit file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"orbit file {path} is empty")
    header = lines[0].split(",")
    expected_cols = 1 + 2 * block_dim
    if len(header) != expected_cols:
        raise ConfigError(
            f"orbit file has {len(header)} columns, expected {expected_cols} "
            f"for block dimension {block_dim}"
        )
    rows = lines[1:]
    if len(rows) != window.num_nodes:
        raise ConfigError(
            f"orbit file has {len(rows)} nodes, window expects {window.num_nodes}"
        )
    entries = np.empty((window.num_nodes, 2 * block_dim))
    for i, (node, line) in enumerate(zip(window.nodes, rows)):
        parts = line.split(",")
        if len(parts) != expected_cols:
            raise ConfigError(f"orbit file row {i + 2} has {len(parts)} columns")
        if int(parts[0]) != int(node):
            raise ConfigError(
                f"orbit file row {i + 2} is node {parts[0]}, window expects {int(node)}"
            )
        entries[i] = [float(v) for v in parts[1:]]
    return BlockVector(window, block_dim, entries)


def _hypothesis_failure_payload(exc: HypothesisViolationError) -> dict:
    return {
        "checks": {"R0": {"status": "fail", "detail": str(exc)}},
        "all_pass": False,
        "failed": ["R0"],
        "note": "coefficient validation failed before sampling",
    }


def cmd_check(config: ProblemConfig, seed: Optional[int] = None) -> int:
    """Run the hypothesis checker; exit 0 iff no check fails."""
    try:
        coeffs = config.build_coefficients()
    except HypothesisViolationError as exc:
        _emit(_hypothesis_failure_payload(exc))
        return EXIT_CHECK_FAILED
    nl = config.build_nonlinearity()
    plan = SamplingPlan.default(seed=seed if seed is not None else 0)
    report = check_hypotheses(nl, coeffs, plan)
    _emit(report.to_dict())
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_spectrum(config: ProblemConfig, grid: int, out_dir: Path,
                 half_width: Optional[int] = None) -> int:
    """Write the band CSV plus a summary with the spectral inclusion status."""
    if grid < 2:
        raise ConfigError(f"--grid must be at least 2, got {grid}")
    try:
        coeffs = config.build_coefficients()
    except HypothesisViolationError as exc:
        _emit(_hypothesis_failure_payload(exc))
        return EXIT_CHECK_FAILED
    bands = band_structure(coeffs, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    band_path = out_dir / "bands.csv"
    n_bands = bands.bands.shape[1]
    lines = [",".join(["theta"] + [f"band_{i + 1}" for i in range(n_bands)])]
    for theta, row in zip(bands.thetas, bands.bands):
        lines.append(",".join([FLOAT_FORMAT % theta] + [FLOAT_FORMAT % v for v in row]))
    band_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    tol = 1e-9
    abs_bands = np.abs(bands.bands)
    inclusion = bool(
        (abs_bands >= coeffs.lambda0 - tol).all()
        and (abs_bands <= coeffs.Lambda0 + 2.0 + tol).all()
    )

    half = int(half_width if half_width is not None else config.window.get("half_width", 64))
    cells = max(1, (2 * half + 1) // coeffs.period)
    window = Window.periodic_cells(coeffs.period, cells)
    window_eigs = np.linalg.eigvalsh(assemble(window, coeffs).matrix)
    thetas = 2.0 * np.pi * np.arange(cells) / cells
    sym_union = np.sort(symbol_eigenvalues(thetas, coeffs), axis=None)
    crosscheck = {
        "num_nodes": window.num_nodes,
        "momenta": cells,
        "max_mismatch": float(np.abs(window_eigs - sym_union).max()),
        "eigenvalue_min": float(window_eigs[0]),
        "eigenvalue_max": float(window_eigs[-1]),
    }

    summary = {
        "lambda0": coeffs.lambda0,
        "Lambda0": coeffs.Lambda0,
        "grid_size": grid,
        "band_file": band_path.name,
        "band_extrema": bands.extrema(),
        "inclusion_bounds": [
            [-coeffs.Lambda0 - 2.0, -coeffs.lambda0],
            [coeffs.lambda0, coeffs.Lambda0 + 2.0],
        ],
        "inclusion_pass": inclusion,
        "periodic_crosscheck": crosscheck,
    }
    _emit(summary)
    return EXIT_OK if inclusion else EXIT_CHECK_FAILED


def cmd_solve(
    config: ProblemConfig,
    out_dir: Path,
    seed: Optional[int] = None,
    skip_check: bool = False,
    half_width: Optional[int] = None,
) -> int:
    """Multi-start orbit search; exit 0 iff at least one verified orbit is found."""
    try:
        coeffs = config.build_coefficients()
    except HypothesisViolationError as exc:
        _emit(_hypothesis_failure_payload(exc))
        return EXIT_CHECK_FAILED
    nl = config.build_nonlinearity()
    window = config.build_window(half_width)
    opts = config.build_solve_options(seed)
    check_summary = None
    if not skip_check:
        report = check_hypotheses(nl, coeffs, SamplingPlan.default())
        check_summary = {"all_pass": report.all_pass, "failed": report.failed}
        if not report.all_pass:
            _emit(
                {
                    "results": [],
                    "check": check_summary,
                    "error": "hypothesis check failed; rerun with --skip-check to force",
                }
            )
            return EXIT_CHECK_FAILED
    ctx = FunctionalContext(assemble(window, coeffs), nl)
    results = multi_start(ctx, opts)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload_results = []
    for i, res in enumerate(results):
        csv_name = f"orbit_{i:02d}.csv"
        _write_orbit_csv(out_dir / csv_name, res.orbit)
        entry = res.to_dict()
        entry["orbit_csv"] = csv_name
        payload_results.append(entry)
    payload = {
        "results": payload_results,
        "check": check_summary,
        "skip_check": skip_check,
        "seed": opts.seed,
        "window": {
            "half_width": window.half_width,
            "boundary": window.boundary.value,
            "num_nodes": window.num_nodes,
        },
    }
    _emit(payload)
    return EXIT_OK if results else EXIT_NO_ORBIT


def cmd_verify(
    config: ProblemConfig, orbit_path: str, half_width: Optional[int] = None
) -> int:
    """Re-run all orbit checks on a CSV orbit; exit 0 iff every check passes."""
    try:
        coeffs = config.build_coefficients()
    except HypothesisViolationError as exc:
        _emit(_hypothesis_failure_payload(exc))
        return EXIT_CHECK_FAILED
    nl = config.build_nonlinearity()
    window = config.build_window(half_width)
    orbit = _read_orbit_csv(orbit_path, window, config.block_dim)
    opts = config.build_solve_options()
    ctx = FunctionalContext(assemble(window, coeffs), nl)

    def ctx_builder(w: Window) -> FunctionalContext:
        return FunctionalContext(assemble(w, coeffs), nl)

    thresholds = VerifyThresholds(trivial_tol=opts.trivial_tol)
    report = verify_orbit(
        ctx,
        orbit,
        thresholds,
        ctx_builder=ctx_builder,
        solve_opts=replace(opts, starts=()),
    )
    payload = report.to_dict()
    payload["orbit_file"] = Path(orbit_path).name
    _emit(payload)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhlattice",
        description="Spectral analysis, hypothesis checking, and homoclinic-orbit "
        "computation for first-order discrete Hamiltonian lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON problem config")
        p.add_argument("--out", default="out", help="directory for CSV outputs")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument(
            "--window", type=int, default=None, metavar="M",
            help="override the window half-width",
        )

    p_check = sub.add_parser("check", help="run the hypothesis checker")
    add_common(p_check)

    for name in ("spectrum", "bands"):
        p_spec = sub.add_parser(name, help="band structure CSV and spectral summary")
        add_common(p_spec)
        p_spec.add_argument("--grid", type=int, default=256, help="quasimomentum grid size")

    p_solve = sub.add_parser("solve", help="multi-start homoclinic orbit search")
    add_common(p_solve)
    p_solve.add_argument(
        "--skip-check", action="store_true",
        help="skip the hypothesis pre-check (recorded in the output)",
    )

    p_verify = sub.add_parser("verify", help="verify an orbit CSV against a config")
    add_common(p_verify)
    p_verify.add_argument("orbit", help="orbit CSV file produced by solve")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "check":
            return cmd_check(config, seed=args.seed)
        if args.command in ("spectrum", "bands"):
            return cmd_spectrum(config, args.grid, Path(args.out), half_width=args.window)
        if args.command == "solve":
            return cmd_solve(
                config,
                Path(args.out),
                seed=args.seed,
                skip_check=args.skip_check,
                half_width=args.window,
            )
        if args.command == "verify":
            return cmd_verify(config, args.orbit, half_width=args.window)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(json.dumps({"error": str(exc)}, indent=2, sort_keys=True))
        return EXIT_CONFIG_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
