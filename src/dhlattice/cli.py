"""Command-line surface: JSON problem configs in, JSON reports and CSV files out.

Subcommands, each with the only arguments it accepts
----------------------------------------------------
check     --config [--seed]: run the hypothesis checker on a config
spectrum  --config [--out --window --grid]: write the Bloch band CSV and a summary
solve     --config [--out --seed --window --skip-check]: multi-start orbit search
verify    --config [--window] ORBIT: re-check an orbit CSV against a config

Every command prints one JSON object to stdout, with any NaN or infinity
written as null so strict parsers accept it; CSV files go to --out.  Exit
codes: 0 success, 1 check or verification failure, 2 malformed input, 3 no
orbit found.

``load_config`` builds a config's window, nonlinearity and solve options, so
all commands give a config the same verdict.  A bad field, flag or
orbit-file value raises ``ConfigurationError``, which ``main`` reports as
``{"error": ...}`` with exit 2, as it does a ``MemoryError`` from a window or
grid too large to allocate.  Integer fields take JSON integers only, number
fields JSON numbers only (not booleans or strings), a section a JSON object
only (not null), orbit files finite numbers under the header
``n,x1_1..x1_N,x2_1..x2_N`` only.
Coefficients that fail the hypothesis (R0) exit 1.

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

``window.boundary`` must be ``zero_pad``.  ``matrices`` lists the coefficient
matrices S(n) of the Hamiltonian density (1/2) S(n) z . z + R(n, z); the
assembled operator applies their negation, so check the sign convention of
externally sourced data.  Reports contain no timestamps or absolute paths: with
a fixed seed, repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    json_text,
    require_int,
    require_real,
)
from .functional import FunctionalContext
from .nonlinearity import FAMILIES, Nonlinearity, SamplingPlan, check_hypotheses
from .operators import assemble
from .spectral import band_structure, periodic_crosscheck
from .solver import SolveOptions, StartStrategy, default_starts, multi_start, verify_candidate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NO_ORBIT = 3

FLOAT_FORMAT = "%.17g"


def builtin_config_path(name: str) -> Path:
    """Filesystem path of a bundled example config (model, period2, n2)."""
    candidate = resources.files("dhlattice").joinpath("configs", f"{name}.json")
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise KeyError(f"no bundled config named {name!r}")
        return Path(path)


# sections a config leaves out; each is copied before it is read, never changed
_DEFAULT_NONLINEARITY = {"family": "radial_rational", "nu": 4.0}
_DEFAULT_WINDOW = {"half_width": 64, "boundary": "zero_pad"}
_DEFAULT_SOLVER: dict = {}
_WINDOW_FIELDS = {"half_width", "boundary"}
_SOLVER_FIELDS = {"max_iter", "seed", "starts"}
_START_FIELDS = {"kind", "amplitude", "width"}


def _section(name: str, value) -> dict:
    """A copy of a config sub-object; a given section, even an empty one, is
    validated as it stands, and null is not a section."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {json_text(value)}")
    return dict(value)


def _nonlinearity(block_dim: int, params: dict) -> Nonlinearity:
    """The nonlinearity that a ``nonlinearity`` section names (consumes ``params``)."""
    got = f"got {json_text(params['family'])}" if "family" in params else "it is missing"
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigurationError(
            f"nonlinearity.family must be one of {json_text(sorted(FAMILIES))}, {got}"
        )
    try:
        return FAMILIES[family](block_dim=block_dim, **params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"nonlinearity parameters invalid: {exc}") from exc


def _solve_options(raw: dict) -> SolveOptions:
    """The solve options that a ``solver`` section sets (consumes ``raw``)."""
    unknown = set(raw) - _SOLVER_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown solver fields: {sorted(unknown)}")
    starts_raw = raw.pop("starts", None)
    if starts_raw is not None and not (
        isinstance(starts_raw, list)
        and starts_raw
        and all(isinstance(s, dict) for s in starts_raw)
    ):
        raise ConfigurationError("solver.starts must be a non-empty list of objects")
    for i, s in enumerate(starts_raw or ()):
        unknown = set(s) - _START_FIELDS
        if unknown:
            raise ConfigurationError(f"unknown solver.starts[{i}] fields: {sorted(unknown)}")
        if "width" in s and s["width"] is None:  # StartStrategy reads None as absent
            raise ConfigurationError(f"solver.starts[{i}].width must be a number, got null")
    try:
        if starts_raw is None:
            starts = default_starts()
        else:
            starts = tuple(
                StartStrategy(s.get("kind"), s.get("amplitude", 1.0), s.get("width"))
                for s in starts_raw
            )
        return SolveOptions(starts=starts, **raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"solver options invalid: {exc}") from exc


class ProblemConfig:
    """Validated mirror of the JSON configuration: every section but the
    coefficients, whose (R0) test is a check result, is built here, once."""

    def __init__(
        self,
        block_dim: int,
        period: int,
        matrices: list[list[float]],
        nonlinearity: dict = _DEFAULT_NONLINEARITY,
        window: dict = _DEFAULT_WINDOW,
        solver: dict = _DEFAULT_SOLVER,
    ) -> None:
        self.block_dim = require_int("block_dim", block_dim, 1)
        self.period = require_int("period", period, 1)
        if not (isinstance(matrices, list) and all(isinstance(row, list) for row in matrices)):
            raise ConfigurationError("matrices must be a list of rows of numbers")
        self.matrices = [
            [require_real(f"matrices[{n}] entry", v) for v in row]
            for n, row in enumerate(matrices)
        ]
        if len(self.matrices) != self.period:
            raise ConfigurationError(
                f"matrices holds {len(self.matrices)} rows but period is {self.period}"
            )
        width = (2 * self.block_dim) ** 2
        for n, row in enumerate(self.matrices):
            if len(row) != width:
                raise ConfigurationError(
                    f"matrices[{n}] has {len(row)} entries, expected {width} "
                    f"(row-major {2 * self.block_dim}x{2 * self.block_dim})"
                )
        window = _section("window", window)
        unknown = set(window) - _WINDOW_FIELDS
        if unknown:
            raise ConfigurationError(f"unknown window fields: {sorted(unknown)}")
        if window.get("boundary", Boundary.ZERO_PAD) != Boundary.ZERO_PAD:
            raise ConfigurationError(
                f'window.boundary must be "zero_pad", got {json_text(window["boundary"])}'
            )
        self._window = Window.zero_pad(window.get("half_width", _DEFAULT_WINDOW["half_width"]))
        self._nonlinearity = _nonlinearity(self.block_dim, _section("nonlinearity", nonlinearity))
        self._solve_options = _solve_options(_section("solver", solver))

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("configuration root must be a JSON object")
        known = {"block_dim", "period", "matrices", "nonlinearity", "window", "solver"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown configuration fields: {sorted(unknown)}")
        for req in ("block_dim", "period", "matrices"):
            if req not in raw:
                raise ConfigurationError(f"missing required field {req!r}")
        return cls(**raw)

    # --- domain objects ---------------------------------------------------

    def build_coefficients(self) -> PeriodicCoefficients:
        """S(0..T-1); raises HypothesisViolationError when they fail (R0)."""
        n2 = 2 * self.block_dim
        return PeriodicCoefficients(np.reshape(self.matrices, (self.period, n2, n2)))

    def build_window(self, half_width: Optional[int] = None) -> Window:
        """The zero-pad window, at ``half_width`` (the --window flag) when given."""
        if half_width is None:
            return self._window
        return Window.zero_pad(half_width)

    def build_nonlinearity(self) -> Nonlinearity:
        return self._nonlinearity

    def build_solve_options(self, seed: Optional[int] = None) -> SolveOptions:
        """The solve options, with ``seed`` (the --seed flag) when given."""
        if seed is None:
            return self._solve_options
        return replace(self._solve_options, seed=seed)


def load_config(path: str) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return ProblemConfig.from_dict(raw)


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    """Print strict JSON: a NaN or infinity is written as null."""
    print(json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False))


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: {exc}") from exc
    return out


def _write_lines(path: Path, lines: list[str]) -> None:
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _orbit_header(block_dim: int) -> str:
    """The orbit CSV header: n, x1_1..x1_N, x2_1..x2_N."""
    return ",".join(["n"] + [f"x{h}_{i + 1}" for h in (1, 2) for i in range(block_dim)])


def _csv_rows(first_format: str, table: np.ndarray) -> list[str]:
    """One CSV line per row of ``table``: the first column in ``first_format``,
    the rest in FLOAT_FORMAT, each line written by one format operation."""
    row_format = ",".join([first_format] + [FLOAT_FORMAT] * (table.shape[1] - 1))
    return [row_format % tuple(row) for row in table.tolist()]


def _write_orbit_csv(path: Path, orbit: BlockVector) -> None:
    table = np.column_stack([orbit.window.nodes, orbit.entries])
    _write_lines(path, [_orbit_header(orbit.block_dim)] + _csv_rows("%d", table))


def _read_orbit_csv(path: str, window: Window, block_dim: int) -> BlockVector:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8
        raise ConfigurationError(f"cannot read orbit file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigurationError(f"orbit file {path} is empty")
    header = _orbit_header(block_dim)
    if lines[0] != header:
        raise ConfigurationError(
            f"orbit file header is {lines[0]!r}, expected {header!r} "
            f"for block dimension {block_dim}"
        )
    expected_cols = 1 + 2 * block_dim
    rows = lines[1:]
    if len(rows) != window.num_nodes:
        raise ConfigurationError(
            f"orbit file has {len(rows)} nodes, window expects {window.num_nodes}"
        )
    entries = np.empty((window.num_nodes, 2 * block_dim))
    for i, (node, line) in enumerate(zip(window.nodes, rows)):
        parts = line.split(",")
        if len(parts) != expected_cols:
            raise ConfigurationError(f"orbit file row {i + 2} has {len(parts)} columns")
        try:
            label = int(parts[0])
            entries[i] = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ConfigurationError(f"orbit file row {i + 2}: {exc}") from exc
        if label != int(node):
            raise ConfigurationError(
                f"orbit file row {i + 2} is node {parts[0]}, window expects {int(node)}"
            )
    bad = np.argwhere(~np.isfinite(entries))
    if bad.size:
        raise ConfigurationError(f"orbit file row {bad[0, 0] + 2} holds a non-finite entry")
    return BlockVector(window, block_dim, entries)


def cmd_check(config: ProblemConfig, args: argparse.Namespace) -> int:
    """Run the hypothesis checker; exit 0 iff no check fails."""
    coeffs = config.build_coefficients()
    nl = config.build_nonlinearity()
    plan = SamplingPlan.default(seed=args.seed if args.seed is not None else 0)
    report = check_hypotheses(nl, coeffs, plan)
    _emit(report.to_dict())
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_spectrum(config: ProblemConfig, args: argparse.Namespace) -> int:
    """Write the band CSV plus a summary with the spectral inclusion status.

    Every result is computed before the CSV is written, so a failing input
    leaves no file behind.
    """
    coeffs = config.build_coefficients()
    out_dir = _out_dir(args.out)
    bands = band_structure(coeffs, args.grid)

    tol = 1e-9
    abs_bands = np.abs(bands.bands)
    inclusion = bool(
        (abs_bands >= coeffs.lambda0 - tol).all()
        and (abs_bands <= coeffs.Lambda0 + 2.0 + tol).all()
    )

    half_width = config.build_window().half_width if args.window is None else args.window
    cells = max(1, (2 * half_width + 1) // coeffs.period)
    crosscheck = periodic_crosscheck(coeffs, cells)

    band_path = out_dir / "bands.csv"
    n_bands = bands.bands.shape[1]
    header = ",".join(["theta"] + [f"band_{i + 1}" for i in range(n_bands)])
    table = np.column_stack([bands.thetas, bands.bands])
    _write_lines(band_path, [header] + _csv_rows(FLOAT_FORMAT, table))

    summary = {
        "lambda0": coeffs.lambda0,
        "Lambda0": coeffs.Lambda0,
        "grid_size": args.grid,
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


def cmd_solve(config: ProblemConfig, args: argparse.Namespace) -> int:
    """Multi-start orbit search; exit 0 iff at least one verified orbit is found."""
    coeffs = config.build_coefficients()
    nl = config.build_nonlinearity()
    window = config.build_window(args.window)
    opts = config.build_solve_options(args.seed)
    check_summary = None
    if not args.skip_check:
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
    out_dir = _out_dir(args.out)
    ctx = FunctionalContext(assemble(window, coeffs), nl)
    results = multi_start(ctx, opts)
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
        "skip_check": args.skip_check,
        "seed": opts.seed,
        "window": {
            "half_width": window.half_width,
            "boundary": window.boundary.value,
            "num_nodes": window.num_nodes,
        },
    }
    _emit(payload)
    return EXIT_OK if results else EXIT_NO_ORBIT


def cmd_verify(config: ProblemConfig, args: argparse.Namespace) -> int:
    """Re-run all orbit checks on a CSV orbit; exit 0 iff every check passes."""
    coeffs = config.build_coefficients()
    nl = config.build_nonlinearity()
    window = config.build_window(args.window)
    orbit = _read_orbit_csv(args.orbit, window, config.block_dim)
    ctx = FunctionalContext(assemble(window, coeffs), nl)
    report = verify_candidate(ctx, orbit, config.build_solve_options())
    payload = report.to_dict()
    payload["orbit_file"] = Path(args.orbit).name
    _emit(payload)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad or missing flag as ConfigurationError instead of exiting."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dhlattice",
        description="Spectral analysis, hypothesis checking, and homoclinic-orbit "
        "computation for first-order discrete Hamiltonian lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    arguments = {
        "orbit": dict(help="orbit CSV file produced by solve"),
        "--out": dict(default="out", help="directory for CSV outputs"),
        "--seed": dict(type=_int_at_least(0), default=None,
                       help="RNG seed (check: sampling; solve: overrides solver.seed)"),
        "--window": dict(type=_int_at_least(0), default=None, metavar="M",
                         help="override the window half-width"),
        "--grid": dict(type=_int_at_least(2), default=256, help="quasimomentum grid size"),
        "--skip-check": dict(action="store_true",
                             help="skip the hypothesis pre-check (recorded in the output)"),
    }

    def add_command(name: str, run, help: str, *names: str) -> None:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="path to the JSON problem config")
        for arg in names:
            p.add_argument(arg, **arguments[arg])

    add_command("check", cmd_check, "run the hypothesis checker", "--seed")
    add_command("spectrum", cmd_spectrum, "band structure CSV and spectral summary",
                "--out", "--window", "--grid")
    add_command("solve", cmd_solve, "multi-start homoclinic orbit search",
                "--out", "--seed", "--window", "--skip-check")
    add_command("verify", cmd_verify, "verify an orbit CSV against a config",
                "--window", "orbit")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; malformed input exits 2 and an (R0) violation exits 1."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(load_config(args.config), args)
    except HypothesisViolationError as exc:
        _emit({
            "checks": {"R0": {"status": "fail", "detail": str(exc)}},
            "all_pass": False,
            "failed": ["R0"],
            "note": "coefficient validation failed before sampling",
        })
        return EXIT_CHECK_FAILED
    except ConfigurationError as exc:
        _emit({"error": str(exc)})
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:
        _emit({"error": str(exc) or "out of memory"})
        return EXIT_CONFIG_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
