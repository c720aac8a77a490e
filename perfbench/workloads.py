"""The benchmark's workloads: CLI commands, generated inputs and reference checks.

Every workload is a closed loop of ``dhlattice.cli.main`` calls from one
process.  A workload has *main* commands (one pass of them is timed as
``main_s``) and *follow-up* commands (short commands repeated in rounds and
timed as ``followup_s``):

* ``bundled``  main: ``solve`` on the three shipped configs at their shipped
  windows.  Follow-up: ``verify`` of every orbit those solves wrote.
* ``wide``     main: ``solve`` with model coefficients on 511 nodes (dense
  storage) and 1025 nodes (banded storage).  Follow-up: ``verify`` of every
  orbit written.
* ``spectral`` main: ``spectrum`` on model (grid 4096, 1025-node periodic
  crosscheck) and on a seeded random (R0) coefficient set with N = 2, T = 4
  (grid 1024).  Follow-up: ``spectrum`` on each shipped config at its shipped
  window and the default grid.

Every command's output is checked.  Solves must reproduce ``reference.json``
(count, ``start_used``, phi within 1e-12); verifies must pass; spectrum
summaries must match a Bloch-symbol computation written here, independently
of the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
PHI_TOL = 1e-12
SPECTRUM_TOL = 1e-9
SHIPPED = ("model", "period2", "n2")


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[int, dict], Optional[str]]  # error message, None when correct
    certifies: int = 0  # results this command certifies when its check passes


@dataclass
class Outcome:
    label: str
    seconds: float  # wall time
    scaled: float  # wall time at the machine's undisturbed speed (calibration.py)
    error: Optional[str]
    payload: Optional[dict]


def run_command(cli_main, cmd: Command, stopwatch) -> Outcome:
    """Run one CLI command in-process, timed by ``stopwatch`` (a calibration.py
    stopwatch); any traceback or check failure is an error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), stopwatch:
            code = cli_main(cmd.argv)
    except Exception:  # a traceback is a failed command, never a crash of the benchmark
        return Outcome(cmd.label, stopwatch.seconds, stopwatch.scaled,
                       "raised: " + traceback.format_exc(limit=3), None)
    timing = (cmd.label, stopwatch.seconds, stopwatch.scaled)
    try:
        payload = json.loads(out.getvalue())
    except json.JSONDecodeError:
        return Outcome(*timing, "stdout is not one JSON report", None)
    if "Traceback" in err.getvalue():
        return Outcome(*timing, "traceback on stderr", payload)
    return Outcome(*timing, cmd.check(code, payload), payload)


# --- solve / verify --------------------------------------------------------


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def solve_check(expected: list[dict]) -> Callable[[int, dict], Optional[str]]:
    def check(code: int, payload: dict) -> Optional[str]:
        if code != 0:
            return f"solve exited {code}"
        got = payload.get("results", [])
        if len(got) != len(expected):
            return f"{len(got)} orbits, reference has {len(expected)}"
        for res, ref in zip(got, expected):
            if res["status"] != "verified":
                return f"orbit from {res['start_used']} has status {res['status']}"
            if res["start_used"] != ref["start_used"]:
                return f"start_used {res['start_used']}, reference {ref['start_used']}"
            if not abs(res["phi"] - ref["phi"]) <= PHI_TOL:
                return f"phi {res['phi']!r} differs from reference {ref['phi']!r}"
        return None

    return check


def verify_check(code: int, payload: dict) -> Optional[str]:
    if code != 0 or payload.get("passed") is not True:
        return f"verify exited {code}, checks {payload.get('checks')}"
    return None


def solve_workload(entries, out_dir: Path, reference: dict):
    """Main solve commands and the follow-up verify of every orbit they write.

    Solves run at their config's own seed: the orbits they find depend on it
    (with ``--seed 9`` model's ``random`` start finds a second verified orbit),
    and the reference pins one set of orbits.
    """
    main, followup = [], []
    for label, config, half_width in entries:
        window = [] if half_width is None else ["--window", str(half_width)]
        expected = reference[label]
        target = out_dir / label
        main.append(
            Command(
                f"solve:{label}",
                ["solve", "--config", str(config), "--out", str(target)] + window,
                solve_check(expected),
                certifies=len(expected),
            )
        )
        for i in range(len(expected)):
            followup.append(
                Command(
                    f"verify:{label}:{i}",
                    ["verify", "--config", str(config), str(target / f"orbit_{i:02d}.csv")]
                    + window,
                    verify_check,
                )
            )
    return main, followup


# --- spectrum --------------------------------------------------------------


def random_r0_config(seed: int) -> dict:
    """A seeded (R0)-satisfying coefficient set with N = 2, T = 4.

    S(n) = [[A, B], [B, A]] with A = (P2 - P1)/2 and B = -(P1 + P2)/2 for
    random SPD 2x2 matrices P1, P2, so J0 S(n) has the eigenvalues of P1 and
    P2.  nu is set one above 2 + Lambda0, as (R3) requires.
    """
    rng = np.random.default_rng(seed)

    def spd() -> np.ndarray:
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        return q @ np.diag(rng.uniform(0.5, 1.5, 2)) @ q.T

    matrices = []
    lam_max = 0.0
    for _ in range(4):
        p1, p2 = spd(), spd()
        a, b = 0.5 * (p2 - p1), -0.5 * (p1 + p2)
        s = np.block([[a, b], [b, a]])
        s = 0.5 * (s + s.T)
        matrices.append([float(v) for v in s.reshape(-1)])
        lam_max = max(lam_max, float(np.linalg.eigvalsh(p1)[-1]), float(np.linalg.eigvalsh(p2)[-1]))
    return {
        "block_dim": 2,
        "period": 4,
        "matrices": matrices,
        "nonlinearity": {"family": "radial_rational", "nu": math.ceil(3.0 + lam_max)},
        "window": {"half_width": 128, "boundary": "zero_pad"},
    }


def _symbol_parts(mats: np.ndarray):
    """C0, Cp, Cm with Bloch symbol M(theta) = C0 + e^{i theta} Cp + e^{-i theta} Cm."""
    t, n2, _ = mats.shape
    n = n2 // 2
    dim = t * n2
    c0 = np.zeros((dim, dim), dtype=complex)
    cp = np.zeros_like(c0)
    cm = np.zeros_like(c0)
    eye = np.eye(n)
    for r in range(t):
        row = r * n2
        c0[row : row + n2, row : row + n2] -= mats[r]
        # z1(r) = x2(r) - x2(r-1)
        c0[row : row + n, row + n : row + n2] += eye
        prev = (r - 1) % t
        (cm if r == 0 else c0)[row : row + n, prev * n2 + n : prev * n2 + n2] -= eye
        # z2(r) = x1(r) - x1(r+1)
        c0[row + n : row + n2, row : row + n] += eye
        nxt = (r + 1) % t
        (cp if r == t - 1 else c0)[row + n : row + n2, nxt * n2 : nxt * n2 + n] -= eye
    return c0, cp, cm


def symbol_eigenvalues(mats: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    c0, cp, cm = _symbol_parts(mats)
    phase = np.exp(1j * thetas)[:, None, None]
    return np.linalg.eigvalsh(c0 + phase * cp + np.conj(phase) * cm)


def spectrum_reference(config: dict, grid: int, half_width: int) -> dict:
    """Expected spectral summary, computed without the package."""
    n2 = 2 * config["block_dim"]
    t = config["period"]
    mats = np.array(config["matrices"], dtype=float).reshape(t, n2, n2)
    j0 = np.zeros((n2, n2))
    j0[: n2 // 2, n2 // 2 :] = -np.eye(n2 // 2)
    j0[n2 // 2 :, : n2 // 2] = -np.eye(n2 // 2)
    gap = np.concatenate([np.linalg.eigvalsh(j0 @ s) for s in mats])
    bands = symbol_eigenvalues(mats, 2.0 * np.pi * np.arange(grid) / grid)
    cells = max(1, (2 * half_width + 1) // t)
    cell_eigs = symbol_eigenvalues(mats, 2.0 * np.pi * np.arange(cells) / cells)
    return {
        "lambda0": float(gap.min()),
        "Lambda0": float(gap.max()),
        "band_extrema": {
            "negative_min": float(bands[bands < 0].min()),
            "negative_max": float(bands[bands < 0].max()),
            "positive_min": float(bands[bands > 0].min()),
            "positive_max": float(bands[bands > 0].max()),
        },
        "num_nodes": cells * t,
        "eigenvalue_min": float(cell_eigs.min()),
        "eigenvalue_max": float(cell_eigs.max()),
        "grid": grid,
    }


def spectrum_check(expected: dict, band_file: Path) -> Callable[[int, dict], Optional[str]]:
    def check(code: int, payload: dict) -> Optional[str]:
        if code != 0:
            return f"spectrum exited {code}"
        if payload.get("inclusion_pass") is not True:
            return "inclusion certificate failed"
        cross = payload["periodic_crosscheck"]
        if not cross["max_mismatch"] <= SPECTRUM_TOL:
            return f"periodic crosscheck mismatch {cross['max_mismatch']!r}"
        if cross["num_nodes"] != expected["num_nodes"]:
            return f"crosscheck on {cross['num_nodes']} nodes, expected {expected['num_nodes']}"
        pairs = [
            ("lambda0", payload["lambda0"], expected["lambda0"]),
            ("Lambda0", payload["Lambda0"], expected["Lambda0"]),
            ("eigenvalue_min", cross["eigenvalue_min"], expected["eigenvalue_min"]),
            ("eigenvalue_max", cross["eigenvalue_max"], expected["eigenvalue_max"]),
        ]
        if set(payload["band_extrema"]) != set(expected["band_extrema"]):
            return f"band extrema keys {sorted(payload['band_extrema'])}"
        pairs += [
            (key, payload["band_extrema"][key], value)
            for key, value in expected["band_extrema"].items()
        ]
        for key, got, want in pairs:
            if not abs(got - want) <= SPECTRUM_TOL:
                return f"{key} {got!r}, reference {want!r}"
        rows = sum(1 for _ in band_file.open(encoding="utf-8")) - 1
        if rows != expected["grid"]:
            return f"band file has {rows} rows, expected {expected['grid']}"
        return None

    return check


def spectrum_command(label: str, config_path: Path, config: dict, out_dir: Path,
                     grid: int, half_width: int, certifies: int) -> Command:
    target = out_dir / label
    argv = ["spectrum", "--config", str(config_path), "--out", str(target),
            "--grid", str(grid), "--window", str(half_width)]
    expected = spectrum_reference(config, grid, half_width)
    return Command(f"spectrum:{label}", argv, spectrum_check(expected, target / "bands.csv"),
                   certifies=certifies)


# --- workload table --------------------------------------------------------


def shipped_config(name: str) -> Path:
    from dhlattice.cli import builtin_config_path

    return builtin_config_path(name)


def solve_entries(name: str) -> list[tuple[str, Path, Optional[int]]]:
    """(label, config path, half-width override or None) of each solve of a workload."""
    if name == "bundled":
        return [(c, shipped_config(c), None) for c in SHIPPED]
    if name == "wide":
        config = HERE / "configs" / "wide.json"
        return [("wide_w255", config, 255), ("wide_w512", config, 512)]
    return []


def build(name: str, seed: int, out_dir: Path) -> tuple[list[Command], list[Command]]:
    """(main commands, follow-up commands) of a workload; ``seed`` generates
    the spectral workload's random coefficient set."""
    if name in ("bundled", "wide"):
        return solve_workload(solve_entries(name), out_dir, load_reference())
    if name == "spectral":
        out_dir.mkdir(parents=True, exist_ok=True)
        model_path = shipped_config("model")
        model = json.loads(model_path.read_text(encoding="utf-8"))
        random_cfg = random_r0_config(seed)
        random_path = out_dir / "random_r0.json"
        random_path.write_text(json.dumps(random_cfg), encoding="utf-8")
        main = [
            spectrum_command("model_g4096", model_path, model, out_dir, 4096, 512, 1),
            spectrum_command("random_g1024", random_path, random_cfg, out_dir, 1024, 128, 1),
        ]
        followup = []
        for c in SHIPPED:
            path = shipped_config(c)
            cfg = json.loads(path.read_text(encoding="utf-8"))
            followup.append(
                spectrum_command(f"{c}_g256", path, cfg, out_dir, 256,
                                 cfg["window"]["half_width"], 0)
            )
        return main, followup
    raise KeyError(name)


WORKLOADS = ("bundled", "wide", "spectral")
