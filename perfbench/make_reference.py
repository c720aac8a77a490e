"""Write reference.json: the verified orbits every solve command must reproduce.

Run from the root of a dhlattice checkout, on the code the reference should
pin (it was written on the initial commit of the package):

    python3 perfbench/make_reference.py

Each entry lists the solve's orbits in output order with ``start_used`` and
phi.  Solves run at their config's own seed, as in the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dhlattice.cli import main  # noqa: E402
from workloads import solve_entries  # noqa: E402

reference = {}
with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
    for label, config, half_width in solve_entries("bundled") + solve_entries("wide"):
        argv = ["solve", "--config", str(config), "--out", str(Path(tmp) / label)]
        if half_width is not None:
            argv += ["--window", str(half_width)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            sys.exit(f"solve {label} exited {code}")
        reference[label] = [
            {"start_used": r["start_used"], "phi": r["phi"]}
            for r in json.loads(out.getvalue())["results"]
        ]
        print(label, reference[label], file=sys.stderr)
(HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
