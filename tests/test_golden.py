"""Pinned outcomes of the bundled solves.

``deduplicate_results`` keeps the copy of an orbit with the smallest
``grad_inf_norm``.  On period2 the starts gaussian(a=1) and gaussian(a=2)
reach the same orbit with residuals of 1.2e-16 and 3.5e-16, so the reported
``start_used`` is decided by roundoff.  These values pin, for every reported
orbit, the start, the Newton iteration count and the exact action, so a change
in the floating-point arithmetic of the solve path fails here and not only in
the benchmark's reference check.  They were produced with numpy 2.4, scipy
1.17 and OpenBLAS on x86-64, with every Newton step a banded LU solve
(LAPACK dgbsv); another BLAS, LAPACK or libm may round differently.
"""

import json

import pytest

from dhlattice.cli import EXIT_OK, builtin_config_path, main

GOLDEN = {
    "model": [("gaussian(a=2,w=2)", 6, "0.296967056765583")],
    "period2": [("gaussian(a=1,w=2)", 63, "0.25121146553365314")],
    "n2": [
        ("gaussian(a=1,w=2)", 15, "1.0492001993853564"),
        ("gaussian(a=2,w=2)", 38, "2.9944202499873347"),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_solve_is_pinned(name, capsys, tmp_path):
    code = main(["solve", "--config", str(builtin_config_path(name)), "--out", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    got = [(r["start_used"], r["iterations"], repr(r["phi"])) for r in payload["results"]]
    assert got == GOLDEN[name]
