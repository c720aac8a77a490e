"""Differential test of the orbit CSV reader: ``cli._read_orbit_csv`` parses a
file in one pass, and must read every file as the row-by-row loop below
does.  Well-formed files written by ``_write_orbit_csv`` read back bit for
bit (signed zeros, subnormals and the largest doubles included); a file with
one or two faults in different rows must give ``verify`` the same exit code
and the same output, error text included, as the loop."""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dhlattice import cli
from dhlattice.core import BlockVector, ConfigurationError, Window


def reference_read(path: str, window: Window, block_dim: int) -> BlockVector:
    """The row-by-row reader: each row split, its label parsed by ``int``, its
    entries by ``float`` and written into the array, its label compared with
    the window node, and the first faulty row reported."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigurationError(f"orbit file {path} is empty")
    header = cli._orbit_header(block_dim)
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


# the extremes of the double format, with both zeros
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]
ENTRIES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
)
HALF_WIDTHS = st.integers(0, 6)

ROW_FAULTS = ["drop", "duplicate", "add_column", "remove_column", "cell", "label_shift",
              "label", "label_and_cell"]
CELLS = st.sampled_from(["abc", "", "nan", "inf", "-inf", "1.5.2", "0x10"])
LABELS = st.sampled_from(["+5", " 5", "5_0", "+{n}", " {n} ", "{n}.0", "{n}_0"])


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """Config paths for N = 1 (model) and N = 2 (n2), with a short re-solve."""
    work = tmp_path_factory.mktemp("orbit_csv")
    paths = {}
    for block_dim, name in ((1, "model"), (2, "n2")):
        raw = json.loads(cli.builtin_config_path(name).read_text())
        raw["solver"]["max_iter"] = 5
        path = work / f"{name}.json"
        path.write_text(json.dumps(raw))
        paths[block_dim] = path
    return work, paths


def verify_output(argv):
    """verify's exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def orbit_lines(window: Window, block_dim: int, entries: np.ndarray, path: Path) -> list[str]:
    cli._write_orbit_csv(path, BlockVector(window, block_dim, entries))
    return path.read_text().splitlines()


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(block_dim=st.sampled_from([1, 2]), half_width=HALF_WIDTHS, data=st.data())
def test_written_orbit_reads_back_bit_for_bit(configs, block_dim, half_width, data):
    work, _ = configs
    window = Window.zero_pad(half_width)
    shape = (window.num_nodes, 2 * block_dim)
    values = data.draw(st.lists(ENTRIES, min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    entries = np.array(values, dtype=float).reshape(shape)
    path = work / "round_trip.csv"
    orbit_lines(window, block_dim, entries, path)
    got = cli._read_orbit_csv(str(path), window, block_dim).entries
    want = reference_read(str(path), window, block_dim).entries
    for read in (got, want):
        assert np.array_equal(read, entries)
        assert np.array_equal(np.signbit(read), np.signbit(entries))


def apply_fault(lines, row, fault, value, block_dim):
    """Apply ``fault`` in place to data row ``row`` of ``lines`` (line ``row + 1``)."""
    i = row + 1
    parts = lines[i].split(",")
    node = parts[0]
    if fault == "drop":
        del lines[i]
    elif fault == "duplicate":
        lines.insert(i, lines[i])
    elif fault == "add_column":
        lines[i] = ",".join(parts + ["0"])
    elif fault == "remove_column":
        lines[i] = ",".join(parts[:-1])
    elif fault == "cell":
        parts[1 + value[1] % (2 * block_dim)] = value[0]
        lines[i] = ",".join(parts)
    elif fault == "label_shift":
        lines[i] = ",".join([str(int(node) + value[1])] + parts[1:])
    elif fault == "label":
        lines[i] = ",".join([value[0].format(n=node)] + parts[1:])
    elif fault == "label_and_cell":  # the label is reported, as it is parsed first
        lines[i] = ",".join([f"x{node}", "abc"] + parts[2:])


FAULTS = st.tuples(
    st.sampled_from(ROW_FAULTS),
    st.tuples(st.one_of(CELLS, LABELS), st.sampled_from([-1, 1, 2, 3])),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(block_dim=st.sampled_from([1, 2]), half_width=st.integers(2, 6), data=st.data())
def test_faulty_orbit_gives_the_row_loop_verdict(configs, block_dim, half_width, data):
    work, paths = configs
    window = Window.zero_pad(half_width)
    rows = data.draw(st.lists(st.integers(0, window.num_nodes - 1), min_size=1, max_size=2,
                              unique=True))
    faults = [data.draw(FAULTS) for _ in rows]
    rng = np.random.default_rng(half_width)
    entries = rng.standard_normal((window.num_nodes, 2 * block_dim))
    path = work / "faulty.csv"
    lines = orbit_lines(window, block_dim, entries, path)
    # later rows first, so a dropped or duplicated row leaves the others in place
    for row, (fault, value) in sorted(zip(rows, faults), reverse=True):
        apply_fault(lines, row, fault, value, block_dim)
    path.write_text("\n".join(lines) + "\n")
    argv = ["verify", "--config", str(paths[block_dim]), "--window", str(half_width),
            str(path)]
    got = verify_output(argv)
    with mock.patch.object(cli, "_read_orbit_csv", reference_read):
        want = verify_output(argv)
    assert got == want
