"""Fuzz of the CLI's input boundary: a shipped config with one field replaced
by an arbitrary JSON value must end in exit 0/1/2/3, with one JSON object on
stdout and no traceback, and check, spectrum and solve must agree on whether
it is malformed (exit 2).  ``verify`` meets the same contract with its
``--window`` replaced and its orbit CSV edited: a row dropped, duplicated or
relabelled, a field replaced by a non-number, or a column added."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dhlattice.cli import builtin_config_path, main
from helpers import reject_constant

# each path names one field of a shipped config (list indices included)
FIELDS = [
    ("block_dim",),
    ("period",),
    ("matrices",),
    ("matrices", 0),
    ("matrices", 0, 1),
    ("nonlinearity",),
    ("nonlinearity", "family"),
    ("nonlinearity", "nu"),
    ("window",),
    ("window", "half_width"),
    ("window", "boundary"),
    ("solver",),
    ("solver", "seed"),
    ("solver", "max_iter"),
    ("solver", "starts"),
    ("solver", "starts", 0),
    ("solver", "starts", 0, "kind"),
    ("solver", "starts", 0, "amplitude"),
    ("solver", "starts", 0, "width"),
    ("unknown",),
]

# small integers keep every window and grid an example can build small
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def small_config(name):
    raw = json.loads(builtin_config_path(name).read_text())
    raw["window"]["half_width"] = 8
    raw["solver"]["max_iter"] = 5
    return raw


SHIPPED = {name: small_config(name) for name in ("model", "period2", "n2")}


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=st.sampled_from(sorted(SHIPPED)), field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_one_field_replaced_ends_in_documented_exit(work_dir, name, field, value):
    raw = copy.deepcopy(SHIPPED[name])
    parent = raw
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    config = work_dir / "config.json"
    config.write_text(json.dumps(raw))  # writes NaN / Infinity literals as such
    out = str(work_dir / "out")
    malformed = []
    for argv in (
        ["check", "--config", str(config)],
        ["spectrum", "--config", str(config), "--grid", "4", "--out", out],
        ["solve", "--config", str(config), "--skip-check", "--out", out],
    ):
        code, stdout, stderr = run_captured(argv)
        assert code in (0, 1, 2, 3), argv
        assert isinstance(json.loads(stdout, parse_constant=reject_constant), dict), argv
        assert "Traceback" not in stderr, argv
        malformed.append(code == 2)
    # the config is validated once, at load, so no command may see it differently
    assert len(set(malformed)) == 1, (field, value, malformed)


# an orbit CSV row's fields are x1 then x2 after the node label; a field may
# become a non-number, a word, an overflowing or a huge finite literal
CSV_FIELDS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "1e300", "-1e200", "", " ", "0x10", "1_0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 40).map(str),
    st.text(max_size=4),
)
ORBIT_EDITS = ("none", "drop", "duplicate", "relabel", "field", "extra_column")
# most examples keep the orbit's own window, so that the edited orbit reaches
# the checks
WINDOWS = st.one_of(
    st.none(), st.none(), st.just("24"), st.integers(-3, 40).map(str), st.text(max_size=3)
)


@pytest.fixture(scope="module")
def orbit_files(tmp_path_factory):
    """(config path, orbit CSV lines) per shipped config at half-width 24, the
    orbit from a solve with the shipped iteration budget; the config that
    verifies it keeps the fuzz's budget of 5 iterations."""
    root = tmp_path_factory.mktemp("fuzz_orbits")
    files = {}
    for name, raw in SHIPPED.items():
        solve_config = root / f"{name}_solve.json"
        shipped_solver = json.loads(builtin_config_path(name).read_text())["solver"]
        solve_config.write_text(json.dumps(dict(raw, solver=shipped_solver)))
        out = root / name
        argv = ["solve", "--config", str(solve_config), "--window", "24", "--skip-check"]
        code, _, _ = run_captured(argv + ["--out", str(out)])
        assert code == 0, name
        config = root / f"{name}.json"
        config.write_text(json.dumps(dict(raw, window=dict(raw["window"], half_width=24))))
        files[name] = (config, (out / "orbit_00.csv").read_text().splitlines())
    return files


def edit_orbit(lines, edit, row, column, field):
    """The orbit CSV's lines with one row dropped, duplicated or relabelled,
    one field replaced, or one column added; ``row`` 0 is the header."""
    lines = list(lines)
    i = row % len(lines)
    parts = lines[i].split(",")
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "relabel":
        lines[i] = ",".join([field] + parts[1:])
    elif edit == "field":
        parts[column % len(parts)] = field
        lines[i] = ",".join(parts)
    elif edit == "extra_column":
        lines[i] = ",".join(parts + [field])
    return lines


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(SHIPPED)),
    window=WINDOWS,
    edit=st.sampled_from(ORBIT_EDITS),
    row=st.integers(0, 60),
    column=st.integers(0, 4),
    field=CSV_FIELDS,
)
def test_verify_mutated_orbit_ends_in_documented_exit(
    work_dir, orbit_files, name, window, edit, row, column, field
):
    config, lines = orbit_files[name]
    orbit = work_dir / "orbit.csv"
    orbit.write_text("\n".join(edit_orbit(lines, edit, row, column, field)) + "\n")
    argv = ["verify", "--config", str(config), str(orbit)]
    if window is not None:
        argv += ["--window", window]
    code, stdout, stderr = run_captured(argv)
    assert code in (0, 1, 2, 3), argv
    assert isinstance(json.loads(stdout, parse_constant=reject_constant), dict), argv
    assert "Traceback" not in stderr, argv
    if edit == "none" and window in (None, "24"):
        assert code == 0  # the unedited orbit verifies
