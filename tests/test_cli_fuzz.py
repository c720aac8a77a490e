"""Fuzz of the CLI's input boundary: a shipped config with one field replaced
by an arbitrary JSON value must end in exit 0/1/2/3, with one JSON object on
stdout and no traceback."""

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
    ("window", "num_nodes"),
    ("window", "boundary"),
    ("solver",),
    ("solver", "seed"),
    ("solver", "max_iter"),
    ("solver", "grad_tol"),
    ("solver", "trivial_tol"),
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
    for argv in (
        ["check", "--config", str(config)],
        ["spectrum", "--config", str(config), "--grid", "4", "--out", out],
        ["solve", "--config", str(config), "--skip-check", "--out", out],
    ):
        code, stdout, stderr = run_captured(argv)
        assert code in (0, 1, 2, 3), argv
        assert isinstance(json.loads(stdout, parse_constant=reject_constant), dict), argv
        assert "Traceback" not in stderr, argv
