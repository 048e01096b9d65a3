"""The report writer against its oracle, and the CLI's exit codes under fuzz.

render_json must write exactly what json.dumps(doc, indent=2, sort_keys=True,
allow_nan=False) writes; every CLI run, on argv and on expression, builtin
and table documents with odd fields, must exit 0, 2 or 3 without a
traceback, a failing run must write one stderr line, and an exit-0 report
must be the stdlib's re-dump of its parse.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hspec import TruncationSpec
from hspec.cli import main, render_json


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


# values that compare equal but print differently, subnormals, and bounds
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 1e16, 1e-7]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
           | finite_floats | st.sampled_from(EDGE_FLOATS) | st.text(max_size=8)
           | st.sampled_from(["", "é", "\x00\x1f\"\\/", " ", "\U0001f600", "\ud800"]))
# flat lists whose values repeat: the writer renders each distinct one once
repeated = st.one_of(
    st.lists(st.sampled_from(EDGE_FLOATS), max_size=30),
    st.lists(st.sampled_from([0, 1, -1, 10**30]), max_size=12),
    st.lists(st.sampled_from(["a", "", "é"]), max_size=12),
    st.lists(st.booleans(), max_size=6),
    st.lists(st.none(), max_size=4),
    st.lists(st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False]), max_size=12),
)
# criteria's and converge's [shell, sum] pairs
pairs = st.lists(st.tuples(st.integers(), finite_floats | st.sampled_from(EDGE_FLOATS))
                 .map(list), max_size=8)
docs = st.recursive(
    scalars | repeated | pairs,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=20,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(docs)
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0, 0.0, 0.0])
@example([1, 1.0, True])
@example([[1, 1.0, True]] * 3)
@example({"a": [], "b": {}, "c": (), "d": [[], {}]})
@example([[0, -0.0], [1, 0.0], [2, 5e-324]])
@example([[0, 1], [1, 2.0]])
@example([[True, 1.0], [1, 1.0]])
@example(("\x07", "ü", 10**400 // 10**350))
def test_render_json_is_the_stdlib_indented_dump(doc):
    assert render_json(doc) == oracle(doc)


def test_a_float_subclass_renders_as_a_float():
    doc = {"x": np.float64(0.1), "y": [np.float64(-0.0), 2.5, np.float64(2.5)]}
    assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [
    lambda v: v,
    lambda v: [1.0, v],
    lambda v: [v] * 4 + [1.0] * 4,  # the repeated-value path
    lambda v: [1, v],
    lambda v: {"a": {"b": v}},
    lambda v: [[0, 1.0], [1, v]],
], ids=["scalar", "floats", "repeated", "mixed", "dict", "pairs"])
def test_a_non_finite_float_raises_value_error(bad, where):
    with pytest.raises(ValueError):
        oracle(where(bad))
    with pytest.raises(ValueError):
        render_json(where(bad))


@pytest.mark.parametrize("doc", [np.int64(1), [np.int64(1)], {"a": [1.0, np.int64(2)]},
                                 [[0, np.int64(1)]], np.bool_(True), object()])
def test_an_unknown_type_raises_type_error(doc):
    with pytest.raises(TypeError):
        oracle(doc)
    with pytest.raises(TypeError):
        render_json(doc)


# ---------------------------------------------------------------------------
# exit-code fuzz over small argv and symbol documents

atoms = st.sampled_from(["x1", "x2", "nu1", "nu2", "absnu", "lam", "0", "1", "0.5", "2", "1e300"])
expressions = st.recursive(
    atoms,
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/^"), e).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs", "sin"]), e)
        .map(lambda t: f"{t[0]}({t[1]})"),
        e.map(lambda s: f"-{s}"),
    ),
    max_leaves=5,
)
builtins = st.sampled_from([
    ("heat", "t=0.3"), ("heat", "t=0.05"), ("power", "sigma=1.5"), ("power", "sigma=0.2"),
    ("bandlimit", "cutoff=2"), ("heat", "t=-0.5"), ("heat", "sigma=1"), ("nope", "t=1"),
])
# mostly valid, so most runs get past the parser; "x", "3,1" and "-1" exit 2
levels = st.lists(st.integers(0, 4), min_size=2, max_size=3, unique=True).map(sorted)
bad_levels = st.sampled_from(["x", "3,1", "-1", "2,2"])
orders = st.sampled_from(["0.5", "1", "1.5", "2", "0.5,1,1.5,2", "1,2", "3", "0", "1e-320"])


# what a spoiled field of a symbol document holds instead: JSON that is not a
# finite number (inf is written as 1e400, which parses as inf), or a number
# that is out of range for the field
odd_values = st.sampled_from([math.inf, -math.inf, math.nan, None, "1", True, [1.0], {}, -1, 0])
PARAMS = {"heat": "t", "power": "sigma", "bandlimit": "cutoff"}
TABLE_NODES = [-10.0, 0.0, 10.0]  # past every quadrature node up to level 4


def _spoiled(draw, doc: dict, paths: list[tuple]) -> dict:
    """doc, or doc with the field at one of paths deleted or made odd."""
    how = draw(st.sampled_from(["keep", "delete", "replace", "replace"]))
    if how == "keep":
        return doc
    *parents, last = draw(st.sampled_from(paths))
    field = doc
    for key in parents:
        field = field[key]
    if how == "delete":
        del field[last]
    else:
        field[last] = draw(odd_values)
    return doc


@st.composite
def builtin_documents(draw):
    family = draw(st.sampled_from(sorted(PARAMS)))
    param = PARAMS[family]
    doc = {"kind": "builtin", "dim": draw(st.integers(1, 2)), "family": family,
           "params": {param: draw(st.sampled_from([0.05, 0.3, 1.5, 2.0]))}}
    return _spoiled(draw, doc, [("dim",), ("family",), ("params",), ("params", param)])


@st.composite
def table_documents(draw):
    dim = draw(st.integers(1, 2))
    keys = TruncationSpec(dim, 4).array.tolist()
    row = lambda v: [v] * len(TABLE_NODES)  # noqa: E731
    values = {",".join(map(str, nu)): row(1 / (1 + sum(nu))) if dim == 1
              else [row(1 / (1 + sum(nu)))] * len(TABLE_NODES) for nu in keys}
    doc = {"kind": "table", "dim": dim,
           "table": {"grids": [list(TABLE_NODES) for _ in range(dim)], "values": values}}
    # a value at |nu| = 4 is read only at level 4
    key = ",".join(map(str, draw(st.sampled_from(keys))))
    return _spoiled(draw, doc, [("dim",), ("table",), ("table", "grids"), ("table", "grids", 0),
                                ("table", "grids", dim - 1, 1), ("table", "values"),
                                ("table", "values", key),
                                ("table", "values", key, *[1] * dim)])


@st.composite
def cli_runs(draw):
    """(argv without --output, symbol document or None)."""
    command = draw(st.sampled_from(["analyze", "criteria", "trace", "converge",
                                    "basis-check"]))
    argv, doc = [command], None
    if command != "basis-check":
        source = draw(st.sampled_from(["argv", "expression", "builtin", "table"]))
        if source == "argv":
            family, param = draw(builtins)
            argv += ["--builtin", family, "--param", param]
        elif source == "expression":
            doc = {"kind": "expression", "dim": draw(st.integers(1, 2)),
                   "expr": draw(expressions),
                   "positive_selfadjoint": draw(st.booleans())}
        else:
            doc = draw(builtin_documents() if source == "builtin" else table_documents())
    dim = draw(st.sampled_from([None, None, 1, 2]))
    if dim is not None:
        argv += ["--dim", str(dim)]
    if draw(st.sampled_from([False] * 9 + [True])):
        level = draw(bad_levels)
    elif command == "converge":
        level = ",".join(map(str, draw(levels)))
    else:
        level = str(draw(st.integers(0, 4)))
    argv += ["--level", level]
    if command in ("analyze", "criteria"):
        argv += ["--r", draw(orders)]
    if command == "criteria" and draw(st.booleans()):
        argv += ["--sigma", draw(st.sampled_from(["0.5", "2", "-1"]))]
    if command == "converge":
        argv += ["--quantity", draw(st.sampled_from(["trace", "hs"]))]
    # trace and basis-check have no table and refuse csv
    tables = command in ("analyze", "criteria", "converge")
    argv += ["--format", draw(st.sampled_from(["json", "csv"] if tables else ["json"] * 5 + ["csv"]))]
    return argv, doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _table(grid: list, values: dict) -> dict:
    return {"kind": "table", "dim": 1, "table": {"grids": [grid], "values": values}}


FLAT = {str(k): [1.0, 1.0] for k in range(4)}
TRACE = ["trace", "--level", "3", "--format", "json"]
HEAT = ["--builtin", "heat", "--param", "t=1"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cli_runs())
# a grid that is not a list; a node of 1e400; a value of 1e400 at an index
# the run never reads, and at one it reads
@example(run=(TRACE, {"kind": "table", "dim": 1, "table": {"grids": [{}], "values": {}}}))
@example(run=(TRACE, _table([-20.0, math.inf], FLAT)))
@example(run=(TRACE, _table([-20.0, 20.0], {**FLAT, "9": [1.0, math.inf]})))
@example(run=(TRACE, _table([-20.0, 20.0], {**FLAT, "1": [1.0, math.inf]})))
# paths that cannot be read or written, under the fuzz directory DIR: a symbol
# file that is a directory, an output in a missing directory, an output that
# is a directory
@example(run=(["analyze", "--symbol", "DIR", "--level", "3"], None))
@example(run=(["analyze", *HEAT, "--level", "3", "--output", "DIR/missing/out"], None))
@example(run=(["analyze", *HEAT, "--level", "3", "--output", "DIR"], None))
def test_every_cli_run_exits_0_2_or_3_and_writes_the_stdlib_json(fuzz_dir, run):
    argv, doc = run
    sym, out = fuzz_dir / "sym.json", fuzz_dir / "out"
    out.unlink(missing_ok=True)
    if doc is not None:
        sym.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        argv = argv[:1] + ["--symbol", str(sym)] + argv[1:]
    argv = [a.replace("DIR", str(fuzz_dir)) for a in argv]
    if "--output" not in argv:
        argv += ["--output", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, doc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1, (argv, doc, err.getvalue())
    if code == 0 and "json" in argv:
        text = out.read_text()
        assert text == oracle(json.loads(text)) + "\n"
