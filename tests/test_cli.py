import csv
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hspec import (
    TruncationSpec,
    assemble_matrix,
    build_report,
    symbol_from_dict,
)
import hspec.cli
import hspec.operator
from hspec.cli import main
from hspec.criteria import criteria
from hspec.schatten import HS_SUM, TRACE_SUM, named_fsum
from hspec.symbol import MAX_DEPTH
from oracles import heat_trace_limit


def run(tmp_path, *args, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--output", str(out)])
    return code, out


def test_analyze_heat_trace(tmp_path):
    code, out = run(tmp_path, "analyze", "--builtin", "heat", "--param", "t=1",
                    "--dim", "1", "--level", "30", "--r", "1,2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["report"]["formula_trace"] == pytest.approx(heat_trace_limit(1.0), abs=1e-10)
    assert doc["report"]["spectral_trace"] == pytest.approx(heat_trace_limit(1.0), abs=1e-10)


def test_analyze_power_singular_values(tmp_path):
    code, out = run(tmp_path, "analyze", "--builtin", "power", "--param", "sigma=1",
                    "--dim", "1", "--level", "3", "--r", "2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["singular_values"] == pytest.approx([1, 1 / 3, 1 / 5, 1 / 7], rel=1e-15)


def test_analyze_malformed_symbol_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json")
    code = main(["analyze", "--symbol", str(bad), "--level", "5"])
    assert code == 2


def test_missing_symbol_file_exits_2(tmp_path):
    assert main(["analyze", "--symbol", str(tmp_path / "nope.json"), "--level", "5"]) == 2


def test_no_symbol_exits_2():
    assert main(["analyze", "--level", "5"]) == 2


def test_unknown_flag_exits_2():
    assert main(["analyze", "--frobnicate"]) == 2


def test_criteria_heat_trace_class(tmp_path):
    code, out = run(tmp_path, "criteria", "--builtin", "heat", "--param", "t=1",
                    "--dim", "1", "--level", "30", "--r", "1")
    assert code == 0
    doc = json.loads(out.read_text())
    names = {v["criterion"]: v for v in doc["verdicts"]}
    assert names["TraceClass-iff"]["tail_flag"] == "converging"


def test_criteria_weak_power_hs_diverges(tmp_path):
    code, out = run(tmp_path, "criteria", "--builtin", "power", "--param", "sigma=0.3",
                    "--dim", "1", "--level", "400", "--r", "2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdicts"][0]["criterion"] == "HS-iff"
    assert doc["verdicts"][0]["tail_flag"] == "diverging"


def test_criteria_sigma_default(tmp_path):
    code, out = run(tmp_path, "criteria", "--builtin", "heat", "--param", "t=1",
                    "--dim", "1", "--level", "20", "--r", "1.5")
    assert code == 0
    doc = json.loads(out.read_text())
    v = doc["verdicts"][0]
    assert v["criterion"] == "Sr-sigma"
    assert v["parameters"]["sigma"] == pytest.approx(1.0 / 6.0 + 0.5)


def test_criteria_sigma_bound_violation(tmp_path, capsys):
    code = main(["criteria", "--builtin", "heat", "--param", "t=1", "--dim", "1",
                 "--level", "10", "--r", "1.5", "--sigma", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "n(1/r - 1/2)" in err and "0.16" in err


def test_trace_command(tmp_path):
    code, out = run(tmp_path, "trace", "--builtin", "heat", "--param", "t=1",
                    "--dim", "1", "--level", "30", "--quad", "64")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["formula_trace"] == pytest.approx(doc["spectral_trace"], abs=1e-12)


def test_converge_identity_hs(tmp_path):
    code, out = run(tmp_path, "converge", "--builtin", "bandlimit", "--param",
                    "cutoff=1e9", "--dim", "1", "--level", "5,10,20", "--quantity", "hs")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["values"] == [[5, 6.0], [10, 11.0], [20, 21.0]]
    assert doc["successive_differences"] == [5.0, 10.0]


def test_converge_heat_trace_tail_shrinks(tmp_path):
    code, out = run(tmp_path, "converge", "--builtin", "heat", "--param", "t=1",
                    "--dim", "1", "--level", "5,10,20,30")
    assert code == 0
    doc = json.loads(out.read_text())
    diffs = doc["successive_differences"]
    # geometric tail: each remaining gap shrinks by about e^(-2 dN)
    assert diffs[0] > diffs[1] > diffs[2] >= 0
    assert diffs[1] / diffs[0] < math.exp(-2 * 4)
    assert doc["values"][-1][1] == pytest.approx(heat_trace_limit(1.0), abs=1e-10)


def test_converge_requires_ascending_levels():
    assert main(["converge", "--builtin", "heat", "--param", "t=1", "--level", "20,10"]) == 2


@pytest.mark.parametrize("quantity", ["trace", "hs"])
@pytest.mark.parametrize("symbol", [
    {"kind": "builtin", "dim": 2, "family": "power", "params": {"sigma": 1.5}},
    {"kind": "expression", "dim": 2, "expr": "exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)"},
    {"kind": "expression", "dim": 2, "expr": "1/(1+x1^2+(1+0.1*nu2)*x2^2)"},
], ids=["multiplier", "split", "non-splitting"])
def test_converge_reads_every_level_from_one_pass(tmp_path, monkeypatch, symbol, quantity):
    passes = []
    discretize = hspec.operator._discretize

    def counted(*args, **kwargs):
        passes.append(discretize(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(hspec.operator, "_discretize", counted)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(symbol))
    levels = (2, 5, 9, 14)
    code, out = run(tmp_path, "converge", "--symbol", str(path), "--quantity", quantity,
                    "--level", ",".join(map(str, levels)))
    assert code == 0
    assert len(passes) == 1
    # the top level's truncation, of which every level is a prefix
    hs, spec = quantity == "hs", TruncationSpec(2, levels[-1])
    integrals = passes[0][2][hs]
    values = json.loads(out.read_text())["values"]
    assert values == [[n, named_fsum(HS_SUM if hs else TRACE_SUM,
                                     integrals[:spec.offsets[n + 1]])] for n in levels]
    # the same sum read from an assembled operator's column integrals
    report = build_report(assemble_matrix(symbol_from_dict(symbol), spec), ())
    assert values[-1][1] == report["hilbert_schmidt_direct" if hs else "formula_trace"]


def test_basis_check(tmp_path):
    for level, q in ((10, 42), (30, 64)):
        code, out = run(tmp_path, "basis-check", "--level", str(level), "--quad", str(q))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["orthonormality_residual"] <= 1e-10


def test_basis_check_at_high_level(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "basis-check", "--level", "2000")
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["orthonormality_residual"] <= 1e-11


def test_x_dependent_trace_at_high_level(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1,
                                "expr": "exp(-0.1*absnu)/(1+x1^2)"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "trace", "--symbol", str(path), "--level", "1000")
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert doc["spectral_trace"] == pytest.approx(doc["formula_trace"], rel=1e-12)


@pytest.mark.parametrize("args", [
    # (sum sigma^r)^(1/r) leaves the double range at r = 0.01
    ("analyze", "--builtin", "power", "--param", "sigma=1", "--dim", "2", "--level", "50",
     "--r", "0.01"),
    # the exactly rounded sums of the diagonal 1e307 overflow
    *[(command, "--symbol", "SYM", "--level", level) for command, level in
      (("analyze", "30"), ("criteria", "30"), ("trace", "30"), ("converge", "20,30"))],
], ids=["schatten-norm", "analyze", "criteria", "trace", "converge"])
def test_arithmetic_overflow_exits_3(tmp_path, capsys, args):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": "1e307+0*absnu"}))
    with np.errstate(all="ignore"):
        code, out = run(tmp_path, *(str(path) if a == "SYM" else a for a in args))
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_names_the_norm_of_the_first_order_before_the_sum_of_the_second(tmp_path,
                                                                                capsys):
    # both overflow: (41 * 1e150^0.01)^100 and 41 * 1e150^3; analyze takes each
    # r's sum and then its norm, so the order-0.01 norm comes first
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": "1e150+0*absnu"}))
    code, out = run(tmp_path, "analyze", "--symbol", str(path), "--level", "40",
                    "--r", "0.01,3")
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: the Schatten norm of order 0.01 overflows\n")
    assert not out.exists()


def _sum(terms: int) -> str:
    """x1 + ... + x1 + nu1, a tree of depth terms."""
    return "+".join(["x1"] * (terms - 1) + ["nu1"])


@pytest.mark.parametrize("command", [("analyze",), ("criteria", "--r", "1")])
def test_a_sum_at_the_depth_limit_runs(tmp_path, capsys, command):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": _sum(MAX_DEPTH)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, *command, "--symbol", str(path), "--level", "3")
    assert code == 0 and out.exists()
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("expr, col", [
    (_sum(MAX_DEPTH + 1), None),
    # refused where the nesting passes MAX_PARSE_FRAMES = 600, whatever the
    # caller's stack depth
    ("(" * 300 + "x1" + ")" * 300, 121),
    ("-" * 1200 + "x1", 601),
], ids=["sum-one-level-deeper", "parentheses", "unary-minus"])
@pytest.mark.parametrize("command", ["analyze", "criteria"])
def test_a_deeper_expression_exits_2_with_one_named_line(tmp_path, capsys, expr, col, command):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": expr}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, command, "--symbol", str(path), "--level", "3")
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "nested" in err, err
    if col is not None:
        assert err == (f"error: bad symbol file {path}: 1:{col}: "
                       "expression nested too deeply to parse\n")


@pytest.mark.parametrize("expr, args, message", [
    # 496 diagonal entries of 1e307: the matrix trace is the first sum read
    ("1e307+0*absnu", ("analyze", "--level", "30"), "the matrix trace"),
    ("1e307+0*absnu", ("trace", "--level", "30"), "the matrix trace"),
    # sigma = 1e110, sigma^3 leaves the double range
    ("1e110+0*absnu", ("analyze", "--level", "5", "--r", "3"), "the Schatten sum of order 3.0"),
    # (sum of 1326 sigma^0.01)^100
    (None, ("analyze", "--builtin", "power", "--param", "sigma=1", "--level", "50",
            "--r", "0.01"), "the Schatten norm of order 0.01"),
    # 1/r is inf, and a Python power to inf is inf without an OverflowError
    (None, ("analyze", "--builtin", "power", "--param", "sigma=1", "--level", "3",
            "--r", "1e-320"), "the Schatten norm of order 1e-320"),
], ids=["analyze-matrix-trace", "trace-matrix-trace", "schatten-sum", "schatten-norm",
        "schatten-norm-subnormal-r"])
def test_an_overflowing_trace_or_schatten_power_exits_3_naming_it(tmp_path, capsys, expr, args,
                                                                   message):
    if expr is None:
        args = (*args, "--dim", "2")
    else:
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"kind": "expression", "dim": 2, "expr": expr}))
        args = (*args, "--symbol", str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, *args)
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {message} overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("expr, level, message", [
    # m is finite on the grid, m^2 is not; the first splits into a(nu) b(x)
    ("1e200*(1+x1^2)", "3", "the order-35 quadrature sum of m^2 phi_nu^2 overflows at nu=(0,)"),
    ("1e200*(1+nu1*x1^2)", "3",
     "the order-35 quadrature sum of m^2 phi_nu^2 overflows at nu=(0,)"),
    # every m^2 sum is finite, their total is not
    ("1.2e153*(1+0.000001*x1^2)", "200",
     "the Frobenius norm in the order-464 doubling check overflows"),
], ids=["separable", "non-separable", "frobenius"])
@pytest.mark.parametrize("command", ["analyze", "criteria", "trace"])
def test_overflowing_sums_of_a_finite_symbol_exit_3_with_one_line(tmp_path, capsys, command,
                                                                   expr, level, message):
    if command == "criteria" and "doubling" in message:
        # criteria runs no doubling check: its HS-iff sum, of the same pass, overflows
        message = "the HS-iff sum overflows"
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": expr}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, command, "--symbol", str(path), "--level", level)
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


SUM_OVERFLOW = "1.2e153*(1+0.000001*x1^2)"  # every m^2 column integral is about 1.4e306


@pytest.mark.parametrize("dim, args, message", [
    (1, ("converge", "--quantity", "hs", "--level", "100,200"),
     "the Hilbert-Schmidt sum of the integrals of m^2 phi_nu^2 overflows"),
    # the weight (2|nu|+1)^(2 sigma) times one column integral leaves the range
    (1, ("criteria", "--level", "200", "--r", "1.5"), "the Sr-sigma sum over shell 19 overflows"),
    # above 512 basis functions HS-iff reads the column integrals alone
    (2, ("criteria", "--level", "40", "--r", "2"), "the HS-iff sum overflows"),
    # the weights (2|nu|+1)^400 alone leave the range
    (None, ("criteria", "--builtin", "power", "--param", "sigma=0.5", "--dim", "1",
            "--level", "10", "--r", "1.5", "--sigma", "200"),
     "the Sr-sigma sum over shell 3 overflows"),
], ids=["converge-hs", "criteria-sr-sigma", "criteria-hs", "sr-sigma-weights"])
def test_overflowing_reported_sums_name_the_quantity(tmp_path, capsys, dim, args, message):
    if dim is not None:
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"kind": "expression", "dim": dim, "expr": SUM_OVERFLOW}))
        args = (*args, "--symbol", str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, *args)
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("expr, args", [
    # (2|nu|+1)^200 is finite, its square is not
    (None, ("--builtin", "power", "--param", "sigma=-200")),
    # m = 1e307 is finite, m^2 is not
    ("1e307+0*absnu", ()),
], ids=["builtin", "expression"])
def test_an_overflowing_hilbert_schmidt_cross_check_exits_3_with_one_line(tmp_path, capsys,
                                                                          expr, args):
    # at 512 basis functions or fewer HS-iff also squares the matrix entries
    if expr is not None:
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"kind": "expression", "dim": 2, "expr": expr}))
        args = ("--symbol", str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "criteria", *args, "--level", "3", "--r", "2")
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: the HS-iff sum overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("expr, smallest", [
    ("x1^2-1", "-9.013e-01"),  # a symmetric matrix with an eigenvalue near -0.9
    ("nu1-1", "-1.000e+00"),  # a multiplier, whose 1 x 1 blocks take the same check
], ids=["x-dependent", "multiplier"])
def test_positivity_refusal_of_a_symmetric_matrix_exits_2(tmp_path, capsys, expr, smallest):
    # each symbol claims positivity
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": expr,
                                "positive_selfadjoint": True}))
    code, out = run(tmp_path, "criteria", "--symbol", str(path), "--level", "10", "--r", "1")
    assert code == 2
    assert capsys.readouterr().err == (f"error: positivity check failed: smallest eigenvalue "
                                       f"{smallest} below -1e-08 * ||M||\n")
    assert not out.exists()


def test_a_product_of_finite_factors_that_overflows_keeps_its_message(tmp_path, capsys):
    # e^(200 nu1) and 1e200 + x1^2 are finite, their product is not at nu1 = 2
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1,
                                "expr": "exp(200*nu1)*(1e200+x1^2)"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "trace", "--symbol", str(path), "--level", "3")
    assert code == 2
    assert capsys.readouterr().err == ("error: symbol evaluation not finite at "
                                       "x=(-7.504021146448938,), nu=(2,)\n")
    assert not out.exists()


def test_a_split_symbol_is_judged_finite_on_a_times_b(tmp_path):
    # evaluated left to right, 1e307*x1^2 overflows at the outer nodes; split,
    # it is a = 1e307*1e-307 and b = x1^2, finite everywhere
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": "1e307*x1^2*1e-307"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "trace", "--symbol", str(path), "--level", "3")
    assert code == 0
    # the trace of x1^2 over phi_0..phi_3 is 1/2 + 3/2 + 5/2 + 7/2
    assert json.loads(out.read_text())["matrix_trace"] == pytest.approx(8.0, rel=1e-14)


def test_reports_are_byte_identical(tmp_path):
    args = ("criteria", "--builtin", "heat", "--param", "t=1", "--dim", "1",
            "--level", "25", "--r", "1,2")
    _, a = run(tmp_path, *args, name="a.json")
    _, b = run(tmp_path, *args, name="b.json")
    assert a.read_bytes() == b.read_bytes()


def test_csv_output(tmp_path):
    code, out = run(tmp_path, "analyze", "--builtin", "power", "--param", "sigma=1",
                    "--dim", "1", "--level", "3", "--r", "2", "--format", "csv",
                    name="sv.csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,singular_value"
    assert len(lines) == 5


@pytest.mark.parametrize("command", ["trace", "basis-check"])
def test_csv_on_a_command_without_a_table_exits_2(tmp_path, capsys, command):
    symbol = () if command == "basis-check" else ("--builtin", "heat", "--param", "t=1")
    code, out = run(tmp_path, command, *symbol, "--level", "3", "--format", "csv")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --format csv: {command} has no table; "
        "the commands with one are analyze, criteria, converge\n")
    assert not out.exists()


def test_repeated_calls_in_one_process_write_the_bytes_of_fresh_calls(tmp_path):
    # the parser is built once per process: no call may leave state in it,
    # such as an entry in --param's shared default list
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "expression", "dim": 1,
                               "expr": "exp(-absnu)/(1+x1^2)"}))
    argvs = [
        ("analyze", "--symbol", str(sym), "--level", "6"),
        ("analyze", "--builtin", "heat", "--param", "t=0.5", "--level", "6"),
        ("criteria", "--builtin", "power", "--param", "sigma=1.5", "--param", "sigma=2",
         "--dim", "2", "--level", "8", "--r", "1,2"),
        ("criteria", "--symbol", str(sym), "--level", "6", "--r", "2"),
    ]
    sequence = [0, 1, 0, 2, 3, 1, 3]
    repeated = [run(tmp_path, *argvs[i], name=f"seq{k}.json") for k, i in enumerate(sequence)]
    fresh = []
    for i, argv in enumerate(argvs):
        hspec.cli.build_parser.cache_clear()
        fresh.append(run(tmp_path, *argv, name=f"fresh{i}.json"))
    for (code, out), i in zip(repeated, sequence):
        assert code == 0 and fresh[i][0] == 0
        assert out.read_bytes() == fresh[i][1].read_bytes()


# blocks SciPy, checks that the import left it out, then runs main on argv
NO_SCIPY = """
import sys
import hspec.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "hspec.cli imported scipy"
sys.modules["scipy"] = None
sys.exit(hspec.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args", [
    ("analyze", "--symbol", "sym2d.json", "--level", "34"),
    ("criteria", "--symbol", "sym3d.json", "--level", "5", "--r", "1,1.5,2"),
    ("analyze", "--builtin", "heat", "--param", "t=1", "--dim", "2", "--level", "50"),
    ("basis-check", "--level", "100"),
], ids=["xdep-2d", "xdep-3d", "multiplier", "basis-check"])
def test_default_paths_run_without_scipy(tmp_path, args):
    (tmp_path / "sym2d.json").write_text(json.dumps(
        {"kind": "expression", "dim": 2, "expr": "lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))"}))
    (tmp_path / "sym3d.json").write_text(json.dumps(
        {"kind": "expression", "dim": 3,
         "expr": "exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2+0.4*x3^2)"}))
    env = dict(os.environ, PYTHONPATH=str(Path(hspec.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", NO_SCIPY, *args,
                           "--output", "out.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out.json").read_text())["command"] == args[0]


def _leaves(value, path=()):
    """(path, scalar) for every scalar of a report, in sorted key order."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


@pytest.mark.parametrize("command, expr, level", [
    ("analyze", "lam^(-0.8)*(1+0.5*x1*x2/(1+x1^2+x2^2))", "34"),
    ("trace", "1/(1+x1^2+(1+0.1*nu2)*x2^2)", "30"),
], ids=["two-block-analyze", "non-splitting-trace"])
def test_reports_agree_across_blas_thread_counts(tmp_path, command, expr, level):
    # the bytes may differ with the thread count; sigma agree within 1e-14
    # sigma_1 and every other float within 1e-14 relative
    (tmp_path / "sym.json").write_text(json.dumps({"kind": "expression", "dim": 2,
                                                   "expr": expr}))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(hspec.cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "hspec.cli", command, "--symbol", "sym.json",
                               "--level", level], cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        reports.append(doc.get("report", doc))
    sv = [np.array(r.pop("singular_values", [1.0])) for r in reports]
    assert len(sv[0]) == len(sv[1])
    assert np.abs(sv[0] - sv[1]).max() <= 1e-14 * sv[1][0]
    one, two = (list(_leaves(r)) for r in reports)
    assert [path for path, _ in one] == [path for path, _ in two]
    for (path, a), (_, b) in zip(one, two):
        if type(b) is float:
            assert a == pytest.approx(b, rel=1e-14, abs=0), path
        else:
            assert a == b, path


def test_expression_symbol_file(tmp_path):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "expression", "dim": 1,
                               "expr": "x1 * exp(-absnu)"}))
    code, out = run(tmp_path, "trace", "--symbol", str(sym), "--level", "25")
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["formula_trace"]) < 1e-12
    assert abs(doc["spectral_trace"]) < 1e-12


def test_symbol_file_with_parse_error_exits_2(tmp_path, capsys):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": "exp("}))
    assert main(["trace", "--symbol", str(sym), "--level", "5"]) == 2
    assert "1:5" in capsys.readouterr().err


def test_undefined_multiplier_exits_2(tmp_path, capsys):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": "1/absnu"}))
    code, out = run(tmp_path, "analyze", "--symbol", str(sym), "--level", "5")
    assert code == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"kind": "expression", "dim": 1},
    {"kind": "expression", "dim": None, "expr": "x1"},
    {"kind": "expression", "dim": "1", "expr": "x1"},
    {"kind": "builtin", "dim": 1, "family": "heat", "params": [1]},
    {"kind": "builtin", "dim": 1, "params": {"t": 1}},
    {"kind": "builtin", "dim": 0, "family": "heat", "params": {"t": 1}},
    {"kind": "table", "dim": 1},
    [{"kind": "expression", "dim": 1, "expr": "x1"}],
    {"kind": "expression", "dim": 1, "expr": 5},
], ids=["no-expr", "null-dim", "string-dim", "list-params", "no-family", "dim-0", "no-table",
        "not-a-mapping", "number-expr"])
def test_malformed_symbol_documents_exit_2(tmp_path, capsys, doc):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(doc))
    assert main(["analyze", "--symbol", str(sym), "--level", "3"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_exits_3(tmp_path, capsys, fmt):
    # the trace formula is 1e308 at level 0 and -1.5e308 at level 2, both
    # finite; their difference is not, so the report has -inf, in
    # successive_differences, which is not a CSV row
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1,
                                "expr": "1e308*(1-2.25*min(absnu,1))"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "converge", "--symbol", str(path), "--level", "0,2",
                        "--format", fmt)
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: the report has non-finite values\n"
    assert not out.exists()


@pytest.mark.parametrize("symbol", [
    {"kind": "expression", "dim": 2, "expr": "1/(1+0.5*x1^2+0.3*x2^2)",
     "positive_selfadjoint": True},
    {"kind": "builtin", "dim": 2, "family": "heat", "params": {"t": 0.5},
     "positive_selfadjoint": True},
], ids=["x-dependent", "builtin"])
def test_criteria_verdicts_equal_the_single_r_runs(tmp_path, symbol):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(symbol))
    args = ("criteria", "--symbol", str(path), "--dim", "2", "--level", "8", "--r", "0.5,1,1.5,2")
    code, out = run(tmp_path, *args)
    assert code == 0
    sym, spec = symbol_from_dict(symbol), TruncationSpec(2, 8)
    # r = 1 gives Sr-sufficient, then TraceClass-iff for a symbol that claims positivity
    expected = [v for r in (0.5, 1.0, 1.5, 2.0) for v in criteria(sym, spec, None, (r,))]
    assert [v["criterion"] for v in expected] == [
        "Sr-sufficient", "Sr-sufficient", "TraceClass-iff", "Sr-sigma", "HS-iff"]
    # the report writes the verdicts criteria() returns, as they are
    verdicts = criteria(sym, spec, None, (0.5, 1.0, 1.5, 2.0))
    assert json.loads(out.read_text())["verdicts"] == expected == verdicts
    code, out = run(tmp_path, *args, "--format", "csv", name="out.csv")
    assert code == 0
    text = out.read_text()
    assert text.splitlines() == ["criterion,shell,sum"] + [
        f"{v['criterion']},{s!r},{total!r}" for v in verdicts for s, total in v["shells"]]
    # the cells read back as the verdicts' own values, the criterion unquoted
    header, *rows = csv.reader(text.splitlines())
    assert header == ["criterion", "shell", "sum"]
    assert [[c, int(s), float(total)] for c, s, total in rows] == [
        [v["criterion"], s, total] for v in verdicts for s, total in v["shells"]]


@pytest.mark.parametrize("symbol, extra, message", [
    # an odd order puts node 0 on the grid
    ({"kind": "expression", "dim": 1, "expr": "1/x1"}, ["--quad", "9"],
     "symbol evaluation not finite at x=(0.0,), nu=(0,)"),
    ({"kind": "expression", "dim": 1, "expr": "x1/(absnu-1)"}, [], "nu=(1,)"),
    ({"kind": "table", "dim": 1, "table": {
        "grids": [[-1.0, 1.0]], "values": {str(k): [1.0, 2.0] for k in range(5)}}}, [],
     "outside tabulated hull"),
], ids=["node-at-zero", "nu-dependent", "table-hull"])
@pytest.mark.parametrize("command", ["analyze", "criteria", "trace"])
def test_symbol_undefined_on_the_grid_exits_2(tmp_path, capsys, command, symbol, extra, message):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(symbol))
    code, out = run(tmp_path, command, "--symbol", str(path), "--level", "4", *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


HEAT = ("--builtin", "heat", "--param", "t=1")


@pytest.mark.parametrize("args, expr", [
    (("analyze", "--builtin", "heat", "--param", "t"), None),
    (("analyze", "--builtin", "heat", "--param", "t=abc"), None),
    (("analyze", *HEAT, "--level", "a"), None),
    (("analyze", *HEAT, "--level", "-1"), None),
    (("analyze", *HEAT, "--r", "x"), None),
    (("analyze", *HEAT, "--r", "0"), None),
    (("analyze", "--symbol", "F", *HEAT), None),
    (("analyze", "--builtin", "heat", "--param", "x=1"), None),
    (("analyze", *HEAT, "--level", "5,6"), None),
    (("analyze", *HEAT, "--dim", "0"), None),
    (("criteria", *HEAT, "--r", "3"), None),
    (("analyze", "--level", "3"), "1.2.3"),
    (("analyze", "--level", "3"), "x1 $ 2"),
    (("analyze", "--level", "3"), "x1 x1"),
], ids=["param-without-value", "param-not-a-number", "level-not-an-integer", "level-negative",
        "r-not-a-number", "r-zero", "symbol-and-builtin", "wrong-param-name",
        "analyze-two-levels", "dim-0", "criteria-r-above-2", "malformed-number",
        "unexpected-character", "trailing-input"])
def test_usage_errors_exit_2_with_one_error_line(tmp_path, capsys, args, expr):
    if expr is not None:
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": expr}))
        args = (*args, "--symbol", str(sym))
    code, out = run(tmp_path, *args)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert not out.exists()


TABLE_GRID = [[-1.0, 1.0]]
DIRECTORY = object()  # the symbol path is a directory


@pytest.mark.parametrize("args, doc", [
    (("analyze", *HEAT, "--level", "4", "--r", "inf"), None),
    (("analyze", *HEAT, "--level", "4", "--r", "nan"), None),
    (("criteria", *HEAT, "--r", "1.5", "--sigma", "nan"), None),
    (("criteria", *HEAT, "--r", "1.5", "--sigma", "inf"), None),
    # echoed in the report, though no criterion at r = 1 or 2 reads it
    (("criteria", *HEAT, "--r", "1,2", "--sigma", "nan"), None),
    (("analyze", "--builtin", "heat", "--param", "t=inf"), None),
    (("analyze", "--builtin", "heat", "--param", "t=nan"), None),
    (("trace",), {"kind": "builtin", "dim": 1, "family": "heat", "params": {"t": math.inf}}),
    (("trace",), '{"kind": "builtin", "dim": 1, "family": "heat", "params": {"t": 1e400}}'),
    (("trace",), {"kind": "builtin", "dim": 1, "family": "heat", "params": {"t": None}}),
    (("trace",), {"kind": "builtin", "dim": 1, "family": "heat", "params": {"t": [1]}}),
    (("trace",), {"kind": "table", "dim": 1, "table": [TABLE_GRID, [1.0, 2.0]]}),
    (("trace",), {"kind": "table", "dim": 1, "table": {"grids": TABLE_GRID}}),
    # bool("no") and bool("false") are True, which these symbols would satisfy
    (("criteria", "--r", "1"), {"kind": "expression", "dim": 1, "expr": "1/(1+x1^2)",
                                "positive_selfadjoint": "no"}),
    (("trace",), {"kind": "expression", "dim": 1, "expr": "exp(-absnu)",
                  "multiplier": "false"}),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": TABLE_GRID, "values": {str(k): [1.0, 2.0] for k in range(4)}}}),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": TABLE_GRID, "values": {"a": [1.0, 2.0]}}}),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": TABLE_GRID, "values": {"0": [1.0, 2.0, 3.0]}}}),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": TABLE_GRID, "values": {"0": "abc"}}}),
    (("trace",), {"kind": "table", "dim": 1, "table": {"grids": [{}], "values": {}}}),
    # a node or value of 1e400 is parsed as inf; the report would echo it
    (("trace",), '{"kind": "table", "dim": 1, "table": {"grids": [[-20, 1e400]], '
                 '"values": {"0": [1, 1], "1": [1, 1], "2": [1, 1], "3": [1, 1]}}}'),
    (("trace",), '{"kind": "table", "dim": 1, "table": {"grids": [[-20, 20]], '
                 '"values": {"0": [1, 1], "1": [1, 1], "2": [1, 1], "3": [1, 1], '
                 '"9": [1, 1e400]}}}'),
    (("trace",), '{"kind": "table", "dim": 1, "table": {"grids": [[-20, 20]], '
                 '"values": {"0": [1, 1], "1": [1, 1e400], "2": [1, 1], "3": [1, 1]}}}'),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": [[-20, "20"]], "values": {"0": [1, 1]}}}),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": [[-20, 20]], "values": {"0": [1, None]}}}),
    (("trace",), {"kind": "table", "dim": 1, "table": {
        "grids": [[1.0, -1.0]], "values": {"0": [1.0, 2.0]}}}),
    (("trace",), {"kind": "builtin", "dim": 1, "family": "nope", "params": {"t": 1}}),
    (("trace",), {"kind": "builtin", "dim": 1, "family": "heat", "params": {"sigma": 1}}),
    (("trace",), {"kind": "expression", "dim": 0, "expr": "x1"}),
    (("trace",), b'\xff\xfe{"kind": "expression"}'),
    (("trace",), "{not json"),
    (("analyze",), DIRECTORY),
    # a "multiplier" claim is checked against every kind
    (("analyze",), {"kind": "expression", "dim": 1, "expr": "x1", "multiplier": True}),
    (("criteria",), {"kind": "builtin", "dim": 1, "family": "heat", "params": {"t": 1},
                     "multiplier": False}),
    (("trace",), {"kind": "table", "dim": 1, "multiplier": True, "table": {
        "grids": [[-20, 20]], "values": {"0": [1, 2], "1": [1, 2], "2": [1, 2], "3": [1, 2]}}}),
], ids=["r-inf", "r-nan", "sigma-nan", "sigma-inf", "sigma-nan-unread", "param-inf", "param-nan",
        "file-param-infinity", "file-param-overflow", "file-param-null", "file-param-list",
        "table-list", "table-without-values", "psd-string", "multiplier-string", "table-hull",
        "table-key-not-an-index", "table-values-wrong-length", "table-values-not-numbers",
        "table-grid-not-a-list", "table-grid-overflow", "table-value-overflow-unread",
        "table-value-overflow-read", "table-grid-string", "table-value-null",
        "table-grid-descending", "file-unknown-family", "file-wrong-param", "file-dim-0",
        "undecodable-bytes", "not-json", "symbol-is-a-directory", "file-multiplier-expression",
        "file-multiplier-builtin", "file-multiplier-table"])
def test_non_finite_and_malformed_inputs_exit_2_with_one_error_line(tmp_path, capsys, args, doc):
    if doc is not None:
        sym = tmp_path / "sym.json"
        if doc is DIRECTORY:
            sym.mkdir()
        elif isinstance(doc, bytes):
            sym.write_bytes(doc)
        else:
            sym.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        args = (*args, "--symbol", str(sym), "--level", "3")
    code, out = run(tmp_path, *args)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "np.float64" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    # every error in loading a symbol file names the file once; a table's
    # hull is checked later, where the symbol is evaluated
    if doc is DIRECTORY:
        assert lines[0] == f"error: cannot read symbol file {sym}: {os.strerror(errno.EISDIR)}"
    elif doc is not None and "tabulated hull" not in err:
        assert lines[0].startswith(f"error: bad symbol file {sym}: "), err
    if doc is not None and "tabulated hull" not in err:
        assert lines[0].count(str(sym)) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("output, errno_code", [
    ("missing/out.json", errno.ENOENT),
    (".", errno.EISDIR),
], ids=["missing-directory", "directory"])
def test_an_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, output,
                                                            errno_code):
    path = tmp_path / output
    code = main(["analyze", *HEAT, "--level", "3", "--output", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write --output {path}: {os.strerror(errno_code)}\n")


@pytest.mark.parametrize("command", ["analyze", "trace"])
def test_residual_warning_names_the_worst_column(tmp_path, capsys, command):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1,
                                "expr": "exp(-absnu)/(1+25*x1^2)"}))
    args = (command, "--symbol", str(path), "--level", "6", "--quad", "8")
    code, out = run(tmp_path, *args)
    assert code == 0
    doc = json.loads(out.read_text())
    assert (doc.get("report") or doc)["residual_warning"] is True
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    # independent q and 2q matrices, compared column by column
    sym, spec = symbol_from_dict(json.loads(path.read_text())), TruncationSpec(1, 6)
    coarse = assemble_matrix(sym, spec, q=8, doubling_check=False).entries
    fine = assemble_matrix(sym, spec, q=16, doubling_check=False).entries
    change = np.linalg.norm(fine - coarse, axis=0) / np.linalg.norm(fine, axis=0)
    k = int(np.argmax(change))
    assert f"nu={tuple(spec.array[k].tolist())}" in lines[0]
    assert f"{change[k]:.3e}" in lines[0]
    # the warning goes to stderr: stdout carries the same report bytes
    assert main(list(args)) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert captured.err.splitlines() == lines


@pytest.mark.parametrize("expr, dim, level, column", [
    # no mu with |mu| <= 1 has mu_1 and mu_2 odd, so column (0, 1) is zero
    ("x1*exp(-absnu)/(1+x2^2)", 2, 1, "nu=(0, 0) moved most between q and 2q "
                                      "(relative change 2.477e-02)"),
    # column (0, 1, 1) is zero too, up to roundoff of 4.9e-18 |M|_F on the whole grid
    ("exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)", 3, 2, "nu=(0, 0, 2) moved most between q and 2q "
                                                   "(relative change 2.853e-01)"),
])
def test_the_warning_names_no_column_that_is_zero_in_exact_arithmetic(tmp_path, capsys, expr,
                                                                     dim, level, column):
    # m is odd in x1 and even in the other axes, so M[mu, nu] = 0 unless mu_1 + nu_1 is
    # odd and mu_j + nu_j even for j > 1; such entries are exact zeros, not roundoff
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": dim, "expr": expr}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, "analyze", "--symbol", str(path), "--level", str(level),
                      "--quad", "4")
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: quadrature residual above threshold; column {column}"]


def test_no_residual_warning_line_when_resolved(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 1,
                                "expr": "(1+x1^2)*exp(-absnu)"}))
    code, out = run(tmp_path, "analyze", "--symbol", str(path), "--level", "10")
    assert code == 0
    assert json.loads(out.read_text())["report"]["residual_warning"] is False
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["analyze", "criteria", "trace"])
def test_dim_defaults_to_the_symbol_file(tmp_path, command):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 2,
                                "expr": "exp(-absnu)/(1+0.5*x1^2+0.3*x2^2)"}))
    args = (command, "--symbol", str(path), "--level", "4")
    code, implicit = run(tmp_path, *args, name="implicit.json")
    assert code == 0
    code, explicit = run(tmp_path, *args, "--dim", "2", name="explicit.json")
    assert code == 0
    assert implicit.read_bytes() == explicit.read_bytes()


def test_explicit_dim_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "builtin", "dim": 2, "family": "heat",
                                "params": {"t": 0.5}}))
    code, out = run(tmp_path, "criteria", "--symbol", str(path), "--dim", "1", "--level", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert "symbol dimension 2 != truncation dimension 1" in err and "Traceback" not in err
    assert not out.exists()


QUAD_COMMANDS = {"analyze": (), "criteria": (), "trace": (), "converge": ("--quantity", "hs")}


@pytest.mark.parametrize("symbol", ["builtin", "expression"])
@pytest.mark.parametrize("command", sorted(QUAD_COMMANDS))
def test_quad_below_level_plus_one_exits_2(tmp_path, capsys, command, symbol):
    if symbol == "builtin":
        source = ("--builtin", "heat", "--param", "t=0.5")
    else:
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"kind": "expression", "dim": 1,
                                    "expr": "exp(-absnu)/(1+x1^2)"}))
        source = ("--symbol", str(path))
    # converge checks the order against its top level only
    level = "3,10" if command == "converge" else "10"
    code, out = run(tmp_path, command, *source, "--level", level, "--quad", "5",
                    *QUAD_COMMANDS[command])
    assert code == 2
    assert capsys.readouterr().err == "error: quadrature order 5 must be at least N+1 = 11\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(QUAD_COMMANDS))
def test_quad_error_comes_before_the_dimension_error(tmp_path, capsys, command):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 2,
                                "expr": "exp(-absnu)/(1+x1^2+x2^2)"}))
    # converge's one pass is at its top level, 5
    level, top = ("4,5", 6) if command == "converge" else ("4", 5)
    code, _ = run(tmp_path, command, "--symbol", str(path), "--dim", "1", "--level", level,
                  "--quad", "2", *QUAD_COMMANDS[command])
    assert code == 2
    assert capsys.readouterr().err == f"error: quadrature order 2 must be at least N+1 = {top}\n"


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")

    monkeypatch.setattr("hspec.cli.build_report", out_of_memory)
    code, out = run(tmp_path, "analyze", "--builtin", "heat", "--param", "t=1", "--level", "4")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: Unable to allocate 9.31 GiB for an array\n"
    assert not out.exists()
