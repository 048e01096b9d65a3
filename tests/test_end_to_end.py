"""End-to-end runs of the hspec command: the README's examples, 2-D to 4-D
x-dependent reports at the levels they are used at, large reports and
truncations, and the bounds on their memory.

Each check calls hspec.cli.main in-process, with warnings as errors where
the test says so (`python -W error`).  A check starts a process only where
it needs a fresh one: the README's examples, a peak RSS, and an address-space
limit.  The last test pins the workflow file to the tier-1 command and the
benchmark, so that every check lives here or in another tier-1 module."""

import csv
import json
import math
import os
import re
import resource
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import hspec
from hspec.cli import main

ROOT = Path(__file__).parents[1]
ENV = dict(os.environ, PYTHONPATH=str(Path(hspec.__file__).parents[1]))

SYM3D = "exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2+0.4*x3^2)"
# two parity blocks: the symbol is invariant only under the joint flip
TWO_BLOCKS = "lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))"
FOUR_BLOCKS = "exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)"


def symbol(tmp_path, dim, expr, name="sym.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"kind": "expression", "dim": dim, "expr": expr}))
    return str(path)


def run(tmp_path, *args, strict=True, name="out.json"):
    """main(args) writing to a file under tmp_path; with strict, warnings
    are errors."""
    out = tmp_path / name
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        code = main([*args, "--output", str(out)])
    return code, out


def report(out):
    return json.loads(out.read_text())


def assert_traces_agree(r, abs_tol=0.0):
    assert math.isclose(r["spectral_trace"], r["matrix_trace"], rel_tol=1e-9,
                        abs_tol=abs_tol), r["spectral_trace"] - r["matrix_trace"]


def test_the_readme_quick_taste_and_command_lines_exit_0(tmp_path):
    # the symbol-file example is written to the sym.json that the criteria line reads
    fences = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    taste = [body for lang, body in fences if lang == "python"]
    sym = [body for lang, body in fences if lang == "json"]
    commands = [line.split()[1:] for lang, body in fences if lang == ""
                for line in body.splitlines() if line.startswith("hspec ")]
    assert len(taste) == 1 and len(sym) == 1 and len(commands) == 5, (taste, sym, commands)
    (tmp_path / "sym.json").write_text(sym[0])
    runs = [["-c", taste[0]]] + [["-m", "hspec.cli", *c, "--output", f"readme-{c[0]}.json"]
                                 for c in commands]
    for argv in runs:
        proc = subprocess.run([sys.executable, "-W", "error", *argv], cwd=tmp_path, env=ENV,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.returncode, proc.stderr)


@pytest.mark.parametrize("dim, expr, args, strict", [
    (3, SYM3D, ("--dim", "3", "--level", "12"), False),
    # q = 45 is odd, so the folded grid holds the node 0
    (3, SYM3D, ("--dim", "3", "--level", "12", "--quad", "45"), True),
    (2, TWO_BLOCKS, ("--dim", "2", "--level", "34"), True),
    # a symbol that does not split into a(nu) b(x)
    (2, "1/(1+x1^2+(1+0.1*nu2)*x2^2)", ("--dim", "2", "--level", "30"), True),
], ids=["3d-level-12", "3d-odd-order", "2d-two-blocks", "2d-non-splitting"])
def test_x_dependent_analyze_spectral_and_matrix_traces_agree(tmp_path, dim, expr, args, strict):
    code, out = run(tmp_path, "analyze", "--symbol", symbol(tmp_path, dim, expr), *args,
                    strict=strict)
    assert code == 0
    assert_traces_agree(report(out)["report"])


def test_3d_per_column_analyze_traces_agree_on_the_scale_of_the_trace_norm(tmp_path):
    path = symbol(tmp_path, 3, "exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)")
    code, out = run(tmp_path, "analyze", "--symbol", path, "--level", "6")
    assert code == 0
    # m is odd in x1, so both traces are zero up to rounding
    r = report(out)["report"]
    assert_traces_agree(r, abs_tol=1e-9 * r["schatten_norms"]["1.0"])


def test_4d_criteria_on_the_broadcast_grid(tmp_path):
    path = symbol(tmp_path, 4, "exp(-0.2*absnu)/(1+0.3*x1^2+0.5*x2^2+0.4*x3^2+0.6*x4^2)")
    code, _ = run(tmp_path, "criteria", "--symbol", path, "--level", "10", "--r", "1.5")
    assert code == 0


# runs hspec.cli in a child and prints the child's peak RSS in MB; the
# wrapper's own children are the only ones it counts
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, '-W', 'error', '-m', 'hspec.cli', *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def test_2d_four_block_analyze_at_level_100_is_stored_as_its_blocks(tmp_path):
    # D = 5151: one dense matrix is 212 MB, the four blocks together 53 MB
    path = symbol(tmp_path, 2, FOUR_BLOCKS)
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, "analyze", "--symbol", path,
                           "--level", "100", "--output", "out.json"],
                          cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak = float(proc.stdout)
    assert peak < 450, peak
    assert_traces_agree(report(tmp_path / "out.json")["report"])


@pytest.mark.parametrize("args", [
    # 20,301 singular values
    ("analyze", "--builtin", "heat", "--param", "t=0.2", "--dim", "2", "--level", "200"),
    # 4 x 241 shell sums
    ("criteria", "--builtin", "power", "--param", "sigma=1.5", "--dim", "2", "--level", "240",
     "--r", "0.5,1,1.5,2"),
    ("analyze", "--symbol", "TWO_BLOCKS", "--level", "20"),
], ids=["heat-analyze", "power-criteria", "x-dependent-analyze"])
def test_large_reports_are_the_stdlib_indented_json(tmp_path, args):
    args = [symbol(tmp_path, 2, TWO_BLOCKS) if a == "TWO_BLOCKS" else a for a in args]
    code, out = run(tmp_path, *args)
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


ADDRESS_SPACE = 2_000_000 * 1024  # `ulimit -v 2000000`, in KiB


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv", [
    # D = 230,230
    ["-m", "hspec.cli", "criteria", "--builtin", "power", "--param", "sigma=1.5", "--r", "2",
     "--dim", "6", "--level", "20", "--output", "large6d.json"],
    ["-m", "hspec.cli", "criteria", "--builtin", "power", "--param", "sigma=1.5", "--r", "2",
     "--dim", "1", "--level", "100000", "--output", "large1d.json"],
    ["-c", "import math; from hspec import TruncationSpec, assemble_matrix, builtin_symbol; "
           "f = assemble_matrix(builtin_symbol('power', 6, sigma=1.5), "
           "TruncationSpec(6, 20)).frobenius_squared(); assert math.isfinite(f), f"],
], ids=["criteria-6d", "criteria-1d", "frobenius-6d"])
def test_large_truncations_run_in_2_gb_of_address_space(tmp_path, argv):
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=ENV, capture_output=True,
                          text=True, preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr


def test_a_multipliers_criteria_read_its_1x1_blocks(tmp_path, capsys):
    code, out = run(tmp_path, "criteria", "--builtin", "power", "--param", "sigma=1.1",
                    "--dim", "2", "--level", "30", "--r", "0.5,1,2")
    assert code == 0
    assert capsys.readouterr().err == ""
    gaps = [v["extras"]["relative_gap"] for v in report(out)["verdicts"]
            if v["criterion"] == "HS-iff"]
    assert len(gaps) == 1 and gaps[0] <= 1e-14, gaps


def test_the_criteria_cross_check_keeps_bessels_inequality(tmp_path, capsys):
    path = symbol(tmp_path, 1, "exp(2*x1)")
    code, out = run(tmp_path, "criteria", "--symbol", path, "--level", "4", "--quad", "6",
                    "--r", "2")
    assert code == 0
    assert capsys.readouterr().err == ""
    # the cross-check reads the matrix of the pass that gives the sum
    (v,) = report(out)["verdicts"]
    f, s = v["extras"]["frobenius_squared"], v["partial_sum"]
    assert f <= s * (1 + 1e-12), f / s


def test_criteria_csv_cells_are_unquoted(tmp_path):
    code, out = run(tmp_path, "criteria", "--builtin", "heat", "--param", "t=1", "--level", "2",
                    "--r", "2", "--format", "csv", name="out.csv")
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "HS-iff", rows


def test_converge_of_an_x_dependent_symbol_tops_out_at_trace_bit_for_bit(tmp_path):
    path = symbol(tmp_path, 2, FOUR_BLOCKS)
    code, converge = run(tmp_path, "converge", "--symbol", path, "--level", "10,20,40",
                         name="converge.json")
    assert code == 0
    code, trace = run(tmp_path, "trace", "--symbol", path, "--level", "40", name="trace.json")
    assert code == 0
    c, t = report(converge)["values"], report(trace)["formula_trace"]
    assert c[-1] == [40, t], (c, t)


def test_converge_of_a_multiplier_is_trace_at_every_level(tmp_path):
    power = ("--builtin", "power", "--param", "sigma=1.5", "--dim", "2")
    code, converge = run(tmp_path, "converge", *power, "--level", "5,10,20,40",
                         name="converge.json")
    assert code == 0
    traces = []
    for n in (5, 10, 20, 40):
        code, trace = run(tmp_path, "trace", *power, "--level", str(n), name=f"trace-{n}.json")
        assert code == 0
        traces.append([n, report(trace)["formula_trace"]])
    c = report(converge)["values"]
    assert c == traces, (c, traces)


KEPT_RUNS = [
    "python -m pip install numpy scipy pytest hypothesis mpmath",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors",
    "python -m pytest -q bench",
    "for workload in xdep-2d xdep-3d multiplier-2d shells-2d; do\n"
    "  python3 bench/run.py --workload \"$workload\" --seed 1 --seconds 1 --trace 1\n"
    "done",
]


def _runs(text):
    """The command of each `run:` key, a `|` block dedented."""
    keys = re.findall(r"^( *)(?:- )?run: (.*)\n((?:\1 +.*\n)*)", text, re.M)
    return [textwrap.dedent(block).rstrip("\n") if value == "|" else value
            for _, value, block in keys]


def test_the_workflow_runs_only_the_tier_1_tests_and_the_benchmark():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"uses: (\S+)", text) == ["actions/checkout@v4", "actions/setup-python@v5"]
    assert _runs(text) == KEPT_RUNS
