"""Self-tests of the benchmark harness: python3 -m pytest bench"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hspec.cli  # noqa: E402
import hspec.criteria  # noqa: E402
import hspec.operator  # noqa: E402
import hspec.schatten  # noqa: E402

from check import check_output  # noqa: E402
from run import tail  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

MULT_ANALYZE = Op(0, "analyze", 2, 8, family="heat", params=(("t", "0.3"),))
MULT_CRITERIA = Op(0, "criteria", 2, 12, r="0.5,1,1.5,2", family="power",
                   params=(("sigma", "1.5"),))
XDEP_ANALYZE = Op(0, "analyze", 2, 6, expr="exp(-0.3*absnu)/(1+0.5*x1^2+0.7*x2^2)")
XDEP_CRITERIA = Op(0, "criteria", 2, 6, r="1,1.5,2",
                   expr="1/(1+0.5*x1^2+0.7*x2^2)", positive=True)


def run_op(op: Op, tmp_path: Path) -> tuple[int, str]:
    sym = tmp_path / "sym.json"
    if op.expr is not None:
        sym.write_text(json.dumps(op.symbol_doc()))
    out = tmp_path / "out.json"
    rc = hspec.cli.main(op.argv(str(sym), str(out)))
    return rc, out.read_text()


def corrupt(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("op", [MULT_ANALYZE, MULT_CRITERIA, XDEP_ANALYZE, XDEP_CRITERIA],
                         ids=["mult-analyze", "mult-criteria", "xdep-analyze", "xdep-criteria"])
def test_real_reports_pass(op, tmp_path):
    rc, text = run_op(op, tmp_path)
    assert check_output(op, rc, text) == []


@pytest.mark.parametrize("op", [MULT_ANALYZE, XDEP_ANALYZE], ids=["mult", "xdep"])
def test_rejects_one_perturbed_singular_value(op, tmp_path):
    rc, text = run_op(op, tmp_path)

    def edit(doc):
        doc["report"]["singular_values"][3] *= 1 + 1e-6

    assert check_output(op, rc, corrupt(text, edit))


@pytest.mark.parametrize("op", [MULT_ANALYZE, MULT_CRITERIA], ids=["analyze", "criteria"])
def test_rejects_injected_nan(op, tmp_path):
    rc, text = run_op(op, tmp_path)

    def edit(doc):
        if op.command == "analyze":
            doc["report"]["matrix_trace"] = math.nan
        else:
            doc["verdicts"][0]["shells"][2][1] = math.nan

    errors = check_output(op, rc, corrupt(text, edit))
    assert errors and "non-finite" in errors[0]


@pytest.mark.parametrize("op", [MULT_CRITERIA, XDEP_CRITERIA], ids=["closed-form", "identity"])
def test_rejects_consistent_but_wrong_shell(op, tmp_path):
    # partial_sum is kept consistent, so only the closed form (multiplier) or
    # the cross-criterion identity (x-dependent) can catch the change
    rc, text = run_op(op, tmp_path)

    def edit(doc):
        hs = next(v for v in doc["verdicts"] if v["criterion"] == "HS-iff")
        hs["shells"][4][1] *= 1 + 1e-6
        hs["partial_sum"] = math.fsum(v for _, v in hs["shells"])

    assert check_output(op, rc, corrupt(text, edit))


def test_rejects_exit_code_and_garbage():
    assert check_output(MULT_ANALYZE, 3, None) == ["exit code 3"]
    assert check_output(MULT_ANALYZE, 0, "{not json")[0].startswith("unparsable JSON")


def test_self_times_add_up_to_traced_wall_time(tmp_path):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(XDEP_ANALYZE.symbol_doc()))
    tracer = Tracer()
    with tracer.installed(0):
        start = time.perf_counter()
        assert hspec.cli.main(XDEP_ANALYZE.argv(str(sym), str(tmp_path / "o.json"))) == 0
        wall = time.perf_counter() - start
    assert tracer.spans[0][:2] == ["cli", "main"]
    assert all(s[4] >= 0 for s in tracer.spans[1:])  # one root span per op
    m = layer_metrics(tracer.spans, [XDEP_ANALYZE])
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(math.fsum(self_times(tracer.spans)), rel=1e-9)
    assert abs(total - wall) <= 0.01 * wall + 2e-4
    assert min(self_times(tracer.spans)) >= 0.0


def test_wrappers_cover_every_binding_and_are_removed():
    original = hspec.operator.assemble_matrix
    tracer = Tracer()
    with tracer.installed(0):
        wrapped = hspec.operator.assemble_matrix
        assert wrapped is not original
        for mod in (hspec.schatten, hspec.criteria, hspec.cli):
            assert mod.assemble_matrix is wrapped
    for mod in (hspec.operator, hspec.schatten, hspec.criteria, hspec.cli):
        assert mod.assemble_matrix is original


def test_counts_repeat_exactly(tmp_path):
    ops = [dataclasses.replace(op, level=1) for op in WORKLOADS["xdep-3d"].ops(seed=5, cycles=1)]
    ops.append(XDEP_CRITERIA)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        for op in ops:
            with tracer.installed(op.index):
                assert run_op(op, tmp_path)[0] == 0
        m = layer_metrics(tracer.spans, ops)
        runs.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert runs[0] == runs[1]
    assert runs[0]["symbol.point_evals"] > 0


def test_generator_is_seeded_and_stratified():
    for wl in WORKLOADS.values():
        a, b = wl.ops(seed=3, cycles=2), wl.ops(seed=3, cycles=2)
        assert a == b
        assert a != wl.ops(seed=4, cycles=2)
        assert wl.ops(seed=3, cycles=1) == a[:len(wl.kinds)]
        for cycle in (a[:len(wl.kinds)], a[len(wl.kinds):]):
            assert sorted(op.level for op in cycle) == sorted(
                k[0] if isinstance(k, tuple) else k for k in wl.kinds)


def test_tail_percentile():
    pct, value = tail([float(i) for i in range(1, 31)])
    assert (round(pct, 2), value) == (66.67, 20.0)  # ten samples lie above 20


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shells-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
