"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

import hspec as H
from hspec.cli import main as cli_main
from oracles import (dense_basis, heat_trace_limit, kernel_sum, mehler_heat_kernel,
                     odd_reciprocal_square_sum)
from test_symbol import CORPUS


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_heat_trace_oracle(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "trace.json"
    code = cli_main(["trace", "--builtin", "heat", "--param", "t=1", "--dim", "1",
                     "--level", "30", "--quad", "64", "--output", str(out)])
    elapsed = time.perf_counter() - t0
    doc = json.loads(out.read_text())
    oracle = heat_trace_limit(1.0)  # geometric series, 1/(2 sinh 1)
    ok = (
        code == 0
        and abs(doc["formula_trace"] - oracle) <= 1e-10
        and abs(doc["spectral_trace"] - oracle) <= 1e-10
        and elapsed < 1.0
    )
    report("1 heat-trace oracle", ok,
           f"formula={doc['formula_trace']:.12f} spectral={doc['spectral_trace']:.12f} "
           f"oracle={oracle:.12f} elapsed={elapsed:.2f}s")


def test_criterion_2_hilbert_schmidt_cross_check():
    t0 = time.perf_counter()
    gaps = {}
    for sym in (H.builtin_symbol("heat", 1, t=1.0),
                H.parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)):
        for level in (20, 40):
            spec = H.TruncationSpec(1, level)
            m = H.assemble_matrix(sym, spec, q=120)
            fro2 = float(np.sum(m.entries**2))
            # the sum of m's order-q column integrals of m^2 phi_nu^2
            direct = H.build_report(m, ())["hilbert_schmidt_direct"]
            gaps[(sym.kind, level)] = abs(fro2 - direct) / direct
    elapsed = time.perf_counter() - t0
    ok = (
        all(g <= 1e-3 for g in gaps.values())
        and gaps[("expression", 40)] <= gaps[("expression", 20)] / 10.0
        and gaps[("builtin", 40)] <= max(gaps[("builtin", 20)] / 10.0, 1e-14)
        and elapsed < 10.0
    )
    shown = {f"{kind} N={level}": f"{g:.2e}" for (kind, level), g in gaps.items()}
    report("2 Hilbert-Schmidt cross-check", ok, f"gaps={shown} elapsed={elapsed:.2f}s")


def test_criterion_3_multiplier_singular_values():
    spec = H.TruncationSpec(1, 50)
    sym = H.builtin_symbol("power", 1, sigma=1.0)
    m = H.assemble_matrix(sym, spec)
    analytic = np.sort(np.abs(H.eval_symbol(sym, 0.0, spec.array)[:, 0]))[::-1]
    exact = np.sort(np.array([(2.0 * k + 1.0) ** -1.0 for k in range(51)]))[::-1]
    svd = H.singular_values(m)
    ok = (
        np.array_equal(analytic, exact)
        and np.abs(svd - analytic).max() <= 1e-12
    )
    report("3 multiplier singular values", ok,
           f"bitwise={np.array_equal(analytic, exact)} "
           f"svd_gap={np.abs(svd - analytic).max():.2e}")


def test_criterion_4_power_schatten_threshold():
    t0 = time.perf_counter()
    spec = H.TruncationSpec(1, 100000)
    sym = H.builtin_symbol("power", 1, sigma=1.0)
    conv = H.check_multiplier_schatten(sym, spec, r=1.2)
    div = H.check_multiplier_schatten(sym, spec, r=0.9)
    elapsed = time.perf_counter() - t0
    growth = div["extras"]["growth_exponent"]
    ok = (
        conv["tail_flag"] == "converging"
        and div["tail_flag"] == "diverging"
        and abs(growth - 0.1) <= 0.02
        and elapsed < 5.0
    )
    report("4 inverse-oscillator Schatten threshold", ok,
           f"p=1.2 -> {conv['tail_flag']}, p=0.9 -> {div['tail_flag']} "
           f"(growth {growth:.4f}), elapsed={elapsed:.2f}s")


def test_criterion_5_trace_class_value():
    spec = H.TruncationSpec(1, 10000)
    _, v = H.criteria.criteria(H.builtin_symbol("power", 1, sigma=2.0), spec, None, (1.0,))
    oracle = odd_reciprocal_square_sum()  # pi^2 / 8
    ok = abs(v["partial_sum"] - oracle) <= 1e-4
    report("5 trace-class criterion value", ok,
           f"partial={v['partial_sum']:.10f} oracle={oracle:.10f} "
           f"err={abs(v['partial_sum'] - oracle):.2e}")


def test_criterion_6_orthonormality_suite():
    rule = H.gauss_hermite_rule(64)
    table = H.hermite_table(30, rule.nodes) * np.exp(rule.nodes**2 / 2)
    gram = (table * rule.weights) @ table.T
    resid_1d = np.abs(gram - np.eye(31)).max()

    spec = H.TruncationSpec(2, 10)
    basis, _, _ = dense_basis(spec, H.gauss_hermite_rule(42))
    gram2 = basis @ basis.T
    resid_2d = np.abs(gram2 - np.eye(spec.size)).max()

    ok = resid_1d <= 1e-10 and resid_2d <= 1e-9
    report("6 orthonormality suite", ok,
           f"1-D residual={resid_1d:.2e} 2-D residual={resid_2d:.2e}")


def test_criterion_7_non_selfadjoint_trace_identity():
    sym = H.parse_symbol("x1 * exp(-absnu)", 1)
    spec = H.TruncationSpec(1, 25)
    m = H.assemble_matrix(sym, spec)
    st = H.spectral_trace(m)
    mt = m.trace()
    ft = H.compare_traces(H.assemble_matrix(sym, spec, doubling_check=False))["formula_trace"]
    norm = float(np.linalg.norm(m.entries))
    ok = abs(st - mt) <= 1e-8 * norm and abs(st - ft) <= 1e-8 and abs(mt - ft) <= 1e-8
    report("7 non-self-adjoint trace identity", ok,
           f"spectral={st:.2e} matrix={mt:.2e} formula={ft:.2e}")


def test_criterion_8_mehler_kernel():
    spec = H.TruncationSpec(1, 60)
    got = kernel_sum(H.builtin_symbol("heat", 1, t=1.0), spec, [0.0], [0.0])
    oracle = mehler_heat_kernel(1.0, 0.0, 0.0)
    ok = abs(got - oracle) <= 1e-6
    report("8 Mehler kernel spot-check", ok,
           f"kernel={got:.10f} oracle={oracle:.10f} err={abs(got - oracle):.2e}")


def test_criterion_9_parser(tmp_path, capsys):
    round_trips = 0
    from hspec.symbol import _Parser
    for text in CORPUS:
        tree = _Parser(text, 2).parse()
        if _Parser(H.pretty_print(tree), 2).parse() == tree:
            round_trips += 1

    malformed = ["exp(", "1 +", "x1 ** 2"]
    codes, annotated = [], 0
    for i, text in enumerate(malformed):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({"kind": "expression", "dim": 1, "expr": text}))
        codes.append(cli_main(["trace", "--symbol", str(path), "--level", "5"]))
        err = capsys.readouterr().err
        if "1:" in err:  # line:col annotation
            annotated += 1

    ok = round_trips == len(CORPUS) >= 50 and codes == [2, 2, 2] and annotated == 3
    report("9 parser round-trip and errors", ok,
           f"round_trips={round_trips}/{len(CORPUS)} exit_codes={codes} "
           f"annotated={annotated}/3")
