"""Output checker for benchmark ops.

An op fails on a non-zero exit, unparsable JSON, any non-finite number or a
failed check below.  Multiplier ops are compared with closed forms computed
here, without hspec's code: the operator is diagonal with value m(nu) that
depends only on the shell s = |nu|, so its singular values are the sorted
|m|, shell s has multiplicity C(s+n-1, n-1), and every trace, Hilbert-Schmidt
sum and per-shell criterion sum is a finite sum over shells.  For
x-dependent symbols there is no closed form, so the program's identities are
checked instead.
"""

from __future__ import annotations

import json
import math

import numpy as np

TAIL_FLAGS = ("converging", "diverging", "inconclusive")
RESIDUAL_WARN = 1e-6  # the documented assembly residual threshold


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _non_finite(node, path="$"):
    if isinstance(node, float) and not math.isfinite(node):
        yield path
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _non_finite(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _non_finite(v, f"{path}[{i}]")


# ---------------------------------------------------------------------------
# closed forms for the builtin multipliers

def multiplier_shells(op) -> list[tuple[int, float, float]]:
    """(multiplicity, m, lambda) per shell s = 0..N of a builtin multiplier."""
    params = {name: float(text) for name, text in op.params}
    n = op.dim
    out = []
    for s in range(op.level + 1):
        lam = 2 * s + n
        if op.family == "heat":
            m = math.exp(-params["t"] * lam)
        elif op.family == "power":
            m = float(lam) ** (-params["sigma"])
        else:
            m = 1.0 if s <= params["cutoff"] else 0.0
        out.append((math.comb(s + n - 1, n - 1), m, float(lam)))
    return out


def expected_verdicts(op) -> list[tuple[str, dict]]:
    """Criterion names and parameters the CLI must report, in order."""
    positive = op.family is not None or op.positive  # builtins claim positivity
    out = []
    for r in (float(t) for t in op.r.split(",")):
        if r == 2.0:
            out.append(("HS-iff", {}))
        elif r <= 1.0:
            out.append(("Sr-sufficient", {"r": r}))
            if r == 1.0 and positive:
                out.append(("TraceClass-iff", {}))
        else:
            out.append(("Sr-sigma", {"r": r, "sigma": op.dim * (1.0 / r - 0.5) + 0.5}))
    return out


def _closed_form_shell(name: str, params: dict, k: int, m: float, lam: float) -> float:
    if name == "Sr-sufficient":
        return k * abs(m) ** params["r"]
    if name == "TraceClass-iff":
        return k * m
    if name == "Sr-sigma":
        return k * lam ** (2.0 * params["sigma"]) * m * m
    return k * m * m  # HS-iff


# ---------------------------------------------------------------------------
# analyze

def check_analyze(op, doc: dict) -> list[str]:
    errors = []
    rep = doc.get("report", {})
    if doc.get("command") != "analyze":
        errors.append(f"command is {doc.get('command')!r}")
    if (rep.get("dim"), rep.get("level"), rep.get("quad_order")) != (
            op.dim, op.level, op.quad_order):
        errors.append("dim/level/quad_order do not echo the op")
    sv = np.asarray(rep.get("singular_values", []), dtype=float)
    if sv.shape != (op.size,):
        return errors + [f"{sv.size} singular values, expected D = {op.size}"]
    if np.any(sv < 0) or np.any(np.diff(sv) > 0):
        errors.append("singular values are not descending and non-negative")
    for key, r in (("1.0", 1.0), ("2.0", 2.0)):
        total = math.fsum(float(s) ** r for s in sv)
        if not _close(rep["schatten_sums"][key], total, 1e-12):
            errors.append(f"schatten_sums[{key}] != sum of sigma^{r}")
        if not _close(rep["schatten_norms"][key], rep["schatten_sums"][key] ** (1 / r), 1e-12):
            errors.append(f"schatten_norms[{key}] != schatten_sums^(1/r)")
    nuclear = math.fsum(sv)
    if not _close(rep["spectral_trace"], rep["matrix_trace"], 0.0, 1e-9 * max(nuclear, 1e-300)):
        errors.append("spectral_trace disagrees with matrix_trace")
    if abs(rep["matrix_trace"]) > nuclear * (1 + 1e-9) + 1e-300:
        errors.append("|matrix_trace| exceeds the nuclear norm")
    if not rep["assembly_residual"] >= 0.0:
        errors.append("assembly_residual is negative")
    if rep["residual_warning"] is not (rep["assembly_residual"] > RESIDUAL_WARN):
        errors.append("residual_warning does not match assembly_residual")
    if rep.get("convergence") != []:
        errors.append("analyze reported a convergence sweep")
    if op.family is not None:
        errors += _analyze_closed_form(op, rep, sv)
    return errors


def _analyze_closed_form(op, rep: dict, sv: np.ndarray) -> list[str]:
    errors = []
    shells = multiplier_shells(op)
    ref = np.sort(np.repeat([abs(m) for _, m, _ in shells], [k for k, _, _ in shells]))[::-1]
    # the SVD is backward stable: absolute error of order eps * sigma_max
    if not np.allclose(sv, ref, rtol=1e-10, atol=1e-12 * ref[0]):
        i = int(np.argmax(np.abs(sv - ref)))
        errors.append(f"singular value {i}: {sv[i]!r} != |m| = {ref[i]!r}")
    trace = math.fsum(k * m for k, m, _ in shells)
    for key in ("matrix_trace", "formula_trace"):
        if not _close(rep[key], trace, 1e-12, 1e-300):
            errors.append(f"{key} {rep[key]!r} != closed form {trace!r}")
    absolute = math.fsum(k * abs(m) for k, m, _ in shells)
    if not _close(rep["spectral_trace"], trace, 0.0, 1e-9 * max(absolute, 1e-300)):
        errors.append(f"spectral_trace {rep['spectral_trace']!r} != closed form {trace!r}")
    hs = math.fsum(k * m * m for k, m, _ in shells)
    if not _close(rep["hilbert_schmidt_direct"], hs, 1e-12, 1e-300):
        errors.append("hilbert_schmidt_direct != closed form")
    for key, r in (("1.0", 1.0), ("2.0", 2.0)):
        want = math.fsum(k * abs(m) ** r for k, m, _ in shells)
        if not _close(rep["schatten_sums"][key], want, 1e-9, 1e-300):
            errors.append(f"schatten_sums[{key}] != closed form")
    if rep["assembly_residual"] != 0.0 or rep["residual_warning"]:
        errors.append("a multiplier reported a quadrature residual")
    return errors


# ---------------------------------------------------------------------------
# criteria

def check_criteria(op, doc: dict) -> list[str]:
    errors = []
    if doc.get("command") != "criteria":
        errors.append(f"command is {doc.get('command')!r}")
    verdicts = doc.get("verdicts", [])
    want = expected_verdicts(op)
    names = [v.get("criterion") for v in verdicts]
    if names != [name for name, _ in want] or any(
            not _close(v["parameters"][key], value, 1e-12)
            for v, (_, params) in zip(verdicts, want) for key, value in params.items()):
        return errors + [f"verdicts {names} do not match the expected {want}"]
    checked = []
    for v in verdicts:
        name = v["criterion"]
        shells = v["shells"]
        if [s for s, _ in shells] != list(range(op.level + 1)):
            errors.append(f"{name}: shells are not 0..N (N + 1 = {op.level + 1})")
            continue
        vals = [val for _, val in shells]
        if not _close(v["partial_sum"], math.fsum(vals), 1e-12, 1e-300):
            errors.append(f"{name}: partial_sum != sum of the shells")
        if v["tail_flag"] not in TAIL_FLAGS:
            errors.append(f"{name}: tail_flag {v['tail_flag']!r}")
        if min(vals) < 0.0:
            errors.append(f"{name}: negative shell sum")
        checked.append((v, vals))
    if errors:
        return errors
    if op.family is None:
        return _criteria_identities(op, checked)
    shells = multiplier_shells(op)
    for v, vals in checked:
        for s, (val, (k, m, lam)) in enumerate(zip(vals, shells)):
            want_val = _closed_form_shell(v["criterion"], v["parameters"], k, m, lam)
            if not _close(val, want_val, 1e-12, 1e-300):
                errors.append(f"{v['criterion']}: shell {s} sum {val!r} "
                              f"!= closed form {want_val!r}")
                break
    return errors


def _criteria_identities(op, checked: list) -> list[str]:
    """Relations between the criteria of one x-dependent symbol, per shell.

    With c_nu the squared column integral and t_nu the plain one, a shell of
    HS-iff sums c_nu, Sr-sigma sums lam^(2 sigma) c_nu, Sr-sufficient at
    r = 1 sums sqrt(c_nu), and TraceClass-iff sums t_nu with
    0 <= t_nu <= sqrt(c_nu) by Cauchy-Schwarz (the basis is orthonormal under
    the rule).  A shell of k indices then has
    sqrt(HS) <= Sr1 <= sqrt(k HS).
    """
    errors = []

    def shells_of(name, r=None):
        return next((vals for v, vals in checked if v["criterion"] == name
                     and (r is None or v["parameters"]["r"] == r)), None)

    hs = shells_of("HS-iff")
    if hs is None:
        return errors
    extras = next(v for v, _ in checked if v["criterion"] == "HS-iff")["extras"]
    if "frobenius_squared" in extras and not extras["frobenius_squared"] > 0.0:
        errors.append("HS-iff: frobenius_squared is not positive")
    for v, vals in checked:
        if v["criterion"] != "Sr-sigma":
            continue
        sigma = v["parameters"]["sigma"]
        for s, (val, h) in enumerate(zip(vals, hs)):
            if not _close(val, (2.0 * s + op.dim) ** (2.0 * sigma) * h, 1e-10, 1e-300):
                errors.append(f"Sr-sigma: shell {s} != lam^(2 sigma) * HS shell")
                break
    sr1 = shells_of("Sr-sufficient", 1.0)
    if sr1 is not None:
        for s, (a, h) in enumerate(zip(sr1, hs)):
            k = math.comb(s + op.dim - 1, op.dim - 1)
            slack = 1e-9 * a + 1e-300
            if not math.sqrt(h) - slack <= a <= math.sqrt(k * h) + slack:
                errors.append(f"Sr-sufficient: shell {s} outside [sqrt(HS), sqrt(k HS)]")
                break
        tc = shells_of("TraceClass-iff")
        if tc is not None and any(t > a * (1 + 1e-9) + 1e-300 for t, a in zip(tc, sr1)):
            errors.append("TraceClass-iff: a shell exceeds the Sr-sufficient r=1 shell")
    return errors


def check_output(op, rc, text: str | None) -> list[str]:
    """Every failed check for one op; empty when the op succeeded."""
    if rc != 0:
        return [f"exit code {rc}"]
    if text is None:
        return ["no report written"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"unparsable JSON: {exc}"]
    bad = list(_non_finite(doc))
    if bad:
        return [f"non-finite number at {bad[0]}"]
    check = check_analyze if op.command == "analyze" else check_criteria
    try:
        return check(op, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
