import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hspec import (
    CriterionPreconditionError,
    OperatorMatrix,
    TruncationSpec,
    assemble_matrix,
    builtin_symbol,
    check_multiplier_schatten,
    classify_tail,
    default_sigma,
    parse_symbol,
    sigma_lower_bound,
)
import hspec.operator
from hspec.criteria import (_hilbert_schmidt, _sr_sigma, _sr_small, _trace_class, criteria,
                            shell_partition)
from hspec.symbol import multiplier_value
from oracles import heat_hs_limit, heat_trace_limit, odd_reciprocal_square_sum

HEAT = builtin_symbol("heat", 1, t=1.0)


def test_hs_heat_converges():
    (v,) = criteria(HEAT, TruncationSpec(1, 40), None, (2.0,))
    assert v["tail_flag"] == "converging"
    assert v["partial_sum"] == pytest.approx(heat_hs_limit(1.0), abs=1e-12)


def test_hs_identity_diverges():
    (v,) = criteria(parse_symbol("1", 1), TruncationSpec(1, 40), None, (2.0,))
    assert v["tail_flag"] == "diverging"
    # shell sums are the shell counts: constant 1 in dimension 1
    assert all(s == pytest.approx(1.0, rel=1e-12) for _, s in v["shells"])


def test_hs_weak_power_diverges():
    (v,) = criteria(builtin_symbol("power", 1, sigma=0.3), TruncationSpec(1, 400), None, (2.0,))
    assert v["tail_flag"] == "diverging"
    assert v["extras"]["fit_slope"] == pytest.approx(-0.6, abs=1e-6)


def test_hs_cross_check_recorded():
    (v,) = criteria(parse_symbol("exp(-absnu/2)/(1+x1^2)", 1), TruncationSpec(1, 30), 100,
                    (2.0,))
    assert "frobenius_squared" in v["extras"]
    assert v["extras"]["relative_gap"] < 1e-3


def test_hs_cross_check_names_a_frobenius_norm_that_overflows():
    # the direct terms are finite; the squares of the entries 1e200 are not
    m = assemble_matrix(parse_symbol("1e200+0*absnu", 1), TruncationSpec(1, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as raised:
            _hilbert_schmidt(m.spec, np.ones(m.size), m)
    assert str(raised.value) == "the squared Frobenius norm of the matrix overflows"


def test_a_multipliers_frobenius_norm_sums_its_values_without_a_dense_matrix():
    # D = 230,230: a dense matrix would take 424 GB
    m = assemble_matrix(builtin_symbol("power", 6, sigma=1.5), TruncationSpec(6, 20))
    tracemalloc.start()
    try:
        fro2 = m.frobenius_squared()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fro2 == pytest.approx(math.fsum(m.scalars**2), rel=1e-14)
    assert math.isfinite(fro2) and peak < 4 * 8 * m.size, peak


def test_the_hs_cross_check_of_a_multiplier_builds_no_dense_matrix():
    sym, spec = builtin_symbol("power", 2, sigma=1.1), TruncationSpec(2, 30)
    dense = 8 * spec.size**2
    tracemalloc.start()
    try:
        (hs,) = criteria(sym, spec, None, (2.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hs["extras"]["relative_gap"] <= 1e-14
    assert peak < dense, peak / dense


@pytest.mark.parametrize("text, dim, level", [
    ("exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)", 2, 12),  # four dense blocks
    ("exp(-0.3*absnu)*(2+0.7*x1*x2^3+x2)/(1+x1^2+x2^2)", 2, 10),  # one dense block
], ids=["four-block", "one-block"])
def test_sr_small_takes_the_same_powers_with_or_without_the_operator(text, dim, level):
    # with an operator, the r/2 powers are taken at the dense blocks' ranks
    # only; they must be the bits of the powers of all the column integrals
    m = assemble_matrix(parse_symbol(text, dim), TruncationSpec(dim, level))
    _, squared = m.columns
    for r in (0.3, 0.5, 1.0):
        assert _sr_small(m.spec, r, m, squared) == _sr_small(m.spec, r, None, squared)


def test_shells_sum_to_partial_sum():
    (v,) = criteria(builtin_symbol("heat", 2, t=1.0), TruncationSpec(2, 15), None, (2.0,))
    assert math.fsum(s for _, s in v["shells"]) == pytest.approx(v["partial_sum"], rel=1e-12)


def test_hs_partial_sums_monotone_in_level():
    sums = [
        criteria(HEAT, TruncationSpec(1, n), None, (2.0,))[0]["partial_sum"]
        for n in (5, 10, 20, 30)
    ]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_trace_class_heat():
    _, v = criteria(HEAT, TruncationSpec(1, 30), None, (1.0,))
    assert v["tail_flag"] == "converging"
    assert v["partial_sum"] == pytest.approx(heat_trace_limit(1.0), abs=1e-10)


def test_trace_class_power_sigma1_diverges():
    _, v = criteria(builtin_symbol("power", 1, sigma=1.0), TruncationSpec(1, 500), None, (1.0,))
    assert v["criterion"] == "TraceClass-iff"
    assert v["tail_flag"] == "diverging"


def test_trace_class_power_sigma2_converges():
    _, v = criteria(builtin_symbol("power", 1, sigma=2.0), TruncationSpec(1, 2000), None, (1.0,))
    assert v["criterion"] == "TraceClass-iff"
    assert v["tail_flag"] == "converging"
    assert v["partial_sum"] == pytest.approx(odd_reciprocal_square_sum(), abs=1e-3)


def test_trace_class_requires_flag():
    sym = parse_symbol("exp(-lam)", 1)  # same values as heat, but flag unset
    assert not sym.claims_positive_selfadjoint
    verdicts = criteria(sym, TruncationSpec(1, 10), None, (1.0,))
    assert [v["criterion"] for v in verdicts] == ["Sr-sufficient"]


def test_trace_class_refuses_asymmetric():
    sym = parse_symbol("x1 * exp(-absnu)", 1, positive_selfadjoint=True)
    with pytest.raises(CriterionPreconditionError, match="symmetry|positivity"):
        criteria(sym, TruncationSpec(1, 10), None, (1.0,))


def test_trace_class_refuses_negative_multiplier():
    sym = parse_symbol("-exp(-lam)", 1, positive_selfadjoint=True)
    with pytest.raises(CriterionPreconditionError, match="positivity"):
        criteria(sym, TruncationSpec(1, 10), None, (1.0,))


def test_trace_class_accepts_verified_quadrature_symbol():
    # x-free in value but assembled through quadrature; symmetry and
    # positivity are verified on the matrix rather than trusted
    sym = parse_symbol("exp(-lam) + 0 * x1", 1, positive_selfadjoint=True)
    assert not sym.is_multiplier
    _, v = criteria(sym, TruncationSpec(1, 15), None, (1.0,))
    assert v["criterion"] == "TraceClass-iff"
    assert v["tail_flag"] == "converging"
    assert v["partial_sum"] == pytest.approx(heat_trace_limit(1.0), abs=1e-10)


@pytest.mark.parametrize("text, dim, level", [
    ("1/(1+0.5*x1^2+0.4*x2^2+0.3*x3^2)", 3, 5),  # a symmetrizer of ones, 8 blocks
    ("1/(1+x1^2+0.5*x2^2)+0*nu1", 2, 12),  # no symmetrizer, 4 blocks
], ids=["constant-symmetrizer", "no-symmetrizer"])
def test_the_criteria_read_the_stored_blocks_and_build_no_dense_matrix(monkeypatch, text, dim,
                                                                       level):
    sym, spec = parse_symbol(text, dim, positive_selfadjoint=True), TruncationSpec(dim, level)
    # the matrix of the one order-q pass the criteria read
    dense = assemble_matrix(sym, spec, doubling_check=False).entries
    monkeypatch.setattr(OperatorMatrix, "entries", property(lambda m: pytest.fail("dense")))
    hs, _, trace_class, _ = criteria(sym, spec, None, (2.0, 1.0, 1.5))
    assert trace_class["criterion"] == "TraceClass-iff"
    assert hs["extras"]["frobenius_squared"] == pytest.approx(float(np.sum(dense**2)), rel=1e-14)


def test_every_criteria_report_and_check_reads_one_order_q_pass(monkeypatch):
    sym = parse_symbol("1/(1+0.5*x1^2+0.4*x2^2+0.3*x3^2)", 3, positive_selfadjoint=True)
    spec, q = TruncationSpec(3, 5), 12
    fro2 = assemble_matrix(sym, spec, q, doubling_check=False).frobenius_squared()
    passes = []
    discretize = hspec.operator._discretize

    def counted(*args, **kwargs):
        passes.append(discretize(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(hspec.operator, "_discretize", counted)
    for rs in ((1.0, 1.5, 2.0), (1.0,), (2.0,), (0.5,), (1.5,)):
        passes.clear()
        criteria(sym, spec, q, rs)
        assert len(passes) == 1 and passes[0][0] == q
    _, trace_class, _, hs = criteria(sym, spec, q, (1.0, 1.5, 2.0))
    assert trace_class["criterion"] == "TraceClass-iff"
    assert hs["extras"]["frobenius_squared"] == fro2


@pytest.mark.parametrize("text", ["exp(2*x1)", "1/(0.05+x1^2)", "abs(x1)"])
@pytest.mark.parametrize("level", [2, 4, 8])
@pytest.mark.parametrize("extra", [1, 2, 5])
def test_the_hs_cross_check_keeps_bessels_inequality(text, level, extra):
    # under one Gauss rule of order q > N the basis rows are orthonormal, so
    # each column's squared norm is at most its integral of m^2 phi_nu^2
    (hs,) = criteria(parse_symbol(text, 1), TruncationSpec(1, level), level + extra, (2.0,))
    assert hs["extras"]["frobenius_squared"] <= hs["partial_sum"] * (1 + 1e-12)


def test_a_constant_symmetrizer_skips_the_symmetry_check():
    # M = c G with G symmetric, so only the positivity check runs; without
    # the symmetrizer the same blocks fail the symmetry check
    sym = parse_symbol("1/(1+0.5*x1^2+0.4*x2^2+0.3*x3^2)", 3, positive_selfadjoint=True)
    m = assemble_matrix(sym, TruncationSpec(3, 4))
    assert np.array_equal(m.symmetrizer, np.ones(m.size))
    skewed = tuple(b + 1e-6 * np.triu(np.ones_like(b), 1) for b in m.values)
    assert _trace_class(dataclasses.replace(m, values=skewed))["criterion"] == "TraceClass-iff"
    with pytest.raises(CriterionPreconditionError, match="symmetry check failed"):
        _trace_class(dataclasses.replace(m, values=skewed, symmetrizer=None))


def test_sr_small_heat_r1():
    v = criteria(HEAT, TruncationSpec(1, 40), None, (1.0,))[0]
    assert v["tail_flag"] == "converging"
    # column integral e^(-2(2k+1)) to the power 1/2 gives the trace series
    assert v["partial_sum"] == pytest.approx(heat_trace_limit(1.0), abs=1e-12)


def test_sr_small_power_thresholds():
    for sigma, flag in ((2.0, "converging"), (1.0, "diverging")):
        v = criteria(builtin_symbol("power", 1, sigma=sigma), TruncationSpec(1, 500), None,
                     (1.0,))[0]
        assert v["criterion"] == "Sr-sufficient" and v["tail_flag"] == flag


def test_sr_small_range_validation():
    # criteria() sends 1 < r < 2 to Sr-sigma, and r <= 0 here
    spec = TruncationSpec(1, 10)
    with pytest.raises(ValueError):
        _sr_small(spec, 1.5, None, np.ones(spec.size))
    with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
        criteria(HEAT, spec, None, (0.0,))


@pytest.mark.parametrize("r", [1.0, 2.0, 0.5])
def test_sr_sigma_range_validation(r):
    # criteria() sends these r to the other criteria, so Sr-sigma is called directly
    spec = TruncationSpec(1, 10)
    with pytest.raises(ValueError, match=r"r must lie in \(1, 2\)"):
        _sr_sigma(spec, r, None, np.ones(spec.size))


def test_sr_sigma_heat():
    (v,) = criteria(HEAT, TruncationSpec(1, 40), None, (1.5,), sigma=1.0)
    assert v["tail_flag"] == "converging"


def test_sr_sigma_power_weighted_pseries():
    # weight (2k+1)^1 against symbol (2k+1)^(-3) squared: terms (2k+1)^(-5)
    (v,) = criteria(builtin_symbol("power", 1, sigma=3.0), TruncationSpec(1, 500), None,
                    (1.5,), sigma=0.5)
    assert v["tail_flag"] == "converging"
    assert v["extras"]["fit_slope"] == pytest.approx(-5.0, abs=1e-6)


def test_sr_sigma_bound_rejection():
    with pytest.raises(CriterionPreconditionError, match="1/6|0.16"):
        criteria(HEAT, TruncationSpec(1, 10), None, (1.5,), sigma=0.1)


def test_sigma_default_inside_region():
    for dim in (1, 2, 3):
        for r in (1.2, 1.5, 1.9):
            assert default_sigma(dim, r) > sigma_lower_bound(dim, r)
    assert sigma_lower_bound(1, 1.5) == pytest.approx(1.0 / 6.0)


def test_multiplier_fast_path_exact():
    # for multipliers the S_r criterion is exactly sum |m(nu)|^r
    spec = TruncationSpec(1, 60)
    v = criteria(HEAT, spec, None, (1.0,))[0]
    exact = math.fsum(math.exp(-(2 * k + 1.0)) for k in range(61))
    assert v["partial_sum"] == exact  # bitwise: fsum over identical term lists


def test_multiplier_schatten_any_order():
    spec = TruncationSpec(1, 5000)
    p = builtin_symbol("power", 1, sigma=1.0)
    conv = check_multiplier_schatten(p, spec, r=1.2)
    div = check_multiplier_schatten(p, spec, r=0.9)
    assert conv["tail_flag"] == "converging"
    assert div["tail_flag"] == "diverging"
    assert div["extras"]["growth_exponent"] == pytest.approx(0.1, abs=0.02)


@pytest.mark.parametrize("sym", [
    builtin_symbol("power", 2, sigma=1.5),
    builtin_symbol("heat", 2, t=0.3),
    builtin_symbol("bandlimit", 2, cutoff=120),  # zeros past the cutoff
    parse_symbol("sin(nu1) - 0.5", 2),           # signed, many distinct values
], ids=["power", "heat", "bandlimit", "signed"])
def test_multiplier_powers_equal_per_index_python_powers(sym):
    # the exact |m(nu)|^r sums are bit for bit the per-shell fsums of one
    # Python power per index
    spec = TruncationSpec(2, 200)
    values = multiplier_value(sym, spec.array)
    o = spec.offsets

    def shells(r):
        terms = [abs(float(v)) ** r for v in values]
        return [[s, math.fsum(terms[o[s]:o[s + 1]])] for s in range(spec.level + 1)]

    for r in (0.5, 1.0):
        assert criteria(sym, spec, None, (r,))[0]["shells"] == shells(r)
    for r in (0.9, 1.2, 3.0):
        assert check_multiplier_schatten(sym, spec, r=r)["shells"] == shells(r)


@pytest.mark.parametrize("r", [0.0, math.inf, math.nan])
def test_multiplier_schatten_needs_a_positive_finite_order(r):
    # |m|^inf would sum to 0 for a heat multiplier, not its largest value
    with pytest.raises(ValueError, match="positive and finite"):
        check_multiplier_schatten(builtin_symbol("heat", 1, t=1.0), TruncationSpec(1, 3), r=r)


def test_multiplier_schatten_rejects_pseudo():
    sym = parse_symbol("x1 * exp(-absnu)", 1)
    with pytest.raises(CriterionPreconditionError, match="multiplier"):
        check_multiplier_schatten(sym, TruncationSpec(1, 10), r=1.0)


def test_bandlimit_tail_identically_zero():
    (v,) = criteria(builtin_symbol("bandlimit", 1, cutoff=3), TruncationSpec(1, 40), None,
                    (2.0,))
    assert v["tail_flag"] == "converging"
    assert v["extras"]["note"] == "tail shells identically zero"
    assert v["partial_sum"] == pytest.approx(4.0, rel=1e-12)


def test_classify_tail_boundary():
    # exact p-series shells at the harmonic boundary flag divergence
    shells = [(s, (2.0 * s + 1.0) ** -1.0) for s in range(200)]
    assert classify_tail(shells, 1)[0] == "diverging"
    shells = [(s, (2.0 * s + 1.0) ** -1.2) for s in range(200)]
    assert classify_tail(shells, 1)[0] == "converging"
    shells = [(s, (2.0 * s + 1.0) ** -1.1) for s in range(200)]
    assert classify_tail(shells, 1)[0] == "inconclusive"


def test_classify_tail_with_too_few_positive_tail_shells():
    shells = [(s, 1.0 if s in (5, 7) else -1e-20) for s in range(8)]
    flag, fit = classify_tail(shells, 1)
    assert flag == "inconclusive"
    assert fit == {"fit_slope": None, "growth_exponent": None,
                   "note": "too few positive tail shells to fit"}


def test_shell_partition_needs_one_term_per_index():
    spec = TruncationSpec(2, 3)
    with pytest.raises(ValueError, match="expected 10 terms"):
        shell_partition(spec, np.ones(spec.size - 1))


def test_a_shell_sum_that_overflows_names_the_sum_and_the_shell():
    # every term is finite; shell 1 holds two of them, whose total is not
    spec = TruncationSpec(2, 2)
    terms = np.full(spec.size, 1e308)
    with pytest.raises(FloatingPointError, match="^the HS-iff sum over shell 1 overflows$"):
        shell_partition(spec, terms, "the HS-iff sum")


def test_verdict_reproducibility():
    a = criteria(HEAT, TruncationSpec(1, 30), None, (2.0,))
    b = criteria(HEAT, TruncationSpec(1, 30), None, (2.0,))
    assert a == b


def test_two_dim_heat_criteria():
    _, v = criteria(builtin_symbol("heat", 2, t=1.0), TruncationSpec(2, 25), None, (1.0,))
    assert v["criterion"] == "TraceClass-iff"
    assert v["tail_flag"] == "converging"
    # product of two 1-D geometric series
    assert v["partial_sum"] == pytest.approx(heat_trace_limit(1.0) ** 2, abs=1e-10)
