import dataclasses
import math
import warnings

import numpy as np
import pytest

from hspec import (
    CriterionPreconditionError,
    TruncationSpec,
    assemble_matrix,
    build_report,
    builtin_symbol,
    column_integrals,
    compare_traces,
    multiplier_value,
    parse_symbol,
    schatten_sum,
    separate,
    singular_values,
    spectral_trace,
    table_symbol,
)
from hspec.criteria import _sr_small, _trace_class
from hspec.schatten import TRACE_SUM, _root, named_fsum
from oracles import heat_hs_limit, heat_trace_limit, odd_reciprocal_square_sum


# a symbol that does not split into a(nu) b(x) and has no invariant flip:
# its operator is one nonsymmetric block
NONSYMMETRIC = parse_symbol("sin(nu1+2*x1)/(1+x1^2)", 1)


def _lapack_singular_values(a):
    return np.sort(np.linalg.svd(a, compute_uv=False))[::-1]


def test_singular_values_diagonal():
    # multiplier singular values are the |m(nu)|: here 1/(2k+1)
    sv = singular_values(assemble_matrix(builtin_symbol("power", 1, sigma=1.0),
                                         TruncationSpec(1, 2)))
    assert sv == pytest.approx([1.0, 1 / 3, 1 / 5], rel=1e-15)


def test_singular_values_identity():
    assert singular_values(assemble_matrix(parse_symbol("1", 1),
                                           TruncationSpec(1, 4))).tolist() == [1.0] * 5


def test_singular_values_nilpotent_shift():
    # sqrt(2) x phi_1 = sqrt(2) phi_2 + phi_0 and nu1 = 0 on phi_0, so P_1 T P_1
    # is the shift [[0, 1], [0, 0]]; x1^nu1 keeps m from splitting
    m = assemble_matrix(parse_symbol("sqrt(2)*nu1*x1^nu1", 1), TruncationSpec(1, 1))
    assert singular_values(m) == pytest.approx([1.0, 0.0], abs=1e-15)


def test_singular_values_sorted_nonnegative():
    sv = singular_values(assemble_matrix(NONSYMMETRIC, TruncationSpec(1, 11)))
    assert len(sv) == 12 and np.all(sv >= 0) and np.all(np.diff(sv) <= 0)


def test_schatten_norm_identity():
    assert schatten_sum(np.ones(5), 2.0) ** (1 / 2.0) == pytest.approx(math.sqrt(5), rel=1e-15)


def test_schatten_sum_heat_geometric():
    sv = np.exp(-(2 * np.arange(400) + 1.0))
    assert schatten_sum(sv, 1.0) == pytest.approx(heat_trace_limit(1.0), abs=1e-14)


def test_schatten_partial_harmonic():
    # boundary case sigma p = n: partial sums of 1/(2k+1) keep growing
    sv = 1.0 / (2 * np.arange(1000) + 1.0)
    s_small = schatten_sum(sv[:100], 1.0)
    s_large = schatten_sum(sv, 1.0)
    assert s_large > s_small + 1.0


def test_schatten_order_validation():
    with pytest.raises(ValueError):
        schatten_sum(np.ones(3), 0.0)


@pytest.mark.parametrize("r", [np.inf, np.nan])
def test_schatten_order_must_be_finite(r):
    with pytest.raises(ValueError, match="positive and finite"):
        schatten_sum(np.ones(3), r)


def test_frobenius_identity():
    sym = parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)
    m = assemble_matrix(sym, TruncationSpec(1, 15), q=60)
    fro2 = float(np.sum(m.entries**2))
    assert (schatten_sum(singular_values(m), 2.0) ** (1 / 2.0)) ** 2 == pytest.approx(
        fro2, rel=1e-10)


def test_monotone_raw_sums_in_r():
    # for singular values <= 1 the raw sums decrease as r grows
    sv = np.exp(-(2 * np.arange(30) + 1.0))
    sums = [schatten_sum(sv, r) for r in (0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(a >= b for a, b in zip(sums, sums[1:]))


def test_multiplication_property_holder():
    # Schatten multiplication property via Hoelder on diagonal operators:
    # sum (a b)^r <= (sum a^p)^(r/p) (sum b^q)^(r/q), 1/r = 1/p + 1/q
    rng = np.random.default_rng(5)
    a = rng.uniform(0.01, 2.0, size=50)
    b = rng.uniform(0.01, 2.0, size=50)
    for p, q in [(2.0, 2.0), (4.0, 4.0), (2.0, 6.0)]:
        r = 1.0 / (1.0 / p + 1.0 / q)
        lhs = schatten_sum(a * b, r)
        rhs = schatten_sum(a, p) ** (r / p) * schatten_sum(b, q) ** (r / q)
        assert lhs <= rhs * (1 + 1e-12)


def _formula_trace(sym, spec, q=None):
    # the sum of the order-q column integrals of m phi_nu^2
    return compare_traces(assemble_matrix(sym, spec, q, doubling_check=False))["formula_trace"]


def _hs_direct(sym, spec, q=None):
    # the sum of the order-q column integrals of m^2 phi_nu^2
    m = assemble_matrix(sym, spec, q, doubling_check=False)
    return build_report(m, ())["hilbert_schmidt_direct"]


def test_trace_formula_identity_symbol():
    assert _formula_trace(parse_symbol("1", 1), TruncationSpec(1, 9)) == pytest.approx(
        10.0, rel=1e-12
    )


def test_trace_formula_heat():
    # geometric series, truncation tail below e^(-61)
    got = _formula_trace(builtin_symbol("heat", 1, t=1.0), TruncationSpec(1, 30))
    assert got == pytest.approx(heat_trace_limit(1.0), abs=1e-10)


def test_trace_formula_power_sigma2():
    got = _formula_trace(builtin_symbol("power", 1, sigma=2.0), TruncationSpec(1, 10000))
    assert got == pytest.approx(odd_reciprocal_square_sum(), abs=1e-4)


def test_trace_formula_matches_matrix_diagonal():
    sym = parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)
    spec = TruncationSpec(1, 12)
    m = assemble_matrix(sym, spec, q=80)
    assert _formula_trace(sym, spec, q=160) == pytest.approx(m.trace(), abs=1e-10)


@pytest.mark.parametrize("sym", [parse_symbol("exp(-absnu)/(1+x1^2)", 1),
                                 builtin_symbol("heat", 1, t=1.0)],
                         ids=["x-dependent", "multiplier"])
@pytest.mark.parametrize("reader", [column_integrals, assemble_matrix])
def test_column_sums_refuse_an_order_below_level_plus_one(reader, sym):
    # the same order rule as assemble_matrix, for a multiplier too
    with pytest.raises(ValueError, match=r"^quadrature order 5 must be at least N\+1 = 21$"):
        reader(sym, TruncationSpec(1, 20), 5)


def test_spectral_trace_diagonal_heat():
    spec = TruncationSpec(1, 30)
    m = assemble_matrix(builtin_symbol("heat", 1, t=1.0), spec)
    assert spectral_trace(m) == pytest.approx(
        _formula_trace(builtin_symbol("heat", 1, t=1.0), spec), abs=1e-12
    )


def test_spectral_trace_zero_diagonal():
    m = assemble_matrix(parse_symbol("x1", 1), TruncationSpec(1, 8), q=32)
    assert abs(spectral_trace(m)) < 1e-12


def test_spectral_trace_nonsymmetric_matrix():
    m = assemble_matrix(NONSYMMETRIC, TruncationSpec(1, 5))
    assert m.symmetrizer is None and not np.allclose(m.entries, m.entries.T)
    assert spectral_trace(m) == pytest.approx(float(np.trace(m.entries)), abs=1e-10)


def test_hilbert_schmidt_identity_symbol():
    assert _hs_direct(parse_symbol("1", 1), TruncationSpec(1, 9)) == pytest.approx(
        10.0, rel=1e-12
    )


def test_hilbert_schmidt_heat():
    got = _hs_direct(builtin_symbol("heat", 1, t=1.0), TruncationSpec(1, 40))
    assert got == pytest.approx(heat_hs_limit(1.0), abs=1e-12)


def test_hilbert_schmidt_projection_gap_shrinks():
    sym = parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)

    def gap(level):
        spec = TruncationSpec(1, level)
        m = assemble_matrix(sym, spec, q=120)
        fro2 = float(np.sum(m.entries**2))
        direct = _hs_direct(sym, spec, q=120)
        return abs(fro2 - direct) / direct

    g20, g40 = gap(20), gap(40)
    assert g40 <= g20 / 10.0


def test_build_report_fields():
    m = assemble_matrix(builtin_symbol("heat", 1, t=1.0), TruncationSpec(1, 20))
    report = build_report(m, r_values=(1.0, 2.0))
    assert report["formula_trace"] == pytest.approx(heat_trace_limit(1.0), abs=1e-10)
    assert report["matrix_trace"] == pytest.approx(report["formula_trace"], abs=1e-12)
    assert report["schatten_sums"]["2.0"] == pytest.approx(heat_hs_limit(1.0), abs=1e-12)
    assert np.all(np.diff(report["singular_values"]) <= 0)
    assert report["level"] == 20 and len(report["singular_values"]) == 21


@pytest.mark.parametrize("text", [
    "exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)",  # symmetrizer, 4 blocks
    "(nu1-2)*(1+x1^2)/(1+x2^2)",  # nonsymmetric solve, 4 blocks
    "1/(1+x1^2+0.5*x2^2)+0*nu1",  # symmetric solve without a symmetrizer, 4 blocks
    "exp(-0.3*absnu)*(2+0.7*x1*x2^3+x2)/(1+x1^2+x2^2)",  # one block
], ids=["symmetrizer", "nonsymmetric", "symmetric", "one-block"])
def test_the_spectral_stage_reads_the_stored_blocks(monkeypatch, text):
    # the SVD and the eigensolve receive the stored block arrays themselves
    m = assemble_matrix(parse_symbol(text, 2), TruncationSpec(2, 10))
    assert len(m.values) == len(m.blocks) and m.singles.size == m.scalars.size == 0
    seen = {"svd": [], "eigvals": [], "eigvalsh": []}
    for name, calls in seen.items():
        monkeypatch.setattr(np.linalg, name, lambda a, *args, calls=calls,
                            original=getattr(np.linalg, name), **kwargs:
                            calls.append(a) or original(a, *args, **kwargs))
    singular_values(m)
    spectral_trace(m)
    assert [id(a) for a in seen["svd"]] == [id(b) for b in m.values]
    if m.symmetrizer is None:  # else the eigensolve reads diag(d) M_b diag(d)^-1
        solved = seen["eigvalsh"] if "+0*nu1" in text else seen["eigvals"]
        assert [id(a) for a in solved] == [id(b) for b in m.values]


def _as_one_dense_block(m):
    # the same values stored as one dense diagonal block instead of 1 x 1 blocks
    return dataclasses.replace(m, values=(np.diag(m.scalars),), blocks=(np.arange(m.size),),
                               singles=np.empty(0, dtype=np.intp), scalars=np.empty(0))


def _verdict_or_refusal(check):
    try:
        return check()
    except CriterionPreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("sym", [
    builtin_symbol("power", 2, sigma=1.3),
    builtin_symbol("heat", 2, t=0.4),
    builtin_symbol("bandlimit", 2, cutoff=7),
    parse_symbol("sin(nu1) - 0.5", 2),
], ids=["power", "heat", "bandlimit", "sign-changing"])
def test_diagonal_operator_matches_dense_lapack(sym):
    # a multiplier is stored as 1 x 1 blocks; reading them must give exactly
    # what the dense SVD and eigensolver give on np.diag of the same values,
    # and what the readers give on the same values stored as one dense block
    m = assemble_matrix(sym, TruncationSpec(2, 20))
    assert m.values == () and m.blocks == () and np.array_equal(m.singles, np.arange(m.size))
    dense = np.diag(m.scalars)
    assert np.array_equal(m.entries, dense)
    assert np.array_equal(singular_values(m), _lapack_singular_values(dense))
    assert spectral_trace(m) == math.fsum(np.linalg.eigvalsh(dense))
    assert m.trace() == float(np.trace(dense))
    one = _as_one_dense_block(m)
    assert np.array_equal(one.entries, m.entries)
    assert np.array_equal(singular_values(one), singular_values(m))
    assert spectral_trace(one) == spectral_trace(m) and one.trace() == m.trace()
    assert one.frobenius_squared() == pytest.approx(m.frobenius_squared(), rel=1e-15, abs=0)
    _, squared = m.columns
    for r in (0.5, 1.0):
        layout, block = (_sr_small(m.spec, r, x, squared) for x in (m, one))
        assert layout["tail_flag"] == block["tail_flag"]
        assert layout["partial_sum"] == pytest.approx(block["partial_sum"], rel=1e-14)
    assert _sr_small(m.spec, 1.0, m, squared) == _sr_small(m.spec, 1.0, one, squared)
    assert _verdict_or_refusal(lambda: _trace_class(m)) == _verdict_or_refusal(
        lambda: _trace_class(one))


@pytest.mark.parametrize("family,params", [("power", {"sigma": 1.3}), ("heat", {"t": 0.2}),
                                           ("bandlimit", {"cutoff": 150})])
def test_schatten_sum_equals_the_per_value_fsum(family, params):
    # powers are taken once per distinct value; the exactly rounded sum must
    # not move from the one Python power per singular value
    sv = singular_values(assemble_matrix(builtin_symbol(family, 2, **params),
                                         TruncationSpec(2, 200)))
    for r in (0.5, 1.0, 1.5, 2.0, 2.7):
        assert schatten_sum(sv, r) == math.fsum(float(s) ** r for s in sv)


@pytest.mark.parametrize("text, dim, level, blocks", [
    ("exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)", 2, 20, 4),
    ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2, 20, 2),
    ("exp(-0.3*lam)*(2+0.7*x1/(1+x2^2))", 2, 20, 2),
    ("1/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, 5, 8),
    ("x1*sin(x1)/(1+x1^2)", 1, 60, 2),
], ids=["even-2d", "joint-flip-2d", "x2-flip-2d", "even-3d-symmetric", "even-1d"])
def test_blocked_spectra_match_the_whole_matrix(text, dim, level, blocks):
    # the spectrum of a block-diagonal matrix is the union of the blocks' spectra
    m = assemble_matrix(parse_symbol(text, dim), TruncationSpec(dim, level))
    assert len(m.blocks) == blocks
    sv = singular_values(m)
    whole = np.linalg.svd(m.entries, compute_uv=False)
    assert np.all(np.abs(sv - whole) <= 1e-14 * whole[0])
    dense = math.fsum(np.linalg.eigvals(m.entries).real)
    assert spectral_trace(m) == pytest.approx(dense, rel=1e-12)


def _similarity_sum(m):
    # the eigenvalue sum through diag(d) M_b diag(d)^-1, one symmetric solve per block
    d = m.symmetrizer
    return math.fsum(np.concatenate([
        np.linalg.eigvalsh(d[b, None] * (m.entries[np.ix_(b, b)] / d[b])) for b in m.blocks]))


def _nonsymmetric_sum(m):
    # the eigenvalue sum through one nonsymmetric solve per block
    return math.fsum(np.concatenate([np.linalg.eigvals(m.entries[np.ix_(b, b)])
                                     for b in m.blocks]).real)


def test_a_symbol_without_an_invariant_flip_is_one_block():
    m = assemble_matrix(parse_symbol("exp(-0.3*absnu)*(2+0.7*x1*x2^3+x2)/(1+x1^2+x2^2)", 2),
                        TruncationSpec(2, 12))
    assert len(m.blocks) == 1 and np.array_equal(m.blocks[0], np.arange(m.size))
    assert np.array_equal(singular_values(m), _lapack_singular_values(m.entries))
    # a = exp(-0.3|nu|) > 0, so the eigenvalue sum is read through the similarity
    assert spectral_trace(m) == _similarity_sum(m)
    assert spectral_trace(m) == pytest.approx(math.fsum(np.linalg.eigvals(m.entries).real),
                                              rel=1e-12)


@pytest.mark.parametrize("text, dim, level", [
    ("exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)", 2, 20),
    ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2, 20),
    ("exp(-0.3*lam)*(2+0.7*x1/(1+x2^2))", 2, 20),
    ("exp(-0.3*absnu)*x1^2/(1+0.5*x2^2+x3^2)", 3, 5),
    ("exp(-0.01*absnu)/(1+x1^2)", 1, 150),
], ids=["even-2d", "joint-flip-2d", "x2-flip-2d", "3d", "1d"])
def test_a_split_symbol_with_positive_a_takes_the_similarity_solve(text, dim, level):
    sym, spec = parse_symbol(text, dim), TruncationSpec(dim, level)
    m = assemble_matrix(sym, spec)
    assert np.array_equal(m.symmetrizer, np.sqrt(multiplier_value(separate(sym)[0], spec.array)))
    # M = G diag(a) with G symmetric, so diag(d) M diag(d)^-1 = diag(d) G diag(d)
    d = m.symmetrizer
    similar = d[:, None] * (m.entries / d)
    assert np.abs(similar - similar.T).max() <= 1e-14 * np.abs(m.entries).max()
    assert spectral_trace(m) == _similarity_sum(m)
    assert spectral_trace(m) == pytest.approx(math.fsum(np.linalg.eigvals(m.entries).real),
                                              rel=1e-12)


def test_a_nu_free_expression_gets_a_symmetrizer_of_ones():
    m = assemble_matrix(parse_symbol("1/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3), TruncationSpec(3, 5))
    assert np.array_equal(m.symmetrizer, np.ones(m.size))
    # the matrix itself is symmetric: its blocks go to the symmetric solver unchanged
    assert spectral_trace(m) == math.fsum(
        np.concatenate([np.linalg.eigvalsh(m.entries[np.ix_(b, b)]) for b in m.blocks]))


_GRID = np.linspace(-12.0, 12.0, 49)


@pytest.mark.parametrize("sym, level", [
    (parse_symbol("(nu1-2)*(1+x1^2)/(1+x2^2)", 2), 12),
    # e^-800 is 0.0: a(nu) = 0 from |nu| = 1 on
    (parse_symbol("exp(-800*absnu)*(1+x1^2)", 1), 20),
    # a = (1, e^-720), and e^-720 is subnormal
    (parse_symbol("exp(-720*absnu)*(1+x1^2)", 1), 1),
    (parse_symbol("1/(1+x1^2+(1+0.1*nu2)*x2^2)", 2), 12),
    (table_symbol(1, [_GRID], {(k,): (1.0 + k) / (1.0 + _GRID**2) for k in range(7)}), 6),
], ids=["sign-changing-a", "underflowing-a", "subnormal-a", "non-separable", "table"])
def test_other_symbols_get_no_symmetrizer_and_keep_the_nonsymmetric_solve(sym, level):
    m = assemble_matrix(sym, TruncationSpec(sym.dim, level))
    assert m.symmetrizer is None
    assert spectral_trace(m) == _nonsymmetric_sum(m)
    if len(m.blocks) == 1:
        assert spectral_trace(m) == math.fsum(np.linalg.eigvals(m.entries).real)


@pytest.mark.parametrize("text, level, reader, message", [
    # a multiplier's values are its column integrals: 31 of them at 1e307
    # compare_traces names the matrix trace first; converge sums the integrals alone
    ("1e307+0*absnu", 30, lambda sym, spec: named_fsum(
        TRACE_SUM, column_integrals(sym, spec)[0]),
     "the trace formula sum of the integrals of m phi_nu^2"),
    ("1.2e153*(1+0.000001*x1^2)", 200, _hs_direct,
     "the Hilbert-Schmidt sum of the integrals of m^2 phi_nu^2"),
    # m^2 = 1e400 is not finite, and is named where it is summed
    ("1e200+0*absnu", 3, _hs_direct,
     "the Hilbert-Schmidt sum of the integrals of m^2 phi_nu^2"),
], ids=["trace-formula", "hs-direct", "hs-direct-multiplier"])
def test_a_sum_of_column_integrals_that_overflows_is_named(text, level, reader, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as raised:
            reader(parse_symbol(text, 1), TruncationSpec(1, level))
    assert str(raised.value) == f"{message} overflows"


@pytest.mark.parametrize("reader, message", [
    (lambda m: m.trace(), "the matrix trace"),
    (spectral_trace, "the eigenvalue sum"),
    (compare_traces, "the matrix trace"),
], ids=["matrix-trace", "spectral-trace", "compare-traces"])
def test_a_trace_of_a_diagonal_that_overflows_is_named(reader, message):
    # 496 diagonal entries of 1e307
    m = assemble_matrix(parse_symbol("1e307+0*absnu", 2), TruncationSpec(2, 30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as raised:
            reader(m)
    assert str(raised.value) == f"{message} overflows"


@pytest.mark.parametrize("reader, sv, r, message", [
    # 1e110^3 leaves the double range
    (schatten_sum, [1e110, 1.0], 3.0, "the Schatten sum of order 3.0"),
    # (2000 ones)^100
    (lambda sv, r: _root(schatten_sum(sv, r), r), np.ones(2000), 0.01,
     "the Schatten norm of order 0.01"),
], ids=["sum", "norm"])
def test_a_schatten_power_that_overflows_is_named(reader, sv, r, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as raised:
            reader(sv, r)
    assert str(raised.value) == f"{message} overflows"
