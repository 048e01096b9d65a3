import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hspec.operator as operator
from hspec import (
    SymbolEvalError,
    TruncationSpec,
    assemble_matrix,
    axis_signs,
    builtin_symbol,
    column_integrals,
    eval_symbol,
    gauss_hermite_rule,
    hermite_table,
    invariant_flips,
    parse_symbol,
    separate,
    symbol_sampler,
    table_symbol,
)
from oracles import (dense_basis, dense_coefficients, dense_sums, kernel_sum, mehler_heat_kernel,
                     rank)

# frozen from a 4Q mpmath quadrature of <e^(-x^2), phi_k>
INNER_GAUSS_PHI0 = 1.0870307726111884785  # = pi^(-1/4) sqrt(2 pi / 3)
INNER_GAUSS_PHI2 = -0.25621561022394111639

ONE = parse_symbol("1", 1)


def test_identity_symbol_gives_identity_matrix():
    spec = TruncationSpec(1, 8)
    m = assemble_matrix(ONE, spec, q=32)
    assert np.abs(m.entries - np.eye(spec.size)).max() < 1e-12


def test_power_multiplier_diagonal():
    spec = TruncationSpec(1, 3)
    m = assemble_matrix(builtin_symbol("power", 1, sigma=1.0), spec)
    assert np.diag(m.entries) == pytest.approx([1.0, 1 / 3, 1 / 5, 1 / 7], rel=1e-15)
    assert np.abs(m.entries - np.diag(np.diag(m.entries))).max() == 0.0


def test_x_symbol_tridiagonal():
    # x phi_k = sqrt((k+1)/2) phi_{k+1} + sqrt(k/2) phi_{k-1}
    spec = TruncationSpec(1, 2)
    m = assemble_matrix(parse_symbol("x1", 1), spec, q=16)
    expected = np.zeros((3, 3))
    for k in range(2):
        expected[k + 1, k] = expected[k, k + 1] = math.sqrt((k + 1) / 2.0)
    assert np.abs(m.entries - expected).max() < 1e-13


def test_quadrature_order_validation():
    spec = TruncationSpec(1, 10)
    with pytest.raises(ValueError, match="quadrature order"):
        assemble_matrix(parse_symbol("x1", 1), spec, q=5)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        assemble_matrix(builtin_symbol("heat", 2, t=1.0), TruncationSpec(1, 4))


def test_multiplier_offdiagonal_vanishes_without_fast_path():
    # same multiplier forced through quadrature as an x-free expression
    spec = TruncationSpec(1, 6)
    sym = parse_symbol("exp(-absnu) * (1 + 0 * x1)", 1)
    assert not sym.is_multiplier
    m = assemble_matrix(sym, spec, q=40)
    off = m.entries - np.diag(np.diag(m.entries))
    assert np.abs(off).max() <= 1e-12 * np.abs(np.diag(m.entries)).max()


def test_assembly_residual_recorded():
    spec = TruncationSpec(1, 10)
    m = assemble_matrix(parse_symbol("exp(-absnu/2)/(1+x1^2)", 1), spec, q=60)
    assert m.assembly_residual < 1e-6
    assert not m.residual_warning


def test_nesting_prefix_blocks_agree():
    sym = parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)
    q = 80
    small = assemble_matrix(sym, TruncationSpec(1, 10), q=q, doubling_check=False)
    big = assemble_matrix(sym, TruncationSpec(1, 20), q=q, doubling_check=False)
    d = small.size
    assert np.abs(big.entries[:d, :d] - small.entries).max() < 1e-12


def test_kernel_heat_matches_mehler():
    spec = TruncationSpec(1, 40)
    got = kernel_sum(builtin_symbol("heat", 1, t=1.0), spec, [0.0], [0.0])
    assert got == pytest.approx(mehler_heat_kernel(1.0, 0.0, 0.0), abs=1e-10)


def test_kernel_heat_matches_mehler_off_diagonal():
    spec = TruncationSpec(1, 60)
    for t, x, y in [(0.7, 0.3, -0.2), (1.0, 1.1, 0.4), (0.5, -0.8, -0.8)]:
        got = kernel_sum(builtin_symbol("heat", 1, t=t), spec, [x], [y])
        assert got == pytest.approx(mehler_heat_kernel(t, x, y), abs=1e-8)


@pytest.mark.parametrize("y", [40.0, 39.5])
def test_kernel_heat_matches_mehler_far_out(y):
    got = kernel_sum(builtin_symbol("heat", 1, t=0.05), TruncationSpec(1, 1500), [40.0], [y])
    assert got == pytest.approx(mehler_heat_kernel(0.05, 40.0, y), rel=1e-11, abs=0)


def test_kernel_projection_identity():
    # integral K(x, y) phi_0(y) dy recovers phi_0(x) for the reproducing kernel
    spec = TruncationSpec(1, 12)
    rule = gauss_hermite_rule(40)
    for x in (0.0, 0.8, -1.7):
        vals = np.array([
            kernel_sum(ONE, spec, [x], [y]) * hermite_table(0, [y])[0, 0] * math.exp(y * y)
            for y in rule.nodes
        ])
        assert rule.weights @ vals == pytest.approx(hermite_table(0, [x])[0, 0], abs=1e-10)


def test_kernel_bandlimit_single_term():
    spec = TruncationSpec(1, 5)
    sym = builtin_symbol("bandlimit", 1, cutoff=0)
    x, y = 0.4, -1.2
    assert kernel_sum(sym, spec, [x], [y]) == pytest.approx(
        hermite_table(0, [x])[0, 0] * hermite_table(0, [y])[0, 0], rel=1e-13
    )


@pytest.mark.parametrize("text, dim, level, q", [
    ("exp(-absnu/2)/(1+x1^2)", 1, 15, 60),
    ("lam^(-1)*(1+0.4*x1*x2/(1+x1^2+x2^2))", 2, 6, 20),
    ("exp(-0.2*absnu)/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, 4, 12),
    ("1/(1+x1^2+(1+0.1*nu2)*x2^2)", 2, 6, 20),  # sampled per column
])
def test_assembly_carries_the_column_integrals(text, dim, level, q):
    # the operator's columns are reduced from its own order-q samples, and
    # match a separate column_integrals pass bit for bit
    sym, spec = parse_symbol(text, dim), TruncationSpec(dim, level)
    m = assemble_matrix(sym, spec, q=q, doubling_check=False)
    for carried, separate_pass in zip(m.columns, column_integrals(sym, spec, q), strict=True):
        assert np.array_equal(carried, separate_pass)
    # the linear integrals are the diagonal of the same-order matrix
    assert np.diag(m.entries) == pytest.approx(m.columns[0], rel=1e-12, abs=1e-14)


_TABLE_GRID = np.linspace(-12.0, 12.0, 49)

EQUIVALENCE_CASES = {
    "1d-nu": (parse_symbol("exp(-absnu/2)/(1+x1^2)", 1), 12, 30),
    "2d-nu-free": (parse_symbol("1/(1+0.5*x1^2+0.3*x2^2)", 2), 7, 16),
    "2d-nu": (parse_symbol("lam^(-1)*(1+0.4*x1*x2/(1+x1^2+x2^2))", 2), 7, 16),
    "3d-nu-free": (parse_symbol("1/(1+0.5*x1^2+0.4*x2^2+0.3*x3^2)", 3), 4, 10),
    "3d-nu": (parse_symbol("exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)", 3), 4, 10),
    "1d-table": (table_symbol(1, [_TABLE_GRID], {
        (k,): (1.0 + k) / (1.0 + _TABLE_GRID**2) for k in range(7)}), 6, 14),
    # extreme nodes near 38.2, where e^(x^2/2) alone overflows
    "1d-level-700": (parse_symbol("exp(-0.01*absnu)/(1+x1^2)", 1), 700, 732),
    # nu inside the denominator: sampled per column
    "1d-non-separable": (parse_symbol("1/(1+(1+0.1*nu1)*x1^2)", 1), 12, 30),
    "2d-non-separable": (parse_symbol("1/(1+x1^2+(1+0.1*nu2)*x2^2)", 2), 7, 16),
    "2d-negated": (parse_symbol("-exp(-0.2*absnu)*(1+0.5*x1^2)/(1+x2^2)", 2), 7, 16),
    # shares partial sums over three nested index tails
    "4d-nu": (parse_symbol("(2+nu4)*x1*x2^2/(1+0.3*x3^2+0.5*x4^2)", 4), 3, 7),
}
# the cases that do not split into a(nu) b(x), so sample m once per column
PER_COLUMN_CASES = {"3d-nu", "1d-table", "1d-non-separable", "2d-non-separable"}


@pytest.mark.parametrize("columns", [None, 3, 0], ids=["one-chunk", "chunked", "column-by-column"])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_sum_factorization_matches_dense_sums(monkeypatch, case, columns):
    sym, level, q = EQUIVALENCE_CASES[case]
    spec = TruncationSpec(sym.dim, level)
    if columns is not None:  # a budget of that many columns of samples of m; with
        # one sample of b it holds more, and 0 leaves one column and one partial sum
        monkeypatch.setattr(operator, "_CHUNK_BYTES", columns * 8 * q**sym.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = assemble_matrix(sym, spec, q=q, doubling_check=False)
        matrix, linear, squared = dense_sums(sym, spec, q)
    scale = np.abs(matrix).max()
    assert np.abs(m.entries - matrix).max() <= 1e-13 * scale
    assert np.abs(m.columns[0] - linear).max() <= 1e-13 * scale
    # m^2 integrals carry the square of the symbol's scale
    assert np.abs(m.columns[1] - squared).max() <= 1e-13 * scale**2


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_only_symbols_that_do_not_split_are_sampled_per_column(monkeypatch, case):
    sym, level, q = EQUIVALENCE_CASES[case]
    sampled = []
    monkeypatch.setattr(operator, "symbol_sampler", lambda *args, **kwargs:
                        sampled.append(args) or symbol_sampler(*args, **kwargs))
    assemble_matrix(sym, TruncationSpec(sym.dim, min(level, 4)), q=q, doubling_check=False)
    assert bool(sampled) == (case in PER_COLUMN_CASES)


@pytest.mark.parametrize("factor", [1, 2], ids=["q", "2q"])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_grid_samples_equal_point_batch_samples_bit_for_bit(case, factor):
    # the per-axis nodes broadcast along their axes give what the (q^n, n)
    # points give, on the path the assembly takes: b of a split symbol, else
    # m per column through the sampler, which folds its nu-free subtrees
    # where eval_symbol on the points folds none; and m itself, directly
    sym, level, q = EQUIVALENCE_CASES[case]
    spec, rule = TruncationSpec(sym.dim, level), gauss_hermite_rule(factor * q)
    _, points, _ = dense_basis(spec, rule)
    nodes = np.tile(rule.nodes[:, None], sym.dim)
    if case in PER_COLUMN_CASES:
        got = symbol_sampler(sym, nodes)(spec.array)
        expected = eval_symbol(sym, points, spec.array)
    else:
        b = separate(sym)[1]
        got = eval_symbol(b, nodes, spec.array[:1], grid=True)
        expected = eval_symbol(b, points, spec.array[:1])
    assert got.shape == expected.shape and np.array_equal(got, expected)
    assert np.array_equal(eval_symbol(sym, nodes, spec.array, grid=True),
                          eval_symbol(sym, points, spec.array))


@pytest.mark.parametrize("text, dim", [
    ("1/x1", 1),
    ("1/x1", 3),                   # splits; b fails at the node 0
    ("exp(-absnu)*log(x1^2)", 2),  # splits; log(0) is -inf
    ("1/(x1+nu2)", 2),             # sampled per column
])
def test_grid_sampling_names_the_first_bad_point_as_the_point_batch_does(text, dim):
    sym, spec, q = parse_symbol(text, dim), TruncationSpec(dim, 3), 11  # odd q: a node at 0
    rule = gauss_hermite_rule(q)
    _, points, _ = dense_basis(spec, rule)
    with pytest.raises(SymbolEvalError) as expected:
        eval_symbol(sym, points, spec.array)
    assert "x=(0.0, " in str(expected.value) or "x=(0.0,)" in str(expected.value)
    readers = (lambda: eval_symbol(sym, np.tile(rule.nodes[:, None], dim), spec.array, grid=True),
               lambda: assemble_matrix(sym, spec, q),
               lambda: column_integrals(sym, spec, q))
    for reader in readers:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymbolEvalError) as raised:
                reader()
        assert str(raised.value) == str(expected.value)


def test_four_dimensional_column_integrals_take_no_point_array():
    # b is sampled on the broadcast per-axis nodes, so the peak is at most b
    # and its square, 2 x 19.5 MiB at q = 40 on the whole grid (2.8 MiB
    # folded), not the (q^4, 4) points plus a q^4 array for every subtree
    # (136.8 MiB with the points)
    sym = parse_symbol("exp(-0.2*absnu)/(1+0.3*x1^2+0.5*x2^2+0.4*x3^2+0.6*x4^2)", 4)
    tracemalloc.start()
    try:
        column_integrals(sym, TruncationSpec(4, 8), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_assembly_leaves_no_reference_cycles(case):
    # what a pass allocates is freed when it returns, not whenever the cyclic
    # garbage collector next runs, so peak memory does not depend on its timing
    sym, level, q = EQUIVALENCE_CASES[case]
    gc.collect()
    gc.disable()
    try:
        assemble_matrix(sym, TruncationSpec(sym.dim, level), q=q)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_shared_one_dimensional_row_contracts_as_that_row_repeated():
    # in 1-D one row of samples broadcasts over the columns: the same
    # contraction, bit for bit, as the row repeated once per column
    spec, q = TruncationSpec(1, 9), 20
    rule = gauss_hermite_rule(q)
    row, block = rule.basis[:spec.level + 1], spec.array
    shared = (1.0 / (1.0 + rule.nodes**2))[None, :]
    repeated = np.repeat(shared, spec.size, axis=0)
    assert np.array_equal(operator._contract(shared, row, row, block),
                          operator._contract(repeated, row, row, block))
    assert np.array_equal(operator._diagonal_sums(shared, row * row, block),
                          operator._diagonal_sums(repeated, row * row, block))


def _factor_products(dim: int):
    """Texts of products and quotients of nu-only factors and at least one
    x-only factor, with an optional leading minus; every divisor is positive
    on the whole grid."""
    j = st.integers(1, dim)
    nu_factor = st.one_of(
        st.sampled_from(["exp(-0.3*absnu)", "lam^(-0.5)", "0.5", "3", "(1+absnu)"]),
        j.map(lambda k: f"(2+nu{k})"))
    x_factor = st.one_of(
        st.sampled_from(["(1+x1^2)", "exp(-0.1*x1^2)", "(2+sin(x1))"]),
        j.map(lambda k: f"(1+0.3*x{k}^2)"),
        st.tuples(j, j).map(lambda t: f"(1.5+x{t[0]}/(1+x{t[1]}^2))"))
    terms = st.lists(st.tuples(st.sampled_from("*/"), st.one_of(nu_factor, x_factor)), max_size=4)
    return st.tuples(st.booleans(), x_factor, terms, st.integers(0, 4)).map(
        lambda t: ("-" if t[0] else "") + "".join(
            f"({f})" if i == 0 else f"{o}({f})"
            for i, (o, f) in enumerate(t[2][:t[3]] + [("*", t[1])] + t[2][t[3]:])))


separable_symbols = st.integers(1, 3).flatmap(lambda dim: _factor_products(dim).map(
    lambda text: parse_symbol(text, dim)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(separable_symbols)
def test_separable_assembly_matches_dense_sums(sym):
    assert separate(sym) is not None
    level, q = (5, 3, 2)[sym.dim - 1], (12, 8, 6)[sym.dim - 1]
    spec = TruncationSpec(sym.dim, level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = assemble_matrix(sym, spec, q=q, doubling_check=False)
        matrix, linear, squared = dense_sums(sym, spec, q)
    scale = np.abs(matrix).max()
    assert np.abs(m.entries - matrix).max() <= 1e-13 * scale, sym.text
    assert np.abs(m.columns[0] - linear).max() <= 1e-13 * scale, sym.text
    assert np.abs(m.columns[1] - squared).max() <= 1e-13 * scale**2, sym.text


def test_a_product_of_finite_factors_that_overflows_names_the_first_bad_point():
    # a(nu) = e^(200 nu1) and b(x) = 1e200 + x1^2 are finite on the grid, and
    # a(nu) b(x) overflows first at nu = (2,); the message is the one
    # eval_symbol gives for m over the whole grid
    sym, spec, q = parse_symbol("exp(200*nu1)*(1e200+x1^2)", 1), TruncationSpec(1, 3), 35
    assert separate(sym) is not None
    with pytest.raises(SymbolEvalError) as expected:
        eval_symbol(sym, gauss_hermite_rule(q).nodes[:, None], spec.array)
    assert "nu=(2,)" in str(expected.value)
    for reader in (lambda: assemble_matrix(sym, spec, q), lambda: column_integrals(sym, spec, q)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymbolEvalError) as raised:
                reader()
        assert str(raised.value) == str(expected.value)


# symbols whose sign under the flip of every axis the tree proves, so they are
# assembled on the non-negative nodes only
FOLD_CASES = {
    "1d": ("exp(-absnu/2)/(1+x1^2)", 1, 12),
    "1d-odd": ("x1*exp(-absnu/2)/(1+x1^2)", 1, 12),
    "2d": ("exp(-0.5*absnu)/(1+0.4*x1^2+0.6*x2^2)", 2, 7),
    "3d": ("exp(-0.2*absnu)/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, 4),
    "3d-per-column": ("1/(1+x1^2+(1+0.1*nu3)*x2^2+x3^2)", 3, 4),
    "3d-odd": ("exp(-0.3*absnu)*x1/(1+x2^2+0.5*x3^2)", 3, 4),
    "3d-odd-per-column": ("exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)", 3, 4),
}


@pytest.mark.parametrize("columns", [None, 0], ids=["one-chunk", "column-by-column"])
@pytest.mark.parametrize("odd_q", [False, True], ids=["even-q", "odd-q"])
@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_the_folded_grid_matches_the_whole_grid_sums(monkeypatch, case, odd_q, columns):
    text, dim, level = FOLD_CASES[case]
    sym, spec = parse_symbol(text, dim), TruncationSpec(dim, level)
    q = (30, 16, 10)[dim - 1] + odd_q  # an odd q has the node 0, which has no mirror
    signs = np.array(axis_signs(sym))
    assert 0 not in signs and (separate(sym) is None) == case.endswith("per-column")
    if columns is not None:
        monkeypatch.setattr(operator, "_CHUNK_BYTES", columns * 8 * q**dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = assemble_matrix(sym, spec, q=q, doubling_check=False)
        matrix, linear, squared = dense_sums(sym, spec, q)
    scale = np.abs(matrix).max()
    assert np.abs(m.entries - matrix).max() <= 1e-13 * scale
    # M[mu, nu] = 0 unless (-1)^(mu_j + nu_j) = signs[j] on every axis: exactly, not
    # the roundoff the whole grid leaves there
    parity = np.where((spec.array[:, None, :] + spec.array[None, :, :]) % 2, -1, 1)
    off = (parity != signs).any(axis=2)
    assert off.any() and np.array_equal(m.entries[off], np.zeros(off.sum()))
    if (signs < 0).any():  # m phi_nu^2 is odd
        assert np.array_equal(m.columns[0], np.zeros(spec.size))
    else:
        assert np.abs(m.columns[0] - linear).max() <= 1e-13 * scale
    assert np.abs(m.columns[1] - squared).max() <= 1e-13 * scale**2


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_the_grid_is_folded_iff_every_axis_is_signed(monkeypatch, case):
    sym, level, q = EQUIVALENCE_CASES[case]
    seen = []
    for name in ("eval_symbol", "symbol_sampler"):
        original = getattr(operator, name)
        monkeypatch.setattr(operator, name, lambda spec, x, *args, original=original, **kwargs:
                            seen.append(len(x)) or original(spec, x, *args, **kwargs))
    assemble_matrix(sym, TruncationSpec(sym.dim, min(level, 4)), q=q)
    # the nodes of the order-q and order-2q passes
    if 0 in axis_signs(sym):
        assert sorted(set(seen)) == [q, 2 * q]
    else:
        assert sorted(set(seen)) == [q - q // 2, q]


def test_a_folded_sample_names_the_first_bad_point_of_the_whole_grid():
    # log(x1^2 - nu1) is even in both axes and first fails at x1 = -0.96 on the
    # whole grid, which the non-negative nodes do not hold
    sym, spec, q = parse_symbol("log(x1^2 - nu1)", 2), TruncationSpec(2, 3), 10
    assert separate(sym) is None and axis_signs(sym) == (1, 1)
    _, points, _ = dense_basis(spec, gauss_hermite_rule(q))
    with pytest.raises(SymbolEvalError) as expected:
        eval_symbol(sym, points, spec.array)
    assert "x=(-" in str(expected.value)
    for reader in (lambda: assemble_matrix(sym, spec, q), lambda: column_integrals(sym, spec, q)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymbolEvalError) as raised:
                reader()
        assert str(raised.value) == str(expected.value)


def test_four_dimensional_assembly_samples_the_folded_grid():
    # with the doubling check: b on the order-2q grid is 40^4 doubles (20 MiB)
    # on the non-negative nodes, 80^4 (312 MiB) on the whole grid
    sym = parse_symbol("exp(-0.2*absnu)/(1+0.3*x1^2+0.5*x2^2+0.4*x3^2+0.6*x4^2)", 4)
    tracemalloc.start()
    try:
        assemble_matrix(sym, TruncationSpec(4, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20, peak / 2**20


def test_worst_column_is_recorded_with_the_doubling_check():
    sym, spec = parse_symbol("exp(-absnu)/(1+4*x1^2)", 1), TruncationSpec(1, 6)
    assert assemble_matrix(sym, spec, q=8, doubling_check=False).worst_column is None
    assert assemble_matrix(parse_symbol("exp(-absnu)", 1), spec, q=8).worst_column is None
    nu, change = assemble_matrix(sym, spec, q=8).worst_column
    coarse = assemble_matrix(sym, spec, q=8, doubling_check=False).entries
    fine = assemble_matrix(sym, spec, q=16, doubling_check=False).entries
    per_column = np.linalg.norm(fine - coarse, axis=0) / np.linalg.norm(fine, axis=0)
    assert nu == tuple(spec.array[int(np.argmax(per_column))].tolist())
    assert change == pytest.approx(per_column.max(), rel=1e-12)


def test_worst_column_of_a_mirrored_tie_is_the_first_in_graded_order():
    # the symbol is symmetric under x1 <-> x2, so nu = (0, 10) and (10, 0)
    # change alike up to rounding; the first of the two is named
    sym = parse_symbol("lam^(-0.75)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2)
    spec = TruncationSpec(2, 10)
    nu, _ = assemble_matrix(sym, spec, q=16).worst_column
    assert nu == (10, 0)
    assert rank(spec, (10, 0)) < rank(spec, (0, 10))


# symbols with invariant flips, so their operators are stored as parity blocks
BLOCK_CASES = {
    "even-2d": ("exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)", 2, 12, 4),
    "joint-flip-2d": ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2, 12, 2),
    "x2-flip-2d": ("exp(-0.3*lam)*(2+0.7*x1/(1+x2^2))", 2, 12, 2),
    "per-column-2d": ("1/(1+x1^2+(1+0.1*nu2)*x2^2)", 2, 8, 4),
    "3d": ("exp(-0.2*absnu)/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, 5, 8),
    "1d": ("x1*sin(x1)/(1+x1^2)", 1, 30, 2),
}


@pytest.mark.parametrize("level", [0, 1, 2, 5])
@pytest.mark.parametrize("text, dim", [
    ("x1*sin(x1)/(1+x1^2)", 1),
    ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2),
    ("exp(-0.3*lam)*(2+0.7*x1/(1+x2^2))", 2),
    ("exp(-0.2*absnu)/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3),
    ("x1*x2*x3/(1+x1^2+x2^2+x3^2)", 3),
    ("(1+x1*x2)*(1+x3*x4)/(1+x1^2+x2^2+x3^2+x4^2)", 4),
])
def test_parity_blocks_group_nu_by_its_parities_over_the_invariant_flips(text, dim, level):
    # in order: the classes of the rows nu . h mod 2 over the flips h, sorted
    sym, spec = parse_symbol(text, dim), TruncationSpec(dim, level)
    flips = (np.array(invariant_flips(sym))[:, None] >> np.arange(dim)) & 1
    group = np.unique(spec.array @ flips.T % 2, axis=0, return_inverse=True)[1].ravel()
    expected = [np.flatnonzero(group == g) for g in range(group.max() + 1)]
    blocks = operator._parity_blocks(sym, spec)
    assert len(blocks) == len(expected)
    assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("columns", [None, 0], ids=["one-chunk", "column-by-column"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_the_blocks_are_the_one_block_matrix_cut_with_exact_zeros_elsewhere(monkeypatch, case,
                                                                            columns):
    text, dim, level, count = BLOCK_CASES[case]
    sym, spec = parse_symbol(text, dim), TruncationSpec(dim, level)
    if columns is not None:
        monkeypatch.setattr(operator, "_CHUNK_BYTES", columns)
    m = assemble_matrix(sym, spec)
    assert len(m.blocks) == len(m.values) == count
    # the same assembly stored as one dense block
    monkeypatch.setattr(operator, "_parity_blocks", lambda sym, spec: (np.arange(spec.size),))
    (whole,) = assemble_matrix(sym, spec).values
    inside = np.zeros(whole.shape, dtype=bool)
    for b, block in zip(m.blocks, m.values):
        assert np.array_equal(_bits(block), _bits(whole[np.ix_(b, b)]))
        inside[np.ix_(b, b)] = True
    entries = m.entries
    assert np.array_equal(_bits(entries[inside]), _bits(whole[inside]))
    assert not entries[~inside].any()
    # where the whole matrix has at most roundoff
    assert np.abs(whole[~inside]).max() <= 1e-15 * np.abs(whole).max()
    assert m.trace() == float(np.trace(whole))


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_the_blockwise_residual_matches_one_from_the_dense_entries(case):
    text, dim, level, _ = BLOCK_CASES[case]
    sym, spec = parse_symbol(text, dim), TruncationSpec(dim, level)
    m = assemble_matrix(sym, spec)
    q = m.quad_order
    coarse = assemble_matrix(sym, spec, q, doubling_check=False).entries
    fine = assemble_matrix(sym, spec, 2 * q, doubling_check=False).entries
    assert np.array_equal(fine, m.entries)
    residual = np.linalg.norm(fine - coarse) / np.linalg.norm(fine)
    assert m.assembly_residual == pytest.approx(residual, rel=1e-14)
    per_column = np.linalg.norm(fine - coarse, axis=0) / np.linalg.norm(fine, axis=0)
    nu, change = m.worst_column
    assert change == pytest.approx(per_column.max(), rel=1e-14)
    assert per_column[rank(spec, nu)] >= (1 - 1e-9) * per_column.max()


@pytest.mark.parametrize("columns", [None, 0], ids=["one-chunk", "column-by-column"])
def test_an_overflowing_chunk_names_the_first_column_in_enumeration_order(monkeypatch, columns):
    # the shared sample takes the columns in tail order, (3, 0) before (0, 1);
    # the sum at mu = (0, 0) of column (0, 1) lies outside its parity block
    # and is still checked, while one at mu = (6, 6), outside the truncation,
    # is not
    sym, spec = parse_symbol("exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)", 2), TruncationSpec(2, 6)
    poison = {(3, 0): (1, 0), (0, 1): (0, 0), (0, 0): (6, 6)}
    real = operator._contract

    def poisoned(values, row, weights, block, signs=None):
        sums = real(values, row, weights, block, signs)
        for nu, mu in poison.items():
            sums[(block == nu).all(axis=1), mu[0] * 7 + mu[1]] = np.inf
        return sums

    monkeypatch.setattr(operator, "_contract", poisoned)
    if columns is not None:
        monkeypatch.setattr(operator, "_CHUNK_BYTES", columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as raised:
            assemble_matrix(sym, spec, q=38, doubling_check=False)
    assert str(raised.value) == "the order-38 matrix overflows at nu=(0, 1)"


def test_a_blocked_assembly_holds_far_less_than_three_dense_matrices():
    # four parity blocks: each pass stores about D^2/4 entries, where the
    # dense assembly held the order-q and order-2q matrices and their change
    sym, spec = parse_symbol("exp(-0.5*absnu)/(1+0.3*x1^2+0.6*x2^2)", 2), TruncationSpec(2, 60)
    dense = 8 * spec.size**2
    tracemalloc.start()
    try:
        assemble_matrix(sym, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * dense, peak / dense


def test_matrix_vs_direct_quantization_sum():
    # M c summed on the basis against the direct pseudo-multiplier sum
    spec = TruncationSpec(1, 20)
    sym = builtin_symbol("heat", 1, t=1.0)
    m = assemble_matrix(sym, spec)
    c = dense_coefficients(lambda x: np.exp(-(x - 0.4) ** 2), spec, 60)
    phi = hermite_table(20, [0.3])[:, 0]
    via_matrix = math.fsum((m.entries @ c) * phi)
    direct = sum(math.exp(-(2 * k + 1)) * c[k] * phi[k] for k in range(21))
    assert via_matrix == pytest.approx(direct, abs=1e-10)


def test_matrix_vs_kernel_pathway():
    # M c against the coefficients of the kernel-applied function: the
    # matrix is P_N T P_N, so the kernel output must be projected back onto
    # the span before comparing (the unprojected residual decays only like
    # the Hermite coefficients of the symbol's x-profile)
    spec = TruncationSpec(1, 12)
    sym = parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)
    q = 60
    # equal quadrature on both pathways: skip the doubling refinement
    m = assemble_matrix(sym, spec, q=q, doubling_check=False)
    rule = gauss_hermite_rule(q)
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.normal(size=spec.size)
        fvals = c @ hermite_table(spec.level, rule.nodes)

        def kernel_applied(xs):
            out = []
            for x in np.atleast_1d(xs):
                kvals = np.array([kernel_sum(sym, spec, [x], [y]) for y in rule.nodes])
                out.append(rule.weights @ (kvals * fvals * np.exp(rule.nodes**2)))
            return np.array(out)

        via_matrix = m.entries @ c
        via_kernel = dense_coefficients(kernel_applied, spec, q)
        assert np.abs(via_matrix - via_kernel).max() < 1e-8


def test_two_dim_assembly_diagonal():
    spec = TruncationSpec(2, 4)
    m = assemble_matrix(builtin_symbol("heat", 2, t=0.5), spec)
    lam = 2 * spec.array.sum(axis=1) + 2
    assert np.diag(m.entries) == pytest.approx(np.exp(-0.5 * lam), rel=1e-14)


def test_two_dim_identity_by_quadrature():
    spec = TruncationSpec(2, 5)
    sym = parse_symbol("1 + 0 * x1 * x2", 2)
    m = assemble_matrix(sym, spec, q=20, doubling_check=False)
    assert np.abs(m.entries - np.eye(spec.size)).max() < 1e-11


@pytest.mark.parametrize("dim, level, q", [(2, 6, 14), (3, 3, 9), (1, 700, 732)])
def test_first_column_is_the_coefficients_of_m_phi_0(dim, level, q):
    # M[mu, 0] = <m phi_0, phi_mu>: the sum factorization against one dense
    # sum of m phi_0 times the half weights, which never meets the basis row 0
    spec = TruncationSpec(dim, level)
    shifted = "+".join(f"(x{j + 1}-0.3)^2" for j in range(dim))
    sym = parse_symbol(f"exp(-({shifted}))*(1+x1)", dim)

    def f(x):
        x = x.reshape(len(x), -1)
        m = np.exp(-np.sum((x - 0.3) ** 2, axis=1)) * (1 + x[:, 0])
        return m * math.pi ** (-dim / 4) * np.exp(-0.5 * np.sum(x * x, axis=1))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = dense_coefficients(f, spec, q)
        got = assemble_matrix(sym, spec, q, doubling_check=False).entries[:, 0]
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_gaussian_column_against_oracle():
    # m phi_0 = e^(-x^2), so column 0 holds <e^(-x^2), phi_k>
    spec = TruncationSpec(1, 4)
    col = assemble_matrix(parse_symbol("pi^0.25*exp(-0.5*x1^2)", 1), spec, q=48,
                          doubling_check=False).entries[:, 0]
    assert col[0] == pytest.approx(INNER_GAUSS_PHI0, abs=1e-12)
    assert col[2] == pytest.approx(INNER_GAUSS_PHI2, abs=1e-12)
    assert abs(col[1]) < 1e-14 and abs(col[3]) < 1e-14


def test_the_matrix_is_linear_in_the_symbol():
    # T_(a + 2b) = T_a + 2 T_b; the even a and odd b run on the folded grid,
    # their sum, neither, on the whole grid
    spec = TruncationSpec(1, 5)
    a, b = "exp(-absnu)/(1+x1^2)", "x1*exp(-0.5*absnu)/(1+x1^2)"

    def matrix(text):
        return assemble_matrix(parse_symbol(text, 1), spec, q=32, doubling_check=False).entries

    combined = matrix(f"{a} + 2*({b})")
    assert np.abs(combined - (matrix(a) + 2 * matrix(b))).max() < 1e-14 * np.abs(combined).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_worst_column_names_nu_as_a_tuple_of_ints(dim):
    # the warning prints it as nu=(4,) in 1-D and nu=(4, 0) in 2-D
    scales = "+".join(f"{c}*x{j + 1}^2" for j, c in enumerate((4, 2, 3)[:dim]))
    spec = TruncationSpec(dim, 4)
    nu, change = assemble_matrix(parse_symbol(f"exp(-absnu)/(1+{scales})", dim), spec,
                                 q=6).worst_column
    assert type(nu) is tuple and len(nu) == dim and all(type(k) is int for k in nu)
    assert nu == tuple(spec.array[rank(spec, nu)].tolist())
    assert str(nu) == "(" + ", ".join(map(str, nu)) + ("," if dim == 1 else "") + ")"
    assert type(change) is float and change > 0
