import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspec import (
    SymbolError,
    SymbolEvalError,
    SymbolParseError,
    TruncationSpec,
    assemble_matrix,
    axis_signs,
    builtin_symbol,
    eval_symbol,
    invariant_flips,
    load_symbol,
    multiplier_value,
    parse_symbol,
    pretty_print,
    separate,
    symbol_from_dict,
    symbol_sampler,
    symbol_to_dict,
    table_symbol,
)
import hspec.symbol
from hspec.cli import main
from hspec.symbol import MAX_DEPTH, BinOp, Call, Neg, Var, _env, _eval_node, _fold, _Parser

# corpus for the round-trip property; dim 2 unless marked
CORPUS = [
    "1", "2.5", "1e3", "1.5e-2", ".5", "pi", "e", "n", "absnu", "lam",
    "x1", "x2", "nu1", "nu2",
    "x1 + x2", "x1 - x2", "x1 * x2", "x1 / (1 + x2^2)", "x1^2", "-x1",
    "--x1", "-(x1 + 1)", "x1 - -x2", "2^3", "(x1 + x2) * (x1 - x2)",
    "exp(-absnu)", "exp(-absnu/2)/(1+x1^2)", "x1 * exp(-absnu)",
    "pow(lam, -1.0)", "pow(lam, -2)", "exp(-x1^2)*exp(-absnu)",
    "log(1 + absnu)", "sin(x1)*cos(x2)", "sqrt(1 + nu1)", "abs(x1 - x2)",
    "min(x1, x2)", "max(absnu, 1)", "min(exp(-lam), 1/lam)",
    "1/(1+lam)", "lam^(-1)", "(2*absnu + n)^(-1)",
    "exp(-lam) + exp(-2*lam)", "x1*x2*exp(-(x1^2+x2^2)/2)",
    "pi * e / n", "1 + 2 + 3 + 4", "1 - 2 - 3", "2 * 3 / 4",
    "pow(abs(x1), 2)", "sqrt(abs(min(x1, -x2)))", "exp(-max(nu1, nu2))",
]


def value_at(sym, x, nu):
    """m(x, nu) at one point x and one index nu."""
    return float(eval_symbol(sym, x, [nu])[0, 0])


def test_corpus_size():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", CORPUS)
def test_pretty_print_round_trip(text):
    tree = _Parser(text, 2).parse()
    printed = pretty_print(tree)
    assert _Parser(printed, 2).parse() == tree


def test_multiplier_detection():
    assert parse_symbol("exp(-absnu)", 1).is_multiplier
    assert not parse_symbol("x1^2 * exp(-absnu/4)", 2).is_multiplier
    # x2 unused is fine in dim 2
    assert not parse_symbol("x1^2", 2).is_multiplier


def test_unknown_identifier_rejected():
    with pytest.raises(SymbolParseError, match="unknown identifier 'x3'"):
        parse_symbol("x3", 2)
    with pytest.raises(SymbolParseError, match="unknown identifier 'x2'"):
        parse_symbol("x2 + 1", 1)


def test_parse_errors_carry_positions():
    with pytest.raises(SymbolParseError) as err:
        parse_symbol("1 + ", 1)
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(SymbolParseError) as err:
        parse_symbol("exp(x1", 1)
    assert err.value.col == 7
    with pytest.raises(SymbolParseError) as err:
        parse_symbol("x1 +\n* 2", 1)
    assert err.value.line == 2 and err.value.col == 1


def test_arity_errors():
    with pytest.raises(SymbolParseError, match="takes 1 argument"):
        parse_symbol("exp(x1, 1)", 1)
    with pytest.raises(SymbolParseError, match="takes 2 argument"):
        parse_symbol("pow(x1)", 1)
    with pytest.raises(SymbolParseError, match="unknown function"):
        parse_symbol("tan(x1)", 1)


def test_power_family():
    # symbol of the inverse oscillator: (2|nu| + n)^(-sigma)
    s = builtin_symbol("power", 1, sigma=1.0)
    assert value_at(s, 0.37, (2,)) == pytest.approx(1.0 / 5.0, rel=1e-15)
    assert s.is_multiplier and s.claims_positive_selfadjoint


def test_power_family_matches_expression():
    s = builtin_symbol("power", 1, sigma=1.0)
    expr = parse_symbol("pow(lam, -1.0)", 1)
    for k in range(6):
        assert value_at(expr, 0.0, (k,)) == pytest.approx(value_at(s, 0.0, (k,)), rel=1e-15)


def test_heat_family():
    s = builtin_symbol("heat", 1, t=1.0)
    assert value_at(s, 0.0, (0,)) == pytest.approx(math.exp(-1.0), rel=1e-15)
    for k in range(40):
        assert value_at(s, 0.0, (k,)) > 0


def test_power_positive_decreasing():
    s = builtin_symbol("power", 1, sigma=0.7)
    vals = [value_at(s, 0.0, (k,)) for k in range(30)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bandlimit_family():
    s = builtin_symbol("bandlimit", 2, cutoff=3)
    assert value_at(s, (0.1, 0.2), (1, 2)) == 1.0
    assert value_at(s, (0.1, 0.2), (2, 2)) == 0.0


def test_builtin_param_validation():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_symbol("wave", 1, t=1.0)
    with pytest.raises(ValueError, match="needs params"):
        builtin_symbol("heat", 1, sigma=1.0)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="needs finite params"):
            builtin_symbol("heat", 1, t=value)


def test_builtin_rejects_dimension_below_one():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        builtin_symbol("heat", 0, t=1.0)


def test_multiplier_value():
    s = parse_symbol("1/absnu", 1)
    assert multiplier_value(s, [(4,)]).tolist() == [value_at(s, 0.3, (4,))] == [0.25]
    with pytest.raises(SymbolEvalError, match="not finite"):
        multiplier_value(s, [(0,)])
    with pytest.raises(SymbolEvalError, match="not finite"):
        multiplier_value(builtin_symbol("heat", 1, t=-1000.0), [(3,)])
    with pytest.raises(ValueError, match="depends on x"):
        multiplier_value(parse_symbol("x1", 1), [(0,)])


def test_lam_is_the_oscillator_eigenvalue():
    # H phi_nu = (2|nu| + n) phi_nu for H = -Laplacian + |x|^2 on R^n
    for nu, lam in [((0,), 1.0), ((1, 2), 8.0), ((0, 0, 0), 3.0)]:
        sym = parse_symbol("lam", len(nu))
        assert multiplier_value(sym, [nu]).tolist() == [lam]
        assert eval_symbol(sym, np.zeros(len(nu)), [nu]).tolist() == [[lam]]


@pytest.mark.parametrize("nu, shape", [((1, 2), "(2,)"), ([(1, 2, 0)], "(1, 3)")],
                         ids=["one-index", "wrong-width"])
def test_an_index_array_of_the_wrong_shape_is_refused(nu, shape):
    # indices are (c, n) arrays only: one index on its own is not read as a row
    message = re.escape(f"index array has shape {shape}, expected (c, 2)")
    with pytest.raises(ValueError, match=message):
        eval_symbol(parse_symbol("x1*exp(-absnu)", 2), [0.5, 0.5], nu)
    with pytest.raises(ValueError, match=message):
        multiplier_value(parse_symbol("exp(-absnu)", 2), nu)


@pytest.mark.parametrize("sym, reference", [
    (builtin_symbol("power", 2, sigma=1.7), lambda nu: (2 * sum(nu) + 2) ** -1.7),
    (builtin_symbol("heat", 2, t=0.3), lambda nu: math.exp(-0.3 * (2 * sum(nu) + 2))),
    (builtin_symbol("bandlimit", 2, cutoff=7), lambda nu: 1.0 if sum(nu) <= 7 else 0.0),
    (parse_symbol("exp(-0.3*lam)*(1+0.5*cos(pi*nu1))", 2), None),
    (parse_symbol("pow(1+nu1,-1.3)*log(2+nu1*nu2)/lam^2.5", 2), None),
], ids=["power", "heat", "bandlimit", "exp-cos", "pow-log"])
def test_multiplier_value_on_an_index_array_is_bitwise_per_index(sym, reference):
    spec = TruncationSpec(2, 20)
    got = multiplier_value(sym, spec.array)
    assert got.shape == (spec.size,)
    per_index = [float(multiplier_value(sym, [nu])[0]) for nu in spec.array.tolist()]
    assert got.tolist() == per_index
    if reference is not None:
        assert per_index == [float(reference(nu)) for nu in spec.array.tolist()]


def test_multiplier_value_on_an_index_array_names_the_first_bad_index():
    spec = TruncationSpec(2, 6)
    with pytest.raises(SymbolEvalError, match=r"not finite at nu=\(3, 0\)$"):
        multiplier_value(parse_symbol("1/(absnu-3)", 2), spec.array)
    # e^(400 lam) overflows from lam = 3, the 1-D index nu = (1,), on
    with pytest.raises(SymbolEvalError, match=r"not finite at nu=\(1,\)$"):
        multiplier_value(builtin_symbol("heat", 1, t=-400.0), TruncationSpec(1, 6).array)


def test_expression_evaluation():
    s = parse_symbol("exp(-(x1^2))*exp(-absnu)", 1)
    got = value_at(s, 0.5, (3,))
    assert got == pytest.approx(math.exp(-0.25) * math.exp(-3.0), rel=1e-14)


def test_unary_minus_binds_before_power():
    # per the grammar, factor := unary ("^" unary)?, so -x1^2 is (-x1)^2
    s = parse_symbol("-x1^2", 1)
    assert value_at(s, 3.0, (0,)) == pytest.approx(9.0, rel=1e-15)


def test_multiplier_constant_in_x():
    s = parse_symbol("exp(-absnu) + 1/lam", 1)
    rng = np.random.default_rng(7)
    vals = {value_at(s, float(x), (4,)) for x in rng.normal(size=10)}
    assert len(vals) == 1


def test_batch_evaluation():
    s = parse_symbol("x1 * exp(-absnu)", 1)
    pts = np.array([[-1.0], [0.0], [2.0]])
    got = eval_symbol(s, pts, [(1,)])[0]
    assert got == pytest.approx(np.array([-1.0, 0.0, 2.0]) * math.exp(-1.0), rel=1e-14)


def test_eval_error_names_inputs():
    s = parse_symbol("log(x1)", 1)
    with pytest.raises(SymbolEvalError, match="nu=\\(1,\\)"):
        value_at(s, -2.0, (1,))
    with pytest.raises(SymbolEvalError):
        value_at(parse_symbol("1/x1", 1), 0.0, (0,))


@pytest.mark.parametrize("text", [
    "x1 * exp(-absnu) + nu2 / (1 + x2^2)",   # depends on nu
    "1 / (1 + 0.5 * x1^2 + x2^2)",            # nu-free
    "x1",                                      # constant along x2
])
def test_index_array_evaluation_matches_eval_symbol(text):
    s = parse_symbol(text, 2)
    nodes = np.array([-1.5, -0.2, 0.7])
    pts = np.array([(a, b) for a in nodes for b in nodes])
    nus = np.array([[0, 0], [2, 1], [0, 3]])
    got = eval_symbol(s, pts, nus)
    assert got.shape[1:] == (9,)
    for k, nu in enumerate(nus):
        want = eval_symbol(s, pts, nu[None])[0]
        assert np.allclose(np.broadcast_to(got, (3, 9))[k], want, rtol=1e-15, atol=0.0)
    if "nu" not in text:
        assert got.shape[0] == 1  # evaluated on the M points only
    else:
        assert got.shape[0] == 3


def test_index_array_evaluation_does_not_alias_the_points():
    pts = np.array([[0.5, 1.0], [2.0, -1.0]])
    got = eval_symbol(parse_symbol("x1", 2), pts, [[0, 0]])
    got[0, 0] = 7.0
    assert pts[0, 0] == 0.5


@pytest.mark.parametrize("x, width", [
    (np.arange(6.0).reshape(2, 3), 3),  # six coordinates, also three points of two
    ([0.5, 1.0, 2.0, 3.0], 4),          # one point of four coordinates, not two points
    (0.5, 1),
], ids=["batch", "point", "scalar"])
def test_points_must_have_the_symbol_dimension(x, width):
    # the width is checked before the points are read, so no batch is regrouped
    with pytest.raises(ValueError, match=f"^points have dimension {width}, symbol has 2$"):
        eval_symbol(parse_symbol("x1 + 10*x2", 2), x, [[0, 0]])


def test_index_array_must_have_the_symbol_dimension():
    s = parse_symbol("x1 + nu2", 2)
    for bad in ([[0, 0, 1], [1, 0, 0]], [0, 1]):
        with pytest.raises(ValueError, match="expected \\(c, 2\\)"):
            eval_symbol(s, np.zeros((3, 2)), bad)


def test_index_array_evaluation_of_a_table_and_a_multiplier():
    g = np.linspace(-2, 2, 21)
    s = table_symbol(2, [g, g], {(0, 0): np.add.outer(g**2, g), (1, 0): np.ones((21, 21))})
    pts = np.array([(a, b) for a in (-0.4, 1.0) for b in (-0.4, 1.0)])
    got = eval_symbol(s, pts, [[0, 0], [1, 0]])
    assert got[0] == pytest.approx(np.add.outer([0.16, 1.0], [-0.4, 1.0]).ravel(), abs=1e-12)
    assert np.array_equal(got[1], np.ones(4))
    heat = builtin_symbol("heat", 2, t=0.5)
    assert np.array_equal(eval_symbol(heat, pts, [[0, 0], [1, 2]]),
                          np.repeat([[math.exp(-1.0)], [math.exp(-4.0)]], 4, axis=1))


def test_index_array_evaluation_names_the_first_bad_point_like_eval_symbol():
    s = parse_symbol("x2 / (absnu - 1) + 1 / x1", 2)
    nodes = np.array([-1.0, 0.0, 1.0])
    pts = np.array([(a, b) for a in nodes for b in nodes])
    with pytest.raises(SymbolEvalError) as batch_err:
        eval_symbol(s, pts, [[0, 0], [1, 0]])
    with pytest.raises(SymbolEvalError) as point_err:
        eval_symbol(s, pts, [(0, 0)])
    assert str(batch_err.value) == str(point_err.value)
    assert str(batch_err.value) == "symbol evaluation not finite at x=(0.0, -1.0), nu=(0, 0)"
    corners = np.array([(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
    with pytest.raises(SymbolEvalError, match=r"x=\(-1.0, -1.0\), nu=\(1, 0\)$"):
        eval_symbol(s, corners, [[0, 0], [1, 0]])


@pytest.mark.parametrize("text", [
    "exp(-0.3*absnu)/(1+0.5*x1^2+0.2*x2^2)",  # nu-free denominator
    "x1*nu2 - sin(x2)*lam + pow(x1, 2)",
    "1/(1+x1^2+x2^2)",                        # nu-free throughout
    "max(x1, absnu - 2) * (1 + nu1)",
])
def test_sampler_equals_eval_symbol_bit_for_bit(text):
    # the sampler folds the nu-free subtrees on the nodes; eval_symbol on the
    # grid's points folds nothing
    s = parse_symbol(text, 2)
    nodes = np.array([[-1.5, -0.9], [-0.2, 0.4], [0.7, 1.1]])
    pts = np.array([(a, b) for a in nodes[:, 0] for b in nodes[:, 1]])
    sample = symbol_sampler(s, nodes)
    for block in ([[0, 0], [2, 1], [0, 3]], [[1, 1]], [[4, 0], [0, 4]]):
        assert np.array_equal(sample(block), eval_symbol(s, pts, block))


def test_sampler_of_a_table_and_a_multiplier():
    g = np.linspace(-2, 2, 21)
    table = table_symbol(2, [g, g], {(0, 0): np.add.outer(g**2, g), (1, 0): np.ones((21, 21))})
    heat = builtin_symbol("heat", 2, t=0.5)
    nodes = np.array([[-0.4, 1.0], [0.3, 0.2]])
    pts = np.array([(a, b) for a in nodes[:, 0] for b in nodes[:, 1]])
    for s in (table, heat):
        assert np.array_equal(symbol_sampler(s, nodes)([[0, 0], [1, 0]]),
                              eval_symbol(s, pts, [[0, 0], [1, 0]]))


def test_grid_nodes_give_the_tensor_grid_batch():
    # the (q, n) per-axis nodes stand for their q^n points, x_1 slowest
    g = np.linspace(-2, 2, 21)
    table = table_symbol(2, [g, g], {(0, 0): np.add.outer(g**2, g), (1, 0): np.ones((21, 21))})
    nodes = np.array([[-0.4, 1.0], [0.3, 0.2], [1.5, -1.1]])
    pts = np.array([(a, b) for a in nodes[:, 0] for b in nodes[:, 1]])
    for s in (table, builtin_symbol("heat", 2, t=0.5), parse_symbol("x1 - 2*x2 + nu1", 2),
              parse_symbol("exp(-absnu)", 2)):
        assert np.array_equal(eval_symbol(s, nodes, [[0, 0], [1, 0]], grid=True),
                              eval_symbol(s, pts, [[0, 0], [1, 0]]))
        assert np.array_equal(symbol_sampler(s, nodes)([[1, 0]]),
                              eval_symbol(s, pts, [[1, 0]]))
    assert eval_symbol(parse_symbol("x1 - 2*x2", 2), nodes, [(0, 0)],
                       grid=True).shape == (1, 9)
    for bad in (nodes[:, :1], nodes.ravel()):
        with pytest.raises(ValueError, match="grid nodes have shape"):
            eval_symbol(parse_symbol("x1", 2), bad, [[0, 0]], grid=True)


def test_sampler_reports_a_bad_nu_free_subtree_like_eval_symbol():
    s = parse_symbol("x2 / (absnu - 1) + 1 / x1", 2)
    nodes = np.tile(np.array([[-1.0], [0.0], [1.0]]), 2)
    pts = np.array([(a, b) for a in nodes[:, 0] for b in nodes[:, 1]])
    sample = symbol_sampler(s, nodes)  # 1 / x1 is evaluated here, without raising
    for block in ([[0, 0], [1, 0]], [[1, 0]]):
        with pytest.raises(SymbolEvalError) as sampled:
            sample(block)
        with pytest.raises(SymbolEvalError) as direct:
            eval_symbol(s, pts, block)
        assert str(sampled.value) == str(direct.value)


def test_table_symbol():
    grid = np.linspace(-3, 3, 61)
    s = table_symbol(1, [grid], {(0,): np.exp(-grid**2), (1,): 0.5 * np.exp(-grid**2)})
    assert value_at(s, 0.0, (0,)) == pytest.approx(1.0, rel=1e-12)
    assert value_at(s, 0.0, (1,)) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(SymbolEvalError, match="no values for nu"):
        value_at(s, 0.0, (2,))
    with pytest.raises(SymbolEvalError, match="outside tabulated hull"):
        value_at(s, 4.0, (0,))


def test_table_symbol_2d():
    g = np.linspace(-2, 2, 21)
    vals = np.add.outer(g**2, g**2)
    s = table_symbol(2, [g, g], {(0, 0): vals})
    # (0.4, -0.6) lies on the grid: exact; (0.5, -0.5) is the bilinear value
    assert value_at(s, (0.4, -0.6), (0, 0)) == pytest.approx(0.52, abs=1e-12)
    assert value_at(s, (0.5, -0.5), (0, 0)) == pytest.approx(0.52, abs=1e-12)


@pytest.mark.parametrize("grids, message", [
    ([np.linspace(-1, 1, 5)], "need 2 coordinate grids, got 1"),
    ([np.linspace(-1, 1, 5), np.array([0.0, 1.0, 1.0])], "strictly increasing"),
    ([np.linspace(-1, 1, 5), np.array([0.0])], "length >= 2"),
    ([np.linspace(-1, 1, 5), np.zeros((2, 2))], "1-D array"),
    ([np.linspace(-1, 1, 5), {}], "table.grids"),
    ([np.linspace(-1, 1, 5), [0.0, {}]], "table.grids"),
    ([np.linspace(-1, 1, 5), [0.0, math.inf]], "table.grids"),
    ([np.linspace(-1, 1, 5), [math.nan, 1.0]], "table.grids"),
    ([np.linspace(-1, 1, 5), [0.0, "1"]], "table.grids"),
    ([np.linspace(-1, 1, 5), [0.0, None]], "table.grids"),
    ([np.linspace(-1, 1, 5), [0.0, [1.0, 2.0]]], "table.grids"),
], ids=["one-grid-for-two-coordinates", "repeated-node", "one-node", "two-dimensional-grid",
        "grid-not-a-list", "node-not-a-number", "node-inf", "node-nan", "node-string",
        "node-null", "ragged-grid"])
def test_table_symbol_checks_its_grids(grids, message):
    with pytest.raises(ValueError, match=message):
        table_symbol(2, grids, {})


def test_json_round_trip(tmp_path):
    for spec in (
        builtin_symbol("heat", 1, t=2.0),
        parse_symbol("exp(-absnu/2)/(1+x1^2)", 1, positive_selfadjoint=False),
        table_symbol(1, [np.linspace(-1, 1, 5)], {(0,): [1, 2, 3, 2, 1]}),
    ):
        doc = symbol_to_dict(spec)
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(doc))
        loaded = load_symbol(path)
        assert value_at(loaded, 0.25, (0,)) == pytest.approx(
            value_at(spec, 0.25, (0,)), rel=1e-14
        )


@pytest.mark.parametrize("doc, message", [
    ({"kind": "expression", "expr": "x1", "multiplier": True},
     "document claims multiplier=True but the expression has x-dependence"),
    ({"kind": "expression", "expr": "exp(-absnu)", "multiplier": False},
     "document claims multiplier=False but the expression has no x-dependence"),
    ({"kind": "builtin", "family": "heat", "params": {"t": 1.0}, "multiplier": False},
     "document claims multiplier=False but the builtin has no x-dependence"),
    ({"kind": "table", "table": {"grids": [[-1, 0, 1]], "values": {"0": [1, 2, 3]}},
      "multiplier": True},
     "document claims multiplier=True but the table has x-dependence"),
], ids=["expression", "expression-free-of-x", "builtin", "table"])
def test_a_multiplier_claim_must_agree_with_the_kind(doc, message):
    with pytest.raises(SymbolError) as raised:
        symbol_from_dict({"dim": 1, **doc})
    assert str(raised.value) == message
    # the claim that agrees loads
    assert symbol_from_dict({"dim": 1, **doc, "multiplier": not doc["multiplier"]})


def test_bad_documents(tmp_path):
    with pytest.raises(SymbolError, match="missing field"):
        symbol_from_dict({"kind": "expression"})
    with pytest.raises(SymbolError, match="unknown symbol kind"):
        symbol_from_dict({"kind": "mystery", "dim": 1})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SymbolError, match="not valid JSON"):
        load_symbol(bad)

    with pytest.raises(SymbolError, match=r"table.values.*'a'.*1 comma-separated"):
        symbol_from_dict({"kind": "table", "dim": 1, "table": {
            "grids": [[-1, 0, 1]], "values": {"a": [1, 2, 3]}}})
    for value in ([1, 2], "abc", [1, 2, math.inf], [1, math.nan, 3], [1, None, 3],
                  [1, "2", 3], [1, True, 3], [1, [2], 3]):
        with pytest.raises(SymbolError, match=r"table.values.*nu=\(0,\).*shape \(3,\)"):
            symbol_from_dict({"kind": "table", "dim": 1, "table": {
                "grids": [[-1, 0, 1]], "values": {"0": value}}})


# ---------------------------------------------------------------------------
# coordinate sign flips

@pytest.mark.parametrize("text, dim, flips", [
    ("exp(-0.3*absnu)/(1+0.4*x1^2+0.5*x2^2)", 2, [1, 2, 3]),
    ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2, [3]),
    ("exp(-0.3*lam)*(2+0.4*x1/(1+x2^2))", 2, [2]),
    ("1/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, list(range(1, 8))),
    ("exp(-0.2*absnu)/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, list(range(1, 8))),
    ("x1^3*x2", 2, [3]),
    ("x1*sin(x1)", 1, [1]),
    ("min(x1, x2)", 2, []),
    ("abs(x1) + x1", 1, []),
    ("x1^0.5", 1, []),
    ("pow(x1, 1.5) * x2^2", 2, [2]),
    ("(x1^2)^0.5 + cos(x2) * sqrt(x1^2)", 2, [1, 2, 3]),
    ("exp(-absnu)", 2, [1, 2, 3]),
])
def test_invariant_flips(text, dim, flips):
    assert invariant_flips(parse_symbol(text, dim)) == flips


def test_invariant_flips_of_a_table_and_a_builtin():
    g = np.linspace(-1, 1, 5)
    assert invariant_flips(table_symbol(1, [g], {(0,): g**2})) == []
    assert invariant_flips(builtin_symbol("heat", 2, t=1.0)) == [1, 2, 3]


@pytest.mark.parametrize("text, dim, signs", [
    ("exp(-0.3*absnu)/(1+0.4*x1^2+0.5*x2^2)", 2, (1, 1)),
    ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2, (0, 0)),
    ("exp(-0.3*lam)*(2+0.4*x1/(1+x2^2))", 2, (0, 1)),
    ("exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)", 3, (-1, 1, 1)),
    ("x1^3*x2", 2, (-1, -1)),
    ("x1/(1+nu1*x1^2)", 1, (-1,)),  # a nu-variable never blocks a sign
    ("exp(-absnu)", 2, (1, 1)),
])
def test_axis_signs(text, dim, signs):
    sym = parse_symbol(text, dim)
    assert axis_signs(sym) == signs
    # an axis that keeps m is an invariant single-axis flip
    assert [1 << j for j, s in enumerate(signs) if s == 1] == [
        h for h in invariant_flips(sym) if h & (h - 1) == 0]


def test_axis_signs_of_a_table_and_a_builtin():
    g = np.linspace(-1, 1, 5)
    assert axis_signs(table_symbol(1, [g], {(0,): g**2})) == (0,)
    assert axis_signs(builtin_symbol("heat", 2, t=1.0)) == (1, 1)


def _expressions(dim: int):
    leaves = st.sampled_from([f"x{j}" for j in range(1, dim + 1)]
                             + [f"nu{j}" for j in range(1, dim + 1)]
                             + ["absnu", "lam", "n", "pi", "0.5", "2", "3"])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.sampled_from(["2", "3", "0.5"])).map(lambda t: f"(({t[0]})^{t[1]})"),
        sub.map(lambda a: f"(-{a})"),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos", "sqrt", "abs"]), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["pow", "min", "max"]), sub, sub)
        .map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    ), max_leaves=8)


symbols = st.integers(1, 3).flatmap(lambda dim: _expressions(dim).map(
    lambda text: parse_symbol(text, dim)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(symbols)
def test_invariant_flips_leave_the_samples_unchanged(sym):
    axis = np.array([-2.3, -0.7, 0.0, 0.4, 1.9])
    pts = np.stack(np.meshgrid(*[axis] * sym.dim, indexing="ij"), axis=-1).reshape(-1, sym.dim)
    nus = np.array([[0] * sym.dim, [1] + [0] * (sym.dim - 1), [2] + [1] * (sym.dim - 1)])

    def sample(x):
        with np.errstate(all="ignore"):
            return np.broadcast_to(_eval_node(sym.tree, _env(sym, nus, x)), (len(nus), len(x)))

    base = sample(pts)
    for h in invariant_flips(sym):
        sign = np.where((h >> np.arange(sym.dim)) & 1, -1.0, 1.0)
        flipped = sample(pts * sign)
        ok = np.isfinite(base) & np.isfinite(flipped)
        assert np.all(np.abs(flipped[ok] - base[ok]) <= 1e-14 * np.abs(base[ok])), (sym.text, h)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(symbols)
def test_parity_blocks_hold_the_whole_assembled_matrix(sym):
    spec = TruncationSpec(sym.dim, (6, 3, 2)[sym.dim - 1])
    try:
        m = assemble_matrix(sym, spec, doubling_check=False)
    except (SymbolError, FloatingPointError):  # not finite on the grid, or its sums overflow
        return
    # the dense blocks and the 1 x 1 blocks partition the ranks
    parts = m.blocks + tuple(m.singles[:, None])
    block = np.empty(spec.size, dtype=int)
    for k, b in enumerate(parts):
        block[b] = k
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(spec.size))
    off = block[:, None] != block[None, :]
    a = np.abs(m.entries)
    assert np.all(a[off] <= 1e-13 * a.max()), sym.text


# ---------------------------------------------------------------------------
# separable symbols m(x, nu) = a(nu) b(x)

def _check_split(sym, a_text, b_text):
    a, b = separate(sym)
    assert (pretty_print(a.tree), pretty_print(b.tree)) == (a_text, b_text)
    assert a.is_multiplier and a.text == a_text
    axis = np.array([-2.1, -0.3, 0.0, 0.8, 1.7])
    pts = np.stack(np.meshgrid(*[axis] * sym.dim, indexing="ij"), axis=-1).reshape(-1, sym.dim)
    nus = TruncationSpec(sym.dim, 3).array
    b_values = eval_symbol(b, pts, nus)
    assert b_values.shape == (1, len(pts))  # b reads no nu
    product = multiplier_value(a, nus)[:, None] * b_values
    m = eval_symbol(sym, pts, nus)
    assert np.all(np.abs(product - m) <= 4e-16 * np.abs(m)), sym.text


@pytest.mark.parametrize("text, dim, a_text, b_text", [
    ("exp(-0.3*absnu)/(1+0.4*x1^2+0.5*x2^2)", 2, "exp(((-0.3) * absnu))",
     "(1.0 / ((1.0 + (0.4 * (x1 ^ 2.0))) + (0.5 * (x2 ^ 2.0))))"),
    ("lam^(-0.8)*(1+0.9*x1*x2/(1+x1^2+x2^2))", 2, "(lam ^ (-0.8))",
     "(1.0 + (((0.9 * x1) * x2) / ((1.0 + (x1 ^ 2.0)) + (x2 ^ 2.0))))"),
    ("exp(-0.3*lam)*(2+0.4*x1/(1+x2^2))", 2, "exp(((-0.3) * lam))",
     "(2.0 + ((0.4 * x1) / (1.0 + (x2 ^ 2.0))))"),
    # the nu-free 3-D template: a is the constant numerator
    ("1/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, "1.0",
     "(1.0 / (((1.0 + (0.3 * (x1 ^ 2.0))) + (0.4 * (x2 ^ 2.0))) + (0.5 * (x3 ^ 2.0))))"),
    ("exp(-0.2*absnu)/(1+0.3*x1^2+0.4*x2^2+0.5*x3^2)", 3, "exp(((-0.2) * absnu))",
     "(1.0 / (((1.0 + (0.3 * (x1 ^ 2.0))) + (0.4 * (x2 ^ 2.0))) + (0.5 * (x3 ^ 2.0))))"),
], ids=["2d-exp-absnu", "2d-lam-power", "2d-exp-lam", "3d-nu-free", "3d-exp-absnu"])
def test_the_benchmark_templates_split(text, dim, a_text, b_text):
    _check_split(parse_symbol(text, dim), a_text, b_text)


@pytest.mark.parametrize("text, dim, a_text, b_text", [
    # each factor reads one side, so a product of two variables splits
    ("x1*nu1", 1, "nu1", "x1"),
    # a leading minus and constant factors go to a, divisors stay divisors
    ("-exp(-absnu)/(1+x1^2)", 1, "(-1.0 * exp((-absnu)))", "(1.0 / (1.0 + (x1 ^ 2.0)))"),
    ("2*x1/3*lam/(1+x2^2)", 2, "((2.0 / 3.0) * lam)", "(x1 / (1.0 + (x2 ^ 2.0)))"),
    ("x1/((1+nu1)/x2)", 2, "(1.0 / (1.0 + nu1))", "(x1 * x2)"),
    ("x2*-(nu1*x1)", 2, "(-1.0 * nu1)", "(x2 * x1)"),
    # an x-only tree: a is 1
    ("1+x1^2", 1, "1.0", "(1.0 + (x1 ^ 2.0))"),
    ("x1^2*cos(x2)", 2, "1.0", "((x1 ^ 2.0) * cos(x2))"),
])
def test_signs_constants_and_x_only_trees_split(text, dim, a_text, b_text):
    _check_split(parse_symbol(text, dim), a_text, b_text)


def test_an_x_only_tree_has_a_identically_one_and_a_constant_b_one():
    a, _ = separate(parse_symbol("1/(1+x1^2+x2^2)", 2))
    assert np.array_equal(multiplier_value(a, TruncationSpec(2, 4).array), np.ones(15))
    a, b = separate(parse_symbol("5", 1))
    assert (a.text, b.text) == ("5.0", "1.0") and b.is_multiplier


@pytest.mark.parametrize("text, dim", [
    ("exp(x1*nu1)", 1),
    ("(x1*nu1)^2", 1),
    ("(x1+nu1)*x2", 2),
    ("exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)", 3),
    ("exp(-absnu)*x1 + x2", 2),
    ("-(x1 + nu1)", 1),
])
def test_factors_reading_x_and_nu_do_not_split(text, dim):
    assert separate(parse_symbol(text, dim)) is None


def test_tables_and_builtins_do_not_split():
    g = np.linspace(-1, 1, 5)
    assert separate(table_symbol(1, [g], {(0,): g**2})) is None
    assert separate(builtin_symbol("heat", 2, t=1.0)) is None


# ---------------------------------------------------------------------------
# annotated trees: names and depth recorded as each node is built

def _children(node):
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _read(node) -> set:
    """The variables a tree reads, by recursion."""
    return {node.name} if isinstance(node, Var) else set().union(*map(_read, _children(node)))


def _depth(node) -> int:
    return 1 + max(map(_depth, _children(node)), default=0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(symbols)
def test_each_node_records_what_its_subtree_reads_and_its_depth(sym):
    stack = [sym.tree]
    while stack:
        node = stack.pop()
        assert node.names == _read(node) and node.depth == _depth(node), pretty_print(node)
        stack.extend(_children(node))
    assert sym.is_multiplier == (not any(re.fullmatch(r"x\d+", v) for v in _read(sym.tree)))


@pytest.mark.parametrize("text", [
    "exp(-0.3*absnu)*x1/(1+x2^2+nu3*x3^2)",  # per column: a factor reads x and nu
    "1/(1+x1^2+x2^2+x3^2)",  # no nu at all: the folded root is the values
])
def test_a_folded_tree_keeps_what_it_reads(text):
    sym = parse_symbol(text, 3)
    nodes = np.tile(np.linspace(-1.5, 1.5, 4)[:, None], 3)
    with np.errstate(all="ignore"):
        folded = replace(sym, tree=_fold(sym.tree, _env(sym, pts=nodes, grid=True)))
    assert folded.tree.names == sym.tree.names
    assert not folded.is_multiplier
    nus = TruncationSpec(3, 2).array
    assert np.array_equal(symbol_sampler(sym, nodes)(nus), eval_symbol(sym, nodes, nus, grid=True))


def _count_outermost(monkeypatch, name):
    """Count the calls of hspec.symbol's function name that no other call of
    it encloses: the walks that start at a root."""
    inner, calls, depth = getattr(hspec.symbol, name), [0], [0]

    def counted(*args, **kwargs):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hspec.symbol, name, counted)
    return calls


def test_a_criteria_op_finds_the_flip_signs_and_the_split_once(tmp_path, monkeypatch):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"kind": "expression", "dim": 3, "positive_selfadjoint": True,
                                "expr": "1/(1+0.3*x1^2+0.6*x2^2+0.4*x3^2)"}))
    walks, splits, prints = (_count_outermost(monkeypatch, name)
                             for name in ("_flip_signs", "_factors", "pretty_print"))
    assert main(["criteria", "--symbol", str(path), "--level", "5", "--r", "1,1.5,2",
                 "--output", str(tmp_path / "out.json")]) == 0
    # one walk for the folds of both passes and the parity blocks; one
    # factoring for both passes, which prints a and b
    assert (walks[0], splits[0], prints[0]) == (1, 1, 2)


def test_a_builtin_whose_facts_were_read_loads_without_its_claim(monkeypatch):
    def read_facts(*args, **kwargs):
        spec = builtin_symbol(*args, **kwargs)
        assert axis_signs(spec) == (1, 1) and separate(spec) is None and spec.is_multiplier
        return spec

    monkeypatch.setattr(hspec.symbol, "builtin_symbol", read_facts)
    spec = symbol_from_dict({"kind": "builtin", "dim": 2, "family": "heat", "params": {"t": 1.0},
                             "positive_selfadjoint": False})
    assert (spec.family, spec.params, spec.claims_positive_selfadjoint) == ("heat", {"t": 1.0}, False)
    assert spec.is_multiplier and invariant_flips(spec) == [1, 2, 3]


def _sum(terms: int) -> str:
    """x1 + ... + x1 + nu1, a tree of depth terms."""
    return "+".join(["x1"] * (terms - 1) + ["nu1"])


def test_a_tree_at_the_depth_limit_parses_and_one_level_deeper_is_refused():
    assert parse_symbol(_sum(MAX_DEPTH), 1).tree.depth == MAX_DEPTH
    with pytest.raises(SymbolParseError, match=f"deeper than {MAX_DEPTH} levels") as err:
        parse_symbol(_sum(MAX_DEPTH + 1), 1)
    assert (err.value.line, err.value.col) == (1, 3 * MAX_DEPTH)  # the last "+"
    with pytest.raises(SymbolParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_symbol("-" * (MAX_DEPTH + 1) + "x1", 1)
    with pytest.raises(SymbolParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_symbol("exp(" * 50 + _sum(MAX_DEPTH - 49) + ")" * 50, 1)


@pytest.mark.parametrize("text", ["(" * 300 + "x1" + ")" * 300, "-" * 1200 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_a_parse_that_runs_out_of_stack_is_refused(text):
    with pytest.raises(SymbolParseError, match="nested too deeply") as err:
        parse_symbol(text, 1)
    assert err.value.line == 1


def _from_frames_deeper(frames: int, call):
    return call() if frames == 0 else _from_frames_deeper(frames - 1, call)


@pytest.mark.parametrize("text, col", [
    # each "(" or call holds five parser frames and each "-" one: the level
    # that passes MAX_PARSE_FRAMES = 600 is refused where it opens
    ("(" * 300 + "x1" + ")" * 300, 121),
    ("exp(" * 300 + "x1" + ")" * 300, 4 * 120 + 1),
    ("-" * 1200 + "x1", 601),
], ids=["parentheses", "calls", "unary-minus"])
def test_where_a_deep_parse_is_refused_depends_only_on_the_input(text, col):
    def position():
        with pytest.raises(SymbolParseError, match="nested too deeply") as err:
            parse_symbol(text, 1)
        return err.value.line, err.value.col

    assert position() == _from_frames_deeper(200, position) == (1, col)
