import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_hermite

from hspec import gauss_hermite_rule, hermite_table
from hspec.hermite import DENSE_JACOBI_MAX_ORDER, quadrature_order

# frozen from tests/oracles.py phi_mp at 50 digits
PHI_4_AT_0P7 = -0.23036447379803544656
PHI_2_AT_0P3 = -0.41635917055704163841
PHI_3_AT_M0P4 = 0.42914408535388808286
# past |x| = 38.6, where the Gaussian factor e^(-x^2/2) alone underflows
PHI_AT_LARGE_X = [
    (800, 38.3, 0.23370145187074941018),
    (1000, 40.0, 0.17225052073279226983),
    (2000, 50.0, -0.09825497710990165512),
    (3000, 70.0, -0.12333239418815263435),
]


def phi(k, x):
    """phi_k(x) for one degree and point, read from hermite_table."""
    return float(hermite_table(k, [x])[k, 0])


def test_ground_state_at_origin():
    assert phi(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)


def test_odd_parity_kills_origin():
    assert phi(1, 0.0) == 0.0


def test_degree4_oracle():
    assert phi(4, 0.7) == pytest.approx(PHI_4_AT_0P7, abs=1e-13)


def test_multi_tensor_product():
    # phi_nu(x) = prod_j phi_{nu_j}(x_j), read from one table at the coordinates of x
    def phi_nu(nu, x):
        return float(np.prod(hermite_table(max(nu), x)[list(nu), np.arange(len(x))]))

    assert phi_nu((0, 0), [0.0, 0.0]) == pytest.approx(math.pi ** -0.5, abs=1e-15)
    assert phi_nu((1, 0), [0.0, 5.0]) == 0.0
    assert phi_nu((2, 3), [0.3, -0.4]) == pytest.approx(PHI_2_AT_0P3 * PHI_3_AT_M0P4, abs=1e-13)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        hermite_table(3, [float("nan")])
    with pytest.raises(ValueError):
        hermite_table(5, [0.0, float("inf")])


def test_recurrence_residual():
    x = np.linspace(-8, 8, 41)
    t = hermite_table(40, x)
    for k in range(1, 40):
        lhs = t[k + 1]
        rhs = x * math.sqrt(2.0 / (k + 1)) * t[k] - math.sqrt(k / (k + 1.0)) * t[k - 1]
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.maximum(1.0, np.abs(t[k])))


@settings(max_examples=100)
@given(st.integers(0, 60), st.floats(-10, 10, allow_nan=False))
def test_parity(k, x):
    a = phi(k, x)
    b = phi(k, -x)
    assert b == pytest.approx((-1.0) ** k * a, abs=1e-12 * max(1.0, abs(a)))


def test_no_overflow_high_degree():
    t = hermite_table(500, np.linspace(-30, 30, 13))
    assert np.all(np.isfinite(t))


@pytest.mark.parametrize("k, x, expected", PHI_AT_LARGE_X)
def test_phi_correct_where_the_gaussian_underflows(k, x, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi(k, x) == pytest.approx(expected, rel=1e-11)


def test_rule_q1():
    r = gauss_hermite_rule(1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    # the generic path, with no special case, is exact at q = 1
    assert r.weights.tolist() == [math.sqrt(math.pi)]
    assert r.basis.tolist() == [[1.0]]


def test_rule_q2():
    # roots of H_2(x) = 4x^2 - 2, weights split the zeroth moment evenly
    r = gauss_hermite_rule(2)
    assert sorted(r.nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
    assert r.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)


def test_rule_second_moment():
    r = gauss_hermite_rule(5)
    assert r.weights @ r.nodes**2 == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-13)


@pytest.mark.parametrize("q", [4, 16, 64])
def test_rule_moments(q):
    # exact moments of e^(-x^2): integral x^k = gamma((k+1)/2) for even k
    r = gauss_hermite_rule(q)
    assert math.fsum(r.weights) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    for k in (0, 2, 4):
        assert r.weights @ r.nodes**k == pytest.approx(math.gamma((k + 1) / 2), rel=1e-12)


def test_rule_positive_weights():
    assert np.all(gauss_hermite_rule(80).weights > 0)


def test_rule_matches_numpy():
    nodes, weights = np.polynomial.hermite.hermgauss(32)
    r = gauss_hermite_rule(32)
    assert r.nodes == pytest.approx(nodes, abs=1e-12)
    assert r.weights == pytest.approx(weights, rel=1e-10)


@pytest.mark.parametrize("n_level,q,tol", [(30, 64, 1e-10), (20, 40, 1e-10)])
def test_orthonormality(n_level, q, tol):
    r = gauss_hermite_rule(q)
    t = hermite_table(n_level, r.nodes) * np.exp(r.nodes**2 / 2)
    gram = (t * r.weights) @ t.T
    assert np.abs(gram - np.eye(n_level + 1)).max() < tol


def test_bad_orders():
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
    with pytest.raises(ValueError):
        hermite_table(-1, [0.0])


@pytest.mark.parametrize("q", [200, 800, 2000])
def test_rule_matches_scipy_at_high_order(q):
    nodes, weights = roots_hermite(q)
    r = gauss_hermite_rule(q)
    assert np.abs(r.nodes - nodes).max() <= 1e-11
    # below 1e-290 the reference weights lose relative accuracy to underflow
    kept = weights > 1e-290
    assert np.abs(r.weights[kept] / weights[kept] - 1).max() <= 1e-10


def test_dense_nodes_equal_the_tridiagonal_solver_bit_for_bit():
    # below the cut NumPy's dense solver finds the nodes, above it SciPy's
    # tridiagonal one: across the cut the rule is the one SciPy's nodes give
    for q in range(1, DENSE_JACOBI_MAX_ORDER + 3):
        beta = np.sqrt(np.arange(1, q) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(q), beta, eigvals_only=True)
        nodes = 0.5 * (nodes - nodes[::-1])
        table = hermite_table(q - 1, nodes)
        norm = np.sqrt(np.sum(table**2, axis=0))
        r = gauss_hermite_rule(q)
        assert np.array_equal(r.nodes, nodes), q
        assert np.array_equal(r.basis, table / norm), q


def test_basis_table_is_the_weighted_hermite_table():
    r = gauss_hermite_rule(64)
    expected = np.sqrt(r.weights) * hermite_table(30, r.nodes) * np.exp(r.nodes**2 / 2)
    assert r.basis.shape == (64, 64)
    assert np.abs(r.basis[:31] - expected).max() <= 1e-13
    assert np.array_equal(r.weights, math.sqrt(math.pi) * r.basis[0] ** 2)
    # Christoffel normalization: w_i e^(x_i^2) = 1 / sum_{k<q} phi_k(x_i)^2,
    # against the reference rule
    nodes, weights = roots_hermite(64)
    christoffel = 1 / np.sum(hermite_table(63, nodes) ** 2, axis=0)
    assert np.abs(christoffel / (weights * np.exp(nodes**2)) - 1).max() <= 1e-11


@pytest.mark.parametrize("q", [1, 64, 732, 2000])
def test_rule_basis_is_the_column_normalized_table(q):
    r = gauss_hermite_rule(q)
    # the reciprocal column norms are the Christoffel half weights
    # sqrt(w) e^(x^2/2), finite past |x| = 37.7
    table = hermite_table(q - 1, r.nodes)
    assert np.array_equal(r.basis, table / np.sqrt(np.sum(table**2, axis=0)))
    assert np.array_equal(r.weights, math.sqrt(math.pi) * r.basis[0] ** 2)


@pytest.mark.parametrize("q", [1, 2, 3, 36, 37, 732, 1001, 2032])
def test_rule_is_mirror_symmetric_bit_for_bit(q):
    # the folded assembly reads only the non-negative nodes: their mirrors
    # must carry the same basis values up to the sign (-1)^k, exactly
    r = gauss_hermite_rule(q)
    assert np.array_equal(r.nodes[::-1], -r.nodes)
    signs = np.where(np.arange(q) % 2, -1.0, 1.0)[:, None]
    assert np.array_equal(r.basis[:, ::-1], signs * r.basis)
    if q % 2:
        assert r.nodes[q // 2] == 0.0
    assert np.all(r.nodes[q // 2 + q % 2:] > 0)


def test_basis_table_bounded_and_orthonormal_at_high_order():
    q, n_level = 2000, 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = gauss_hermite_rule(q).basis
        rows = basis[:n_level + 1]
        gram = rows @ rows.T
    assert np.abs(basis).max() <= 1.0
    assert np.abs(gram - np.eye(n_level + 1)).max() <= 1e-12


@pytest.mark.parametrize("level", [700, 1000, 1500])
def test_ground_state_coefficients_at_high_level(level):
    # <phi_0, phi_k> for k <= N under the default rule: phi_0 sampled at the
    # nodes times the half weights sqrt(w) e^(x^2/2) is the basis row 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gauss_hermite_rule(quadrature_order(level))
        c = r.basis[:level + 1] @ r.basis[0]
    assert abs(c[0] - 1) <= 1e-12
    assert np.abs(c[1:]).max() <= 1e-12


def test_quadrature_order():
    assert quadrature_order(10) == 42
    assert quadrature_order(10, 11) == 11
    with pytest.raises(ValueError, match=r"quadrature order 10 must be at least N\+1 = 11"):
        quadrature_order(10, 10)
