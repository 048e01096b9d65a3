"""Independent oracles used by the tests.

The value oracles are deliberately implemented without the package's
recurrence machinery: extended-precision explicit formulas (mpmath),
closed-form series values, and the Mehler heat-kernel formula.  Frozen decimal
constants in the test modules were produced by these routines at 50 digits.

The module also holds the dense sums that the operator's sum factorization
replaces: D x q^n tables of tensor products of a rule's basis rows, summed
over the whole grid at once.  They read the rule's nodes and basis and
nothing of the contraction, chunking or box indexing they check.  And it holds
the truncated kernel K_m(x, y) = sum over |nu| <= N of m(x, nu) phi_nu(x)
phi_nu(y), summed term by term from hermite_table, and the rank of a
multi-index, read from a truncation's array.
"""

import math

import mpmath as mp
import numpy as np

from hspec import gauss_hermite_rule, hermite_table
from hspec.symbol import eval_symbol

mp.mp.dps = 50


def phi_mp(k: int, x):
    """Normalized Hermite function via the explicit polynomial, 50 digits."""
    x = mp.mpf(x)
    return mp.hermite(k, x) * mp.exp(-x**2 / 2) / mp.sqrt(
        2**k * mp.factorial(k) * mp.sqrt(mp.pi)
    )


def mehler_heat_kernel(t: float, x: float, y: float) -> float:
    """Closed form for the 1-D heat kernel of the oscillator -d^2/dx^2 + x^2:

        sum_k e^(-(2k+1)t) phi_k(x) phi_k(y)
          = (2 pi sinh 2t)^(-1/2) exp(-((x^2+y^2) cosh 2t - 2xy) / (2 sinh 2t))
    """
    s = math.sinh(2 * t)
    c = math.cosh(2 * t)
    return math.exp(-((x * x + y * y) * c - 2 * x * y) / (2 * s)) / math.sqrt(2 * math.pi * s)


def heat_trace_limit(t: float) -> float:
    """Geometric series sum_k e^(-(2k+1)t) = 1 / (2 sinh t)."""
    return 1.0 / (2.0 * math.sinh(t))


def heat_hs_limit(t: float) -> float:
    """sum_k e^(-2(2k+1)t) = 1 / (2 sinh 2t)."""
    return 1.0 / (2.0 * math.sinh(2.0 * t))


def odd_reciprocal_square_sum() -> float:
    """sum_k (2k+1)^(-2) = pi^2 / 8."""
    return math.pi**2 / 8.0


def dense_basis(spec, rule):
    """(D, q^n) products prod_j basis[nu_j, x_j] of the rule's basis rows over
    the tensor grid (x_1 slowest), the (q^n, n) grid points and the (n, q^n)
    index of each point into the rule."""
    idx = np.indices((rule.order,) * spec.dim).reshape(spec.dim, -1)
    basis = np.prod([rule.basis[spec.array[:, j:j + 1], idx[j]] for j in range(spec.dim)],
                    axis=0)
    return basis, rule.nodes[idx].T, idx


def dense_sums(sym, spec, q):
    """The order-q matrix, then the integrals of m phi_nu^2 and m^2 phi_nu^2."""
    basis, points, _ = dense_basis(spec, gauss_hermite_rule(q))
    mvals = np.array([eval_symbol(sym, points, nu[None])[0] for nu in spec.array])
    return (basis @ (mvals * basis).T,
            np.sum(mvals * basis**2, axis=1),
            np.sum(mvals**2 * basis**2, axis=1))


def dense_coefficients(f, spec, q):
    """<f, phi_nu> as one sum over the grid of f times the tensor half
    weights sqrt(w_i) e^(x_i^2/2), the reciprocal norms of the columns of
    hermite_table at the nodes, and the basis rows; f is called on the (q^n,)
    nodes in 1-D, else on the (q^n, n) points."""
    rule = gauss_hermite_rule(q)
    basis, points, idx = dense_basis(spec, rule)
    half = 1 / np.sqrt(np.sum(hermite_table(q - 1, rule.nodes) ** 2, axis=0))
    samples = f(points[:, 0] if spec.dim == 1 else points)
    return basis @ (np.prod(half[idx], axis=0) * samples)


def rank(spec, nu):
    """The rank of the multi-index nu: its row in spec.array."""
    return int(np.flatnonzero((spec.array == nu).all(axis=1))[0])


def basis_at(spec, x):
    """The values phi_nu(x) over the truncation at one point x of R^n."""
    x = np.asarray(x, dtype=float).ravel()
    return np.prod(hermite_table(spec.level, x)[spec.array, np.arange(spec.dim)], axis=1)


def kernel_sum(sym, spec, x, y):
    """The truncated kernel K_m(x, y), as one exactly rounded sum over the
    truncation of m(x, nu) phi_nu(x) phi_nu(y)."""
    m = eval_symbol(sym, x, spec.array)[:, 0]
    return math.fsum(m * basis_at(spec, x) * basis_at(spec, y))
