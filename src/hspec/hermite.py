"""Normalized Hermite functions and Gauss-Hermite rules.

phi_k(x) = (2^k k! sqrt(pi))^(-1/2) H_k(x) e^(-x^2/2) has one evaluator,
hermite_table.  It runs the normalized three-term recurrence

    h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)

on the weight-free values h_k(x) = phi_k(x) e^(x^2/2) from h_0 = pi^(-1/4);
the raw polynomials H_k would overflow near k ~ 90.  A column that passes
1e150 is multiplied by 1e-150 and the factor kept in a per-column logarithm,
together with the Gaussian's -x^2/2, which meets the values once, at the end.
A Gauss-Hermite rule is the one place where weights meet Hermite values: it
normalizes the columns of this table at its nodes into the bounded basis
sqrt(w_i) h_k(x_i), entries in [-1, 1], which quadrature code reads.

The nodes are the eigenvalues of the Jacobi matrix.  Up to order
DENSE_JACOBI_MAX_ORDER NumPy's dense symmetric solver finds them: its LAPACK
driver dsyevd first reduces the matrix with dsytrd, whose reflectors are the
identity on a matrix that is already tridiagonal, and then runs dsterf, which
is what SciPy's tridiagonal solver (default driver dstevd) runs too.  So the
nodes are the same bits, and SciPy stays out of the import.  Above the cut the
dense O(q^3) solve costs more than the import, and SciPy's tridiagonal solver
is imported on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PI_QUARTER = np.pi ** (-0.25)
# the largest quadrature order whose nodes come from NumPy's dense solver
DENSE_JACOBI_MAX_ORDER = 256


def hermite_table(max_degree: int, x) -> np.ndarray:
    """Values phi_k(x) for k = 0..max_degree, shape (max_degree+1, len(x)),
    correct at any x.  Quadrature reads a rule's basis instead of this table
    at the nodes.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    out = np.empty((max_degree + 1, x.size))
    out[0] = _PI_QUARTER
    if max_degree >= 1:
        out[1] = x * np.sqrt(2.0) * out[0]
    log_scale = -0.5 * x * x
    # Cramer's bound |h_k(x)| <= 0.82 e^(x^2/2) keeps columns below 1e150 for |x| <= 26
    rescale = np.any(np.abs(x) > 26.0)
    for k in range(1, max_degree):
        out[k + 1] = x * np.sqrt(2.0 / (k + 1)) * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
        if rescale:
            big = np.abs(out[k + 1]) > 1e150
            if big.any():
                out[:k + 2, big] *= 1e-150  # entries that underflow are negligible
                log_scale[big] += np.log(1e150)
    return out * np.exp(log_scale)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule for the weight e^(-x^2) on the real line, with its
    basis table basis[k, i] = sqrt(w_i) h_k(x_i) for k < q."""

    nodes: np.ndarray
    basis: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.sqrt(np.pi) * self.basis[0]**2

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_hermite_rule(q: int) -> QuadratureRule:
    """Golub-Welsch rule of order q: exact for x^k e^(-x^2), k <= 2q-1.

    Nodes are eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    Hermite recurrence (off-diagonals sqrt(k/2)): numpy.linalg.eigvalsh on its
    lower band for q <= DENSE_JACOBI_MAX_ORDER, scipy.linalg.eigh_tridiagonal
    above, the same bits where both run (see the module docstring).  The
    basis is hermite_table at the nodes with each column normalized: by the
    Christoffel identity w_i = e^(-x_i^2) / sum_{k<q} phi_k(x_i)^2 it becomes
    sqrt(w_i) h_k(x_i), and sqrt(pi) basis[0]^2 gives the weights to full
    relative accuracy.
    """
    if q < 1:
        raise ValueError(f"quadrature order must be >= 1, got {q}")
    beta = np.sqrt(np.arange(1, q) / 2.0)
    try:
        if q <= DENSE_JACOBI_MAX_ORDER:
            # eigvalsh reads only the lower triangle
            nodes = np.linalg.eigvalsh(np.diag(beta, -1))
        else:
            from scipy.linalg import eigh_tridiagonal

            nodes = eigh_tridiagonal(np.zeros(q), beta, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Jacobi eigenproblem failed for order {q}: {exc}") from exc
    # symmetrize: nodes come in +/- pairs, enforce it exactly
    nodes = 0.5 * (nodes - nodes[::-1])
    t = hermite_table(q - 1, nodes)
    t /= np.sqrt(np.sum(t**2, axis=0))
    return QuadratureRule(nodes, t)


def quadrature_order(level: int, q: int | None = None) -> int:
    """The quadrature order for level N: q if given, else N+32 (exactness for
    degree-2N integrands plus margin for smooth symbols); at least N+1."""
    if q is None:
        q = level + 32
    if q < level + 1:
        raise ValueError(f"quadrature order {q} must be at least N+1 = {level + 1}")
    return q
