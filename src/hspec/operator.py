"""Finite truncations of pseudo-multipliers: matrix assembly, kernel sums,
and the analysis/synthesis transforms on the Hermite basis.

The computed matrix is the compression P_N T_m P_N with entries
M[mu, nu] = <T_m phi_nu, phi_mu> = integral of m(x, nu) phi_nu(x) phi_mu(x).
Columns are indexed by the input basis function nu, so each column is one
1-D family of integrals of m(., nu) against the basis.

Quadrature never multiplies the Gaussian tails: the integrand is rewritten as
[m(x, nu) h_nu(x) h_mu(x)] e^(-|x|^2) with the weight-free values
h_k = phi_k e^(x^2/2), which Gauss-Hermite rules integrate directly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .hermite import default_quadrature_order, gauss_hermite_rule, hermite_table
from .multiindex import MultiIndex, TruncationSpec
from .symbol import SymbolSpec, eval_symbol, multiplier_value

RESIDUAL_WARN = 1e-6


@dataclass(frozen=True)
class TensorGrid:
    """Tensor-product Gauss-Hermite grid in n dimensions."""

    points: np.ndarray   # (M, n)
    weights: np.ndarray  # (M,) products of 1-D weights, carry e^(-|x|^2)
    coord_index: np.ndarray  # (n, M) index of each point into the 1-D rule
    rule_nodes: np.ndarray   # 1-D nodes


def tensor_grid(dim: int, q: int) -> TensorGrid:
    rule = gauss_hermite_rule(q)
    if dim == 1:
        idx = np.arange(q)[None, :]
        return TensorGrid(rule.nodes[:, None], rule.weights.copy(), idx, rule.nodes)
    idx = np.indices((q,) * dim).reshape(dim, -1)
    points = rule.nodes[idx].T
    weights = np.prod(rule.weights[idx], axis=0)
    return TensorGrid(points, weights, idx, rule.nodes)


def basis_values(spec: TruncationSpec, grid: TensorGrid, weighted: bool = False) -> np.ndarray:
    """(D, M) matrix of basis values at the grid points.

    weighted=False gives the weight-free products prod_j h_{nu_j}(x_j), the
    form meant to be paired with the grid weights.
    """
    table = hermite_table(spec.level, grid.rule_nodes, weighted=weighted)
    out = np.empty((spec.size, grid.points.shape[0]))
    for i, nu in enumerate(spec.indices):
        vals = table[nu[0], grid.coord_index[0]]
        for j in range(1, spec.dim):
            vals = vals * table[nu[j], grid.coord_index[j]]
        out[i] = vals
    return out


@dataclass(frozen=True)
class OperatorMatrix:
    """The truncated operator, the one discretization every report reads.

    values is the diagonal m(nu) of a multiplier, else the dense matrix.
    columns holds the per-nu integrals of m phi_nu^2 and m^2 phi_nu^2, for a
    non-multiplier reduced from the samples of the unrefined matrix.
    """

    spec: TruncationSpec
    values: np.ndarray
    quad_order: int
    assembly_residual: float
    residual_warning: bool
    symbol: SymbolSpec
    columns: tuple[np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        return self.spec.size

    @property
    def is_diagonal(self) -> bool:
        return self.values.ndim == 1

    @property
    def entries(self) -> np.ndarray:
        """Dense D x D matrix; a diagonal operator builds it on each access."""
        return np.diag(self.values) if self.is_diagonal else self.values

    def column_integrals(self, squared: bool = True) -> np.ndarray:
        """Per-nu integrals of m^2 phi_nu^2 (squared=True) or of m phi_nu^2."""
        return self.columns[squared]

    def trace(self) -> float:
        return float(np.sum(self.values) if self.is_diagonal else np.trace(self.values))


@dataclass(frozen=True)
class CoefficientVector:
    spec: TruncationSpec
    values: np.ndarray


def _diagonal(sym: SymbolSpec, spec: TruncationSpec) -> np.ndarray:
    """The one tabulation of a multiplier: m(nu) in enumeration order."""
    return np.array([multiplier_value(sym, nu) for nu in spec.indices])


def _grid_samples(sym: SymbolSpec, spec: TruncationSpec,
                  q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one evaluation of a symbol on a quadrature grid: order-q weights
    (M,), weight-free basis values h_nu (D, M) and symbol values (D, M)."""
    grid = tensor_grid(spec.dim, q)
    basis = basis_values(spec, grid)
    mvals = np.empty_like(basis)
    for i, nu in enumerate(spec.indices):
        mvals[i] = eval_symbol(sym, grid.points, nu)
    return grid.weights, basis, mvals


def _matrix(weights: np.ndarray, basis: np.ndarray, mvals: np.ndarray) -> np.ndarray:
    # column nu: basis @ (w * m(., nu) * h_nu)
    return basis @ (weights[None, :] * mvals * basis).T


def _column_sums(weights: np.ndarray, basis: np.ndarray,
                 mvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(integrals of m h_nu^2, of m^2 h_nu^2).  Squares basis and mvals in
    place, so the reduction needs no more memory than the assembly."""
    np.square(basis, out=basis)
    linear = (mvals * basis) @ weights
    np.square(mvals, out=mvals)
    mvals *= basis
    return linear, mvals @ weights


def column_integrals(
    sym: SymbolSpec, spec: TruncationSpec, q: int | None = None, squared: bool = True
) -> np.ndarray:
    """Per-nu integrals of m(x,nu)^2 phi_nu(x)^2 (squared=True) or of
    m(x,nu) phi_nu(x)^2 (squared=False), in enumeration order.

    Multiplier symbols are exact without quadrature: the integrals collapse
    to m(nu)^2 resp. m(nu) since phi_nu has unit norm.
    """
    if sym.dim != spec.dim:
        raise ValueError(f"symbol dimension {sym.dim} != truncation dimension {spec.dim}")
    if sym.is_multiplier:
        diag = _diagonal(sym, spec)
        return diag**2 if squared else diag
    if q is None:
        q = default_quadrature_order(spec.level)
    return _column_sums(*_grid_samples(sym, spec, q))[squared]


def assemble_matrix(
    sym: SymbolSpec,
    spec: TruncationSpec,
    q: int | None = None,
    doubling_check: bool = True,
) -> OperatorMatrix:
    """Assemble P_N T_m P_N.

    Multiplier symbols take the analytic fast path: the diagonal of m(nu)
    values, no quadrature.  Otherwise the order-q samples give the matrix and
    the column integrals; the matrix is repeated at order 2q and the
    relative Frobenius change recorded; a change above 1e-6 sets the
    residual warning flag (the result is still returned).
    """
    if sym.dim != spec.dim:
        raise ValueError(f"symbol dimension {sym.dim} != truncation dimension {spec.dim}")
    if q is None:
        q = default_quadrature_order(spec.level)
    if q < spec.level + 1:
        raise ValueError(f"quadrature order {q} < N+1 = {spec.level + 1}")

    if sym.is_multiplier:
        diag = _diagonal(sym, spec)
        return OperatorMatrix(spec, diag, q, 0.0, False, sym, (diag, diag**2))

    samples = _grid_samples(sym, spec, q)
    entries = _matrix(*samples)
    columns = _column_sums(*samples)
    del samples  # free the order-q arrays before the refined pass
    residual = 0.0
    if doubling_check:
        refined = _matrix(*_grid_samples(sym, spec, 2 * q))
        scale = np.linalg.norm(refined)
        residual = float(np.linalg.norm(refined - entries) / scale) if scale > 0 else 0.0
        entries = refined
    return OperatorMatrix(spec, entries, q, residual, residual > RESIDUAL_WARN, sym, columns)


def kernel_eval(sym: SymbolSpec, spec: TruncationSpec, x, y) -> float:
    """Truncated kernel K_m(x, y) = sum over |nu| <= N of m(x,nu) phi_nu(x) phi_nu(y)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != spec.dim or y.size != spec.dim:
        raise ValueError(f"points must have dimension {spec.dim}")
    tx = hermite_table(spec.level, x)
    ty = hermite_table(spec.level, y)
    total = 0.0
    for nu in spec.indices:
        px = py = 1.0
        for j in range(spec.dim):
            px *= tx[nu[j], j]
            py *= ty[nu[j], j]
        m = eval_symbol(sym, x, nu)
        total += m * px * py
    return float(total)


def analyze(f, spec: TruncationSpec, q: int | None = None) -> CoefficientVector:
    """Coefficients <f, phi_nu> for |nu| <= N, by tensor Gauss-Hermite quadrature.

    f is a callable on (M, n) point arrays (or on 1-D arrays when n = 1).
    """
    if q is None:
        q = default_quadrature_order(spec.level)
    if q < spec.level + 1:
        raise ValueError(f"quadrature order {q} < N+1 = {spec.level + 1}")
    grid = tensor_grid(spec.dim, q)
    pts = grid.points[:, 0] if spec.dim == 1 else grid.points
    samples = np.asarray(f(pts), dtype=float)
    if samples.shape != (grid.points.shape[0],):
        raise ValueError(f"f must return one value per node, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("f produced non-finite samples at quadrature nodes")
    basis = basis_values(spec, grid)
    # integrand f * phi_nu = [f e^(|x|^2/2)] h_nu e^(-|x|^2); fold the half
    # weight into the quadrature weights where it only shrinks them
    half_weight = grid.weights * np.exp(0.5 * np.sum(grid.points**2, axis=1))
    return CoefficientVector(spec, basis @ (half_weight * samples))


def synthesize(c: CoefficientVector, x) -> float:
    """Pointwise sum of c_nu phi_nu(x) over the truncation."""
    spec = c.spec
    x = np.asarray(x, dtype=float).ravel()
    if x.size != spec.dim:
        raise ValueError(f"point must have dimension {spec.dim}")
    table = hermite_table(spec.level, x)
    total = 0.0
    for ci, nu in zip(c.values, spec.indices):
        p = 1.0
        for j in range(spec.dim):
            p *= table[nu[j], j]
        total += ci * p
    return float(total)


def apply_matrix(m: OperatorMatrix, c: CoefficientVector) -> CoefficientVector:
    if m.spec is not c.spec and (m.spec.dim != c.spec.dim or m.spec.level != c.spec.level):
        raise ValueError("matrix and coefficient vector use different truncations")
    return CoefficientVector(c.spec, m.entries @ c.values)


def export_matrix_csv(m: OperatorMatrix, path: str) -> None:
    """Row-major CSV with an n/N/Q header row, plus a JSON metadata sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"n={m.spec.dim}", f"N={m.spec.level}", f"Q={m.quad_order}"])
        for row in m.entries:
            writer.writerow([repr(float(v)) for v in row])
    meta = {
        "dim": m.spec.dim,
        "level": m.spec.level,
        "size": m.size,
        "quad_order": m.quad_order,
        "assembly_residual": m.assembly_residual,
        "residual_warning": m.residual_warning,
        "symbol": m.symbol.describe(),
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
