"""Spectral analysis of assembled operators: singular values, Schatten sums,
and the two independent trace computations.

compare_traces reads both from one assembled operator: its formula_trace
sums the column integrals of m phi_nu^2 (the nuclear-trace expression), its
spectral_trace the eigenvalues of the matrix.  For trace-class operators the
two agree, and comparing them is the point of this module.

An operator is stored as a direct sum of dense blocks (OperatorMatrix.values
over the index sets OperatorMatrix.blocks) and 1 x 1 blocks
(OperatorMatrix.scalars at the ranks OperatorMatrix.singles), and every
function here reads both parts with one formula.  The singular values are
the union of the dense blocks' and the |scalars|, and the eigenvalue sum is
the sum of the dense blocks' eigenvalues and the scalars; one SVD and one
eigensolve run per dense block, none for a 1 x 1 block.  The dense blocks
are the parity blocks: the flips x -> hx that leave the symbol invariant
are read from its expression tree (symbol.invariant_flips), and
phi_nu(hx) = (-1)^(nu . h) phi_nu(x).  The spectral functions take an
assembled OperatorMatrix, whose values are finite, and read its stored
blocks without copying them; no dense D x D matrix is formed.

The eigensolve is symmetric when the operator has a symmetrizer: a symbol
a(nu) b(x) with every a(nu) > 0 has M = G diag(a) with G symmetric, so M is
similar to diag(d) M diag(d)^-1 = diag(d) G diag(d), d = sqrt(a), and
eigvalsh of that block gives M's eigenvalues, all real.  It is still an
eigen-factorization of the assembled matrix, not trace(M), so the
comparison with the trace formula keeps its meaning.

All criterion-style sums are accumulated with math.fsum in a fixed order
(graded enumeration order of the truncation), so reports are reproducible
bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# assemble_matrix stays importable from this module for its existing readers
from .operator import OperatorMatrix, assemble_matrix  # noqa: F401

IMAG_RESIDUAL_TOL = 1e-8
# what named_fsum names when the sum of the column integrals overflows
TRACE_SUM = "the trace formula sum of the integrals of m phi_nu^2"
HS_SUM = "the Hilbert-Schmidt sum of the integrals of m^2 phi_nu^2"
_EIGEN_SUM = "the eigenvalue sum"


def named_fsum(what: str, values) -> float:
    """math.fsum of values; a total that overflows, where fsum itself would
    raise a bare OverflowError, raises FloatingPointError naming what.

    A 1-D array is read through a memoryview, which yields Python floats
    without a copy; iterating the array itself would make one NumPy scalar
    per element.  fsum is exactly rounded, so the total is the same."""
    if isinstance(values, np.ndarray):
        values = memoryview(values)
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise FloatingPointError(f"{what} overflows")
    return total


def singular_values(m: OperatorMatrix) -> np.ndarray:
    """Singular values of the operator, descending: the union of its dense
    blocks' and the |values| of its 1 x 1 blocks."""
    try:
        sv = [np.linalg.svd(b, compute_uv=False) for b in m.values]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD did not converge: {exc}") from exc
    return np.sort(np.concatenate(sv + [np.abs(m.scalars)]))[::-1]


def _power(v: float, r: float) -> float:
    # a power past the double range is inf, so the sum that reads it names itself
    try:
        return v ** r
    except OverflowError:
        return math.inf


def abs_powers(values, r: float) -> np.ndarray:
    """|v|^r elementwise, as Python-scalar powers (the vectorized power
    differs in the last bits), taken once per distinct |v|; inf where the
    power overflows."""
    distinct, inverse = np.unique(np.abs(np.asarray(values, dtype=float)), return_inverse=True)
    return np.array([_power(float(v), r) for v in distinct])[inverse]


def schatten_sum(sv, r: float) -> float:
    """Raw sum of sigma_i^r over the singular values, exactly rounded."""
    if not 0 < r < math.inf:
        raise ValueError(f"Schatten order must be positive and finite, got {r}")
    return named_fsum(f"the Schatten sum of order {r!r}", abs_powers(sv, r))


def _root(total: float, r: float) -> float:
    # total^(1/r), which leaves the double range for a small r; for a
    # subnormal r, 1/r is inf and the power is inf without an OverflowError
    try:
        root = total ** (1.0 / r)
    except OverflowError:
        root = math.inf
    if not math.isfinite(root):
        raise FloatingPointError(f"the Schatten norm of order {r!r} overflows")
    return root


def _symmetric(blocks: tuple[np.ndarray, ...]) -> bool:
    atol = 1e-14 * max([1.0] + [np.abs(b).max() for b in blocks])
    return all(np.allclose(b, b.T, rtol=0.0, atol=atol) for b in blocks)


def spectral_trace(m: OperatorMatrix) -> float:
    """Sum of the eigenvalues of the operator, multiplicities included: those
    of each dense block and the values of the 1 x 1 blocks.

    An operator with a symmetrizer d takes the symmetric eigensolver on each
    block d_b[:, None] * M_b / d_b[None, :], divided first so that no ratio
    d_mu / d_nu is formed.  Otherwise symmetric blocks take the symmetric
    eigensolver, any others the dense nonsymmetric one; the imaginary parts
    must cancel to within 1e-8 * ||M|| or a warning is issued.  A sum that
    overflows raises FloatingPointError naming it.
    """
    blocks, d = m.values, m.symmetrizer
    if d is not None:
        eigs = [np.linalg.eigvalsh(d[b, None] * (block / d[b]))
                for b, block in zip(m.blocks, blocks)]
    elif _symmetric(blocks):
        eigs = [np.linalg.eigvalsh(b) for b in blocks]
    else:
        try:
            complex_eigs = np.concatenate([np.linalg.eigvals(b) for b in blocks])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
        scale = math.sqrt(m.frobenius_squared())
        imag = abs(math.fsum(complex_eigs.imag))
        if imag > IMAG_RESIDUAL_TOL * max(scale, 1e-300):
            warnings.warn(
                f"imaginary parts of the eigenvalue sum do not cancel: {imag:.3e} "
                f"against tolerance {IMAG_RESIDUAL_TOL * scale:.3e}",
                RuntimeWarning,
            )
        eigs = [complex_eigs.real]
    return named_fsum(_EIGEN_SUM, np.concatenate(eigs + [m.scalars]))


def compare_traces(m: OperatorMatrix) -> dict:
    """The three traces of one assembled operator, in the order they are
    computed: matrix_trace, formula_trace (the sum of its column integrals
    of m phi_nu^2) and spectral_trace, with the assembly_residual and
    residual_warning that say how well its matrix is resolved; a sum that
    overflows raises FloatingPointError naming it.  The column integrals are
    the order-q ones; after a doubling check the kept matrix is the order-2q
    one, whose diagonal differs from them by the quadrature error."""
    return {
        "matrix_trace": m.trace(),
        "formula_trace": named_fsum(TRACE_SUM, m.columns[0]),
        "spectral_trace": spectral_trace(m),
        "assembly_residual": m.assembly_residual,
        "residual_warning": m.residual_warning,
    }


def build_report(m: OperatorMatrix, r_values: tuple[float, ...] = (1.0, 2.0)) -> dict:
    """The spectral summary of one assembled operator, as analyze writes it.

    The quantities are computed in a fixed order, so a failing input always
    names the same one first: the singular values, the traces
    (compare_traces), the Hilbert-Schmidt sum, then for each r its Schatten
    sum and then its norm, keyed by repr(r)."""
    sv = singular_values(m)
    report = {
        "dim": m.spec.dim,
        "level": m.spec.level,
        "quad_order": m.quad_order,
        "singular_values": sv.tolist(),
        **compare_traces(m),
        "hilbert_schmidt_direct": named_fsum(HS_SUM, m.columns[1]),
        "schatten_sums": {},
        "schatten_norms": {},
        "convergence": [],  # kept so existing readers of the report find the key
    }
    for r in r_values:
        total = report["schatten_sums"][repr(r)] = schatten_sum(sv, r)
        report["schatten_norms"][repr(r)] = _root(total, r)
    return report
