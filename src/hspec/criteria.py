"""The four Schatten-membership criteria, evaluated as truncated sums with an
explicit tail policy.

Each criterion is an infinite sum over multi-indices; a finite tool can only
report evidence.  A verdict is therefore the dict the criteria report writes:
the criterion's name, its partial_sum, its shells as [s, shell sum] pairs
(shell s = all nu with |nu| = s), its parameters, and a tail_flag obtained by
fitting log(shell sum) against log(2s + n) over the top half of the shells:

    slope >= -1          -> "diverging"   (shell sums not summable)
    slope <= -1.2        -> "converging"
    otherwise            -> "inconclusive"

The fit and the criterion's own diagnostics are its extras.  For diverging
sums the reported growth exponent slope + 1 estimates the polynomial growth
rate of the partial sums.  Sums are accumulated with math.fsum in
shell-major, enumeration order, so identical inputs produce bitwise-identical
verdicts.
"""

from __future__ import annotations

import math

import numpy as np

from .multiindex import TruncationSpec
from .operator import OperatorMatrix, assemble_matrix, column_integrals
from .schatten import abs_powers, named_fsum
from .symbol import SymbolSpec

DIVERGE_SLOPE = -1.0
CONVERGE_SLOPE = -1.2
# boundary tolerance: exact power laws land on the thresholds up to rounding
SLOPE_TOL = 1e-6

SYMMETRY_TOL = 1e-8
POSITIVITY_TOL = 1e-8
CROSS_CHECK_MAX_SIZE = 512


class CriterionPreconditionError(Exception):
    """A criterion refused to run; the message names the violated check."""


def shell_partition(spec: TruncationSpec, terms: np.ndarray,
                    what: str = "the sum") -> list[list]:
    """Group per-index terms (enumeration order) into [s, fsum total] pairs;
    a total that overflows raises FloatingPointError naming what and the shell.
    Each shell's slice is read as Python floats on its own, so no list of all
    the terms is formed."""
    terms = np.asarray(terms, dtype=float)
    if terms.shape != (spec.size,):
        raise ValueError(f"expected {spec.size} terms, got {terms.shape}")
    o = spec.offsets
    return [[s, named_fsum(f"{what} over shell {s}", terms[o[s]:o[s + 1]])]
            for s in range(spec.level + 1)]


def classify_tail(shells: list[list], dim: int) -> tuple[str, dict]:
    """Tail flag plus fit diagnostics from the top half of the shells."""
    tail = shells[len(shells) // 2:]
    positive = [(s, v) for s, v in tail if v > 0.0]
    if len(positive) < 3:
        if all(v == 0.0 for _, v in tail):
            return "converging", {"fit_slope": None, "growth_exponent": None,
                                  "note": "tail shells identically zero"}
        return "inconclusive", {"fit_slope": None, "growth_exponent": None,
                                "note": "too few positive tail shells to fit"}
    lam = np.log([2.0 * s + dim for s, _ in positive])
    val = np.log([v for _, v in positive])
    slope = float(np.polyfit(lam, val, 1)[0])
    if slope >= DIVERGE_SLOPE - SLOPE_TOL:
        flag = "diverging"
    elif slope <= CONVERGE_SLOPE + SLOPE_TOL:
        flag = "converging"
    else:
        flag = "inconclusive"
    return flag, {"fit_slope": slope, "growth_exponent": slope + 1.0}


def _verdict(name: str, spec: TruncationSpec, terms: np.ndarray,
             parameters: dict, extras: dict | None = None) -> dict:
    """The verdict as the report writes it; its extras are the tail fit, then extras."""
    shells = shell_partition(spec, terms, f"the {name} sum")
    flag, fit = classify_tail(shells, spec.dim)
    return {
        "criterion": name,
        "partial_sum": named_fsum(f"the {name} sum", (v for _, v in shells)),
        "shells": shells,
        "tail_flag": flag,
        "parameters": parameters,
        "extras": {**fit, **(extras or {})},
    }


def _hilbert_schmidt(spec: TruncationSpec, terms: np.ndarray,
                     m: OperatorMatrix | None) -> dict:
    """HS-iff on the terms, cross-checked on m, the matrix of their pass, if given."""
    extras = {}
    if m is not None:
        direct = named_fsum("the HS-iff sum", terms)
        fro2 = m.frobenius_squared()
        if not math.isfinite(fro2):
            raise FloatingPointError("the squared Frobenius norm of the matrix overflows")
        extras["frobenius_squared"] = fro2
        extras["relative_gap"] = abs(fro2 - direct) / direct if direct > 0 else 0.0
    return _verdict("HS-iff", spec, terms, {}, extras)


def _trace_class(m: OperatorMatrix) -> dict:
    blocks, d = m.values, m.symmetrizer
    # a constant symmetrizer makes M a multiple of the symmetric G
    if d is None or (d != d[0]).any():
        scale = max([1e-300] + [np.abs(b).max() for b in blocks])
        asym = max([0.0] + [np.abs(b - b.T).max() for b in blocks])
        if asym > SYMMETRY_TOL * scale:
            raise CriterionPreconditionError(
                f"symmetry check failed: max|M - M^T| = {asym:.3e} "
                f"exceeds {SYMMETRY_TOL:.0e} * max|M| = {SYMMETRY_TOL * scale:.3e}"
            )
    lo = float(np.concatenate([np.linalg.eigvalsh(0.5 * (b + b.T)) for b in blocks]
                              + [m.scalars]).min())
    norm = math.sqrt(m.frobenius_squared())
    if lo < -POSITIVITY_TOL * norm:
        raise CriterionPreconditionError(
            f"positivity check failed: smallest eigenvalue {lo:.3e} "
            f"below -{POSITIVITY_TOL:.0e} * ||M||"
        )
    return _verdict("TraceClass-iff", m.spec, m.columns[0], {})


def _sr_small(spec: TruncationSpec, r: float, m: OperatorMatrix | None,
              squared: np.ndarray) -> dict:
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if m is None:
        return _verdict("Sr-sufficient", spec, squared ** (r / 2.0), {"r": r})
    # exact on a 1 x 1 block nu: the column integral is M[nu, nu]^2, so the
    # r/2 power is |M[nu, nu]|^r; the others are powers at the dense blocks' ranks
    ranks = np.concatenate([*m.blocks, m.singles[:0]])
    terms = np.empty(spec.size)
    terms[ranks] = squared[ranks] ** (r / 2.0)
    terms[m.singles] = abs_powers(m.scalars, r)
    return _verdict("Sr-sufficient", spec, terms, {"r": r})


def sigma_lower_bound(dim: int, r: float) -> float:
    return dim * (1.0 / r - 0.5)


def default_sigma(dim: int, r: float) -> float:
    """Strictly inside the admissible region, with an order-one margin."""
    return sigma_lower_bound(dim, r) + 0.5


def _sr_sigma(spec: TruncationSpec, r: float, sigma: float | None,
              squared: np.ndarray) -> dict:
    """The squared column integrals weighted by (2|nu|+n)^(2 sigma), sigma >
    n(1/r - 1/2).  The weight 2|nu|+n rather than |nu| (the two are
    comparable) keeps the nu = 0 term non-degenerate."""
    if not 1.0 < r < 2.0:
        raise ValueError(f"r must lie in (1, 2), got {r}")
    bound = sigma_lower_bound(spec.dim, r)
    if sigma is None:
        sigma = default_sigma(spec.dim, r)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma <= bound:
        raise CriterionPreconditionError(
            f"sigma = {sigma} violates the admissibility bound "
            f"sigma > n(1/r - 1/2) = {bound}"
        )
    lam = 2.0 * spec.array.sum(axis=1) + spec.dim
    with np.errstate(over="ignore", invalid="ignore"):  # the shell sums name it
        terms = lam ** (2.0 * sigma) * squared
    return _verdict("Sr-sigma", spec, terms, {"r": r, "sigma": sigma})


def criteria(
    sym: SymbolSpec, spec: TruncationSpec, q: int | None = None,
    rs: tuple[float, ...] = (1.0, 2.0), sigma: float | None = None,
) -> list[dict]:
    """Verdicts for each r in order: HS-iff at r = 2, Sr-sufficient for r <= 1
    (then TraceClass-iff at r = 1 if the symbol claims positivity, else none),
    Sr-sigma for 1 < r < 2 (_sr_sigma).  All read one order-q pass: its column
    integrals, and its matrix if a verdict reads it or the symbol is a multiplier.

    Up to 512 basis functions, HS-iff records the squared Frobenius norm of
    the matrix and its relative gap to the sum, by Bessel's inequality the
    leakage past the truncation.  TraceClass-iff first verifies the claim on
    the matrix: symmetry to 1e-8 relative in the max norm, smallest
    eigenvalue >= -1e-8 ||M||_F."""
    if any(r > 2.0 for r in rs):
        raise ValueError(f"no criterion applies for r > 2, got {max(rs)}")
    trace_class = 1.0 in rs and sym.claims_positive_selfadjoint
    cross_check = 2.0 in rs and spec.size <= CROSS_CHECK_MAX_SIZE
    if trace_class or cross_check or sym.is_multiplier:
        m = assemble_matrix(sym, spec, q, doubling_check=False)
        _, squared = m.columns
    else:
        m = None
        _, squared = column_integrals(sym, spec, q)
    verdicts = []
    for r in rs:
        if r == 2.0:
            verdicts.append(_hilbert_schmidt(spec, squared, m if cross_check else None))
        elif r <= 1.0:
            verdicts.append(_sr_small(spec, r, m, squared))
            if r == 1.0 and trace_class:
                verdicts.append(_trace_class(m))
        else:
            verdicts.append(_sr_sigma(spec, r, sigma, squared))
    return verdicts


def check_multiplier_schatten(
    sym: SymbolSpec, spec: TruncationSpec, r: float
) -> dict:
    """Exact multiplier criterion for any r > 0: sum of |m(nu)|^r.

    Valid because the singular values of a multiplier are the |m(nu)|; no
    quadrature is involved."""
    if not 0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    if not sym.is_multiplier:
        raise CriterionPreconditionError(
            "the |m(nu)|^r criterion is exact only for multipliers; "
            "this symbol depends on x"
        )
    # a multiplier's operator is its m(nu), each a 1 x 1 block in rank order
    terms = abs_powers(assemble_matrix(sym, spec).scalars, r)
    return _verdict("Multiplier-Sr", spec, terms, {"r": r})
