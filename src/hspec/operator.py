"""Finite truncations of pseudo-multipliers: the matrix of P_N T_m P_N on the
Hermite basis and its column integrals, from one discretization pass.

The computed matrix is the compression P_N T_m P_N with entries
M[mu, nu] = <T_m phi_nu, phi_mu> = integral of m(x, nu) phi_nu(x) phi_mu(x).
Columns are indexed by the input basis function nu, so each column is one
1-D family of integrals of m(., nu) against the basis.

Quadrature never multiplies the Gaussian tails: the integral of
m(x, nu) phi_nu(x) phi_mu(x) is the sum over the tensor Gauss-Hermite grid of
m(x, nu) prod_j B[nu_j, x_j] B[mu_j, x_j] with the rule's bounded basis table
B[k, i] = sqrt(w_i) h_k(x_i), h_k = phi_k e^(x^2/2).

Every symbol is assembled the same way: a chunk of columns is sampled,
contracted, and each column scaled by one factor.  A symbol whose top-level
product splits as m(x, nu) = a(nu) b(x) (symbol.separate) has M = G diag(a),
with G the matrix of b: b is sampled once on the grid for all columns, and
the factor of column nu is a(nu).  From 2-D up, the partial sum over
x_{j+1}, ..., x_n, which depends on nu only through (nu_{j+1}, ..., nu_n),
is then formed once per such tail and shared by all columns below it.  Any
other symbol is sampled per chunk of columns, with factor 1.  G is
symmetric, so when every a(nu) is positive M is similar to the symmetric
diag(sqrt(a)) G diag(sqrt(a)), and the operator keeps sqrt(a) for the
spectral stage.

The rule is mirror symmetric, bit for bit: the nodes are -x and x in pairs
(and 0 for an odd q), and B[k, mirror of i] = (-1)^k B[k, i].  When the
expression tree proves a sign s_j = +1 or -1 for the flip of every single
axis x_j (symbol.axis_signs; the nu-variables are not coordinates), the
grid is folded onto its non-negative nodes: a node and its mirror add
(1 + s_j (-1)^(mu_j + nu_j)) times the node's term, so every axis keeps its
q - q//2 non-negative nodes with twice the weight (once for the node 0),
and each contraction step keeps only the basis rows mu_j with
(-1)^(mu_j + nu_j) = s_j.  The samples and the sums shrink by 2^n, and the
entries that vanish in exact arithmetic are exact zeros, as are the
integrals of m phi_nu^2 of a symbol odd in some axis.  Any other symbol runs
on the whole grid.

Every matrix is stored as dense blocks and 1 x 1 blocks: a multiplier as
its diagonal m(nu), one 1 x 1 block per rank, any other as its dense parity
blocks.  phi_nu(hx) = (-1)^(nu . h) phi_nu(x), so for every flip h that
leaves the symbol unchanged (symbol.invariant_flips) M[mu, nu] = 0 unless
nu . h and mu . h have the same parity.  Each chunk's sums are written into
a stack of the blocks, the doubling check compares the stacks of the two
orders, and no dense D x D matrix is built unless OperatorMatrix.entries is
read; every reader takes one formula over both kinds of block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import gauss_hermite_rule, quadrature_order
from .multiindex import TruncationSpec
from .symbol import (SymbolEvalError, SymbolSpec, axis_signs, eval_symbol, invariant_flips,
                     multiplier_value, separate, symbol_sampler)

RESIDUAL_WARN = 1e-6


@dataclass(frozen=True)
class OperatorMatrix:
    """The truncated operator, the one discretization every report reads.

    values are the dense blocks M[b, b], one per index set b of blocks, rows
    and columns in ascending rank order, and scalars the 1 x 1 blocks
    M[nu, nu] at the ranks singles: a multiplier's are all its m(nu), with
    no dense block; any other's are empty.  All are finite, and M[mu, nu] = 0
    unless mu and nu share a block, so the spectrum is the blocks' union.
    columns holds the per-nu integrals of m phi_nu^2 and m^2 phi_nu^2, for a
    non-multiplier reduced from the samples of the unrefined matrix.
    worst_column is the nu, a tuple of ints, whose column moved most between
    the order-q and order-2q matrices, with its relative change (None without
    the check).
    symmetrizer is d = sqrt(a(nu)) when the symbol splits as a(nu) b(x)
    (symbol.separate) with every a(nu) a positive normal float, else None:
    then M = G diag(a) with G symmetric, and diag(d) M diag(d)^-1
    = diag(d) G diag(d) is symmetric with the same eigenvalues.
    """

    spec: TruncationSpec
    values: tuple[np.ndarray, ...]
    quad_order: int
    assembly_residual: float
    columns: tuple[np.ndarray, np.ndarray]
    blocks: tuple[np.ndarray, ...]
    worst_column: tuple[tuple[int, ...], float] | None = None
    symmetrizer: np.ndarray | None = None
    singles: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    scalars: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def size(self) -> int:
        return self.spec.size

    @property
    def residual_warning(self) -> bool:
        """Whether the relative change under quadrature doubling exceeds RESIDUAL_WARN."""
        return self.assembly_residual > RESIDUAL_WARN

    @property
    def entries(self) -> np.ndarray:
        """Dense D x D matrix, built on each access: the blocks in place and
        exact zeros elsewhere."""
        dense = np.zeros((self.size, self.size))
        for b, block in zip(self.blocks, self.values):
            dense[np.ix_(b, b)] = block
        dense[self.singles, self.singles] = self.scalars
        return dense

    def frobenius_squared(self) -> float:
        """The sum of the squared entries, block by block; inf when it overflows."""
        with np.errstate(over="ignore"):
            return float(sum((np.square(block).sum() for block in self.values),
                             np.square(self.scalars).sum()))

    def trace(self) -> float:
        """The sum of the diagonal, taken in enumeration order."""
        diagonal = np.empty(self.size)
        for b, block in zip(self.blocks, self.values):
            diagonal[b] = block.diagonal()
        diagonal[self.singles] = self.scalars
        with np.errstate(over="ignore", invalid="ignore"):  # finite values; checked below
            total = float(np.sum(diagonal))
        if not math.isfinite(total):
            raise FloatingPointError("the matrix trace overflows")
        return total


# Bytes per chunk of columns: of samples of m, or of the (N+1)^n sums of each
# column of G.  Besides one sample of b (and its square), a temporary is at
# most about this size, so peak memory is a few chunks, never D q^n.
_CHUNK_BYTES = 8 * 2**20


def _contract(values: np.ndarray, row: np.ndarray, weights: np.ndarray,
              block: np.ndarray, signs: tuple[int, ...] | None = None) -> np.ndarray:
    """Sum factorization: sum over the grid of values[c|0, x] times
    prod_j weights[block[c, j], x_j] row[a_j, x_j], one axis at a time, as a
    (c, (N+1)^n) block over the box a in [0, N]^n in row-major order.

    values holds c or 1 rows of q^n samples, block has shape (c, n).  One row
    for several columns, sampled once for all of them, needs distinct rows of
    block sorted by (block[:, n-1], ..., block[:, 0]).  From 2-D up it is
    contracted depth first over the tails (block[c, j], ..., block[c, n-1]):
    the partial sum over x_{j+1..n} is formed once per distinct tail and
    shared by the columns below it.  c rows, or one row in 1-D, where it
    broadcasts, are contracted column by column.

    signs, on a folded grid, are the symbol's signs +1/-1 under the flip of
    each axis: the step over axis j then keeps only the rows a with
    (-1)^(block[c, j] + a) = signs[j], the sums the mirror nodes do not
    cancel, and the others come out as exact zeros."""
    c, n = block.shape
    q, rows = row.shape[1], row.shape[0]
    keep = None
    if signs is not None:
        odd = np.add.outer(np.arange(len(weights)), np.arange(rows)) % 2
        keep = [(odd == (s < 0)).astype(float) for s in signs]
    if len(values) == c or n == 1:
        t = values
        for j in reversed(range(n)):
            # t holds [a_{j+2}..a_n, x_1..x_{j+1}]; contract x_{j+1}, move a_{j+1} first
            t = t.reshape(len(t), -1, q) * weights[block[:, j], None, :]
            t = (t.reshape(-1, q) @ row.T).reshape(c, -1, rows)
            if keep is not None:
                t *= keep[j][block[:, j], None, :]
            t = t.transpose(0, 2, 1)
        return t.reshape(c, -1)
    out = np.empty((c, rows**n))
    _descend(values.reshape(-1, q), row, weights, block, out, 0, c, n - 1, keep)
    return out


def _descend(t: np.ndarray, row: np.ndarray, weights: np.ndarray, block: np.ndarray,
             out: np.ndarray, lo: int, hi: int, j: int, keep: list | None) -> None:
    """One step of _contract's walk over the tails: t, (P, q), holds
    [a_{j+2}..a_n, x_1..x_{j+1}] for the columns lo:hi, which share
    block[:, j+1:]; contract x_{j+1} once per distinct block[c, j] and recurse,
    or write the rows of out at j = 0.  keep[j][k, a], on a folded grid, is 0
    for the basis rows a that kid k drops, else 1.

    Not nested in _contract: a nested function that calls itself is a
    reference cycle, and would keep out alive until the cyclic garbage
    collector next runs."""
    q, rows = row.shape[1], row.shape[0]
    ks, starts = np.unique(block[lo:hi, j], return_index=True)
    ends = np.append(starts[1:], hi - lo) + lo
    # per kid: the scaled basis rows and the sums, at most (rows + q) len(t) values
    group = max(1, _CHUNK_BYTES // (8 * (rows + q) * len(t)))
    for s in range(0, len(ks), group):
        k = ks[s:s + group]
        # a view, not a copy; a run's ks are consecutive in a truncation, so
        # the span wastes no kid
        span = slice(k[0], k[-1] + 1)
        # kids[k, a, p] = sum_x weights[k, x] row[a, x] t[p, x] as one GEMM,
        # scaling the basis rows, no more than t's from 2-D up (1-D never gets here)
        scaled = weights[span, None, :] * row
        if keep is not None:
            scaled *= keep[j][span, :, None]
        kids = (scaled.reshape(-1, q) @ t.T).reshape(-1, rows, len(t))
        del scaled  # not held through the recursion below
        if j == 0:
            out[starts[s:s + group] + lo] = kids.reshape(len(kids), -1)[k - k[0]]
            continue
        for i, start, end in zip(k - k[0], starts[s:s + group] + lo, ends[s:s + group]):
            _descend(kids[i].reshape(-1, q), row, weights, block, out, start, end, j - 1, keep)


def _diagonal_sums(values: np.ndarray, weights: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(c,) sums over the grid of values[c|0, x] prod_j weights[block[c, j], x_j].

    Values of one row for several columns need block sorted as in _contract:
    the sum over x_n is taken once per distinct block[:, -1], and what is left
    is summed the same way over each run of columns sharing it."""
    c, n = block.shape
    q = weights.shape[1]
    if len(values) == c or n == 1:
        for j in reversed(range(n)):
            values = values.reshape(len(values), -1, q) @ weights[block[:, j], :, None]
        return values.reshape(-1)
    ks, starts = np.unique(block[:, -1], return_index=True)
    ends = np.append(starts[1:], c)
    partial = weights[ks] @ values.reshape(-1, q).T  # (distinct nu_n, q^(n-1))
    return np.concatenate([_diagonal_sums(partial[i:i + 1], weights, block[lo:hi, :-1])
                           for i, (lo, hi) in enumerate(zip(starts, ends))])


def _box(spec: TruncationSpec) -> np.ndarray:
    """The row-major index of each nu in the box [0, N]^n."""
    return spec.array @ (spec.level + 1) ** np.arange(spec.dim - 1, -1, -1)


def _sampler(sym: SymbolSpec, spec: TruncationSpec, nodes: np.ndarray,
             full: np.ndarray | None = None):
    """(sample, a): sample(cols) gives the values of the columns cols on the
    tensor grid of the (q, n) per-axis nodes, in row-major order, and one
    factor per column that scales their sums.

    When m splits (symbol.separate) and every a(nu) b(x) is finite, which
    holds iff max|a| max|b| is finite, the sample is shared: b's single row
    and the factors a[cols], and a is every column's a(nu).  Else the values
    are m's own, sampled per column by symbol_sampler, with factors 1, a is
    None, and the first non-finite value is named.  On a folded grid, whose
    nodes are the non-negative half of the nodes full, a chunk that is not
    finite is sampled again on full, so the point named is the first of the
    whole grid.

    Finiteness is judged on the products a(nu) b(x), not on the steps of m's
    own order of evaluation, which the split regroups: 1e307*x1^2*1e-307 is
    x1^2 here, though m evaluated left to right overflows for |x1| > 4.24,
    and exp(-500*nu1)*(1e200*(1+x1^2))*exp(-500*nu1) has a = 0 for nu1 >= 1,
    where m's order keeps values near 5e-235 (1+x1^2)."""
    split = separate(sym)
    if split is not None:
        try:
            a = multiplier_value(split[0], spec.array)
            b = eval_symbol(split[1], nodes, spec.array[:1], grid=True)
        except SymbolEvalError:
            split = None
    with np.errstate(over="ignore"):
        if split is not None and np.isfinite(np.abs(a).max() * np.abs(b).max()):
            return (lambda cols: (b, a[cols])), a
    sample = symbol_sampler(sym, nodes)

    def per_column(cols):
        try:
            return sample(spec.array[cols]), np.ones(len(cols))
        except SymbolEvalError:
            if full is not None:  # raises, naming the whole grid's first bad point
                symbol_sampler(sym, full)(spec.array[cols])
            raise

    return per_column, None


def _check_finite(what: str, bad: np.ndarray, spec: TruncationSpec) -> None:
    """Raise FloatingPointError naming the first column nu, in enumeration
    order, whose sums, of finite samples, overflowed (bad[nu])."""
    if bad.any():
        nu = tuple(spec.array[int(np.argmax(bad))].tolist())
        raise FloatingPointError(f"{what} overflows at nu={nu}")


def _discretize(sym: SymbolSpec, spec: TruncationSpec, q: int | None,
                layout: tuple | None = None, columns: bool = True
                ) -> tuple[int, np.ndarray | None, tuple | None, np.ndarray | None]:
    """The resolved order q, then the order-q matrix as the stack of its
    parity blocks laid out by layout (_stack_layout; no matrix without one)
    and/or the column integrals (of m phi_nu^2, of m^2 phi_nu^2), from one
    sampling of the symbol, then the column factors a(nu) when the sample is
    shared, else None.

    A multiplier's matrix is its exact diagonal m(nu) and its columns are
    (m, m^2), since phi_nu has unit norm: no quadrature.  Otherwise
    M[mu, nu] = sum_x m(x, nu) prod_j B[nu_j, x_j] B[mu_j, x_j] with the
    rule's basis rows B[k, i] = sqrt(w_i) h_k(x_i), k <= N, applied in
    factored form: B[nu_j] scales the samples and B contracts them; the
    column integrals reduce the samples against B[nu_j]^2.

    On a folded grid (see the module docstring) B is the basis on the
    non-negative nodes and the scaling rows are B times 2, or 1 at the node
    0.  Each chunk of columns is sampled (_sampler), contracted, and column
    nu scaled by its factor f(nu); the column integrals are f sum v B^2 and
    f^2 sum v^2 B^2 of the values v.  A shared sample takes the columns in
    tail order (nu_n, ..., nu_1), so each tail is a run; any other in
    enumeration order, so the first non-finite value named is the first
    column's.  A chunk's contracted sums are written straight into the
    stack, one row per column nu holding its block's rows mu; they are
    checked before, over the whole truncation, so sums that overflow raise
    FloatingPointError naming the first such column in enumeration order, in
    its block or not."""
    q = quadrature_order(spec.level, q)
    if sym.dim != spec.dim:
        raise ValueError(f"symbol dimension {sym.dim} != truncation dimension {spec.dim}")
    if sym.is_multiplier:
        diag = multiplier_value(sym, spec.array)
        with np.errstate(over="ignore"):  # an m^2 that overflows is named where it is summed
            return q, diag, (diag, diag**2), None
    # the tensor grid is the rule's nodes on every axis; no array of its q^n
    # points is built
    rule, box = gauss_hermite_rule(q), _box(spec)
    # the axis signs when every axis has one and the grid folds, else None
    signs = axis_signs(sym)
    fold = None if 0 in signs else signs
    half = q // 2 if fold else 0  # the non-negative nodes start at q // 2
    full = np.tile(rule.nodes[:, None], spec.dim)
    nodes, row = full[half:], rule.basis[:spec.level + 1, half:]
    # a folded node stands for itself and its mirror, the node 0 for itself
    weights = row * np.where(nodes[:, 0] > 0, 2.0, 1.0) if fold else row
    diag = row * weights
    size = spec.size
    linear, squared = (np.empty(size), np.empty(size)) if columns else (None, None)
    sample, a = _sampler(sym, spec, nodes, full if fold else None)
    shared = a is not None
    order = np.lexsort(spec.array.T) if shared else np.arange(size)
    if layout is not None:
        block_of, place, rows, pad = layout
        stack = np.zeros((len(rows), rows.shape[1], rows.shape[1]))
        bad = np.zeros(size, dtype=bool)
    step = max(1, _CHUNK_BYTES // (8 * (spec.level + 1 if shared else len(nodes))**spec.dim))
    # m phi_nu^2 is odd in an axis where m is, so it sums to exactly 0
    odd = fold is not None and -1 in fold
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for start in range(0, size, step):
            cols = order[start:start + step]
            block = spec.array[cols]
            values, factor = sample(cols)
            if layout is not None:
                sums = _contract(values, row, weights, block, fold)
                # products below max|sums| max|factor| are finite; else find
                # the columns with a non-finite entry in the truncation
                top = np.maximum(sums.max(), -sums.min()) * np.abs(factor).max()
                if not np.isfinite(top):
                    bad[cols] = ~np.isfinite(sums[:, box] * factor[:, None]).all(axis=1)
                # column nu is row place[nu] of its block's slice of the stack
                k = block_of[cols]
                part = sums.take(np.arange(0, sums.size, sums.shape[1])[:, None] + rows[k])
                part *= factor[:, None]
                stack[k, place[cols]] = part
            if columns:
                linear[cols] = 0.0 if odd else _diagonal_sums(values, diag, block) * factor
                squared[cols] = _diagonal_sums(np.square(values), diag, block) * (factor * factor)
    if layout is not None:
        _check_finite(f"the order-{q} matrix", bad, spec)
        np.copyto(stack, 0.0, where=pad[:, None, :])
    if columns:
        _check_finite(f"the order-{q} quadrature sum of m phi_nu^2", ~np.isfinite(linear), spec)
        _check_finite(f"the order-{q} quadrature sum of m^2 phi_nu^2", ~np.isfinite(squared),
                      spec)
    return q, stack if layout is not None else None, (linear, squared) if columns else None, a


def _parity_blocks(sym: SymbolSpec, spec: TruncationSpec) -> tuple[np.ndarray, ...]:
    """The nu grouped by the parities of nu . h over the flips h that leave
    the symbol invariant.  phi_nu(hx) = (-1)^(nu . h) phi_nu(x) and the rule's
    nodes are symmetric, so M[mu, nu] = 0 unless mu and nu share them all."""
    flips = invariant_flips(sym)
    if not flips:
        return (np.arange(spec.size),)
    # the parities depend on nu mod 2 only: group its few distinct patterns
    patterns, inverse = np.unique(spec.array % 2 @ (1 << np.arange(spec.dim)),
                                  return_inverse=True)
    bits = (patterns[:, None] >> np.arange(spec.dim)) & 1
    flip_bits = (np.array(flips)[:, None] >> np.arange(spec.dim)) & 1
    group = np.unique(bits @ flip_bits.T % 2, axis=0, return_inverse=True)[1].ravel()[inverse]
    return tuple(np.flatnonzero(group == g) for g in range(group.max() + 1))


def _stack_layout(blocks: tuple[np.ndarray, ...], spec: TruncationSpec):
    """How the parity blocks lie in a stack (k, w, w) of k arrays padded to
    the largest block, w: block b = blocks[k] holds M[b[i], b[p]] at
    stack[k, p, i], i.e. is stack[k, :len(b), :len(b)].T.  Returns per nu
    its block k and its place p in it, and per block the box index of its
    rows mu, padded with that of mu = 0, and where it is padding."""
    sizes = np.array([len(b) for b in blocks])
    ranks = np.concatenate(blocks)
    block_of, place = np.empty(spec.size, dtype=np.intp), np.empty(spec.size, dtype=np.intp)
    block_of[ranks] = np.repeat(np.arange(len(blocks)), sizes)
    place[ranks] = np.arange(spec.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = np.zeros((len(blocks), sizes.max()), dtype=np.intp)
    rows[block_of, place] = _box(spec)
    return block_of, place, rows, np.arange(sizes.max()) >= sizes[:, None]


def column_integrals(
    sym: SymbolSpec, spec: TruncationSpec, q: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The per-nu integrals of m(x,nu) phi_nu(x)^2 and of m(x,nu)^2
    phi_nu(x)^2, in enumeration order, from one pass; a multiplier's are
    exactly m(nu) and m(nu)^2."""
    return _discretize(sym, spec, q)[2]


def assemble_matrix(
    sym: SymbolSpec,
    spec: TruncationSpec,
    q: int | None = None,
    doubling_check: bool = True,
) -> OperatorMatrix:
    """Assemble P_N T_m P_N.

    A multiplier is its exact m(nu), as 1 x 1 blocks.  Otherwise the
    order-q pass gives the matrix, as its parity blocks, and the column
    integrals; the doubling check repeats the matrix at order 2q and records
    the relative Frobenius change, overall and per column, block by block; an overall
    change above 1e-6 sets OperatorMatrix.residual_warning (the result is
    still returned).  The symmetrizer sqrt(a) is read from the pass whose
    matrix is kept.
    """
    if sym.is_multiplier:
        q, diag, columns, _ = _discretize(sym, spec, q)
        return OperatorMatrix(spec, (), q, 0.0, columns, (),
                              singles=np.arange(spec.size), scalars=diag)
    blocks = _parity_blocks(sym, spec)
    layout = _stack_layout(blocks, spec)
    q, values, columns, a = _discretize(sym, spec, q, layout)
    residual, worst = 0.0, None
    if doubling_check:
        _, refined, _, a = _discretize(sym, spec, 2 * q, layout, columns=False)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            # the squared norms of the columns of the refined matrix and of
            # its change, read at each nu's (block, place); the padding is zeros
            at = layout[:2]
            fine2 = np.einsum("kpi,kpi->kp", refined, refined)[at]
            values -= refined
            change2 = np.einsum("kpi,kpi->kp", values, values)[at]
            scale = math.sqrt(fine2.sum())
            residual = math.sqrt(change2.sum()) / scale if scale > 0 else 0.0
            per_column = np.divide(np.sqrt(change2), np.sqrt(fine2),
                                   out=np.zeros(spec.size), where=fine2 > 0)
        if not np.isfinite([scale, residual]).all():
            raise FloatingPointError(f"the Frobenius norm in the order-{2 * q} doubling check "
                                     "overflows")
        # the first column in graded order within 1e-9 of the largest change,
        # so mirrored columns of a symmetric symbol do not swap on a last bit
        k = int(np.argmax(per_column >= (1 - 1e-9) * per_column.max()))
        worst = (tuple(spec.array[k].tolist()), float(per_column[k]))
        values = refined
    values = tuple(values[k, :len(b), :len(b)].T for k, b in enumerate(blocks))
    # a zero, negative or subnormal a(nu) gets no symmetrizer
    normal = a is not None and bool((a >= np.finfo(float).tiny).all())
    return OperatorMatrix(spec, values, q, residual, columns, blocks, worst,
                          np.sqrt(a) if normal else None)
