"""Trace formulas and convergence under the level cutoff.

For a trace-class pseudo-multiplier the trace equals the sum of the column
integrals of m(x, nu) phi_nu^2 -- no eigenvalues needed.  This script compares
that formula with the eigenvalue sum of the assembled matrix, and sweeps the
level cutoff N to watch both converge to a closed-form limit.
"""

import math

from hspec import (
    TruncationSpec,
    assemble_matrix,
    builtin_symbol,
    compare_traces,
    parse_symbol,
    schatten_sum,
    singular_values,
)

print("== Heat semigroup trace: formula vs spectrum vs closed form ==")
t = 1.0
heat = builtin_symbol("heat", 1, t=t)
limit = 1.0 / (2.0 * math.sinh(t))
print(f"closed form sum_k e^(-(2k+1)t) = 1/(2 sinh t) = {limit:.15f}")
print(f"{'N':>4}  {'formula trace':>18}  {'spectral trace':>18}  {'gap to limit':>12}")
for n_level in (5, 10, 20, 40):
    spec = TruncationSpec(1, n_level)
    traces = compare_traces(assemble_matrix(heat, spec))
    tf, st = traces["formula_trace"], traces["spectral_trace"]
    print(f"{n_level:>4}  {tf:>18.15f}  {st:>18.15f}  {abs(tf - limit):>12.3e}")

print("\n== The same comparison for a genuine pseudo-multiplier ==")
sym = parse_symbol("exp(-lam) + 0 * x1", 1, positive_selfadjoint=True)
spec = TruncationSpec(1, 25)
m = assemble_matrix(sym, spec, q=80)
# the formula sums the order-80 column integrals; the kept matrix is the order-160 one
traces = compare_traces(m)
tf, st = traces["formula_trace"], traces["spectral_trace"]
print(f"symbol {sym.text!r} assembled by quadrature, N=25, Q=80:")
print(f"formula trace  = {tf:.15f}")
print(f"spectral trace = {st:.15f}")
print(f"difference     = {abs(tf - st):.3e}")

print("\n== Singular values and Schatten norms ==")
sv = singular_values(m)
print(f"largest singular values: {[round(float(s), 6) for s in sv[:4]]}")
print(f"(the multiplier values e^(-1), e^(-3), ... of the heat symbol)")
print(f"S_1 norm (trace norm)    = {schatten_sum(sv, 1.0) ** (1 / 1.0):.12f}")
print(f"S_2 norm (Frobenius)     = {schatten_sum(sv, 2.0) ** (1 / 2.0):.12f}")
print(f"S_2 closed form          = {math.sqrt(1.0 / (2.0 * math.sinh(2.0))):.12f}")

print("\n== Convergence of a power-symbol trace to pi^2/8 ==")
# sum_k (2k+1)^(-2) = pi^2 / 8
sym = builtin_symbol("power", 1, sigma=2.0)
limit = math.pi**2 / 8.0
prev = None
for n_level in (10, 100, 1000, 10000):
    tf = compare_traces(assemble_matrix(sym, TruncationSpec(1, n_level)))["formula_trace"]
    shrink = "" if prev is None else f"  (gap shrank {prev / abs(tf - limit):.1f}x)"
    print(f"N = {n_level:>6}: partial trace = {tf:.12f}, gap = {abs(tf - limit):.3e}{shrink}")
    prev = abs(tf - limit)
print(f"limit pi^2/8 = {limit:.12f}")
