"""Schatten-class membership criteria.

An operator lies in the Schatten class S_r when its singular values are
r-summable.  The membership criteria here are infinite sums over the symbol;
the tool reports partial sums per spectral shell together with a tail fit
that classifies the growth as converging, diverging, or inconclusive.
"""

from hspec import TruncationSpec, builtin_symbol, check_multiplier_schatten, parse_symbol
from hspec.criteria import criteria


def show(v):
    extra = ""
    if v["extras"].get("fit_slope") is not None:
        extra = f"  (tail slope {v['extras']['fit_slope']:+.3f})"
    print(f"  {v['criterion']:<16} partial sum {v['partial_sum']:<22.12g} -> "
          f"{v['tail_flag']}{extra}")


print("== Heat semigroup symbol e^(-t(2|nu|+n)), t=1: everything converges ==")
heat = builtin_symbol("heat", 1, t=1.0)
spec = TruncationSpec(1, 40)
# one verdict per r, and TraceClass-iff after r = 1, as the symbol claims positivity
small, hs, _, trace_class, weighted = criteria(heat, spec, None, (0.5, 2.0, 1.0, 1.5), sigma=1.0)
for v in (hs, trace_class, small, weighted):
    show(v)

print("\n== Inverse oscillator powers (2|nu|+n)^(-sigma): a sharp threshold ==")
spec = TruncationSpec(1, 2000)
for sigma in (0.3, 1.0, 2.0):
    sym = builtin_symbol("power", 1, sigma=sigma)
    print(f"sigma = {sigma}:")
    hs, _, trace_class = criteria(sym, spec, None, (2.0, 1.0))
    show(hs)
    show(trace_class)

print("\n== Multiplier fast path: S_p membership of the inverse oscillator ==")
print("sum (2k+1)^(-p) converges exactly when p > 1 (dimension 1):")
spec = TruncationSpec(1, 20000)
sym = builtin_symbol("power", 1, sigma=1.0)
for p in (0.9, 1.0, 1.2, 2.0):
    v = check_multiplier_schatten(sym, spec, r=p)
    growth = v["extras"].get("growth_exponent")
    note = f", partial-sum growth ~ N^{growth:.3f}" if v["tail_flag"] == "diverging" else ""
    print(f"  p = {p}: {v['tail_flag']}{note}")

print("\n== An x-dependent symbol ==")
sym = parse_symbol("exp(-absnu/2)/(1+x1^2)", 1)
(v,) = criteria(sym, TruncationSpec(1, 30), 100, (2.0,))
show(v)
print(f"  cross-check: ||M||_F^2 agrees with the direct sum to "
      f"{v['extras']['relative_gap']:.2e} relative")
