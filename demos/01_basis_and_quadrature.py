"""Hermite basis and Gauss-Hermite quadrature.

The normalized Hermite functions phi_k are the eigenfunctions of the quantum
harmonic oscillator -d^2/dx^2 + x^2 with eigenvalues 2k+1.  This script shows
the stable recurrence evaluation, the Golub-Welsch quadrature rules, and the
numerical orthonormality of the basis.
"""

import math

import numpy as np

from hspec import gauss_hermite_rule, hermite_table


def phi(k, x):
    """phi_k(x), the last row of the table of phi_0..phi_k at x."""
    return hermite_table(k, [x])[k, 0]


print("== Hermite function values ==")
print(f"phi_0(0)   = {phi(0, 0.0):.12f}   (= pi^(-1/4))")
print(f"phi_1(0)   = {phi(1, 0.0):.12f}   (odd parity)")
print(f"phi_4(0.7) = {phi(4, 0.7):.12f}")

print("\nThe recurrence stays bounded where raw Hermite polynomials overflow:")
print(f"phi_500(10) = {phi(500, 10.0):.6e}  (finite, no 2^k k! blowup)")
print(f"phi_1000(40) = {phi(1000, 40.0):.15f}  (50-digit oracle 0.172250520732792;"
      " e^(-40^2/2) alone underflows)")

print("\n== Oscillator eigenvalues 2|nu| + n ==")
for nu in [(0,), (3,), (1, 2), (0, 0, 0)]:
    print(f"lambda{nu} = {2 * sum(nu) + len(nu)}")

print("\n== Gauss-Hermite rules (weight e^(-x^2)) ==")
rule = gauss_hermite_rule(2)
print(f"Q=2 nodes {np.round(rule.nodes, 12)}  (roots of H_2 = 4x^2 - 2)")
print(f"    weights {np.round(rule.weights, 12)}  (each sqrt(pi)/2)")

rule = gauss_hermite_rule(5)
second_moment = rule.weights @ rule.nodes**2
print(f"Q=5 integral of x^2 e^(-x^2) = {second_moment:.15f}")
print(f"    exact value sqrt(pi)/2   = {math.sqrt(math.pi) / 2:.15f}")

print("\n== Orthonormality of the first 31 basis functions ==")
rule = gauss_hermite_rule(64)
rows = rule.basis[:31]  # sqrt(w_i) phi_k(x_i) e^(x_i^2/2)
gram = rows @ rows.T
print(f"max |Gram - I| = {np.abs(gram - np.eye(31)).max():.3e}  (Q=64)")
