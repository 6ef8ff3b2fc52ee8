"""Permutation matrices as geometric numbers, and surgery on the Casimir.

Permutations of 2^n letters become rank-n elements through from_matrix.
Transpositions have short closed forms.  The all-ones matrix A commutes with
every permutation image; C = A - 1 has minimal polynomial (x+1)(x - (m-1)),
and its spectral idempotents split the permutation representation into the
standard part and the trivial part.
"""

from wittmat import (
    Permutation,
    all_ones_mv,
    casimir_idempotents,
    casimir_mv,
    geom_perm,
    min_poly,
    mv_trace,
    one,
    standard_irrep,
    surgery_gc,
    surgery_gc_inverse,
    to_matrix,
)

n = 2
m = 1 << n

print("closed forms of the geometric transpositions at rank 2:")
for cyc in ("(12)", "(13)", "(14)"):
    g = geom_perm(Permutation.from_cycles(cyc), n)
    print(f"  {cyc} ->", g.pretty())

print("\nthe 9-cycle at rank 3, standard quotient image:")
sigma = Permutation.from_cycles("(123456789)")
g9 = geom_perm(sigma, 3, rep="standard")
print(to_matrix(g9).pretty())
power = g9
for k in range(2, 10):
    power = power * g9
print("ninth power is the identity:", power == one(3))

print("\nCasimir machinery at rank 2 (m = 4 letters):")
A = all_ones_mv(n)
C = casimir_mv(n)
print("  A          =", A.pretty())
print("  A^2 == 4A  :", A * A == A.scale(m))
print("  min(A)     =", min_poly(to_matrix(A)).factored_str())
print("  min(C)     =", min_poly(to_matrix(C)).factored_str())

s1, s2 = casimir_idempotents(n)
print("  idempotents: s1^2==s1, s2^2==s2, s1s2==0, s1+s2==1:",
      s1 * s1 == s1 and s2 * s2 == s2 and (s1 * s2).is_zero() and s1 + s2 == one(n))

gc = surgery_gc(n)
D = to_matrix(surgery_gc_inverse(n) * C * gc)
print("  conjugated Casimir:")
print(D.pretty())

# The paper prints (15), which moves the extra letter, in the quotient basis;
# standard_irrep holds its g_c conjugate, which has the same trace.
print("\nstandard images of the transpositions through the extra letter:")
for cyc in ("(12)", "(13)", "(14)", "(15)"):
    p = Permutation.from_cycles(cyc)
    g = standard_irrep(p, n)
    shown = g if p(m + 1) == m + 1 else geom_perm(p, n, rep="standard")
    print(f"  {cyc}: trace {mv_trace(g)}")
    print(to_matrix(shown).pretty())
