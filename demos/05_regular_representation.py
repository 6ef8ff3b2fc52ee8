"""Decomposing a six-term group-algebra element inside the rank-3 algebra.

X = x0 + x1(18) + x2(19) + x3(89) + x4(189) + x5(198) uses the copy of S_3
on letters {1, 8, 9}.  Its 8x8 matrix splits: a fixed change of basis P sends
[X] to six copies of the sum x0+..+x5 plus one 2x2 block carrying the
two-dimensional representation content.
"""

from fractions import Fraction

from wittmat import regrep_decompose, regrep_element, to_matrix, u, b

xs = [Fraction(v) for v in (1, 2, 3, 4, 5, 6)]
el = regrep_element(xs)
M = to_matrix(el.element)

print("coefficients x0..x5 =", [str(x) for x in xs])
print("\n[X] =")
print(M.pretty())
print("note the repeated diagonal value", sum(xs), "= x0+x1+x2+x3+x4+x5")

P, D = regrep_decompose(el)
print("\nchange of basis P =")
print(P.pretty())
print("\nP^-1 [X] P =")
print(D.pretty())
bt = D[(6, 6)] + D[(7, 7)]
print("trailing 2x2 block trace:", bt, "= 2*x0 - x4 - x5 =", 2 * xs[0] - xs[4] - xs[5])

# the representation only needs six coordinates; the natural column carrying
# the coefficients is padded with two zeros to live in the 8-dimensional space
padded = [0, 0] + [str(x) for x in xs]
print("\npadded coefficient column:", padded)

# column surgery: right-multiplying by one monomial slides a single column
# of the matrix into the first position and clears the rest
n = 3
picked = el.element * (b(n, 1) * u(n, 2) * u(n, 3))
print("\ncolumn extraction via b1 u2 u3 (second column of [X]):")
print(to_matrix(picked).pretty())
