"""The benchmark's calls into wittmat, one function per public entry point.

Each wrapper records a span named after the layer it enters (module.function)
and, when tracing, counts the work at the same boundary.  Counting runs after
the span closes, so it shows up as tracing overhead, not as layer time.
"""

from __future__ import annotations

from wittmat import (
    block_split,
    commutant as _commutant,
    from_matrix as _from_matrix,
    geom_perm as _geom_perm,
    min_poly as _min_poly,
    mv_inverse as _mv_inverse,
    regrep_decompose as _regrep_decompose,
    to_matrix as _to_matrix,
)

from tracing import coeff_bits


def _cells(M):
    return (x for row in M.cells for x in row)


def mul(sp, g, h):
    with sp("witt.mul"):
        out = g * h
    if sp.tracing:
        terms = out.terms()
        sp.add("witt.mul.pairs", len(g.terms()) * len(h.terms()))
        sp.add("witt.mul.terms_out", len(terms))
        sp.add("witt.mul.coeff_bits", coeff_bits(c for _, c in terms))
    return out


def involution(sp, g, which):
    with sp("witt.involution"):
        return getattr(g, which)()


def block(sp, g):
    with sp("witt.block"):
        return block_split(g)


def to_matrix(sp, g):
    with sp("spectral.to_matrix"):
        return _to_matrix(g)


def from_matrix(sp, M, n):
    with sp("spectral.from_matrix"):
        out = _from_matrix(M, n)
    if sp.tracing:
        sp.add("spectral.from_matrix.nonzeros_in", sum(1 for x in _cells(M) if x))
    return out


def detour(sp, g, h):
    """g*h through the matrix bridge: to_matrix, ExactMatrix product, from_matrix."""
    with sp("spectral.detour"):
        return _from_matrix(_to_matrix(g) * _to_matrix(h), g.n, complexified=g.complexified or h.complexified)


def mv_inverse(sp, g):
    with sp("spectral.mv_inverse"):
        return _mv_inverse(g)


def _exact_bits(sp, matrices):
    if sp.tracing:
        sp.add("exact.coeff_bits_out", sum(coeff_bits(_cells(M)) for M in matrices))


def matmul(sp, A, B):
    with sp("exact.matmul"):
        out = A * B
    _exact_bits(sp, [out])
    return out


def inverse(sp, A):
    with sp("exact.inverse"):
        out = A.inverse()
    _exact_bits(sp, [out])
    return out


def rref(sp, A):
    with sp("exact.rref"):
        out = A.rref()
    _exact_bits(sp, [out[0]])
    return out


def nullspace(sp, A):
    # nullspace is rref plus back-substitution, so it is timed as the rref layer
    with sp("exact.rref"):
        out = A.nullspace()
    _exact_bits(sp, out)
    return out


def min_poly(sp, A):
    with sp("exact.min_poly"):
        out = _min_poly(A)
    if sp.tracing:
        sp.add("exact.min_poly.degree", out.degree)
        sp.add("exact.coeff_bits_out", coeff_bits(out.coeffs))
    return out


def geom_perm(sp, p, n):
    with sp("symgroup.geom_perm"):
        return _geom_perm(p, n)


def commutant(sp, gens):
    with sp("repdecomp.commutant"):
        return _commutant(gens)


def regrep_decompose(sp, xs):
    with sp("repdecomp.regrep_decompose"):
        return _regrep_decompose(xs)
