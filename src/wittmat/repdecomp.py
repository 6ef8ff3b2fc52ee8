"""Commutants, parametric commuting families, matrix surgery, and the block
decomposition of a six-parameter group-algebra element in G(3,3).

The commutant of a set of m x m matrices is found as one stacked nullspace in
the m^2 entries of the unknown, canonicalized by RREF.  The two displayed
families g_all (commuting with all of S_4) and g_alt (commuting with the
Klein four-group of double transpositions) come with factored minimal
polynomials that are verified at concrete rational parameters.

The regular-representation element X = x0 + x1(18) + x2(19) + x3(89)
+ x4(189) + x5(198) uses the standard (quotient) images of S_9 restricted to
the copy of S_3 on the letters {1,8,9}.  Its matrix is x05 I plus a rank-2
correction supported on columns 1 and 8; the correction's column space is a
fixed plane independent of x, so a single change of basis P splits every X
into six x05 eigenvalues and one 2x2 block.
"""

from __future__ import annotations

import functools
from math import lcm
from operator import sub
from typing import NamedTuple

from . import _EXPORTS
from .errors import DimensionMismatch, DomainError, InputError
from .exact import ExactMatrix, GaussianRational, RationalPolynomial, _as_scalar, min_poly
from .spectral import to_matrix
from .symgroup import Permutation, geom_perm
from .witt import Multivector, scalar_mv

__all__ = _EXPORTS["repdecomp"]


class CommutantBasis(NamedTuple):
    generators: tuple[ExactMatrix, ...]
    basis: tuple[ExactMatrix, ...]
    dimension: int


class FamilyReport(NamedTuple):
    kind: str
    params: tuple[GaussianRational, ...]
    matrix: ExactMatrix
    expected_roots: tuple[GaussianRational, ...]
    distinct_roots: tuple[GaussianRational, ...]
    collapsed: tuple[tuple[GaussianRational, int], ...]
    minpoly: RationalPolynomial
    ok: bool


class RegRepElement(NamedTuple):
    coefficients: tuple[GaussianRational, ...]
    element: Multivector


def commutant(generators) -> CommutantBasis:
    """Basis of {X : XG = GX for every generator G}, RREF-canonical."""
    gens = tuple(generators)
    if not gens:
        raise InputError("need at least one generator")
    m = gens[0].rows
    for G in gens:
        if G.rows != G.cols or G.rows != m:
            raise DimensionMismatch("generators must be square matrices of equal size")
    # unknown X flattened row-major: variable (i,l) at index i*m + l; equation
    # (i,j) of G is sum_l X[i][l] G[l][j] - G[i][l] X[l][j] = 0, its integer
    # row built from G's numerators over the generators' common denominator
    lifted = [G._lifted() for G in gens]
    den = lcm(*(d for d, _, _ in lifted))
    cplx = any(im is not None for _, _, im in lifted)
    re, im = [], [] if cplx else None
    for d, g_re, g_im in lifted:
        for out, g in ((re, g_re), (im, g_im or [0] * (m * m))) if cplx else ((re, g_re),):
            g = [x * (den // d) for x in g]
            for i in range(m):
                for j in range(m):
                    row = [0] * (m * m)
                    row[i * m : i * m + m] = g[j::m]
                    row[j::m] = map(sub, row[j::m], g[i * m : i * m + m])
                    out += row
    # each kernel vector, flat and row-major, is the flat form of its m x m matrix
    null = ExactMatrix._from_flat(len(gens) * m * m, m * m, den, re, im).nullspace()
    basis = tuple(ExactMatrix._from_flat(m, m, *vec._lifted()) for vec in null)
    return CommutantBasis(generators=gens, basis=basis, dimension=len(basis))


def g_all_matrix(s, t) -> ExactMatrix:
    """The s/t pattern commuting with all of S_4: s on the diagonal, t off."""
    s, t = _as_scalar(s), _as_scalar(t)
    return ExactMatrix([[s if i == j else t for j in range(4)] for i in range(4)])


def g_alt_matrix(s1, t1, s2, t2) -> ExactMatrix:
    """The Klein four-group commutant pattern with parameters s1, t1, s2, t2."""
    s1, t1, s2, t2 = (_as_scalar(v) for v in (s1, t1, s2, t2))
    return ExactMatrix([
        [s1, t1, s2, t2],
        [t1, s1, t2, s2],
        [s2, t2, s1, t1],
        [t2, s2, t1, s1],
    ])


def family_minpoly_check(kind: str, params) -> FamilyReport:
    """Instantiate one family and verify min_poly matches its factored form.

    Degenerate parameters collapse roots; the collapsed multiset is reported,
    and the check then compares against the distinct-root product.
    """
    vals = tuple(_as_scalar(v) for v in params)
    if kind == "all":
        if len(vals) != 2:
            raise InputError("kind 'all' takes parameters (s, t)")
        s, t = vals
        M = g_all_matrix(s, t)
        roots = (s - t, t * 3 + s)
    elif kind == "alt":
        if len(vals) != 4:
            raise InputError("kind 'alt' takes parameters (s1, t1, s2, t2)")
        s1, t1, s2, t2 = vals
        M = g_alt_matrix(s1, t1, s2, t2)
        roots = (
            t2 - s2 - t1 + s1,
            -t2 + s2 - t1 + s1,
            -t2 - s2 + t1 + s1,
            t2 + s2 + t1 + s1,
        )
    else:
        raise InputError(f"unknown family kind {kind!r}")
    for r in roots:
        if not r.is_real():
            raise InputError("family parameters must be real rationals")
    distinct = tuple(sorted(set(roots), key=lambda v: v.re))
    collapsed = tuple((r, roots.count(r)) for r in distinct if roots.count(r) > 1)
    expected = RationalPolynomial.from_roots([r.re for r in distinct])
    mp = min_poly(M)
    return FamilyReport(kind=kind, params=vals, matrix=M, expected_roots=roots,
                        distinct_roots=distinct, collapsed=collapsed, minpoly=mp,
                        ok=(mp == expected))


def surgery_cut(g: Multivector, u: Multivector) -> Multivector:
    """g - gu - ug for an idempotent u: cuts u's row and column band out of [g]."""
    if u * u != u:
        raise DomainError("u not idempotent")
    return g - g * u - u * g


_REGREP_CYCLES = ("(18)", "(19)", "(89)", "(189)", "(198)")


@functools.lru_cache(maxsize=None)
def _regrep_images() -> tuple[Multivector, ...]:
    return tuple(geom_perm(Permutation.from_cycles(c), 3, rep="standard")
                 for c in _REGREP_CYCLES)


def regrep_element(xs) -> RegRepElement:
    """x0 + x1(18) + x2(19) + x3(89) + x4(189) + x5(198) in G(3,3)."""
    coeffs = tuple(_as_scalar(x) for x in xs)
    if len(coeffs) != 6:
        raise InputError("need exactly six coefficients x0..x5")
    acc = scalar_mv(3, coeffs[0])
    for c, img in zip(coeffs[1:], _regrep_images()):
        acc = acc + img.scale(c)
    return RegRepElement(coefficients=coeffs, element=acc)


@functools.lru_cache(maxsize=None)
def _regrep_basis() -> tuple[ExactMatrix, ExactMatrix]:
    """(P, P^-1) for the fixed change of basis P splitting every regrep matrix.

    Columns 1..6: RREF-canonical eigenvectors for eigenvalue x05 = 21 of the
    matrix specialized at x = (1,..,6).  Columns 7,8: the RREF-canonical basis
    of the column space of (M - 21 I), which is the common invariant plane.
    P is constant, so it is inverted once, here, which also checks that it is
    invertible.
    """
    M = to_matrix(regrep_element([1, 2, 3, 4, 5, 6]).element)
    shifted = M - ExactMatrix.identity(8).scale(21)
    eig = shifted.nullspace()
    if len(eig) != 6:
        raise DomainError(f"specialized eigenspace is {len(eig)}-dimensional, expected 6")
    reduced, _ = shifted.transpose().rref()
    complement = [row for row in reduced.cells if any(x for x in row)]
    if len(complement) != 2:
        raise DomainError(f"invariant plane is {len(complement)}-dimensional, expected 2")
    cols = [[v[(i, 0)] for i in range(8)] for v in eig] + [list(row) for row in complement]
    P = ExactMatrix([[cols[j][i] for j in range(8)] for i in range(8)])
    return P, P.inverse()


def regrep_transform() -> ExactMatrix:
    """The fixed change of basis P splitting every regrep matrix (see _regrep_basis), built once."""
    return _regrep_basis()[0]


def regrep_decompose(X) -> tuple[ExactMatrix, ExactMatrix]:
    """Return (P, D) with D = P^-1 [X] P block-diagonal: six x05 entries
    and one trailing 2x2 block."""
    if not isinstance(X, RegRepElement):
        X = regrep_element(X)
    P, P_inv = _regrep_basis()
    D = P_inv @ to_matrix(X.element) @ P
    return P, D
