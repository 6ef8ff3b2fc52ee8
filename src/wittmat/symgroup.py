"""Symmetric groups acting inside G(n,n): permutation and standard images.

S_m for m = 2^n acts on the spectral basis by permutation matrices.  Every
element here is its exact 2^n x 2^n matrix pulled back once by from_matrix:
the all-ones matrix J gives A, the Casimir is C = A - 1, and the diagonalizer
g_c keeps columns 1..m-1 of I - J/m and the last column of J/m.  Conjugation
by g_c turns the quotient matrices of S_{m+1} (which are the permutation
matrices on S_m) into standard-representation images.  Each matrix is built
as integer numerators over its one denominator, the flat form an ExactMatrix
can hold, so no entry becomes a scalar on the way to from_matrix.  The
paper's doubling recursion for A,

    A_{2^{k+1}} = A_{2^k} (1 + 2^k (a_{k+1} + b_{k+1}) w_1 w_2 .. w_k),

with w_j = a_j b_j - 1/2 and A_1 = 1, is checked against it in the tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import attrgetter

from . import _EXPORTS
from .errors import DomainError, InputError
from .exact import ExactMatrix
from .spectral import from_matrix
from .witt import Multivector, one, scalar_mv

__all__ = _EXPORTS["symgroup"]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A permutation of {1, .., m}, stored as the tuple of images of 1..m.

    Trailing fixed points are trimmed so equal permutations of different
    nominal degrees compare equal.  Multiplication composes right to left:
    (p * q)(x) = p(q(x)).  ``images`` is a read-only property over a
    private slot, as in ``fractions.Fraction``.
    """

    __slots__ = ("_images",)
    images = property(attrgetter("_images"))

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        m = len(images)
        if sorted(images) != list(range(1, m + 1)):
            raise InputError(f"not a permutation of 1..{m}: {images}")
        while m > 0 and images[m - 1] == m:
            m -= 1
        self._images = images[:m]

    def __reduce__(self):
        return Permutation, (self.images,)

    @classmethod
    def identity(cls) -> "Permutation":
        return cls(())

    @classmethod
    def from_cycles(cls, spec) -> "Permutation":
        """Build from cycles: "(1 8)(2 3)", "(189)" (digits as letters), or [(1,8)].

        Cycles that share letters compose as a product, the rightmost acting
        first: from_cycles("(12)(23)") == from_cycles("(12)") * from_cycles("(23)").
        """
        if isinstance(spec, str):
            body = spec.strip()
            if body and "(" not in body:
                body = f"({body})"
            if body and (_CYCLE_RE.sub("", body).strip() != ""):
                raise InputError(f"malformed cycle notation: {spec!r}")
            cycles = []
            for grp in _CYCLE_RE.findall(body):
                grp = grp.strip()
                if not grp:
                    continue
                if re.search(r"[ ,]", grp):
                    letters = [tok for tok in re.split(r"[ ,]+", grp) if tok]
                elif grp.isdigit():
                    letters = list(grp)  # paper style: (189) means 1,8,9
                else:
                    raise InputError(f"malformed cycle: ({grp})")
                try:
                    cycles.append(tuple(int(tok) for tok in letters))
                except ValueError:
                    raise InputError(f"malformed cycle: ({grp})") from None
        else:
            cycles = [tuple(int(x) for x in cyc) for cyc in spec]
        out = cls.identity()
        for cyc in cycles:
            if any(ltr < 1 for ltr in cyc):
                raise InputError("cycle letters must be positive")
            if len(set(cyc)) != len(cyc):
                raise InputError(f"repeated letter in cycle {cyc}")
            images = list(range(1, max(cyc, default=0) + 1))
            for pos, ltr in enumerate(cyc):
                images[ltr - 1] = cyc[(pos + 1) % len(cyc)]
            out = out * cls(images)
        return out

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, letter: int) -> int:
        if letter < 1:
            raise InputError("letters start at 1")
        return self._images[letter - 1] if letter <= len(self._images) else letter

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        m = max(self.degree, other.degree)
        return Permutation(self(other(x)) for x in range(1, m + 1))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return Permutation(images)

    def __pow__(self, k: int) -> "Permutation":
        out = Permutation.identity()
        for _ in range(k % self.order()):  # never negative: p**-1 is p**(order - 1)
            out = out * self
        return out

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen, out = set(), []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_str(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation.from_cycles({self.cycle_str()!r})"


def perm_matrix(p: Permutation, m: int) -> ExactMatrix:
    """The m x m matrix with column j equal to the unit vector at p(j)."""
    if p.degree > m:
        raise DomainError(f"degree overflow: permutation moves letter {p.degree} > {m}")
    re = [0] * (m * m)
    for j in range(m):
        re[(p(j + 1) - 1) * m + j] = 1
    return ExactMatrix._from_flat(m, m, 1, re, None)


def std_rep_matrix(p: Permutation, m: int) -> ExactMatrix:
    """The m x m quotient image of p in S_{m+1}: letter m+1 maps to the all -1 column."""
    if p.degree > m + 1:
        raise DomainError(f"degree overflow: permutation moves letter {p.degree} > {m + 1}")
    re = [0] * (m * m)
    for j in range(m):
        img = p(j + 1)
        if img == m + 1:
            re[j::m] = [-1] * m
        else:
            re[(img - 1) * m + j] = 1
    return ExactMatrix._from_flat(m, m, 1, re, None)


def geom_perm(p: Permutation, n: int, rep: str = "permutation") -> Multivector:
    """The multivector whose spectral matrix is the chosen matrix image of p.

    rep is "permutation" (perm_matrix) or "standard" (std_rep_matrix).
    """
    m = 1 << n
    if rep == "permutation":
        return from_matrix(perm_matrix(p, m), n=n)
    if rep == "standard":
        return from_matrix(std_rep_matrix(p, m), n=n)
    raise InputError(f"unknown representation {rep!r}")


def _size(n: int) -> int:
    if n < 1:
        raise DomainError("rank must be at least 1")
    return 1 << n


def all_ones_mv(n: int) -> Multivector:
    """A, pulled back from the all-ones matrix J.

    The paper's doubling recursion gives the same element; the tests check it.
    """
    m = _size(n)
    return from_matrix(ExactMatrix._from_flat(m, m, 1, [1] * (m * m), None), n=n)


def casimir_mv(n: int) -> Multivector:
    return all_ones_mv(n) - one(n)


def casimir_idempotents(n: int) -> tuple[Multivector, Multivector]:
    """The pair s1 = (A - 2^n)/(-2^n), s2 = A/2^n with s^2 = s and s1 s2 = 0."""
    m = _size(n)
    a_mv = all_ones_mv(n)
    s1 = (a_mv - scalar_mv(n, m)).scale(Fraction(-1, m))
    s2 = a_mv.scale(Fraction(1, m))
    return s1, s2


def _gc_matrix(m: int) -> ExactMatrix:
    """[g_c]: columns 1..m-1 of I - J/m, then the last column of J/m, over the denominator m."""
    re = [1 if c == m - 1 else m * (r == c) - 1 for r in range(m) for c in range(m)]
    return ExactMatrix._from_flat(m, m, m, re, None)


def _gc_inverse_matrix(m: int) -> ExactMatrix:
    """[g_c]^-1, an integer matrix: rows 1..m-1 are e_r - e_m, the last row is all ones."""
    re = [1 if r == m - 1 or r == c else -1 if c == m - 1 else 0 for r in range(m) for c in range(m)]
    return ExactMatrix._from_flat(m, m, 1, re, None)


def surgery_gc(n: int) -> Multivector:
    """g_c = s1 (1 - u^dag) + s2 u^dag, pulled back from its matrix.

    It diagonalizes C to (-1, .., -1, 2^n - 1).
    """
    return from_matrix(_gc_matrix(_size(n)), n=n)


def surgery_gc_inverse(n: int) -> Multivector:
    return from_matrix(_gc_inverse_matrix(_size(n)), n=n)


def standard_irrep(p: Permutation, n: int) -> Multivector:
    """Image of p in the 2^n-dimensional standard representation of S_{2^n + 1}.

    The quotient matrix std_rep_matrix(p, 2^n) conjugated into the g_c basis,
    [g_c]^-1 Q(p) [g_c], pulled back once.  For p fixing the letter 2^n + 1
    this is the g_c conjugate of the permutation image.
    """
    m = 1 << n
    return from_matrix(_gc_inverse_matrix(m) * std_rep_matrix(p, m) * _gc_matrix(m), n=n)
