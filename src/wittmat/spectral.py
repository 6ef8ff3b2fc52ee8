"""The matrix isomorphism between rank-n Witt algebras and 2^n x 2^n matrices.

Spectral units E_{rc} := (prod ascending i in row: b_i) u_{1..n}
(prod descending j in col: a_j) multiply like matrix units,
E_{rc} E_{r'c'} = delta_{c r'} E_{r c'}; bit i of a row or column index
selects index i+1.

Per index the 2x2 picture is ab = E_00, a = E_01, b = E_10, 1 - ab = E_11,
so both directions are Kronecker products of per-index entries times the
parity sign of witt.py (sp(m) has bit j set when m has an odd number of bits
above j):

    monomial (A, B)  one entry for each F within the indices outside A | B,
                     at row (B & ~A) | F and column c = (A & ~B) | F, with
                     sign (-1)^popcount(c & sp(A ^ B));
    unit E_{rc}      the monomial (full & ~r, full & ~c) times (1 - ab) at
                     each index set in both r and c, with sign (-1)^(k(k-1)/2) for
                     k = popcount(c), times (-1)^popcount(c & sp(r)).

to_matrix writes each monomial's entries; from_matrix sums the units of the
nonzero entries, or, past three quarters of the entries nonzero, reads every
entry back through the 2x2 picture in n passes, one per index.  Both run on
integer numerators over one common denominator
(on (re, im) lists only when some entry has an imaginary part), through
witt._to_cells and witt._from_cells, the flat integer core that dense
Multivector products share.  That flat form is also the one an ExactMatrix
can hold: to_matrix hands its integers to the matrix as they are, and
from_matrix reads them back, so a round trip, or a product of spectral
matrices read back, builds no matrix entry as a scalar.  Only a matrix that
holds its cells is lifted, once, with exact._lift.  A monomial (A, B) and a
cell (r, c) are both one 2n-bit index, A * 2^n + B or r * 2^n + c.  The only
state kept is witt._tables(n), witt._gather(n) and witt._keys(n): the signed
targets of each direction, the orders and signs of the passes and the
monomial keys read back, each filled on first use.
"""

from __future__ import annotations

from itertools import chain

from . import _EXPORTS
from .errors import DimensionMismatch, DomainError, InputError
from .exact import ExactMatrix, GaussianRational
from .witt import Multivector, WittMonomial, _collect, _from_cells, _lifted_terms, _monomials, _to_cells, _unit_spot

__all__ = _EXPORTS["spectral"]


def _size(n: int) -> int:
    """2^n, the matrix size at rank n."""
    if n < 0:
        raise InputError("rank must be nonnegative")
    return 1 << n


def spectral_unit(n: int, row: int, col: int) -> Multivector:
    size = _size(n)
    if not (0 <= row < size and 0 <= col < size):
        raise InputError(f"row/col out of range for rank {n}")
    plus, minus = _unit_spot(n, range(1 << 2 * n), row << n | col)
    coeffs = [GaussianRational.ONE] * len(plus) + [-GaussianRational.ONE] * len(minus)
    return Multivector._make(n, _monomials(n, plus + minus, coeffs), False)


def spectral_table(n: int) -> list[list[Multivector]]:
    size = _size(n)
    return [[spectral_unit(n, r, c) for c in range(size)] for r in range(size)]


def to_matrix(g: Multivector) -> ExactMatrix:
    size = 1 << g.n
    cplx = g._has_imag()
    den, *lifted = _lifted_terms(g, cplx)
    return ExactMatrix._from_flat(size, size, den, *_to_cells(g.n, *lifted))


def from_matrix(M: ExactMatrix, n: int | None = None, complexified: bool | None = None) -> Multivector:
    if M.rows != M.cols:
        raise DimensionMismatch("matrix must be square")
    if n is None:
        n = M.rows.bit_length() - 1
    if M.rows != _size(n):
        raise DimensionMismatch(f"matrix size {M.rows} is not 2^{n}")
    den, re, im = M._lifted()
    if complexified is None:
        complexified = im is not None
    elif im is not None and not complexified:
        raise InputError("imaginary coefficient in a non-complexified element")
    return _from_cells(n, re, im, den, bool(complexified))


def mv_trace(g: Multivector) -> GaussianRational:
    """Trace of to_matrix(g), i.e. 2^n times the complex scalar part.

    The scalar part here is the grade-0 projection: a canonical monomial with
    a-set equal to b-set S is the idempotent product u_S with scalar part
    2^-|S|, and every other monomial projects to 0.
    """
    total = GaussianRational.ZERO
    for mono, coeff in g.terms():
        if mono.a_mask == mono.b_mask:
            total = total + coeff * (1 << (g.n - mono.a_mask.bit_count()))
    return total


def mv_inverse(g: Multivector) -> Multivector:
    """Multiplicative inverse computed through the matrix representation."""
    return from_matrix(to_matrix(g).inverse(), g.n, complexified=g.complexified)


def block_split(g: Multivector):
    """Split g into (h1, h2, h3, h4) with g = u1 h1 + a1 h2^- + b1 h3^- + u1^dag h4.

    The h_i live at rank n-1 with indices 2..n re-labeled to 1..n-1; the minus
    is the grade involution coming from pulling a_1/b_1 through the rest of
    each word.
    """
    if g.n == 0:
        raise DomainError("rank must be at least 1 to take blocks")
    n1 = g.n - 1
    # index-1 letters of a term -> the blocks it feeds; a term free of index 1
    # is u1 w + u1^dag w, so it feeds both h1 and h4
    blocks = {(1, 1): (0,), (1, 0): (1,), (0, 1): (2,), (0, 0): (0, 3)}
    parts = ([], [], [], [])
    for m, c in g.terms():
        w = WittMonomial(n1, m.a_mask >> 1, m.b_mask >> 1)
        letters = (m.a_mask & 1, m.b_mask & 1)
        if letters[0] != letters[1] and w.degree % 2:
            c = -c
        for k in blocks[letters]:
            parts[k].append((w, c))
    return tuple(Multivector(n1, _collect(p), complexified=g.complexified) for p in parts)


def block_assemble(h1: Multivector, h2: Multivector, h3: Multivector, h4: Multivector) -> Multivector:
    ranks = {h.n for h in (h1, h2, h3, h4)}
    if len(ranks) != 1:
        raise DimensionMismatch("blocks must share a rank")
    n = ranks.pop() + 1

    def lift(w, a_bit, b_bit, c):
        return WittMonomial(n, w.a_mask << 1 | a_bit, w.b_mask << 1 | b_bit), c

    terms = _collect(chain(
        (lift(w, 1, 1, c) for w, c in h1.terms()),  # u1 h1
        (lift(w, 1, 0, -c if w.degree % 2 else c) for w, c in h2.terms()),  # a1 h2^-
        (lift(w, 0, 1, -c if w.degree % 2 else c) for w, c in h3.terms()),  # b1 h3^-
        (lift(w, 0, 0, c) for w, c in h4.terms()),  # u1^dag h4 = (1 - u1) h4
        (lift(w, 1, 1, -c) for w, c in h4.terms()),
    ))
    comp = any(h.complexified for h in (h1, h2, h3, h4))
    return Multivector(n, terms, complexified=comp)


def det2(g: Multivector) -> GaussianRational:
    """Determinant of a rank-1 element: the scalar g g*, equal to g11 g22 - g12 g21."""
    if g.n != 1:
        raise DimensionMismatch("det2 is defined at rank 1")
    p = g * g.clifford_conj()
    if not p.is_scalar():
        raise DomainError("g g* must reduce to a scalar at rank 1")
    return p.scalar_part()
