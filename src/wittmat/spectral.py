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
Multivector products share.  to_matrix reads the element's integer form,
lifted once, on first use, and kept (Multivector._lifted).  That flat form
is also the one an ExactMatrix can hold: to_matrix hands its integers to the
matrix as they are, and from_matrix reads them back, so a round trip, or a
product or inverse (mv_inverse) of spectral matrices read back, builds no
matrix entry as a scalar.
A matrix that holds its cells is lifted once, on first use, and kept
(ExactMatrix._lifted); both lifts go through exact._lift.  A monomial
(A, B) and a cell (r, c) are both one 2n-bit index, A * 2^n + B or
r * 2^n + c, and a Multivector keys its terms by that index.  Apart from
those lifts, which their elements and matrices own, the only state kept is
witt._rank(n), one table of maps from that index, each entry one signed
subset walk filled on first use over one pool of ints: the signed targets
of each direction (cells, units; spectral_unit reads units), the reversed
words and the kernel's b.a expansions, plus the flat indices a read-back
scans for nonzeros, a list of the pool's ints up to rank 6, a range above;
and witt._gather(n), the orders and signs of the passes.  Both are kept for
ranks up to 6 and, above that, for the most recent rank only.
"""

from __future__ import annotations

from itertools import chain

from . import _EXPORTS
from .errors import DimensionMismatch, DomainError, InputError
from .exact import ExactMatrix, GaussianRational
from .witt import Multivector, _collect, _from_cells, _rank, _to_cells

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
    plus, minus = _rank(n).units[row << n | col]
    terms = dict.fromkeys(plus, GaussianRational.ONE) | dict.fromkeys(minus, -GaussianRational.ONE)
    return Multivector._make(n, terms, False)


def spectral_table(n: int) -> list[list[Multivector]]:
    size = _size(n)
    return [[spectral_unit(n, r, c) for c in range(size)] for r in range(size)]


def to_matrix(g: Multivector) -> ExactMatrix:
    size = 1 << g.n
    den, *lifted = g._lifted()
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
    n, full = g.n, (1 << g.n) - 1
    total = GaussianRational.ZERO
    for k, coeff in g._terms.items():
        if k >> n == k & full:
            total = total + coeff * (1 << (n - (k & full).bit_count()))
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
    n, n1 = g.n, g.n - 1
    # index-1 letters of a term -> the blocks it feeds; a term free of index 1
    # is u1 w + u1^dag w, so it feeds both h1 and h4
    blocks = {(1, 1): (0,), (1, 0): (1,), (0, 1): (2,), (0, 0): (0, 3)}
    parts = ([], [], [], [])
    for k, c in g._terms.items():
        a_mask, b_mask = divmod(k, 1 << n)
        w = a_mask >> 1 << n1 | b_mask >> 1
        letters = (a_mask & 1, b_mask & 1)
        if letters[0] != letters[1] and w.bit_count() & 1:
            c = -c
        for j in blocks[letters]:
            parts[j].append((w, c))
    return tuple(Multivector._make(n1, _collect(p), g.complexified) for p in parts)


def block_assemble(h1: Multivector, h2: Multivector, h3: Multivector, h4: Multivector) -> Multivector:
    ranks = {h.n for h in (h1, h2, h3, h4)}
    if len(ranks) != 1:
        raise DimensionMismatch("blocks must share a rank")
    n = ranks.pop() + 1

    def lift(w, a_bit, b_bit, c):
        a_mask, b_mask = divmod(w, 1 << n - 1)
        return (a_mask << 1 | a_bit) << n | b_mask << 1 | b_bit, c

    terms = _collect(chain(
        (lift(w, 1, 1, c) for w, c in h1._terms.items()),  # u1 h1
        (lift(w, 1, 0, -c if w.bit_count() & 1 else c) for w, c in h2._terms.items()),  # a1 h2^-
        (lift(w, 0, 1, -c if w.bit_count() & 1 else c) for w, c in h3._terms.items()),  # b1 h3^-
        (lift(w, 0, 0, c) for w, c in h4._terms.items()),  # u1^dag h4 = (1 - u1) h4
        (lift(w, 1, 1, -c) for w, c in h4._terms.items()),
    ))
    comp = any(h.complexified for h in (h1, h2, h3, h4))
    return Multivector._make(n, terms, comp)


def det2(g: Multivector) -> GaussianRational:
    """Determinant of a rank-1 element: the scalar g g*, equal to g11 g22 - g12 g21."""
    if g.n != 1:
        raise DimensionMismatch("det2 is defined at rank 1")
    p = g * g.clifford_conj()
    if not p.is_scalar():
        raise DomainError("g g* must reduce to a scalar at rank 1")
    return p.scalar_part()
