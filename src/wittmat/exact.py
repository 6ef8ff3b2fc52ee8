"""Exact scalar, matrix, and polynomial arithmetic over the Gaussian rationals.

Everything here is dense, deterministic, and float-free: scalars are pairs of
``fractions.Fraction``, matrices are tuples of tuples of scalars, and the only
polynomial factorisation offered is rational-root splitting: candidate roots
are Hensel-lifted roots mod a small prime, and each is tested and divided out
in one Horner pass.

Elimination and matrix products run fraction-free on integer numerators. Each
row (and, for the right factor of a product, each column) is lifted to one
common denominator.  Every integer matrix product goes through one helper,
``_flat_product`` (below).  ``rref`` is fraction-free Gauss-Jordan (E. H.
Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968), whose every division is exact.
``inverse`` runs the same steps on [A | I] but stores only its n live
columns: a pivot's column of A is known once it is eliminated, and its slot
takes over the column of I that the pivot row starts to fill.  ``min_poly``
keeps one running fraction-free echelon form of the integer powers B^k of
B = d*A, and stops at the first power that reduces to zero.  A matrix with
no imaginary part runs on plain ints, any other on (re, im) pairs in Z[i].
Scalars are built again only for the result, all of it in one batch by
``_scalars``, each part the reduced Fraction the plain computation gives.

An ExactMatrix holds its entries in one of two forms.  Matrices built from
scalars hold their cells.  Producers that already hold integers, the
spectral matrices of spectral.to_matrix, the symgroup matrices and the
product of two such matrices, hand over the flat form instead: every entry,
row-major, as integer numerators over one denominator (den, re, im), im None
exactly when no entry has an imaginary part.  The cells of a flat matrix are
built on their first read and then kept.  ``from_matrix``, ``min_poly``,
elimination and ``*`` read the integers of the flat form directly, so a
matrix that only passes between them never builds a scalar.  Elimination and
``min_poly`` first divide each row (or the whole matrix) down to its least
common denominator, so they see the integers a lift of the cells would give.
``_flat_product`` multiplies two flat integer matrices.  Dense Multivector
products use it too, and the product of two flat matrices is kept over its
least common denominator, so chains of products stay narrow.  It
multiplies whole rows by Kronecker substitution (Kronecker 1882; D.
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symb. Comput. 44, 2009): each row of the right factor is
packed into one integer with a slot per entry, wide enough that no slot
carries into the next, so a row of the product is one sum of products of
integers, done by CPython's bignum loop, and its slots are read back
in one struct call.  Complex rows hold their real slots low and
their imaginary slots high, so a row costs two such sums instead of four
dot products per entry.  Entries that would need wide slots are first
divided by the gcd of their row (left factor) or column (right factor),
which takes out most of a tall matrix's common denominator.  ``*`` on cells
packs each row of its left factor over its own denominator d_i and each
column of its right one over its own e_j, and builds entry (i, j) over
d_i*e_j.  ``min_poly`` computes B^(k+1) as B * B^k, so that the packed rows
are the wide powers and B's narrow entries multiply them.  Two flat
matrices are compared by cross-multiplying their numerators, without
building cells.

The Bareiss steps are lazy, so sparse matrices skip most of them.  A step
with pivot p after pivot q only scales a row whose entry in the pivot column
is zero, to p*row / q.  So each row keeps ``div``, the pivot it was last
brought up to date with, and stands for the eager row row*q/div, q being the
latest pivot.  A row with a zero entry is left alone.  A row with entry f is
set to (p*row - f*pivot_row) / div, which is the eager row after the step, and
its ``div`` becomes p.  A row about to pivot is first caught up once, to
q*row / div.  Every row stored is an eager Bareiss row, whose entries are
integer minors, so every division stays exact.  At the end each row is divided
by its own ``div``.  A permutation matrix takes no step at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from itertools import compress, repeat
from operator import attrgetter, eq, floordiv, mul, neg, or_
from struct import pack, unpack
from typing import Iterable, Sequence

from . import _EXPORTS
from .errors import DimensionMismatch, DomainError, InputError

__all__ = _EXPORTS["exact"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise DomainError("GaussianRational(z, im) takes no im when z is a GaussianRational")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- field operations -------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise DomainError("division by zero")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates, hashing ----------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- text form ---------------------------------------------------------
    # Canonical literals: "p/q" for rationals, "p/q+r/si" for complex values,
    # with zero parts omitted and "0" for zero.

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self})"

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        s = text.strip().replace(" ", "")
        if not s:
            raise InputError("empty scalar literal")
        if not s.endswith("i"):
            return cls(_as_fraction(s))
        body = s[:-1]
        # split off a real part if one precedes the imaginary term; a sign after e/E is an exponent's
        cut = -1
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/eE":
                cut = pos
                break
        if cut == -1:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:cut], body[cut:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _as_fraction(im_part)
        return cls(_as_fraction(re_part), im)


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


def _as_scalar(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return GaussianRational.parse(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")


# -- integer lifting ------------------------------------------------------------
# A vector of GaussianRationals is carried as integer numerators over one
# common denominator: parallel lists of real and imaginary numerators, the
# imaginary list None on the real path (no entry has an imaginary part).
# ExactMatrix products and elimination lift rows and columns, or take them
# from a matrix's flat form; Multivector products (witt._product_sum) and the
# matrix bridge (witt._to_cells and witt._from_cells) lift coefficient lists.
# Every result goes back to scalars through _scalars, one call per result:
# Fraction.__new__ is Python code, about half of a scalar's cost when each is
# built alone, so _scalars fills Fraction's slots (_numerator, _denominator)
# directly, with the same reduced values.  _lift and _any_imag map
# attrgetters of those slots over the scalars, so no Python code runs per
# scalar: Fraction's numerator, denominator and __bool__ are Python code, and
# a slot's own __get__, called per scalar, costs about as much again.

_FRACTION_ZERO = Fraction(0)
_new = object.__new__
_set_num, _set_den = Fraction._numerator.__set__, Fraction._denominator.__set__
_set_re, _set_im = GaussianRational.re.__set__, GaussianRational.im.__set__
_re_num, _re_den, _im_num, _im_den = map(
    attrgetter, ("re._numerator", "re._denominator", "im._numerator", "im._denominator"))


def _any_imag(scalars) -> bool:
    """Whether some GaussianRational of scalars has a nonzero imaginary part."""
    return any(map(_im_num, scalars))


def _lift(entries, cplx: bool):
    """(den, re, im) with den * entries[k] == re[k] + im[k]*i and den the least common denominator.

    entries is read once per part, so it must be a collection, not an iterator.
    """
    re_dens = list(map(_re_den, entries))
    if not cplx:
        den = lcm(*re_dens)
        return den, list(map(mul, map(_re_num, entries), map(floordiv, repeat(den), re_dens))), None
    im_dens = list(map(_im_den, entries))
    den = lcm(*re_dens, *im_dens)
    return (
        den,
        list(map(mul, map(_re_num, entries), map(floordiv, repeat(den), re_dens))),
        list(map(mul, map(_im_num, entries), map(floordiv, repeat(den), im_dens))),
    )


def _reduced(den: int, re, im):
    """(den, re, im) over the least common denominator: den and every numerator divided by their gcd."""
    g = gcd(den, *re, *(im or ()))
    if g == 1:
        return den, re, im
    return den // g, list(map(floordiv, re, repeat(g))), None if im is None else list(map(floordiv, im, repeat(g)))


def _scalars(re, im, dens) -> list[GaussianRational]:
    """The GaussianRationals (re[k] + im[k]*i) / dens[k], each part exactly the reduced Fraction(x, dens[k]).

    dens is one positive int for every entry or a list of positive ints, one
    per entry; im is None on the real path.  A zero entry is the shared
    GaussianRational.ZERO.  The others are built in whole batches, every step
    a C-level map over the list, so no Python frame runs per entry: the gcds,
    two floor divisions, object.__new__ and the slot stores of Fraction and
    GaussianRational.  The stores return None, so any() runs each map through.
    """
    live = re if im is None else list(map(or_, re, im))  # nonzero exactly at the entries built
    dens = repeat(dens) if isinstance(dens, int) else list(compress(dens, live))
    zs = list(map(_new, repeat(GaussianRational, len(re) - live.count(0))))
    for store, nums in (_set_re, re), (_set_im, im):
        fs = repeat(_FRACTION_ZERO)
        if nums is not None:
            nums = list(compress(nums, live))
            g = list(map(gcd, nums, dens))
            fs = list(map(_new, repeat(Fraction, len(g))))
            any(map(_set_num, fs, map(floordiv, nums, g)))
            any(map(_set_den, fs, map(floordiv, dens, g)))
        any(map(store, zs, fs))
    if len(zs) == len(re):
        return zs
    out = [GaussianRational.ZERO] * len(re)
    any(map(out.__setitem__, compress(range(len(re)), live), zs))
    return out


def _unlift(re, im, den: int) -> list[GaussianRational]:
    """The cells of a flat matrix, row-major: the one call that builds them."""
    return _scalars(re, im, den)


def _grid(flat: list, w: int) -> tuple:
    """flat, row-major, as a tuple of row tuples of w entries."""
    return tuple(tuple(flat[r : r + w]) for r in range(0, len(flat), w))


def _over_pivots(m, div) -> list[GaussianRational]:
    """Every lifted row of m over its pivot in div, row-major, built by one _scalars call."""
    rows, dens = zip(*map(_over_pivot, m, div))
    im = None if rows[0][1] is None else [x for _, xs in rows for x in xs]
    return _scalars([x for xs, _ in rows for x in xs], im, [d for d, (xs, _) in zip(dens, rows) for _ in xs])


def _entry(row, c: int) -> tuple[int, int]:
    re, im = row
    return re[c], (0 if im is None else im[c])


def _put(row, c: int, z) -> None:
    re, im = row
    re[c] = z[0]
    if im is not None:
        im[c] = z[1]


def _over_pivot(row, pivot):
    """(row, den): the lifted row over the (re, im) pivot, with den a positive int."""
    d, di = pivot
    if not di:
        if d < 0:  # a Bareiss pivot may be negative
            row, d = [None if xs is None else list(map(neg, xs)) for xs in row], -d
        return row, d
    # x / d = x * conj(d) / |d|^2
    return ([a * d + b * di for a, b in zip(*row)], [b * d - a * di for a, b in zip(*row)]), d * d + di * di


# struct's little-endian signed integer codes by size in bytes: _packed_product
# packs and reads slots of these sizes in one struct call.
_SLOT_TYPES = {2: "h", 4: "i", 8: "q"}
# Past this slot width _flat_product first divides out the contents (row and
# column gcds) of its operands; on narrower entries the gcds cost more than
# they save (measured in CHANGES.md).
_CONTENT_BITS = 512


def _bits(*lists) -> int:
    """The largest bit length of an integer in the lists, 0 for none; a None list is skipped."""
    return max(max(map(int.bit_length, xs), default=0) for xs in lists if xs is not None)


def _flat_product(left, right, inner: int, width: int):
    """The product of flat row-major integer matrices, left with inner columns and right with width columns.

    The one integer matrix product, for ``*``, min_poly and the bridge.  Each
    side, and the product, is (re, im): both real, im None, or both complex;
    a real side of a complex product takes zero imaginary numerators.  The
    product runs packed, by _packed_product.  When its slots would need more
    than _CONTENT_BITS, left and right are first divided by their contents,
    the gcd of each row of left and of each column of right, and entry (i, j)
    of the product of those primitive parts is multiplied back by the
    contents of row i and column j.  Lifted rows of a sparse matrix share
    most of their common denominator, so this narrows them a lot: the 364-bit
    entries of a tall rank-5 spectral matrix become at most 136 bits wide.
    """
    (lre, lim), (rre, rim) = left, right
    need = _bits(lre, lim) + _bits(rre, rim) + inner.bit_length() + 2
    if need <= _CONTENT_BITS:
        return _packed_product(lre, lim, rre, rim, inner, width, need)
    lg = [gcd(*lre[r : r + inner], *(lim or ())[r : r + inner]) or 1 for r in range(0, len(lre), inner)]
    rg = [gcd(*rre[c::width], *(rim or ())[c::width]) or 1 for c in range(width)]
    lf, rf = [g for g in lg for _ in range(inner)], rg * inner
    lre, lim, rre, rim = [
        None if xs is None else list(map(floordiv, xs, f)) for xs, f in ((lre, lf), (lim, lf), (rre, rf), (rim, rf))
    ]
    need = _bits(lre, lim) + _bits(rre, rim) + inner.bit_length() + 2
    re, im = _packed_product(lre, lim, rre, rim, inner, width, need)
    out = list(map(mul, [g for g in lg for _ in range(width)], rg * len(lg)))
    return list(map(mul, re, out)), None if im is None else list(map(mul, im, out))


def _packed_rows(ints, s: int, row_bytes: int, high: int) -> list:
    """Each run of row_bytes // s integers packed into one, sum x_j * 2^(8*s*j).

    Each x is written as an s-byte two's complement slot; a negative x then
    reads 2^(8*s) too high, which shows as its slot's top bit (in high) and
    is taken off one slot up.
    """
    t = _SLOT_TYPES.get(s)
    buf = pack(f"<{len(ints)}{t}", *ints) if t else b"".join([x.to_bytes(s, "little", signed=True) for x in ints])
    rows = [int.from_bytes(buf[k : k + row_bytes], "little") for k in range(0, len(buf), row_bytes)]
    return [x - ((x & high) << 1) for x in rows]


def _slots(buf: bytes, s: int) -> list:
    """The s-byte two's complement slots of buf, little-endian, as ints."""
    t = _SLOT_TYPES.get(s)
    if t:
        return list(unpack(f"<{len(buf) // s}{t}", buf))
    return [int.from_bytes(buf[k : k + s], "little", signed=True) for k in range(0, len(buf), s)]


def _packed_product(lre, lim, rre, rim, inner: int, width: int, need: int):
    """_flat_product's product of (lre, lim) by (rre, rim), whole rows at a time, with slots of need bits or more.

    Kronecker substitution: row k of right is packed into the integer
    P_k = sum_j right[k][j] * 2^(w*j), so that row i of the product is the
    one integer sum_k left[i][k] * P_k, whose w-bit slots are its entries.
    need is bits(max|left|) + bits(max|right|) + bit_length(inner) + 2, and
    w is need rounded up to 16, 32, 64 or a whole byte, so every entry, real
    or imaginary, lies within +-2^(w-1): with 2^(w-1) added to each slot no
    slot carries into the next, and flipping each slot's top bit leaves the
    entries as two's complement slots.  Both sides are real or both complex;
    a complex row holds its real slots low and its imaginary slots
    W = width*w bits higher: with P_k = R_k + (I_k << W) and
    Q_k = (R_k << W) - I_k, it is sum Re(left)*P + sum Im(left)*Q.
    """
    s = 2 if need <= 16 else 4 if need <= 32 else 8 if need <= 64 else (need + 7) // 8
    row_bytes = s * width
    w, W = 8 * s, 8 * row_bytes
    high = (((1 << W) - 1) // ((1 << w) - 1)) << (w - 1)  # the top bit of each slot of a row
    P = _packed_rows(rre, s, row_bytes, high)
    starts = range(0, len(lre), inner)
    if rim is None:
        sums = [sum(map(mul, lre[r : r + inner], P)) for r in starts]
        rows = [((x + high) ^ high).to_bytes(row_bytes, "little") for x in sums]
        return _slots(b"".join(rows), s), None
    I = _packed_rows(rim, s, row_bytes, high)
    P, Q = [p + (q << W) for p, q in zip(P, I)], [(p << W) - q for p, q in zip(P, I)]
    sums = [sum(map(mul, lre[r : r + inner], P)) + sum(map(mul, lim[r : r + inner], Q)) for r in starts]
    bias = high | high << W
    rows = [((x + bias) ^ bias).to_bytes(2 * row_bytes, "little") for x in sums]
    return _slots(b"".join([x[:row_bytes] for x in rows]), s), _slots(b"".join([x[row_bytes:] for x in rows]), s)


def _bareiss_step(p, f, q, x, y):
    """The row (p*x - f*y) / q, for (re, im) scalars p, f, q and lifted rows x, y.

    Bareiss's theorem makes every division exact.  Over Z[i] the remainder
    comes for free, so it is checked there: the row is (u*x - v*y) / |q|^2
    with u = p*conj(q) and v = f*conj(q), taken once per call.
    """
    (xr, xi), (yr, yi) = x, y
    (pr, pi), (fr, fi), (qr, qi) = p, f, q
    if xi is None:
        return [(pr * a - fr * b) // qr for a, b in zip(xr, yr)], None
    norm = qr * qr + qi * qi
    ur, ui = pr * qr + pi * qi, pi * qr - pr * qi
    vr, vi = fr * qr + fi * qi, fi * qr - fr * qi
    outr, outi = [], []
    for a, b, c, d in zip(xr, xi, yr, yi):
        sr, rr = divmod(ur * a - ui * b - vr * c + vi * d, norm)
        si, ri = divmod(ur * b + ui * a - vr * d - vi * c, norm)
        if rr or ri:
            raise DomainError("inexact division in Z[i]: fraction-free elimination invariant broken")
        outr.append(sr)
        outi.append(si)
    return outr, outi


_EMPTY_MATRIX = "matrix needs at least one row and column"


class ExactMatrix:
    """Dense matrix of GaussianRational entries.

    ``rref`` and ``*`` work fraction-free on integer numerators, each row over
    one common denominator (Bareiss 1968), and ``*`` packs them through
    _flat_product; see the module docstring.  A matrix holds its cells, or
    the flat integer form (den, re, im) of all its entries, row-major; then
    ``cells`` is built on its first read and kept.
    """

    __slots__ = ("rows", "cols", "_cells", "_flat")

    def __init__(self, rows_of_entries: Iterable[Sequence]):
        cells = tuple(tuple(_as_scalar(x) for x in row) for row in rows_of_entries)
        if not cells or not cells[0]:
            raise InputError(_EMPTY_MATRIX)
        width = len(cells[0])
        if any(len(r) != width for r in cells):
            raise InputError("ragged matrix rows")
        object.__setattr__(self, "rows", len(cells))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_flat", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return ExactMatrix, (self.cells,)

    @property
    def cells(self) -> tuple:
        """The entries as a tuple of row tuples of GaussianRationals."""
        cells = self._cells
        if cells is None:
            den, re, im = self._flat
            cells = _grid(_unlift(re, im, den), self.cols)
            object.__setattr__(self, "_cells", cells)
        return cells

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, cells: tuple) -> "ExactMatrix":
        """The matrix over cells, a non-empty tuple of equal-length tuples of GaussianRationals, taken as is."""
        M = object.__new__(cls)
        object.__setattr__(M, "rows", len(cells))
        object.__setattr__(M, "cols", len(cells[0]))
        object.__setattr__(M, "_cells", cells)
        object.__setattr__(M, "_flat", None)
        return M

    @classmethod
    def _from_flat(cls, rows: int, cols: int, den: int, re: list, im) -> "ExactMatrix":
        """The rows x cols matrix with entry (r, c) equal to (re[k] + im[k]*i) / den, k = r * cols + c.

        im is None on the real path, and an all-zero im is dropped to None.
        """
        if rows < 1 or cols < 1:
            raise InputError(_EMPTY_MATRIX)
        M = object.__new__(cls)
        object.__setattr__(M, "rows", rows)
        object.__setattr__(M, "cols", cols)
        object.__setattr__(M, "_cells", None)
        object.__setattr__(M, "_flat", (den, re, im if im is not None and any(im) else None))
        return M

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries: Sequence) -> "ExactMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def from_json(cls, data) -> "ExactMatrix":
        """Rows of rational strings; JSON numbers are taken at their exact binary value."""
        if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
            raise InputError("matrix JSON must be a non-empty array of arrays")
        if any(isinstance(x, bool) for row in data for x in row):
            raise InputError("bad matrix entry: a JSON boolean is not a number")
        try:
            rows = [[GaussianRational.parse(x) if isinstance(x, str) else GaussianRational(Fraction(x)) for x in row]
                    for row in data]
        except (ValueError, TypeError, OverflowError) as exc:
            raise InputError(f"bad matrix entry: {exc}") from exc
        return cls(rows)

    def to_json(self):
        return [[str(x) for x in row] for row in self.cells]

    # -- element access ----------------------------------------------------

    def __getitem__(self, rc) -> GaussianRational:
        r, c = rc
        return self.cells[r][c]

    def row(self, i: int):
        return self.cells[i]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- ring operations ----------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape ({self.rows},{self.cols}) vs ({other.rows},{other.cols})"
            )

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return ExactMatrix(
            [
                [self.cells[i][j] + other.cells[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return ExactMatrix(
            [
                [self.cells[i][j] - other.cells[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = _as_scalar(c)
        return ExactMatrix([[c * x for x in row] for row in self.cells])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply ({self.rows},{self.cols}) by ({other.rows},{other.cols})"
                )
            cplx = self._has_imag() or other._has_imag()
            if self._flat is not None and other._flat is not None:
                (d, lre, lim), (e, rre, rim) = self._flat, other._flat
                if cplx:  # a real side takes zero imaginary numerators
                    lim, rim = lim or [0] * len(lre), rim or [0] * len(rre)
                re, im = _flat_product((lre, lim), (rre, rim), self.cols, other.cols)
                return ExactMatrix._from_flat(self.rows, other.cols, *_reduced(d * e, re, im))
            # rows of self over d_i and columns of other over e_j, the columns
            # laid out row-major: C_ij = (row_i . col_j) / (d_i e_j)
            rows, cols = self._lines(cplx), other._lines(cplx, columns=True)
            left = ([x for _, re, _ in rows for x in re], [x for _, _, im in rows for x in im] if cplx else None)
            right = (
                [x for xs in zip(*[re for _, re, _ in cols]) for x in xs],
                [x for xs in zip(*[im for _, _, im in cols]) for x in xs] if cplx else None,
            )
            re, im = _flat_product(left, right, self.cols, other.cols)
            dens = [d * e for d, _, _ in rows for e, _, _ in cols]
            return ExactMatrix._wrap(_grid(_scalars(re, im, dens), other.cols))
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    __matmul__ = __mul__

    def _has_imag(self) -> bool:
        if self._flat is not None:
            return self._flat[2] is not None
        return any(map(_any_imag, self.cells))

    def _lifted(self):
        """(den, re, im): every entry, row-major, over one denominator, im None when no entry has an imaginary part.

        A flat matrix returns its own lists, which callers only read, and its
        denominator, which need not be the least: a spectral matrix's is that
        of its element's coefficients, whose sums may cancel.
        """
        if self._flat is not None:
            return self._flat
        return _lift([x for row in self.cells for x in row], self._has_imag())

    def _lines(self, cplx: bool, columns: bool = False) -> list:
        """(den, re, im) for each row, or each column, of self, over its least common denominator.

        im is a list exactly when cplx.  A line of a flat matrix is reduced
        from the matrix's denominator, a line of cells is lifted.  Each call
        returns fresh lists.
        """
        if self._flat is None:
            return [_lift(line, cplx) for line in (zip(*self.cells) if columns else self.cells)]
        den, re, im = self._flat
        if cplx and im is None:
            im = [0] * len(re)
        w = self.cols
        if columns:
            lines = [slice(c, None, w) for c in range(w)]
        else:
            lines = [slice(r, r + w) for r in range(0, len(re), w)]
        return [_reduced(den, re[s], None if im is None else im[s]) for s in lines]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.cells)))

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.cells[i][i] for i in range(self.rows)), GaussianRational.ZERO)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self._flat is None or other._flat is None:
            return self.cells == other.cells
        # two flat forms: x1 / d1 == x2 / d2 exactly when x1 * d2 == x2 * d1
        (d1, re1, im1), (d2, re2, im2) = self._flat, other._flat
        return (
            (self.rows, self.cols, im1 is None) == (other.rows, other.cols, im2 is None)
            and all(map(eq, map(mul, re1, repeat(d2)), map(mul, re2, repeat(d1))))
            and (im1 is None or all(map(eq, map(mul, im1, repeat(d2)), map(mul, im2, repeat(d1)))))
        )

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def pretty(self) -> str:
        text = [[str(x) for x in row] for row in self.cells]
        widths = [max(len(text[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = [
            "[ " + "  ".join(t.rjust(w) for t, w in zip(row, widths)) + " ]"
            for row in text
        ]
        return "\n".join(lines)

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form with leftmost-pivot selection.

        Returns the reduced matrix and the pivot column indices.  Runs
        fraction-free Gauss-Jordan (Bareiss 1968) on each row's integer
        numerators: with pivot p in row r and previous pivot q, every other
        row becomes (p*row - row[c]*row_r) / q, an exact division.  The steps
        are lazy (see the module docstring): a row with a zero in column c is
        left alone and stands for itself times p over its ``div``, and a row
        is caught up to q before it pivots.  Rows only ever change by nonzero
        factors, so the pivots are those of plain Gauss-Jordan.  The RREF is
        each integer row over its own ``div``.
        """
        m = [(re, im) for _, re, im in self._lines(self._has_imag())]
        div = [(1, 0)] * self.rows  # the pivot each row was last brought up to date with
        pivots = []
        prev = (1, 0)
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            # first row at or below r with a nonzero entry in column c
            pr = next((i for i in range(r, self.rows) if _entry(m[i], c) != (0, 0)), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            div[r], div[pr] = div[pr], div[r]
            if div[r] != prev:
                m[r] = _bareiss_step(prev, (0, 0), div[r], m[r], m[r])
            p = _entry(m[r], c)
            for i in range(self.rows):
                if i != r:
                    f = _entry(m[i], c)
                    if f != (0, 0):
                        m[i] = _bareiss_step(p, f, div[i], m[i], m[r])
                        div[i] = p
            div[r] = prev = p
            pivots.append(c)
            r += 1
        return ExactMatrix._wrap(_grid(_over_pivots(m, div), self.cols)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list["ExactMatrix"]:
        """Canonical kernel basis: each free column, in ascending order, set to 1."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [GaussianRational.ZERO] * self.cols
            v[free] = GaussianRational.ONE
            for prow, pcol in enumerate(pivots):
                v[pcol] = -red.cells[prow][free]
            basis.append(ExactMatrix.column(v))
        return basis

    def inverse(self) -> "ExactMatrix":
        """Fraction-free Gauss-Jordan on [A | I] that stores only its n live columns.

        Row i of A is lifted once to (d_i, row_i).  Once column c holds its
        pivot p, the left-block column c is p in the pivot row and 0 elsewhere,
        so its slot takes over the right-block column of the pivot row's
        original index o, which until then is d_o times the previous pivot q
        in that row and 0 elsewhere.  Other rows then take the lazy Bareiss
        step of ``rref``: a row with a zero in column c keeps its zero slot
        and its ``div``.  At the end slot c of row i, over the row's ``div``,
        is inverse[i][o_c].  A missing pivot means a singular matrix.
        """
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        lifted = self._lines(self._has_imag())
        dens = [den for den, _, _ in lifted]
        m = [(re, im) for _, re, im in lifted]
        orig = list(range(n))  # original index of the row at each position
        div = [(1, 0)] * n  # the pivot each row was last brought up to date with
        prev = (1, 0)
        for c in range(n):
            pr = next((i for i in range(c, n) if _entry(m[i], c) != (0, 0)), None)
            if pr is None:
                raise DomainError("matrix is singular")
            m[c], m[pr] = m[pr], m[c]
            orig[c], orig[pr] = orig[pr], orig[c]
            div[c], div[pr] = div[pr], div[c]
            if div[c] != prev:
                m[c] = _bareiss_step(prev, (0, 0), div[c], m[c], m[c])
            p = _entry(m[c], c)
            d = dens[orig[c]]
            _put(m[c], c, (d * prev[0], d * prev[1]))
            for i in range(n):
                if i != c:
                    f = _entry(m[i], c)
                    if f != (0, 0):
                        _put(m[i], c, (0, 0))
                        m[i] = _bareiss_step(p, f, div[i], m[i], m[c])
                        div[i] = p
            div[c] = prev = p
        slot = sorted(range(n), key=orig.__getitem__)  # slot[o]: the slot holding right-block column o
        flat = _over_pivots(m, div)
        return ExactMatrix._wrap(tuple(tuple(map(flat[r : r + n].__getitem__, slot)) for r in range(0, n * n, n)))


class RationalPolynomial:
    """Polynomial with GaussianRational coefficients, stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    def __reduce__(self):
        return RationalPolynomial, (self.coeffs,)

    @classmethod
    def from_roots(cls, roots: Sequence) -> "RationalPolynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-_as_scalar(r), 1])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _as_scalar(other)
            return RationalPolynomial([c * x for x in self.coeffs])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPolynomial([])
        out = [GaussianRational.ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def factor_rational_roots(self):
        """Split off rational roots; returns (roots with multiplicity, remainder).

        Only applies to polynomials with purely rational coefficients;
        whatever does not split stays in the (possibly irreducible) remainder.
        The roots come 0 first, then by |numerator|, denominator, and positive
        before negative; each candidate is tested and divided out in one
        Horner pass.
        """
        if self.is_zero() or any(not c.is_real() for c in self.coeffs):
            return [], self
        roots = []
        coeffs = [c.re for c in self.coeffs]
        for r in sorted(_root_candidates(coeffs), key=lambda r: (r != 0, abs(r.numerator), r.denominator, r < 0)):
            while len(coeffs) > 1:
                quotient, rem = _deflate(coeffs, r)
                if rem:
                    break
                roots.append(r)
                coeffs = quotient
        return roots, RationalPolynomial(coeffs)

    def __str__(self):
        terms = [
            ("1" if k == 0 else "x" if k == 1 else f"x^{k}", c)
            for k, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        return _format_sum(reversed(terms), "")

    def factored_str(self) -> str:
        roots, rest = self.factor_rational_roots()
        if not roots:
            return str(self)
        pieces = []
        for r in sorted(set(roots)):
            mult = roots.count(r)
            if r == 0:
                base = "x"
            elif r > 0:
                base = f"(x - {r})"
            else:
                base = f"(x + {-r})"
            pieces.append(base if mult == 1 else f"{base}^{mult}")
        lead = ""
        if rest.degree == 0 and rest.coeffs[0] != 1:
            lead = f"{rest.coeffs[0]} "
        elif rest.degree > 0:
            pieces.append(f"({rest})")
        return lead + "".join(pieces)

    def __repr__(self):
        return f"RationalPolynomial({self})"


def _format_sum(terms: Iterable, sep: str) -> str:
    """Render (name, coefficient) pairs as a signed sum such as ``2 - 1/2 b1 + (1i) a1``.

    Name "1" prints the coefficient alone, 1 and -1 print the bare name, a complex
    coefficient is parenthesised, and ``sep`` joins coefficient and name; no terms is "0".
    """
    parts = []
    for name, c in terms:
        if name == "1":
            body = str(c)
        elif c == 1:
            body = name
        elif c == -1:
            body = f"-{name}"
        elif c.is_real():
            body = f"{c}{sep}{name}"
        else:
            body = f"({c}){sep}{name}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    return " ".join(parts) or "0"


def _deflate(coeffs: list, r: Fraction):
    """Divide by (x - r) in one Horner pass; returns (quotient, remainder), lowest degree first."""
    acc = 0
    partial = []
    for c in reversed(coeffs):
        acc = acc * r + c
        partial.append(acc)
    rem = partial.pop()
    return partial[::-1], rem


def _root_candidates(coeffs: list) -> set:
    """Rationals among which lie all rational roots of coeffs (Fractions, lowest degree first).

    Past the roots at 0, the coefficients over their common denominator are
    integers a_0..a_n, and y = a_n x turns the polynomial into the monic
    g(y) = sum a_i a_n^(n-1-i) y^i, whose rational roots are integers with
    |y| <= 1 + max|g_i|.  At a prime ell where every root of g mod ell is
    simple, each such root is Newton-lifted (Hensel; von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 15) until the modulus exceeds twice that
    bound, and its symmetric residue is the only integer root of g above it.
    The primes tried start above 4n, where a multiple root is rare and the
    search over F_ell costs O(n^2).  A repeated root is multiple mod every
    prime, so once a prime shows a multiple root g is taken from the squarefree
    part.
    """
    zeros = next(i for i, c in enumerate(coeffs) if c)
    found = {Fraction(0)} if zeros else set()
    poly = coeffs[zeros:]
    if len(poly) < 2:
        return found
    lead, g = _monic_integer(poly)
    ell = 4 * len(poly) - 1
    while True:
        ell += 2
        if any(ell % q == 0 for q in range(3, isqrt(ell) + 1, 2)):
            continue
        dg = [i * c for i, c in enumerate(g)][1:]
        roots = [r for r in range(ell) if _horner(g, r, ell) == 0]
        if all(_horner(dg, r, ell) for r in roots):
            break
        lead, g = _monic_integer(_squarefree(poly))
    bound = 2 * (1 + max(map(abs, g)))
    for r in roots:
        m = ell
        while m <= bound:
            m *= m
            r = (r - _horner(g, r, m) * pow(_horner(dg, r, m), -1, m)) % m
        found.add(Fraction(r if 2 * r < m else r - m, lead))
    return found


def _monic_integer(poly: list):
    """(a_n, g): a_n^(n-1) poly(y / a_n) for poly over its common denominator a, monic in y."""
    scale = lcm(*(c.denominator for c in poly))
    a = [c.numerator * (scale // c.denominator) for c in poly]
    n = len(a) - 1
    return a[n], [c * a[n] ** (n - 1 - i) for i, c in enumerate(a[:n])] + [1]


def _horner(cs: list, x: int, m: int) -> int:
    """The integer polynomial cs at x, mod m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _poly_divmod(f: list, g: list):
    """(quotient, remainder) of f by g over the rationals, lowest degree first, the remainder trimmed."""
    r, q = list(f), []
    while len(r) >= len(g):
        q.append(r[-1] / g[-1])
        for i, b in enumerate(g, len(r) - len(g)):
            r[i] -= q[-1] * b
        r.pop()
    while r and not r[-1]:
        r.pop()
    return q[::-1], r


def _squarefree(poly: list) -> list:
    """poly / gcd(poly, poly') over the rationals (Euclid); dividing by the monic
    gcd keeps the leading coefficient of poly, where the raw gcd's would widen it."""
    f, g = poly, [i * c for i, c in enumerate(poly)][1:]
    while g:
        f, g = g, _poly_divmod(f, g)[1]
    return _poly_divmod(poly, [c / f[-1] for c in f])[0]


def eval_poly(p: RationalPolynomial, A: ExactMatrix) -> ExactMatrix:
    """Evaluate p at a square matrix (Horner form, scalar term times identity)."""
    if not A.is_square:
        raise DimensionMismatch("polynomial of a non-square matrix")
    eye = ExactMatrix.identity(A.rows)
    acc = ExactMatrix.zeros(A.rows)
    for c in reversed(p.coeffs):
        acc = acc * A + eye.scale(c)
    return acc


def min_poly(A: ExactMatrix) -> RationalPolynomial:
    """Monic minimal polynomial from the first linear dependence among I, A, A^2, ...

    A is lifted once to B = d*A over one common denominator, and each flat
    power B^(k+1) is _flat_product(B, B^k): the wide power is packed, and
    B's narrow entries multiply it.  Each flattened B^k, tagged with
    e_k, is reduced against the rows kept so far by the Bareiss steps that
    made them: a running fraction-free row echelon form, whose every division
    is exact.  The steps are lazy, as in ``rref``: a kept row whose pivot
    column holds a zero in the power is skipped, and a power is caught up to
    the last pivot only when it is kept.  The first power that reduces to
    zero carries, up to one nonzero factor, c_0..c_k with sum c_j B^j = 0, so
    m_A(x) = sum c_j x^j / (c_k d^(k-j)); only the ratios of its tag entries
    are read.
    """
    if not A.is_square:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    n = A.rows
    size = n * n
    d, *B = _reduced(*A._lifted())
    cplx = B[1] is not None
    power = ([int(i == j) for i in range(n) for j in range(n)], [0] * size if cplx else None)
    kept = []  # (pivot column, pivot, row) in the order the rows were reduced
    prev = (1, 0)  # the last kept pivot
    k = 0
    while True:  # Cayley-Hamilton: at most n + 1 powers, so the tag has n + 1 slots
        tag = [0] * (n + 1)
        tag[k] = 1
        w = (power[0] + tag, power[1] + [0] * (n + 1) if cplx else None)
        div = (1, 0)  # the pivot w was last brought up to date with
        for c, p, row in kept:
            f = _entry(w, c)
            if f != (0, 0):
                w = _bareiss_step(p, f, div, w, row)
                div = p
        c = next((j for j in range(size) if _entry(w, j) != (0, 0)), None)
        if c is None:
            break
        if div != prev:
            w = _bareiss_step(prev, (0, 0), div, w, w)
        prev = _entry(w, c)
        kept.append((c, prev, w))
        power = _flat_product(B, power, n, n) if k else B  # B^1 = B, with no product by I
        k += 1
    tag = (w[0][size:size + k + 1], None if w[1] is None else w[1][size:size + k + 1])
    (re, im), den = _over_pivot(tag, _entry(tag, k))
    return RationalPolynomial(_scalars(re, im, [den * d ** (k - j) for j in range(k + 1)]))
