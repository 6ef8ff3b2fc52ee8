"""Exact scalar, matrix, and polynomial arithmetic over the Gaussian rationals.

Everything here is dense, deterministic, and float-free: a scalar is a
Gaussian rational held as reduced integers (a + b*i) / d, matrices are tuples
of tuples of scalars, and the only
polynomial factorisation offered is rational-root splitting: candidate roots
are Hensel-lifted roots mod a small prime, and each is tested and divided out
in one Horner pass.

Elimination and matrix products run fraction-free on integer numerators.
Elimination reads each row over its own least common denominator, and every
integer matrix product goes through one helper, ``_flat_product`` (below).
``rref`` is fraction-free Gauss-Jordan (E. H. Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968), whose every division is exact, and it clears two pivot columns per
step, Bareiss's two-step method.  ``inverse`` runs the same steps on [A | I]
but stores only its n live columns: a pivot's column of A is known once it
is eliminated, and its slot takes over the column of I that the pivot row
starts to fill.  Both run one helper, ``_eliminate``.  ``min_poly``
keeps one running fraction-free echelon form of the integer powers B^k of
B = d*A, and stops at the first power that reduces to zero.  A matrix with
no imaginary part runs on plain ints, any other on (re, im) pairs in Z[i].
``rref``, ``inverse`` and ``nullspace`` hand back their integers as flat
matrices (below), and ``min_poly`` builds only its coefficients' scalars.

Every kernel of an ExactMatrix reads one integer form, the flat form: every
entry, row-major, as integer numerators over one denominator (den, re, im),
im None exactly when no entry has an imaginary part.  A matrix built from
scalars lifts its cells to it on first use and keeps the lift.  Producers
that already hold integers, the spectral matrices of spectral.to_matrix, the
symgroup matrices, every product and every result of elimination, hand over
the flat form instead, and their cells are built on their first read, each
by ``_scalar`` as the reduced triple the plain computation gives, and then
kept.  So each form is built once, when first needed, and a matrix that only
passes between ``from_matrix``, ``min_poly``, elimination, ``*`` and ``==``
never builds a scalar.  Elimination and ``min_poly`` first divide each row
(or the whole matrix) down to its least common denominator, so they see the
integers a lift of the cells would give.  ``_flat_product`` multiplies two
flat integer matrices.  Dense Multivector products use it too, and a product
of two matrices is kept over its least common denominator, so chains of
products stay narrow.  It multiplies whole rows by Kronecker substitution
(Kronecker 1882; D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symb. Comput. 44, 2009): each row of
the right factor is packed into one integer with a slot per entry, wide
enough that no slot carries into the next, so a row of the product is one
sum of products of integers, done by CPython's bignum loop, and its slots
are read back in one struct call.  Complex rows hold their real slots low
and their imaginary slots high, so a row costs two such sums instead of
four dot products per entry.  Entries that would need wide slots are first
divided by the gcd of their row (left factor) or column (right factor),
which takes out most of a tall matrix's common denominator.  ``min_poly``
computes B^(k+1) as B * B^k, so that the packed rows are the wide powers
and B's narrow entries multiply them.  Two matrices are compared by
cross-multiplying the numerators of their flat forms.

The Bareiss steps are lazy, so sparse matrices skip most of them.  A step
with pivot p after pivot q only scales a row whose entries in the pivot
columns are zero, to p*row / q.  So each row keeps ``div``, the pivot it was
last brought up to date with, and stands for the eager row row*q/div, q
being the latest pivot.  A row with zeros in the pivot columns is left
alone, and a row about to pivot is first caught up once, to q*row / div.

One step clears two pivot columns.  Its pivot rows y and z, up to date
with q, hold the block [[a, b], [c, d]] there, and p = (a*d - b*c) / q is
the second pivot.  Another up-to-date row with entries (e, f) becomes
(p*row - u*y - v*z) / q, with u = (e*d - f*c) / q and v = (a*f - b*e) / q:
one exact division and three products per entry, where two one-steps take
two divisions and four products.  Every division is exact by Sylvester's
identity: the eager rows' entries are minors of the matrix bordered by the
pivot rows so far, a 2x2 determinant of them is q times such a minor, so p,
u and v are minors, and the 3x3 determinant of the rows y, z and row, which
is q*(p*row - u*y - v*z), is q^2 times one.  A row stored lazily, or a lazy
z, is combined over the product of their ``div``s instead, with the
undivided multipliers.  A row whose entry e is zero takes only the second
of the two one-steps, and a row whose f and b are zero only the first, so
every row stored is the row two one-steps store.  The second pivot column
is the one a one-step at the first would pivot on next: the first later
column k with a nonzero 2x2 minor a*row[k] - row[c]*y[k] in a row below y,
the first such row being z.  A pivot with no such partner takes a one-step,
and elimination ends there.  At the end each row is divided by its own
``div``.  A permutation matrix takes no step at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from itertools import chain, repeat
from operator import attrgetter, eq, floordiv, mul, neg
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
    """A complex number re + im*i with exact rational parts, held as (a + b*i) / d.

    a, b and d are ints with d > 0 and gcd(a, b, d) == 1, so every value has
    one form: an integer vector over one denominator, the usual way to hold a
    number-field element (H. Cohen, A Course in Computational Algebraic Number
    Theory, 4.2).  Every operation runs on ints and reduces its result by one
    gcd.  ``re`` and ``im`` are the parts as Fractions, built when read.

    A scalar is immutable the way ``fractions.Fraction`` is: ``re`` and ``im``
    are read-only properties over the private slots ``_a``, ``_b`` and
    ``_d``, and only ``__init__`` and ``_scalar`` write those slots.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise DomainError("GaussianRational(z, im) takes no im when z is a GaussianRational")
            a, b, d = re._a, re._b, re._d
        else:
            re, im = _as_fraction(re), _as_fraction(im)
            d = lcm(re.denominator, im.denominator)  # over parts in lowest terms, gcd(a, b, d) == 1
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        self._a, self._b, self._d = a, b, d

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

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
        d, e = self._d, o._d
        return _scalar(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _scalar(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _scalar(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        # d / (a + b*i) = d * (a - b*i) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if norm == 0:
            raise DomainError("division by zero")
        return _scalar(a * d, -b * d, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b*i) / d over (c + e*i) / f is f * (a + b*i) * (c - e*i) / (d * (c^2 + e^2))
        a, b, c, e, f = self._a, self._b, o._a, o._b, o._d
        norm = c * c + e * e
        if norm == 0:
            raise DomainError("division by zero")
        return _scalar(f * (a * c + b * e), f * (b * c - a * e), self._d * norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _scalar(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _scalar(self._a, -self._b, self._d)

    # -- predicates, hashing ----------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # the hash of a real value is that of its Fraction, so it equals the int's or Fraction's it equals
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- text form ---------------------------------------------------------
    # Canonical literals: "p/q" for rationals, "p/q+r/si" for complex values,
    # with zero parts omitted and "0" for zero.  Each part is printed as
    # str(Fraction) prints it, from its numerator over d.

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _part(a, d)
        if not a:
            return f"{_part(b, d)}i"
        return f"{_part(a, d)}{'+' if b > 0 else '-'}{_part(abs(b), d)}i"

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


_new = object.__new__


def _scalar(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i) / d, for ints a, b and d > 0, reduced by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _part(x: int, d: int) -> str:
    """x / d, for d > 0, as str(Fraction(x, d)) prints it."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


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


def _json_scalar(x) -> GaussianRational:
    """A JSON integer or scalar string, the one scalar rule of every from_json; a float or boolean raises InputError."""
    if isinstance(x, str):
        return GaussianRational.parse(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return GaussianRational(x)
    raise InputError(f"bad scalar {x!r}: a JSON scalar is an integer or a string")


# -- integer lifting ------------------------------------------------------------
# A vector of GaussianRationals is carried as integer numerators over one
# common denominator: parallel lists of real and imaginary numerators, the
# imaginary list None on the real path (no entry has an imaginary part).
# An ExactMatrix keeps the lift of all its cells as its flat form, and a
# Multivector the lift of its coefficients (Multivector._lifted), each
# lifted once, on first use; Multivector products (witt._product_sum) and
# the matrix bridge (witt._to_cells and witt._from_cells) read those lifts.
# A scalar already is such a vector of length one, (a + b*i) / d, so lifting
# reads one denominator per scalar; _lift and _any_imag map attrgetters over
# whole lists, so no Python frame runs per scalar.  Every result entry goes
# back to a scalar through _scalar, which reduces it by one gcd; _scalars
# does that over parallel lists.

_get_a, _get_b, _get_d = map(attrgetter, ("_a", "_b", "_d"))


def _any_imag(scalars) -> bool:
    """Whether some GaussianRational of scalars has a nonzero imaginary part, b != 0."""
    return any(map(_get_b, scalars))


def _lift(entries, cplx: bool):
    """(den, re, im) with den * entries[k] == re[k] + im[k]*i and den the least common denominator.

    den is the lcm of the entries' own denominators d, and each entry's a and
    b are scaled by den // d; im is None unless cplx.  entries is read once
    per part, so it must be a collection, not an iterator.
    """
    dens = list(map(_get_d, entries))
    den = lcm(*dens)
    scale = list(map(floordiv, repeat(den), dens))
    return (
        den,
        list(map(mul, map(_get_a, entries), scale)),
        list(map(mul, map(_get_b, entries), scale)) if cplx else None,
    )


def _reduced(den: int, re, im):
    """(den, re, im) over the least common denominator: den and every numerator divided by their gcd."""
    g = gcd(den, *re, *(im or ()))
    if g == 1:
        return den, re, im
    return den // g, list(map(floordiv, re, repeat(g))), None if im is None else list(map(floordiv, im, repeat(g)))


def _scalars(re, im, dens) -> list[GaussianRational]:
    """The GaussianRationals (re[k] + im[k]*i) / dens[k], each built by _scalar.

    dens is one positive int for every entry or a list of positive ints, one
    per entry; im is None on the real path.  A zero entry is the shared
    GaussianRational.ZERO.
    """
    zero = GaussianRational.ZERO
    dens = repeat(dens) if isinstance(dens, int) else dens
    return [_scalar(a, b, d) if a or b else zero for a, b, d in zip(re, repeat(0) if im is None else im, dens)]


def _over_pivots(m, div):
    """(den, re, im): the lifted rows of m over their pivots in div (_over_pivot), row-major over their lcm, reduced."""
    lines = list(map(_over_pivot, m, div))
    den = lcm(*[d for _, d in lines])
    re, im = [], None if m[0][1] is None else []
    for row, d in lines:
        for out, xs in zip((re, im), row):
            if out is not None:
                out += xs if d == den else map(mul, xs, repeat(den // d))
    return _reduced(den, re, im)


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


_INEXACT = "inexact division in Z[i]: fraction-free elimination invariant broken"
_ZERO, _ONE = (0, 0), (1, 0)


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
            raise DomainError(_INEXACT)
        outr.append(sr)
        outi.append(si)
    return outr, outi


def _bareiss_pair(x, s, e, f, blk, y, z):
    """(row, div): row x after a pair step, the pivot it is then up to date with beside it.

    x was last brought up to date with s and has entries e != 0 and f in
    the two pivot columns.  blk is (a, b, c, d, p, q, t): pivot row y,
    up to date with q, has a and b there, pivot row z, up to date with t, has
    c and d, and p = (a*d - b*c) / t is the second pivot; on real rows blk
    holds ints, on Z[i] rows (re, im) pairs, as e, f and s always do.  When
    a*f - b*e is zero, a one-step at the first column already clears the
    second, so x takes only that step, (a*x - e*y) / s, and is up to date
    with a.  Otherwise x becomes (P*x - u*y - v*z) / D, up to date with p:
    for s == q == t, Sylvester's identity makes u = (e*d - f*c) / q,
    v = (a*f - b*e) / q and the row over D = q exact, with P = p; else
    (P, u, v, D) = (a*d - b*c, e*d - f*c, a*f - b*e, s*t) over the lazy rows,
    which gives the same row.  Over Z[i] each division is checked.
    """
    a, b, c, d, p, q, t = blk
    (xr, xi), (yr, yi), (zr, zi) = x, y, z
    if xi is None:
        v = a * f[0] - b * e[0]
        if not v:
            return _bareiss_step((a, 0), e, s, x, y), (a, 0)
        e, f, s = e[0], f[0], s[0]
        if s == q == t:
            u, v, P, D = (e * d - f * c) // q, v // q, p, q
        else:
            u, P, D = e * d - f * c, a * d - b * c, s * t
        return ([(P * g - u * h - v * k) // D for g, h, k in zip(xr, yr, zr)], None), (p, 0)
    v = _minor(a, b, e, f)
    if v == _ZERO:
        return _bareiss_step(a, e, s, x, y), a
    if s == q == t:
        (ur, ui), (vr, vi), (pr, pi), (qr, qi) = _quotient(_minor(e, f, c, d), q), _quotient(v, q), p, q
    else:  # over the lazy rows: P = a*d - b*c and D = s*t
        (ur, ui), (vr, vi), (pr, pi), (qr, qi) = _minor(e, f, c, d), v, _minor(a, b, c, d), _minor(s, _ZERO, _ZERO, t)
    # the multipliers times conj(D), each entry then over |D|^2
    norm = qr * qr + qi * qi
    pr, pi = pr * qr + pi * qi, pi * qr - pr * qi
    ur, ui = ur * qr + ui * qi, ui * qr - ur * qi
    vr, vi = vr * qr + vi * qi, vi * qr - vr * qi
    outr, outi = [], []
    for a, b, c, d, e, f in zip(xr, xi, yr, yi, zr, zi):
        sr, rr = divmod(pr * a - pi * b - ur * c + ui * d - vr * e + vi * f, norm)
        si, ri = divmod(pr * b + pi * a - ur * d - ui * c - vr * f - vi * e, norm)
        if rr or ri:
            raise DomainError(_INEXACT)
        outr.append(sr)
        outi.append(si)
    return (outr, outi), p


def _minor(a, b, c, d):
    """a*d - b*c, for (re, im) scalars."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = a, b, c, d
    return ar * dr - ai * di - br * cr + bi * ci, ar * di + ai * dr - br * ci - bi * cr


def _quotient(x, q):
    """x / q, for (re, im) scalars whose quotient lies in Z[i]; the remainder is checked."""
    (xr, xi), (qr, qi) = x, q
    norm = qr * qr + qi * qi
    sr, rr = divmod(xr * qr + xi * qi, norm)
    si, ri = divmod(xi * qr - xr * qi, norm)
    if rr or ri:
        raise DomainError(_INEXACT)
    return sr, si


def _eliminate(m: list, cols: int, dens=None):
    """Lazy fraction-free Gauss-Jordan on the lifted rows m, in place: (pivots, div, orig).

    The one elimination of ``rref`` and ``inverse``, two pivot columns per
    step (see the module docstring).  It picks the pivot rows that one-step
    Gauss-Jordan with leftmost-pivot selection picks, and stores the rows
    two one-steps store; only a pivot with no partner takes a one-step.
    div[i] is the pivot row i was last brought up to date with, and orig[i]
    the original index of the row now at i.  With dens, the rows'
    denominators, the rows hold the live columns of [A | I]: each pivot
    column's slot takes over the identity column of its pivot row's original
    index, d_o times the row's ``div`` there and 0 in every other row.
    """
    rows = len(m)
    div = [_ONE] * rows
    orig = list(range(rows))
    pivots = []
    q = _ONE  # the last pivot
    r = c = 0
    while r < rows:
        # the first column at or after c with a nonzero entry at or below row r, and that row
        c, i = next(((k, i) for k in range(c, cols) for i in range(r, rows) if m[i][0][k] or m[i][1] and m[i][1][k]),
                    (None, 0))
        if c is None:
            break
        if i != r:
            for xs in (m, div, orig):
                xs[r], xs[i] = xs[i], xs[r]
        if div[r] != q:
            m[r] = _bareiss_step(q, _ZERO, div[r], m[r], m[r])
        y = m[r]
        a = _entry(y, c)
        pivots.append(c)
        # its partner: the pivot column and row that a one-step at c leaves next,
        # the first column k > c and row i > r with a*m[i][k] - m[i][c]*y[k] nonzero
        c2, i = next(((k, i) for k in range(c + 1, cols) for i in range(r + 1, rows)
                      if m[i][0][k] or m[i][1] and m[i][1][k]
                      or (m[i][0][c] or m[i][1] and m[i][1][c]) and (y[0][k] or y[1] and y[1][k])
                      if _minor(a, _entry(y, k), _entry(m[i], c), _entry(m[i], k)) != _ZERO), (None, 0))
        if c2 is None:
            # no partner: a one-step at c, after which no row below r has a nonzero entry past c
            if dens is not None:
                _put(y, c, (dens[orig[r]] * q[0], dens[orig[r]] * q[1]))
            for i in chain(range(r), range(r + 1, rows)):
                e = _entry(m[i], c)
                if e != _ZERO:
                    if dens is not None:
                        _put(m[i], c, _ZERO)
                    m[i], div[i] = _bareiss_step(a, e, div[i], m[i], y), a
            div[r] = a
            break
        if i != r + 1:
            for xs in (m, div, orig):
                xs[r + 1], xs[i] = xs[i], xs[r + 1]
        z, t = m[r + 1], div[r + 1]
        b, cc, dd = _entry(y, c2), _entry(z, c), _entry(z, c2)
        if y[1] is None:
            blk = a[0], b[0], cc[0], dd[0], (a[0] * dd[0] - b[0] * cc[0]) // t[0], q[0], t[0]
            p = blk[4], 0
        else:
            p = _quotient(_minor(a, b, cc, dd), t)
            blk = a, b, cc, dd, p, q, t
        if dens is not None:
            _put(y, c, (dens[orig[r]] * q[0], dens[orig[r]] * q[1]))
            _put(y, c2, _ZERO)
            _put(z, c, _ZERO)
            _put(z, c2, (dens[orig[r + 1]] * t[0], dens[orig[r + 1]] * t[1]))
        # row r + 1 after a one-step at c: its update, or its catch-up to a
        w = z if cc == _ZERO and t == a else _bareiss_step(a, cc, t, z, y)
        for i in chain(range(r), range(r + 2, rows)):
            x = xr, xi = m[i]
            if xr[c] or xr[c2] or xi and (xi[c] or xi[c2]):
                e, f = _entry(x, c), _entry(x, c2)
                if dens is not None:  # the identity columns of rows r and r + 1 are 0 here
                    for xs in x:
                        if xs is not None:
                            xs[c] = xs[c2] = 0
                if e == _ZERO:  # a one-step at c leaves the row alone, and the one at c2 updates it
                    m[i], div[i] = _bareiss_step(p, f, div[i], x, w), p
                elif f == b == _ZERO:  # the one-step at c keeps column c2 zero, and the one at c2 leaves it
                    m[i], div[i] = _bareiss_step(a, e, div[i], x, y), a
                else:
                    m[i], div[i] = _bareiss_pair(x, div[i], e, f, blk, y, z)
        if b != _ZERO:
            m[r], div[r] = _bareiss_step(p, b, a, y, w), p
        else:
            div[r] = a
        m[r + 1], div[r + 1] = w, p
        pivots.append(c2)
        q = p
        r += 2
        c = c2 + 1
    return pivots, div, orig


_EMPTY_MATRIX = "matrix needs at least one row and column"


class ExactMatrix:
    """Dense matrix of GaussianRational entries.

    Every kernel reads the flat integer form (den, re, im) of all its
    entries, row-major, from ``_lifted``: ``*`` packs it through
    _flat_product, and ``rref`` and ``inverse`` work fraction-free on its
    rows, each over its own least common denominator (Bareiss 1968); see
    the module docstring.  A matrix is built from its cells or from that
    form, and the other is built on first use and kept.

    A matrix is immutable the way ``fractions.Fraction`` is: ``rows``,
    ``cols`` and ``cells`` are read-only properties over private slots, and
    only the constructors and the two lazy fills above write those slots.
    """

    __slots__ = ("_rows", "_cols", "_cells", "_flat")
    rows = property(attrgetter("_rows"))
    cols = property(attrgetter("_cols"))

    def __init__(self, rows_of_entries: Iterable[Sequence]):
        cells = tuple(tuple(_as_scalar(x) for x in row) for row in rows_of_entries)
        if not cells or not cells[0]:
            raise InputError(_EMPTY_MATRIX)
        width = len(cells[0])
        if any(len(r) != width for r in cells):
            raise InputError("ragged matrix rows")
        self._fill(len(cells), width, cells, None)

    def _fill(self, rows: int, cols: int, cells, flat) -> "ExactMatrix":
        """Set the four slots of a new matrix, cells or flat None, and return it."""
        self._rows, self._cols, self._cells, self._flat = rows, cols, cells, flat
        return self

    def __reduce__(self):
        return ExactMatrix, (self.cells,)

    @property
    def cells(self) -> tuple:
        """The entries as a tuple of row tuples of GaussianRationals."""
        cells = self._cells
        if cells is None:
            den, re, im = self._flat
            flat, w = _scalars(re, im, den), self._cols
            cells = self._cells = tuple(tuple(flat[r : r + w]) for r in range(0, len(flat), w))
        return cells

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_flat(cls, rows: int, cols: int, den: int, re: list, im) -> "ExactMatrix":
        """The rows x cols matrix with entry (r, c) equal to (re[k] + im[k]*i) / den, k = r * cols + c.

        im is None on the real path, and an all-zero im is dropped to None.
        """
        if rows < 1 or cols < 1:
            raise InputError(_EMPTY_MATRIX)
        return object.__new__(cls)._fill(rows, cols, None, (den, re, im if im is not None and any(im) else None))

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
        """Rows of scalars, each a JSON integer or a scalar string such as "1/2-3i"; a float raises InputError."""
        if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
            raise InputError("matrix JSON must be a non-empty array of arrays")
        return cls([[_json_scalar(x) for x in row] for row in data])

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
            (d, lre, lim), (e, rre, rim) = self._lifted(), other._lifted()
            if lim is not None or rim is not None:  # a real side takes zero imaginary numerators
                lim, rim = lim or [0] * len(lre), rim or [0] * len(rre)
            re, im = _flat_product((lre, lim), (rre, rim), self.cols, other.cols)
            return ExactMatrix._from_flat(self.rows, other.cols, *_reduced(d * e, re, im))
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    __matmul__ = __mul__

    def _lifted(self):
        """(den, re, im): every entry, row-major, over one denominator, im None when no entry has an imaginary part.

        The one integer form that ``*``, ``==``, elimination, min_poly and
        from_matrix read.  A matrix built from cells lifts them with _lift on
        the first call, over their least common denominator, and keeps the
        lift.  A flat matrix's denominator need not be the least: a spectral
        matrix's is that of its element's coefficients, whose sums may
        cancel.  Either way the lists are shared, and callers only read them.
        """
        flat = self._flat
        if flat is None:
            entries = [x for row in self.cells for x in row]
            flat = self._flat = _lift(entries, _any_imag(entries))
        return flat

    def _lines(self) -> list:
        """(den, re, im) for each row of the lift, over the row's least common denominator, in fresh lists.

        A row's least common denominator is den / gcd(den, its numerators),
        so _reduced gives each row the integers its own _lift would.  im is a
        list exactly when the matrix has an imaginary part.
        """
        den, re, im = self._lifted()
        w = self.cols
        return [_reduced(den, re[r : r + w], None if im is None else im[r : r + w]) for r in range(0, len(re), w)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.cells)))

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.cells[i][i] for i in range(self.rows)), GaussianRational.ZERO)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # x1 / d1 == x2 / d2 exactly when x1 * d2 == x2 * d1
        (d1, re1, im1), (d2, re2, im2) = self._lifted(), other._lifted()
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
        numerators, two pivot columns per step (``_eliminate``): with pivot
        rows y and z holding [[a, b], [c, d]] there and previous pivot q,
        every other row becomes (p*row - u*y - v*z) / q, with second pivot
        p = (a*d - b*c) / q, u = (e*d - f*c) / q and v = (a*f - b*e) / q for
        its entries (e, f).  Sylvester's identity makes each of these a minor
        of the matrix, so every division is exact.  The steps are lazy (see
        the module docstring): a row with zeros in both pivot columns is
        left alone, and a row is caught up to q before it pivots.  Rows only
        ever change by nonzero factors, so the pivots are those of plain
        Gauss-Jordan.  The RREF is each integer row over its own ``div``, all
        handed back flat (``_over_pivots``), its cells built on first read.
        """
        m = [(re, im) for _, re, im in self._lines()]
        pivots, div, _ = _eliminate(m, self.cols)
        return ExactMatrix._from_flat(self.rows, self.cols, *_over_pivots(m, div)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list["ExactMatrix"]:
        """Canonical kernel basis: each free column, in ascending order, set to 1; each vector flat from the rref's."""
        red, pivots = self.rref()
        den, re, im = red._lifted()
        w = self.cols
        basis = []
        for free in sorted(set(range(w)) - set(pivots)):
            v = [0] * w, None if im is None else [0] * w
            for out, xs in zip(v, (re, im)):
                if out is not None:
                    for pcol, x in zip(pivots, xs[free::w]):
                        out[pcol] = -x
            v[0][free] = den
            basis.append(ExactMatrix._from_flat(w, 1, *_reduced(den, *v)))
        return basis

    def inverse(self) -> "ExactMatrix":
        """Fraction-free Gauss-Jordan on [A | I] that stores only its n live columns.

        Row i of A is lifted once to (d_i, row_i).  Once column c holds its
        pivot p, the left-block column c is p in the pivot row and 0 elsewhere,
        so its slot takes over the right-block column of the pivot row's
        original index o, which until then is d_o times the row's ``div`` in
        that row and 0 elsewhere.  The steps are those of ``rref``, two pivot
        columns at a time, each division exact by Sylvester's identity: the
        two slots take over their right-block columns before the step, and a
        row with zeros in both columns keeps its zero slots and its ``div``.
        At the end slot c of row i, over the row's ``div``, is
        inverse[i][o_c], so the slots are put in that order before the rows go
        flat (``_over_pivots``).  A missing pivot means a singular matrix.
        """
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        lifted = self._lines()
        m = [(re, im) for _, re, im in lifted]
        pivots, div, orig = _eliminate(m, n, [den for den, _, _ in lifted])
        if len(pivots) < n:
            raise DomainError("matrix is singular")
        slot = sorted(range(n), key=orig.__getitem__)  # slot[o]: the slot holding right-block column o
        m = [[None if xs is None else [xs[k] for k in slot] for xs in row] for row in m]
        return ExactMatrix._from_flat(n, n, *_over_pivots(m, div))


class RationalPolynomial:
    """Polynomial with GaussianRational coefficients, stored lowest degree first in the read-only ``coeffs``."""

    __slots__ = ("_coeffs",)
    coeffs = property(attrgetter("_coeffs"))

    def __init__(self, coeffs: Sequence):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = tuple(cs)

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
    is exact, one pivot column at a time (the one-step form; ``rref`` and
    ``inverse`` clear two).  The steps are lazy, as in ``rref``: a kept row whose pivot
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
