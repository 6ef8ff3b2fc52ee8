"""Null-vector (Witt basis) geometric algebra with exact coefficients.

Rank n means generators a_1..a_n, b_1..b_n subject to

    a_i^2 = b_i^2 = 0,        a_i b_i + b_i a_i = 1,
    distinct-index generators anticommute.

A canonical monomial visits indices in ascending order, emitting a_i before
b_i when both occur; it is encoded by the bitmask pair (a_mask, b_mask), bit
i-1 standing for index i.  The integer layers below key a term by one
index k = a_mask * 2^n + b_mask, as a 2^n x 2^n matrix keys a cell by
row * 2^n + col.  Results are read back to WittMonomial keys (_monomials)
through _keys(n), which builds each rank-n key once, on first use, and hands
the same object to every later result.

The kernel is closed form (Jordan-Wigner).  Per index the local words
1, a, b, ab multiply as 2x2 matrix units (left factor down, right across):

           1       a       b       ab
    1      1       a       b       ab
    a      a       0       ab      0
    b      b     1 - ab    0       b
    ab     ab      a       0       ab

and the one sign is parity: bringing the local words of two canonical
monomials together passes each odd local word of the right factor over the
odd local words of the left factor at higher indices.  With sp(m) the mask
whose bit j is the parity of the bits of m above j, the product of (A1, B1)
and (A2, B2) carries (-1)^popcount((A2 ^ B2) & sp(A1 ^ B1)).  The b.a entry,
1 - ab, is the only branching one.  The same rule gives

    reversal        ab -> ba = 1 - ab per index, and (-1)^(k(k-1)/2) for
                    the k single letters;
    blade basis     a = (e + f)/2, b = (e - f)/2, ab = (1 - ef)/2, and back
                    e = a + b, f = a - b, ef = 1 - 2ab, with blade order
                    e's then f's costing (-1)^popcount(F & sp(E));

and, in spectral.py, the matrix units.  reduce_word is a fold of generator
products; the word-rewriting engine that defined the kernel survives in the
tests as its oracle.

A product of two elements never visits a vanishing pair of monomials.  A
pair vanishes exactly when a lone a of the left factor meets an a of the
right, or a b of the left meets a lone b of the right, so _product_sum
groups both factors on those masks and skips a vanishing pair of groups
whole.  A live pair's product is one monomial first_a * 2^n + last_b with
its parity sign, times b.a = 1 - ab at each index where a lone b of the left
meets a lone a of the right; those indices are its b.a sites.

Products run on integer numerators.  Each factor's coefficients are lifted
once to numerators over one common denominator (exact._lift, the helper the
ExactMatrix kernels use), on (re, im) pairs only when some coefficient has
an imaginary part (exact._any_imag); both helpers read the coefficients by
C-level maps, with no Python step per term.  The kernel adds each live
pair's signed numerator product into one integer (or (re, im) pair) per key,
the term's index with its sites above bit 2n; many pairs share a key, so
after the loop each distinct key with sites is expanded once.  The nonzero
sums become the coefficients, over the product of the two denominators, in
one batch (exact._scalars).  Every signed expansion is one subset walk
(_walk): a set s of indices joining both masks of a term, or the row and
the column of a cell, moves its index by s * (2^n + 1), each sign a parity.

A dense product runs through the matrix isomorphism instead.  The kernel
takes one Python step per live term, the sum of |lterms| * |rterms| over
the live pairs of groups, while the bridge's Python work follows the 4^n
cells of a spectral matrix: exact._flat_product, the integer product of
flat ExactMatrix forms, packs each row of the right factor into one integer
and takes a row of the product as one sum of 2^n integer products, so its
8^n multiply-adds run inside CPython's bignum loop.  _live_count finds the
kernel's count without listing the pairs, from two tables of 2^n bitsets
over the right factor's terms, one indexed by a_mask and one by lone_b,
each OR-summed over subsets.  Past max(_BRIDGE_PER_CELL * 4^n,
_BRIDGE_FLOOR) live terms __mul__ writes both lifted factors into spectral
matrices with _to_cells, multiplies them with exact._flat_product and reads
the product back with _from_cells.  to_matrix and from_matrix in spectral.py
are the same two helpers, on flat integer lists of 4^n entries.  Both
directions are one sign per cell and a Kronecker product of one 4x4 map per
index, so which entries an entry fills, and with which signs, is a constant
of n, and so is a monomial's reversed word.  Three per-rank tables keep these signed
targets, each key walked once on first use: _tables(n) holds cells (monomial
to cells) and units (cell to the monomials of its unit), _reverse_table(n)
the reversed words.  _to_cells, and _from_cells below
three quarters of the cells nonzero, scatter only the nonzero entries
through those targets; a nearly full matrix, as a dense product is, is read
back in n passes over all 4^n cells instead, each applying one index's map
to four strided slices (_unit_passes), with gather orders and signs from
_gather(n).

Reversal runs on integer numerators too: reverse and clifford_conj lift the
element once, put the grade involution's signs and the conjugation of i on
the numerators, and spread each term through _reverse_table(n) into one
integer per monomial; its coefficients are built in one batch too.

Complexified elements carry GaussianRational coefficients whose imaginary
unit behaves as a formal central scalar of odd grade 2n+1: reversal fixes it
for even n and conjugates it for odd n, and the grade involution always
conjugates it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, compress, repeat
from operator import add, mul, neg, or_, sub
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from . import _EXPORTS
from .errors import DimensionMismatch, InputError
from .exact import GaussianRational, _any_imag, _as_scalar, _flat_product, _format_sum, _lift, _scalars

__all__ = _EXPORTS["witt"]


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class WittMonomial(NamedTuple):
    n: int
    a_mask: int
    b_mask: int

    @property
    def degree(self) -> int:
        return self.a_mask.bit_count() + self.b_mask.bit_count()

    def word(self) -> tuple[tuple[int, int], ...]:
        """Canonical word as (index, kind) tokens, kind 0 for a and 1 for b."""
        toks = []
        for i in range(1, self.n + 1):
            bit = 1 << (i - 1)
            if self.a_mask & bit:
                toks.append((i, 0))
            if self.b_mask & bit:
                toks.append((i, 1))
        return tuple(toks)

    def pretty(self) -> str:
        """Render the canonical word with same-letter runs grouped: a1b12, b1a2."""
        if not self.a_mask and not self.b_mask:
            return "1"
        parts = []
        for idx, kind in self.word():
            letter = "ab"[kind]
            if parts and parts[-1][0] == letter:
                parts[-1] = (letter, parts[-1][1] + str(idx))
            else:
                parts.append((letter, str(idx)))
        return "".join(letter + digits for letter, digits in parts)


class BladeMonomial(NamedTuple):
    n: int
    e_mask: int
    f_mask: int

    @property
    def grade(self) -> int:
        return self.e_mask.bit_count() + self.f_mask.bit_count()


# ---------------------------------------------------------------------------
# kernel


def _sign(x: int) -> int:
    """(-1) ** popcount(x)."""
    return -1 if x.bit_count() & 1 else 1


def _suffix_parity(m: int) -> int:
    """Bit j is the parity of the bits of m above bit j."""
    x = m >> 1
    shift = 1
    while x >> shift:
        x ^= x >> shift
        shift <<= 1
    return x


def _subsets(mask: int):
    """Every submask of mask, from mask itself down to 0."""
    s = mask
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & mask


def _walk(n: int, ints: list, base: int, free: int, flips: int, odd: int) -> tuple:
    """(add, sub): ints[base + s * (2^n + 1)] for every submask s of free, in sub when odd + popcount(s & flips) is odd.

    ints[i] is i: a table's shared ints, so a kept target is a reference,
    not a new int, or range(4^n) for a walk that keeps nothing.
    """
    step = (1 << n) + 1
    plus, minus = [], []
    s = free
    while True:
        (minus if (odd + (s & flips).bit_count()) & 1 else plus).append(ints[base + s * step])
        if not s:
            return tuple(plus), tuple(minus)
        s = (s - 1) & free


def _spread(acc: dict, targets, sums, cplx: bool) -> None:
    """Add each of sums into acc at the add targets of its (add, sub) pair of targets, and subtract it at the sub targets.

    A sum is an int, or an (re, im) pair of ints when cplx.
    """
    get = acc.get
    if not cplx:
        for (plus, minus), x in zip(targets, sums):
            for k in plus:
                acc[k] = get(k, 0) + x
            for k in minus:
                acc[k] = get(k, 0) - x
        return
    for (plus, minus), (x, y) in zip(targets, sums):
        for k in plus:
            re, im = get(k, (0, 0))
            acc[k] = (re + x, im + y)
        for k in minus:
            re, im = get(k, (0, 0))
            acc[k] = (re - x, im - y)


def _product_sum(n: int, left, right, den: int, cplx: bool) -> dict:
    """The rank-n product of left by right as {WittMonomial: scalar}, over den.

    Both factors are (keys, re, im) as from _lifted_terms; im is None on the
    real path (cplx false).  The left factor is grouped by lone_a * 2^n + b
    and the right by a * 2^n + lone_b, so a pair of groups whose keys share
    a bit, where a.a or b.b meet, is skipped whole.  What a pair of groups
    or a left term shares is computed once.  A live pair's signed numerator
    product is summed under first_a * 2^n + last_b with its b.a sites above
    bit 2n; after the loop each distinct key with sites is expanded once,
    in place, by _walk, and the nonzero sums go to _from_sums.
    """
    full = (1 << n) - 1
    lgroups, rgroups = {}, {}
    keys, xs, ys = left
    for k, x, y in zip(keys, xs, ys or repeat(0)):
        a1, b1 = k >> n, k & full
        lgroups.setdefault(k & ~(b1 << n), []).append((k - b1, (b1 & ~a1) << 2 * n, _suffix_parity(a1 ^ b1), x, y))
    keys, xs, ys = right
    for k, x, y in zip(keys, xs, ys or repeat(0)):
        a2, b2 = k >> n, k & full
        rgroups.setdefault(k & ~a2, []).append((b2, (a2 & ~b2) << 2 * n, a2 ^ b2, x, y))
    live = []
    for lkey, lterms in lgroups.items():
        b1 = lkey & full
        for rkey, rterms in rgroups.items():
            if not lkey & rkey:
                a2 = rkey >> n
                live.append(((a2 & ~b1) << n | (b1 & ~a2), lterms, rterms))
    acc = {}
    get = acc.get
    if not cplx:
        for kept, lterms, rterms in live:
            for a1, lone_b1, flips, x1, _ in lterms:
                first = a1 | kept
                for b2, lone_a2, odd2, x2, _ in rterms:
                    key = first | b2 | (lone_b1 & lone_a2)
                    if (odd2 & flips).bit_count() & 1:
                        acc[key] = get(key, 0) - x1 * x2
                    else:
                        acc[key] = get(key, 0) + x1 * x2
    else:
        for kept, lterms, rterms in live:
            for a1, lone_b1, flips, x1, y1 in lterms:
                first = a1 | kept
                for b2, lone_a2, odd2, x2, y2 in rterms:
                    key = first | b2 | (lone_b1 & lone_a2)
                    re, im = get(key, (0, 0))
                    if (odd2 & flips).bit_count() & 1:
                        acc[key] = (re - x1 * x2 + y1 * y2, im - x1 * y2 - y1 * x2)
                    else:
                        acc[key] = (re + x1 * x2 - y1 * y2, im + x1 * y2 + y1 * x2)
    top = (1 << 2 * n) - 1
    branched = list(filter(top.__lt__, acc))
    if branched:
        ints = range(top + 1)
        _spread(acc, [_walk(n, ints, k & top, k >> 2 * n, full, 0) for k in branched], list(map(acc.pop, branched)), cplx)
    return _from_sums(n, acc, den, cplx)


def _monomials(n: int, ks, coeffs) -> dict:
    """{WittMonomial(n, k >> n, k & (2^n - 1)): c} for the k of ks and the c of coeffs, each key the one _keys(n) keeps."""
    return dict(zip(map(_keys(n).__getitem__, ks), coeffs))


def _from_sums(n: int, acc: dict, den: int, cplx: bool) -> dict:
    """_monomials of the nonzero sums in acc, {k: x} with x an int, or an (re, im) pair when cplx, over den."""
    if not cplx:
        return _monomials(n, compress(acc, acc.values()), _scalars(list(filter(None, acc.values())), None, den))
    live = list(map(any, acc.values()))
    sums = list(compress(acc.values(), live))
    return _monomials(n, compress(acc, live), _scalars([x for x, _ in sums], [y for _, y in sums], den))


def _mono_to_blades(a_mask: int, b_mask: int):
    """(a_mask, b_mask) in the blade basis as ((e_mask, f_mask), Fraction) terms."""
    single, pairs = a_mask ^ b_mask, a_mask & b_mask
    scale = Fraction(1, 1 << (a_mask | b_mask).bit_count())
    out = []
    for t in _subsets(single):  # single letters that take f rather than e
        for s in _subsets(pairs):  # pairs that take -ef rather than 1
            em, fm = (single & ~t) | s, t | s
            out.append(((em, fm), scale * _sign((t & b_mask) ^ s) * _sign(fm & _suffix_parity(em))))
    return out


def _blade_to_monos(e_mask: int, f_mask: int):
    """Blade (e_mask, f_mask) as ((a_mask, b_mask), integer) terms."""
    single, pairs = e_mask ^ f_mask, e_mask & f_mask
    sign = _sign(f_mask & _suffix_parity(e_mask))
    out = []
    for t in _subsets(single):  # single letters that take b rather than a
        for s in _subsets(pairs):  # pairs that take -2ab rather than 1
            weight = sign * _sign((t & f_mask) ^ s) << s.bit_count()
            out.append((((single & ~t) | s, t | s), weight))
    return out


def _collect(pairs) -> dict:
    """Sum the coefficients of (key, coefficient) pairs by key, dropping zero sums."""
    acc = {}
    for key, c in pairs:
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return {key: c for key, c in acc.items() if not c.is_zero()}


def _lifted_terms(g: "Multivector", cplx: bool):
    """(den, keys, re, im): den * coefficient == re[j] + im[j]*i for the term at keys[j] = a_mask * 2^n + b_mask.

    im is None on the real path (cplx false).
    """
    n = g.n
    den, re, im = _lift(g._terms.values(), cplx)
    return den, [m.a_mask << n | m.b_mask for m in g._terms], re, im


def _reversed(g: "Multivector", conj: bool, graded: bool) -> "Multivector":
    """The reverse of g; conj conjugates i, and graded first takes the grade involution's signs.

    g is lifted once, and each term's numerator, or (re, im) pair, spreads
    through its targets in _reverse_table(n) into one sum per monomial; the
    grade involution swaps the targets of a term of odd degree, and the
    conjugation negates the imaginary numerators.
    """
    n = g.n
    cplx = g._has_imag()
    den, keys, re, im = _lifted_terms(g, cplx)
    targets = map(_reverse_table(n).__getitem__, keys)
    if graded:
        targets = [(minus, plus) if k.bit_count() & 1 else (plus, minus) for k, (plus, minus) in zip(keys, targets)]
    acc = {}
    _spread(acc, targets, zip(re, map(neg, im) if conj else im) if cplx else re, cplx)
    return g._make(n, _from_sums(n, acc, den, cplx), g.complexified)


# A product whose live kernel terms exceed both _BRIDGE_PER_CELL * 4^n and
# _BRIDGE_FLOOR runs through the spectral matrices.  The kernel takes one
# Python step per live term.  The bridge's own cost follows its 4^n cells:
# writing both factors into them, reading the product back and packing its
# rows, while the 8^n multiply-adds of the packed product run inside
# CPython's bignum loop.  So the crossover tracks live terms per cell, not
# per 8^n.  In the grid of CHANGES.md (the kernel plus the live count
# against the bridge) real products cross near 0.4-0.7 live terms per cell at
# ranks 4-6, complex ones near 1.3-2.1 and tall ones near 2.0-2.3.  No one
# threshold on the live count serves all three; 1.2 keeps every kind at
# 0.81x or better of the faster path.  The floor stands for the bridge's
# fixed cost in lists and calls and governs ranks 1-3: the kernel wins at
# every density at rank 1, up to about 1.2 * 8^n at rank 2 and up to about
# 0.2 * 8^n at rank 3.
_BRIDGE_PER_CELL = 1.2
_BRIDGE_FLOOR = 120


def _live_count(n: int, lkeys, rkeys) -> int:
    """The live kernel terms of left * right, |lterms| * |rterms| summed over the live pairs of groups.

    lkeys and rkeys are the factors' term indices a_mask * 2^n + b_mask.  A
    left term (lone_a, b) and a right term (a, lone_b) are live together
    when lone_a & a == 0 and b & lone_b == 0.  So two tables of 2^n bitsets
    over the right terms, bit j for the j-th, hold at x the right terms whose
    a lies within x and at 2^n + y those whose lone_b lies within y: each
    right term sets its bit at its own masks, and n passes OR every entry
    into the entries of its supersets, both tables at once.  A left term's
    count is the popcount of its two entries' AND, at the complements of its
    lone_a and of its b.  Nothing is kept; the tables take 2^(n+1) entries of
    |rkeys| bits, not a 4^n list.
    """
    full = (1 << n) - 1
    size = 2 << n  # the a table, then the lone_b table from 2^n
    within = [0] * size
    bit = 1
    for k in rkeys:
        a = k >> n
        within[a] |= bit
        within[full + 1 | k & full & ~a] |= bit
        bit <<= 1
    for j in range(n):
        bit = 1 << j
        step = bit << 1
        if bit * step <= size:  # bit strided slices, or below size // step runs: the fewer
            for lo in range(bit):
                within[lo + bit :: step] = map(or_, within[lo + bit :: step], within[lo::step])
        else:
            for lo in range(0, size, step):
                within[lo + bit : lo + step] = map(or_, within[lo + bit : lo + step], within[lo : lo + bit])
    top = size - 1
    return sum([(within[full ^ (k >> n & ~k)] & within[top ^ k & full]).bit_count() for k in lkeys])


def _mono_spot(n: int, ints, k: int):
    """The _walk of monomial index k = a_mask * 2^n + b_mask over the cells of its spectral matrix.

    Monomial (A, B) has one entry for each subset s of the indices outside
    A | B, at row (B & ~A) | s and column c = (A & ~B) | s, with sign
    (-1)^popcount(c & sp(A ^ B)); s is disjoint from both masks, so each
    entry sits s * (2^n + 1) past the one of s = 0.
    """
    full = (1 << n) - 1
    a_mask, b_mask = k >> n, k & full
    col0, flips = a_mask & ~b_mask, _suffix_parity(a_mask ^ b_mask)
    return _walk(n, ints, (b_mask & ~a_mask) << n | col0, full & ~(a_mask | b_mask), flips, (col0 & flips).bit_count())


def _unit_spot(n: int, ints, k: int):
    """The _walk of the unit E_{rc} at flat cell k = r * 2^n + c over the monomial indices.

    E_{rc} is the monomial (full & ~r, full & ~c) with sign
    (-1)^(p(p-1)/2) for p = popcount(c), times (-1)^popcount(c & sp(r)),
    times (1 - ab) at each index of r & c.  Each subset s of r & c moves its
    term from a_mask * 2^n + b_mask by s * (2^n + 1), with sign
    (-1)^popcount(s).
    """
    full = (1 << n) - 1
    r, c = k >> n, k & full
    odd = (c.bit_count() >> 1) + (c & _suffix_parity(r)).bit_count()
    return _walk(n, ints, (full ^ r) << n | (full ^ c), r & c, full, odd)


def _reverse_spot(n: int, ints, k: int):
    """The _walk of the reversed word of monomial index k = a_mask * 2^n + b_mask over the monomial indices.

    Each a_i b_i of the word reverses to b_i a_i = 1 - a_i b_i, and its p
    single letters reverse with sign (-1)^(p(p-1)/2).  a_i b_i is even, so
    it drops into its slot of the canonical word without a sign: each
    subset s of the pairs P = A & B gives the term (A ^ P) | s, (B ^ P) | s,
    s * (2^n + 1) past the one of s = 0, with sign (-1)^popcount(s).
    """
    full = (1 << n) - 1
    pairs = k >> n & k
    return _walk(n, ints, k ^ pairs * (full + 2), pairs, full, ((k >> n ^ k) & full).bit_count() >> 1)


class _Targets(dict):
    """{index k: (add, sub)}, the indices an entry at k adds itself to and subtracts itself from.

    spot(n, ints, k) walks them.  A key is expanded on first use and kept;
    keys and targets are read from ints, as in _walk.
    """

    __slots__ = ("n", "ints", "spot")

    def __init__(self, n: int, ints, spot):
        super().__init__()
        self.n, self.ints, self.spot = n, ints, spot

    def __missing__(self, k: int):
        targets = self[self.ints[k]] = self.spot(self.n, self.ints, k)
        return targets


@cache
def _tables(n: int) -> SimpleNamespace:
    """The matrix bridge's signed-target tables at rank n, at most 4^n keys each, every key filled on first use and kept.

    cells maps a monomial index to the cells its spectral matrix fills
    (_to_cells) and units a cell to the monomial indices its unit reads back
    to (_from_cells).  Both share the ints of ints, list(range(4^n)), as
    large as the spectral matrices the bridge builds anyway.
    """
    ints = list(range(1 << 2 * n))
    return SimpleNamespace(ints=ints, cells=_Targets(n, ints, _mono_spot), units=_Targets(n, ints, _unit_spot))


class _Ints(dict):
    """{i: i}, each int stored on first use: ints to share without a list of all 4^n."""

    __slots__ = ()

    def __missing__(self, i: int) -> int:
        self[i] = i
        return i


@cache
def _reverse_table(n: int) -> _Targets:
    """{monomial index: the (add, sub) monomial indices of its reversed word} at rank n, filled on first use.

    Its ints are only those used, so a sparse reversal builds no 4^n list.
    """
    return _Targets(n, _Ints(), _reverse_spot)


class _Keys(dict):
    """{monomial index k: WittMonomial(n, k >> n, k & (2^n - 1))}, each key built on first use and kept."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, k: int) -> WittMonomial:
        n = self.n
        mono = self[k] = WittMonomial(n, k >> n, k & ((1 << n) - 1))
        return mono


@cache
def _keys(n: int) -> _Keys:
    """The rank-n WittMonomial keys by monomial index, shared by every result.

    Only the keys read back are built, so a sparse result at a high rank
    builds no 4^n list.
    """
    return _Keys(n)


@cache
def _gather(n: int):
    """(flat, signs, order) of _unit_passes at rank n, built by doubling.

    flat[i] is the flat cell at interleaved place i and signs[i] its sign;
    order[k] is the interleaved place of flat index k.
    """
    size = 1 << n
    # parity[i] is (-1)^popcount(c) of the cell at place i
    flat, signs, parity, order = [0], [1], [1], [0]
    for j in range(n):
        c_bit, r_bit = 1 << j, size << j
        # index j goes on top: t = 2 r_j + c_j picks a run, and r_j != c_j
        # flips the suffix parity of every lower index
        flat = [*flat, *map(add, flat, repeat(c_bit)), *map(add, flat, repeat(r_bit)),
                *map(add, flat, repeat(r_bit | c_bit))]
        flipped = list(map(mul, signs, parity))
        signs = [*signs, *flipped, *flipped, *signs]
        negated = list(map(neg, parity))
        parity = [*parity, *negated, *parity, *negated]
        order = [*order, *map(add, order, repeat(1 << 2 * j))]
    for j in range(n):
        order = [*order, *map(add, order, repeat(2 << 2 * j))]
    ints = _tables(n).ints
    return list(map(ints.__getitem__, flat)), signs, list(map(ints.__getitem__, order))


def _scatter(size: int, targets: _Targets, keys, re, im):
    """Spread numerators over flat (re, im) lists of size * size integers; im is None on the real path.

    The k-th numerator of re (and of im) is added at every target of
    targets[keys[k]]'s add and subtracted at every target of its sub.
    """
    out_re = [0] * (size * size)
    if im is None:
        for (plus, minus), x in zip(map(targets.__getitem__, keys), re):
            for k in plus:
                out_re[k] += x
            for k in minus:
                out_re[k] -= x
        return out_re, None
    out_im = [0] * (size * size)
    for (plus, minus), x, y in zip(map(targets.__getitem__, keys), re, im):
        for k in plus:
            out_re[k] += x
            out_im[k] += y
        for k in minus:
            out_re[k] -= x
            out_im[k] -= y
    return out_re, out_im


def _to_cells(n: int, keys, re, im):
    """The spectral matrix of the terms at keys as flat integer lists (re, im), cell (row, col) at row * 2^n + col.

    keys, re and im are as from _lifted_terms; im is None on the real path,
    and so is the returned one.  Each monomial scatters through its targets
    in _tables(n).cells (_mono_spot).
    """
    return _scatter(1 << n, _tables(n).cells, keys, re, im)


def _unit_passes(n: int, re, im):
    """(re, im) summed over the units of every cell in n Kronecker passes; the flat lists the scatter gives.

    Per index the cells E00, E01, E10, E11 (row bit, column bit) read back as
    ab, a, b and 1 - ab, so 1 <- E11, b <- E10, a <- E01 and ab <- E00 - E11,
    after one sign per cell, (-1)^popcount(c & sp(r ^ c)), which equals the
    base sign of _unit_spot.  The cells are gathered into interleaved order,
    r_j and c_j at bits 2j + 1 and 2j, where a pass maps the four strided
    slices of the lowest index to four contiguous runs, so that index moves
    to the top bits; after n passes every index is back in place, now as
    (a_j, b_j), and the list is gathered to a_mask * 2^n + b_mask (Davio
    1981; Pease 1968).  The gather orders and the signs are _gather(n); im
    is None on the real path.
    """
    flat, signs, order = _gather(n)

    def passes(cells):
        v = list(map(mul, map(cells.__getitem__, flat), signs))
        for _ in range(n):
            v0, v3 = v[0::4], v[3::4]
            v = v3 + v[2::4] + v[1::4] + list(map(sub, v0, v3))
        return list(map(v.__getitem__, order))

    return passes(re), (None if im is None else passes(im))


def _from_cells(n: int, re, im, den: int, complexified: bool) -> "Multivector":
    """The element whose spectral matrix holds (re[k] + im[k]*i) / den at flat index k = row * 2^n + col.

    im is None on the real path.  Past three quarters of the 4^n cells
    nonzero, every cell goes through the n passes of _unit_passes; below
    that only the nonzero cells are scattered, through _tables(n).units
    (_unit_spot).  Either way the sums land at the monomial indices
    a_mask * 2^n + b_mask; zero sums are dropped, and the rest go to
    _monomials in one batch.
    """
    size = 1 << n
    cells = list(compress(range(size * size), re if im is None else map(or_, re, im)))
    if 4 * len(cells) > 3 * size * size:
        out_re, out_im = _unit_passes(n, re, im)
    else:
        out_re, out_im = _scatter(size, _tables(n).units, cells, list(map(re.__getitem__, cells)),
                                  None if im is None else list(map(im.__getitem__, cells)))
    ks = list(compress(range(size * size), out_re if im is None else map(or_, out_re, out_im)))
    out_im = None if im is None else list(map(out_im.__getitem__, ks))
    terms = _monomials(n, ks, _scalars(list(map(out_re.__getitem__, ks)), out_im, den))
    return Multivector._make(n, terms, complexified)


class Multivector:
    """Finite GaussianRational combination of canonical monomials at a fixed rank."""

    __slots__ = ("n", "complexified", "_terms")

    def __init__(self, n: int, terms=None, complexified: bool = False):
        if n < 0:
            raise InputError("rank must be nonnegative")
        clean: dict[WittMonomial, GaussianRational] = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(mono, WittMonomial):
                mono = WittMonomial(*mono)
            if mono.n != n:
                raise DimensionMismatch(f"monomial rank {mono.n} inside rank-{n} element")
            if mono.a_mask >> n or mono.b_mask >> n:
                raise InputError(f"monomial index out of range for rank {n}")
            c = _as_scalar(coeff)
            if c.is_zero():
                continue
            if not complexified and not c.is_real():
                raise InputError("imaginary coefficient in a non-complexified element")
            clean[mono] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "complexified", bool(complexified))
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        return Multivector, (self.n, self._terms, self.complexified)

    # -- inspection ---------------------------------------------------------

    def terms(self):
        """Term pairs sorted by (a_mask, b_mask)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def coeff(self, mono: WittMonomial) -> GaussianRational:
        return self._terms.get(mono, GaussianRational.ZERO)

    def scalar_part(self) -> GaussianRational:
        return self.coeff(WittMonomial(self.n, 0, 0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(m.a_mask == 0 and m.b_mask == 0 for m in self._terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = scalar_mv(self.n, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        if self.is_scalar():
            return hash(self.scalar_part())
        return hash((self.n, frozenset(self._terms.items())))

    # -- linear structure -----------------------------------------------------

    def _check_rank(self, other: "Multivector"):
        if self.n != other.n:
            raise DimensionMismatch(f"rank {self.n} vs rank {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = scalar_mv(self.n, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_rank(other)
        terms = _collect(chain(self._terms.items(), other._terms.items()))
        return self._make(self.n, terms, self.complexified or other.complexified)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Multivector) else -_as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Multivector":
        c = _as_scalar(c)
        comp = self.complexified or not c.is_real()
        if c.is_zero():
            return self._make(self.n, {}, comp)
        return self._make(self.n, {m: c * v for m, v in self._terms.items()}, comp)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_rank(other)
        n = self.n
        cplx = self._has_imag() or other._has_imag()
        d1, *left = _lifted_terms(self, cplx)
        d2, *right = _lifted_terms(other, cplx)
        comp = self.complexified or other.complexified
        bound = max(_BRIDGE_PER_CELL * 4**n, _BRIDGE_FLOOR)
        # no more terms are live than there are pairs, so the count is skipped below that
        if len(self._terms) * len(other._terms) > bound and _live_count(n, left[0], right[0]) > bound:
            size = 1 << n
            re, im = _flat_product(_to_cells(n, *left), _to_cells(n, *right), size, size)
            return _from_cells(n, re, im, d1 * d2, comp)
        return self._make(n, _product_sum(n, left, right, d1 * d2, cplx), comp)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    @classmethod
    def _make(cls, n, terms, complexified) -> "Multivector":
        mv = object.__new__(cls)
        object.__setattr__(mv, "n", n)
        object.__setattr__(mv, "complexified", complexified)
        object.__setattr__(mv, "_terms", terms)
        return mv

    def _has_imag(self) -> bool:
        return _any_imag(self._terms.values())

    def complexify(self) -> "Multivector":
        return self._make(self.n, dict(self._terms), True)

    # -- involutions ------------------------------------------------------------
    # The formal imaginary unit has grade 2n+1, so reversal conjugates it for
    # odd n only, while the grade involution always conjugates it.

    def reverse(self) -> "Multivector":
        return _reversed(self, self.n % 2 == 1, False)

    def grade_involution(self) -> "Multivector":
        acc = {}
        for m, c in self._terms.items():
            c = c.conjugate()
            acc[m] = -c if m.degree % 2 else c
        return self._make(self.n, acc, self.complexified)

    def clifford_conj(self) -> "Multivector":
        # the grade involution, then reversal: i is conjugated once for even n
        return _reversed(self, self.n % 2 == 0, True)

    # -- blade view ---------------------------------------------------------------

    def to_blades(self) -> dict[BladeMonomial, GaussianRational]:
        return _collect(
            (BladeMonomial(self.n, em, fm), c * w)
            for m, c in self._terms.items()
            for (em, fm), w in _mono_to_blades(m.a_mask, m.b_mask)
        )

    def grade_project(self, k: int) -> "Multivector":
        kept = {bl: c for bl, c in self.to_blades().items() if bl.grade == k}
        return from_blade_basis(self.n, kept, complexified=self.complexified)

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({bl.grade for bl in self.to_blades()}))

    # -- text and JSON ----------------------------------------------------------

    def pretty(self) -> str:
        return _format_sum(((m.pretty(), c) for m, c in self.terms()), " ")

    def __repr__(self):
        return f"Multivector[{self.n}]({self.pretty()})"

    def to_json(self):
        return {
            "n": self.n,
            "complex": self.complexified,
            "terms": [
                {
                    "a": list(_mask_indices(m.a_mask)),
                    "b": list(_mask_indices(m.b_mask)),
                    "coeff": str(c),
                }
                for m, c in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Multivector":
        try:
            n = data["n"]
            complexified = data.get("complex", False)
            raw = data["terms"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"multivector JSON missing field: {exc}") from exc
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InputError("multivector JSON has a bad rank")
        if not isinstance(complexified, bool):
            raise InputError(f"multivector JSON flag \"complex\" must be true or false, not {complexified!r}")
        if not isinstance(raw, list):
            raise InputError("multivector JSON \"terms\" must be an array")
        terms: dict[WittMonomial, GaussianRational] = {}
        for entry in raw:
            try:
                coeff = GaussianRational.parse(entry["coeff"])
                key = WittMonomial(n, _json_mask(n, entry.get("a", [])), _json_mask(n, entry.get("b", [])))
            except (TypeError, KeyError, AttributeError) as exc:
                raise InputError(f"bad term entry {entry!r}") from exc
            terms[key] = terms.get(key, GaussianRational.ZERO) + coeff
        return cls(n, terms, complexified=complexified)


def _json_mask(n: int, indices) -> int:
    """Bit mask of a JSON index list; each index must be a distinct integer in 1..n."""
    mask = 0
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= n:
            raise InputError(f"index {i!r} is not an integer in 1..{n}")
        if mask >> (i - 1) & 1:
            raise InputError(f"index {i} repeated in one term")
        mask |= 1 << (i - 1)
    return mask


# ---------------------------------------------------------------------------
# constructors


def zero(n: int) -> Multivector:
    return Multivector(n, {})


def one(n: int) -> Multivector:
    return Multivector(n, {WittMonomial(n, 0, 0): GaussianRational.ONE})


def scalar_mv(n: int, c, complexified: bool | None = None) -> Multivector:
    c = _as_scalar(c)
    if complexified is None:
        complexified = not c.is_real()
    return Multivector(n, {WittMonomial(n, 0, 0): c}, complexified=complexified)


def _check_index(n: int, i: int):
    if not 1 <= i <= n:
        raise InputError(f"generator index {i} out of range for rank {n}")


def a(n: int, i: int) -> Multivector:
    _check_index(n, i)
    return Multivector(n, {WittMonomial(n, 1 << (i - 1), 0): 1})


def b(n: int, i: int) -> Multivector:
    _check_index(n, i)
    return Multivector(n, {WittMonomial(n, 0, 1 << (i - 1)): 1})


def e(n: int, i: int) -> Multivector:
    """Unit-square vector e_i = a_i + b_i."""
    return a(n, i) + b(n, i)


def f(n: int, i: int) -> Multivector:
    """Negative-square vector f_i = a_i - b_i."""
    return a(n, i) - b(n, i)


def u(n: int, i: int) -> Multivector:
    """Idempotent u_i = a_i b_i."""
    _check_index(n, i)
    bit = 1 << (i - 1)
    return Multivector(n, {WittMonomial(n, bit, bit): 1})


def u_dag(n: int, i: int) -> Multivector:
    """Complementary idempotent u_i^dagger = b_i a_i = 1 - a_i b_i."""
    return one(n) - u(n, i)


def u_all(n: int) -> Multivector:
    """Primitive idempotent u_1 u_2 ... u_n."""
    full = (1 << n) - 1
    return Multivector(n, {WittMonomial(n, full, full): 1})


def u_all_dag(n: int) -> Multivector:
    out = one(n)
    for i in range(1, n + 1):
        out = out * u_dag(n, i)
    return out


def wedge_ab(n: int, i: int) -> Multivector:
    """The commutator blade a_i ^ b_i = a_i b_i - 1/2."""
    return u(n, i) - scalar_mv(n, Fraction(1, 2))


_TOKEN_KINDS = {"a": 0, "b": 1, 0: 0, 1: 1}


def _parse_token(tok):
    if isinstance(tok, tuple) and len(tok) == 2:
        idx, kind = tok
        # True and 1.0 equal 1, so the types are checked before the values
        if type(idx) is int and type(kind) in (int, str) and kind in _TOKEN_KINDS:
            return idx, _TOKEN_KINDS[kind], 1
        raise InputError(f"bad generator token {tok!r}: a pair is an int index and a kind 0, 1, \"a\" or \"b\"")
    if isinstance(tok, str):
        s = tok.strip()
        sign = 1
        if s.startswith("-"):
            sign = -1
            s = s[1:]
        elif s.startswith("+"):
            s = s[1:]
        if len(s) >= 2 and s[0] in _TOKEN_KINDS and s[1:].isascii() and s[1:].isdigit():
            return int(s[1:]), _TOKEN_KINDS[s[0]], sign
    raise InputError(f"bad generator token {tok!r}")


def reduce_word(n: int, word: Iterable) -> Multivector:
    """The product w_1 * w_2 * ... of signed generators, in canonical form.

    Tokens may be strings like "a1", "-b2" or pairs (index, kind) with kind
    "a"/"b" or 0/1; the empty word gives 1.
    """
    out = one(n)
    total_sign = 1
    for tok in word:
        idx, kind, sign = _parse_token(tok)
        _check_index(n, idx)
        total_sign *= sign
        out = out * (b if kind else a)(n, idx)
    return out if total_sign > 0 else -out


# ---------------------------------------------------------------------------
# blade basis conversion: e_i = a_i + b_i, f_i = a_i - b_i with e_i^2 = 1,
# f_i^2 = -1, all generators anticommuting; blade order is e's ascending then
# f's ascending.


def from_blade_basis(n: int, blade_terms, complexified: bool = False) -> Multivector:
    blades = []
    for bl, c in blade_terms.items():
        if not isinstance(bl, BladeMonomial):
            bl = BladeMonomial(*bl)
        if bl.n != n:
            raise DimensionMismatch(f"blade rank {bl.n} inside rank-{n} element")
        blades.append((bl, _as_scalar(c)))
    terms = _collect(
        (WittMonomial(n, am, bm), c * w)
        for bl, c in blades
        for (am, bm), w in _blade_to_monos(bl.e_mask, bl.f_mask)
    )
    any_imag = any(not c.is_real() for _, c in blades)
    return Multivector(n, terms, complexified=complexified or any_imag)
