"""Reference implementations the library is tested against.

reduce_tokens is the word-rewriting engine that defined the monomial product
before the closed-form kernels; the closed forms and reduce_word are checked
against it.  mono_mul is the closed-form product of one monomial pair, with
its own expansion of the b.a = 1 - ab branches, as it was before the library
grouped the factors to skip vanishing pairs.  _mono_matrix_entries lists
one monomial's matrix entries as ((row, col), +-1) pairs, as to_matrix did
before it moved to index arithmetic on flat lists.  The three functions
after it are the product and the matrix bridge as they were before integer
lifting: every pair of terms is visited and every term is a GaussianRational
product, summed per key.  The lifted, grouped versions must match them byte
for byte.

reverse is Multivector.reverse as it was before it summed lifted integer
numerators: each reversed term is a GaussianRational, conjugated at odd
rank, and the terms are summed per monomial.  Applied to the grade
involution it is clifford_conj as it was then.  Its words come from
_mono_reverse, and spectral_unit's from _unit_terms: the word expansions
the library used before it kept per-rank tables of signed targets, kept
here with their own helpers so that no oracle runs the code it checks.

scalar is the one-coefficient builder the library used before it built
result coefficients in batches (exact._scalars): GaussianRational.ZERO for a
zero entry, otherwise Fraction(re, den) and Fraction(im, den).

scatter, mono_spots and unit_spots are the matrix bridge's flat-list
scatter as it was before the bridge kept per-rank tables of signed targets
(witt._tables): each spot's subsets are walked on every call.
mono_spots are the spots of witt._to_cells, unit_spots those of
witt._from_cells' scatter.

live_count is witt._live_count as it was before it counted with bitsets:
a subset sum over the 4^n masks of the right factor's groups, read by each
left term at the complement of its group.

flat_product is the integer matrix product cell by cell, one plain sum of
products per entry, as exact._flat_product computed it before it packed
whole rows into single integers.

The last four are the elimination layer in GaussianRational arithmetic:
Gauss-Jordan, row-by-column products, and inverse and min_poly as they were
before they ran on integers, an rref of [A | I] and one linear solve per
power of A, here run on the first two.
"""

from fractions import Fraction
from operator import add

from wittmat import DimensionMismatch, DomainError, ExactMatrix, GaussianRational, Multivector, RationalPolynomial, WittMonomial


def _sign(x: int) -> int:
    """(-1) ** popcount(x)."""
    return -1 if x.bit_count() & 1 else 1


def _suffix_parity(m: int) -> int:
    """Bit j is the parity of the bits of m above bit j, one bit at a time."""
    out, parity = 0, 0
    for j in reversed(range(m.bit_length())):
        if parity:
            out |= 1 << j
        parity ^= m >> j & 1
    return out


def _subsets(mask: int):
    """Every submask of mask, from mask itself down to 0."""
    s = mask
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & mask


def _reversal_sign(k: int) -> int:
    """(-1) ** (k(k-1)/2), the sign of reversing k anticommuting letters."""
    return -1 if k & 2 else 1


def reduce_tokens(tokens: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
    """Rewrite a word of (index, kind) tokens, kind 0 for a and 1 for b, into
    canonical monomials with integer weights."""
    out: dict[tuple[int, int], int] = {}
    stack = [(list(tokens), 1)]
    while stack:
        word, sign = stack.pop()
        i = 0
        while i + 1 < len(word):
            t1, t2 = word[i], word[i + 1]
            if t1 == t2:  # N1: null square kills the branch
                sign = 0
                break
            if t1[0] == t2[0]:
                if t1[1] == 1:  # b_i a_i -> 1 - a_i b_i
                    stack.append((word[:i] + word[i + 2 :], sign))
                    word[i], word[i + 1] = t2, t1
                    sign = -sign
                    i = max(i - 1, 0)
                    continue
                i += 1  # a_i b_i is canonical
                continue
            if t1[0] > t2[0]:  # N2 distinct indices: anticommute
                word[i], word[i + 1] = t2, t1
                sign = -sign
                i = max(i - 1, 0)
                continue
            i += 1
        if sign:
            a_mask = b_mask = 0
            for idx, kind in word:
                if kind:
                    b_mask |= 1 << (idx - 1)
                else:
                    a_mask |= 1 << (idx - 1)
            key = (a_mask, b_mask)
            tot = out.get(key, 0) + sign
            if tot:
                out[key] = tot
            else:
                del out[key]
    return out


def _with_idempotents(a_mask: int, b_mask: int, sites: int, sign: int):
    """sign * (a_mask, b_mask) * prod over sites of (1 - a_i b_i), as ((a, b), +-1) terms."""
    return [((a_mask | s, b_mask | s), -sign if s.bit_count() & 1 else sign) for s in _subsets(sites)]


def _mono_reverse(a_mask: int, b_mask: int):
    """The reversed word of (a_mask, b_mask) as ((a_mask, b_mask), +-1) terms."""
    pairs = a_mask & b_mask  # each a_i b_i reverses to b_i a_i = 1 - a_i b_i
    sign = _reversal_sign((a_mask ^ b_mask).bit_count())
    return _with_idempotents(a_mask & ~pairs, b_mask & ~pairs, pairs, sign)


def _unit_terms(n: int, row: int, col: int):
    """Spectral unit E_{row,col} as ((a_mask, b_mask), +-1) terms."""
    full = (1 << n) - 1
    sign = _reversal_sign(col.bit_count()) * _sign(col & _suffix_parity(row))
    return _with_idempotents(full & ~row, full & ~col, row & col, sign)


def mono_mul(a1: int, b1: int, a2: int, b2: int):
    """(a1, b1) * (a2, b2) as ((a_mask, b_mask), +-1) terms; empty when it vanishes."""
    if a1 & ~b1 & a2 or b1 & b2 & ~a2:  # a.a or b.b meet at some index
        return []
    first_a = a1 | (a2 & ~b1)
    last_b = b2 | (b1 & ~a2)
    branch = b1 & ~a1 & a2 & ~b2  # b meets a: b.a = 1 - ab
    return _with_idempotents(first_a, last_b, branch, _sign((a2 ^ b2) & _suffix_parity(a1 ^ b1)))


def live_count(n: int, lkeys, rkeys) -> int:
    """The live monomial pairs of left * right, by a subset sum over a list of 4^n counts.

    The left group lone_a * 2^n + b and the right group a * 2^n + lone_b are
    live together when they share no bit, so the sum gives, at each 2n-bit
    mask, the right terms whose group lies within it.
    """
    full = (1 << n) - 1
    size = 1 << 2 * n
    within = [0] * size
    for k in rkeys:
        within[k & ~(k >> n)] += 1
    for j in range(2 * n):
        bit = 1 << j
        step = bit << 1
        if j < n:  # a bit of b: bit strided slices
            for lo in range(bit):
                within[lo + bit :: step] = map(add, within[lo + bit :: step], within[lo::step])
        else:  # a bit of a: size // step runs of whole rows
            for lo in range(0, size, step):
                within[lo + bit : lo + step] = map(add, within[lo + bit : lo + step], within[lo : lo + bit])
    top = size - 1
    return sum(within[top ^ (k & ~((k & full) << n))] for k in lkeys)


def _mono_matrix_entries(n: int, a_mask: int, b_mask: int):
    """Spectral matrix of (a_mask, b_mask) as ((row, col), +-1) entries."""
    free = ((1 << n) - 1) & ~(a_mask | b_mask)
    row0, col0 = b_mask & ~a_mask, a_mask & ~b_mask
    flips = _suffix_parity(a_mask ^ b_mask)
    return [((row0 | s, col0 | s), _sign((col0 | s) & flips)) for s in _subsets(free)]


def _sum_signed(items) -> dict:
    """Sum +-c over (key, c, +-1) items by key, dropping zero sums."""
    acc = {}
    for key, c, s in items:
        term = c if s > 0 else -c
        acc[key] = acc[key] + term if key in acc else term
    return {key: c for key, c in acc.items() if not c.is_zero()}


def mul(g: Multivector, h: Multivector) -> Multivector:
    n = g.n
    terms = _sum_signed(
        (WittMonomial(n, *key), c1 * c2, s)
        for m1, c1 in g.terms()
        for m2, c2 in h.terms()
        for key, s in mono_mul(m1.a_mask, m1.b_mask, m2.a_mask, m2.b_mask)
    )
    return Multivector(n, terms, complexified=g.complexified or h.complexified)


def to_matrix(g: Multivector) -> ExactMatrix:
    size = 1 << g.n
    cells = _sum_signed(
        (cell, c, s) for m, c in g.terms() for cell, s in _mono_matrix_entries(g.n, m.a_mask, m.b_mask)
    )
    zero = GaussianRational.ZERO
    return ExactMatrix([[cells.get((r, c), zero) for c in range(size)] for r in range(size)])


def from_matrix(M: ExactMatrix, n: int, complexified: bool | None = None) -> Multivector:
    terms = _sum_signed(
        (WittMonomial(n, *key), x, s)
        for r, row in enumerate(M.cells)
        for c, x in enumerate(row)
        if x
        for key, s in _unit_terms(n, r, c)
    )
    if complexified is None:
        complexified = any(not x.is_real() for row in M.cells for x in row)
    return Multivector(n, terms, complexified=complexified)


def reverse(g: Multivector) -> Multivector:
    conj = g.n % 2 == 1
    terms = _sum_signed(
        (WittMonomial(g.n, *key), c.conjugate() if conj else c, s)
        for m, c in g._terms.items()
        for key, s in _mono_reverse(m.a_mask, m.b_mask)
    )
    return Multivector._make(g.n, terms, g.complexified)


def spectral_unit(n: int, row: int, col: int) -> Multivector:
    """E_{row,col} from the unit's terms, each coefficient +-1."""
    return Multivector(n, {WittMonomial(n, *key): s for key, s in _unit_terms(n, row, col)})


def scalar(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den through Fraction's own constructor, one coefficient at a time."""
    if not (re or im):
        return GaussianRational.ZERO
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", Fraction(re, den))
    object.__setattr__(z, "im", Fraction(im, den))
    return z


def scatter(size: int, spots, xs) -> list:
    """Spread numerators over a flat list of size * size integers.

    Each spot (base, free, flips, odd), with its numerator x of xs, adds +-x
    at base + s * (size + 1) for every submask s of free, negated when
    odd + popcount(s & flips) is odd.
    """
    out = [0] * (size * size)
    step = size + 1
    for (base, free, flips, odd), x in zip(spots, xs):
        if odd & 1:
            x = -x
        s = free
        while True:
            if (s & flips).bit_count() & 1:
                out[base + s * step] -= x
            else:
                out[base + s * step] += x
            if not s:
                break
            s = (s - 1) & free
    return out


def mono_spots(n: int, masks) -> list:
    """The scatter spot of each (a_mask, b_mask) of masks in its spectral matrix.

    Monomial (A, B) has one entry for each subset s of the indices outside
    A | B, at row (B & ~A) | s and column c = (A & ~B) | s, with sign
    (-1)^popcount(c & sp(A ^ B)).
    """
    size = 1 << n
    full = size - 1
    spots = []
    for a_mask, b_mask in masks:
        col0, flips = a_mask & ~b_mask, _suffix_parity(a_mask ^ b_mask)
        spots.append(((b_mask & ~a_mask) * size + col0, full & ~(a_mask | b_mask), flips, (col0 & flips).bit_count()))
    return spots


def unit_spots(n: int, cells) -> list:
    """The scatter spot of the unit E_{rc} at each flat index k = r * 2^n + c of cells.

    E_{rc} is the monomial (full & ~r, full & ~c) with sign
    (-1)^(k(k-1)/2) for k = popcount(c), times (-1)^popcount(c & sp(r)),
    times (1 - ab) at each index of r & c, each subset s of r & c with sign
    (-1)^popcount(s).
    """
    size = 1 << n
    full = size - 1
    spots = []
    for k in cells:
        r, c = k >> n, k & full
        spots.append(((full ^ r) * size + (full ^ c), r & c, full, (c.bit_count() >> 1) + (c & _suffix_parity(r)).bit_count()))
    return spots


def flat_product(left, right, inner: int, width: int):
    """Flat row-major (re, im) integer matrices, left with inner columns, multiplied cell by cell.

    im is None on a real side, and in the product exactly when both sides' are.
    """
    (lre, lim), (rre, rim) = left, right
    li, ri = lim or [0] * len(lre), rim or [0] * len(rre)
    re, im = [], []
    for i in range(len(lre) // inner):
        for j in range(width):
            pairs = [(i * inner + k, k * width + j) for k in range(inner)]
            re.append(sum(lre[a] * rre[b] - li[a] * ri[b] for a, b in pairs))
            im.append(sum(lre[a] * ri[b] + li[a] * rre[b] for a, b in pairs))
    return re, (None if lim is None and rim is None else im)


def oracle_rref(M: ExactMatrix):
    """Gauss-Jordan over GaussianRational, leftmost pivot, first nonzero row."""
    m = [list(row) for row in M.cells]
    pivots = []
    r = 0
    for c in range(M.cols):
        if r == M.rows:
            break
        pr = next((i for i in range(r, M.rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(M.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(m), tuple(pivots)


def oracle_mul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Row-by-column GaussianRational dot products."""
    ocols = list(zip(*B.cells))
    return ExactMatrix([[sum((a * b for a, b in zip(row, col)), GaussianRational.ZERO) for col in ocols]
                        for row in A.cells])


def oracle_inverse(A: ExactMatrix) -> ExactMatrix:
    """The right half of the rref of [A | I]."""
    if not A.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = A.rows
    red, pivots = oracle_rref(ExactMatrix([list(A.cells[i]) + [int(j == i) for j in range(n)] for i in range(n)]))
    if pivots != tuple(range(n)):
        raise DomainError("matrix is singular")
    return ExactMatrix([red.cells[i][n:] for i in range(n)])


def oracle_min_poly(A: ExactMatrix) -> RationalPolynomial:
    """Solve for A^k over I, A, ..., A^(k-1), for k = 1, 2, ..., until it is consistent."""
    if not A.is_square:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    size = A.rows * A.rows
    powers = [[x for row in ExactMatrix.identity(A.rows).cells for x in row]]
    current = A
    while True:
        target = [x for row in current.cells for x in row]
        k = len(powers)
        red, pivots = oracle_rref(ExactMatrix([[p[i] for p in powers] + [target[i]] for i in range(size)]))
        if k not in pivots:  # consistent: A^k = sum of red[j][k] A^j
            return RationalPolynomial([-red.cells[j][k] for j in range(k)] + [1])
        powers.append(target)
        current = oracle_mul(current, A)
