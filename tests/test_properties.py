"""Property tests of the algebra laws at ranks 1..4, of both product paths at ranks 1..6, and of the elimination layer.

The integer-lifted product and matrix bridge are compared byte for byte with
the GaussianRational oracles in oracles.py; the laws are checked on the
library alone.  Coefficients are small or tall (12-digit numerators) rationals,
with imaginary parts on complexified elements; the zero element and
single-term elements are drawn on purpose.  Dense elements, up to the full
basis, put many monomials in each group of the product kernel, so the b.a
branch is reached inside multi-term groups.  Seeded rank-5 elements of 100
terms (small, tall and complex coefficients) are the dense products the
benchmark times, and a pure-b element times a pure-a element branches at
every index the two share.  Each product is also run down both of its paths,
the kernel and the matrix bridge, by moving the bridge thresholds, at ranks
1..6; a full-density rank-6 product must take the bridge within a bounded
peak of traced memory.  reverse and clifford_conj are compared with the
GaussianRational reversal of oracles.py at ranks 0..6, and the Kronecker
passes that read a nearly full spectral matrix back with the per-cell
scatter of oracles.py, on each side of the line between them.  Everything
kept per rank is one table, witt._rank(n), of lazy maps over one int pool.
Its signed targets (cells, units) are compared with that scatter's subset
loop, its reversed words (reverse) with the oracle's, and its b.a
expansions of kernel keys (sites) with the oracle's, at every monomial and
every cell at ranks 0..5 and a sample at rank 6, cold, warm, and cold again
with the four maps filled in a shuffled order; a full rank-6 fill of the
first three and the passes' gather, and one of sites, must each stay within
a bounded amount of traced memory, and after a full rank-5 fill every kept
index must be the pool's own int.  A round trip at ranks 8 and 9, and a
kernel product at rank 9, must leave little traced memory kept, and so must
a full complex rank-6 element once lifted and dropped; work at rank 8 must
let rank 7's table go while ranks 0..6 keep theirs.  An element's integer
lift, kept after its first use, must be invisible: every reader (either
factor of a product with a real and a complex partner, reverse,
clifford_conj, to_matrix), called in a drawn order at ranks 0..6 on each
side of the bridge bound, must give what it gives on fresh pickled copies,
the kept lift must equal exact._lift over the coefficients and stay so, an
element must lift once, and results and copies carry no lift.  Kernel
products whose b.a sites include index n, the top bit of the kernel's sums,
are checked at ranks 1..6.  The kernel's live count, which picks the path, is compared with
the subset sum of oracles.py at ranks 0..7 and must stay within a bounded
peak at rank 9.  A Multivector keys its terms by the index
a_mask * 2^n + b_mask: every key an element holds, after every constructor
and operation, must be an int index below 4^n with a nonzero coefficient
held in normal form, ints (a + b*i) / d with d > 0 and gcd(a, b, d) == 1;
terms() and coeff() must read every index at ranks 0..5, and a sample at
rank 6, as the WittMonomial of its masks; and terms(), coeff() (foreign
keys included), scalar_part, is_scalar, to_json and hash must match a
WittMonomial-keyed oracle.  A pickle made when the terms were keyed by
WittMonomial must load equal.
Parametrized property tests call a module-level @given check with their
parameter, so they also run without Hypothesis' pytest plugin.

ExactMatrix.inverse and min_poly are compared byte for byte with the
GaussianRational oracles on square matrices of sizes 1..8 and on the shapes
that reach their special cases: zero leading entries that force row swaps,
singular matrices, low rank, nilpotent Jordan blocks, permutations,
diagonals with repeated eigenvalues, 1x1, zero and identity matrices.

Spectral matrices in the flat integer form that to_matrix hands over are
compared with their eager copies, ExactMatrix(M.cells), at ranks 0..6 under
every reader: equality, hashing, copies, text forms, elimination, min_poly,
from_matrix and products in each mix of the two forms.
"""

import copy
import gc
import json
import pickle
import random
import tracemalloc
import weakref
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import assert_normal, rand_matrix
from wittmat import exact, witt
from wittmat import (
    BladeMonomial,
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    GaussianRational,
    InputError,
    Multivector,
    RationalPolynomial,
    WittMonomial,
    a,
    block_assemble,
    block_split,
    from_blade_basis,
    from_matrix,
    min_poly,
    one,
    scalar_mv,
    spectral_unit,
    to_matrix,
    u,
    u_dag,
    zero,
)

RANKS = st.integers(1, 4)
SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
TALL = st.builds(Fraction, st.integers(-(10**12) + 1, 10**12 - 1), st.integers(1, 10**6))
PARTS = st.one_of(SMALL, TALL)


def scalars(imag: bool):
    """Real scalars, or with imag some with an imaginary part too."""
    if not imag:
        return st.builds(GaussianRational, PARTS)
    return st.builds(GaussianRational, PARTS, st.one_of(st.just(0), PARTS))


@st.composite
def multivectors(draw, n: int, max_terms: int = 10):
    complexified = draw(st.booleans())
    size = draw(st.sampled_from([0, 1, None, None]))  # zero, single-term, or general
    terms = draw(
        st.dictionaries(
            st.builds(WittMonomial, st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
            scalars(complexified),
            min_size=size or 0,
            max_size=max_terms if size is None else size,
        )
    )
    return Multivector(n, terms, complexified=complexified)


@st.composite
def tuples_at_one_rank(draw, count: int, ranks=RANKS, max_terms: int = 10):
    n = draw(ranks)
    return tuple(draw(multivectors(n, max_terms)) for _ in range(count))


@st.composite
def dense_pairs(draw, ranks, max_terms: int):
    """Two elements of one rank, each with up to max_terms (at most 4^n) distinct monomials."""
    n = draw(ranks)
    size = 1 << n
    basis = [WittMonomial(n, am, bm) for am in range(size) for bm in range(size)]
    pair = []
    for _ in range(2):
        complexified = draw(st.booleans())
        k = draw(st.integers(0, min(max_terms, len(basis))))
        monos = draw(st.permutations(basis))[:k]
        coeffs = draw(st.lists(scalars(complexified), min_size=k, max_size=k))
        pair.append(Multivector(n, dict(zip(monos, coeffs)), complexified=complexified))
    return tuple(pair)


def full_basis(n: int, offset: int, complexified: bool) -> Multivector:
    """Every monomial of rank n, with distinct small coefficients."""
    size = 1 << n
    terms = {}
    for k in range(size * size):
        re = Fraction((-1) ** k * (k + offset), k + 2)
        terms[WittMonomial(n, k >> n, k & (size - 1))] = GaussianRational(re, Fraction(k + 1, 3) if complexified else 0)
    return Multivector(n, terms, complexified=complexified)


def seeded(n: int, monos, seed: int, kind: str) -> Multivector:
    """monos with seeded coefficients: small real, tall real (12-digit numerators) or small complex."""
    rng = random.Random(seed)
    top, den = (10**12 - 1, 10**6) if kind == "tall" else (9, 7)

    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, den))

    cplx = kind == "complex"
    return Multivector(n, {m: GaussianRational(part(), part() if cplx else 0) for m in monos}, complexified=cplx)


@st.composite
def matrices(draw):
    """A sparse 2^n x 2^n matrix, n in 1..4, with or without imaginary entries."""
    n = draw(RANKS)
    size = 1 << n
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            scalars(draw(st.booleans())),
            max_size=3 * size,
        )
    )
    zero = GaussianRational.ZERO
    return n, ExactMatrix([[cells.get((r, c), zero) for c in range(size)] for r in range(size)])


def as_bytes(x) -> bytes:
    return json.dumps(x.to_json()).encode()


class TestAgainstOracle:
    @given(tuples_at_one_rank(2, max_terms=16))
    def test_product(self, gh):
        g, h = gh
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @given(dense_pairs(st.integers(1, 3), max_terms=64))
    def test_dense_product(self, gh):
        g, h = gh
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @settings(max_examples=12)
    @given(dense_pairs(st.just(4), max_terms=96))
    def test_dense_product_rank_4(self, gh):
        g, h = gh
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("complexified", [False, True])
    def test_full_basis_product(self, n, complexified):
        g, h = full_basis(n, 1, complexified), full_basis(n, 100, complexified)
        for x, y in ((g, g), (g, h), (h, g)):
            assert as_bytes(x * y) == as_bytes(oracles.mul(x, y))

    @pytest.mark.parametrize("kind", ["real", "tall", "complex"])
    def test_dense_product_rank_5(self, kind):
        size = 1 << 5
        basis = [WittMonomial(5, am, bm) for am in range(size) for bm in range(size)]
        rng = random.Random(500)
        g = seeded(5, rng.sample(basis, 100), 501, kind)
        h = seeded(5, rng.sample(basis, 100), 502, kind)
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_pure_b_times_pure_a(self, n, kind):
        size = 1 << n
        g = seeded(n, [WittMonomial(n, 0, bm) for bm in range(size)], 600 + n, kind)
        h = seeded(n, [WittMonomial(n, am, 0) for am in range(size)], 700 + n, kind)
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @given(tuples_at_one_rank(1, max_terms=16))
    def test_to_matrix(self, gs):
        (g,) = gs
        assert as_bytes(to_matrix(g)) == as_bytes(oracles.to_matrix(g))

    @given(matrices(), st.sampled_from([None, True, False]))
    def test_from_matrix(self, nm, complexified):
        n, M = nm
        if complexified is False and M._lifted()[2] is not None:
            with pytest.raises(InputError):
                from_matrix(M, n, complexified=False)
            with pytest.raises(InputError):
                oracles.from_matrix(M, n, complexified=False)
            return
        assert as_bytes(from_matrix(M, n, complexified)) == as_bytes(oracles.from_matrix(M, n, complexified))


def check_involutions(g: Multivector):
    """reverse and clifford_conj against the GaussianRational reversal of oracles.py."""
    for got, want in ((g.reverse(), oracles.reverse(g)), (g.clifford_conj(), oracles.reverse(g.grade_involution()))):
        assert as_bytes(got) == as_bytes(want)
        assert got.complexified == want.complexified == g.complexified


class TestInvolutionsAgainstOracle:
    @settings(max_examples=150)
    @given(tuples_at_one_rank(1, ranks=st.integers(0, 6), max_terms=40))
    def test_sparse(self, gs):
        (g,) = gs
        check_involutions(g)

    @settings(max_examples=30)
    @given(dense_pairs(st.integers(0, 4), max_terms=256))
    def test_dense(self, gh):
        for g in gh:
            check_involutions(g)

    @pytest.mark.parametrize("n", range(7))
    def test_zero_scalar_and_full_basis(self, n):
        real = seeded(n, basis(n), 1100 + n, "real")
        cases = [
            zero(n),
            zero(n).complexify(),
            scalar_mv(n, Fraction(-5, 3)),
            scalar_mv(n, GaussianRational(Fraction(1, 2), Fraction(-2, 7))),
            real,
            real.complexify(),  # complexified with real coefficients
            seeded(n, basis(n), 1200 + n, "complex"),
            seeded(n, basis(n)[: 4 ** min(n, 4)], 1300 + n, "tall"),
        ]
        for g in cases:
            check_involutions(g)


def cell_sets(n: int, rng: random.Random):
    """(name, sorted flat cells) of a 2^n x 2^n matrix: full, one cell past the passes' line and
    exactly on it, a permutation matrix and the zero matrix."""
    size = 1 << n
    line = 3 * size * size // 4  # _from_cells runs the passes past this many nonzero cells
    perm = list(range(size))
    rng.shuffle(perm)
    return [
        ("full", list(range(size * size))),
        ("above", sorted(rng.sample(range(size * size), line + 1))),
        ("below", sorted(rng.sample(range(size * size), line))),
        ("permutation", sorted(r * size + c for r, c in enumerate(perm))),
        ("zero", []),
    ]


def cell_values(cells, size: int, cplx: bool, rng: random.Random):
    """Flat (re, im) integer lists, nonzero exactly at cells; some complex cells are purely imaginary."""
    re, im = [0] * (size * size), ([0] * (size * size) if cplx else None)
    for k in cells:
        x = rng.choice((-1, 1)) * rng.randint(1, rng.choice((9, 2**70)))
        if not cplx:
            re[k] = x
            continue
        im[k] = rng.choice((0, x, -rng.randint(1, 99)))
        re[k] = rng.choice((0, -x)) if im[k] else x
    return re, im


class TestUnitPasses:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_passes_match_the_scatter(self, n, cplx):
        rng = random.Random(1400 + 2 * n + cplx)
        size = 1 << n
        for name, cells in cell_sets(n, rng):
            re, im = cell_values(cells, size, cplx, rng)
            spots = oracles.unit_spots(n, cells)
            want = tuple(None if xs is None else oracles.scatter(size, spots, [xs[k] for k in cells]) for xs in (re, im))
            assert witt._unit_passes(n, re, im) == want, name

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_from_matrix_takes_the_passes_past_the_line(self, n, cplx, monkeypatch):
        calls = []
        passes = witt._unit_passes
        monkeypatch.setattr(witt, "_unit_passes", lambda *args: calls.append(args[0]) or passes(*args))
        rng = random.Random(1500 + 2 * n + cplx)
        size = 1 << n
        for name, cells in cell_sets(n, rng):
            re, im = cell_values(cells, size, cplx, rng)
            entries = [GaussianRational(Fraction(x, 7), Fraction(y, 5)) for x, y in zip(re, im or [0] * len(re))]
            M = ExactMatrix([entries[r * size : (r + 1) * size] for r in range(size)])
            calls.clear()
            assert as_bytes(from_matrix(M, n)) == as_bytes(oracles.from_matrix(M, n)), name
            assert calls == ([n] if 4 * len(cells) > 3 * size * size else []), name

    @pytest.mark.parametrize("n", range(7))
    def test_full_random_gaussian_matrix(self, n):
        size = 1 << n
        M = rand_matrix(random.Random(1600 + n), size, size, complex_entries=True)
        g = from_matrix(M, n)
        assert as_bytes(g) == as_bytes(oracles.from_matrix(M, n))
        assert to_matrix(g) == M


def signed_targets(size: int, spot) -> tuple:
    """The oracle's (add, sub) flat indices of one scatter spot, each sorted."""
    out = oracles.scatter(size, [spot], [1])
    return [k for k, x in enumerate(out) if x == 1], [k for k, x in enumerate(out) if x == -1]


def reverse_spot_targets(n: int, k: int) -> list:
    """The oracle's reversed word of monomial index k as sorted (add, sub) monomial indices."""
    terms = oracles._mono_reverse(*divmod(k, 1 << n))
    return [sorted(am << n | bm for (am, bm), s in terms if s == sign) for sign in (1, -1)]


def sites_targets(n: int, key: int) -> list:
    """The oracle's expansion of a kernel key, a monomial index with its b.a sites above bit 2n, as sorted (add, sub) monomial indices."""
    a_mask, b_mask = divmod(key & ((1 << 2 * n) - 1), 1 << n)
    terms = oracles._with_idempotents(a_mask, b_mask, key >> 2 * n, 1)
    return [sorted(am << n | bm for (am, bm), s in terms if s == sign) for sign in (1, -1)]


def site_keys(n: int, keys=None, rng=None):
    """Kernel keys at rank n: every monomial index of keys (all 4^n by default) with b.a sites above bit 2n.

    Sites lie outside both masks of the index.  Without rng every nonempty
    set of such sites is taken; with it, one drawn set per index.
    """
    full = (1 << n) - 1
    for k in range(4**n) if keys is None else keys:
        free = full & ~(k >> n | k)
        if rng is not None:
            if free:
                yield k | (free & rng.getrandbits(n) or free) << 2 * n
            continue
        s = free
        while s:
            yield k | s << 2 * n
            s = (s - 1) & free


def clear_tables():
    witt._rank.cache_clear()
    witt._gather.cache_clear()


class TestBridgeTables:
    """witt._rank's cells and units against the subset loop of oracles.scatter, its reverse against the oracle's
    reversal and its sites against the oracle's b.a expansion: cold (cleared first), warm, and cold again with the
    four maps filled in a shuffled order; the int pool they share, and what high-rank work leaves kept."""

    @pytest.mark.parametrize("n", range(7))
    def test_targets_match_the_oracle(self, n):
        size = 1 << n
        rng = random.Random(1700)
        keys = range(size * size) if n < 6 else rng.sample(range(size * size), 300)
        sites = list(site_keys(n, keys, None if n < 5 else rng))
        want = {}
        for k in keys:
            (mono,) = oracles.mono_spots(n, [divmod(k, size)])
            (unit,) = oracles.unit_spots(n, [k])
            want["cells", k] = signed_targets(size, mono)
            want["units", k] = signed_targets(size, unit)
            want["reverse", k] = reverse_spot_targets(n, k)
        for k in sites:
            want["sites", k] = sites_targets(n, k)
        clear_tables()
        for state in ("cold", "warm", "shuffled"):
            if state == "shuffled":
                clear_tables()
                rank = witt._rank(n)
                for name, k in rng.sample(list(want), len(want)):
                    getattr(rank, name)[k]
            rank = witt._rank(n)
            for (name, k), targets in want.items():
                assert [sorted(side) for side in getattr(rank, name)[k]] == list(targets), (state, name, k)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_scatters_match_the_oracle(self, n, cplx):
        rng = random.Random(1800 + 2 * n + cplx)
        size = 1 << n
        clear_tables()
        for state in ("cold", "warm"):
            for name, cells in cell_sets(n, rng):
                re, im = cell_values(cells, size, cplx, rng)
                nums = ([re[k] for k in cells], [im[k] for k in cells] if cplx else None)
                for (got_re, got_im), spots in (
                    (witt._to_cells(n, cells, *nums), oracles.mono_spots(n, [divmod(k, size) for k in cells])),
                    (witt._scatter(size, witt._rank(n).units, cells, *nums), oracles.unit_spots(n, cells)),
                ):
                    assert got_re == oracles.scatter(size, spots, nums[0]), (state, name)
                    assert got_im == (oracles.scatter(size, spots, nums[1]) if cplx else None), (state, name)

    def test_full_rank_6_tables_stay_small(self):
        n = 6
        clear_tables()
        tracemalloc.start()
        try:
            rank = witt._rank(n)
            for k in range(4**n):
                rank.cells[k], rank.units[k], rank.reverse[k]
            witt._gather(n)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rank.cells) == len(rank.units) == len(rank.reverse) == 4**n
        assert grown <= 3 * 2**20, grown

    def test_full_rank_6_sites_stay_small(self):
        """Every kernel key at rank 6, 5^6 - 4^6 of them, expanded and kept, keys included."""
        n = 6
        clear_tables()
        tracemalloc.start()
        try:
            sites = witt._rank(n).sites
            for k in site_keys(n):
                sites[k]
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(sites) == 5**n - 4**n
        assert grown <= 3.5 * 2**20, grown

    def test_sparse_work_at_rank_9_builds_no_rank_table(self):
        """A kernel product with b.a sites, reversal and a spectral unit stay sparse: no list of all 4^9 indices."""
        n = 9
        top = 1 << (n - 1)
        g = Multivector(n, {WittMonomial(n, 0b101, top | 0b11): Fraction(3, 2), WittMonomial(n, 0b1, 0b1): -2})
        h = Multivector(n, {WittMonomial(n, top | 0b10, 0b100): Fraction(-1, 3), WittMonomial(n, 0, 0b110): 5})
        clear_tables()
        tracemalloc.start()
        try:
            got = g * h, g.reverse(), g.clifford_conj(), spectral_unit(n, 300, 77)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        want = oracles.mul(g, h), oracles.reverse(g), oracles.reverse(g.grade_involution()), oracles.spectral_unit(n, 300, 77)
        assert [as_bytes(x) for x in got] == [as_bytes(x) for x in want]

    def test_every_kept_index_is_the_pools_own_int(self):
        n = 5
        clear_tables()
        rank = witt._rank(n)
        maps = rank.cells, rank.units, rank.reverse
        for k in range(4**n):
            for lazy in maps:
                lazy[k]
        for k in site_keys(n):
            rank.sites[k]
        flat, _, order = witt._gather(n)
        ints = rank.ints
        assert len(ints) <= 4**n
        # a sites key lies above 4^n and is kept in its map only
        assert len(rank.sites) == 5**n - 4**n and all(k >= 4**n and k not in ints for k in rank.sites)
        kept = [k for lazy in maps for k in lazy]
        kept += [k for lazy in (*maps, rank.sites) for targets in lazy.values() for side in targets for k in side]
        for k in kept + flat + order:
            assert ints[k] is k, k

    @pytest.mark.parametrize("n", [8, 9])
    def test_high_rank_work_keeps_little(self, n):
        """A 3-term round trip, and at rank 9 a kernel product with b.a sites after it, keep under 64 KiB once done.

        At rank 8 a full complex rank-6 element, lifted by *, reverse and
        to_matrix on warm tables and then dropped, must keep under 64 KiB
        too: no state outside the element holds its lift.
        """
        full, top = (1 << n) - 1, 1 << (n - 1)
        g = Multivector(n, {WittMonomial(n, full, full ^ 1): Fraction(3, 2), WittMonomial(n, full ^ 2, full): -2,
                            WittMonomial(n, top | 0b101, full ^ 0b101): 5})
        # b2 and b9 of the first left term meet a2 and a9 of the first right term: two b.a sites
        p = Multivector(n, {WittMonomial(n, 0b101, top | 0b11): Fraction(3, 2), WittMonomial(n, 0b1, 0b1): -2})
        q = Multivector(n, {WittMonomial(n, top | 0b10, 0b100): Fraction(-1, 3), WittMonomial(n, 0, 0b110): 5})
        clear_tables()
        gc.collect()
        tracemalloc.start()
        try:
            got = [as_bytes(from_matrix(to_matrix(g), n))] + ([as_bytes(p * q)] if n == 9 else [])
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**16, kept
        assert got == [as_bytes(g), as_bytes(oracles.mul(p, q))][: len(got)]
        if n == 8:
            full, h = seeded(6, basis(6), 3500, "complex"), a(6, 1)
            warm = pickle.loads(pickle.dumps(full))
            want = [as_bytes(warm * h), as_bytes(warm.reverse()), to_matrix(warm).to_json()]
            del warm
            gc.collect()
            tracemalloc.start()
            try:
                assert [as_bytes(full * h), as_bytes(full.reverse()), to_matrix(full).to_json()] == want
                assert full._lift is not None
                del full
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert kept < 2**16, kept

    def test_only_the_latest_high_rank_stays(self):
        """Ranks up to 6 keep their tables; of the ranks above, work at rank 8 lets rank 7's go."""
        clear_tables()
        warm = [witt._rank(n) for n in range(7)]
        gathers = [witt._gather(n) for n in range(7)]
        for n in (7, 8):
            full, top = (1 << n) - 1, 1 << (n - 1)
            g = Multivector(n, {WittMonomial(n, full, full ^ 1): Fraction(3, 2), WittMonomial(n, top | 0b101, 0b10): 5})
            p = Multivector(n, {WittMonomial(n, 0b101, top | 0b11): Fraction(3, 2)})
            q = Multivector(n, {WittMonomial(n, top | 0b10, 0b100): Fraction(-1, 3)})
            # a round trip, a product with b.a sites, a reversal and the passes' gather
            got = from_matrix(to_matrix(g), n), p * q, g.reverse()
            assert [as_bytes(x) for x in got] == [as_bytes(g), as_bytes(oracles.mul(p, q)), as_bytes(oracles.reverse(g))]
            witt._gather(n)
            if n == 7:
                rank_7 = weakref.ref(witt._rank(7))
                assert len(witt._rank(7).sites) == 1
        gc.collect()
        assert rank_7() is None
        assert all(witt._rank(n) is table for n, table in enumerate(warm))
        assert all(witt._gather(n) is gather for n, gather in enumerate(gathers))
        assert witt._rank.cache_info().currsize == witt._gather.cache_info().currsize == 8


def assert_index_keyed(g: Multivector):
    """Every key of g._terms is an int index below 4^n, and every coefficient a nonzero GaussianRational.

    Each coefficient also holds ints (a + b*i) / d in the one normal form,
    d > 0 and gcd(a, b, d) == 1 (conftest.assert_normal).
    """
    assert all(type(k) is int and 0 <= k < 4**g.n for k in g._terms), list(g._terms)
    assert all(type(c) is GaussianRational and not c.is_zero() for c in g._terms.values())
    for c in g._terms.values():
        assert_normal(c)


def oracle_json(n: int, oracle: dict, complexified: bool) -> dict:
    """Multivector.to_json of the element whose terms are oracle, {WittMonomial: nonzero coefficient}."""
    def indices(mask):
        return [i + 1 for i in range(n) if mask >> i & 1]

    terms = [{"a": indices(m.a_mask), "b": indices(m.b_mask), "coeff": str(c)} for m, c in sorted(oracle.items())]
    return {"n": n, "complex": complexified, "terms": terms}


# pickle.dumps(Multivector(2, {WittMonomial(2, 1, 2): GaussianRational(Fraction(3, 2), Fraction(-1, 5)),
# WittMonomial(2, 0, 0): 7, WittMonomial(2, 3, 3): GaussianRational(0, 1)}, complexified=True), protocol=4),
# made while Multivector._terms was keyed by WittMonomial
KEYED_BY_MONOMIAL_PICKLE = bytes.fromhex(
    "800495eb000000000000008c0c776974746d61742e77697474948c0b4d756c7469766563746f729493944b027d942868008c"
    "0c576974744d6f6e6f6d69616c9493944b024b014b02879481948c0d776974746d61742e6578616374948c10476175737369"
    "616e526174696f6e616c9493948c096672616374696f6e73948c084672616374696f6e9493944b034b0286945294680d4aff"
    "ffffff4b05869452948694529468054b024b004b0087948194680a680d4b074b0186945294680d4b004b0186945294869452"
    "9468054b024b034b0387948194680a680d4b004b0186945294680d4b014b0186945294869452947588879452942e"
)


class TestKeys:
    """Multivector._terms, keyed by the index a_mask * 2^n + b_mask, and WittMonomial, its public view."""

    @pytest.mark.parametrize("n", range(7))
    def test_keys_match_their_masks(self, n):
        """terms(), coeff() and the constructor map every index k to WittMonomial(n, k >> n, k & (2^n - 1)) and back."""
        size = 1 << n
        ks = range(size * size) if n < 6 else random.Random(2400).sample(range(size * size), 300)
        monos = [WittMonomial(n, k >> n, k & (size - 1)) for k in ks]
        coeffs = [GaussianRational(Fraction(j + 1, 3)) for j in range(len(ks))]
        g = Multivector(n, dict(zip(monos, coeffs)))
        assert list(g._terms.items()) == list(zip(ks, coeffs))
        assert g.terms() == sorted(zip(monos, coeffs))
        assert all(type(m) is WittMonomial for m, _ in g.terms())
        assert [g.coeff(m) for m in monos] == coeffs

    @pytest.mark.parametrize("path", ["kernel", "bridge"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_products_survive_pickle_and_deepcopy(self, path, kind):
        rng = random.Random(2500)
        g, h = (seeded(4, rng.sample(basis(4), 85), 2501 + i, kind) for i in range(2))
        with product_path(path):
            gh = g * h
        for twin in (pickle.loads(pickle.dumps(gh)), copy.deepcopy(gh)):
            assert twin == gh and as_bytes(twin) == as_bytes(gh) and twin.complexified == gh.complexified
            assert_index_keyed(twin)
        assert as_bytes(gh) == as_bytes(oracles.mul(g, h))

    def test_clear_tables_clears_every_table(self):
        g = seeded(3, basis(3), 2600, "complex")
        from_matrix(to_matrix(g * g.reverse()), 3)
        tables = [table for table in vars(witt).values() if hasattr(table, "cache_clear")]
        assert witt._rank in tables and witt._gather in tables and any(table.cache_info().currsize for table in tables)
        clear_tables()
        assert [table.cache_info().currsize for table in tables] == [0] * len(tables)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["real", "tall", "complex"])
    def test_every_result_is_index_keyed(self, n, kind):
        """The output of every constructor and operation holds int index keys below 4^n with nonzero coefficients."""
        rng = random.Random(2900 + n)
        g, h = (seeded(n, rng.sample(basis(n), min(4**n // 2, 40)), 2910 + n + i, kind) for i in range(2))
        G, H = to_matrix(g), to_matrix(h)
        out = [g, h, g + h, g - h, -g, g + 1, g.scale(Fraction(-2, 3)), g.scale(GaussianRational.I), g.complexify(),
               g.reverse(), g.clifford_conj(), g.grade_involution(), g.grade_project(1), *block_split(g),
               block_assemble(*block_split(g)[:2], *block_split(h)[2:]), from_matrix(G, n), from_matrix(G * H, n),
               Multivector.from_json(g.to_json()), from_blade_basis(n, g.to_blades()), spectral_unit(n, 1, 0),
               pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g), zero(n), one(n), scalar_mv(n, 3),
               u(n, n), u_dag(n, 1), a(n, n), Multivector(n, {(n, 1, 0): 2})]
        for path in ("kernel", "bridge"):
            with product_path(path):
                out += [g * h, h * g, g * g.reverse()]
        for x in out:
            assert_index_keyed(x)

    @pytest.mark.parametrize("n", range(6))
    def test_reads_match_a_monomial_keyed_oracle(self, n):
        """terms(), coeff(), scalar_part, is_scalar, to_json and hash against the {WittMonomial: c} the element was built from."""
        rng = random.Random(3300 + n)
        size = 1 << n
        zero_c = GaussianRational.ZERO
        for trial in range(12):
            complexified = trial % 2 == 1
            picks = rng.sample(basis(n), min(4**n, rng.randint(0, 8))) + [WittMonomial(n, 0, 0)] * (trial % 3 == 0)
            given = {m: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                         Fraction(rng.randint(-2, 2), 3) if complexified else 0) for m in picks}
            if trial == 4:
                given = {WittMonomial(n, 0, 0): GaussianRational(Fraction(5, 7))}  # a scalar element
            oracle = {m: c for m, c in given.items() if not c.is_zero()}
            g = Multivector(n, given, complexified=complexified)
            assert g.terms() == sorted(oracle.items())
            foreign = [WittMonomial(n + 1, 0, 0), WittMonomial(n + 1, 1, 1), WittMonomial(n, size, 0),
                       WittMonomial(n, 0, size), WittMonomial(n, size | 1, 1), BladeMonomial(n, 0, 0)]
            for m in [*oracle, *basis(n), *foreign]:
                want = oracle.get(m, zero_c)
                assert g.coeff(m) == want and g.coeff(tuple(m)) == want, m
                assert g.coeff(BladeMonomial(*m)) == want, m  # a 3-tuple, read as (n, a_mask, b_mask)
            assert g.scalar_part() == oracle.get(WittMonomial(n, 0, 0), zero_c)
            assert g.is_scalar() == all(m.a_mask == 0 == m.b_mask for m in oracle)
            assert g.to_json() == oracle_json(n, oracle, complexified)
            twin = Multivector(n, dict(reversed(list(oracle.items()))), complexified=True)
            assert twin == g and hash(twin) == hash(g)
            if g.is_scalar():
                assert hash(g) == hash(oracle.get(WittMonomial(n, 0, 0), zero_c))

    def test_a_pickle_keyed_by_monomial_loads_equal(self):
        c = GaussianRational(Fraction(3, 2), Fraction(-1, 5))
        want = Multivector(2, {WittMonomial(2, 1, 2): c, WittMonomial(2, 0, 0): 7, WittMonomial(2, 3, 3): GaussianRational.I},
                           complexified=True)
        got = pickle.loads(KEYED_BY_MONOMIAL_PICKLE)
        assert got == want and as_bytes(got) == as_bytes(want) and got.complexified
        assert_index_keyed(got)
        # and the pickles made now hand the constructor WittMonomial keys, which that code reads too
        cls, (n, terms, complexified) = want.__reduce__()
        assert cls is Multivector and n == 2 and complexified
        assert all(type(m) is WittMonomial for m in terms) and terms == dict(want.terms())


@contextmanager
def product_path(path: str):
    """Send every Multivector product through one path, the kernel or the matrix bridge.

    Every constant of the bridge threshold goes to infinity, or to -1 so that
    even a product with no live kernel term, such as one by the zero element,
    takes the bridge.
    """
    names = [name for name in vars(witt) if name.startswith("_BRIDGE_")]
    saved = {name: getattr(witt, name) for name in names}
    for name in names:
        setattr(witt, name, -1 if path == "bridge" else float("inf"))
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(witt, name, value)


PATHS = pytest.mark.parametrize("path", ["kernel", "bridge"])


def basis(n: int) -> list:
    size = 1 << n
    return [WittMonomial(n, am, bm) for am in range(size) for bm in range(size)]


# The @given checks below take the parameter of their parametrized test as
# their first argument.  A parametrized test method that is itself @given
# runs on one instance of its class per parameter, which Hypothesis reports
# as a differing_executors health check unless its pytest plugin is loaded.


@given(tuples_at_one_rank(2, ranks=st.integers(1, 5), max_terms=16))
def product_on_path(path, gh):
    g, h = gh
    with product_path(path):
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))


@settings(max_examples=25)
@given(dense_pairs(st.integers(1, 4), max_terms=96))
def dense_product_on_path(path, gh):
    g, h = gh
    with product_path(path):
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))


@settings(max_examples=4)
@given(tuples_at_one_rank(2, ranks=st.just(6), max_terms=64))
def rank_6_product_on_path(path, gh):
    g, h = gh
    with product_path(path):
        assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))


class TestProductPaths:
    @PATHS
    def test_product(self, path):
        product_on_path(path)

    @PATHS
    def test_dense_product(self, path):
        dense_product_on_path(path)

    @PATHS
    def test_product_rank_6(self, path):
        rank_6_product_on_path(path)

    @PATHS
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_zero_cancellation_tall_and_flags(self, path, n):
        rng = random.Random(800 + n)
        k = min(12, 4**n)
        g = seeded(n, rng.sample(basis(n), k), 801 + n, "real")
        tall = seeded(n, rng.sample(basis(n), k), 802 + n, "tall")
        cplx = seeded(n, rng.sample(basis(n), k), 803 + n, "complex")
        cases = [
            (zero(n), g),
            (g, zero(n)),
            (u(n, 1), u_dag(n, 1)),  # two live pairs that cancel
            (tall, g),
            (tall, tall),
            (g.complexify(), g),  # complexified with real coefficients
            (g, cplx),
        ]
        with product_path(path):
            for x, y in cases:
                assert as_bytes(x * y) == as_bytes(oracles.mul(x, y))
            assert (u(n, 1) * u_dag(n, 1)).is_zero()
            assert (g.complexify() * g).complexified and (g * zero(n).complexify()).complexified

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["real", "tall", "complex"])
    def test_kernel_sites_at_index_n(self, n, kind):
        """A lone b_n on the left meets a lone a_n on the right: every live pair has a b.a site at the top index."""
        rng = random.Random(2000 + n)
        top = 1 << (n - 1)
        rest = [(am, bm) for am in range(top) for bm in range(top)]
        k = min(12, len(rest))
        g = seeded(n, [WittMonomial(n, am, bm | top) for am, bm in rng.sample(rest, k)], 2100 + n, kind)
        h = seeded(n, [WittMonomial(n, am | top, bm) for am, bm in rng.sample(rest, k)], 2200 + n, kind)
        assert witt._live_count(n, g._lifted()[1], h._lifted()[1]) > 0
        with product_path("kernel"):
            assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @given(tuples_at_one_rank(2, ranks=st.integers(0, 6), max_terms=40))
    def test_live_count(self, gh):
        g, h = gh
        left, right = g._lifted()[1], h._lifted()[1]
        assert sorted(left) == [m.a_mask << g.n | m.b_mask for m, _ in g.terms()]
        pairs = [(m1, m2) for m1, _ in g.terms() for m2, _ in h.terms()]
        live = sum(1 for m1, m2 in pairs if oracles.mono_mul(m1.a_mask, m1.b_mask, m2.a_mask, m2.b_mask))
        assert witt._live_count(g.n, left, right) == live

    def test_bridge_runs_past_the_threshold_only(self, monkeypatch):
        calls = []
        flat_product = witt._flat_product
        monkeypatch.setattr(witt, "_flat_product", lambda *args: calls.append(args[2]) or flat_product(*args))
        rng = random.Random(900)
        dense = [seeded(4, rng.sample(basis(4), 85), 901 + i, "real") for i in range(2)]
        sparse = [seeded(4, rng.sample(basis(4), 8), 903 + i, "real") for i in range(2)]
        dense[0] * dense[1]
        assert calls == [16]
        sparse[0] * sparse[1]
        assert calls == [16]
        # rank 5: a pair of 100 real terms a side lies far past the bound, pairs
        # of 70 and 68 terms just over and just under it
        bound = max(witt._BRIDGE_PER_CELL * 4**5, witt._BRIDGE_FLOOR)
        for seed, k, live, bridged in ((920, 100, 2447, True), (910, 70, 1234, True), (910, 68, 1156, False)):
            rng = random.Random(seed)
            g, h = (seeded(5, rng.sample(basis(5), k), seed + i, "real") for i in (1, 2))
            assert witt._live_count(5, g._lifted()[1], h._lifted()[1]) == live
            assert (live > bound) == bridged
            assert k == 100 or abs(live - bound) < 0.1 * bound
            calls.clear()
            assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))
            assert calls == ([32] if bridged else [])

    def test_product_path_forces_every_constant(self, monkeypatch):
        calls = []
        flat_product = witt._flat_product
        monkeypatch.setattr(witt, "_flat_product", lambda *args: calls.append(args[2]) or flat_product(*args))
        names = {name for name in vars(witt) if name.startswith("_BRIDGE_")}
        assert names == {"_BRIDGE_PER_CELL", "_BRIDGE_FLOOR"}
        before = {name: getattr(witt, name) for name in names}
        rng = random.Random(930)
        dense = [seeded(4, basis(4), 931 + i, "real") for i in range(2)]
        sparse = [seeded(4, rng.sample(basis(4), 2), 933 + i, "real") for i in range(2)]
        with product_path("kernel"):
            assert all(getattr(witt, name) == float("inf") for name in names)
            dense[0] * dense[1]
        with product_path("bridge"):
            assert all(getattr(witt, name) == -1 for name in names)
            sparse[0] * sparse[1]
            zero(4) * sparse[0]
        assert calls == [16, 16]
        assert {name: getattr(witt, name) for name in names} == before

    def test_full_density_rank_6_product_stays_small(self):
        # the bridge peaks near 2.9 MB here, the kernel near 13.4 MB (its list of 117,649 live group pairs)
        g, h = seeded(6, basis(6), 1001, "real"), seeded(6, basis(6), 1002, "real")
        tracemalloc.start()
        try:
            gh = g * h
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert to_matrix(gh) == to_matrix(g) * to_matrix(h)


@st.composite
def live_count_sides(draw):
    """(n, lkeys, rkeys) at rank n in 0..7; each side is empty, one term, every index (ranks <= 4), up to 40 or up to
    600 distinct indices, so that pairs of sides are also lopsided."""
    n = draw(st.integers(0, 7))
    size = 4**n

    def side():
        shape = draw(st.sampled_from(["empty", "single", "full", "some", "many"]))
        if shape == "empty":
            return []
        if shape == "single":
            return [draw(st.integers(0, size - 1))]
        if shape == "full" and n <= 4:
            return draw(st.permutations(range(size)))
        k = draw(st.integers(0, min(40 if shape == "some" else 600, size // 2)))
        return draw(st.lists(st.integers(0, size - 1), min_size=k, max_size=k, unique=True))

    return n, side(), side()


class TestLiveCount:
    """witt._live_count's bitset tables against the subset sum of oracles.live_count."""

    @given(live_count_sides())
    def test_against_the_subset_sum(self, sides):
        n, lkeys, rkeys = sides
        assert witt._live_count(n, lkeys, rkeys) == oracles.live_count(n, lkeys, rkeys)

    @pytest.mark.parametrize("n", range(5))
    def test_full_density(self, n):
        full = random.Random(2800 + n).sample(range(4**n), 4**n)
        for lkeys, rkeys in ((full, full), (full, full[:1]), (full[-1:], full), (full, []), ([], full)):
            assert witt._live_count(n, lkeys, rkeys) == oracles.live_count(n, lkeys, rkeys)

    def test_rank_9_stays_small(self):
        # peaks near 0.14 MB on CPython 3.11; the subset sum's list of 4^9 counts takes 2 MB
        n = 9
        rng = random.Random(2700)
        lkeys, rkeys = (rng.sample(range(4**n), 600) for _ in range(2))
        tracemalloc.start()
        try:
            live = witt._live_count(n, lkeys, rkeys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18, peak
        assert live == oracles.live_count(n, lkeys, rkeys)


# Term counts whose products with each other cross the bridge bound at ranks 2..6; few terms stay on the kernel.
MANY_TERMS = (1, 4, 16, 30, 85, 100, 200)
LIFT_KINDS = ("real", "tall", "complex", "complexified", "empty", "scalar")


@st.composite
def lift_elements(draw, n: int, kinds=LIFT_KINDS):
    """A real, tall, complex, complexified-but-real, empty or scalar element at rank n, with few terms or MANY_TERMS[n]."""
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return zero(n).complexify() if draw(st.booleans()) else zero(n)
    if kind == "scalar":
        return scalar_mv(n, draw(scalars(draw(st.booleans()))))
    k = MANY_TERMS[n] if draw(st.booleans()) else draw(st.integers(1, min(6, 4**n)))
    seed = draw(st.integers(0, 2**16))
    g = seeded(n, random.Random(seed).sample(basis(n), k), seed, "real" if kind == "complexified" else kind)
    return g.complexify() if kind == "complexified" else g


# Every reader of an element's kept integer lift, called on (element, real partner, complex partner).
LIFT_READERS = {
    "left by real": lambda g, r, c: g * r,
    "right by real": lambda g, r, c: r * g,
    "left by complex": lambda g, r, c: g * c,
    "right by complex": lambda g, r, c: c * g,
    "reverse": lambda g, r, c: g.reverse(),
    "clifford_conj": lambda g, r, c: g.clifford_conj(),
    "to_matrix": lambda g, r, c: to_matrix(g),
}


@st.composite
def lift_cases(draw):
    """(g, real partner, complex partner, reader order) at one rank in 0..6."""
    n = draw(st.integers(0, 6))
    g = draw(lift_elements(n))
    real = draw(lift_elements(n, ("real", "tall")))
    cplx = draw(lift_elements(n, ("complex",)))
    return g, real, cplx, draw(st.permutations(sorted(LIFT_READERS)))


def lift_oracle(g: Multivector):
    """(den, keys, re, im) of g, from exact._lift over fresh lists, im None exactly when every coefficient is real."""
    values = list(g._terms.values())
    den, re, im = exact._lift(values, any(not c.is_real() for c in values))
    return den, list(g._terms), re, im


class TestKeptLift:
    """Multivector._lifted fills once, on first use, and keeps (den, keys, re, im); no reader may tell it is kept.

    Each reader's result is compared with the same call on fresh pickled
    copies, which hold no lift; every kept lift must equal exact._lift over
    the coefficients in _terms order, and stay equal as the other readers
    run; results and copies are born without one.
    """

    @settings(max_examples=80, deadline=None)
    @given(lift_cases())
    def test_the_kept_lift_is_invisible(self, case):
        *elements, order = case
        want = [lift_oracle(x) for x in elements]
        kept = None
        for name in order:
            got = LIFT_READERS[name](*elements)
            fresh = LIFT_READERS[name](*(pickle.loads(pickle.dumps(x)) for x in elements))
            assert got == fresh and got.to_json() == fresh.to_json(), name
            assert not isinstance(got, Multivector) or got._lift is None, name
            for x, lift in zip(elements, want):
                assert x._lift is None or x._lift == lift, name
            kept = kept or elements[0]._lift
            assert kept is not None and elements[0]._lift is kept, name
        for x, lift in zip(elements, want):
            assert x._lifted() == lift and x._lifted() is x._lifted()
            for clone in (copy.copy, copy.deepcopy, lambda y: pickle.loads(pickle.dumps(y))):
                twin = clone(x)
                assert twin._lift is None and twin == x and twin.complexified == x.complexified

    @PATHS
    def test_each_element_lifts_once(self, path, monkeypatch):
        """An element read by * as either factor, reverse, clifford_conj and to_matrix is lifted once, on first use."""
        lifted = []
        lift = witt._lift
        monkeypatch.setattr(witt, "_lift", lambda entries, cplx: lifted.append(len(entries)) or lift(entries, cplx))
        rng = random.Random(3400)
        g, h = seeded(4, rng.sample(basis(4), 85), 3401, "complex"), seeded(4, rng.sample(basis(4), 84), 3402, "real")
        assert lifted == []
        with product_path(path):
            got = [g * h, h * g, g * g]
        got += [g.reverse(), g.clifford_conj(), h.reverse(), from_matrix(to_matrix(g), 4), g._lifted()[3] is not None]
        assert lifted == [85, 84]
        assert [as_bytes(x) for x in got[:5]] == [as_bytes(x) for x in (
            oracles.mul(g, h), oracles.mul(h, g), oracles.mul(g, g), oracles.reverse(g), oracles.reverse(g.grade_involution()))]
        assert got[5:] == [oracles.reverse(h), g, True]


class TestLaws:
    @given(tuples_at_one_rank(3, max_terms=6))
    def test_associativity(self, ghk):
        g, h, k = ghk
        assert (g * h) * k == g * (h * k)

    @given(tuples_at_one_rank(3, max_terms=8))
    def test_distributivity(self, ghk):
        g, h, k = ghk
        assert g * (h + k) == g * h + g * k
        assert (h + k) * g == h * g + k * g

    @given(tuples_at_one_rank(2))
    def test_to_matrix_is_a_homomorphism(self, gh):
        g, h = gh
        assert to_matrix(g * h) == to_matrix(g) * to_matrix(h)
        assert to_matrix(g + h) == to_matrix(g) + to_matrix(h)

    @given(tuples_at_one_rank(1, max_terms=16))
    def test_matrix_round_trip(self, gs):
        (g,) = gs
        back = from_matrix(to_matrix(g), g.n, complexified=g.complexified)
        assert as_bytes(back) == as_bytes(g)

    @given(matrices())
    def test_matrix_round_trip_from_the_matrix_side(self, nm):
        n, M = nm
        assert to_matrix(from_matrix(M, n)) == M

    @given(tuples_at_one_rank(2))
    def test_reverse_is_an_anti_automorphism(self, gh):
        g, h = gh
        assert (g * h).reverse() == h.reverse() * g.reverse()
        assert g.reverse().reverse() == g

    @given(tuples_at_one_rank(2))
    def test_clifford_conj_is_an_anti_automorphism(self, gh):
        g, h = gh
        assert (g * h).clifford_conj() == h.clifford_conj() * g.clifford_conj()
        assert g.clifford_conj().clifford_conj() == g

    @given(tuples_at_one_rank(1, max_terms=16))
    def test_block_assemble_inverts_block_split(self, gs):
        (g,) = gs
        assert as_bytes(block_assemble(*block_split(g))) == as_bytes(g)

    @given(tuples_at_one_rank(4, ranks=st.integers(1, 3)))
    def test_block_split_inverts_block_assemble(self, hs):
        parts = block_split(block_assemble(*hs))
        assert parts == hs
        assert all(p.complexified == any(h.complexified for h in hs) for p in parts)



# -- the elimination layer ----------------------------------------------------


def square(draw, n: int, imag: bool):
    return [draw(st.lists(scalars(imag), min_size=n, max_size=n)) for _ in range(n)]


def combination(draw, rows, imag: bool):
    """A linear combination of rows with drawn small coefficients."""
    out = [GaussianRational.ZERO] * len(rows[0])
    for row in rows:
        c = draw(scalars(imag))
        out = [x + c * y for x, y in zip(out, row)]
    return out


@st.composite
def inverse_cases(draw):
    """An n x n matrix, n in 1..8: general, with zero leading entries, or singular."""
    n = draw(st.integers(1, 8))
    imag = draw(st.booleans())
    rows = square(draw, n, imag)
    shape = draw(st.sampled_from(["general", "swaps", "permuted-triangular", "singular"]))
    if shape == "swaps":  # zero leading entries: column 0 vanishes on the first k rows
        for i in range(draw(st.integers(1, n))):
            rows[i][0] = GaussianRational.ZERO
    elif shape == "permuted-triangular":  # every column's pivot sits in a later row
        diag = [draw(scalars(imag).filter(bool)) for _ in range(n)]
        rows = [[diag[i] if j == i else x if j > i else GaussianRational.ZERO for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
        rows = draw(st.permutations(rows))
    elif shape == "singular":  # one row a combination of the others
        j = draw(st.integers(0, n - 1))
        rows[j] = combination(draw, rows[:j] + rows[j + 1:], imag) if n > 1 else [GaussianRational.ZERO]
    return ExactMatrix(rows)


def outcome(f) -> bytes:
    try:
        return as_bytes(f())
    except DomainError as exc:
        return f"DomainError: {exc}".encode()


def jordan(sizes, value=0):
    """Block-diagonal Jordan blocks of the given sizes, all with eigenvalue value."""
    n = sum(sizes)
    starts = {sum(sizes[:k]) for k in range(len(sizes))}
    return ExactMatrix([[value if i == j else 1 if j == i + 1 and j not in starts else 0 for j in range(n)]
                        for i in range(n)])


@st.composite
def min_poly_cases(draw, kind: str):
    imag = kind == "gauss" or draw(st.booleans())
    if kind in ("random", "gauss"):
        return ExactMatrix(square(draw, draw(st.integers(1, 4)), imag))
    if kind == "low-rank":
        n = draw(st.integers(2, 5))
        r = draw(st.integers(1, n - 1))
        left = [draw(st.lists(scalars(imag), min_size=r, max_size=r)) for _ in range(n)]
        right = [draw(st.lists(scalars(imag), min_size=n, max_size=n)) for _ in range(r)]
        return ExactMatrix(left) * ExactMatrix(right)
    if kind == "jordan":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        return jordan(sizes, draw(st.sampled_from([0, 0, 2, Fraction(-1, 3)])))
    if kind == "permutation":
        n = draw(st.integers(1, 8))
        image = draw(st.permutations(range(n)))
        return ExactMatrix([[int(j == image[i]) for j in range(n)] for i in range(n)])
    if kind == "diagonal":  # repeated eigenvalues from a set of at most three
        values = draw(st.lists(scalars(imag), min_size=1, max_size=3))
        diag = draw(st.lists(st.sampled_from(values), min_size=1, max_size=8))
        return ExactMatrix([[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)])
    # kind == "tiny": 1x1, zero and identity
    n = draw(st.integers(1, 6))
    return draw(st.sampled_from([ExactMatrix(square(draw, 1, imag)), ExactMatrix.zeros(n), ExactMatrix.identity(n)]))


@settings(max_examples=30)
@given(st.data())
def min_poly_of_kind(kind, data):
    M = data.draw(min_poly_cases(kind))
    assert str(min_poly(M)) == str(oracles.oracle_min_poly(M))


class TestEliminationAgainstOracle:
    @settings(max_examples=150)
    @given(inverse_cases())
    def test_inverse(self, M):
        assert outcome(M.inverse) == outcome(lambda: oracles.oracle_inverse(M))

    @pytest.mark.parametrize("kind", ["random", "gauss", "low-rank", "jordan", "permutation", "diagonal", "tiny"])
    def test_min_poly(self, kind):
        min_poly_of_kind(kind)


# -- ExactMatrix in its flat form ---------------------------------------------


KINDS = {"real": (SMALL, False), "complex": (SMALL, True), "tall": (TALL, False), "mixed": (PARTS, True)}


@st.composite
def elements(draw, ranks):
    """A real, complexified, tall or mixed element; half of them plus a scalar, so that the matrix is often invertible."""
    n = draw(ranks)
    parts, imag = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    coeffs = st.builds(GaussianRational, parts, parts if imag else st.just(0))
    monos = st.builds(WittMonomial, st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    g = Multivector(n, draw(st.dictionaries(monos, coeffs, max_size=12)), complexified=imag)
    return g + draw(coeffs) if draw(st.booleans()) else g


def result(f):
    """What f() returns, in comparable form, or the type and text of the error it raises."""
    try:
        out = f()
    except (DimensionMismatch, DomainError, InputError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):  # rref
        return out[0].to_json(), out[1]
    if isinstance(out, list):  # nullspace
        return [v.to_json() for v in out]
    if isinstance(out, Multivector):
        return as_bytes(out), out.complexified
    return str(out) if isinstance(out, RationalPolynomial) else out.to_json()


class TestFlatMatrices:
    """to_matrix hands over its integers, the flat form; every reader of that form must act as on the cells.

    Elements are drawn real, complexified, tall (12-digit numerators) or
    mixed, and each flat matrix is checked against its eager copy
    ExactMatrix(M.cells).  Elimination and from_matrix run on a fresh flat
    matrix, which must still hold no cells afterwards.
    """

    @staticmethod
    def check_against_eager(make, n):
        """make() builds a fresh flat matrix, which must act as its eager copy under every reader."""
        E = ExactMatrix(make().cells)
        M = make()
        assert M._cells is None
        assert M == E and E == M and hash(M) == hash(E)
        assert pickle.dumps(make()) == pickle.dumps(E)
        for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            out = clone(make())
            assert out == E and hash(out) == hash(E)
        assert make().to_json() == E.to_json()
        assert make().pretty() == E.pretty()
        assert make().transpose() == E.transpose()
        assert not E.is_square or make().trace() == E.trace()
        readers = [ExactMatrix.rref, ExactMatrix.nullspace, ExactMatrix.inverse, min_poly]
        readers += [lambda A, c=c: from_matrix(A, n, c) for c in (None, True, False)]
        for read in readers:
            M = make()
            assert result(lambda: read(M)) == result(lambda: read(E))
            assert M._cells is None

    @settings(max_examples=100)
    @given(elements(st.integers(0, 5)))
    def test_against_eager(self, g):
        self.check_against_eager(lambda: to_matrix(g), g.n)

    @settings(max_examples=4)
    @given(elements(st.just(6)))
    def test_against_eager_rank_6(self, g):
        self.check_against_eager(lambda: to_matrix(g), g.n)

    @settings(max_examples=40)
    @given(elements(st.integers(0, 3)), st.sampled_from(["inverse", "rref", "nullspace"]))
    def test_elimination_results_against_eager(self, g, kind):
        """rref, inverse and nullspace hand back flat matrices too, which every reader reads as their cells."""
        make = {
            "inverse": lambda: to_matrix(g).inverse(),
            "rref": lambda: to_matrix(g).rref()[0],
            "nullspace": lambda: to_matrix(g).nullspace()[0],
        }[kind]
        try:
            make()
        except (DomainError, IndexError):  # singular, or a zero nullspace
            return
        self.check_against_eager(make, g.n)

    @settings(max_examples=40)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(elements(st.just(n)), elements(st.just(n)))))
    def test_products(self, gh):
        g, h = gh
        eager = [ExactMatrix(to_matrix(x).cells) for x in gh]
        want = eager[0] * eager[1]
        flat = to_matrix(g) * to_matrix(h)
        assert flat._cells is None
        for got in (flat, to_matrix(g) * eager[1], eager[0] * to_matrix(h)):
            assert got == want and got.to_json() == want.to_json()
            assert (got._lifted()[2] is None) == (want._lifted()[2] is None)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_imaginary_parts_that_cancel(self, n):
        i = GaussianRational.I
        P = to_matrix(scalar_mv(n, i)) * to_matrix(scalar_mv(n, -i))
        assert P._flat[2] is None and P == ExactMatrix.identity(1 << n)
        g = from_matrix(P)
        assert g == one(n) and not g.complexified
