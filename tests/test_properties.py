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
scatter of oracles.py, on each side of the line between them.  The per-rank
tables of signed targets are compared with that scatter's subset loop, and
the reversal table with the oracle's reversed words, at every monomial and
every cell at ranks 0..5 and a sample at rank 6, cold and warm, and a full
rank-6 fill of all three tables and the passes' gather must stay within a
bounded amount of traced memory.  Kernel products whose b.a sites include
index n, the top bit of the kernel's sums, are checked at ranks 1..6.  The
kernel's live count, which picks the path, is compared with the subset sum of
oracles.py at ranks 0..7 and must stay within a bounded peak at rank 9.  The
monomial keys results share (witt._keys) are checked against their masks
and for identity at every index at ranks 0..5 and a sample at rank 6, and a
full rank-6 fill must stay within a bounded amount of traced memory.
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
import json
import pickle
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import rand_matrix
from wittmat import witt
from wittmat import (
    DomainError,
    ExactMatrix,
    GaussianRational,
    InputError,
    Multivector,
    RationalPolynomial,
    WittMonomial,
    block_assemble,
    block_split,
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
        if complexified is False and M._has_imag():
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


def clear_tables():
    witt._tables.cache_clear()
    witt._reverse_table.cache_clear()
    witt._gather.cache_clear()
    witt._keys.cache_clear()


class TestBridgeTables:
    """witt._tables against the subset loop of oracles.scatter and witt._reverse_table against the oracle's reversal,
    cold (cleared first) and then warm."""

    @pytest.mark.parametrize("n", range(7))
    def test_targets_match_the_oracle(self, n):
        size = 1 << n
        keys = range(size * size) if n < 6 else random.Random(1700).sample(range(size * size), 300)
        clear_tables()
        for state in ("cold", "warm"):
            tables, reverse = witt._tables(n), witt._reverse_table(n)
            for k in keys:
                (mono,) = oracles.mono_spots(n, [divmod(k, size)])
                (unit,) = oracles.unit_spots(n, [k])
                for got, want in (
                    (tables.cells[k], signed_targets(size, mono)),
                    (tables.units[k], signed_targets(size, unit)),
                    (reverse[k], reverse_spot_targets(n, k)),
                ):
                    assert [sorted(targets) for targets in got] == list(want), (state, k)

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
                    (witt._scatter(size, witt._tables(n).units, cells, *nums), oracles.unit_spots(n, cells)),
                ):
                    assert got_re == oracles.scatter(size, spots, nums[0]), (state, name)
                    assert got_im == (oracles.scatter(size, spots, nums[1]) if cplx else None), (state, name)

    def test_full_rank_6_tables_stay_small(self):
        n = 6
        clear_tables()
        tracemalloc.start()
        try:
            tables, reverse = witt._tables(n), witt._reverse_table(n)
            for k in range(4**n):
                tables.cells[k], tables.units[k], reverse[k]
            witt._gather(n)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tables.cells) == len(tables.units) == len(reverse) == 4**n
        assert grown <= 3 * 2**20, grown

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


class TestKeys:
    """witt._keys, the monomial keys every result shares, against WittMonomial built from the masks."""

    @pytest.mark.parametrize("n", range(7))
    def test_keys_match_their_masks(self, n):
        size = 1 << n
        ks = range(size * size) if n < 6 else random.Random(2400).sample(range(size * size), 300)
        clear_tables()
        first, again = (witt._monomials(n, ks, range(len(ks))) for _ in range(2))
        assert list(first.values()) == list(again.values()) == list(range(len(ks)))
        for k, mono, twin in zip(ks, first, again):
            assert type(mono) is WittMonomial and mono == WittMonomial(n, k >> n, k & (size - 1)), k
            assert twin is mono, k

    @pytest.mark.parametrize("path", ["kernel", "bridge"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_products_survive_pickle_and_deepcopy(self, path, kind):
        rng = random.Random(2500)
        g, h = (seeded(4, rng.sample(basis(4), 85), 2501 + i, kind) for i in range(2))
        with product_path(path):
            gh = g * h
        keys = witt._keys(4)
        assert all(m is keys[m.a_mask << 4 | m.b_mask] for m in gh._terms)
        for twin in (pickle.loads(pickle.dumps(gh)), copy.deepcopy(gh)):
            assert twin == gh and as_bytes(twin) == as_bytes(gh) and twin.complexified == gh.complexified
            assert all(type(m) is WittMonomial for m in twin._terms)
        assert as_bytes(gh) == as_bytes(oracles.mul(g, h))

    def test_clear_tables_clears_every_table(self):
        g = seeded(3, basis(3), 2600, "complex")
        from_matrix(to_matrix(g * g.reverse()), 3)
        tables = [table for table in vars(witt).values() if hasattr(table, "cache_clear")]
        assert witt._keys in tables and any(table.cache_info().currsize for table in tables)
        clear_tables()
        assert [table.cache_info().currsize for table in tables] == [0] * len(tables)

    def test_full_rank_6_keys_stay_small(self):
        # a full fill grows the traced memory by about 0.54 MB on CPython 3.11
        clear_tables()
        tracemalloc.start()
        try:
            keys = witt._keys(6)
            for k in range(4**6):
                keys[k]
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(keys) == 4**6
        assert grown <= 3 * 2**18, grown


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
        assert witt._live_count(n, witt._lifted_terms(g, False)[1], witt._lifted_terms(h, False)[1]) > 0
        with product_path("kernel"):
            assert as_bytes(g * h) == as_bytes(oracles.mul(g, h))

    @given(tuples_at_one_rank(2, ranks=st.integers(0, 6), max_terms=40))
    def test_live_count(self, gh):
        g, h = gh
        cplx = g._has_imag() or h._has_imag()
        left, right = witt._lifted_terms(g, cplx)[1], witt._lifted_terms(h, cplx)[1]
        assert left == [m.a_mask << g.n | m.b_mask for m in g._terms]
        pairs = [(m1, m2) for m1 in g._terms for m2 in h._terms]
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
            assert witt._live_count(5, witt._lifted_terms(g, False)[1], witt._lifted_terms(h, False)[1]) == live
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
    except (DomainError, InputError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):  # rref
        return out[0].to_json(), out[1]
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
    def check_against_eager(g):
        E = ExactMatrix(to_matrix(g).cells)
        M = to_matrix(g)
        assert M._cells is None
        assert M == E and E == M and hash(M) == hash(E)
        assert pickle.dumps(to_matrix(g)) == pickle.dumps(E)
        for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            out = clone(to_matrix(g))
            assert out == E and hash(out) == hash(E)
        assert to_matrix(g).to_json() == E.to_json()
        assert to_matrix(g).pretty() == E.pretty()
        assert to_matrix(g).transpose() == E.transpose()
        assert to_matrix(g).trace() == E.trace()
        readers = [ExactMatrix.rref, ExactMatrix.inverse, min_poly]
        readers += [lambda A, c=c: from_matrix(A, g.n, c) for c in (None, True, False)]
        for read in readers:
            M = to_matrix(g)
            assert result(lambda: read(M)) == result(lambda: read(E))
            assert M._cells is None

    @settings(max_examples=100)
    @given(elements(st.integers(0, 5)))
    def test_against_eager(self, g):
        self.check_against_eager(g)

    @settings(max_examples=4)
    @given(elements(st.just(6)))
    def test_against_eager_rank_6(self, g):
        self.check_against_eager(g)

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
            assert got._has_imag() == want._has_imag()

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_imaginary_parts_that_cancel(self, n):
        i = GaussianRational.I
        P = to_matrix(scalar_mv(n, i)) * to_matrix(scalar_mv(n, -i))
        assert P._flat[2] is None and P == ExactMatrix.identity(1 << n)
        g = from_matrix(P)
        assert g == one(n) and not g.complexified
