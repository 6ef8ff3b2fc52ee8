"""Property tests of the algebra laws at ranks 1..4.

The integer-lifted product and matrix bridge are compared byte for byte with
the GaussianRational oracles in oracles.py; the laws are checked on the
library alone.  Coefficients are small or tall (12-digit numerators) rationals,
with imaginary parts on complexified elements; the zero element and
single-term elements are drawn on purpose.  Dense elements, up to the full
basis, put many monomials in each group of the product kernel, so the b.a
branch is reached inside multi-term groups.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wittmat import (
    ExactMatrix,
    GaussianRational,
    InputError,
    Multivector,
    WittMonomial,
    block_assemble,
    block_split,
    from_matrix,
    to_matrix,
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

