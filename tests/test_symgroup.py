"""Permutations, their algebra images, Casimir elements, and characters."""

import copy
from fractions import Fraction
import itertools
import pickle
import random

import pytest

from wittmat import (
    DomainError,
    ExactMatrix,
    GaussianRational,
    InputError,
    Permutation,
    a,
    all_ones_mv,
    b,
    casimir_idempotents,
    casimir_mv,
    eval_poly,
    geom_perm,
    min_poly,
    mv_inverse,
    mv_trace,
    one,
    perm_matrix,
    scalar_mv,
    standard_irrep,
    std_rep_matrix,
    surgery_gc,
    surgery_gc_inverse,
    to_matrix,
    u_all,
    u_all_dag,
    wedge_ab,
    zero,
)
from wittmat import symgroup
from conftest import rand_perm


class TestPermutation:
    def test_from_cycles_string(self):
        p = Permutation.from_cycles("(12)(34)")
        assert p(1) == 2 and p(2) == 1 and p(3) == 4 and p(4) == 3
        assert p.order() == 2
        assert p.cycle_str() == "(1 2)(3 4)"

    def test_from_cycles_tuples(self):
        p = Permutation.from_cycles([(1, 2, 3)])
        assert p == Permutation.from_cycles("(123)")

    def test_immutable(self):
        p = Permutation.from_cycles("(123)")
        with pytest.raises(AttributeError):
            p.images = (3, 1, 2)
        assert p.images == (2, 3, 1)
        assert copy.copy(p) == copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p

    def test_identity(self):
        e = Permutation.identity()
        assert e.degree == 0
        assert e.order() == 1
        assert e.cycle_str() == "()"

    def test_composition_order(self):
        # right factor acts first
        p = Permutation.from_cycles("(12)")
        q = Permutation.from_cycles("(23)")
        assert (p * q)(3) == p(q(3))
        assert (p * q) == Permutation.from_cycles("(123)")

    def test_inverse_and_power(self):
        rng = random.Random(160)
        for _ in range(30):
            p = rand_perm(rng, 6)
            assert p * p.inverse() == Permutation.identity()
            assert p ** p.order() == Permutation.identity()

    def test_power_reduces_exponent_by_order(self):
        p = Permutation.from_cycles("(12)(345)")  # order 6, so exponents reduce mod 6
        assert p ** (10**12 + 1) == p ** 5 == p * p * p * p * p == p.inverse()
        assert p ** -1 == p.inverse()
        assert p ** -7 == p.inverse()
        assert p ** 0 == Permutation.identity()
        q = Permutation.from_cycles("(12)(34567)")  # order 10 divides 10**12
        assert q ** (10**12 + 1) == q
        assert Permutation.identity() ** -3 == Permutation.identity()

    def test_overlapping_cycles_compose(self):
        P = Permutation.from_cycles
        assert P("(12)(21)") == Permutation.identity()
        assert P("(123)(132)") == Permutation.identity()
        assert P("(12)(23)") == P("(12)") * P("(23)") == P("(123)")
        assert P("(12)(13)") == P("(12)") * P("(13)") == P("(132)")
        assert P([(1, 2), (2, 3)]) == P("(12)(23)")
        with pytest.raises(InputError):
            P("(121)")


class TestMatrixImages:
    def test_perm_matrix_homomorphism(self):
        rng = random.Random(161)
        for _ in range(30):
            p, q = rand_perm(rng, 5), rand_perm(rng, 5)
            assert perm_matrix(p * q, 5) == perm_matrix(p, 5) * perm_matrix(q, 5)

    def test_perm_matrix_trace_counts_fixed_points(self):
        rng = random.Random(162)
        for _ in range(30):
            p = rand_perm(rng, 5)
            fixed = sum(1 for k in range(1, 6) if p(k) == k)
            assert perm_matrix(p, 5).trace() == GaussianRational(fixed)

    def test_std_rep_homomorphism(self):
        rng = random.Random(163)
        m = 4
        for _ in range(30):
            p, q = rand_perm(rng, m + 1), rand_perm(rng, m + 1)
            assert std_rep_matrix(p * q, m) == std_rep_matrix(p, m) * std_rep_matrix(q, m)

    def test_std_rep_last_letter_column(self):
        p = Permutation.from_cycles("(15)")
        mat = std_rep_matrix(p, 4)
        assert all(mat[(i, 0)] == GaussianRational(-1) for i in range(4))

    def test_degree_overflow(self):
        with pytest.raises(DomainError):
            perm_matrix(Permutation.from_cycles("(16)"), 5)
        with pytest.raises(DomainError):
            std_rep_matrix(Permutation.from_cycles("(16)"), 4)

    def test_perm_matrix_columns_are_unit_vectors_at_images(self):
        rng = random.Random(164)
        for m in range(1, 17):
            for _ in range(3):
                p = rand_perm(rng, m)
                want = ExactMatrix([[1 if p(j) == i else 0 for j in range(1, m + 1)] for i in range(1, m + 1)])
                assert perm_matrix(p, m) == want

    def test_std_rep_and_gc_matrices_match_their_entries(self):
        rng = random.Random(165)
        for m in range(1, 17):
            p = rand_perm(rng, m + 1)
            images = [p(j) for j in range(1, m + 1)]
            want = ExactMatrix([[-1 if img == m + 1 else int(img == i) for img in images] for i in range(1, m + 1)])
            assert std_rep_matrix(p, m) == want
            gc = ExactMatrix([[Fraction(1, m) if c == m - 1 else int(r == c) - Fraction(1, m) for c in range(m)]
                              for r in range(m)])
            gc_inv = ExactMatrix([[1 if r == m - 1 or r == c else -1 if c == m - 1 else 0 for c in range(m)]
                                  for r in range(m)])
            assert symgroup._gc_matrix(m) == gc and symgroup._gc_inverse_matrix(m) == gc_inv

    def test_perm_matrix_errors(self):
        with pytest.raises(InputError, match="at least one row"):
            perm_matrix(Permutation([1]), 0)
        with pytest.raises(InputError, match="at least one row"):
            std_rep_matrix(Permutation([1]), 0)
        with pytest.raises(DomainError, match="degree overflow"):
            perm_matrix(Permutation.from_cycles("(13)"), 2)
        with pytest.raises(DomainError, match="degree overflow"):
            perm_matrix(Permutation.from_cycles([(5, 17)]), 16)


class TestGeomPerm:
    def test_homomorphism_both_kinds(self):
        rng = random.Random(164)
        for n in (1, 2):
            m = 1 << n
            for rep, deg in (("permutation", m), ("standard", m + 1)):
                for _ in range(25):
                    p, q = rand_perm(rng, deg), rand_perm(rng, deg)
                    assert geom_perm(p * q, n, rep) == geom_perm(p, n, rep) * geom_perm(q, n, rep)

    def test_matrix_round_trip(self):
        rng = random.Random(165)
        for n in (1, 2, 3):
            p = rand_perm(rng, 1 << n)
            assert to_matrix(geom_perm(p, n)) == perm_matrix(p, 1 << n)

    def test_group_inverse(self):
        rng = random.Random(166)
        n = 2
        for _ in range(10):
            p = rand_perm(rng, 4)
            g = geom_perm(p, n)
            assert g * geom_perm(p.inverse(), n) == one(n)
            assert mv_inverse(g) == geom_perm(p.inverse(), n)

    def test_unknown_rep(self):
        with pytest.raises(InputError):
            geom_perm(Permutation.identity(), 1, rep="spin")


class TestCasimir:
    def test_all_ones_matrix(self):
        for n in (1, 2, 3):
            m = 1 << n
            ones = ExactMatrix([[1] * m for _ in range(m)])
            assert to_matrix(all_ones_mv(n)) == ones

    def test_square_identities(self):
        for n in (1, 2, 3):
            m = 1 << n
            A = all_ones_mv(n)
            C = casimir_mv(n)
            assert A * A == A.scale(m)
            assert C * C == C.scale(m - 2) + scalar_mv(n, m - 1)

    def test_min_poly(self):
        for n in (1, 2, 3):
            m = 1 << n
            assert min_poly(to_matrix(all_ones_mv(n))) == __import__(
                "wittmat"
            ).RationalPolynomial.from_roots([0, m])
            assert min_poly(to_matrix(casimir_mv(n))) == __import__(
                "wittmat"
            ).RationalPolynomial.from_roots([-1, m - 1])

    def test_commutes_with_every_perm_image(self):
        rng = random.Random(167)
        for n in (1, 2):
            A = all_ones_mv(n)
            for _ in range(15):
                p = rand_perm(rng, 1 << n)
                g = geom_perm(p, n)
                assert A * g == g * A

    def test_idempotents(self):
        for n in (1, 2, 3):
            s1, s2 = casimir_idempotents(n)
            assert s1 * s1 == s1
            assert s2 * s2 == s2
            assert (s1 * s2).is_zero()
            assert s1 + s2 == one(n)
            assert casimir_mv(n) == s1.scale(-1) + s2.scale((1 << n) - 1)


class TestSurgery:
    def test_gc_diagonalizes_casimir(self):
        for n in (1, 2, 3):
            m = 1 << n
            gc = surgery_gc(n)
            conj = surgery_gc_inverse(n) * casimir_mv(n) * gc
            d = to_matrix(conj)
            expect = ExactMatrix(
                [
                    [
                        (m - 1 if r == m - 1 else -1) if r == c else 0
                        for c in range(m)
                    ]
                    for r in range(m)
                ]
            )
            assert d == expect

    def test_gc_inverse(self):
        for n in (1, 2, 3):
            assert surgery_gc(n) * surgery_gc_inverse(n) == one(n)
        for n in (1, 2, 3, 4, 5):
            assert to_matrix(surgery_gc_inverse(n)) == to_matrix(surgery_gc(n)).inverse()


class TestStandardIrrep:
    def test_matches_conjugated_permutation_rep(self):
        # on letters 1..2^n the irrep is the g_c conjugate of the permutation image
        rng = random.Random(168)
        for n in (1, 2):
            m = 1 << n
            gc, gcinv = surgery_gc(n), surgery_gc_inverse(n)
            for _ in range(15):
                p = rand_perm(rng, m)
                assert standard_irrep(p, n) == gcinv * geom_perm(p, n) * gc

    def test_extra_letter_image_is_quotient_matrix(self):
        # the quotient matrix of a transposition moving letter m+1, in the g_c basis
        for n in (1, 2):
            m = 1 << n
            gc, gcinv = surgery_gc(n), surgery_gc_inverse(n)
            for k in range(1, m + 1):
                p = Permutation.from_cycles([(k, m + 1)])
                assert to_matrix(geom_perm(p, n, rep="standard")) == std_rep_matrix(p, m)
                assert standard_irrep(p, n) == gcinv * geom_perm(p, n, rep="standard") * gc

    def test_transposition_images_are_involutions(self):
        for n in (1, 2):
            m = 1 << n
            for k in range(2, m + 2):
                g = standard_irrep(Permutation.from_cycles([(1, k)]), n)
                assert g * g == one(n)

    def test_is_homomorphism_below_extra_letter(self):
        rng = random.Random(170)
        for n in (1, 2):
            m = 1 << n
            for _ in range(15):
                p, q = rand_perm(rng, m), rand_perm(rng, m)
                assert standard_irrep(p * q, n) == standard_irrep(p, n) * standard_irrep(q, n)

    def test_is_homomorphism_on_all_letters(self):
        rng = random.Random(173)
        for n in (1, 2):
            perms = [Permutation(imgs) for imgs in itertools.permutations(range(1, (1 << n) + 2))]
            images = {p: standard_irrep(p, n) for p in perms}
            for _ in range(150):
                p, q = rng.choice(perms), rng.choice(perms)
                assert images[p * q] == images[p] * images[q], (n, p, q)

    def test_character_is_fixed_points_minus_one(self):
        for n in (1, 2):
            m = 1 << n
            for imgs in itertools.permutations(range(1, m + 2)):
                p = Permutation(imgs)
                fixed = sum(1 for k in range(1, m + 2) if p(k) == k)
                assert mv_trace(standard_irrep(p, n)) == GaussianRational(fixed - 1), (n, p)

    def test_character_values(self):
        n = 2
        # conjugation preserves traces, so images of S_4 keep the
        # fixed-point character of the permutation matrices
        cases = {
            "(12)": 2,
            "(123)": 1,
            "(12)(34)": 0,
            "(1234)": 0,
        }
        assert mv_trace(standard_irrep(Permutation.identity(), n)) == GaussianRational(4)
        for spec, val in cases.items():
            g = standard_irrep(Permutation.from_cycles(spec), n)
            assert mv_trace(g) == GaussianRational(val)
        # so does the extra-letter transposition: 3 fixed points of 5, minus 1
        p5 = Permutation.from_cycles("(15)")
        assert mv_trace(standard_irrep(p5, n)) == GaussianRational(2)

    def test_permutation_character(self):
        rng = random.Random(171)
        n = 2
        for _ in range(20):
            p = rand_perm(rng, 4)
            fixed = sum(1 for k in range(1, 5) if p(k) == k)
            assert mv_trace(geom_perm(p, n)) == GaussianRational(fixed)


# -- the paper's native constructions: the oracles for the pulled-back elements --


def doubling_all_ones(n):
    """A_{2^{k+1}} = A_{2^k} (1 + 2^k (a_{k+1} + b_{k+1}) w_1 .. w_k), w_j = a_j b_j - 1/2."""
    acc = wedge = one(n)
    for k in range(n):
        acc = acc * (one(n) + (a(n, k + 1) + b(n, k + 1)).scale(1 << k) * wedge)
        wedge = wedge * wedge_ab(n, k + 1)
    return acc


def one_k_transpositions(p: Permutation) -> list[int]:
    """Write p as a product of transpositions (1 k), returned as the list of k's."""
    out = []
    for cyc in p.cycles():
        pairs = [(cyc[0], cyc[pos]) for pos in range(len(cyc) - 1, 0, -1)]
        for x, y in pairs:
            if x == 1:
                out.append(y)
            elif y == 1:
                out.append(x)
            else:
                out.extend((x, y, x))
    return out


def native_standard_irrep(p, n, factors):
    """Product of native factor images, each conjugated by g_c; factors caches them per (n, k)."""
    m = 1 << n

    def factor(k):
        if k <= m:
            t = geom_perm(Permutation.from_cycles([(1, k)]), n)
        else:
            # the quotient image of (1, m+1) in closed form: 1 - u - (1 + b_1)..(1 + b_n) u
            prod = one(n)
            for i in range(1, n + 1):
                prod = prod * (one(n) + b(n, i))
            t = one(n) - u_all(n) - prod * u_all(n)
        return surgery_gc_inverse(n) * t * surgery_gc(n)

    out = one(n)
    for k in one_k_transpositions(p):
        if (n, k) not in factors:
            factors[n, k] = factor(k)
        out = out * factors[n, k]
    return out


class TestAgainstNativeConstructions:
    def test_all_ones_is_the_doubling_recursion(self):
        for n in (1, 2, 3, 4):
            assert all_ones_mv(n) == doubling_all_ones(n)

    def test_gc_is_the_surgery_formula(self):
        for n in (1, 2, 3, 4):
            s1, s2 = casimir_idempotents(n)
            udag = u_all_dag(n)
            assert surgery_gc(n) == s1 * (one(n) - udag) + s2 * udag

    def test_standard_irrep_matches_native_factors(self):
        # byte for byte, extra-letter factors included
        factors = {}
        perms = [(1, Permutation(imgs)) for imgs in itertools.permutations(range(1, 4))]
        perms += [(2, Permutation(imgs)) for imgs in itertools.permutations(range(1, 6))]
        rng = random.Random(172)
        perms += [(3, rand_perm(rng, 9)) for _ in range(12)]
        for n, p in perms:
            want = native_standard_irrep(p, n, factors).to_json()
            assert standard_irrep(p, n).to_json() == want, (n, p)

    def test_rank_below_one_is_rejected(self):
        for fn in (all_ones_mv, casimir_mv, casimir_idempotents, surgery_gc, surgery_gc_inverse):
            for n in (0, -1):
                with pytest.raises(DomainError):
                    fn(n)
