"""Commutant solving, parameter families, surgery cuts, group-algebra elements."""

from fractions import Fraction
import random

import pytest

from wittmat import (
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    GaussianRational,
    InputError,
    Permutation,
    RegRepElement,
    commutant,
    family_minpoly_check,
    g_all_matrix,
    g_alt_matrix,
    perm_matrix,
    regrep_decompose,
    regrep_element,
    regrep_transform,
    spectral_unit,
    b,
    to_matrix,
    u,
)
import wittmat.repdecomp as repdecomp
from conftest import rand_fraction, rand_mv
from oracles import oracle_inverse


class TestCommutant:
    def test_symmetric_group_full(self):
        gens = [perm_matrix(Permutation.from_cycles(c), 4) for c in ("(12)", "(13)", "(14)")]
        result = commutant(gens)
        assert result.dimension == 2
        for B in result.basis:
            for G in gens:
                assert B * G == G * B
        # the s/t pattern spans the space
        assert any(B == g_all_matrix(B[(0, 0)], B[(0, 1)]) for B in result.basis)

    def test_klein_group(self):
        gens = [perm_matrix(Permutation.from_cycles(c), 4) for c in ("(12)(34)", "(13)(24)")]
        result = commutant(gens)
        assert result.dimension == 4
        for B in result.basis:
            assert B == g_alt_matrix(B[(0, 0)], B[(0, 1)], B[(0, 2)], B[(0, 3)])

    def test_identity_generator_gives_full_space(self):
        result = commutant([ExactMatrix.identity(3)])
        assert result.dimension == 9

    def test_single_jordan_block(self):
        # commutant of a regular nilpotent block is the polynomial algebra in it
        N = ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert commutant([N]).dimension == 3

    def test_matches_the_scalar_equations(self):
        # the equations X G - G X = 0 summed entry by entry in GaussianRationals, as the reference
        def reference(gens):
            m = gens[0].rows
            rows = []
            for G in gens:
                for i in range(m):
                    for j in range(m):
                        row = [GaussianRational.ZERO] * (m * m)
                        for l in range(m):
                            row[i * m + l] = row[i * m + l] + G[(l, j)]
                            row[l * m + j] = row[l * m + j] - G[(i, l)]
                        rows.append(row)
            return [[[v[(i * m + l, 0)] for l in range(m)] for i in range(m)] for v in ExactMatrix(rows).nullspace()]

        rng = random.Random(330)
        i = GaussianRational.I
        diag_i = ExactMatrix([[i * (r + 1) if r == c else 0 for c in range(4)] for r in range(4)])
        cases = [
            [to_matrix(rand_mv(rng, 2, False, 6)), to_matrix(rand_mv(rng, 2, True, 6))],
            [ExactMatrix([[rand_fraction(rng) for _ in range(3)] for _ in range(3)]) for _ in range(2)],
            [ExactMatrix.identity(4).scale(i), to_matrix(b(2, 1)) * to_matrix(u(2, 2))],  # imaginary parts cancel
            [perm_matrix(Permutation.from_cycles("(123)"), 4), diag_i],
        ]
        for gens in cases:
            got = commutant(gens)
            assert [B.to_json() for B in got.basis] == [ExactMatrix(B).to_json() for B in reference(gens)]
            assert got.dimension == len(got.basis) > 0

    def test_errors(self):
        with pytest.raises(InputError):
            commutant([])
        with pytest.raises(DimensionMismatch):
            commutant([ExactMatrix.identity(2), ExactMatrix.identity(3)])


class TestFamilies:
    def test_all_family_generic(self):
        report = family_minpoly_check("all", (2, 1))
        assert report.ok
        assert report.distinct_roots == (GaussianRational(1), GaussianRational(5))
        assert report.collapsed == ()
        assert report.matrix == g_all_matrix(2, 1)

    def test_all_family_random_points(self):
        rng = random.Random(180)
        for _ in range(20):
            s, t = rand_fraction(rng), rand_fraction(rng)
            report = family_minpoly_check("all", (s, t))
            assert report.ok, (s, t)

    def test_all_family_collapse_at_t_zero(self):
        report = family_minpoly_check("all", (5, 0))
        assert report.ok
        assert report.collapsed == ((GaussianRational(5), 2),)
        assert report.distinct_roots == (GaussianRational(5),)

    def test_alt_family_generic(self):
        report = family_minpoly_check("alt", (1, 2, 3, 5))
        assert report.ok
        assert len(report.distinct_roots) == 4

    def test_alt_family_random_points(self):
        rng = random.Random(181)
        for _ in range(20):
            params = tuple(rand_fraction(rng) for _ in range(4))
            report = family_minpoly_check("alt", params)
            assert report.ok, params

    def test_alt_family_total_collapse(self):
        report = family_minpoly_check("alt", (1, 1, 1, 1))
        assert report.ok
        assert report.collapsed == ((GaussianRational.ZERO, 3),)
        assert sorted(str(r) for r in report.distinct_roots) == ["0", "4"]

    def test_bad_kind_and_params(self):
        with pytest.raises(InputError):
            family_minpoly_check("weird", (1, 2))
        with pytest.raises(InputError):
            family_minpoly_check("all", (1, 2, 3))
        with pytest.raises(InputError):
            family_minpoly_check("alt", (1,))


class TestSurgeryCut:
    def test_cut_zeroes_band_and_negates_corner(self):
        from wittmat import surgery_cut

        rng = random.Random(182)
        n = 2
        for k in range(4):
            g = rand_mv(rng, n, max_terms=8)
            m = to_matrix(g)
            cut = to_matrix(surgery_cut(g, spectral_unit(n, k, k)))
            for i in range(4):
                for j in range(4):
                    if i == k and j == k:
                        assert cut[(i, j)] == -m[(i, j)]
                    elif i == k or j == k:
                        assert cut[(i, j)].is_zero()
                    else:
                        assert cut[(i, j)] == m[(i, j)]

    def test_rejects_non_idempotent(self):
        from wittmat import surgery_cut, a

        with pytest.raises(DomainError):
            surgery_cut(rand_mv(random.Random(183), 2), a(2, 1))


class TestExtractColumn:
    def test_moves_column(self):
        rng = random.Random(184)
        n = 2
        g = rand_mv(rng, n, max_terms=8)
        m = to_matrix(g)
        # b1 u2 moves the second column into the first and clears the rest
        mono = b(n, 1) * u(n, 2)
        out = to_matrix(g * mono)
        for i in range(4):
            assert out[(i, 0)] == m[(i, 1)]
            for j in (1, 2, 3):
                assert out[(i, j)].is_zero()


class TestRegRep:
    def test_element_structure(self):
        xs = [1, 2, 3, 4, 5, 6]
        el = regrep_element(xs)
        assert isinstance(el, RegRepElement)
        assert el.coefficients == tuple(Fraction(x) for x in xs)
        assert el.element.n == 3

    def test_wrong_coefficient_count(self):
        with pytest.raises(InputError):
            regrep_element([1, 2, 3])

    def test_transform_invertible_and_cached(self):
        P = regrep_transform()
        assert P.rows == P.cols == 8
        assert P.rank() == 8
        assert regrep_transform() is P

    def test_decompose_inverts_p_once(self, monkeypatch):
        # P and its inverse are kept together: two calls invert once in all and return P^-1 [X] P
        repdecomp._regrep_basis.cache_clear()
        inverted = []
        inverse = ExactMatrix.inverse
        monkeypatch.setattr(ExactMatrix, "inverse", lambda self: inverted.append(self) or inverse(self))
        xs = ([1, 2, 3, 4, 5, 6], [Fraction(1, 2), -3, 0, 2, Fraction(5, 7), 1])
        got = [regrep_decompose(x) for x in xs]
        assert len(inverted) == 1
        P = regrep_transform()
        for x, (P_, D) in zip(xs, got):
            assert P_ is P and D == oracle_inverse(P) * to_matrix(regrep_element(x).element) * P

    def test_decompose_block_structure(self):
        rng = random.Random(186)
        for _ in range(10):
            xs = [rand_fraction(rng) for _ in range(6)]
            P, D = regrep_decompose(xs)
            total = GaussianRational(sum(xs))
            for i in range(6):
                for j in range(8):
                    expect = total if i == j else GaussianRational.ZERO
                    assert D[(i, j)] == expect
                    assert D[(j, i)] == expect
            block_trace = D[(6, 6)] + D[(7, 7)]
            assert block_trace == GaussianRational(2 * xs[0] - xs[4] - xs[5])

    def test_decompose_accepts_element(self):
        xs = [1, 0, 0, 0, 0, 0]
        P1, D1 = regrep_decompose(xs)
        P2, D2 = regrep_decompose(regrep_element(xs))
        assert P1 == P2 and D1 == D2
        assert D1 == ExactMatrix.identity(8)

    def test_similarity_preserves_trace_and_det(self):
        rng = random.Random(187)
        xs = [rand_fraction(rng) for _ in range(6)]
        el = regrep_element(xs)
        P, D = regrep_decompose(el)
        M = to_matrix(el.element)
        assert D.trace() == M.trace()
        assert P.inverse() * M * P == D
