"""Exact scalar, matrix, and polynomial arithmetic."""

from fractions import Fraction
import random

import pytest

from wittmat import (
    DimensionMismatch,
    ExactMatrix,
    GaussianRational,
    InputError,
    RationalPolynomial,
    eval_poly,
    min_poly,
    solve_linear,
)
from conftest import rand_gauss, rand_matrix


class TestGaussianRational:
    def test_field_axioms_random(self):
        rng = random.Random(101)
        for _ in range(200):
            x, y, z = (rand_gauss(rng) for _ in range(3))
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            if not x.is_zero():
                assert x * x.inverse() == GaussianRational.ONE

    def test_i_squares_to_minus_one(self):
        assert GaussianRational.I * GaussianRational.I == GaussianRational(-1)

    def test_conjugate_multiplicative(self):
        rng = random.Random(102)
        for _ in range(100):
            x, y = rand_gauss(rng), rand_gauss(rng)
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_str_parse_round_trip(self):
        rng = random.Random(103)
        for _ in range(200):
            x = rand_gauss(rng)
            assert GaussianRational.parse(str(x)) == x

    def test_parse_forms(self):
        P = GaussianRational.parse
        assert P("3") == GaussianRational(3)
        assert P("-3/2") == GaussianRational(Fraction(-3, 2))
        assert P("i") == GaussianRational.I
        assert P("-i") == -GaussianRational.I
        assert P("2i") == GaussianRational(0, 2)
        assert P("3/2-5/4i") == GaussianRational(Fraction(3, 2), Fraction(-5, 4))
        assert str(GaussianRational(Fraction(3, 2), Fraction(-5, 4))) == "3/2-5/4i"

    def test_parse_rejects_garbage(self):
        for bad in ("", "x", "1+", "1++2i", "3/0"):
            with pytest.raises((InputError, ZeroDivisionError)):
                GaussianRational.parse(bad)

    def test_predicates_are_methods(self):
        x = GaussianRational(0, 1)
        assert not x.is_real()
        assert not x.is_zero()
        assert GaussianRational.ZERO.is_zero()


class TestExactMatrix:
    def test_identity_multiplication(self):
        rng = random.Random(110)
        for _ in range(30):
            m = rand_matrix(rng, 4, 4, complex_entries=True)
            eye = ExactMatrix.identity(4)
            assert m * eye == m and eye * m == m

    def test_inverse_random(self):
        rng = random.Random(111)
        eye = ExactMatrix.identity(3)
        found = 0
        while found < 25:
            m = rand_matrix(rng, 3, 3, complex_entries=True)
            if m.rank() < 3:
                continue
            found += 1
            inv = m.inverse()
            assert m * inv == eye and inv * m == eye

    def test_inverse_rejects_singular(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        with pytest.raises(Exception):
            m.inverse()

    def test_rank_and_nullspace(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert m.rank() == 2
        basis = m.nullspace()
        assert len(basis) == 1
        v = basis[0]
        prod = m * v
        assert all(prod[(i, 0)].is_zero() for i in range(3))

    def test_rref_idempotent(self):
        rng = random.Random(112)
        for _ in range(20):
            m = rand_matrix(rng, 3, 5)
            red, pivots = m.rref()
            red2, pivots2 = red.rref()
            assert red == red2 and pivots == pivots2

    def test_transpose_and_trace(self):
        rng = random.Random(113)
        for _ in range(20):
            a = rand_matrix(rng, 3, 3)
            b = rand_matrix(rng, 3, 3)
            assert (a * b).transpose() == b.transpose() * a.transpose()
            assert (a * b).trace() == (b * a).trace()

    def test_shape_mismatch_raises(self):
        a = ExactMatrix.zeros(2)
        b = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionMismatch):
            b * b

    def test_json_reads_numbers_exactly_and_rejects_bad_entries(self):
        M = ExactMatrix([["1/3", "2i"], [0, Fraction(1, 2)]])
        assert ExactMatrix.from_json(M.to_json()) == M
        assert ExactMatrix.from_json([[0.5, 3], [-2, "1-i"]]) == ExactMatrix([["1/2", 3], [-2, "1-i"]])
        for bad in ([], [[]], "x", [[1], 2], [["q"]], [[None]], [[float("inf")]], [[1, 2], [3]]):
            with pytest.raises(InputError):
                ExactMatrix.from_json(bad)

    def test_solve_linear(self):
        cols = [ExactMatrix.column([1, 0, 1]), ExactMatrix.column([0, 1, 1])]
        target = ExactMatrix.column([2, 3, 5])
        coeffs = solve_linear(cols, target)
        assert coeffs == [GaussianRational(2), GaussianRational(3)]
        assert solve_linear(cols, ExactMatrix.column([1, 0, 0])) is None


class TestRationalPolynomial:
    def test_from_roots_and_str(self):
        p = RationalPolynomial.from_roots([-1, 3])
        assert str(p) == "x^2 - 2x - 3"
        assert p.factored_str() == "(x + 1)(x - 3)"
        assert p.is_monic()

    def test_factor_rational_roots(self):
        p = RationalPolynomial.from_roots([0, 2, 2])
        roots, rem = p.factor_rational_roots()
        assert roots == [Fraction(0), Fraction(2), Fraction(2)]
        assert str(rem) == "1"

    def test_eval_poly_cayley_hamilton_style(self):
        m = ExactMatrix([[2, 1], [1, 2]])
        # (x-1)(x-3) annihilates this symmetric matrix
        p = RationalPolynomial.from_roots([1, 3])
        assert eval_poly(p, m) == ExactMatrix.zeros(2)

    def test_min_poly_of_projection(self):
        m = ExactMatrix([[1, 1], [0, 0]])
        p = min_poly(m)
        assert p == RationalPolynomial.from_roots([0, 1])
        assert eval_poly(p, m) == ExactMatrix.zeros(2)

    def test_min_poly_divides_any_annihilator(self):
        rng = random.Random(114)
        for _ in range(15):
            m = rand_matrix(rng, 3, 3)
            p = min_poly(m)
            assert p.is_monic()
            assert eval_poly(p, m) == ExactMatrix.zeros(3)
            assert p.degree <= 3
