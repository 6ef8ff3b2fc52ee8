"""Exact scalar, matrix, and polynomial arithmetic."""

from fractions import Fraction
import json
import os
import random
import subprocess
import sys

from hypothesis import assume, given, settings, strategies as st
import pytest

from wittmat import (
    DimensionMismatch,
    DomainError,
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
        for bad in ([], [[]], "x", [[1], 2], [["q"]], [[None]], [[float("inf")]], [[1, 2], [3]], [[True]], [[1, False]]):
            with pytest.raises(InputError):
                ExactMatrix.from_json(bad)

    def test_solve_linear(self):
        cols = [ExactMatrix.column([1, 0, 1]), ExactMatrix.column([0, 1, 1])]
        target = ExactMatrix.column([2, 3, 5])
        coeffs = solve_linear(cols, target)
        assert coeffs == [GaussianRational(2), GaussianRational(3)]
        assert solve_linear(cols, ExactMatrix.column([1, 0, 0])) is None

    def test_solve_linear_rejects_dependent_columns(self):
        cols = [ExactMatrix.column([1, 0]), ExactMatrix.column([2, 0])]
        with pytest.raises(DomainError):
            solve_linear(cols, ExactMatrix.column([1, 0]))

    def test_dependent_columns_raise_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "from wittmat import ExactMatrix as M, solve_linear\n"
            "print(solve_linear([M.column([1, 0]), M.column([2, 0])], M.column([1, 0])))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0, proc.stdout
        assert "independent columns" in proc.stderr


# -- reference kernels in GaussianRational arithmetic: the oracle for rref and * --


def oracle_rref(M):
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


def oracle_mul(A, B):
    """Row-by-column GaussianRational dot products."""
    ocols = list(zip(*B.cells))
    return ExactMatrix([[sum((a * b for a, b in zip(row, col)), GaussianRational.ZERO) for col in ocols]
                        for row in A.cells])


def _tall_fraction(rng):
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))


def _matrix(rng, rows, cols, kind):
    """A seeded matrix: "real", "gauss" (complex entries) or "tall" (12-digit numerators)."""
    if kind == "gauss":
        return rand_matrix(rng, rows, cols, complex_entries=True)
    if kind == "tall":
        return ExactMatrix([[_tall_fraction(rng) for _ in range(cols)] for _ in range(rows)])
    return rand_matrix(rng, rows, cols)


def _differential_cases():
    rng = random.Random(120)
    cases = []
    for kind in ("real", "gauss", "tall"):
        for rows, cols in ((1, 1), (3, 3), (5, 5), (8, 8), (3, 6), (6, 3)):
            cases.append((f"{kind}{rows}x{cols}", _matrix(rng, rows, cols, kind)))
        # rank deficient: (6 x 2)(2 x 5) and a copy of row 0 inside a square matrix
        low = oracle_mul(_matrix(rng, 6, 2, kind), _matrix(rng, 2, 5, kind))
        cases.append((f"{kind}-rank2", low))
        sq = _matrix(rng, 4, 4, kind)
        cases.append((f"{kind}-repeated-row", ExactMatrix([sq.row(0), sq.row(1), sq.row(2), sq.row(0)])))
        zc = _matrix(rng, 4, 4, kind)
        cases.append((f"{kind}-zero-column", ExactMatrix([[0] + list(row[1:]) for row in zc.cells])))
    cases.append(("zeros3x4", ExactMatrix.zeros(3, 4)))
    cases.append(("zero1x1", ExactMatrix.zeros(1)))
    cases.append(("gauss-pivot-1+i", ExactMatrix([["1+i", 2, "i"], [3, "2-i", 1], ["1/2", 0, "3i"]])))
    cases.append(("gauss-imaginary-column", ExactMatrix([["i", 1, 2], ["2i", 3, "1+i"], [0, "1/3i", 1]])))
    return cases


DIFFERENTIAL = _differential_cases()


def _json(M):
    return json.dumps(M.to_json())


class TestAgainstFractionOracle:
    @pytest.mark.parametrize("label,M", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
    def test_rref_inverse_nullspace(self, label, M, monkeypatch):
        red, pivots = M.rref()
        want_red, want_pivots = oracle_rref(M)
        assert pivots == want_pivots
        assert _json(red) == _json(want_red)
        got_null = [_json(v) for v in M.nullspace()]
        got_inv = None
        if M.is_square and len(pivots) == M.rows:
            got_inv = _json(M.inverse())
        # the same nullspace and inverse code, run on the oracle elimination
        monkeypatch.setattr(ExactMatrix, "rref", oracle_rref)
        assert got_null == [_json(v) for v in M.nullspace()]
        if got_inv is not None:
            assert got_inv == _json(M.inverse())
        elif M.is_square:
            with pytest.raises(DomainError):
                M.inverse()

    @pytest.mark.parametrize("label,M", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
    def test_matmul(self, label, M):
        rng = random.Random(label)
        for kind in ("real", "gauss", "tall"):
            B = _matrix(rng, M.cols, 3, kind)
            assert _json(M * B) == _json(oracle_mul(M, B))
            C = _matrix(rng, 2, M.rows, kind)
            assert _json(C * M) == _json(oracle_mul(C, M))

    def test_min_poly_on_oracle_kernels(self, monkeypatch):
        rng = random.Random(121)
        mats = [_matrix(rng, 4, 4, kind) for kind in ("real", "gauss", "tall")]
        mats.append(ExactMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]))
        got = [str(min_poly(M)) for M in mats]
        monkeypatch.setattr(ExactMatrix, "rref", oracle_rref)
        monkeypatch.setattr(ExactMatrix, "__mul__", lambda A, B: oracle_mul(A, B) if isinstance(B, ExactMatrix) else A.scale(B))
        assert got == [str(min_poly(M)) for M in mats]


_SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
_REAL = st.builds(GaussianRational, _SMALL)
_GAUSS = st.builds(GaussianRational, _SMALL, _SMALL)


def _matrices(rows, cols):
    """Real or Gaussian matrices, one kind per matrix: rref and * take a separate path for each."""
    return st.sampled_from([_REAL, _GAUSS]).flatmap(
        lambda entry: st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    ).map(ExactMatrix)


@st.composite
def _chain(draw):
    """Matrices A (n x k), B (k x m) and a column x (m x 1), sizes at most 5."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(_matrices(n, k)), draw(_matrices(k, m)), draw(_matrices(m, 1))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: _matrices(n, n)))
    def test_inverse_is_two_sided(self, A):
        assume(A.rank() == A.rows)
        eye = ExactMatrix.identity(A.rows)
        inv = A.inverse()
        assert A * inv == eye and inv * A == eye

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda s: _matrices(*s)))
    def test_rref_idempotent(self, A):
        red, pivots = A.rref()
        assert red.rref() == (red, pivots)

    @settings(max_examples=40, deadline=None)
    @given(_chain())
    def test_product_associates_with_vectors(self, abx):
        A, B, x = abx
        assert (A * B) * x == A * (B * x)


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

    # coefficients lowest degree first -> (str, factored_str, roots in discovery order, str of remainder)
    TEXT_FORMS = [
        ([2, 0, -2], "-2x^2 + 2", "-2 (x + 1)(x - 1)", ["1", "-1"], "-2"),
        ([Fraction(-1, 3), Fraction(2, 3)], "2/3x - 1/3", "2/3 (x - 1/2)", ["1/2"], "2/3"),
        (
            [Fraction(25, 16), Fraction(-5, 3), Fraction(-11, 4), 3],
            "3x^3 - 11/4x^2 - 5/3x + 25/16",
            "3 (x + 3/4)(x - 5/6)^2",
            ["-3/4", "5/6", "5/6"],
            "3",
        ),
        ([6, -5, 7, -5, 1], "x^4 - 5x^3 + 7x^2 - 5x + 6", "(x - 2)(x - 3)(x^2 + 1)", ["2", "3"], "x^2 + 1"),
        ([GaussianRational(0, 1), 1], "x + 1i", "x + 1i", [], "x + 1i"),
        (
            [GaussianRational(1, 1), GaussianRational(0, -1), 2, 1],
            "x^3 + 2x^2 + (-1i)x + 1+1i",
            "x^3 + 2x^2 + (-1i)x + 1+1i",
            [],
            "x^3 + 2x^2 + (-1i)x + 1+1i",
        ),
        ([], "0", "0", [], "0"),
        ([5], "5", "5", [], "5"),
        ([-1], "-1", "-1", [], "-1"),
        ([0, 0, 0, 1], "x^3", "x^3", ["0", "0", "0"], "1"),
        ([0, 0, 4, -4], "-4x^3 + 4x^2", "-4 x^2(x - 1)", ["0", "0", "1"], "-4"),
        ([0, -1, 0, 1], "x^3 - x", "(x + 1)x(x - 1)", ["0", "1", "-1"], "1"),
        ([0, -4, 0, 2], "2x^3 - 4x", "x(2x^2 - 4)", ["0"], "2x^2 - 4"),
        ([-2, 0, 1], "x^2 - 2", "x^2 - 2", [], "x^2 - 2"),
        ([Fraction(1, 2), -1, 1], "x^2 - x + 1/2", "x^2 - x + 1/2", [], "x^2 - x + 1/2"),
    ]

    @pytest.mark.parametrize("coeffs, text, factored, roots, rest", TEXT_FORMS)
    def test_text_forms_and_root_order(self, coeffs, text, factored, roots, rest):
        p = RationalPolynomial(coeffs)
        assert str(p) == text
        assert p.factored_str() == factored
        found, rem = p.factor_rational_roots()
        assert [str(r) for r in found] == roots
        assert str(rem) == rest

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
