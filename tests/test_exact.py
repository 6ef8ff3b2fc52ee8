"""Exact scalar, matrix, and polynomial arithmetic."""

import copy
from fractions import Fraction
import hashlib
import json
from math import gcd
import os
import pickle
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
    Multivector,
    Permutation,
    RationalPolynomial,
    eval_poly,
    min_poly,
    perm_matrix,
    std_rep_matrix,
)
import wittmat.exact as exact
from conftest import assert_normal, rand_gauss, rand_matrix, rand_perm, rand_real_gauss
from oracles import flat_product, one_step_eliminate, oracle_inverse, oracle_min_poly, oracle_mul, oracle_rref, scalar


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

    @pytest.mark.parametrize("text, re, im", [
        ("2e-3i", "0", "1/500"),
        ("1+2e-3i", "1", "1/500"),
        ("2E-3i", "0", "1/500"),
        ("1e-3", "1/1000", "0"),
        ("5e-1-2i", "1/2", "-2"),
        ("2e3i", "0", "2000"),
    ])
    def test_parse_exponents(self, text, re, im):
        # a sign after e or E belongs to the exponent, not to an imaginary term
        assert GaussianRational.parse(text) == GaussianRational(re, im)

    def test_division(self):
        x, y = GaussianRational(1, 2), GaussianRational(3, -4)
        assert x / y == GaussianRational(Fraction(-1, 5), Fraction(2, 5))
        assert x / Fraction(1, 2) == GaussianRational(2, 4)
        assert 2 / GaussianRational(1, 1) == GaussianRational(1, -1)
        assert Fraction(1, 3) / y == GaussianRational(Fraction(1, 25), Fraction(4, 75))
        for divide in (lambda: x / 0, lambda: x / GaussianRational.ZERO, lambda: 1 / GaussianRational.ZERO):
            with pytest.raises(DomainError, match="division by zero"):
                divide()

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

    def test_scalar_products_and_negation(self):
        M = rand_matrix(random.Random(114), 3, 2, complex_entries=True)
        for c in (3, Fraction(-2, 7), GaussianRational(1, -1)):
            want = [[x * c for x in row] for row in M.cells]
            assert [list(row) for row in (M * c).cells] == want
            assert [list(row) for row in (c * M).cells] == want
        assert [list(row) for row in (-M).cells] == [[-x for x in row] for row in M.cells]

    def test_shape_mismatch_raises(self):
        a = ExactMatrix.zeros(2)
        b = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionMismatch):
            b * b

    def test_json_reads_integers_and_strings_and_rejects_bad_entries(self):
        M = ExactMatrix([["1/3", "2i"], [0, Fraction(1, 2)]])
        assert ExactMatrix.from_json(M.to_json()) == M
        assert ExactMatrix.from_json([["1/2", 3], [-2, "1-i"]]) == ExactMatrix([["1/2", 3], [-2, "1-i"]])
        for bad in ([], [[]], "x", [[1], 2], [["q"]], [[None]], [[float("inf")]], [[1, 2], [3]], [[True]], [[1, False]],
                    [[0.5, 3], [-2, "1-i"]]):
            with pytest.raises(InputError):
                ExactMatrix.from_json(bad)

    @pytest.mark.parametrize("x", [1, -7, 10**30, "3/4", "1-2i", " 5 "])
    def test_one_json_scalar_rule_for_matrices_and_elements(self, x):
        """A JSON integer or string reads the same as a matrix entry and as a coefficient."""
        want = GaussianRational.parse(x) if isinstance(x, str) else GaussianRational(x)
        assert ExactMatrix.from_json([[x]])[0, 0] == want
        g = Multivector.from_json({"n": 1, "complex": True, "terms": [{"a": [1], "coeff": x}]})
        assert g._terms == {0b10: want}

    @pytest.mark.parametrize("x", [0.5, 0.1, 1.0, True, False, None, [1], {"re": 1}])
    def test_json_scalar_rejects_floats_booleans_and_containers(self, x):
        with pytest.raises(InputError):
            ExactMatrix.from_json([[x]])
        with pytest.raises(InputError):
            Multivector.from_json({"n": 1, "terms": [{"coeff": x}]})

    def test_flat_equality_cross_multiplies(self):
        flat = ExactMatrix._from_flat
        M = flat(2, 3, 6, [1, -2, 3, 0, 5, 6], None)
        same = [flat(2, 3, 12, [2, -4, 6, 0, 10, 12], None), flat(2, 3, 6, [1, -2, 3, 0, 5, 6], [0] * 6)]
        for N in same + [ExactMatrix(M.cells)]:
            assert M == N and N == M and hash(M) == hash(N)
        for N in (
            flat(2, 3, 12, [2, -4, 6, 0, 10, 13], None),  # one entry differs
            flat(3, 2, 6, [1, -2, 3, 0, 5, 6], None),  # same list, other shape
            flat(2, 3, 6, [1, -2, 3, 0, 5, 6], [0, 0, 0, 0, 0, 1]),  # an imaginary part
        ):
            assert M != N and N != M and (M.cells == N.cells) is False
        Z = flat(2, 2, 3, [1, 0, 0, 1], [0, 2, -1, 0])
        assert Z == flat(2, 2, 9, [3, 0, 0, 3], [0, 6, -3, 0]) == ExactMatrix(Z.cells)
        assert Z != flat(2, 2, 9, [3, 0, 0, 3], [0, 6, 3, 0])

    def test_flat_product_is_over_its_least_denominator(self):
        A = ExactMatrix._from_flat(2, 2, 6, [3, 0, 0, 3], None)  # I / 2
        B = ExactMatrix._from_flat(2, 2, 4, [2, 2, 0, 2], [0, 2, 0, 0])
        AB = A * B
        den, re, im = AB._flat
        assert (den, re, im) == (4, [1, 1, 0, 1], [0, 1, 0, 0])
        assert AB == oracle_mul(ExactMatrix(A.cells), ExactMatrix(B.cells))

    def test_real_flat_times_gaussian_flat(self):
        R = ExactMatrix._from_flat(2, 2, 3, [1, 2, 0, -3], None)
        G = ExactMatrix._from_flat(2, 2, 2, [1, 0, 4, 1], [0, 2, 0, -1])
        K = ExactMatrix._from_flat(2, 1, 1, [1, 0], None)  # kills the column of G with an imaginary part
        E = ExactMatrix._from_flat(1, 2, 1, [0, 1], None)
        for P, Q, imag in ((R, G, True), (G, R, True), (G, K, False), (E, G, True)):
            PQ = P * Q
            assert PQ._flat is not None and (PQ._lifted()[2] is not None) is imag
            assert _json(PQ) == _json(oracle_mul(ExactMatrix(P.cells), ExactMatrix(Q.cells)))
        assert _json(R * G) == '[["3/2", "1/3"], ["-2", "-1/2+1/2i"]]'

    def test_singular_inverse_raises_under_optimize(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "from wittmat import DomainError, ExactMatrix as M, a, mv_inverse\n"
            "for f in (M([[1, 2], [2, 4]]).inverse, M([['1+i', 2], ['2+2i', 4]]).inverse, lambda: mv_inverse(a(1, 1))):\n"
            "    try:\n"
            "        f()\n"
            "    except DomainError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "matrix is singular\n" * 3


def _zi_row(zs):
    """A lifted Z[i] row from (re, im) pairs."""
    return [re for re, _ in zs], [im for _, im in zs]


def _zi_mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


class TestBareissStep:
    def test_exact_division_in_z_i(self):
        # x = q*x0 and y = q*y0, so (p*x - f*y) / q = p*x0 - f*y0
        p, f, q = (3, 1), (1, -2), (1, 1)
        x0, y0 = [(2, 4), (0, 5), (-1, 0)], [(1, -1), (3, 0), (2, 2)]
        x, y = _zi_row([_zi_mul(q, z) for z in x0]), _zi_row([_zi_mul(q, z) for z in y0])
        want = [(a[0] - b[0], a[1] - b[1]) for a, b in zip((_zi_mul(p, z) for z in x0), (_zi_mul(f, z) for z in y0))]
        assert exact._bareiss_step(p, f, q, x, y) == _zi_row(want)

    @pytest.mark.parametrize("q", [(2, 0), (1, 1), (0, 3), (2, -1)])
    def test_inexact_division_in_z_i_raises(self, q):
        x = _zi_row([(1, 2), (1, 0)])
        with pytest.raises(DomainError, match=r"^inexact division in Z\[i\]"):
            exact._bareiss_step((1, 0), (0, 0), q, x, x)

    def test_inexact_division_raises_under_optimize(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "from wittmat import DomainError\n"
            "from wittmat.exact import _bareiss_step\n"
            "x = ([1, 1], [2, 0])\n"
            "for q in ((2, 0), (1, 1)):\n"
            "    try:\n"
            "        _bareiss_step((1, 0), (0, 0), q, x, x)\n"
            "    except DomainError as exc:\n"
            "        print(str(exc).split(':')[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "inexact division in Z[i]\n" * 2


def _after_first_pivot(rows, lazy_x, lazy_z):
    """Lifted rows after a one-step on column 0, and the same rows after three one-steps.

    Row 0 pivots on column 0 and rows 1 and 2 on columns 1 and 2; lazy_x and
    lazy_z zero row 3's or row 2's entry in column 0, so that row skips the
    first step and stays up to date with 1.
    """
    rows = [list(row) for row in rows]
    for i, lazy in ((3, lazy_x), (2, lazy_z)):
        if lazy:
            rows[i][0] = (0, 0)
    cplx = any(im for row in rows for _, im in row)
    lifted = [([re for re, _ in row], [im for _, im in row] if cplx else None) for row in rows]
    once, thrice = [(list(re), im and list(im)) for re, im in lifted], [(list(re), im and list(im)) for re, im in lifted]
    state = one_step_eliminate(once, 1)
    assert one_step_eliminate(thrice, 3)[0] == [0, 1, 2]
    return once, state[1], thrice


class TestBareissPair:
    """The two-column update of one row against two one-steps and their checked divisions."""

    ROWS = [[(2, 1), (1, 0), (3, -1), (1, 2), (-2, 1)],
            [(1, -1), (3, 2), (1, 0), (2, 0), (0, 3)],
            [(-1, 2), (2, 2), (4, 1), (1, -3), (2, 0)],
            [(3, 0), (1, 1), (-2, 2), (5, 1), (1, 1)]]

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("lazy_x", [False, True])
    @pytest.mark.parametrize("lazy_z", [False, True])
    def test_one_row_equals_two_one_steps(self, cplx, lazy_x, lazy_z):
        rows = [[(re, im if cplx else 0) for re, im in row] for row in self.ROWS]
        m, div, want = _after_first_pivot(rows, lazy_x, lazy_z)
        y, z, x = m[1], m[2], m[3]
        (a, b), (c, d), (e, f) = [(exact._entry(row, 1), exact._entry(row, 2)) for row in (y, z, x)]
        q, t = div[1], div[2]
        p = exact._quotient(exact._minor(a, b, c, d), t)
        blk = (a, b, c, d, p, q, t) if cplx else tuple(k for k, _ in (a, b, c, d, p, q, t))
        assert (q == t == div[3]) is not (lazy_x or lazy_z)  # Sylvester's form, or the lazy one
        assert exact._bareiss_pair(x, div[3], e, f, blk, y, z) == (want[3], p)

    def test_proportional_entries_take_only_the_first_one_step(self):
        # a*f - b*e == 0: the first one-step clears the second column too
        y, z, x = ([2, 4, 1], [1, 0, 0]), ([0, 1, 3], [0, 1, 0]), ([4, 8, 5], [2, 0, 1])
        a, b, c, d, e, f = (2, 1), (4, 0), (0, 0), (1, 1), (4, 2), (8, 0)
        blk = (a, b, c, d, exact._quotient(exact._minor(a, b, c, d), (1, 0)), (1, 0), (1, 0))
        assert exact._bareiss_pair(x, (1, 0), e, f, blk, y, z) == (exact._bareiss_step(a, e, (1, 0), x, y), a)

    # blk for pivot rows up to date with q = 1 + i: a = 1 + i, b = 1, c = 0, d = 1 + i, so p = 1 + i;
    # a row with e = f = 1 + i has u = 1 + i and v = i, and (p*x - u*y - v*z) / q is x - y - i*z / (1 + i)
    BLK = ((1, 1), (1, 0), (0, 0), (1, 1), (1, 1), (1, 1), (1, 1))

    @pytest.mark.parametrize("z", [([1], [0]), ([0], [1]), ([2, 1], [0, 0])])
    def test_inexact_division_in_z_i_raises(self, z):
        zero = ([0] * len(z[0]), [0] * len(z[0]))
        with pytest.raises(DomainError, match=r"^inexact division in Z\[i\]"):
            exact._bareiss_pair(zero, (1, 1), (1, 1), (1, 1), self.BLK, zero, z)

    def test_inexact_multiplier_raises(self):
        # e*d - f*c = 2 + 2i is not a multiple of q = 3
        blk = ((1, 1), (1, 0), (0, 0), (1, 1), (1, 1), (3, 0), (3, 0))
        row = ([0], [0])
        with pytest.raises(DomainError, match=r"^inexact division in Z\[i\]"):
            exact._bareiss_pair(row, (3, 0), (1, 1), (1, 1), blk, row, row)

    def test_inexact_division_raises_under_optimize(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "from wittmat import DomainError\n"
            "from wittmat.exact import _bareiss_pair\n"
            f"blk = {self.BLK!r}\n"
            "zero = ([0], [0])\n"
            "for z in (([1], [0]), ([0], [1])):\n"
            "    try:\n"
            "        _bareiss_pair(zero, (1, 1), (1, 1), (1, 1), blk, zero, z)\n"
            "    except DomainError as exc:\n"
            "        print(str(exc).split(':')[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "inexact division in Z[i]\n" * 2


@st.composite
def _lifted_rows(draw):
    """(rows, cols, lifted rows, dens): 1-9 rows and columns of small integers, real or Gaussian.

    Zeros are forced in: a share of the entries, whole columns, and rows
    that repeat or scale an earlier row, so that lazy rows, skipped columns,
    zero 2x2 minors and pivots without a partner all turn up.
    """
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cplx = draw(st.booleans())
    zeros = draw(st.sampled_from([0.0, 0.3, 0.6, 0.85]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    part = lambda: rng.randint(-4, 4)
    m = [[(part(), part() if cplx else 0) if rng.random() >= zeros else (0, 0) for _ in range(cols)]
         for _ in range(rows)]
    for j in range(cols):
        if rng.random() < 0.1:
            for row in m:
                row[j] = (0, 0)
    for i in range(1, rows):
        if rng.random() < 0.2:
            k, s = rng.randrange(i), (rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 1)) if cplx else 0)
            m[i] = [_zi_mul(s, z) for z in m[k]]
    lifted = [([re for re, _ in row], [im for _, im in row] if cplx else None) for row in m]
    return rows, cols, lifted, [rng.randint(1, 5) for _ in range(rows)]


class TestPairStepsAgainstOneSteps:
    """After every two-column step the stored rows are those two one-steps store."""

    @settings(max_examples=200, deadline=None)
    @given(_lifted_rows())
    def test_stored_rows_after_every_pair(self, case):
        rows, cols, lifted, dens = case
        # the first k columns of every row: the steps there are those of the whole
        # matrix up to its k-th column, so every prefix checks one more pair
        for k in range(1, cols + 1):
            for live in (None, dens):
                got = [(re[:k], im and im[:k]) for re, im in lifted]
                want = [(re[:k], im and im[:k]) for re, im in lifted]
                assert (exact._eliminate(got, k, live), got) == (one_step_eliminate(want, k, live), want)


# numerators: zero, small of either sign, and up to 2,000 bits; denominators positive
_NUMERATORS = st.one_of(st.just(0), st.integers(-10**6, 10**6), st.integers(-(2**2000), 2**2000))
_DENOMINATORS = st.one_of(st.integers(1, 10**6), st.integers(1, 2**2000))


@st.composite
def _scalar_batches(draw):
    """(re, im, dens) for exact._scalars: im None or a list with zeros, dens one int or one per entry."""
    size = draw(st.integers(0, 12))
    entries = st.lists(_NUMERATORS, min_size=size, max_size=size)
    im = draw(st.none() | entries)
    return draw(entries), im, draw(_DENOMINATORS | st.lists(_DENOMINATORS, min_size=size, max_size=size))


class TestScalars:
    """exact._scalars builds every coefficient as the one-at-a-time oracle (oracles.scalar) does."""

    @settings(max_examples=150, deadline=None)
    @given(_scalar_batches())
    def test_matches_fraction_oracle(self, batch):
        re, im, dens = batch
        got = exact._scalars(re, im, dens)
        assert len(got) == len(re)
        for k, z in enumerate(got):
            d = dens if isinstance(dens, int) else dens[k]
            want = scalar(re[k], 0 if im is None else im[k], d)
            if want is GaussianRational.ZERO:
                assert z is GaussianRational.ZERO
            assert type(z) is GaussianRational and type(z.re) is Fraction and type(z.im) is Fraction
            assert_normal(z)
            for part, w in ((z.re, want.re), (z.im, want.im)):
                assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1
                assert (part.numerator, part.denominator) == (w.numerator, w.denominator)
            assert z == want and hash(z) == hash(want) and str(z) == str(want)
            for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
                assert twin == want and hash(twin) == hash(want) and str(twin) == str(want)

    def test_zero_entries_stay_the_shared_zero(self):
        got = exact._scalars([0, 3, 0, -4], [0, 0, 0, 2], [5, 6, 7, 8])
        assert got[0] is GaussianRational.ZERO and got[2] is GaussianRational.ZERO
        assert [str(z) for z in got] == ["0", "1/2", "0", "-1/2+1/4i"]
        assert exact._scalars([0, 0], None, 9) == [GaussianRational.ZERO] * 2 and exact._scalars([], None, 1) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_NUMERATORS, _NUMERATORS, _DENOMINATORS), min_size=1, max_size=8), st.booleans())
    def test_normal_form_with_zeros_between_live_entries(self, entries, cplx):
        re, im, dens = [], [], []
        for x, y, d in entries:  # a zero entry after each drawn one, with a denominator of its own
            re += [x, 0]
            im += [y, 0]
            dens += [d, d + 1]
        im = im if cplx else None
        for got in exact._scalars(re, im, dens), exact._scalars(re, im, dens[0]):
            assert got[1::2] == [GaussianRational.ZERO] * len(entries)
            for z in got:
                assert_normal(z)
        for k, z in enumerate(exact._scalars(re, im, dens)):
            assert z == scalar(re[k], 0 if im is None else im[k], dens[k])


# parts of an oracle pair: zero, integers, small fractions and fractions of up to 200 bits
_PART = st.one_of(
    st.just(Fraction(0)),
    st.integers(-50, 50).map(Fraction),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
)
# (re, im) pairs: zero, integer and real values, pure-imaginary values, and any
_PAIR = st.one_of(
    st.just((Fraction(0), Fraction(0))),
    st.tuples(st.integers(-50, 50).map(Fraction), st.just(Fraction(0))),
    st.tuples(_PART, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), _PART),
    st.tuples(_PART, _PART),
)


def _oracle_str(re: Fraction, im: Fraction) -> str:
    """The text form built from the two Fractions."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _oracle_hash(re: Fraction, im: Fraction) -> int:
    return hash(re) if im == 0 else hash((re, im))


def _oracle_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def _oracle_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


class TestScalarAgainstFractionPairs:
    """GaussianRational against an oracle that holds each value as a pair of Fractions (re, im)."""

    @staticmethod
    def _check(z, want):
        assert_normal(z)
        assert (z.re, z.im) == want and type(z.re) is Fraction and type(z.im) is Fraction
        assert hash(z) == _oracle_hash(*want) and str(z) == _oracle_str(*want)

    @settings(max_examples=200, deadline=None)
    @given(_PAIR, _PAIR)
    def test_binary_operations(self, x, y):
        zx, zy = GaussianRational(*x), GaussianRational(*y)
        assert_normal(zx)
        self._check(zx + zy, (x[0] + y[0], x[1] + y[1]))
        self._check(zx - zy, (x[0] - y[0], x[1] - y[1]))
        self._check(zx * zy, _oracle_mul(x, y))
        assert (zx == zy) == (x == y) and (zx != zy) == (x != y)
        if y == (0, 0):
            with pytest.raises(DomainError, match="division by zero"):
                zx / zy
        else:
            self._check(zx / zy, _oracle_mul(x, _oracle_inverse(y)))

    @settings(max_examples=200, deadline=None)
    @given(_PAIR)
    def test_unary_operations_text_and_pickle(self, x):
        z = GaussianRational(*x)
        self._check(z, x)
        self._check(-z, (-x[0], -x[1]))
        self._check(z.conjugate(), (x[0], -x[1]))
        if x == (0, 0):
            with pytest.raises(DomainError, match="division by zero"):
                z.inverse()
        else:
            self._check(z.inverse(), _oracle_inverse(x))
        assert z.is_zero() == (x == (0, 0)) and z.is_real() == (x[1] == 0)
        self._check(GaussianRational.parse(str(z)), x)
        assert z.__reduce__() == (GaussianRational, x)
        self._check(pickle.loads(pickle.dumps(z)), x)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(), st.integers(-(2**200), 2**200), st.fractions()), _PAIR)
    def test_ints_and_fractions_hash_and_compare_as_themselves(self, x, y):
        z = GaussianRational(x)
        assert hash(z) == hash(x) and z == x and x == z and not z != x and not x != z
        self._check(z, (Fraction(x), Fraction(0)))
        # a real operand of an operation counts as the pair (x, 0)
        zy = GaussianRational(*y)
        self._check(zy + x, (y[0] + x, y[1]))
        self._check(x - zy, (x - y[0], -y[1]))
        self._check(x * zy, (x * y[0], x * y[1]))
        assert (zy == x) == (x == zy) == (y == (x, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PAIR, max_size=10))
    def test_lift_then_scalars_gives_back_the_entries(self, pairs):
        zs = [GaussianRational(*x) for x in pairs]
        cplx = exact._any_imag(zs)
        assert cplx == any(im for _, im in pairs)
        den, re, im = exact._lift(zs, cplx)
        assert den > 0 and gcd(den, *re, *(im or ())) == 1  # the least common denominator
        got = exact._scalars(re, im, den)
        assert got == zs and [str(z) for z in got] == [str(z) for z in zs]
        for z in got:
            assert_normal(z)


class TestLazySteps:
    """Count row updates of either step kind: rows with zeros in the pivot columns take none."""

    @staticmethod
    def _steps(monkeypatch, f):
        """(kind, f, cplx) per row update: "step" for a one-column update (p*x - f*y) / q, "pair" for a two-column one."""
        calls = []
        step, pair = exact._bareiss_step, exact._bareiss_pair

        def counting_step(p, f_, q, x, y):
            calls.append(("step", f_, x[1] is not None))
            return step(p, f_, q, x, y)

        def counting_pair(x, s, e, f_, blk, y, z):
            calls.append(("pair", f_, x[1] is not None))
            return pair(x, s, e, f_, blk, y, z)

        with monkeypatch.context() as patched:
            patched.setattr(exact, "_bareiss_step", counting_step)
            patched.setattr(exact, "_bareiss_pair", counting_pair)
            f()
        return calls

    def test_permutation_matrix_takes_no_step(self, monkeypatch):
        P = perm_matrix(rand_perm(random.Random(130), 16), 16)
        assert self._steps(monkeypatch, P.inverse) == []
        assert self._steps(monkeypatch, P.rref) == []

    @pytest.mark.parametrize("k", [1, 8, 16])
    def test_standard_image_of_a_transposition(self, monkeypatch, k):
        # one all -1 column: its pivot updates the 15 other rows once
        S = std_rep_matrix(Permutation.from_cycles([(k, 17)]), 16)
        assert len(self._steps(monkeypatch, S.inverse)) == 15

    @pytest.mark.parametrize("kind", ["real", "gauss"])
    def test_dense_work_does_not_grow(self, monkeypatch, kind):
        # three pair steps, each updating its second pivot row, every non-pivot row and then its first pivot row once
        rng = random.Random(131)
        part = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))  # never zero
        A = ExactMatrix([[GaussianRational(part(), part() if kind == "gauss" else 0) for _ in range(6)] for _ in range(6)])
        kinds = [kind_ for kind_, _, _ in self._steps(monkeypatch, A.inverse)]
        assert kinds == (["step"] + ["pair"] * 4 + ["step"]) * 3

    def test_late_pivot_is_caught_up_in_z_i(self, monkeypatch):
        M = dict(DIFFERENTIAL)["sparse-gauss-late-pivot"]
        for f in (M.rref, M.inverse):
            assert [cplx for kind, f_, cplx in self._steps(monkeypatch, f) if kind == "step" and f_ == (0, 0)] == [True]

    def test_kept_power_is_caught_up_in_z_i(self, monkeypatch):
        # A^2..A^5 skip every kept power and are caught up; A^6 reduces to zero against I
        M = dict(DIFFERENTIAL)["sparse-gauss-monomial"]
        steps = self._steps(monkeypatch, lambda: min_poly(M))
        assert [cplx for kind, f_, cplx in steps if kind == "step" and f_ == (0, 0)] == [True] * 4


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
    # zero leading entries: inverse and rref must swap rows at steps 0 and 1
    cases.append(("real-row-swaps", ExactMatrix([[0, 1, 2], [0, 0, 3], [5, 1, 1]])))
    cases.append(("gauss-row-swaps", ExactMatrix([[0, "i", 1], [0, 0, 2], ["1+i", 1, 0]])))
    return cases + NEGATIVE_PIVOTS + _sparse_cases(random.Random(122)) + PAIR_STEPS


# the last Bareiss pivot, the div every row is divided by at the end, is a
# negative real, in real and in Gaussian rows, or the Gaussian -i
NEGATIVE_PIVOTS = [
    ("real-pivot-minus-1", ExactMatrix([[-1, 2], [3, 4]])),
    ("real-negative-pivots", ExactMatrix([[1, -1, 2], [-1, 3, 2], [3, 2, 2]])),
    ("real-singular-minus-1", ExactMatrix([[-1, 2, 3, 1], [2, -4, -6, "1/2"], [0, 1, 1, 0]])),
    ("gauss-negative-pivots", ExactMatrix([["-3-i", "3+i", "-3+i"], ["-3-i", "2-2i", "i"], ["3-2i", -3, "3+i"]])),
    ("gauss-pivot-minus-i", ExactMatrix([["-i", 1, 2], ["-2i", 3, 7], ["i", 2, 8]])),
    ("gauss-singular-minus-i", ExactMatrix([["-i", 1, 2], ["-2i", 2, 4], [1, 0, "i"]])),
]


# the branches of the two-column step: an odd last pivot column takes a
# one-step; a column with no nonzero 2x2 minor below the pivot row is
# skipped; a first candidate row whose minor is zero is passed over for the
# next (and takes only the first one-step); lazy rows (zeros in the
# previous pivot columns) are zero in exactly one column of a later pair;
# and a late second pivot row is caught up (cc zero) or updated (cc nonzero)
# while it is lazy, in Z[i]
PAIR_STEPS = [
    ("pair-odd-last-column", ExactMatrix([[2, -1, 3, 1, 4], [1, 3, -2, 5, 1], [4, 1, 1, -3, 2], [-1, 2, 5, 1, 3],
                                          [3, -2, 1, 2, -1]])),
    ("pair-dependent-column", ExactMatrix([[1, 2, 3, 1], [2, 4, 1, 5], [-1, -2, 2, 3], [3, 6, 4, 2]])),
    ("gauss-pair-zero-first-minor", ExactMatrix([["1+i", 2, 1, "i"], ["2+2i", 4, 3, 1], [1, 3, "2-i", 0],
                                                 ["i", 1, "2+i", 3]])),
    ("pair-lazy-one-zero", ExactMatrix([[2, 1, 3, -1, 2, 1], [1, -3, 2, 2, 1, 4], [3, 1, -1, 2, 2, 1],
                                        [-2, 2, 1, 3, 1, 2], [0, 0, 3, 0, 1, 2], [0, 0, 0, 2, 1, 1]])),
    ("gauss-pair-lazy-one-zero", ExactMatrix([["1+i", 1, 3, "-i", 2, 1], [1, "-3+2i", 2, 2, "i", 4],
                                              [3, "i", -1, "2-i", 2, 1], ["-2i", 2, "1+i", 3, 1, 2],
                                              [0, 0, "3-i", 0, 1, "2i"], [0, 0, 0, "2+i", 1, 1]])),
    ("gauss-late-second-pivot", ExactMatrix([["1+i", 2, 1, "i", 3], [2, "1-i", 3, 1, "2i"], [0, 0, "2+i", 1, 1],
                                             [0, 0, 0, "1-2i", 2], ["i", 1, 2, 3, "1+i"]])),
    ("gauss-late-second-pivot-updated", ExactMatrix([["1+i", 2, 1, "i", 3], [2, "1-i", 3, 1, "2i"],
                                                     [0, 0, "2+i", 1, 1], [0, 0, "i", "1-2i", 2],
                                                     ["i", 1, 2, 3, "1+i"]])),
]


def _sparse_cases(rng):
    """Mostly-zero matrices, on which most lazy Bareiss steps are skipped."""
    cases = [(f"sparse-perm{m}", perm_matrix(rand_perm(rng, m), m)) for m in (8, 16)]
    cases.append(("sparse-std8", std_rep_matrix(rand_perm(rng, 9), 8)))
    # upper triangular with a nonzero diagonal and a zero first super-diagonal
    tri = [[0] * 6 for _ in range(6)]
    for i in range(6):
        tri[i][i] = Fraction(rng.randint(1, 9), rng.randint(1, 7))
        for j in range(i + 2, 6):
            tri[i][j] = rand_real_gauss(rng)
    cases.append(("sparse-upper-triangular", ExactMatrix(tri)))
    blocks = [_matrix(rng, k, k, "gauss") for k in (3, 2, 3)]
    block_diag = [[0] * 8 for _ in range(8)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B.cells):
            block_diag[at + i][at:at + B.cols] = row
        at += B.rows
    cases.append(("sparse-gauss-block-diagonal", ExactMatrix(block_diag)))
    # row 2 skips the steps at columns 0 and 1, then pivots and is caught up in Z[i]
    late = [list(row) for row in _matrix(rng, 5, 5, "gauss").cells]
    late[2][0] = late[2][1] = 0
    cases.append(("sparse-gauss-late-pivot", ExactMatrix(late)))
    # a 6-cycle times a Gaussian diagonal: its powers A^2..A^5 meet the kept
    # powers only in zeros, so min_poly catches each up in Z[i] as it keeps it
    cycle = perm_matrix(Permutation.from_cycles("(123456)"), 6)
    scale = [GaussianRational(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(6)]
    cases.append(("sparse-gauss-monomial", ExactMatrix([[x * z for x in row] for row, z in zip(cycle.cells, scale)])))
    # rank 3 of 7: two zero rows, a repeated row and a multiple of another
    rows = [[rand_real_gauss(rng) if rng.random() < 0.3 else 0 for _ in range(7)] for _ in range(3)]
    rows[0][0] = rows[1][3] = rows[2][5] = GaussianRational(1)
    zero_row = [0] * 7
    cases.append(("sparse-rank-deficient", ExactMatrix([zero_row, rows[0], rows[1], rows[0], zero_row, rows[2],
                                                        [2 * x for x in rows[1]]])))
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
        if M.is_square:
            assert _outcome(M.inverse) == _outcome(lambda: oracle_inverse(M))
        got_null = [_json(v) for v in M.nullspace()]
        # the same nullspace code, run on the oracle elimination
        monkeypatch.setattr(ExactMatrix, "rref", oracle_rref)
        assert got_null == [_json(v) for v in M.nullspace()]

    @pytest.mark.parametrize("label,M", NEGATIVE_PIVOTS, ids=[c[0] for c in NEGATIVE_PIVOTS])
    def test_negative_divisors_are_reached(self, label, M, monkeypatch):
        divs = []
        over_pivot = exact._over_pivot
        monkeypatch.setattr(exact, "_over_pivot", lambda row, q: divs.append(q) or over_pivot(row, q))
        red, _ = M.rref()
        assert any(q[1] == 0 and q[0] < 0 or q == (0, -1) for q in divs), divs
        assert all(x.re.denominator > 0 and x.im.denominator > 0 for row in red.cells for x in row)

    @pytest.mark.parametrize("label,M", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
    def test_matmul(self, label, M):
        rng = random.Random(label)
        for kind in ("real", "gauss", "tall"):
            B = _matrix(rng, M.cols, 3, kind)
            assert _json(M * B) == _json(oracle_mul(M, B))
            C = _matrix(rng, 2, M.rows, kind)
            assert _json(C * M) == _json(oracle_mul(C, M))

    def test_min_poly_on_oracle_kernels(self):
        rng = random.Random(121)
        mats = [_matrix(rng, 4, 4, kind) for kind in ("real", "gauss", "tall")]
        mats.append(ExactMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]))
        mats += [M for label, M in DIFFERENTIAL if M.is_square and (M.rows <= 5 or label.startswith("sparse-"))]
        assert [str(min_poly(M)) for M in mats] == [str(oracle_min_poly(M)) for M in mats]


class TestOneProduct:
    """``*`` and min_poly's powers, on cells or flat matrices, read each one's lift through exact._flat_product."""

    @pytest.mark.parametrize("rows,inner,width", [(4, 1, 5), (1, 1, 1), (5, 4, 1), (1, 6, 1), (1, 3, 4)])
    def test_cells_of_inner_size_or_width_one(self, rows, inner, width):
        rng = random.Random(f"{rows}x{inner}x{width}")
        for lk in ("real", "gauss", "tall"):
            for rk in ("real", "gauss", "tall"):
                A, B = _matrix(rng, rows, inner, lk), _matrix(rng, inner, width, rk)
                assert _json(A * B) == _json(oracle_mul(A, B))

    def test_real_cells_times_gaussian_cells(self):
        rng = random.Random(160)
        R, G = _matrix(rng, 5, 5, "real"), _matrix(rng, 5, 5, "gauss")
        K = ExactMatrix([[1, "2i"], [3, "-i"], [0, 0], [0, 0], [0, 0]])  # a Gaussian column over a real one
        for P, Q in ((R, G), (G, R), (R, K), (K.transpose(), R)):
            PQ = P * Q
            assert _json(PQ) == _json(oracle_mul(P, Q))
            assert (PQ._lifted()[2] is None) == (oracle_mul(P, Q)._lifted()[2] is None)

    @pytest.mark.parametrize("kind", ["real", "gauss"])
    def test_wide_lines_lose_their_contents(self, kind, monkeypatch):
        # lifts past 512 bits: entries over distinct 300-bit denominators, and rows (left) or
        # columns (right) sharing a 300-bit factor; a whole-matrix lift only widens them
        needs = []
        product = exact._flat_product
        monkeypatch.setattr(
            exact, "_flat_product",
            lambda left, right, inner, width: needs.append(exact._bits(*left) + exact._bits(*right)) or product(left, right, inner, width),
        )
        rng = random.Random(f"wide-{kind}")
        cplx = kind == "gauss"
        wide = lambda: Fraction(rng.randint(-9, 9), rng.getrandbits(300) | 1)
        entry = lambda f: GaussianRational(f(), f() if cplx else 0)
        D = ExactMatrix([[entry(wide) for _ in range(4)] for _ in range(4)])
        row_factors = [rng.getrandbits(300) | 1 for _ in range(4)]
        F = ExactMatrix([[entry(lambda: rng.randint(-9, 9)) * g for _ in range(4)] for g in row_factors])
        for P, Q in ((D, D), (F, F.transpose()), (D, F.transpose()), (F, D)):
            needs.clear()
            assert _json(P * Q) == _json(oracle_mul(P, Q))
            assert len(needs) == 1 and needs[0] > exact._CONTENT_BITS

    @pytest.mark.parametrize("cycles,m", [("(123456)", 6), ("(12)(345)", 5), ("(1234)(5678)", 8), ("(1)", 3)])
    def test_min_poly_of_i_times_a_permutation(self, cycles, m):
        # the powers (iP)^k = i^k P^k alternate between real and imaginary
        P = perm_matrix(Permutation.from_cycles(cycles), m)
        den, re, _ = P._lifted()
        for M in (P.scale(GaussianRational.I), ExactMatrix._from_flat(m, m, den, [0] * len(re), re)):
            assert str(min_poly(M)) == str(oracle_min_poly(M))

    @pytest.mark.parametrize("kind", ["real", "gauss", "tall"])
    def test_min_poly_with_one_300_bit_entry(self, kind):
        rng = random.Random(f"300-{kind}")
        for n in (2, 3, 4):
            cells = [list(row) for row in _matrix(rng, n, n, kind).cells]
            cells[rng.randrange(n)][rng.randrange(n)] = GaussianRational(Fraction(rng.getrandbits(300) | 1 << 299, rng.randint(1, 9)))
            M = ExactMatrix(cells)
            assert str(min_poly(M)) == str(oracle_min_poly(M))


class TestOneForm:
    """A matrix built from cells lifts them once, and elimination reads its rows from that lift."""

    @pytest.mark.parametrize("rows,cols", [(1, 5), (5, 1), (4, 4), (3, 6)])
    @pytest.mark.parametrize("kind", ["real", "gauss", "tall"])
    def test_lines_are_each_rows_own_lift(self, rows, cols, kind):
        rng = random.Random(f"lines-{kind}-{rows}x{cols}")
        cells = [list(row) for row in _matrix(rng, rows, cols, kind).cells]
        if rows > 1:
            cells[rng.randrange(rows)] = [0] * cols
        M = ExactMatrix(cells)
        cplx = M._lifted()[2] is not None
        assert cplx == (kind == "gauss")
        assert M._lines() == [exact._lift(row, cplx) for row in M.cells]

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("kind", ["real", "gauss", "tall"])
    def test_lift_is_kept_and_elimination_leaves_it(self, n, kind):
        M = _matrix(random.Random(f"kept-{kind}-{n}"), n, n, kind)
        assert M._lifted() is M._lifted()
        inv, red = M.inverse(), M.rref()
        assert (_json(M.inverse()), M.rref()) == (_json(inv), red)
        # inverse writes into the rows _lines hands it, which must not be the kept lift's
        fresh = ExactMatrix(M.cells)
        assert M._lifted() == fresh._lifted() and M == fresh


def _outcome(f):
    """The JSON of f()'s matrix, or the DomainError it raised."""
    try:
        return _json(f())
    except DomainError as exc:
        return f"DomainError: {exc}"


# sha256[:16] of the inverse's JSON (None: singular) and of str(min_poly), per square case
PINNED = {
    "real1x1": ("6668e708856d802f", "ed359f450f1df7c0"),
    "real3x3": ("58257f294ba3c84d", "7237472b96225797"),
    "real5x5": ("056c413ddbc32ec3", "493c9aa16deac907"),
    "real8x8": ("c1640ac09ba5a3b5", "a385fd0ad90f7060"),
    "real-repeated-row": (None, "76df0ffc0f0f3343"),
    "real-zero-column": (None, "846f3ea9f031788f"),
    "gauss1x1": ("fcb66bf6b389cbee", "8b356af3ebdd9ea1"),
    "gauss3x3": ("e10010e9cb625c01", "3bd171f72f08f69a"),
    "gauss5x5": ("261213647eba5960", "62c92cb4df6598ec"),
    "gauss8x8": ("a5725a5c67e82d8a", "af3d3bb813eda2bb"),
    "gauss-repeated-row": (None, "814b13e9f501fd12"),
    "gauss-zero-column": (None, "120da89a3f834946"),
    "tall1x1": ("1a8a78ebca7b4ad5", "376f3f4719d9bdff"),
    "tall3x3": ("ed6f5d0598222946", "b0bf02a810abdd59"),
    "tall5x5": ("cbed250a1511d45d", "83547a5d2fc0208d"),
    "tall8x8": ("1dc3aecaba4f5592", "9f0682fcc395cc63"),
    "tall-repeated-row": (None, "b46eebba5fd1460c"),
    "tall-zero-column": (None, "013966be7d8cc03e"),
    "zero1x1": (None, "2d711642b726b044"),
    "gauss-pivot-1+i": ("26f259151f2f98e8", "ae87df984150fb77"),
    "gauss-imaginary-column": ("155ff652a24f084c", "8c57c91c15989e02"),
    "real-row-swaps": ("ce74e1b0777f0995", "2d86a29bf5936414"),
    "gauss-row-swaps": ("0dcc669f6e6c6d85", "04c9d2ecde92faad"),
    "real-pivot-minus-1": ("52f7c55734049a61", "58506f382092abf8"),
    "real-negative-pivots": ("f40a7953798c9cbb", "40d88f44a97e296a"),
    "gauss-negative-pivots": ("72b47789b1b9c28b", "f55d4046e17ccbd8"),
    "gauss-pivot-minus-i": ("5790bba891b5b8d4", "27aae256d94e1ba3"),
    "gauss-singular-minus-i": (None, "c48fcc7ee4f3ec4a"),
    "sparse-perm8": ("78946ef4e92d0833", "cda87dff8f9a195f"),
    "sparse-perm16": ("faf72c479f126a5d", "cda87dff8f9a195f"),
    "sparse-std8": ("6f9df874bc91cb91", "499b4de541073565"),
    "sparse-upper-triangular": ("44a30cfb75d4994a", "c6ba253cb06dbdf0"),
    "sparse-gauss-block-diagonal": ("dd12f93a7000efff", "bf78d2adc51d3b66"),
    "sparse-gauss-late-pivot": ("7fabb76dd0609a1d", "7e4cefa3f2db008c"),
    "sparse-gauss-monomial": ("cb15bdaa4d9e6667", "5ba5d891872b4f3f"),
    "sparse-rank-deficient": (None, "837434795a2d4cfa"),
    # pinned from the one-step elimination, before rref and inverse cleared two pivot columns per step
    "pair-odd-last-column": ("7a6df33ee6729093", "8b7d5f430d6c468b"),
    "pair-dependent-column": (None, "781287289b34a3fb"),
    "gauss-pair-zero-first-minor": ("de5e99704d256264", "78515a18bc9d6545"),
    "pair-lazy-one-zero": ("248ff940f23e9133", "d0c44d91a0de76bb"),
    "gauss-pair-lazy-one-zero": ("0dcb20ada0e1ee67", "1036bc62be69b66f"),
    "gauss-late-second-pivot": ("82a99690c6c4d3b6", "0c99a92b72cedc5d"),
    "gauss-late-second-pivot-updated": ("a151ccea1b440dc2", "45b9fd85629d0c89"),
}
SQUARE = [(label, M) for label, M in DIFFERENTIAL if M.is_square]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedOutputs:
    @pytest.mark.parametrize("label,M", SQUARE, ids=[c[0] for c in SQUARE])
    def test_inverse_and_min_poly(self, label, M):
        want_inv, want_mp = PINNED[label]
        if want_inv is None:
            with pytest.raises(DomainError, match="^matrix is singular$"):
                M.inverse()
        else:
            assert _digest(_json(M.inverse())) == want_inv
        assert _digest(str(min_poly(M))) == want_mp

    def test_square_cases_all_pinned(self):
        assert sorted(PINNED) == sorted(label for label, _ in SQUARE)

    def test_non_square_errors(self):
        M = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionMismatch, match="^inverse of a non-square matrix$"):
            M.inverse()
        with pytest.raises(DimensionMismatch, match="^minimal polynomial of a non-square matrix$"):
            min_poly(M)


_SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
_REAL = st.builds(GaussianRational, _SMALL)
_GAUSS = st.builds(GaussianRational, _SMALL, _SMALL)


def _sparse(entry):
    """entry or zero, each about half the time."""
    return st.tuples(st.booleans(), entry).map(lambda t: t[1] if t[0] else GaussianRational.ZERO)


_SPARSE_KINDS = (_sparse(_REAL), _sparse(_GAUSS))


def _matrices(rows, cols, kinds=(_REAL, _GAUSS)):
    """Real or Gaussian matrices, one kind per matrix: rref and * take a separate path for each."""
    return st.sampled_from(kinds).flatmap(
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

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(lambda s: _matrices(*s, kinds=_SPARSE_KINDS)))
    def test_sparse_rref_matches_oracle(self, A):
        red, pivots = A.rref()
        want_red, want_pivots = oracle_rref(A)
        assert pivots == want_pivots
        assert _json(red) == _json(want_red)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: _matrices(n, n, kinds=_SPARSE_KINDS)))
    def test_sparse_inverse_is_two_sided(self, A):
        if A.rank() < A.rows:
            with pytest.raises(DomainError, match="^matrix is singular$"):
                A.inverse()
            return
        eye = ExactMatrix.identity(A.rows)
        inv = A.inverse()
        assert A * inv == eye and inv * A == eye

    @settings(max_examples=40, deadline=None)
    @given(_chain())
    def test_product_associates_with_vectors(self, abx):
        A, B, x = abx
        assert (A * B) * x == A * (B * x)


# Scalars for the blocks of _block_diagonal: each with its own denominator, some negative, some Gaussian.
_BLOCK_SCALES = [GaussianRational(x, y) for x, y in ((1, 0), (-1, 0), (Fraction(1, 2), 0), (Fraction(-2, 3), 0),
                                                     (Fraction(3, 7), 0), (0, Fraction(1, 2)), (0, -1),
                                                     (Fraction(1, 3), Fraction(-2, 3)), (Fraction(2, 11), Fraction(1, 11)))]


@st.composite
def _block_diagonal(draw):
    """A block-diagonal matrix of one to three blocks, each an integer block times one of _BLOCK_SCALES.

    The blocks are all square or each 1-3 x 1-4.  Each block's scalar has its
    own denominator, so the rows of its rref and inverse end over different
    denominators and the flat result's lcm is wider than any row's; the
    negative and Gaussian scalars give negative and Gaussian pivots.  The
    rows come in any order, so elimination swaps them.
    """
    square = draw(st.booleans())
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(1, 3))
        c = r if square else draw(st.integers(1, 4))
        z = draw(st.sampled_from(_BLOCK_SCALES))
        ints = st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=r, max_size=r)
        blocks.append([[z * x for x in row] for row in draw(ints)])
    cols = sum(len(block[0]) for block in blocks)
    cells, c0 = [], 0
    for block in blocks:
        w = len(block[0])
        cells += [[0] * c0 + row + [0] * (cols - c0 - w) for row in block]
        c0 += w
    return ExactMatrix(draw(st.permutations(cells)))


class TestFlatResults:
    """rref, inverse and nullspace hand back flat matrices: no cells until read, then the oracle's cells."""

    @staticmethod
    def check(got, want):
        assert got._cells is None
        entries = [x for row in want.cells for x in row]
        assert got._flat == exact._lift(entries, exact._any_imag(entries))  # the least denominator, im None if real
        assert got.cells == want.cells and _json(got) == _json(want)
        eager = ExactMatrix(got.cells)
        assert got == eager and eager == got and hash(got) == hash(eager)

    @settings(max_examples=150, deadline=None)
    @given(_block_diagonal() | st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda s: _matrices(*s, kinds=_SPARSE_KINDS + (_REAL, _GAUSS))))
    def test_against_oracle_with_cells_read(self, M):
        red, pivots = M.rref()
        want_red, want_pivots = oracle_rref(M)
        assert pivots == want_pivots
        self.check(red, want_red)
        if M.is_square and len(pivots) == M.rows:
            self.check(M.inverse(), oracle_inverse(M))
        free = [c for c in range(M.cols) if c not in pivots]
        null = M.nullspace()
        assert len(null) == len(free)
        for c, v in zip(free, null):
            want = [GaussianRational.ONE if k == c else GaussianRational.ZERO for k in range(M.cols)]
            for prow, pcol in enumerate(pivots):
                want[pcol] = -want_red.cells[prow][c]
            self.check(v, ExactMatrix.column(want))

    def test_rows_over_different_denominators_go_over_their_lcm(self):
        red, _ = ExactMatrix([[2, 1, 0, 0], [0, 0, 3, 1]]).rref()
        assert red._flat == (6, [6, 3, 0, 0, 0, 0, 6, 2], None)
        inv = ExactMatrix([[-2, 0], [0, "3i"]]).inverse()  # a negative pivot and a Gaussian one
        assert inv._flat == (6, [-3, 0, 0, 0], [0, 0, 0, -2])
        assert inv.to_json() == [["-1/2", "0"], ["0", "-1/3i"]]

    @pytest.mark.parametrize("cells", [[["i", "2i"]], [["1+i", "2"], ["i", "1-i"]], [["i", 0], [0, "-2i"]]])
    def test_a_gaussian_matrix_with_a_real_rref_drops_its_imaginary_part(self, cells):
        M = ExactMatrix(cells)
        red, _ = M.rref()
        assert M._lifted()[2] is not None and red._flat[2] is None
        assert red == oracle_rref(M)[0] and red.to_json() == oracle_rref(M)[0].to_json()


# Slot widths a product needs, bits(max|left|) + bits(max|right|) +
# bit_length(inner) + 2, on each side of every struct slot size _packed_product
# uses (past 64 bits the slots are whole bytes) and of the width past which
# contents are divided out first.
_SLOT_EDGES = (16, 17, 32, 33, 64, 65, exact._CONTENT_BITS, exact._CONTENT_BITS + 1)


def _flat_side(rng, size: int, bits: int, cplx: bool, zeros: float):
    """(re, im) of size integers of at most bits bits, one of exactly bits bits when bits > 0.

    Entries are 0 with probability zeros, else +-(2^bits - 1), -2^(bits-1)
    or uniform, so both extremes of each slot turn up.
    """
    top = (1 << bits) - 1
    extremes = (top, -top, -(1 << (bits - 1))) if bits else (0,)

    def entry():
        if rng.random() < zeros:
            return 0
        return rng.choice(extremes) if rng.random() < 0.3 else rng.randint(-top, top)

    re = [entry() for _ in range(size)]
    im = [entry() for _ in range(size)] if cplx else None
    (re if im is None or rng.random() < 0.5 else im)[rng.randrange(size)] = rng.choice(extremes)
    return re, im


@st.composite
def _flat_operands(draw):
    """(left, right, inner, width) with shapes 1..40 whose product needs one drawn slot width.

    Now and then every row of left and column of right is scaled by its own
    wide factor, so the operands are wide but their primitive parts are not.
    """
    rows, inner, width = (draw(st.integers(1, 40)) for _ in range(3))
    need = draw(st.sampled_from(_SLOT_EDGES) | st.integers(8, 700))
    spare = need - inner.bit_length() - 2
    a_bits = draw(st.integers(0, spare))
    lc, rc = draw(st.booleans()), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    left = _flat_side(rng, rows * inner, a_bits, lc, zeros)
    right = _flat_side(rng, inner * width, spare - a_bits, rc, zeros)
    if lc or rc:  # a real side takes zero imaginary numerators, as ExactMatrix * gives it
        left, right = (left[0], left[1] or [0] * len(left[0])), (right[0], right[1] or [0] * len(right[0]))
    if draw(st.booleans()):
        lf = [f for f in (rng.getrandbits(300) | 1 for _ in range(rows)) for _ in range(inner)]
        rf = [rng.getrandbits(300) | 1 for _ in range(width)] * inner
        left = tuple(None if xs is None else [x * f for x, f in zip(xs, lf)] for xs in left)
        right = tuple(None if xs is None else [x * f for x, f in zip(xs, rf)] for xs in right)
    return left, right, inner, width


_KINDS = ["real", "complex", "real x complex", "complex x real"]


def _extremes(need: int, kind: str):
    """(left, right, x, y): the largest row times the largest column, two rows by inner = 7 by two columns.

    inner is 2^k - 1 at its bit length, and the entries are +-x and +-y,
    x = 2^a - 1 and y = 2^b - 1 with a + b + k + 2 = need.  The real side
    of a mixed kind has zero imaginary numerators.
    """
    a = (need - 5) // 2
    x, y = (1 << a) - 1, (1 << (need - 5 - a)) - 1
    lc, rc = kind.startswith("complex"), kind.endswith("complex")
    left = ([x] * 7 + [-x] * 7, [x] * 7 + [-x] * 7 if lc else [0] * 14 if rc else None)
    right = ([y, -y] * 7, [-y, -y] * 7 if rc else [0] * 14 if lc else None)
    return left, right, x, y


class TestFlatProduct:
    """exact._flat_product, with or without its contents divided out, against the plain cell-by-cell sums."""

    @settings(max_examples=150, deadline=None)
    @given(_flat_operands())
    def test_matches_cell_by_cell(self, operands):
        left, right, inner, width = operands
        kept = copy.deepcopy((left, right))
        re, im = exact._flat_product(left, right, inner, width)
        assert (re, im) == flat_product(left, right, inner, width)
        assert (im is None) == (left[1] is None and right[1] is None)
        assert (left, right) == kept  # the operands are flat forms that other matrices share

    @pytest.mark.parametrize("need", _SLOT_EDGES)
    @pytest.mark.parametrize("kind", _KINDS)
    def test_extremes_decode_at_each_slot_size(self, need, kind):
        left, right, x, y = _extremes(need, kind)
        re, im = exact._flat_product(left, right, 7, 2)
        assert (re, im) == flat_product(left, right, 7, 2)
        peak = max(map(abs, re + (im or [])))
        both = kind == "complex"
        assert peak == (2 if both else 1) * 7 * x * y
        assert peak >= 1 << need - (3 if both else 4)  # within a factor 2 of what need allows

    @pytest.mark.parametrize("need", _SLOT_EDGES[:6])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_extremes_decode_once_their_contents_are_out(self, need, kind, monkeypatch):
        needs = []
        packed = exact._packed_product
        monkeypatch.setattr(exact, "_packed_product", lambda *args: needs.append(args[-1]) or packed(*args))
        left, right, _, _ = _extremes(need, kind)
        # x - 1 starts each row of left and y - 1 each column of right, so their gcds are 1;
        # then each is scaled by its own 300-bit factor
        left[0][0], left[0][7], right[0][0], right[0][1] = left[0][0] - 1, left[0][7] + 1, right[0][0] - 1, right[0][1] + 1
        rng = random.Random(need)
        lf, rf = [rng.getrandbits(300) | 1 for _ in range(2)], [rng.getrandbits(300) | 1 for _ in range(2)]
        left = tuple(None if xs is None else [v * lf[k // 7] for k, v in enumerate(xs)] for xs in left)
        right = tuple(None if xs is None else [v * rf[k % 2] for k, v in enumerate(xs)] for xs in right)
        assert exact._flat_product(left, right, 7, 2) == flat_product(left, right, 7, 2)
        assert needs == [need]

    def test_wide_entries_lose_their_contents(self, monkeypatch):
        needs = []
        packed = exact._packed_product
        monkeypatch.setattr(exact, "_packed_product", lambda *args: needs.append(args[-1]) or packed(*args))
        rng = random.Random(150)
        n = 16
        wide = ([rng.getrandbits(300) - (1 << 299) for _ in range(n * n)], None)
        # a 300-bit factor per row of a left factor, or per column of a right one, times small entries
        factors = [rng.getrandbits(300) | 1 for _ in range(n)]
        rows = ([factors[k // n] * rng.randint(-9, 9) for k in range(n * n)], None)
        cols = ([factors[k % n] * rng.randint(-9, 9) for k in range(n * n)], None)
        # each product's slots need over 600 bits; what is left once the factors are out
        for left, right, most in ((wide, wide, 605), (rows, cols, 16), (rows, wide, 310), (wide, cols, 310), (wide, rows, 610)):
            needs.clear()
            assert exact._flat_product(left, right, n, n) == flat_product(left, right, n, n)
            assert len(needs) == 1 and needs[0] <= most


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

    def test_root_search_tests_few_candidates(self, monkeypatch):
        # each candidate is one root mod a prime, tested once more after its last division
        tested = []
        deflate = exact._deflate
        monkeypatch.setattr(exact, "_deflate", lambda coeffs, r: tested.append(r) or deflate(coeffs, r))
        cases = [
            (RationalPolynomial.from_roots([1000000007, 998244353]), [998244353, 1000000007]),
            (
                RationalPolynomial.from_roots([1000000007, 998244353, 1, 1, Fraction(-7, 3)]) * RationalPolynomial([2, 0, 1]),
                [1, 1, Fraction(-7, 3), 998244353, 1000000007],
            ),
            (RationalPolynomial.from_roots([0, 0, 5, -5, 5]) * Fraction(3, 7), [0, 0, 5, 5, -5]),
            (RationalPolynomial([1000000007, 1]), [-1000000007]),
            (RationalPolynomial([-2, 0, 1]), []),
            (min_poly(rand_matrix(random.Random(16), 16, 16)), []),
        ]
        for p, roots in cases:
            tested.clear()
            found, rest = p.factor_rational_roots()
            assert found == roots
            assert rest.degree == p.degree - len(roots)
            assert len(set(tested)) <= p.degree
            assert len(tested) <= len(set(tested)) + len(roots)

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
