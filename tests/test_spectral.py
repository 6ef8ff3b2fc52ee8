"""Spectral units, matrix representation, and block structure."""

import random
from fractions import Fraction

import pytest

from wittmat import exact, witt
from wittmat import (
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    GaussianRational,
    InputError,
    Multivector,
    WittMonomial,
    a,
    b,
    block_assemble,
    block_split,
    det2,
    from_matrix,
    geom_perm,
    mv_inverse,
    mv_trace,
    one,
    perm_matrix,
    spectral_table,
    spectral_unit,
    standard_irrep,
    to_matrix,
    u,
    zero,
)
from wittmat import reduce_word
from conftest import rand_matrix, rand_mv, rand_perm
import oracles
from oracles import reduce_tokens


def unit_word(n, row, col):
    """The defining word of E_{row,col}: b's over row ascending, u_1..u_n, a's over col descending."""
    bits = [i for i in range(1, n + 1) if row >> (i - 1) & 1]
    word = [(i, 1) for i in bits]
    for i in range(1, n + 1):
        word += [(i, 0), (i, 1)]
    bits = [j for j in range(1, n + 1) if col >> (j - 1) & 1]
    return word + [(j, 0) for j in reversed(bits)]


class TestSpectralUnits:
    def test_matrix_unit_law_exhaustive_low_rank(self):
        for n in (1, 2):
            size = 1 << n
            E = spectral_table(n)
            for r in range(size):
                for c in range(size):
                    for r2 in range(size):
                        for c2 in range(size):
                            prod = E[r][c] * E[r2][c2]
                            expect = E[r][c2] if c == r2 else zero(n)
                            assert prod == expect

    def test_matrix_unit_law_sampled_rank3(self):
        rng = random.Random(130)
        size = 8
        for _ in range(150):
            r, c, r2, c2 = (rng.randrange(size) for _ in range(4))
            prod = spectral_unit(3, r, c) * spectral_unit(3, r2, c2)
            expect = spectral_unit(3, r, c2) if c == r2 else zero(3)
            assert prod == expect

    def test_units_resolve_identity(self):
        for n in (1, 2, 3):
            total = zero(n)
            for r in range(1 << n):
                total = total + spectral_unit(n, r, r)
            assert total == one(n)

    def test_rank1_units_are_the_null_generators(self):
        assert spectral_unit(1, 0, 0) == u(1, 1)
        assert spectral_unit(1, 0, 1) == a(1, 1)
        assert spectral_unit(1, 1, 0) == b(1, 1)
        assert spectral_unit(1, 1, 1) == one(1) - u(1, 1)

    def test_units_match_defining_words(self):
        for n in (1, 2, 3):
            for r in range(1 << n):
                for c in range(1 << n):
                    assert spectral_unit(n, r, c) == reduce_word(n, unit_word(n, r, c)), (n, r, c)

    @pytest.mark.parametrize("n", range(7))
    def test_units_match_the_oracle(self, n):
        size = 1 << n
        cells = range(size * size) if n < 6 else random.Random(143).sample(range(size * size), 200)
        for r, c in map(divmod, cells, [size] * len(cells)):
            got = spectral_unit(n, r, c)
            assert got.to_json() == oracles.spectral_unit(n, r, c).to_json(), (n, r, c)
            assert not got.complexified

    def test_monomial_entries_match_rewriting(self):
        # m = sum of [m]_{rc} E_{rc}, with each E_{rc} reduced from its word
        rng = random.Random(142)
        for n, samples in ((1, None), (2, None), (3, None), (4, 60), (5, 20)):
            size = 1 << n
            monos = [(am, bm) for am in range(size) for bm in range(size)]
            if samples is not None:
                monos = [rng.choice(monos) for _ in range(samples)]
            for am, bm in monos:
                M = to_matrix(Multivector(n, {(n, am, bm): 1}))
                total = {}
                for r, c in ((r, c) for r in range(size) for c in range(size) if M.cells[r][c]):
                    w = M.cells[r][c]
                    assert w in (1, -1), (n, am, bm, r, c)
                    for key, v in reduce_tokens(tuple(unit_word(n, r, c))).items():
                        total[key] = total.get(key, 0) + int(w.re) * v
                assert {k: v for k, v in total.items() if v} == {(am, bm): 1}, (n, am, bm)

    def test_index_validation(self):
        with pytest.raises(InputError):
            spectral_unit(1, 2, 0)
        with pytest.raises(InputError):
            spectral_unit(2, 0, 4)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: spectral_unit(-1, 0, 0),
            lambda: spectral_table(-1),
            lambda: from_matrix(ExactMatrix.identity(1), n=-1),
        ],
        ids=["spectral_unit", "spectral_table", "from_matrix"],
    )
    def test_negative_rank(self, call):
        with pytest.raises(InputError, match="rank must be nonnegative"):
            call()


class TestMatrixRepresentation:
    def test_homomorphism_random(self):
        rng = random.Random(131)
        for n in (1, 2, 3):
            for _ in range(20):
                x, y = rand_mv(rng, n, complexified=True), rand_mv(rng, n, complexified=True)
                assert to_matrix(x * y) == to_matrix(x) * to_matrix(y)
                assert to_matrix(x + y) == to_matrix(x) + to_matrix(y)

    def test_round_trip_from_algebra(self):
        rng = random.Random(132)
        for n in (1, 2, 3):
            for _ in range(20):
                g = rand_mv(rng, n, complexified=True)
                assert from_matrix(to_matrix(g), n, complexified=True) == g

    def test_round_trip_from_matrices(self):
        rng = random.Random(133)
        for n in (1, 2):
            size = 1 << n
            for _ in range(20):
                m = rand_matrix(rng, size, size, complex_entries=True)
                assert to_matrix(from_matrix(m, n, complexified=True)) == m

    def test_identity_maps_to_identity(self):
        for n in (1, 2, 3):
            assert to_matrix(one(n)) == ExactMatrix.identity(1 << n)

    def test_trace(self):
        rng = random.Random(134)
        for n in (1, 2, 3):
            for _ in range(20):
                g = rand_mv(rng, n, complexified=True)
                assert mv_trace(g) == to_matrix(g).trace()

    def test_trace_of_scalar(self):
        assert mv_trace(one(3)) == GaussianRational(8)

    def test_inverse(self):
        rng = random.Random(135)
        for n in (1, 2):
            found = 0
            while found < 10:
                g = rand_mv(rng, n, max_terms=6)
                if to_matrix(g).rank() < (1 << n):
                    continue
                found += 1
                assert g * mv_inverse(g) == one(n)
                assert mv_inverse(g) * g == one(n)

    def test_inverse_of_nilpotent_fails(self):
        with pytest.raises(DomainError):
            mv_inverse(a(1, 1))

    def test_rank_mismatch(self):
        with pytest.raises(DimensionMismatch):
            from_matrix(ExactMatrix.identity(3), 1)


class TestInvolutionPatterns:
    def test_rank1_involution_entry_patterns(self):
        rng = random.Random(136)
        for _ in range(30):
            g = rand_mv(rng, 1, complexified=True)
            m = to_matrix(g)
            md = to_matrix(g.reverse())
            mi = to_matrix(g.grade_involution())
            mc = to_matrix(g.clifford_conj())
            # dagger: conjugated anti-transpose; conjugation: plain anti-transpose
            # with off-diagonal signs; grade involution: entrywise conjugate with
            # off-diagonal signs
            for i in range(2):
                for j in range(2):
                    assert md[(i, j)] == m[(1 - j, 1 - i)].conjugate()
                    sign = GaussianRational(1 if i == j else -1)
                    assert mi[(i, j)] == m[(i, j)].conjugate() * sign
                    assert mc[(i, j)] == m[(1 - j, 1 - i)] * sign

    def test_rank2_involution_entry_patterns(self):
        # signed anti-transpose patterns on the 4x4 representation
        eps_dag = (1, 1, -1, -1)
        eps_conj = (1, -1, 1, -1)
        rng = random.Random(137)
        for _ in range(30):
            g = rand_mv(rng, 2)
            m = to_matrix(g)
            md = to_matrix(g.reverse())
            mc = to_matrix(g.clifford_conj())
            for i in range(4):
                for j in range(4):
                    assert md[(i, j)] == m[(3 - j, 3 - i)] * GaussianRational(eps_dag[i] * eps_dag[j])
                    assert mc[(i, j)] == m[(3 - j, 3 - i)] * GaussianRational(eps_conj[i] * eps_conj[j])


class TestDet2:
    def test_closed_form(self):
        rng = random.Random(138)
        for _ in range(30):
            g = rand_mv(rng, 1, complexified=True)
            m = to_matrix(g)
            assert det2(g) == m[(0, 0)] * m[(1, 1)] - m[(0, 1)] * m[(1, 0)]

    def test_multiplicative(self):
        rng = random.Random(139)
        for _ in range(30):
            x, y = rand_mv(rng, 1), rand_mv(rng, 1)
            assert det2(x * y) == det2(x) * det2(y)

    def test_rank_restriction(self):
        with pytest.raises(DimensionMismatch):
            det2(one(2))


class TestBlocks:
    def test_split_examples(self):
        z = zero(0)
        assert block_split(u(1, 1)) == (one(0), z, z, z)
        assert block_split(a(1, 1)) == (z, one(0), z, z)
        assert block_split(b(1, 1)) == (z, z, one(0), z)
        assert block_split(u(2, 2)) == (u(1, 1), zero(1), zero(1), u(1, 1))

    def test_round_trip(self):
        rng = random.Random(140)
        for n in (1, 2, 3):
            for _ in range(25):
                g = rand_mv(rng, n, complexified=True)
                h1, h2, h3, h4 = block_split(g)
                assert all(h.n == n - 1 for h in (h1, h2, h3, h4))
                assert block_assemble(h1, h2, h3, h4) == g

    def test_assemble_then_split(self):
        rng = random.Random(141)
        for _ in range(25):
            hs = tuple(rand_mv(rng, 1) for _ in range(4))
            assert block_split(block_assemble(*hs)) == hs

    def test_errors(self):
        with pytest.raises(DomainError):
            block_split(one(0))
        with pytest.raises(DimensionMismatch):
            block_assemble(one(1), one(1), one(1), one(2))


class TestNoHiddenCells:
    """Matrices passed from to_matrix to from_matrix, or multiplied between, build no scalar entries."""

    @staticmethod
    def _scalar_builds(monkeypatch, f):
        """The sizes of the exact._scalars calls f makes: only ExactMatrix code builds its cells through it."""
        calls = []
        scalars = exact._scalars

        def counting(re, im, dens):
            calls.append(len(re))
            return scalars(re, im, dens)

        with monkeypatch.context() as patched:
            patched.setattr(exact, "_scalars", counting)
            f()
        return calls

    def test_bridge_builds_no_cells(self, monkeypatch):
        rng = random.Random(140)
        for n, cplx in ((4, False), (4, True), (6, False)):
            g, h = rand_mv(rng, n, cplx, 12), rand_mv(rng, n, cplx, 12)
            p = rand_perm(rng, 1 << n)
            for f in (
                lambda: from_matrix(to_matrix(g)),
                lambda: from_matrix(to_matrix(g) * to_matrix(h)),
                lambda: geom_perm(p, n),
                lambda: geom_perm(p, n, rep="standard"),
                lambda: standard_irrep(p, n),
            ):
                assert self._scalar_builds(monkeypatch, f) == []

    def test_dense_bridge_product_builds_no_cells(self, monkeypatch):
        size = 1 << 4
        g = Multivector(4, {WittMonomial(4, k >> 4, k & 15): Fraction(k + 1, 3) for k in range(size * size)})
        bridged = []
        flat_product = witt._flat_product
        monkeypatch.setattr(witt, "_flat_product", lambda *args: bridged.append(args[2]) or flat_product(*args))
        assert self._scalar_builds(monkeypatch, lambda: g * g) == []
        assert bridged == [size]

    def test_flat_equality_builds_no_cells(self, monkeypatch):
        rng = random.Random(142)
        p = rand_perm(rng, 64)
        g = rand_mv(rng, 4, True, 12)
        pairs = [
            (to_matrix(geom_perm(p, 6)), perm_matrix(p, 64)),
            (to_matrix(g), to_matrix(g * one(4))),
            (to_matrix(g), to_matrix(g + one(4))),
        ]
        assert self._scalar_builds(monkeypatch, lambda: [M == N for M, N in pairs]) == []
        assert [M == N for M, N in pairs] == [True, True, False]

    def test_cells_and_flat_products_and_equality_build_no_scalar(self, monkeypatch):
        rng = random.Random(143)
        g, h = rand_mv(rng, 3, True, 12), rand_mv(rng, 3, False, 12)
        # each matrix held as cells, its scalars built here, and as the flat form of to_matrix
        G, H = ((ExactMatrix(to_matrix(x).cells), to_matrix(x)) for x in (g, h))
        products, equal, unequal = [], [], []

        def run():
            products.extend(P * Q for P in G for Q in H)
            equal.extend(P == Q for P in G for Q in G)
            unequal.extend(P == Q for P in G for Q in H)

        assert self._scalar_builds(monkeypatch, run) == []
        assert all(equal) and not any(unequal)
        assert all(P == to_matrix(g * h) for P in products)

    def test_elimination_builds_no_cells_until_one_is_read(self, monkeypatch):
        """rref, inverse, nullspace, the commutant basis and mv_inverse hand over integers, and cells wait for a read."""
        from wittmat import commutant

        rng = random.Random(144)
        for cplx in (False, True):
            g = rand_mv(rng, 3, cplx, 30) + one(3).scale(7)
            low = to_matrix(g) * to_matrix(spectral_unit(3, 0, 0) + spectral_unit(3, 5, 2))  # rank 2
            M = to_matrix(g)
            pair = [perm_matrix(rand_perm(rng, 4), 4) for _ in range(2)]
            out = []

            def run():
                out.extend([M.inverse(), M.rref()[0], low.rref()[0], *low.nullspace(), *commutant(pair).basis])
                out.append(mv_inverse(g))

            assert self._scalar_builds(monkeypatch, run) == []
            *matrices, g_inv = out
            assert all(X._cells is None for X in matrices)
            assert g_inv * g == one(3) and g * g_inv == one(3)
            assert self._scalar_builds(monkeypatch, lambda: [X.cells for X in matrices]) == [
                X.rows * X.cols for X in matrices
            ]
            assert matrices[0].cells == oracles.oracle_inverse(ExactMatrix(M.cells)).cells
            assert matrices[2].cells == oracles.oracle_rref(ExactMatrix(low.cells))[0].cells

    def test_cells_are_built_once(self, monkeypatch):
        M = to_matrix(rand_mv(random.Random(141), 3, True, 8))
        reads = []
        assert self._scalar_builds(monkeypatch, lambda: reads.extend((M.cells, M.cells))) == [64]
        assert reads[0] is reads[1] is M.cells
