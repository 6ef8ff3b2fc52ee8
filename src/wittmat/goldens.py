"""Frozen reference checks for the spectral-basis construction.

Every check below recomputes a documented quantity from scratch and compares
it against values frozen in this file: spectral tables, null-vector matrices,
involution patterns, permutation images, Casimir identities, commutant
families, and the regular-representation decomposition.  A matrix claim is
built once as its whole expected matrix and compared by _check_matrix, whose
failure names the first differing (row, col), 1-based.  _check and
_check_matrix raise AssertionError themselves, so they still fail under
python -O.  run_all() executes the checks in a fixed order and the
`verify-paper` CLI subcommand prints the resulting table.

A handful of frozen displays contain internal inconsistencies.  Those checks
assert the corrected value, assert that the uncorrected variant really does
differ, and say so in their detail string, so the corrections stay visible
instead of silently patched.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from . import _EXPORTS
from .exact import ExactMatrix, GaussianRational, RationalPolynomial, min_poly
from .witt import (
    Multivector,
    WittMonomial,
    a,
    b,
    e,
    f,
    one,
    scalar_mv,
    u,
    u_all,
    u_all_dag,
    u_dag,
    wedge_ab,
)
from .spectral import det2, from_matrix, mv_trace, spectral_table, to_matrix
from .signatures import SignatureSpec, f_extra, generators, pseudoscalar_candidate, verify_signature
from .symgroup import (
    Permutation,
    all_ones_mv,
    casimir_idempotents,
    casimir_mv,
    geom_perm,
    perm_matrix,
    standard_irrep,
    std_rep_matrix,
    surgery_gc,
    surgery_gc_inverse,
)
from .repdecomp import (
    commutant,
    family_minpoly_check,
    g_alt_matrix,
    g_all_matrix,
    regrep_decompose,
    regrep_element,
)

__all__ = _EXPORTS["goldens"]


class GoldenResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


_REGISTRY: list = []


def _golden(name):
    def wrap(fn):
        _REGISTRY.append((name, fn))
        return fn

    return wrap


def run_all() -> list[GoldenResult]:
    """Run every registered check, never raising; failures become results."""
    results = []
    for name, fn in _REGISTRY:
        try:
            detail = fn()
            results.append(GoldenResult(name, True, detail or ""))
        except AssertionError as exc:
            results.append(GoldenResult(name, False, str(exc) or "assertion failed"))
        except Exception as exc:
            results.append(GoldenResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def _check(cond, msg: str):
    """Fail the running check with msg; unlike assert, this survives python -O."""
    if not cond:
        raise AssertionError(msg)


def _check_matrix(got: ExactMatrix, want_rows, msg: str):
    """Fail unless got has the shape and entries of want_rows; name the first differing (row, col), 1-based."""
    want = ExactMatrix(want_rows)
    _check((got.rows, got.cols) == (want.rows, want.cols), f"{msg}: {got.rows}x{got.cols}, want {want.rows}x{want.cols}")
    if got.cells != want.cells:
        r, c = next((r, c) for r in range(want.rows) for c in range(want.cols) if got[(r, c)] != want[(r, c)])
        raise AssertionError(f"{msg} at ({r + 1},{c + 1})")


# ---------------------------------------------------------------------------
# parsing helpers for frozen table entries


_FACTORS = {"a": a, "b": b, "u": u, "ud": u_dag}


def _entry(n: int, text: str) -> Multivector:
    """Parse a table entry like "-b3 a1 u2d" into a multivector.

    Factors are space separated.  A digit string multiplies left to right
    (a21 means a2 a1), and a trailing d on a u factor selects the reversed
    idempotent u_i^dagger.
    """
    text = text.strip()
    negate = text.startswith("-")
    if negate:
        text = text[1:]
    result = one(n)
    for tok in text.split():
        kind, digits = (tok[0] + "d", tok[1:-1]) if tok.endswith("d") else (tok[0], tok[1:])
        factor = _FACTORS.get(kind)
        _check(factor is not None and digits.isdigit(), f"bad token {tok!r}")
        for ch in digits:
            result = result * factor(n, int(ch))
    return -result if negate else result


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _rand_matrix(rng: random.Random, size: int, complex_entries: bool = False) -> ExactMatrix:
    parts = range(2 if complex_entries else 1)  # a Gaussian entry draws its real part first
    return ExactMatrix([[GaussianRational(*[_rand_fraction(rng) for _ in parts]) for _ in range(size)] for _ in range(size)])


# ---------------------------------------------------------------------------
# spectral tables and null-vector matrices


_TABLE_RANK1 = [["u1", "a1"], ["b1", "u1d"]]

_TABLE_RANK2 = [
    ["u12", "a1 u2", "a2 u1", "a21"],
    ["b1 u2", "u1d u2", "b1 a2", "-a2 u1d"],
    ["b2 u1", "b2 a1", "u1 u2d", "a1 u2d"],
    ["b12", "-b2 u1d", "b1 u2d", "u12d"],
]

# Entry (2, 4) is frozen in corrected form: the display prints "b2 a3 u1d"
# there, but the (2, 4) unit actually carries u1, not u1 dagger.  The check
# asserts both the corrected value and that the printed variant differs.
_TABLE_RANK3 = [
    ["u123", "a1 u23", "a2 u13", "a21 u3", "a3 u12", "a31 u2", "a32 u1", "a321"],
    ["b1 u23", "u1d u23", "b1 a2 u3", "-a2 u1d u3", "b1 a3 u2", "-a3 u1d u2", "b1 a32", "a32 u1d"],
    ["b2 u13", "b2 a1 u3", "u2d u13", "a1 u2d u3", "b2 a3 u1", "b2 a31", "b2 a32 u1", "a13 u2d"],
    ["b12 u3", "-b2 u1d u3", "b1 u2d u3", "u12d u3", "a3 b12", "b2 a3 u1d", "a3 b1 u2d", "a3 u12d"],
    ["b3 u12", "b3 a1 u2", "b3 a2 u1", "b3 a21", "u12 u3d", "a1 u2 u3d", "a2 u1 u3d", "a21 u3d"],
    ["b13 u2", "-b3 u1d u2", "b13 a2", "b3 a2 u1d", "b1 u2 u3d", "u13d u2", "b1 a2 u3d", "-a2 u13d"],
    ["b23 u1", "b23 a1", "-b3 u1 u2d", "-b3 a1 u2d", "b2 u1 u3d", "b2 a1 u3d", "u1 u23d", "a1 u23d"],
    ["b123", "b23 u1d", "-b13 u2d", "b3 u12d", "b12 u3d", "-b2 u13d", "b1 u23d", "u123d"],
]


def _check_table(n: int, rows):
    """Compare spectral_table(n) entry by entry with the frozen rows; return the table."""
    table = spectral_table(n)
    for r, row in enumerate(rows):
        for c, text in enumerate(row):
            _check(table[r][c] == _entry(n, text), f"entry ({r + 1},{c + 1}) mismatch")
    return table


@_golden("rank1-spectral-table")
def _check_rank1_table():
    _check_table(1, _TABLE_RANK1)
    return "4 entries"


@_golden("rank2-spectral-table")
def _check_rank2_table():
    _check_table(2, _TABLE_RANK2)
    return "16 entries"


@_golden("rank3-spectral-table")
def _check_rank3_table():
    table = _check_table(3, _TABLE_RANK3)
    printed = _entry(3, "b2 a3 u1d")
    _check(table[2][4] != printed, "uncorrected (3,5) variant should differ")
    _check(table[3][5] == printed, "entry (4,6) really is b2 a3 u1d")
    return "64 entries; (3,5) frozen as b2 a3 u1 (display prints u1d there)"


@_golden("rank1-null-matrices")
def _check_rank1_null_matrices():
    _check_matrix(to_matrix(a(1, 1)), [[0, 1], [0, 0]], "[a1]")
    _check_matrix(to_matrix(b(1, 1)), [[0, 0], [1, 0]], "[b1]")
    _check_matrix(to_matrix(u(1, 1)), [[1, 0], [0, 0]], "[a1 b1]")
    _check_matrix(to_matrix(u_dag(1, 1)), [[0, 0], [0, 1]], "[b1 a1]")
    return ""


@_golden("rank2-null-matrices")
def _check_rank2_null_matrices():
    want = {
        "a1": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        "a2": [[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]],
        "b1": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
        "b2": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]],
    }
    gens = {"a1": a(2, 1), "a2": a(2, 2), "b1": b(2, 1), "b2": b(2, 2)}
    for name, g in gens.items():
        _check_matrix(to_matrix(g), want[name], f"[{name}]")
    return "4 matrices"


@_golden("rank1-block-embeddings")
def _check_block_embeddings():
    rng = random.Random(20240)
    for _ in range(5):
        A = _rand_matrix(rng, 2)
        g1 = from_matrix(A, 1)
        # same expression reread at rank 2, first on index 1 only, then with the index map 1 -> 2
        got, got2 = (
            to_matrix(Multivector(2, {WittMonomial(2, m.a_mask << s, m.b_mask << s): c for m, c in g1.terms()}))
            for s in (0, 1)
        )
        _check_matrix(got, [[A[(r % 2, c % 2)] if r // 2 == c // 2 else 0 for c in range(4)] for r in range(4)], "repeated block")
        # index map 1 -> 2 interleaves, with sign flips on the odd strand off the diagonal blocks
        _check_matrix(got2, [[0 if (r - c) % 2 else A[(r // 2, c // 2)] * (-1 if r % 2 and r // 2 != c // 2 else 1)
                              for c in range(4)] for r in range(4)], "interleaved block")
    return "5 random samples, both block patterns"


# ---------------------------------------------------------------------------
# involutions and the 2x2 determinant


@_golden("involution-rank1")
def _check_involution_rank1():
    rng = random.Random(20241)
    for _ in range(6):
        M = _rand_matrix(rng, 2, complex_entries=True)
        g = from_matrix(M, 1, complexified=True)
        R = to_matrix(g.reverse())
        GI = to_matrix(g.grade_involution())
        CC = to_matrix(g.clifford_conj())
        g11, g12 = M[(0, 0)], M[(0, 1)]
        g21, g22 = M[(1, 0)], M[(1, 1)]
        _check_matrix(R, [[g22.conjugate(), g12.conjugate()], [g21.conjugate(), g11.conjugate()]], "reverse")
        _check_matrix(GI, [[g11.conjugate(), -g12.conjugate()], [-g21.conjugate(), g22.conjugate()]], "grade involution")
        _check_matrix(CC, [[g22, -g12], [-g21, g11]], "conjugation")
        det = det2(g)
        _check(det == g11 * g22 - g12 * g21, "determinant")
        _check((g * g.clifford_conj()) == scalar_mv(1, det, complexified=True), "g g* is scalar")
    return "6 random samples"


_EPS_DAG = (1, 1, -1, -1)
_EPS_CONJ = (1, -1, 1, -1)


@_golden("involution-rank2")
def _check_involution_rank2():
    rng = random.Random(20242)
    for _ in range(6):
        M = _rand_matrix(rng, 4)
        g = from_matrix(M, 2)
        for got, eps, name in ((g.reverse(), _EPS_DAG, "reverse"), (g.clifford_conj(), _EPS_CONJ, "conjugation")):
            _check_matrix(to_matrix(got), [[M[(3 - j, 3 - i)] * (eps[i] * eps[j]) for j in range(4)] for i in range(4)], name)
    return "6 random samples"


@_golden("det-closed-form")
def _check_det_closed_form():
    g = u(1, 1).scale(2) + a(1, 1).scale(3) + b(1, 1).scale(5) + u_dag(1, 1).scale(7)
    _check(det2(g) == GaussianRational(-1), "2u + 3a + 5b + 7u_dag has determinant -1")
    return ""


@_golden("reverse-table-transpose")
def _check_reverse_table():
    n = 2
    size = 1 << n
    E = spectral_table(n)
    G = [[E[c][r].reverse() for c in range(size)] for r in range(size)]
    for r in range(size):
        for c in range(size):
            _check(G[r][c] != E[r][c], f"reversed table should differ at ({r},{c})")
            for rr in range(size):
                for cc in range(size):
                    prod = G[r][c] * G[rr][cc]
                    want = G[r][cc] if c == rr else Multivector(n, {})
                    _check(prod == want, "matrix-unit law for the reversed table")
    return "reversed table obeys the unit law yet differs entrywise"


@_golden("trace-formula")
def _check_trace():
    rng = random.Random(20243)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(4):
            M = _rand_matrix(rng, size, complex_entries=True)
            g = from_matrix(M, n, complexified=True)
            _check(mv_trace(g) == M.trace(), "trace equals matrix trace")
            blades = g.to_blades()
            empty = next((c for mono, c in blades.items() if mono.e_mask == 0 and mono.f_mask == 0), GaussianRational.ZERO)
            _check(mv_trace(g) == empty * size, "trace is 2^n times the grade-0 part")
    return "ranks 1..3"


# ---------------------------------------------------------------------------
# permutation representations


@_golden("perm-rep-small")
def _check_perm_rep_small():
    t12 = Permutation.from_cycles("(12)")
    t13 = Permutation.from_cycles("(13)")
    _check(geom_perm(t12, 1) == a(1, 1) + b(1, 1), "(12) at rank 1")
    _check_matrix(perm_matrix(t12, 2), [[0, 1], [1, 0]], "[ (12) ]")
    _check_matrix(perm_matrix(t12, 3), [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "(12) on 3 letters")
    _check_matrix(perm_matrix(t13, 3), [[0, 0, 1], [0, 1, 0], [1, 0, 0]], "(13) on 3 letters")
    t23 = t12 * t13 * t12
    _check(t23 == Permutation.from_cycles("(23)"), "(23) = (12)(13)(12)")
    return ""


@_golden("perm-geom-rank2")
def _check_perm_geom_rank2():
    n = 2
    forms = {
        "(12)": one(n) + (a(n, 1) + b(n, 1) - one(n)) * u(n, 2),
        "(13)": one(n) + (a(n, 2) + b(n, 2) - one(n)) * u(n, 1),
        "(14)": one(n) + (a(n, 2) * a(n, 1) + b(n, 1) * b(n, 2) - u_all(n) - u_all_dag(n)),
    }
    for cyc, want in forms.items():
        got = geom_perm(Permutation.from_cycles(cyc), n)
        _check(got == want, f"{cyc} closed form")
    return "3 closed forms"


@_golden("perm-geom-rank3")
def _check_perm_geom_rank3():
    n = 3
    u23 = u(n, 2) * u(n, 3)
    u13 = u(n, 1) * u(n, 3)
    u13d = u_dag(n, 1) * u_dag(n, 3)
    forms = {
        "(12)": one(n) + (a(n, 1) + b(n, 1) - one(n)) * u23,
        "(13)": one(n) + (a(n, 2) + b(n, 2) - one(n)) * u13,
        "(16)": one(n) + (a(n, 3) * a(n, 1) + b(n, 1) * b(n, 3) - u13 - u13d) * u(n, 2),
    }
    for cyc, want in forms.items():
        got = geom_perm(Permutation.from_cycles(cyc), n)
        _check(got == want, f"{cyc} closed form")
    ones_b = one(n)
    for i in (1, 2, 3):
        ones_b = ones_b * (one(n) + b(n, i))
    want19 = one(n) - u_all(n) - ones_b * u_all(n)
    got19 = geom_perm(Permutation.from_cycles("(19)"), n, rep="standard")
    _check(got19 == want19, "(19) closed form")
    return "4 closed forms"


@_golden("nine-cycle")
def _check_nine_cycle():
    n = 3
    sigma = Permutation.from_cycles("(123456789)")
    want = [[-1 if c == 7 else int(c == r - 1) for c in range(8)] for r in range(8)]
    _check_matrix(std_rep_matrix(sigma, 8), want, "9-cycle matrix")
    g = geom_perm(sigma, n, rep="standard")
    a1, a2, a3 = a(n, 1), a(n, 2), a(n, 3)
    bracket = a3 * a2 * a1 + a3 * a2 - a3 * a1 + a3 + a2 * a1 - a2 + a1 + one(n)
    closed = b(n, 1) + b(n, 2) * a1 + b(n, 3) * a2 * a1 - bracket * u_all_dag(n)
    _check(g == closed, "9-cycle closed form with the -a31 term restored")
    printed = (
        b(n, 1)
        + b(n, 2) * a1
        + b(n, 3) * a2 * a1
        - (a3 * a2 * a1 + a3 * a2 + a3 + a2 * a1 - a2 + a1 + one(n)) * u_all_dag(n)
    )
    _check(printed != g, "7-term bracket variant really does differ")
    power = one(n)
    for k in range(1, 10):
        power = power * g
        if k < 9:
            _check(power != one(n), f"9-cycle power {k} is not 1")
    _check(power == one(n), "9th power is 1")
    return "closed-form bracket frozen with -a31 restored (display omits it)"


# ---------------------------------------------------------------------------
# all-ones and Casimir elements


@_golden("allones-casimir")
def _check_allones_casimir():
    _check(all_ones_mv(1) == one(1) + a(1, 1) + b(1, 1), "rank-1 all-ones")
    n = 2
    disp = (
        one(n)
        + a(n, 1)
        + b(n, 1)
        + (a(n, 2) + b(n, 2)) * ((a(n, 1) - b(n, 1)) + wedge_ab(n, 1).scale(2))
    )
    _check(all_ones_mv(2) == disp, "rank-2 all-ones display form")
    for m in (1, 2, 3):
        A = all_ones_mv(m)
        size = 1 << m
        _check_matrix(to_matrix(A), [[1] * size] * size, "all-ones matrix")
        _check(A * A == A.scale(size), "A^2 = 2^n A")
        C = casimir_mv(m)
        _check(C == A - one(m), "C = A - 1")
        _check(C * C == C.scale(size - 2) + scalar_mv(m, size - 1), "C^2 = (2^n-2)C + (2^n-1)")
    J3 = ExactMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    _check_matrix(J3 - ExactMatrix.identity(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "3x3 Casimir display")
    return "ranks 1..3"


@_golden("minpoly-allones-correction")
def _check_minpoly_allones():
    for m in (2, 3, 4, 8):
        J = ExactMatrix([[1] * m for _ in range(m)])
        got = min_poly(J)
        want = RationalPolynomial.from_roots([Fraction(0), Fraction(m)])
        _check(got == want, f"min poly of the {m}x{m} all-ones matrix is x(x-{m})")
        C = J - ExactMatrix.identity(m)
        wantc = RationalPolynomial.from_roots([Fraction(-1), Fraction(m - 1)])
        _check(min_poly(C) == wantc, f"min poly of the {m}x{m} Casimir matrix")
    bad = RationalPolynomial.from_roots([Fraction(0), Fraction(1)])
    _check(min_poly(ExactMatrix([[1] * 4 for _ in range(4)])) != bad, "x(x-1) only fits m=1")
    return "display says x(x-1); frozen corrected value is x(x-m)"


@_golden("spectral-idempotents")
def _check_spectral_idempotents():
    for n in (1, 2, 3):
        s1, s2 = casimir_idempotents(n)
        size = 1 << n
        C = casimir_mv(n)
        _check(s1 == (C - scalar_mv(n, size - 1)).scale(Fraction(-1, size)), "s1 = (C - (2^n-1))/(-2^n)")
        _check(s2 == (C + one(n)).scale(Fraction(1, size)), "s2 = (C + 1)/2^n")
        _check(s1 * s1 == s1 and s2 * s2 == s2, "idempotents")
        _check(s1 * s2 == Multivector(n, {}), "mutually annihilating")
        _check(s1 + s2 == one(n), "partition of unity")
        _check(C == -s1 + s2.scale(size - 1), "C = -s1 + (2^n-1)s2")
    return "ranks 1..3"


@_golden("surgery-diagonalization")
def _check_surgery_diag():
    for n in (1, 2, 3):
        size = 1 << n
        want = [[(size - 1 if i == size - 1 else -1) if i == j else 0 for j in range(size)] for i in range(size)]
        _check_matrix(to_matrix(surgery_gc_inverse(n) * casimir_mv(n) * surgery_gc(n)), want, f"rank-{n} diagonalized Casimir")
    return "diag(-1,..,-1,2^n-1) at ranks 1..3"


@_golden("standard-irrep-matrices")
def _check_standard_irrep():
    n = 2
    displays = {
        "(12)": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "(13)": [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
        "(14)": [[-1, 0, 0, 0], [-1, 1, 0, 0], [-1, 0, 1, 0], [0, 0, 0, 1]],
        "(15)": [[-1, 0, 0, 0], [-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]],
    }
    # (15) is printed in the quotient basis of S_5; the irrep holds it conjugated by g_c
    for cyc, rows in displays.items():
        p = Permutation.from_cycles(cyc)
        if cyc == "(15)":
            printed = from_matrix(ExactMatrix(rows), n=n)
            _check(printed == geom_perm(p, n, rep="standard"), f"{cyc} matrix")
            _check(standard_irrep(p, n) == surgery_gc_inverse(n) * printed * surgery_gc(n), f"{cyc} in the g_c basis")
        else:
            _check_matrix(to_matrix(standard_irrep(p, n)), rows, f"{cyc} matrix")
    two = scalar_mv(n, 2)
    closed14 = one(n) - (two + b(n, 1) + b(n, 2)) * u_all(n)
    closed15 = one(n) - (two + b(n, 1) + b(n, 2) + b(n, 1) * b(n, 2)) * u_all(n)
    _check(standard_irrep(Permutation.from_cycles("(14)"), n) == closed14, "(14) closed form")
    _check(geom_perm(Permutation.from_cycles("(15)"), n, rep="standard") == closed15, "(15) closed form")
    for cyc in ("(12)", "(13)"):
        p = Permutation.from_cycles(cyc)
        _check(standard_irrep(p, n) == geom_perm(p, n), f"{cyc} unchanged by the surgery conjugation")
    # (12) and (12345) generate S_5, so these products make the map a homomorphism
    gens = [Permutation.from_cycles(c) for c in ("(12)", "(12345)")]
    images = {p: standard_irrep(p, n) for p in map(Permutation, permutations(range(1, 6)))}
    for p, g in images.items():
        for s in gens:
            _check(images[p * s] == g * images[s], f"homomorphism at {p.cycle_str()} * {s.cycle_str()}")
    return "4 matrices, 2 closed forms"


# ---------------------------------------------------------------------------
# commutants and parameter families


@_golden("commutant-full-s4")
def _check_commutant_s4():
    gens = [perm_matrix(Permutation.from_cycles(c), 4) for c in ("(12)", "(13)", "(14)")]
    basis = commutant(gens).basis
    _check(len(basis) == 2, "commutant of S4 has dimension 2")
    for B in basis:
        want = [[B[(0, 0)] if i == j else B[(0, 1)] for j in range(4)] for i in range(4)]
        _check_matrix(B, want, "constant-diagonal constant-offdiagonal pattern")
    M = g_all_matrix(Fraction(2), Fraction(1))
    want = RationalPolynomial.from_roots([Fraction(1), Fraction(5)])
    _check(min_poly(M) == want, "min poly (x-(s-t))(x-(3t+s)) at s=2, t=1")
    return "dimension 2"


_KLEIN_CLASSES = (
    ((0, 0), (1, 1), (2, 2), (3, 3)),
    ((0, 1), (1, 0), (2, 3), (3, 2)),
    ((0, 2), (2, 0), (1, 3), (3, 1)),
    ((0, 3), (3, 0), (1, 2), (2, 1)),
)


@_golden("commutant-klein")
def _check_commutant_klein():
    gens = [
        perm_matrix(Permutation.from_cycles(c), 4)
        for c in ("(12)(34)", "(13)(24)")
    ]
    basis = commutant(gens).basis
    _check(len(basis) == 4, "commutant of the Klein group has dimension 4")
    first = {pos: cls[0] for cls in _KLEIN_CLASSES for pos in cls}  # a position outside every class raises KeyError
    for B in basis:
        _check_matrix(B, [[B[first[(i, j)]] for j in range(4)] for i in range(4)], "entries constant on each position class")
    M = g_alt_matrix(Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    roots = [Fraction(0), Fraction(-2), Fraction(-4), Fraction(6)]
    _check(min_poly(M) == RationalPolynomial.from_roots(sorted(roots)), "four-root factored form")
    return "dimension 4"


@_golden("family-minpoly-collapse")
def _check_family_collapse():
    rep = family_minpoly_check("all", [Fraction(2), Fraction(1)])
    _check(rep.ok and rep.collapsed == (), "distinct roots at s=2, t=1")
    rep0 = family_minpoly_check("all", [Fraction(5), Fraction(0)])
    _check(rep0.ok and rep0.collapsed == ((GaussianRational(5), 2),), "t=0 collapses both roots to s")
    repa = family_minpoly_check("alt", [Fraction(1), Fraction(1), Fraction(1), Fraction(1)])
    _check(repa.ok and repa.collapsed == ((GaussianRational.ZERO, 3),), "equal parameters collapse three roots")
    return "collapse happens at t=0, not s=t"


# ---------------------------------------------------------------------------
# surgery cuts and column extraction


@_golden("surgery-band-cut")
def _check_surgery_band_cut():
    rng = random.Random(20244)
    for _ in range(4):
        M = _rand_matrix(rng, 4)
        g = from_matrix(M, 2)
        for cut, k, name in ((u_dag(2, 2), 2, "u2d cut"), (u_all_dag(2), 3, "u12d cut")):
            want = [[M[(i, j)] if max(i, j) < k else -M[(i, j)] if min(i, j) >= k else 0 for j in range(4)] for i in range(4)]
            _check_matrix(to_matrix(g - g * cut - cut * g), want, name)
    return "u2-cut display corrected: full lower band negates, (3,4),(4,3) are -g34,-g43 and (4,4) is -g44"


@_golden("column-extraction")
def _check_column_extraction():
    rng = random.Random(20245)
    M = _rand_matrix(rng, 4)
    g = from_matrix(M, 2)
    for picker, col, clause in (
        (b(2, 1) * u(2, 2), 1, "second column moved to first, others cleared"),
        (b(2, 1) * b(2, 2), 3, "fourth column moved to first, others cleared"),
    ):
        _check_matrix(to_matrix(g * picker), [[M[(i, col)] if j == 0 else 0 for j in range(4)] for i in range(4)], clause)
    return ""


# ---------------------------------------------------------------------------
# regular representation of the three-letter group inside rank 3


@_golden("regrep-matrix")
def _check_regrep_matrix():
    rng = random.Random(20246)
    for _ in range(5):
        xs = [GaussianRational(_rand_fraction(rng)) for _ in range(6)]
        x0, x1, x2, x3, x4, x5 = xs
        M = to_matrix(regrep_element(xs).element)
        tot = sum(xs, GaussianRational.ZERO)
        want = [[-x2 - x5] + [tot if j == i else 0 for j in range(1, 7)] + [-x3 - x4] for i in range(8)]
        want[0] = [x0 - x2 + x3 - x5] + [0] * 6 + [x1 - x3 - x4 + x5]
        want[7] = [x1 - x2 + x4 - x5] + [0] * 6 + [x0 + x2 - x3 - x4]
        _check_matrix(M, want, "regular-representation matrix")
    return "display's zero entries at rows 2..7, column 8 are frozen corrected to -x3-x4"


@_golden("regrep-block-decomposition")
def _check_regrep_blocks():
    rng = random.Random(20247)
    for _ in range(5):
        xs = [GaussianRational(_rand_fraction(rng)) for _ in range(6)]
        x0, x1, x2, x3, x4, x5 = xs
        P, D = regrep_decompose(regrep_element(xs))
        tot = sum(xs, GaussianRational.ZERO)
        # the 2x2 block is fixed only up to eigenvector scaling, so below it is compared by trace and determinant
        want = [[tot if i == j < 6 else D[(i, j)] if i >= 6 and j >= 6 else 0 for j in range(8)] for i in range(8)]
        _check_matrix(D, want, "six copies of the trivial part and a 2x2 block")
        blk_tr = D[(6, 6)] + D[(7, 7)]
        blk_det = D[(6, 6)] * D[(7, 7)] - D[(6, 7)] * D[(7, 6)]
        disp_tr = (x0 + x1 - x3 - x4) + (x0 - x1 + x3 - x5)
        disp_det = (x0 + x1 - x3 - x4) * (x0 - x1 + x3 - x5) - (x2 - x3 - x4 + x5) * (
            -x1 + x2 + x4 - x5
        )
        _check(blk_tr == disp_tr, "2x2 block trace")
        _check(blk_det == disp_det, "2x2 block determinant")
    return "block equals the displayed 2x2 up to the eigenvector-scaling freedom"


# ---------------------------------------------------------------------------
# signature embeddings


_SIGNATURE_TABLE = (
    (1, 2, 1, ("e1",), ("f1", "f2")),
    (3, 0, 1, ("e1", "if1", "if2"), ()),
    (2, 3, 2, ("e1", "e2"), ("f1", "f2", "f3")),
    (4, 1, 2, ("e1", "e2", "if1", "if2"), ("f3",)),
    (0, 5, 2, (), ("ie1", "ie2", "f1", "f2", "f3")),
    (3, 4, 3, ("e1", "e2", "e3"), ("f1", "f2", "f3", "f4")),
    (5, 2, 3, ("e1", "e2", "e3", "if1", "if2"), ("f3", "f4")),
    (7, 0, 3, ("e1", "e2", "e3", "if1", "if2", "if3", "if4"), ()),
    (1, 6, 3, ("e1",), ("ie2", "ie3", "f1", "f2", "f3", "f4")),
)


@_golden("signature-embeddings")
def _check_signatures():
    for p, q, n, plus, minus in _SIGNATURE_TABLE:
        gs = generators(SignatureSpec(p, q, n))
        _check(gs.plus_labels == plus, f"G({p},{q}) plus labels")
        _check(gs.minus_labels == minus, f"G({p},{q}) minus labels")
        report = verify_signature(gs)
        _check(report.ok, f"G({p},{q}) fails: {report.failures}")
    return "9 generator lists"


@_golden("extra-vector")
def _check_extra_vector():
    f2 = f_extra(1)
    want = (e(1, 1) * f(1, 1)).complexify().scale(GaussianRational.I)
    _check(f2 == want, "f2 = e1 f1 i")
    for n in (1, 2, 3):
        fx = f_extra(n)
        _check(fx * fx == -one(n).complexify(), "square -1")
        for i in range(1, n + 1):
            for gen in (e(n, i).complexify(), f(n, i).complexify()):
                _check(fx * gen == -(gen * fx), "anticommutes with every generator")
        pc = pseudoscalar_candidate(n)
        _check(pc * pc == one(n), "pseudoscalar candidate squares to +1")
        prod = pc.complexify() * fx
        _check(prod == scalar_mv(n, GaussianRational.I, complexified=True), "product is the formal i")
    return "ranks 1..3"


@_golden("character-values")
def _check_character_values():
    _check(mv_trace(geom_perm(Permutation.from_cycles("(12)"), 2)) == GaussianRational(2), "fix count of (12) on 4 letters")
    _check(mv_trace(one(2)) == GaussianRational(4), "identity character")
    _check(mv_trace(geom_perm(Permutation.from_cycles("(12)(34)"), 2)) == GaussianRational.ZERO, "fix count of (12)(34)")
    return ""
