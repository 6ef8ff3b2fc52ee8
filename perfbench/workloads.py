"""Seeded inputs and operations for the four workloads.

Every workload is a fixed list of operation slots (a "pass").  The slot mix
(kinds, ranks, sizes, densities, and the shares of complexified, tall and
Gaussian operands) is fixed per workload, so runs at different seeds do the
same amount of work; the seed draws which slots get which flags, the order
of the pass, and every operand.  wittmat sees only the generated operands.

Each operation is a function of a span recorder (see tracing.py) that makes
its calls through layers.py.  An optional check verifies the first result
exactly; later passes must reproduce that result.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from wittmat import (
    ExactMatrix,
    GaussianRational,
    Multivector,
    Permutation,
    WittMonomial,
    block_assemble,
    eval_poly,
    g_all_matrix,
    g_alt_matrix,
    one,
    perm_matrix,
    regrep_element,
    std_rep_matrix,
    to_matrix,
)

import layers as L

COMPLEX_SHARE = 0.25  # share of complexified (or Gaussian) operands
TALL_SHARE = 0.2  # share of operands drawn from the tall coefficient band
GAUSS_SHARE = 0.4  # share of Gaussian (complex) dense matrices in elimination
# sparse operands have 6 or 8 terms: fewer make an op's cost hinge on
# whether a few monomial pairs happen to vanish, which shifts p50 by seed
SPARSE_TERMS = (6, 8)
# ~1/3 of the 4^n monomials, except rank 5 (100 of 1024) and rank 6 (600 of
# 4096), which keep one pass of algebra-stream and bridge near two seconds
DENSE_TERMS = {1: 2, 2: 5, 3: 21, 4: 85, 5: 100, 6: 600}
BRIDGE_DENSE5 = 341  # the full third at rank 5 for the bridge round trips


@dataclass
class Op:
    kind: str
    run: Callable  # run(sp) -> result
    check: Callable | None = None  # check(result) -> bool, on the first result only


class Gen:
    """Exact operands drawn from one seeded random.Random."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def frac(self, tall=False) -> Fraction:
        # small band |p| <= 9, q <= 7; the tall band has 4-digit numerators
        # and 3-digit denominators, which makes Fraction gcds do real work
        r = self.rng
        p, q = (r.randint(1, 9999), r.randint(1, 999)) if tall else (r.randint(1, 9), r.randint(1, 7))
        return Fraction(-p if r.random() < 0.5 else p, q)

    def scalar(self, comp=False, tall=False) -> GaussianRational:
        return GaussianRational(self.frac(tall), self.frac(tall) if comp else 0)

    def mv(self, n, k, comp=False, tall=False) -> Multivector:
        mask = (1 << n) - 1
        monos = self.rng.sample(range(1 << (2 * n)), min(k, 1 << (2 * n)))
        terms = {WittMonomial(n, m >> n, m & mask): self.scalar(comp, tall) for m in monos}
        return Multivector(n, terms, complexified=comp)

    def matrix(self, rows, cols, comp=False, tall=False) -> ExactMatrix:
        return ExactMatrix([[self.scalar(comp, tall) for _ in range(cols)] for _ in range(rows)])

    def low_rank(self, size, rank, comp=False) -> ExactMatrix:
        """size x size product of random size x rank and rank x size factors."""
        B = [[self.scalar(comp) for _ in range(rank)] for _ in range(size)]
        C = [[self.scalar(comp) for _ in range(size)] for _ in range(rank)]
        zero = GaussianRational(0)
        return ExactMatrix([[sum((B[i][k] * C[k][j] for k in range(rank)), zero) for j in range(size)]
                            for i in range(size)])

    def perm(self, m) -> Permutation:
        images = list(range(1, m + 1))
        self.rng.shuffle(images)
        return Permutation(images)

    def with_cycles(self, m, lengths) -> Permutation:
        """Random permutation of 1..m with the given cycle lengths (rest fixed)."""
        letters = self.rng.sample(range(1, m + 1), sum(lengths))
        images = list(range(1, m + 1))
        for length in lengths:
            cycle, letters = letters[:length], letters[length:]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                images[x - 1] = y
        return Permutation(images)

    def invertible_mv(self, n, comp=False) -> Multivector:
        """Invertible by construction: nonzero diagonal plus a nilpotent a-part.

        Monomials with a-set = b-set are the diagonal idempotents u_S; the
        coefficient of u_S is the Moebius sum of chosen nonzero diagonal
        entries d_T over T within S, so every diagonal entry of the spectral
        matrix is some d_T.  Pure-a monomials are strictly triangular in the
        same basis, so the matrix is triangular with a nonzero diagonal.
        """
        size = 1 << n
        d = [self.scalar(comp) for _ in range(size)]
        terms = {}
        for S in range(size):
            c = GaussianRational(0)
            T = S
            while True:  # all subsets T of S
                sign = -1 if (S.bit_count() - T.bit_count()) % 2 else 1
                c = c + d[T] * sign
                if T == 0:
                    break
                T = (T - 1) & S
            terms[WittMonomial(n, S, S)] = c
        for am in self.rng.sample(range(1, size), min(size - 1, 2 * n)):
            terms[WittMonomial(n, am, 0)] = self.scalar(comp)
        return Multivector(n, terms, complexified=comp)


def combos(rng, count, comp_share=COMPLEX_SHARE, tall_share=TALL_SHARE):
    """(complexified, tall) for the `count` slots of one class.

    The shares are exact per class and the two flags never meet, so every
    seed gives each class the same cost mix; the seed only picks which slot
    gets which flags.
    """
    k_comp, k_tall = round(count * comp_share), round(count * tall_share)
    out = [(True, False)] * k_comp + [(False, True)] * k_tall + [(False, False)] * (count - k_comp - k_tall)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# algebra-stream: products and involutions in the monomial kernel


def _mul_op(n, density, g, h, check_hom):
    def hom(r):
        return to_matrix(r) == to_matrix(g) * to_matrix(h)

    return Op(f"mul.{density}{n}", lambda sp: L.mul(sp, g, h), hom if check_hom else None)


_UNARY_LAWS = {
    # (gh)~ = h~ g~ and (gh)* = h* g* are anti-automorphisms; the grade
    # involution is an automorphism; block_split inverts block_assemble
    "reverse": lambda g, h, r: (g * h).reverse() == h.reverse() * r,
    "clifford_conj": lambda g, h, r: (g * h).clifford_conj() == h.clifford_conj() * r,
    "grade_involution": lambda g, h, r: (g * h).grade_involution() == r * h.grade_involution(),
    "block_split": lambda g, h, r: block_assemble(*r) == g,
}


def _unary_op(kind, n, density, g, h):
    law = _UNARY_LAWS[kind]
    if kind == "block_split":
        run = lambda sp: L.block(sp, g)
    else:
        run = lambda sp: L.involution(sp, g, kind)
    return Op(f"{kind}.{density}{n}", run, lambda r: law(g, h, r))


def algebra_stream(gen: Gen, smoke: bool) -> list[Op]:
    if smoke:
        products = [(1, "sparse", 1), (2, "sparse", 2), (2, "dense", 1)]
        unary = [("reverse", 2, "sparse"), ("clifford_conj", 1, "dense"),
                 ("grade_involution", 2, "dense"), ("block_split", 2, "sparse")]
        hom_sample = {(n, d): c for n, d, c in products}
    else:
        # dense rank 4/5 products are 1/6 of the slots, so p90 lies inside
        # that class and tracks it; p50 sits among the sparse and unary slots
        products = [(n, "sparse", 6) for n in (2, 3, 4, 5)] + [
            (2, "dense", 3), (3, "dense", 3), (4, "dense", 8), (5, "dense", 2)]
        unary = [(kind, n, "sparse") for kind in ("reverse", "clifford_conj") for n in (2, 3, 4, 5)]
        unary += [(kind, n, "dense") for kind in ("reverse", "clifford_conj") for n in (3, 5)]
        unary += [(kind, n, d) for kind in ("grade_involution", "block_split")
                  for n, d in ((2, "sparse"), (3, "dense"), (4, "sparse"), (5, "dense"))]
        # the homomorphism check needs a 2^n product per slot: check every
        # slot up to rank 3, two of rank 4 and one of rank 5
        hom_sample = {(n, d): (c if n <= 3 else 2 if n == 4 else 1) for n, d, c in products}
    ops = []
    for n, density, count in products:
        checked = set(gen.rng.sample(range(count), min(count, hom_sample[(n, density)])))
        for i, (comp, tall) in enumerate(combos(gen.rng, count)):
            k = DENSE_TERMS[n] if density == "dense" else SPARSE_TERMS[i % len(SPARSE_TERMS)]
            g, h = gen.mv(n, k, comp, tall), gen.mv(n, k, comp, tall)
            ops.append(_mul_op(n, density, g, h, i in checked))
    for i, ((kind, n, density), (comp, tall)) in enumerate(zip(unary, combos(gen.rng, len(unary)))):
        g = gen.mv(n, DENSE_TERMS[n] if density == "dense" else SPARSE_TERMS[i % len(SPARSE_TERMS)], comp, tall)
        h = gen.mv(n, 4, comp)  # partner for the product law
        ops.append(_unary_op(kind, n, density, g, h))
    gen.rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# bridge: to_matrix / from_matrix, geometric permutations, the matrix detour


def _roundtrip_op(n, density, g):
    def run(sp):
        return L.from_matrix(sp, L.to_matrix(sp, g), n)

    return Op(f"roundtrip.{density}{n}", run, lambda r: r == g)


def _geom_perm_op(n, p):
    return Op(f"geom_perm.{n}", lambda sp: L.geom_perm(sp, p, n),
              lambda r: to_matrix(r) == perm_matrix(p, 1 << n))


def _detour_op(n, g, h, checked):
    return Op(f"detour.dense{n}", lambda sp: L.detour(sp, g, h),
              (lambda r: r == g * h) if checked else None)


def bridge(gen: Gen, smoke: bool) -> list[Op]:
    if smoke:
        roundtrips = [(2, "dense", 1, DENSE_TERMS[2]), (2, "sparse", 1, 3)]
        perms, detour_n, detours, detour_checks = [(2, 1)], 2, 1, 1
    else:
        # the 21 dense rank-4 round trips span the middle of a pass, so p50
        # lies mid-class; above them come 2 dense rank-5 round trips, 6
        # detours and 1 dense rank-6 round trip, so the top tenth (4 of 40
        # slots) ends mid-detours and p90 does not hinge on one operand
        roundtrips = [(4, "dense", 21, DENSE_TERMS[4]), (5, "dense", 2, BRIDGE_DENSE5),
                      (5, "sparse", 2, None), (6, "sparse", 2, None), (6, "dense", 1, DENSE_TERMS[6])]
        perms, detour_n, detours, detour_checks = [(4, 2), (5, 2), (6, 2)], 4, 6, 2
    ops = []
    for n, density, count, k in roundtrips:
        for i, (comp, tall) in enumerate(combos(gen.rng, count)):
            g = gen.mv(n, SPARSE_TERMS[i % len(SPARSE_TERMS)] if k is None else k, comp, tall)
            ops.append(_roundtrip_op(n, density, g))
    for n, count in perms:
        for _ in range(count):
            ops.append(_geom_perm_op(n, gen.perm(1 << n)))
    # same operand distribution as the dense products of algebra-stream
    checked = set(gen.rng.sample(range(detours), detour_checks))
    for i, (comp, tall) in enumerate(combos(gen.rng, detours)):
        k = DENSE_TERMS[detour_n]
        ops.append(_detour_op(detour_n, gen.mv(detour_n, k, comp, tall), gen.mv(detour_n, k, comp, tall), i in checked))
    gen.rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# elimination: ExactMatrix on 8..32 square matrices (4 in smoke mode), kernel bypassed


def _is_identity(M):
    return M == ExactMatrix.identity(M.rows)


def _is_zero(M):
    return not any(x for row in M.cells for x in row)


def _inverse_op(label, A):
    return Op(f"inverse.{label}", lambda sp: L.inverse(sp, A), lambda r: _is_identity(A * r))


def _matmul_op(label, A, B, x):
    # Freivalds-style exact check: (AB)x = A(Bx) for a fixed integer vector x
    return Op(f"matmul.{label}", lambda sp: L.matmul(sp, A, B), lambda r: r * x == A * (B * x))


def _rref_op(label, A):
    def check(r):
        R, pivots = r
        return R.rref() == (R, pivots) and all(R.cells[i][p] == 1 for i, p in enumerate(pivots))

    return Op(f"rref.{label}", lambda sp: L.rref(sp, A), check)


def _nullspace_op(label, A, nullity):
    return Op(f"nullspace.{label}", lambda sp: L.nullspace(sp, A),
              lambda r: len(r) >= nullity and all(_is_zero(A * v) for v in r))


def _min_poly_op(label, A):
    return Op(f"min_poly.{label}", lambda sp: L.min_poly(sp, A),
              lambda r: r.is_monic() and _is_zero(eval_poly(r, A)))


def _commutant_op(label, gens):
    return Op(f"commutant.{label}", lambda sp: L.commutant(sp, gens),
              lambda r: r.dimension >= 1 and all(X * G == G * X for X in r.basis for G in gens))


def _mv_inverse_op(n, g):
    return Op(f"mv_inverse.{n}", lambda sp: L.mv_inverse(sp, g), lambda r: g * r == one(n))


def _regrep_op(xs):
    def check(r):
        P, D = r
        X = to_matrix(regrep_element(xs).element)
        return P * D == X * P

    return Op("regrep_decompose", lambda sp: L.regrep_decompose(sp, xs), check)


def elimination(gen: Gen, smoke: bool) -> list[Op]:
    rng = gen.rng
    small, mid, big, lr = (4, 4, 4, (4, 2)) if smoke else (8, 16, 32, (12, 8))
    ops = []

    def dense_inverses(size, count, tall_share):
        for comp, tall in combos(rng, count, GAUSS_SHARE, tall_share):
            label = f"{'gauss' if comp else 'tall' if tall else 'real'}{size}"
            ops.append(_inverse_op(label, gen.matrix(size, size, comp, tall)))

    dense_inverses(small, 2 if smoke else 5, TALL_SHARE)
    ops.append(_inverse_op(f"std{mid}", std_rep_matrix(gen.perm(mid + 1), mid)))
    ops.append(_inverse_op(f"std{big}", std_rep_matrix(gen.perm(big + 1), big)))
    x_small = ExactMatrix.column([rng.randint(-3, 3) for _ in range(small)])
    for comp in ([False] if smoke else [False, False, True]):
        ops.append(_matmul_op(f"dense{small}", gen.matrix(small, small, comp), gen.matrix(small, small, comp), x_small))
    x_mid = ExactMatrix.column([rng.randint(-3, 3) for _ in range(mid)])
    if not smoke:
        ops.append(_matmul_op(f"dense{mid}", gen.matrix(mid, mid), gen.matrix(mid, mid), x_mid))
    ops.append(_matmul_op(f"perm_std{mid}", perm_matrix(gen.perm(mid), mid), std_rep_matrix(gen.perm(mid + 1), mid), x_mid))
    size, rank = lr
    for comp in ([False] if smoke else [False, True]):
        ops.append(_rref_op(f"lowrank{size}", gen.low_rank(size, rank, comp)))
        ops.append(_nullspace_op(f"lowrank{size}", gen.low_rank(size, rank, comp), size - rank))
    # fixed cycle types keep the minimal polynomial's degree, and so the
    # solver's iterations, the same for every seed
    ops.append(_min_poly_op(f"perm{small}", perm_matrix(gen.with_cycles(small, (3,) if smoke else (3, 2, 2)), small)))
    ops.append(_min_poly_op(f"std_invol{mid}", std_rep_matrix(gen.with_cycles(mid + 1, (2,) * (mid // 4)), mid)))
    ops.append(_min_poly_op("g_all4", g_all_matrix(gen.scalar(), gen.scalar())))
    ops.append(_min_poly_op("g_alt4", g_alt_matrix(*(gen.scalar() for _ in range(4)))))
    for _ in range(1 if smoke else 2):
        # two random elements of S_4 generate the group whose commutant is solved
        gens = [perm_matrix(gen.perm(4), 4) for _ in range(2)]
        ops.append(_commutant_op("s4_pair", gens))
    for n, comp in (((2, False),) if smoke else ((3, False), (3, True), (4, False))):
        ops.append(_mv_inverse_op(n, gen.invertible_mv(n, comp)))
    ops.append(_regrep_op([gen.frac() for _ in range(6)]))
    if not smoke:
        # dense 16x16 inverses are ~15% of the slots, so p90 lies inside that
        # class; tall entries would make one of them cost as much as the rest
        dense_inverses(mid, 5, 0)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cold-cli: one fresh interpreter per call


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# sha256 of the stdout of each fixed command, frozen from wittmat as it was
# when this benchmark was written; the CLI promises byte-identical output
DIGESTS = os.path.join(HERE, "cli_digests.json")

# unseeded README subcommands; their stdout must match the frozen digests
CLI_FIXED = (
    ("verify-paper", "--format", "pretty"),
    ("surgery", "--n", "4"),
    ("perm", "--cycles", "(12)", "--standard-irrep", "--n", "4"),
    ("casimir", "--n", "4"),
    ("embed", "--p", "7", "--q", "6"),
    ("regrep", "--x", "1,2,3,4,5,6"),
    ("commutant", "--group", "s4"),
    ("commutant", "--group", "klein"),
    ("spectral-table", "3"),
    # the rank-2 README examples: with them the light calls are over half of
    # a pass, so p50 is per-call overhead rather than one seeded call's cost
    ("spectral-table", "2"),
    ("perm", "--cycles", "(123)", "--n", "2"),
    ("casimir", "--n", "2"),
    ("surgery", "--n", "2"),
    ("minpoly", "--family", "all", "--params", "2,1"),
    ("minpoly", "--family", "alt", "--params", "1,2,3,4"),
    ("embed", "--p", "3", "--q", "4"),
)
CLI_FIXED_SMOKE = (
    ("spectral-table", "2"),
    ("commutant", "--group", "klein"),
)


def cli_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_op(args, expect, out_dir):
    """expect(stdout bytes) -> bool; the call must also exit 0."""
    env = cli_env()
    sub = args[0]

    def run(sp):
        if not sp.tracing:
            proc = subprocess.run([sys.executable, "-m", "wittmat.cli", *args], env=env, capture_output=True)
            return proc.returncode, proc.stdout
        spans_path = os.path.join(out_dir, "child-spans.json")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *args],
                              env=env, capture_output=True)
        # a child that dies before writing its spans leaves no stale file behind
        with open(spans_path, encoding="utf-8") as fh:
            sp.graft(json.load(fh))
        os.remove(spans_path)
        return proc.returncode, proc.stdout

    return Op(f"cli.{sub}", run, lambda r: r[0] == 0 and expect(r[1]))


def _json_line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def cold_cli(gen: Gen, smoke: bool, out_dir: str) -> list[Op]:
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    ops = []
    for args in (CLI_FIXED_SMOKE if smoke else CLI_FIXED):
        want = digests[" ".join(args)]
        if args[0] == "verify-paper":
            expect = lambda out, want=want: hashlib.sha256(out).hexdigest() == want and b"30/30 checks passed" in out
        else:
            expect = lambda out, want=want: hashlib.sha256(out).hexdigest() == want
        ops.append(_cli_op(args, expect, out_dir))

    def write(name, obj):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    pairs = [(2, 3)] if smoke else [(4, 24), (5, 10)]
    for i, (n, k) in enumerate(pairs):
        comp = i == 1
        g, h = gen.mv(n, k, comp), gen.mv(n, k, comp, tall=True)
        want = _json_line((g * h).to_json())
        ops.append(_cli_op(("mul", write(f"g{i}.json", g.to_json()), write(f"h{i}.json", h.to_json())),
                           lambda out, want=want: out == want, out_dir))
    n = 2 if smoke else 5
    g = gen.mv(n, DENSE_TERMS[n], comp=not smoke)
    M = to_matrix(g).to_json()
    ops.append(_cli_op(("to-matrix", write("t.json", g.to_json())), lambda out: out == _json_line(M), out_dir))
    ops.append(_cli_op(("from-matrix", write("m.json", M)), lambda out: out == _json_line(g.to_json()), out_dir))
    gen.rng.shuffle(ops)
    return ops

