"""Null-vector generators, word reduction, involutions, blade conversion, and pinned outputs of the Multivector layer."""

from fractions import Fraction
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from wittmat import (
    DimensionMismatch,
    DomainError,
    InputError,
    Multivector,
    WittMonomial,
    a,
    b,
    block_assemble,
    block_split,
    e,
    f,
    from_blade_basis,
    from_matrix,
    one,
    reduce_word,
    scalar_mv,
    to_matrix,
    u,
    u_all,
    u_all_dag,
    u_dag,
    wedge_ab,
    zero,
)
from wittmat import GaussianRational, witt
from wittmat.witt import _blade_to_monos, _mono_to_blades, _product_sum, _rank
from conftest import rand_mv
from oracles import reduce_tokens


def monomials(n, samples):
    """Every (a_mask, b_mask) at rank n, or a seeded sample of them."""
    size = 1 << n
    monos = [(am, bm) for am in range(size) for bm in range(size)]
    if samples is None:
        return monos
    rng = random.Random(200 + n)
    return [rng.choice(monos) for _ in range(samples)]


def monomial_pairs(n, samples):
    """Every pair of monomials at rank n, or a seeded sample of pairs."""
    monos = monomials(n, None)
    if samples is None:
        return [(m1, m2) for m1 in monos for m2 in monos]
    rng = random.Random(300 + n)
    return [(rng.choice(monos), rng.choice(monos)) for _ in range(samples)]


# (rank, sample size); None means every pair
KERNEL_RANKS = ((1, None), (2, None), (3, None), (4, 400), (5, 400))


def word(n, a_mask, b_mask):
    return WittMonomial(n, a_mask, b_mask).word()


def kernel_product(n, a1, b1, a2, b2):
    """(a1, b1) * (a2, b2) through the product kernel on one-term factors with numerator 1, over den 1."""
    out = _product_sum(n, ([a1 << n | b1], [1], None), ([a2 << n | b2], [1], None), 1, False)
    assert all(c in (1, -1) for c in out.values())
    return {divmod(k, 1 << n): 1 if c == 1 else -1 for k, c in out.items()}


def blade_by_rewriting(e_mask, f_mask):
    """The blade e_E f_F with e_i = a_i + b_i, f_i = a_i - b_i, reduced by the rewriting engine."""
    gens = [(i, 1) for i in range(1, 33) if e_mask >> (i - 1) & 1]
    gens += [(i, -1) for i in range(1, 33) if f_mask >> (i - 1) & 1]
    words = [((), 1)]
    for idx, b_sign in gens:
        words = [(w + ((idx, kind),), sgn * (b_sign if kind else 1)) for w, sgn in words for kind in (0, 1)]
    acc = {}
    for w, sgn in words:
        for key, weight in reduce_tokens(w).items():
            acc[key] = acc.get(key, 0) + sgn * weight
    return {key: weight for key, weight in acc.items() if weight}


class TestGeneratorRelations:
    def test_nilpotency(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                assert (a(n, i) * a(n, i)).is_zero()
                assert (b(n, i) * b(n, i)).is_zero()

    def test_duality(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                assert a(n, i) * b(n, i) + b(n, i) * a(n, i) == one(n)

    def test_anticommutation_across_indices(self):
        n = 3
        gens = [a(n, i) for i in range(1, 4)] + [b(n, i) for i in range(1, 4)]
        for p in range(6):
            for q in range(6):
                if p % 3 == q % 3:
                    continue
                x, y = gens[p], gens[q]
                assert (x * y + y * x).is_zero()

    def test_u_is_idempotent(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                ui = u(n, i)
                assert ui * ui == ui
                vi = u_dag(n, i)
                assert vi * vi == vi
                assert ui + vi == one(n)
                assert (ui * vi).is_zero()

    def test_u_all_products(self):
        n = 3
        assert u_all(n) == u(n, 1) * u(n, 2) * u(n, 3)
        assert u_all_dag(n) == u_dag(n, 1) * u_dag(n, 2) * u_dag(n, 3)

    def test_wedge_squares_to_quarter(self):
        n = 2
        w = wedge_ab(n, 1)
        assert w * w == scalar_mv(n, Fraction(1, 4))

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            a(2, 3)
        with pytest.raises(InputError):
            b(2, 0)


class TestReduceWord:
    def test_canonical_reordering_sign(self):
        # a2 a1 reduces to -(a1 a2)
        n = 2
        assert reduce_word(n, ["a2", "a1"]) == -reduce_word(n, ["a1", "a2"])
        assert reduce_word(n, ["a2", "a1"]).pretty() == "-a12"

    def test_interleaved_order_is_canonical(self):
        n = 2
        g = reduce_word(n, ["a1", "b1", "a2", "b2"])
        ((mono, c),) = g.terms()
        assert (mono.a_mask, mono.b_mask) == (0b11, 0b11)
        assert c == 1

    def test_contraction(self):
        n = 1
        # b1 a1 = 1 - a1 b1
        assert reduce_word(n, ["b1", "a1"]) == one(n) - u(n, 1)

    def test_signed_tokens_and_pairs(self):
        n = 2
        assert reduce_word(n, ["-a1", "b2"]) == -(a(n, 1) * b(n, 2))
        assert reduce_word(n, [(1, "a"), (2, "b")]) == a(n, 1) * b(n, 2)
        assert reduce_word(n, [(1, 0), (2, 1)]) == a(n, 1) * b(n, 2)

    def test_matches_explicit_products(self):
        rng = random.Random(120)
        n = 3
        names = [f"{k}{i}" for k in "ab" for i in range(1, 4)]
        for _ in range(100):
            word = [rng.choice(names) for _ in range(rng.randint(0, 6))]
            direct = one(n)
            for tok in word:
                direct = direct * reduce_word(n, [tok])
            assert reduce_word(n, word) == direct

    def test_bad_token(self):
        with pytest.raises(InputError):
            reduce_word(2, ["c1"])
        with pytest.raises(InputError):
            reduce_word(2, ["a5"])

    @pytest.mark.parametrize(
        "tok",
        [(1, 5), (1, -1), (1, "x"), (1, True), (1, 1.0), (1, None), (1, [0]), (1.7, 0), (1.0, 0), (True, 0),
         ("1", "a"), (None, "b"), "a\u00b2", "b\u0661"],
    )
    def test_bad_token_forms(self, tok):
        with pytest.raises(InputError):
            reduce_word(2, [tok])


class TestClosedFormKernel:
    """The closed forms against their definitions through the rewriting engine."""

    def test_product_matches_rewriting(self):
        for n, samples in KERNEL_RANKS:
            for (a1, b1), (a2, b2) in monomial_pairs(n, samples):
                expect = reduce_tokens(word(n, a1, b1) + word(n, a2, b2))
                assert kernel_product(n, a1, b1, a2, b2) == expect, (n, a1, b1, a2, b2)

    def test_reverse_matches_rewriting(self):
        for n, samples in KERNEL_RANKS:
            reverse = _rank(n).reverse
            for am, bm in monomials(n, samples):
                plus, minus = reverse[am << n | bm]
                got = {**{divmod(k, 1 << n): 1 for k in plus}, **{divmod(k, 1 << n): -1 for k in minus}}
                assert len(got) == len(plus) + len(minus), (n, am, bm)
                assert got == reduce_tokens(word(n, am, bm)[::-1]), (n, am, bm)

    def test_blade_conversions_match_rewriting(self):
        # a rank-5 blade expands into up to 2^10 words, so it gets a smaller sample
        for n, samples in KERNEL_RANKS[:4] + ((5, 10),):
            for x, y in monomials(n, samples):
                assert dict(_blade_to_monos(x, y)) == blade_by_rewriting(x, y), (n, x, y)
                back = {}
                for blade, w in _mono_to_blades(x, y):
                    for key, v in blade_by_rewriting(*blade).items():
                        back[key] = back.get(key, 0) + w * v
                assert {k: v for k, v in back.items() if v} == {(x, y): 1}, (n, x, y)


class TestAlgebraStructure:
    def test_associativity_random(self):
        rng = random.Random(121)
        for n in (1, 2, 3):
            for _ in range(40):
                x, y, z = (rand_mv(rng, n, complexified=True) for _ in range(3))
                assert (x * y) * z == x * (y * z)

    def test_distributivity_random(self):
        rng = random.Random(122)
        n = 2
        for _ in range(60):
            x, y, z = (rand_mv(rng, n) for _ in range(3))
            assert x * (y + z) == x * y + x * z

    def test_rank_mismatch(self):
        with pytest.raises(DimensionMismatch):
            a(1, 1) * a(2, 1)

    def test_scalar_coercion(self):
        n = 1
        g = a(n, 1) + 2
        assert g.coeff(WittMonomial(n, 0, 0)) == 2

    def test_scalar_products(self):
        g = a(3, 1).scale(Fraction(3, 2)) + u(3, 2) - b(3, 3).scale(5) + 1
        assert len(g.terms()) == 4 and not g.complexified
        for c, cplx in ((2, False), (Fraction(-1, 3), False), (GaussianRational.I, True)):
            want = [(m, v * c) for m, v in g.terms()]
            for prod in (g * c, c * g):
                assert prod.terms() == want and prod.complexified is cplx

    def test_real_scalar_keeps_element_real(self):
        x = a(2, 1)
        for g in (x + 1, x - 1, 1 + x, 1 - x, x + Fraction(1, 2)):
            assert not g.complexified
        assert (x + GaussianRational.I).complexified
        assert (x.complexify() + 1).complexified

    def test_compare_with_non_real_scalar(self):
        # equality ignores the complexified flag, so a real element is simply unequal to i
        assert (one(1) == GaussianRational.I) is False
        assert one(1) != GaussianRational.I
        assert scalar_mv(1, GaussianRational.I) == GaussianRational.I

    def test_scalar_element_hashes_like_its_scalar(self):
        # equal objects must hash equal, so sets and dict keys treat them as one
        assert len({1, one(1)}) == 1
        assert hash(scalar_mv(2, Fraction(1, 2))) == hash(Fraction(1, 2))
        assert hash(scalar_mv(1, GaussianRational.I)) == hash(GaussianRational.I)
        assert hash(zero(3)) == hash(0)
        assert {one(2): "x"}[1] == "x"


class TestInvolutions:
    def test_reverse_is_antiautomorphism(self):
        rng = random.Random(123)
        for n in (1, 2, 3):
            for _ in range(40):
                x, y = rand_mv(rng, n, complexified=True), rand_mv(rng, n, complexified=True)
                assert (x * y).reverse() == y.reverse() * x.reverse()
                assert x.reverse().reverse() == x

    def test_reverse_fixes_generators_and_flips_words(self):
        n = 2
        assert a(n, 1).reverse() == a(n, 1)
        assert (a(n, 1) * b(n, 2)).reverse() == b(n, 2) * a(n, 1)

    def test_reverse_conjugates_scalars_at_odd_rank_only(self):
        from wittmat import GaussianRational

        # the adjoint table at rank 1 pairs reversal with conjugation;
        # at even rank the same word flip leaves scalars alone
        h1 = a(1, 1).scale(GaussianRational.I)
        assert h1.reverse() == a(1, 1).scale(-GaussianRational.I)
        h2 = a(2, 1).scale(GaussianRational.I)
        assert h2.reverse() == h2

    def test_grade_involution_is_automorphism(self):
        rng = random.Random(124)
        for n in (1, 2, 3):
            for _ in range(40):
                x, y = rand_mv(rng, n), rand_mv(rng, n)
                assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()

    def test_grade_involution_signs(self):
        n = 2
        assert a(n, 1).grade_involution() == -a(n, 1)
        assert (a(n, 1) * b(n, 2)).grade_involution() == a(n, 1) * b(n, 2)

    def test_clifford_conj_composition(self):
        rng = random.Random(125)
        n = 2
        for _ in range(40):
            x = rand_mv(rng, n, complexified=True)
            assert x.clifford_conj() == x.grade_involution().reverse()
            assert x.clifford_conj() == x.reverse().grade_involution()


class TestBladeBasis:
    def test_generator_definitions(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                assert e(n, i) == a(n, i) + b(n, i)
                assert f(n, i) == a(n, i) - b(n, i)
                assert e(n, i) * e(n, i) == one(n)
                assert f(n, i) * f(n, i) == -one(n)

    def test_round_trip_random(self):
        rng = random.Random(126)
        for n in (1, 2, 3):
            for _ in range(40):
                g = rand_mv(rng, n, complexified=True)
                blades = g.to_blades()
                back = from_blade_basis(n, blades, complexified=True)
                assert back == g

    def test_out_of_range_masks_raise(self):
        """A blade mask below 0 or of 2^n or more raises InputError before the expansion.

        A mask of -1 once sent the expansion's subset walk counting down
        without end, appending a term at each step, so the calls run in a
        child process with a timeout and 1 GiB of address space: a regression
        fails here instead of hanging or filling memory.
        """
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from wittmat import InputError, from_blade_basis\n"
            "for blade in ((2, -1, 0), (2, 0, -1), (2, 4, 0), (2, 0, 4), (2, -1, 4)):\n"
            "    try:\n"
            "        from_blade_basis(2, {blade: 1})\n"
            "    except InputError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "blade mask out of range for rank 2\n" * 5
        # the widest masks in range are still taken: e1 e2 f1 f2
        assert from_blade_basis(2, {(2, 3, 3): 1}) == e(2, 1) * e(2, 2) * f(2, 1) * f(2, 2)

    def test_grades(self):
        n = 2
        g = one(n) + a(n, 1) + a(n, 1) * b(n, 2)
        assert g.grades() == (0, 1, 2)
        assert g.grade_project(1) == a(n, 1)
        assert g.grade_project(3).is_zero()


class TestSerialization:
    def test_json_round_trip(self):
        rng = random.Random(128)
        for n in (1, 2, 3):
            for comp in (False, True):
                g = rand_mv(rng, n, complexified=comp)
                back = Multivector.from_json(g.to_json())
                assert back == g and back.complexified == g.complexified

    @pytest.mark.parametrize(
        "data",
        [
            {"n": True, "terms": [{"a": [True], "coeff": "1"}]},
            {"n": 1, "terms": [{"a": [True], "coeff": "1"}]},
            {"n": 2, "terms": [{"b": [True], "coeff": "1"}]},
            {"n": 1, "complex": "false", "terms": []},
            {"n": 1, "complex": 1, "terms": []},
            {"n": 2, "terms": [{"a": [1, 1], "coeff": "1"}]},
            {"n": 2, "terms": [{"a": [1], "b": [2, 1, 2], "coeff": "1"}]},
            {"n": 1, "terms": [{"a": 1, "coeff": "1"}]},
            {"n": 1, "terms": 5},
        ],
    )
    def test_json_rejects_booleans_string_flags_and_repeated_indices(self, data):
        with pytest.raises(InputError):
            Multivector.from_json(data)

    def test_pretty_merges_runs(self):
        n = 2
        g = a(n, 1) * b(n, 1) * b(n, 2)
        assert g.pretty() == "a1b12"
        assert zero(n).pretty() == "0"
        assert one(n).pretty() == "1"

    def test_pretty_signed_sums(self):
        n = 2
        i = GaussianRational(0, 1)
        cases = [
            (zero(n), "0"),
            (scalar_mv(n, Fraction(-3, 4)), "-3/4"),
            (scalar_mv(n, GaussianRational(1, -2)), "1-2i"),
            (a(n, 1) - b(n, 2) + a(n, 1) * b(n, 1), "-b2 + a1 + a1b1"),
            (a(n, 2).scale(Fraction(1, 3)) - b(n, 1).scale(Fraction(5, 2)) + scalar_mv(n, 2), "2 - 5/2 b1 + 1/3 a2"),
            (a(n, 1).scale(i) + b(n, 1).scale(1 - i) - one(n), "-1 + (1-1i) b1 + (1i) a1"),
            (-(a(n, 1) * a(n, 2)) - b(n, 1).scale(2), "-2 b1 - a12"),
            (b(n, 2) * a(n, 1) - one(n), "-1 - a1b2"),
        ]
        for g, text in cases:
            assert g.pretty() == text


def pinned_operand(n, kind, seed):
    """min(4^n // 2, 160) seeded terms at rank n: small real, tall real (12-digit numerators) or small complex."""
    rng = random.Random(seed)
    top, den = (10**12 - 1, 10**6) if kind == "tall" else (9, 7)

    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, den))

    full, cplx = (1 << n) - 1, kind == "complex"
    ks = rng.sample(range(4**n), min(4**n // 2, 160))
    terms = {WittMonomial(n, k >> n, k & full): GaussianRational(part(), part() if cplx else 0) for k in ks}
    return Multivector(n, terms, complexified=cplx)


def _digest(*xs):
    """sha256[:16] of the JSON of xs, Multivectors or ExactMatrices."""
    return hashlib.sha256(json.dumps([x.to_json() for x in xs]).encode()).hexdigest()[:16]


PINNED_CASES = [(n, kind) for n in range(2, 7) for kind in ("real", "complex", "tall")]
PINNED_OPS = ("operands", "product", "reverse", "clifford_conj", "grade_involution", "block_split", "block_assemble",
              "to_matrix")
# sha256[:16] of the JSON of each op in PINNED_OPS, per rank and kind
PINNED = {
    "real-2": ("e43826f19798452a", "433fadfe58c0f542", "b84fe0d234f2245b", "fff55f681d884d11",
               "087ade1d57cd1a45", "d5a4c49ef810043b", "ff1614a80260718c", "ad218167e8e1d686"),
    "complex-2": ("7fb18d126c7d6170", "9a2a5c82d590893d", "891bad7751c62efb", "babaa809723b0513",
                  "2956c1178cfd3f69", "6705d28c6939093c", "d0ce5465c337183f", "d40ec02343da322f"),
    "tall-2": ("dac383dd3778227f", "bc63c5e689f1feb3", "fd5fa11c1bf07ad2", "a62b8c7ce3988baa",
               "d5a5759d2bbaf771", "2cfc261850317d35", "5a7b5e2d67e94322", "a1fd85d901ecaced"),
    "real-3": ("a537a68860700491", "1a51430f477e4a47", "3eb5d248d99ea1a8", "202428b9052e9800",
               "0b7b565ff7404545", "b459cac9c4fc0185", "a635c5252240aa9e", "5667cf2a214c5d40"),
    "complex-3": ("dca627f237b4220b", "1ca34721f7d2927e", "0432ac25a87c03cd", "c40fd862398ffeef",
                  "eb33b0f012d93cb3", "29bf22082eee59d8", "975e87bf06f1a2aa", "07f5be9de06992b4"),
    "tall-3": ("71adff8e2f7edca0", "379e0d0c771485f5", "68667c4cf1e3c91e", "0cc55a1cc88a991a",
               "05142a14a9ded576", "5fefffc1b36e186e", "7a69278855a0524d", "15f57b73ec246d04"),
    "real-4": ("41fc19044635ff4c", "b73993b811e892c4", "83380f367982f017", "002b94f5d60f8be8",
               "209ed0d366392bb8", "1920a501839744a7", "8f461005911fc22d", "c3588e2a7d32644c"),
    "complex-4": ("aa09a5d10f462880", "99500fdb15319176", "f1b4fa21db01542d", "837f819e9a9fe44a",
                  "527c7425f782ac5a", "ae95ed33808db56f", "782bf385364df999", "cf8f8792327070fb"),
    "tall-4": ("53ee2658203fbfa5", "77138078cdec9582", "2196063147d3df66", "b731f5a64150e6b9",
               "f82feb6758be2819", "7e3aef2e5c29e0e7", "6c8bc5fd9247b0de", "6b60baa5bd83a545"),
    "real-5": ("f1b16f57b4f36eaf", "33cf25e6ab12f0e3", "0b8b9cb64d15ac6c", "bd0efb0a6c514978",
               "5089131629e03ff0", "0d71eb5f7f0c64f0", "c27727830d394af4", "4236938bb7080a81"),
    "complex-5": ("b83edec4553a1444", "2ac77c5cf0889bc1", "d30bf974e2dc2c29", "d533addfd2404fd1",
                  "cc646c2dba42ec91", "6d64fd4f060fb0f3", "ed0e3157c8be04da", "78623170c688fb09"),
    "tall-5": ("b6fe549e0c966599", "8ad7461d191122bd", "6f3c417a7762c434", "1dd2316d2d582893",
               "23c1affab370c307", "e793be23e98102dc", "054e644be3632be4", "08f55493cf005033"),
    "real-6": ("f7d4a045acfaa6ed", "aa3433285febcc97", "59166e1f77aef457", "ec3625d263174845",
               "f7938c9a73ea97d1", "266c252c81630b00", "ad3e1ad1de8516a8", "d75f6e8cad29ba84"),
    "complex-6": ("e7aeb6b4b532e49b", "c655056a545a53d9", "1911205d16b35113", "8156aedc2a35e610",
                  "a966a341409c372a", "4b8fcd0ae4e5c106", "2dc4dc0e451b2e0f", "87c1290200109a75"),
    "tall-6": ("44cda4e04bec7fc9", "d672d58dcdc1ded9", "92c3cc3b9b6732da", "c19d44a38e76069b",
               "7f4b8c2ecea0cd25", "7e63fd9df5bac523", "e77ce0b245961c11", "e75607056e66a2ef"),
}


class TestPinnedOutputs:
    """The Multivector layer's outputs on seeded operands at ranks 2..6, real, complex and tall, byte for byte.

    The product is pinned on both paths, the kernel and the matrix bridge,
    and so is the detour through the matrices, from_matrix(to_matrix(g) *
    to_matrix(h)); a round trip from_matrix(to_matrix(g)) gives g back.
    """

    @pytest.mark.parametrize("n,kind", PINNED_CASES, ids=[f"{kind}-{n}" for n, kind in PINNED_CASES])
    def test_outputs(self, n, kind, monkeypatch):
        g, h = pinned_operand(n, kind, 3000 + n), pinned_operand(n, kind, 3100 + n)
        products = []
        for bound in (float("inf"), -1):  # the kernel, then the bridge
            monkeypatch.setattr(witt, "_BRIDGE_PER_CELL", bound)
            monkeypatch.setattr(witt, "_BRIDGE_FLOOR", bound)
            products.append(_digest(g * h))
        G, H = to_matrix(g), to_matrix(h)
        assert _digest(from_matrix(G, n)) == _digest(g)
        got = {
            "operands": _digest(g, h),
            "product": products[0],
            "reverse": _digest(g.reverse()),
            "clifford_conj": _digest(g.clifford_conj()),
            "grade_involution": _digest(g.grade_involution()),
            "block_split": _digest(*block_split(g)),
            "block_assemble": _digest(block_assemble(*block_split(g)[:2], *block_split(h)[2:])),
            "to_matrix": _digest(G, H),
        }
        assert dict(zip(PINNED_OPS, PINNED[f"{kind}-{n}"])) == got
        assert products[1] == _digest(from_matrix(G * H, n)) == got["product"]

    def test_every_case_pinned(self):
        assert sorted(PINNED) == sorted(f"{kind}-{n}" for n, kind in PINNED_CASES)
