"""Shared builders for randomized test data, and the Hypothesis profile.

Every randomized test seeds its own random.Random so failures reproduce;
helpers here only turn an rng into exact scalars, matrices, and multivectors,
and assert_normal checks the one normal form of a scalar.
Hypothesis runs derandomized with no example database, so every run draws the
same examples.  Its home directory, where it still caches the literal
constants it collects from the source, is one fixed directory under the
system temporary directory, so nothing is written into the checkout.
"""

from fractions import Fraction
from math import gcd
import os
import random
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wittmat import ExactMatrix, GaussianRational, Multivector, Permutation, WittMonomial

set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "wittmat-hypothesis"))
settings.register_profile("wittmat", derandomize=True, deadline=None, database=None)
settings.load_profile("wittmat")


def assert_normal(z: GaussianRational):
    """z holds ints (a + b*i) / d in the one normal form: d > 0 and gcd(a, b, d) == 1."""
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int, repr(z)
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 7) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


def rand_real_gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(rand_fraction(rng))


def rand_monomial(rng: random.Random, n: int) -> WittMonomial:
    return WittMonomial(n, rng.randrange(1 << n), rng.randrange(1 << n))


def rand_mv(rng: random.Random, n: int, complexified: bool = False, max_terms: int = 5) -> Multivector:
    """Random multivector with up to max_terms monomial terms."""
    draw = rand_gauss if complexified else rand_real_gauss
    terms: dict[WittMonomial, GaussianRational] = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = rand_monomial(rng, n)
        terms[mono] = terms.get(mono, GaussianRational.ZERO) + draw(rng)
    terms = {m: c for m, c in terms.items() if not c.is_zero()}
    return Multivector(n, terms, complexified=complexified)


def rand_matrix(rng: random.Random, rows: int, cols: int, complex_entries: bool = False) -> ExactMatrix:
    draw = rand_gauss if complex_entries else rand_real_gauss
    return ExactMatrix([[draw(rng) for _ in range(cols)] for _ in range(rows)])


def rand_perm(rng: random.Random, m: int) -> Permutation:
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return Permutation(images)
