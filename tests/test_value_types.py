"""The immutable value types survive copy.copy, copy.deepcopy and pickle.

Each numeric type is tried on one real and one Gaussian value, and
Permutation on one value: the copy must equal the original, hash like it,
and still refuse assignment to every public field and to any new attribute.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from wittmat import ExactMatrix, GaussianRational, Multivector, Permutation, RationalPolynomial, WittMonomial

HALF_I = GaussianRational(Fraction(1, 2), Fraction(-3, 7))

VALUES = [
    ("real", GaussianRational(Fraction(-5, 3))),
    ("gauss", HALF_I),
    ("real", ExactMatrix([[1, Fraction(2, 3)], [0, -4]])),
    ("gauss", ExactMatrix([[HALF_I, 1], [0, GaussianRational(0, 2)]])),
    ("real", RationalPolynomial([Fraction(1, 2), 0, -3])),
    ("gauss", RationalPolynomial([HALF_I, 1])),
    ("real", Multivector(2, {WittMonomial(2, 1, 2): Fraction(3, 4), WittMonomial(2, 3, 3): -1})),
    ("gauss", Multivector(2, {WittMonomial(2, 0, 1): HALF_I}, complexified=True)),
    ("cycles", Permutation.from_cycles("(1 3)(2 4 5)")),
]
IDS = [f"{type(v).__name__}-{kind}" for kind, v in VALUES]

FIELDS = {
    GaussianRational: ("re", "im"),
    ExactMatrix: ("rows", "cols", "cells"),
    RationalPolynomial: ("coeffs",),
    Multivector: ("n", "complexified"),
    Permutation: ("images",),
}

COPIES = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]


@pytest.mark.parametrize("value", [v for _, v in VALUES], ids=IDS)
@pytest.mark.parametrize("clone", COPIES, ids=["copy", "deepcopy", "pickle"])
def test_round_trip(value, clone):
    out = clone(value)
    assert type(out) is type(value)
    assert out == value
    assert hash(out) == hash(value)
    for field in FIELDS[type(value)]:
        assert getattr(out, field) == getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(out, field, getattr(value, field))
    with pytest.raises(AttributeError):
        out.extra = 1
