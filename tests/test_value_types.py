"""The immutable value types survive copy.copy, copy.deepcopy and pickle.

Each type is tried on one real and one Gaussian value: the copy must equal
the original, hash like it, and still refuse assignment.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from wittmat import ExactMatrix, GaussianRational, Multivector, RationalPolynomial, WittMonomial

HALF_I = GaussianRational(Fraction(1, 2), Fraction(-3, 7))

VALUES = [
    (GaussianRational(Fraction(-5, 3)), "re"),
    (HALF_I, "im"),
    (ExactMatrix([[1, Fraction(2, 3)], [0, -4]]), "cells"),
    (ExactMatrix([[HALF_I, 1], [0, GaussianRational(0, 2)]]), "cells"),
    (RationalPolynomial([Fraction(1, 2), 0, -3]), "coeffs"),
    (RationalPolynomial([HALF_I, 1]), "coeffs"),
    (Multivector(2, {WittMonomial(2, 1, 2): Fraction(3, 4), WittMonomial(2, 3, 3): -1}), "n"),
    (Multivector(2, {WittMonomial(2, 0, 1): HALF_I}, complexified=True), "complexified"),
]
IDS = [f"{type(v).__name__}-{'real' if k % 2 == 0 else 'gauss'}" for k, (v, _) in enumerate(VALUES)]

COPIES = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]


@pytest.mark.parametrize("value, field", VALUES, ids=IDS)
@pytest.mark.parametrize("clone", COPIES, ids=["copy", "deepcopy", "pickle"])
def test_round_trip(value, field, clone):
    out = clone(value)
    assert type(out) is type(value)
    assert out == value
    assert hash(out) == hash(value)
    if isinstance(value, Multivector):
        assert out.complexified == value.complexified
    with pytest.raises(AttributeError):
        setattr(out, field, getattr(value, field))
