"""The result records: equality, hashing, text form, immutability and construction.

Each record is built positionally and by keyword from the same field values,
and both must behave as one immutable value with the repr `Name(field=value, ...)`.
"""

import pytest

from wittmat import DomainError
from wittmat.goldens import GoldenResult
from wittmat.repdecomp import CommutantBasis, FamilyReport, RegRepElement
from wittmat.signatures import GeneratorSet, SignatureReport, SignatureSpec

# (record type, field names, field values); values are plain stand-ins, records do not check types
RECORDS = [
    (SignatureSpec, ("p", "q", "n"), (3, 4, 3)),
    (GeneratorSet, ("n", "plus", "minus", "plus_labels", "minus_labels"), (2, ("e1",), ("f1",), ("+1",), ("-1",))),
    (SignatureReport, ("ok", "failures"), (False, ("e1^2",))),
    (CommutantBasis, ("generators", "basis", "dimension"), (("G",), ("B1", "B2"), 2)),
    (
        FamilyReport,
        ("kind", "params", "matrix", "expected_roots", "distinct_roots", "collapsed", "minpoly", "ok"),
        ("all", (2, 1), "M", (1, 3), (1, 3), ((1, 1),), "x^2 - 4x + 3", True),
    ),
    (RegRepElement, ("coefficients", "element"), ((1, 2, 3, 4, 5, 6), "X")),
    (GoldenResult, ("name", "ok", "detail"), ("spectral-table", True, "4 rows")),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind, names, values", RECORDS, ids=IDS)
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, kind, names, values):
        rec = kind(*values)
        assert rec == kind(**dict(zip(names, values)))
        assert tuple(getattr(rec, name) for name in names) == values

    def test_equality_and_hash_follow_the_fields(self, kind, names, values):
        rec = kind(*values)
        assert rec == kind(*values) and hash(rec) == hash(kind(*values))
        assert len({rec, kind(*values)}) == 1
        last = values[-1]
        assert rec != kind(*values[:-1], last + 1 if type(last) is int else "other")

    def test_repr_names_every_field(self, kind, names, values):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(kind(*values)) == f"{kind.__name__}({body})"

    def test_fields_cannot_be_assigned(self, kind, names, values):
        rec = kind(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert tuple(getattr(rec, name) for name in names) == values


def test_signature_spec_text():
    assert repr(SignatureSpec(p=3, q=4, n=3)) == "SignatureSpec(p=3, q=4, n=3)"


def test_generator_set_labels_default_to_empty():
    gs = GeneratorSet(1, ("e1",), ("f1",))
    assert gs.plus_labels == () and gs.minus_labels == ()
    assert gs == GeneratorSet(n=1, plus=("e1",), minus=("f1",), plus_labels=(), minus_labels=())


def test_golden_result_detail_defaults_to_empty():
    assert GoldenResult("x", True).detail == ""


@pytest.mark.parametrize("p, q, n", [(-1, 0, 1), (0, -1, 1), (0, 0, 0), (2, 2, 1), (4, 4, 3)])
def test_signature_spec_rejects_bad_signatures(p, q, n):
    with pytest.raises(DomainError):
        SignatureSpec(p, q, n)
    with pytest.raises(DomainError):
        SignatureSpec(p=p, q=q, n=n)


def test_signature_spec_accepts_the_largest_signature():
    assert SignatureSpec(3, 4, 3).p == 3 and SignatureSpec(0, 7, 3).q == 7
