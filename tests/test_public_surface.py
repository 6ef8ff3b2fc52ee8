"""The exported names: every __all__ entry resolves, and each object has one name."""

import importlib

import pytest

import wittmat

MODULES = ("exact", "witt", "spectral", "signatures", "symgroup", "repdecomp")

# second names for spectral_unit's check, mv_trace, Multivector.to_blades and g * m, and
# solve_linear, which nothing called once min_poly kept its own running echelon form
REMOVED_ALIASES = ("SpectralIndex", "character", "to_blade_basis", "extract_column", "solve_linear")

# methods nothing called: root search deflates in one Horner pass, terms() sorts on the monomial
REMOVED_METHODS = (
    ("RationalPolynomial", "evaluate"),
    ("RationalPolynomial", "leading"),
    ("RationalPolynomial", "__divmod__"),
    ("WittMonomial", "sort_key"),
)


def _module(name):
    return importlib.import_module(f"wittmat.{name}")


def test_package_all_resolves_without_duplicates():
    assert len(wittmat.__all__) == len(set(wittmat.__all__))
    for name in wittmat.__all__:
        assert hasattr(wittmat, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = _module(name)
    assert mod.__all__
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"{name}.{attr}"


def test_removed_aliases_are_absent():
    for alias in REMOVED_ALIASES:
        assert alias not in wittmat.__all__ and not hasattr(wittmat, alias), alias
        for name in MODULES:
            mod = _module(name)
            assert alias not in mod.__all__ and not hasattr(mod, alias), f"{name}.{alias}"


@pytest.mark.parametrize("owner, method", REMOVED_METHODS)
def test_removed_methods_are_absent(owner, method):
    assert not hasattr(getattr(wittmat, owner), method), f"{owner}.{method}"
