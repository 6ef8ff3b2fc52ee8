"""The exported names: every __all__ entry resolves to its owner, and each object has one name."""

import importlib
import inspect

import pytest

import wittmat

MODULES = tuple(wittmat._EXPORTS)

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

# parameters no caller set: reduce_word's scale and flag (scale the result instead), and
# perm_matrix's degree default (every caller names the matrix size)
REMOVED_PARAMETERS = (
    ("reduce_word", "coeff", "parameter"),
    ("reduce_word", "complexified", "parameter"),
    ("perm_matrix", "m", "default"),
)


def _module(name):
    return importlib.import_module(f"wittmat.{name}")


def test_package_all_resolves_without_duplicates():
    assert len(wittmat.__all__) == len(set(wittmat.__all__))
    for name in wittmat.__all__:
        assert hasattr(wittmat, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # `import *` binds exactly the module's entry in the owner table, and every class or
    # function it binds is defined there, so a name filed under the wrong owner fails here
    ns = {}
    exec(f"from wittmat.{name} import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(wittmat._EXPORTS[name])
    for attr, value in ns.items():
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == f"wittmat.{name}", f"{name}.{attr}"


def test_removed_aliases_are_absent():
    for alias in REMOVED_ALIASES:
        assert alias not in wittmat.__all__ and not hasattr(wittmat, alias), alias
        for name in MODULES:
            mod = _module(name)
            assert alias not in mod.__all__ and not hasattr(mod, alias), f"{name}.{alias}"


@pytest.mark.parametrize("owner, method", REMOVED_METHODS)
def test_removed_methods_are_absent(owner, method):
    assert not hasattr(getattr(wittmat, owner), method), f"{owner}.{method}"


@pytest.mark.parametrize("func, param, gone", REMOVED_PARAMETERS)
def test_removed_parameters_are_absent(func, param, gone):
    params = inspect.signature(getattr(wittmat, func)).parameters
    if gone == "default":
        assert params[param].default is inspect.Parameter.empty, f"{func}({param}=...)"
    else:
        assert param not in params, f"{func}({param})"
