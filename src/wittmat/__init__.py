"""Exact-arithmetic geometric algebra over a null (Witt) generator basis.

The package realizes the neutral-signature algebras G(n,n), and their
complexifications G(n,n+1), through 2n null generators a_i, b_i.  A family
of 4^n products of those generators multiplies like the matrix units of the
2^n x 2^n matrix algebra, which makes the multivector-to-matrix dictionary
(`to_matrix` / `from_matrix`) exact in both directions.  On top of that
dictionary sit involutions and 2x2 determinants, arbitrary-signature
generator sets, symmetric-group representations with Casimir surgery,
commutant computations, and the decomposition of a six-term regular
representation element.  All arithmetic is rational: there are no floats
anywhere.

`import wittmat` loads only the error classes; every other public name, and
each submodule (`wittmat.exact` ... `wittmat.goldens`), is imported on first
use (PEP 562), so a program pays only for the modules it touches.
"""

import importlib

from .errors import DimensionMismatch, DomainError, InputError, WittmatError

__version__ = "0.1.0"

# owning submodule -> its public names, which are its __all__; a literal, so `import wittmat` reads no submodule
_EXPORTS = {
    "exact": ("ExactMatrix", "GaussianRational", "RationalPolynomial", "eval_poly", "min_poly"),
    "witt": (
        "BladeMonomial", "Multivector", "WittMonomial", "a", "b", "e", "f", "from_blade_basis", "one",
        "reduce_word", "scalar_mv", "u", "u_all", "u_all_dag", "u_dag", "wedge_ab", "zero",
    ),
    "spectral": (
        "block_assemble", "block_split", "det2", "from_matrix", "mv_inverse", "mv_trace", "spectral_table",
        "spectral_unit", "to_matrix",
    ),
    "signatures": (
        "GeneratorSet", "SignatureReport", "SignatureSpec", "f_extra", "generators", "pseudoscalar_candidate",
        "verify_signature",
    ),
    "symgroup": (
        "Permutation", "all_ones_mv", "casimir_idempotents", "casimir_mv", "geom_perm", "perm_matrix",
        "standard_irrep", "std_rep_matrix", "surgery_gc", "surgery_gc_inverse",
    ),
    "repdecomp": (
        "CommutantBasis", "FamilyReport", "RegRepElement", "commutant", "family_minpoly_check", "g_all_matrix",
        "g_alt_matrix", "regrep_decompose", "regrep_element", "regrep_transform", "surgery_cut",
    ),
    "goldens": ("GoldenResult", "run_all"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["DimensionMismatch", "DomainError", "InputError", "WittmatError", *_OWNER])


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__all__, *globals()})
