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
"""

from .errors import DimensionMismatch, DomainError, InputError, WittmatError
from .exact import ExactMatrix, GaussianRational, RationalPolynomial, eval_poly, min_poly, solve_linear
from .witt import (
    BladeMonomial,
    Multivector,
    WittMonomial,
    a,
    b,
    e,
    f,
    from_blade_basis,
    one,
    reduce_word,
    scalar_mv,
    u,
    u_all,
    u_all_dag,
    u_dag,
    wedge_ab,
    zero,
)
from .spectral import (
    block_assemble,
    block_split,
    det2,
    from_matrix,
    mv_inverse,
    mv_trace,
    spectral_table,
    spectral_unit,
    to_matrix,
)
from .signatures import (
    GeneratorSet,
    SignatureReport,
    SignatureSpec,
    f_extra,
    generators,
    pseudoscalar_candidate,
    verify_signature,
)
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
    CommutantBasis,
    FamilyReport,
    RegRepElement,
    commutant,
    family_minpoly_check,
    g_all_matrix,
    g_alt_matrix,
    regrep_decompose,
    regrep_element,
    regrep_transform,
    surgery_cut,
)
from .goldens import GoldenResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BladeMonomial",
    "CommutantBasis",
    "DimensionMismatch",
    "DomainError",
    "ExactMatrix",
    "FamilyReport",
    "GaussianRational",
    "GeneratorSet",
    "GoldenResult",
    "InputError",
    "Multivector",
    "Permutation",
    "RationalPolynomial",
    "RegRepElement",
    "SignatureReport",
    "SignatureSpec",
    "WittMonomial",
    "WittmatError",
    "a",
    "all_ones_mv",
    "b",
    "block_assemble",
    "block_split",
    "casimir_idempotents",
    "casimir_mv",
    "commutant",
    "det2",
    "e",
    "eval_poly",
    "f",
    "f_extra",
    "family_minpoly_check",
    "from_blade_basis",
    "from_matrix",
    "g_all_matrix",
    "g_alt_matrix",
    "generators",
    "geom_perm",
    "min_poly",
    "mv_inverse",
    "mv_trace",
    "one",
    "perm_matrix",
    "pseudoscalar_candidate",
    "reduce_word",
    "regrep_decompose",
    "regrep_element",
    "regrep_transform",
    "run_all",
    "scalar_mv",
    "solve_linear",
    "spectral_table",
    "spectral_unit",
    "standard_irrep",
    "std_rep_matrix",
    "surgery_cut",
    "surgery_gc",
    "surgery_gc_inverse",
    "to_matrix",
    "u",
    "u_all",
    "u_all_dag",
    "u_dag",
    "verify_signature",
    "wedge_ab",
    "zero",
]
