"""Exact-arithmetic module parameters, alcove combinatorics, and q-series
characters for triplet W-algebras on simply-laced root lattices.

Everything is computed over the rationals: inner products through the adjugate
of the Cartan matrix, characters as integer coefficient windows on a single
fractional-exponent coset.  No floats anywhere: every integral input passes
`_exact.int_vec`, which takes ints, __index__ types (bool too) and integral
Fractions and raises ValueError on anything else, floats included;
`pairing` and `norm_sq` take int or Fraction coordinates and raise
ValueError on a float.  The exact inverse and determinant of the Cartan
matrix come from the same LDL^T (`_exact._ldl`) the lattice enumerator uses.
"""

from .affine import (
    affine_exponent,
    direct_exponent,
    lemma39_test,
    lemma310_construct,
)
from .params import (
    LambdaParam,
    ModelParams,
    NarrowViolation,
    PreconditionError,
    ScaledWeight,
    build_model,
    canonical_lambda,
    central_charge,
    conformal_weight,
    decompose,
    delta_lambda,
    dual_module_param,
    dual_param,
    epsilon,
    lambda0_set,
    lambda_params,
    narrow,
    narrow_margin,
    star_act,
)
from .qseries import (
    IncompatibleBases,
    OrderUnderflow,
    QSeries,
    eta_inv_pow,
    fock_char,
    lattice_char,
    module_char,
    qs_add,
    qs_eq,
    qs_mul,
    qs_scale,
    to_json_dict,
    w_char,
    w_char_affine,
)
from .rootsys import (
    WEYL_CAP,
    CapExceeded,
    CartanType,
    RootSystem,
    WeylElement,
    act,
    build_root_system,
    cartan_type,
    circ_act,
    enum_dominant_in_Q,
    longest_element,
    norm_sq,
    pairing,
    weyl_dim,
    weyl_enumerate,
)
from .verify import CheckReport, GridSpec, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CartanType",
    "CheckReport",
    "GridSpec",
    "IncompatibleBases",
    "LambdaParam",
    "ModelParams",
    "NarrowViolation",
    "OrderUnderflow",
    "PreconditionError",
    "QSeries",
    "RootSystem",
    "ScaledWeight",
    "WEYL_CAP",
    "WeylElement",
    "act",
    "affine_exponent",
    "build_model",
    "build_root_system",
    "canonical_lambda",
    "cartan_type",
    "central_charge",
    "circ_act",
    "conformal_weight",
    "decompose",
    "delta_lambda",
    "direct_exponent",
    "dual_module_param",
    "dual_param",
    "enum_dominant_in_Q",
    "epsilon",
    "eta_inv_pow",
    "fock_char",
    "lambda0_set",
    "lambda_params",
    "lattice_char",
    "lemma310_construct",
    "lemma39_test",
    "longest_element",
    "module_char",
    "narrow",
    "narrow_margin",
    "norm_sq",
    "pairing",
    "qs_add",
    "qs_eq",
    "qs_mul",
    "qs_scale",
    "run_all",
    "run_check",
    "star_act",
    "to_json_dict",
    "w_char",
    "w_char_affine",
    "weyl_dim",
    "weyl_enumerate",
]
