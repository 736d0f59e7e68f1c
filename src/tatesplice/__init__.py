"""Exact-arithmetic construction and verification of Tate resolutions and
maximal Cohen-Macaulay approximations over graded quotients of polynomial
rings by regular sequences."""

from .arith import (
    Polynomial,
    PrimeField,
    VariableContext,
    parse_polynomial,
)
from .freecomplex import (
    BaseRing,
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    graded_piece,
    homology_dims,
    is_chain_map,
    mapping_cone,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    is_regular_sequence,
    lift_through,
)
from .koszul import (
    ExteriorBasis,
    LiftMatrix,
    alpha_element,
    koszul_complex,
    koszul_homotopy,
    wedge_map,
)
from .homotopy import (
    HomotopySystem,
    sigma_c_chain_map,
    sigma_maps,
    solve_homotopy,
    tor_identity_check,
)
from .shamash import ShamashResolution, es_resolution
from .tate import (
    TateResolution,
    general_splice,
    mcm_generator_count,
    mcm_presentation,
    minimize,
    tate_splice,
)
from .harness import ProblemInstance, oracle_homology, run_build, run_verify

__all__ = [
    "BaseRing",
    "ChainComplex",
    "ExteriorBasis",
    "GradedFreeModule",
    "GroebnerBasis",
    "HomotopySystem",
    "LiftMatrix",
    "Polynomial",
    "PolyMatrix",
    "PrimeField",
    "ProblemInstance",
    "ShamashResolution",
    "TateResolution",
    "VariableContext",
    "alpha_element",
    "buchberger",
    "es_resolution",
    "general_splice",
    "graded_piece",
    "homology_dims",
    "is_chain_map",
    "is_regular_sequence",
    "koszul_complex",
    "koszul_homotopy",
    "lift_through",
    "mapping_cone",
    "mcm_generator_count",
    "mcm_presentation",
    "minimize",
    "oracle_homology",
    "parse_polynomial",
    "run_build",
    "run_verify",
    "sigma_c_chain_map",
    "sigma_maps",
    "solve_homotopy",
    "tate_splice",
    "tor_identity_check",
    "wedge_map",
]
