"""Exact hermitian forms and Witt groups for rings with involution.

Everything is exact arithmetic over GF(p), GF(p^2), Q, and finite
quotients built from them; no floats anywhere.  The public surface is
re-exported here; the submodules group the machinery:

    rings         ring tower, involutions, scalar-field coordinates
    modules       finite-length modules and cyclic decomposition
    coefficients  duality coefficients, dual modules, strong duality
    forms         epsilon-hermitian forms, isometry, metabolicity
    transfer      pushforward of coefficients and forms along finite maps
    koszul        free complexes, Koszul complexes of regular sequences,
                  conormal sign
    fieldwitt     diagonalization over fields
    wittgroup     Witt class enumeration and group presentation
    devissage     residue-field comparison and its two-step factorization
    parser        text descriptors for rings, involutions, forms, towers
    cli           deterministic command line front end
"""

from .coefficients import (
    DualityCoefficient,
    DualModule,
    check_coefficient_iso,
    standard_coefficient,
)
from .devissage import (
    ComparisonReport,
    DevissageData,
    LocalcaseReport,
    verify_devissage,
    verify_localcase_factorization,
)
from .errors import (
    CoefficientMismatch,
    Degenerate,
    EngineError,
    EnumerationBoundExceeded,
    FormMismatch,
    IdealNotInvariant,
    ImproperIdeal,
    InvalidBound,
    ParseError,
    WittKitError,
)
from .fieldwitt import diagonalize
from .forms import (
    HermitianForm,
    coefficient_change,
    diagonal_form,
    hyperbolic_form,
    is_metabolic,
    isometric,
    orthogonal_sum,
)
from .koszul import (
    FreeComplex,
    RegularSequenceData,
    conormal_sign,
    involution_transport,
    koszul_complex,
)
from .modules import FLModule, free_module, module_from_shape
from .parser import (
    parse_element,
    parse_gram,
    parse_involution,
    parse_ring,
    parse_ring_with_involution,
    parse_sequence,
    parse_tower,
)
from .rings import (
    GF,
    Element,
    PolynomialRing,
    PrimeField,
    ProductRing,
    QuadraticField,
    QuotientRing,
    Rationals,
    RingMap,
    RingWithInvolution,
    compose_maps,
    identity_map,
    involution,
)
from .transfer import (
    GammaComparison,
    TransferCoefficient,
    transfer_form,
)
from .wittgroup import WittEngine, WittGroupResult, witt_group

__all__ = [
    "GF",
    "CoefficientMismatch",
    "ComparisonReport",
    "Degenerate",
    "DevissageData",
    "DualModule",
    "DualityCoefficient",
    "Element",
    "EngineError",
    "EnumerationBoundExceeded",
    "FLModule",
    "FormMismatch",
    "FreeComplex",
    "GammaComparison",
    "HermitianForm",
    "IdealNotInvariant",
    "ImproperIdeal",
    "InvalidBound",
    "LocalcaseReport",
    "ParseError",
    "PolynomialRing",
    "PrimeField",
    "ProductRing",
    "QuadraticField",
    "QuotientRing",
    "Rationals",
    "RegularSequenceData",
    "RingMap",
    "RingWithInvolution",
    "TransferCoefficient",
    "WittEngine",
    "WittGroupResult",
    "WittKitError",
    "check_coefficient_iso",
    "coefficient_change",
    "compose_maps",
    "conormal_sign",
    "diagonal_form",
    "diagonalize",
    "free_module",
    "hyperbolic_form",
    "identity_map",
    "involution",
    "involution_transport",
    "is_metabolic",
    "isometric",
    "koszul_complex",
    "module_from_shape",
    "orthogonal_sum",
    "parse_element",
    "parse_gram",
    "parse_involution",
    "parse_ring",
    "parse_ring_with_involution",
    "parse_sequence",
    "parse_tower",
    "standard_coefficient",
    "transfer_form",
    "verify_devissage",
    "verify_localcase_factorization",
    "witt_group",
]
