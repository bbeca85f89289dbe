"""Kings, quasi-kernels, and k-kernels in compositions of digraphs.

The package builds frozen digraph and composition values, decides king and
kernel questions about them, and stress-tests the structural guarantees the
algorithms rely on over seeded random corpora.
"""

from __future__ import annotations

from .composition import (
    Composition,
    CompositionVertex,
    compose,
    flatten,
    require_semicomplete_composition,
    require_strong_semicomplete_composition,
)
from .digraph import (
    Digraph,
    DigraphClass,
    UNREACHABLE,
    build_digraph,
    classify_digraph,
    distances_from,
    distances_to,
    induced_subdigraph,
    is_strong,
    min_cycle_length_through,
    out_eccentricities,
)
from .errors import FormatError, GenerationError, PreconditionError, TheoremViolation
from .gen import Constraint, GenSpec, Kind, SplitMix64, derive, generate, mix64
from .kernels import (
    CertificateKind,
    KernelCertificate,
    c3_gadget,
    composition_k_kernel,
    disjoint_quasi_kernels,
    k_kernel_brute_force,
    quasi_kernel,
    singleton_quasi_kernels,
    validate_certificate,
)
from .kings import (
    CompositionKingWitness,
    EstablishReport,
    FactorKingFlag,
    FourKingReport,
    KingReport,
    KingWitnessReason,
    ThreeKingClassification,
    can_establish,
    classified_flat_three_kings,
    classify_three_kings,
    composition_all_k_kings,
    composition_has_k_king,
    establish,
    four_king_bound_report,
    k_kings,
    non_king_dominator_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateKind",
    "Composition",
    "CompositionKingWitness",
    "CompositionVertex",
    "Constraint",
    "Digraph",
    "DigraphClass",
    "EstablishReport",
    "FactorKingFlag",
    "FormatError",
    "FourKingReport",
    "GenSpec",
    "GenerationError",
    "KernelCertificate",
    "Kind",
    "KingReport",
    "KingWitnessReason",
    "PreconditionError",
    "SplitMix64",
    "TheoremViolation",
    "ThreeKingClassification",
    "UNREACHABLE",
    "build_digraph",
    "c3_gadget",
    "can_establish",
    "classified_flat_three_kings",
    "classify_digraph",
    "classify_three_kings",
    "compose",
    "composition_all_k_kings",
    "composition_has_k_king",
    "composition_k_kernel",
    "derive",
    "disjoint_quasi_kernels",
    "distances_from",
    "distances_to",
    "establish",
    "flatten",
    "four_king_bound_report",
    "generate",
    "induced_subdigraph",
    "is_strong",
    "k_kernel_brute_force",
    "k_kings",
    "min_cycle_length_through",
    "mix64",
    "non_king_dominator_witness",
    "out_eccentricities",
    "quasi_kernel",
    "require_semicomplete_composition",
    "require_strong_semicomplete_composition",
    "singleton_quasi_kernels",
    "validate_certificate",
    "__version__",
]
