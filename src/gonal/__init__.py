"""Exact toolkit for q-homology covers of cyclic p-gonal curves.

Everything is integer or residue arithmetic: subgroup atlases over F_q,
Galois closures of composite covers, genus and Prym-dimension identities,
representation censuses, and group-ring identity verification on regular
representations.
"""

from .action import (
    AdaptedAction,
    CoverParams,
    build_action,
    invariant_subspaces,
    order_mod,
    parameter_sweep,
)
from .atlas import (
    GaloisReport,
    Hyperplane,
    OrbitClass,
    conjugate_hyperplane,
    core,
    core_dim,
    enumerate_hyperplanes,
    galois_closure,
    orbit_classes,
    parse_generator_words,
    read_fixture,
)
from .calculus import (
    CoverReport,
    decomposition_report,
    genus_quotient_by_core,
    prym_dim,
)
from .errors import (
    CapExceededError,
    FixtureParseError,
    GonalError,
    IdentityCheckError,
    InvalidParamsError,
)
from .fqlinalg import Subspace, gaussian_count
from .groupring import (
    FrobeniusGroup,
    GroupRingOperator,
    build_group,
    fixed_subspace,
    frobenius_check,
    verify_cross_terms,
    verify_scalar_identity,
)
from .reps import (
    RepTable,
    complex_table,
    rational_table,
    rep_table,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedAction",
    "CapExceededError",
    "CoverParams",
    "CoverReport",
    "FixtureParseError",
    "FrobeniusGroup",
    "GaloisReport",
    "GonalError",
    "GroupRingOperator",
    "Hyperplane",
    "IdentityCheckError",
    "InvalidParamsError",
    "OrbitClass",
    "RepTable",
    "Subspace",
    "build_action",
    "build_group",
    "complex_table",
    "conjugate_hyperplane",
    "core",
    "core_dim",
    "decomposition_report",
    "enumerate_hyperplanes",
    "fixed_subspace",
    "frobenius_check",
    "galois_closure",
    "gaussian_count",
    "genus_quotient_by_core",
    "invariant_subspaces",
    "orbit_classes",
    "order_mod",
    "parameter_sweep",
    "parse_generator_words",
    "prym_dim",
    "rational_table",
    "read_fixture",
    "rep_table",
    "verify_cross_terms",
    "verify_scalar_identity",
]
