"""The names `gonal` exports are its contract: trimming one must be deliberate."""

import gonal

PUBLIC_NAMES = [
    "AdaptedAction",
    "AmbientMismatchError",
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
    "enumerate_subgroups_brute",
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


def test_public_names_are_pinned():
    assert sorted(gonal.__all__) == PUBLIC_NAMES
    assert len(set(gonal.__all__)) == len(gonal.__all__)


def test_every_public_name_resolves():
    missing = [name for name in gonal.__all__ if not hasattr(gonal, name)]
    assert missing == []
    namespace = {}
    exec("from gonal import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
