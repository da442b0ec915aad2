"""The names `gonal` exports are its contract: trimming one must be deliberate."""

import re

import pytest

import gonal
from gonal import (
    CoverParams,
    FrobeniusGroup,
    InvalidParamsError,
    build_action,
    enumerate_hyperplanes,
    invariant_subspaces,
    orbit_classes,
)
from gonal.verify import run_suite

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(gonal.__all__) == PUBLIC_NAMES
    assert len(set(gonal.__all__)) == len(gonal.__all__)


def test_every_public_name_resolves():
    missing = [name for name in gonal.__all__ if not hasattr(gonal, name)]
    assert missing == []
    namespace = {}
    exec("from gonal import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


CAP_TAKERS = {
    "enumerate_hyperplanes": lambda cap: enumerate_hyperplanes(CoverParams(3, 2, 4), cap=cap),
    "orbit_classes": lambda cap: orbit_classes(CoverParams(3, 2, 4), cap=cap),
    "FrobeniusGroup": lambda cap: FrobeniusGroup(CoverParams(5, 2, 3), cap=cap),
    "invariant_subspaces": lambda cap: invariant_subspaces(build_action(CoverParams(3, 2, 4)), cap),
    "run_suite": lambda cap: run_suite("fixtures", cap=cap),
}


@pytest.mark.parametrize("cap", [1.5, "100", True, 0, -3])
@pytest.mark.parametrize("api", CAP_TAKERS)
def test_every_cap_refuses_anything_but_a_positive_int(api, cap):
    with pytest.raises(InvalidParamsError, match=f"cap must be a positive integer, got {re.escape(repr(cap))}$"):
        CAP_TAKERS[api](cap)
