import itertools

import numpy as np
import pytest

from gonal.action import (
    CoverParams,
    build_action,
    cyclotomic_factor,
    enumerate_invariant_subspaces,
    invariant_subspace_of_dim,
    order_mod,
    parameter_sweep,
)
from gonal.errors import CapExceededError, InvalidParamsError, NoInvariantSubspaceError
from gonal.fqlinalg import Subspace, matpow_array


def test_order_mod_values():
    assert order_mod(3, 13) == 3
    assert order_mod(2, 3) == 2
    assert order_mod(2, 5) == 4


def test_order_mod_rejects_p_equal_q():
    with pytest.raises(InvalidParamsError):
        order_mod(5, 5)


def test_cover_params_derived():
    params = CoverParams(13, 3, 3)
    assert params.g == 6
    assert params.n == 12
    assert params.s0 == 3
    assert params.m == 265720
    assert params.t == 20440
    assert params.group_order == 13 * 3**12


@pytest.mark.parametrize(
    "p,q,r",
    [
        (4, 2, 3),  # p not prime
        (5, 4, 3),  # q not prime
        (5, 5, 3),  # p = q
        (5, 2, 2),  # r too small
        (3, 7, 3),  # gcd(p, q-1) != 1
        (3, 2, 3),  # g = 1 without the escape hatch
    ],
)
def test_cover_params_rejects(p, q, r):
    with pytest.raises(InvalidParamsError):
        CoverParams(p, q, r)


@pytest.mark.parametrize(
    "p,q,r,name",
    [(5, 2, 3.0, "r"), (5.0, 2, 3, "p"), (5, np.int64(2), 3, "q"), (True, 2, 3, "p")],
)
def test_cover_params_refuses_a_non_int(p, q, r, name):
    # A float r would give float n and m, and a numpy q would wrap q^n at int64.
    with pytest.raises(InvalidParamsError, match=f"^{name} = .* must be an int$"):
        CoverParams(p, q, r)


@pytest.mark.parametrize("r", [10**400, 10**308, 2**1023])
def test_cover_params_refuses_an_n_past_floating_point(r):
    # The size refusals read log10(q^n) = n log10(q) as a float before building q^n.
    with pytest.raises(InvalidParamsError, match="too large to estimate q\\^n in floating point"):
        CoverParams(3, 5, r)


def test_cover_params_small_genus_escape_hatch():
    params = CoverParams(3, 2, 3, allow_small_genus=True)
    assert params.g == 1
    assert params.n == 2


def test_parameter_sweep_is_valid_and_nonempty():
    sweep = parameter_sweep()
    assert len(sweep) > 20
    for params in sweep:
        assert params.g >= 2
        assert params.p <= 13 and params.q <= 7 and params.r <= 6
    assert CoverParams(13, 3, 3) in sweep
    # gcd(3, 7-1) = 3, so no (3, 7, *) entries survive.
    assert all(not (p.p == 3 and p.q == 7) for p in sweep)


def test_build_action_single_block():
    action = build_action(CoverParams(3, 2, 3, allow_small_genus=True))
    assert np.array_equal(action.matrix_array, [[0, 1], [1, 1]])
    assert np.array_equal(matpow_array(action.matrix_array, 3, 2), np.eye(2, dtype=int))


def test_build_action_two_blocks():
    action = build_action(CoverParams(3, 2, 4))
    expected = np.zeros((4, 4), dtype=int)
    expected[:2, :2] = [[0, 1], [1, 1]]
    expected[2:, 2:] = [[0, 1], [1, 1]]
    assert np.array_equal(action.matrix_array, expected)


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 2, 3), (5, 3, 3), (7, 2, 3), (13, 3, 3)])
def test_action_has_exact_order_p(p, q, r):
    action = build_action(CoverParams(p, q, r))
    eye = np.eye(action.params.n, dtype=int)
    assert np.array_equal(matpow_array(action.matrix_array, p, q), eye)
    assert not np.array_equal(action.matrix_array, eye)
    # T composed with its stored inverse is the identity.
    assert np.array_equal((action.matrix_array @ action.inverse_array) % q, eye)


@pytest.mark.parametrize(
    "p,q,factor_count,factor_degree",
    [(5, 2, 1, 4), (3, 2, 1, 2), (13, 3, 4, 3)],
)
def test_cyclotomic_factor_shapes(p, q, factor_count, factor_degree):
    fact = cyclotomic_factor(p, q)
    assert len(fact.factors) == factor_count
    assert all(len(f) - 1 == factor_degree for f in fact.factors)
    assert fact.s0 == factor_degree


@pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (13, 3), (11, 3), (7, 5)])
def test_cyclotomic_factor_matches_sympy(p, q):
    from sympy import Poly, cyclotomic_poly, symbols

    x = symbols("x")
    _, factors = Poly(cyclotomic_poly(p, x), x, modulus=q).factor_list()
    assert [mult for _, mult in factors] == [1] * len(factors)
    # sympy lists coefficients highest degree first, in the symmetric range.
    expected = {tuple(int(c) % q for c in reversed(f.all_coeffs())) for f, _ in factors}
    assert set(cyclotomic_factor(p, q).factors) == expected


def test_invariant_subspace_trivial_dims():
    action = build_action(CoverParams(5, 2, 3))
    assert invariant_subspace_of_dim(action, 0) == Subspace.zero(4, 2)
    assert invariant_subspace_of_dim(action, 4) == Subspace.full(4, 2)


def test_invariant_subspace_infeasible_dim():
    action = build_action(CoverParams(3, 2, 4))  # s0 = 2
    with pytest.raises(NoInvariantSubspaceError):
        invariant_subspace_of_dim(action, 3)
    with pytest.raises(NoInvariantSubspaceError):
        invariant_subspace_of_dim(action, 5)


def test_invariant_plane_for_two_blocks():
    action = build_action(CoverParams(3, 2, 4))
    plane = invariant_subspace_of_dim(action, 2)
    assert plane.dim == 2
    assert plane.is_invariant_under(action.matrix_array)
    images = {tuple((action.matrix_array @ v) % 2) for v in plane.vectors()}
    assert images == {tuple(v) for v in plane.vectors()}


def test_enumerate_invariant_subspaces_irreducible_case():
    # One block, irreducible cyclotomic polynomial: only 0 and everything.
    action = build_action(CoverParams(5, 2, 3))
    found = enumerate_invariant_subspaces(action, max_ambient=2**8)
    assert found == [Subspace.zero(4, 2), Subspace.full(4, 2)]


def test_enumerate_invariant_subspaces_two_blocks():
    action = build_action(CoverParams(3, 2, 4))
    found = enumerate_invariant_subspaces(action, max_ambient=2**8)
    dims = sorted(s.dim for s in found)
    assert dims == [0, 2, 2, 2, 2, 2, 4]


def test_enumerate_invariant_subspaces_cap():
    action = build_action(CoverParams(5, 2, 3))
    with pytest.raises(CapExceededError) as exc:
        enumerate_invariant_subspaces(action, max_ambient=8)
    assert exc.value.required == 16


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 2, 3), (3, 2, 5), (3, 2, 3), (5, 3, 3)])
def test_invariant_dimension_dichotomy(p, q, r):
    # Both directions of the quantization: brute force only finds dimensions
    # that are multiples of s0, and the constructor succeeds on each of them.
    params = CoverParams(p, q, r, allow_small_genus=True)
    action = build_action(params)
    found = enumerate_invariant_subspaces(action, max_ambient=2**10)
    dims = {s.dim for s in found}
    feasible = set(range(0, params.n + 1, params.s0))
    assert dims <= feasible
    for s in sorted(feasible):
        sub = invariant_subspace_of_dim(action, s)
        assert sub.dim == s
        assert sub in found


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 2, 3), (3, 2, 5), (5, 3, 3)])
def test_frobenius_orbits_on_vectors(p, q, r):
    # Every nonzero vector has exactly p distinct images under powers of T.
    params = CoverParams(p, q, r)
    action = build_action(params)
    powers = [matpow_array(action.matrix_array, e, q) for e in range(p)]
    for v in itertools.product(range(q), repeat=params.n):
        if not any(v):
            continue
        vec = np.array(v, dtype=np.int64)
        orbit = {tuple((mat @ vec) % q) for mat in powers}
        assert len(orbit) == p
