import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import sympy

import gonal.action as action_module
from gonal.action import (
    CoverParams,
    PrimaryProjections,
    build_action,
    companion_inverse_row,
    invariant_subspaces,
    order_mod,
    parameter_sweep,
)
from gonal.atlas import orbit_classes
from gonal.errors import CapExceededError, IdentityCheckError, InvalidParamsError
from gonal.fqlinalg import (
    PRIMALITY_BOUND,
    Subspace,
    gaussian_count,
    is_prime,
    kernel_array,
    matpow_array,
    row_space_array,
)
from subspace_oracle import all_subspaces


def test_order_mod_values():
    assert order_mod(3, 13) == 3
    assert order_mod(2, 3) == 2
    assert order_mod(2, 5) == 4


def test_order_mod_rejects_p_equal_q():
    with pytest.raises(InvalidParamsError):
        order_mod(5, 5)


def test_order_mod_equals_sympy_below_ten_thousand():
    wrong = [
        (q, p)
        for p in range(3, 10**4)
        if is_prime(p)
        for q in range(2, 100)
        if q % p and order_mod(q, p) != sympy.n_order(q, p)
    ]
    assert wrong == []


# Three 80-bit primes: past trial division, p - 1 of the first two has three and two
# prime factors that Pollard rho separates, and that of the third one prime of 65 bits.
# 10^18 + 2 = 2 * 3 * 17 * 131 * 1427 * 52445056723.
@pytest.mark.parametrize("p", [1071380017931843606530541, 885611621783660880081049,
                               1141500863658699942005459, 10**18 + 3])
def test_order_mod_equals_sympy_on_large_primes(p):
    assert action_module._prime_factors(p - 1) == set(sympy.factorint(p - 1))
    for q in (2, 3, 5, 7, 101):
        assert order_mod(q, p) == sympy.n_order(q, p)


def test_s0_of_a_large_p_returns_within_a_second():
    # order_mod multiplied by q up to p - 1 times: this call ran past a 5 s timeout.
    code = (
        "import time; from gonal.action import CoverParams; t = time.perf_counter(); "
        "s0 = CoverParams(10**18 + 3, 2, 3).s0; print(s0, time.perf_counter() - t)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(action_module.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    s0, seconds = done.stdout.split()
    assert int(s0) == sympy.n_order(2, 10**18 + 3) and float(seconds) < 1


def test_derived_values_are_computed_once(monkeypatch):
    params = CoverParams(13, 3, 3)
    assert params.s0 == 3
    monkeypatch.setattr(action_module, "order_mod", lambda q, p: pytest.fail("s0 recomputed"))
    assert (params.g, params.n, params.s0, params.m, params.t) == (6, 12, 3, 265720, 20440)
    assert build_action(params).primary.s0 == 3
    assert params == CoverParams(13, 3, 3) and hash(params) == hash(CoverParams(13, 3, 3))


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
        (3, 2, 3),  # g = 1
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


def test_a_modulus_whose_row_products_pass_int64_is_refused():
    # q = 4294967311 is prime and (q - 1)^2 > 2^63: the triple was accepted, and
    # its action failed its order check.  Refused before q is tested for primality.
    with pytest.raises(InvalidParamsError, match=r"^modulus 4294967311 with rows of length 1: .*2\^63"):
        CoverParams(7, 4294967311, 3)
    # q = 1000000007 fits one product, but not a sum of n = 12 of them: the action
    # was built from int64 products that wrap.
    params = CoverParams(13, 1000000007, 3)
    with pytest.raises(InvalidParamsError, match=r"^modulus 1000000007 with rows of length 12: .*2\^63"):
        build_action(params)
    assert build_action(CoverParams(7, 1000000007, 3)).matrix_array.shape == (6, 6)


@pytest.mark.parametrize("p", [PRIMALITY_BOUND, 2**89 - 1, 10**5000 + 1], ids=["bound", "2^89-1", "10^5000+1"])
def test_cover_params_refuses_a_p_past_the_primality_bound(p):
    # 2^89 - 1 is prime, but past the bound no Miller-Rabin base set here decides it.
    with pytest.raises(InvalidParamsError, match=f"^p = .* must be below {PRIMALITY_BOUND}, past which"):
        CoverParams(p, 2, 3)


@pytest.mark.parametrize("p,q,r", [(3, 2, 5), (5, 2, 3), (5, 3, 5), (7, 2, 4), (11, 3, 4), (13, 3, 3)])
def test_companion_inverse_row_is_the_product_with_the_inverse(p, q, r):
    action = build_action(CoverParams(p, q, r))
    rows = np.random.default_rng(p * q * r).integers(0, q, size=(200, action.params.n))
    for row in rows.tolist():
        expected = np.array(row) @ action.inverse_array % q
        assert companion_inverse_row(tuple(row), p, q) == tuple(expected.tolist())


@pytest.mark.parametrize("r", [10**400, 10**308, 2**1023], ids=["1e400", "1e308", "2^1023"])
def test_cover_params_takes_an_r_of_any_size_exactly(r):
    # No float bound: n is exact, and q^n is sized where a command uses it
    # (errors.power_digits and check_cap; see tests/test_cli.py).
    params = CoverParams(3, 5, r)
    assert (params.g, params.n) == (r - 2, 2 * r - 4)


def test_parameter_sweep_is_valid_and_nonempty():
    sweep = parameter_sweep()
    assert len(sweep) == 62
    assert [(c.p, c.q, c.r) for c in sweep] == sorted((c.p, c.q, c.r) for c in sweep)
    for params in sweep:
        assert params.g >= 2
        assert params.p <= 13 and params.q <= 7 and params.r <= 6
    assert CoverParams(13, 3, 3) in sweep
    # gcd(3, 7-1) = 3, so no (3, 7, *) entries survive.
    assert all(not (p.p == 3 and p.q == 7) for p in sweep)


def test_build_action_single_block():
    action = build_action(CoverParams(5, 2, 3))
    expected = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert np.array_equal(action.matrix_array, expected)
    assert np.array_equal(matpow_array(action.matrix_array, 5, 2), np.eye(4, dtype=int))


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


def sympy_factors(p: int, q: int) -> list[list[int]]:
    """Irreducible factors of Phi_p over F_q from sympy, coefficients highest degree first."""
    from sympy import Poly, cyclotomic_poly, symbols

    x = symbols("x")
    _, factors = Poly(cyclotomic_poly(p, x), x, modulus=q).factor_list()
    assert [mult for _, mult in factors] == [1] * len(factors)
    return [[int(c) % q for c in f.all_coeffs()] for f, _ in factors]


def evaluate(coeffs: list[int], m: np.ndarray, q: int) -> np.ndarray:
    """The polynomial with `coeffs` (highest degree first) at the square matrix m, by Horner."""
    out = np.zeros_like(m)
    for c in coeffs:
        out = (out @ m + c * np.eye(len(m), dtype=np.int64)) % q
    return out


def _one_block_params(p: int, q: int) -> CoverParams:
    """The least r with g >= 2: (p, q, 3), or (3, q, 4), whose g = 1 at r = 3 is refused.
    The primary split depends on (p, q) alone."""
    return CoverParams(p, q, 3 if p > 3 else 4)


def _components(action) -> list[np.ndarray]:
    s0 = action.primary.s0
    basis = action.primary.basis
    return [basis[i : i + s0] for i in range(0, len(basis), s0)]


@pytest.mark.parametrize(
    "p,q,factor_count,factor_degree",
    [(5, 2, 1, 4), (3, 2, 1, 2), (13, 3, 4, 3)],
)
def test_cyclotomic_factor_shapes(p, q, factor_count, factor_degree):
    # One primary component per irreducible factor of Phi_p, of its degree.
    action = build_action(_one_block_params(p, q))
    assert action.primary.s0 == factor_degree
    assert [c.shape[0] for c in _components(action)] == [factor_degree] * factor_count


_ORACLE_PAIRS = [
    (p, q)
    for p in range(3, 44)
    for q in (2, 3, 5, 7)
    if p % 2 and is_prime(p) and p != q and math.gcd(p, q - 1) == 1
]


@pytest.mark.parametrize("p,q", _ORACLE_PAIRS)
def test_cyclotomic_factor_matches_sympy(p, q):
    # Every component is {v : v f(B^-1) = 0} for exactly one of sympy's factors f.
    action = build_action(_one_block_params(p, q))
    inv_block = action.inverse_array[: p - 1, : p - 1]
    kernels = [kernel_array(evaluate(f, inv_block, q).T, q) for f in sympy_factors(p, q)]
    for component in _components(action):
        matches = [ker for ker in kernels if np.array_equal(ker, component)]
        assert len(matches) == 1
    assert len(kernels) == len(_components(action))


def scanned_eigenspaces(block: np.ndarray, q: int) -> list[np.ndarray]:
    """Oracle: the joint eigenspaces of the Gauss periods, split by every lambda in F_q in
    turn, one kernel per value (linear in q), so they come in lexicographic eigenvalue order."""
    d = block.shape[0]
    p, s0 = d + 1, order_mod(q, d + 1)
    cosets = sorted({frozenset(a * pow(q, j, p) % p for j in range(s0)) for a in range(1, p)}, key=min)
    periods = [sum(matpow_array(block, c, q) for c in coset) % q for coset in cosets]
    spaces = [np.eye(d, dtype=np.int64)]
    for period in periods:
        split = []
        for space in spaces:
            if space.shape[0] == s0:
                split.append(space)
                continue
            image = (space @ period) % q
            for value in range(q):
                coefficients = kernel_array((image - value * space).T, q)
                if coefficients.size:
                    split.append((coefficients @ space) % q)
        spaces = split
    return [row_space_array(space, q) for space in spaces]


_SPLIT_PAIRS = [
    (p, q)
    for p in range(3, 32)
    for q in range(2, 44)
    if p % 2 and is_prime(p) and is_prime(q) and p != q and math.gcd(p, q - 1) == 1
]


@pytest.mark.parametrize(
    "params",
    # (3, q, 4) with q <= 7 is in the sweep already.
    [_one_block_params(p, q) for p, q in _SPLIT_PAIRS if p > 3 or q > 7] + parameter_sweep(),
    ids=lambda params: f"{params.p}-{params.q}-{params.r}",
)
def test_primary_components_equal_the_scan_over_f_q_in_order(params):
    action = build_action(params)
    d = params.p - 1
    expected = scanned_eigenspaces(action.inverse_array[:d, :d], params.q)
    assert [c.tolist() for c in _components(action)] == [c.tolist() for c in expected]


@pytest.mark.parametrize("p", [7, 13])
def test_primary_at_q_near_a_million_within_a_second(p):
    # The scan over F_q took 52.4 s at (7, 1000003, 3).
    params = CoverParams(p, 1000003, 3)
    start = time.perf_counter()
    primary = build_action(params).primary
    assert time.perf_counter() - start < 1.0
    assert primary.basis.shape == (p - 1, p - 1) and primary.s0 == params.s0


@pytest.mark.parametrize("p,q,r", [(7, 2, 4), (13, 3, 5), (13, 876706483, 3), (13, 876706517, 3)])
def test_primary_table_is_the_coordinates_beside_their_residual(p, q, r):
    primary = build_action(CoverParams(p, q, r)).primary
    assert primary.q == q
    table = primary.table
    assert table.shape == (p - 1, 2 * (p - 1)) and table.dtype == np.int64
    assert not table.flags.writeable and primary.table is table
    # U^-1 U = I on the true tables, so the right half is zero.
    assert np.array_equal(table[:, : p - 1], primary.coordinates) and not table[:, p - 1 :].any()
    # A copy with other coordinates builds its own table and leaves this one alone.
    eye = np.eye(p - 1, dtype=np.int64)
    other = dataclasses.replace(primary, coordinates=eye).table
    assert np.array_equal(other, np.hstack([eye, (primary.basis - eye) % q]))
    assert primary.table is table and np.array_equal(table[:, : p - 1], primary.coordinates)


def test_primary_build_refuses_a_space_that_is_not_invariant():
    # The first three coordinates, with the second true component: full rank, not invariant.
    action = build_action(CoverParams(7, 2, 3))
    block = action.inverse_array
    first = np.eye(6, dtype=np.int64)[:3]
    with pytest.raises(IdentityCheckError, match=r"component 0 with basis \[\[1, 0, 0, 0, 0, 0\], "
                       r".* is not invariant: its row \d moves into component 1"):
        PrimaryProjections.from_components([first, _components(action)[1]], block, 2, 3)


def test_primary_build_refuses_a_repeated_component():
    action = build_action(CoverParams(7, 2, 3))
    twice = [_components(action)[0]] * 2
    with pytest.raises(IdentityCheckError, match=r"the 2 components have stacked rank 3, not p - 1 = 6"):
        PrimaryProjections.from_components(twice, action.inverse_array, 2, 3)


def test_primary_build_refuses_a_wrong_inverse(monkeypatch):
    # An elimination that returns [I | U^-1] with one entry of U^-1 changed.
    def corrupted(a, q):
        red, pivots = row_reduce(a, q)
        red[0, -1] = (red[0, -1] + 1) % q
        return red, pivots

    row_reduce = action_module.rref_array
    monkeypatch.setattr(action_module, "rref_array", corrupted)
    with pytest.raises(IdentityCheckError, match=r"U U\^-1 differs from the identity at entry \(\d+, 5\)"):
        build_action(CoverParams(7, 2, 3)).primary


def test_validate_refuses_an_action_that_phi_p_does_not_annihilate(monkeypatch):
    # The companion of x^3 + x + 1, a factor of Phi_7 over F_2, beside the
    # identity: order 7 and nontrivial, but Phi_7(1) = 7 = 1 on the identity part.
    block = np.eye(6, dtype=np.int64)
    block[:3, :3] = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    monkeypatch.setattr(action_module, "_companion_block", lambda p, q: block)
    with pytest.raises(IdentityCheckError, match=r"1 \+ T \+ ... \+ T\^\(p-1\) does not vanish "
                       r"for .*: nonzero entry at \(3, 3\)"):
        build_action(CoverParams(7, 2, 3))


def brute_invariant_subspaces(action) -> set:
    """Oracle: every subspace of F_q^n, kept if T maps it into itself (q^n <= 2^16)."""
    q, n = action.params.q, action.params.n
    return {
        sub
        for dim in range(n + 1)
        for sub in all_subspaces(n, dim, q)
        if sub.is_invariant_under(action.matrix_array)
    }


def test_invariant_subspace_trivial_dims():
    found = invariant_subspaces(build_action(CoverParams(5, 2, 3)), cap=100)
    assert Subspace.zero(4, 2) in found
    assert Subspace.full(4, 2) in found


def test_invariant_subspace_infeasible_dim():
    # s0 = 2: no invariant subspace has an odd dimension.
    found = invariant_subspaces(build_action(CoverParams(3, 2, 4)), cap=100)
    assert sorted(sub.dim for sub in found) == [0, 2, 2, 2, 2, 2, 4]


def test_invariant_plane_for_two_blocks():
    action = build_action(CoverParams(3, 2, 4))
    planes = [sub for sub in invariant_subspaces(action, cap=100) if sub.dim == 2]
    assert len(planes) == 5
    for plane in planes:
        images = {tuple((action.matrix_array @ v) % 2) for v in plane.vectors()}
        assert images == {tuple(v) for v in plane.vectors()}


def test_invariant_subspaces_irreducible_case():
    # One block, irreducible cyclotomic polynomial: only 0 and everything.
    found = invariant_subspaces(build_action(CoverParams(5, 2, 3)), cap=100)
    assert found == [Subspace.zero(4, 2), Subspace.full(4, 2)]


def test_invariant_subspaces_two_blocks():
    # Phi_3 is irreducible over F_2, so the invariant subspaces of F_4^2 are
    # 0, its five lines and everything.
    found = invariant_subspaces(build_action(CoverParams(3, 2, 4)), cap=100)
    assert len(set(found)) == len(found) == 1 + gaussian_count(2, 1, 4) + 1


@pytest.mark.parametrize(
    "p,q,r", [(3, 2, 4), (5, 2, 3), (3, 2, 5), (5, 3, 3), (7, 2, 3)]
)
def test_invariant_dimension_dichotomy(p, q, r):
    # The listing is exactly the brute-force set, and its dimensions are the
    # multiples of s0, each of them reached.
    params = CoverParams(p, q, r)
    action = build_action(params)
    found = invariant_subspaces(action, cap=1000)
    assert len(set(found)) == len(found)
    assert set(found) == brute_invariant_subspaces(action)
    assert {sub.dim for sub in found} == set(range(0, params.n + 1, params.s0))


@pytest.mark.parametrize(
    "p,q,r,count",
    [(5, 2, 4, 19), (3, 2, 6, 529), (7, 2, 4, 121), (13, 3, 3, 16)],
)
def test_invariant_subspace_counts_past_the_brute_force(p, q, r, count):
    # (Sum_e [r-2 choose e]_Q)^k, Q = q^s0 and k = (p-1)/s0: 17 + 2, 1 + 85 + 357
    # + 85 + 1, (1 + 9 + 1)^2 and 2^4.  The brute force takes about 25 s at
    # (5,2,4) and (3,2,6), so these counts are pinned instead.
    action = build_action(CoverParams(p, q, r))
    found = invariant_subspaces(action, cap=count)
    assert len(found) == count


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (7, 2, 4)])
def test_every_atlas_core_is_listed(p, q, r):
    params = CoverParams(p, q, r)
    listed = set(invariant_subspaces(build_action(params), cap=1000))
    cores = {cls.core for cls in orbit_classes(params)}
    assert cores <= listed


def test_invariant_subspaces_cap_refuses_before_building(monkeypatch):
    def walked(*args):
        pytest.fail("an echelon form was built before the cap refused the listing")

    monkeypatch.setattr(action_module, "iter_echelon_forms", walked)
    action = build_action(CoverParams(3, 2, 6))
    with pytest.raises(CapExceededError) as exc:
        invariant_subspaces(action, cap=528)
    assert exc.value.required == 529
    assert exc.value.cap == 528


@pytest.mark.parametrize("cap", [0, -1, 80.9, True])
def test_invariant_subspaces_cap_must_be_a_positive_int(cap):
    action = build_action(CoverParams(5, 2, 4))
    with pytest.raises(InvalidParamsError, match="invariant-subspace cap must be a positive integer"):
        invariant_subspaces(action, cap=cap)


def test_invariant_subspace_count_check_fails_on_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(action_module, "gaussian_count", lambda n, k, q: 2)
    # (2 + 2 + 2)^1 = 6 against the 19 listed.
    with pytest.raises(IdentityCheckError, match=r"listed 19 invariant subspaces of F_2\^8, 19 distinct; "
                       r"the closed form .* is 6$"):
        invariant_subspaces(build_action(CoverParams(5, 2, 4)), cap=1000)


def test_invariant_subspace_count_check_fails_on_corrupted_factors():
    # Both column components of (7,2,4) read from the first s0 columns of
    # U^-1: the 121 listed sums are the 11 subspaces of that component, over and over.
    action = build_action(CoverParams(7, 2, 4))
    primary = action.primary
    twice = np.hstack([primary.coordinates[:, :3]] * 2)
    action.__dict__["primary"] = dataclasses.replace(primary, coordinates=twice)
    with pytest.raises(IdentityCheckError, match="listed 121 invariant subspaces of F_2\\^12, 11 distinct"):
        invariant_subspaces(action, cap=1000)


def test_invariant_subspace_listing_fails_on_a_subspace_that_is_not_invariant():
    # Columns of U^-1 whose span, the first three coordinates, is no primary
    # component: the listing keeps its count but not its invariance.
    action = build_action(CoverParams(7, 2, 3))
    primary = action.primary
    columns = np.hstack([np.eye(6, dtype=np.int64)[:, :3], primary.coordinates[:, 3:]])
    action.__dict__["primary"] = dataclasses.replace(primary, coordinates=columns)
    with pytest.raises(IdentityCheckError, match=r"basis \[\[1, 0, 0, 0, 0, 0\], .* is not T-invariant"):
        invariant_subspaces(action, cap=1000)


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
