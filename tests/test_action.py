import dataclasses
import functools
import itertools
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from gonal.atlas import Hyperplane, core_dim, orbit_classes
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
    # order_mod multiplied by q up to p - 1 times: this call ran past a 5 s timeout.  Each
    # construction pays for s0, also at the 80-bit p whose p - 1 Pollard rho factors.
    env = {**os.environ, "PYTHONPATH": str(Path(action_module.__file__).parents[1])}
    for p in (10**18 + 3, 1071380017931843606530541):
        code = (
            "import time; from gonal.action import CoverParams; t = time.perf_counter(); "
            f"s0 = CoverParams({p}, 2, 3).s0; print(s0, time.perf_counter() - t)"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert done.returncode == 0, done.stderr
        s0, seconds = done.stdout.split()
        assert int(s0) == sympy.n_order(2, p) and float(seconds) < 1, (p, seconds)


def test_derived_values_are_computed_once(monkeypatch):
    calls = []
    monkeypatch.setattr(action_module, "order_mod", lambda q, p: calls.append((q, p)) or order_mod(q, p))
    params = CoverParams(13, 3, 3)
    assert calls == [(3, 13)]
    # g, n and s0 are plain attributes beside the fields; m and t are computed on each read.
    assert vars(params) == {"p": 13, "q": 3, "r": 3, "g": 6, "n": 12, "s0": 3}
    assert (params.g, params.n, params.s0, params.m, params.t) == (6, 12, 3, 265720, 20440)
    assert params.group_order == 13 * 3**12
    assert params.describe()["t"] == 20440
    assert build_action(params).primary.params.s0 == 3
    assert vars(params) == {"p": 13, "q": 3, "r": 3, "g": 6, "n": 12, "s0": 3}
    assert calls == [(3, 13)]
    # The record is still the triple (p, q, r).
    assert [f.name for f in dataclasses.fields(params)] == ["p", "q", "r"]
    twin = CoverParams(13, 3, 3)
    assert calls == [(3, 13)] * 2
    assert params == twin and hash(params) == hash(twin) == hash((13, 3, 3))
    assert repr(params) == "CoverParams(p=13, q=3, r=3)"
    wider = dataclasses.replace(params, r=4)
    assert (wider.g, wider.n, wider.s0) == (12, 24, 3) and calls == [(3, 13)] * 3
    assert params != wider
    # r has no bound: q^n is built only where m, t or group_order are read.
    huge = CoverParams(3, 5, 10**7)
    assert vars(huge) == {"p": 3, "q": 5, "r": 10**7, "g": 10**7 - 2, "n": 2 * (10**7 - 2), "s0": 2}


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
    # A float r would give float n and m.  A numpy q was refused, since q^n would
    # wrap at int64; it is read as the int it holds, so q^n is exact.
    if isinstance(q, np.integer):
        assert CoverParams(p, q, r) == CoverParams(5, 2, 3)
        params = CoverParams(p, q, 20)  # n = 72: 2^72 is past int64
        assert type(params.q) is int and params.q**params.n == 2**72
        return
    with pytest.raises(InvalidParamsError, match=f"^{name} .* is not an integer$"):
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
    s0 = action.params.s0
    basis = action.primary.basis
    return [basis[i : i + s0] for i in range(0, len(basis), s0)]


@pytest.mark.parametrize(
    "p,q,factor_count,factor_degree",
    [(5, 2, 1, 4), (3, 2, 1, 2), (13, 3, 4, 3)],
)
def test_cyclotomic_factor_shapes(p, q, factor_count, factor_degree):
    # One primary component per irreducible factor of Phi_p, of its degree.
    action = build_action(_one_block_params(p, q))
    assert action.params.s0 == factor_degree
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
    assert primary.basis.shape == (p - 1, p - 1) and primary.params is params


@pytest.mark.parametrize("p,q,r", [(7, 2, 4), (13, 3, 5), (13, 876706483, 3), (13, 876706517, 3)])
def test_primary_table_is_the_coordinates_beside_their_residual(p, q, r):
    # U^-1 U - I is zero on every pair that is built, so only U^-1 is kept beside U.
    params = CoverParams(p, q, r)
    primary = build_action(params).primary
    assert [f.name for f in dataclasses.fields(primary)] == ["params", "basis", "coordinates"]
    assert primary.params is params
    eye = np.eye(p - 1, dtype=np.int64)
    for left, right in [(primary.basis, primary.coordinates), (primary.coordinates, primary.basis)]:
        assert right.shape == (p - 1, p - 1) and right.dtype == np.int64 and not right.flags.writeable
        assert np.array_equal(left @ right % q, eye)
    # A copy with U^-1 + I as coordinates, whose product with U is I + U, is
    # refused when built, at U's first nonzero entry, and leaves this one alone.
    i, j = np.argwhere(primary.basis)[0].tolist()
    refused = rf"^U U\^-1 differs from the identity at entry \({i}, {j}\)$"
    with pytest.raises(IdentityCheckError, match=refused):
        dataclasses.replace(primary, coordinates=(primary.coordinates + eye) % q)
    # The components in reverse order are the decomposition too.
    s0 = params.s0
    order = [i for start in reversed(range(0, p - 1, s0)) for i in range(start, start + s0)]
    basis, coordinates = primary.basis[order], primary.coordinates[:, order]
    other = dataclasses.replace(primary, basis=basis, coordinates=coordinates)
    assert other.coordinates is coordinates and primary.coordinates is not coordinates


def test_every_way_of_building_the_tables_refuses_a_wrong_inverse(monkeypatch):
    # U^-1 with the entry (2, 4) flipped mod 2 gives U U^-1 = I plus U's column 2
    # moved to column 4: the first wrong entry is (i, 4), i the first row of U
    # with a 1 in column 2.
    params = CoverParams(7, 2, 3)
    action = build_action(params)
    primary = action.primary
    wrong = primary.coordinates.copy()
    wrong[2, 4] ^= 1
    entry = rf"\({np.flatnonzero(primary.basis[:, 2])[0]}, 4\)"
    refused = rf"^U U\^-1 differs from the identity at entry {entry}$"
    with pytest.raises(IdentityCheckError, match=refused):
        dataclasses.replace(primary, coordinates=wrong)
    with pytest.raises(IdentityCheckError, match=refused):
        PrimaryProjections(params, primary.basis, wrong)
    with pytest.raises(IdentityCheckError, match=r"^U\^-1 has shape \(6, 5\), not \(p - 1\) x \(p - 1\) = 6 x 6$"):
        PrimaryProjections(params, primary.basis, wrong[:, :5])

    def corrupted(a, q):
        red, pivots = row_reduce(a, q)
        red[2, 6 + 4] ^= 1
        return red, pivots

    row_reduce = action_module.rref_array
    monkeypatch.setattr(action_module, "rref_array", corrupted)
    with pytest.raises(IdentityCheckError, match=refused):
        PrimaryProjections.from_components(_components(action), params)


_PARAMS_13_3_3 = CoverParams(13, 3, 3)
# The identity table at (13,3,3) moves e_0 to -e_11 under B: out of component 0, into 3.
_IDENTITY_REFUSED = (r"^component 0 with basis \[\[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\], .*\] is not "
                     r"invariant: its row 0 moves into component 3$")
_FOUR_WRONG_TABLES = {  # refusal at (13,3,3), U[0, 0] = 1
    "another side": r"^U has shape \(6, 6\), not \(p - 1\) x \(p - 1\) = 12 x 12$",
    "U + 3": r"^U entry \(0, 0\) is 4, not a residue in 0 \.\. 2$",
    "U^-1 with (0, 0) + 1": r"^U U\^-1 differs from the identity at entry \(0, 0\)$",
    "identity": _IDENTITY_REFUSED,
}


@pytest.mark.parametrize("case", _FOUR_WRONG_TABLES)
@pytest.mark.parametrize("way", ["constructor", "replace", "from_components"])
def test_every_way_of_building_the_tables_refuses_the_same_four_tables(way, case, monkeypatch):
    params = _PARAMS_13_3_3
    primary = build_action(params).primary
    six, twelve = np.eye(6, dtype=np.int64), np.eye(12, dtype=np.int64)
    flipped = primary.coordinates.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % 3
    basis, coordinates = {
        "another side": (six, six),
        "U + 3": (primary.basis + 3, primary.coordinates),
        "U^-1 with (0, 0) + 1": (primary.basis, flipped),
        "identity": (twelve, twelve),
    }[case]
    refused = _FOUR_WRONG_TABLES[case]
    if way == "from_components":
        # It stacks the s0-row blocks of U and finds U^-1 by one elimination,
        # here made to return the flipped inverse; a side other than p - 1
        # meets its own check of the components' dimensions.
        if case == "another side":
            refused = r"^F_3\^12 split into spaces of dimensions \[3, 3\], not \(p-1\)/s0 = 4 of dimension s0 = 3$"
        if case == "U^-1 with (0, 0) + 1":
            def corrupted(a, q):
                red, pivots = row_reduce(a, q)
                red[0, 12] = (red[0, 12] + 1) % q
                return red, pivots

            row_reduce = action_module.rref_array
            monkeypatch.setattr(action_module, "rref_array", corrupted)
    builds = {
        "constructor": lambda: PrimaryProjections(params, basis, coordinates),
        "replace": lambda: dataclasses.replace(primary, basis=basis, coordinates=coordinates),
        "from_components": lambda: PrimaryProjections.from_components(
            [basis[i : i + 3] for i in range(0, len(basis), 3)], params
        ),
    }
    with pytest.raises(IdentityCheckError, match=refused):
        builds[way]()


@pytest.mark.parametrize("table, shift", [("coordinates", 3), ("basis", -1)])
def test_primary_tables_refuse_entries_that_are_not_residues(table, shift):
    # core_dim's int64 bound holds for residues only: U^-1 + q has the same
    # product mod q with U, and is refused at its first entry, as is U - 1.
    params = CoverParams(13, 3, 3)
    primary = build_action(params).primary
    moved = getattr(primary, table) + shift
    i, j = np.argwhere((moved < 0) | (moved >= params.q))[0].tolist()
    name = {"basis": "U", "coordinates": r"U\^-1"}[table]
    refused = rf"^{name} entry \({i}, {j}\) is {moved[i, j]}, not a residue in 0 \.\. 2$"
    with pytest.raises(IdentityCheckError, match=refused):
        dataclasses.replace(primary, **{table: moved})


def test_primary_tables_refuse_a_table_of_another_side():
    # The tables hold no side, q or s0 of their own: p - 1 comes from params.
    # Without that, core_dim met a 6 x 6 table at (13,3,3) with numpy's bare
    # ValueError (matmul core dimension 6 vs 12).
    params = _PARAMS_13_3_3
    primary = build_action(params).primary
    eye = np.eye(6, dtype=np.int64)
    refused = r"^U has shape \(6, 6\), not \(p - 1\) x \(p - 1\) = 12 x 12$"
    with pytest.raises(IdentityCheckError, match=refused):
        dataclasses.replace(primary, basis=eye, coordinates=eye)
    # A true table for (7,3,3), where s0 = ord_7(3) = 6, claimed for (13,3,3).
    other = build_action(CoverParams(7, 3, 3)).primary
    with pytest.raises(IdentityCheckError, match=refused):
        dataclasses.replace(other, params=params)
    # The same table for another r is the same decomposition.
    assert dataclasses.replace(primary, params=CoverParams(13, 3, 5)).basis is primary.basis


def test_primary_build_refuses_a_space_that_is_not_invariant():
    # The first three coordinates, with the second true component: full rank, not invariant.
    params = CoverParams(7, 2, 3)
    action = build_action(params)
    first = np.eye(6, dtype=np.int64)[:3]
    with pytest.raises(IdentityCheckError, match=r"component 0 with basis \[\[1, 0, 0, 0, 0, 0\], "
                       r".* is not invariant: its row \d moves into component 1"):
        PrimaryProjections.from_components([first, _components(action)[1]], params)


def test_primary_build_refuses_a_repeated_component():
    params = CoverParams(7, 2, 3)
    twice = [_components(build_action(params))[0]] * 2
    with pytest.raises(IdentityCheckError, match=r"the 2 components have stacked rank 3, not p - 1 = 6"):
        PrimaryProjections.from_components(twice, params)


_PERMUTED_TRIPLES = [(5, 2, 3), (7, 2, 3), (11, 3, 3), (13, 3, 3), (31, 2, 3)]


@functools.cache
def _tables_and_normals(triple):
    """The primary tables of `triple` and 50 seeded nonzero normals with their core dims."""
    params = CoverParams(*triple)
    action = build_action(params)
    rng = np.random.default_rng(sum(triple))
    normals = [h for h in rng.integers(0, params.q, (80, params.n)).tolist() if any(h)][:50]
    hyperplanes = [Hyperplane(h, params.q) for h in normals]
    return action.primary, hyperplanes, [core_dim(h, action) for h in hyperplanes]


@st.composite
def _permuted_tables(draw):
    """A triple, a start table (the primary one or the identity) and an order of
    its rows: mostly a permutation of the components and of the rows inside
    each, then up to two swaps that may carry a row into another component."""
    triple = draw(st.sampled_from(_PERMUTED_TRIPLES))
    d, s0 = triple[0] - 1, CoverParams(*triple).s0
    blocks = draw(st.permutations(range(d // s0)))
    order = [b * s0 + i for b in blocks for i in draw(st.permutations(range(s0)))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=2)):
        order[i], order[j] = order[j], order[i]
    return triple, draw(st.sampled_from(["primary", "identity"])), order


@settings(deadline=None, max_examples=200)
@given(_permuted_tables())
@example(((13, 3, 3), "identity", list(range(12))))
def test_primary_tables_accept_exactly_the_component_preserving_permutations(drawn):
    # U's rows and U^-1's columns in one order give U U^-1 = I again; the table
    # is the decomposition iff each s0-row block lies inside one component, read
    # off the true coordinates: the components where row U^-1 is nonzero.
    triple, start, order = drawn
    params = CoverParams(*triple)
    p, q, s0 = params.p, params.q, params.s0
    primary, hyperplanes, dims = _tables_and_normals(triple)
    basis, coordinates = primary.basis, primary.coordinates
    if start == "identity":
        basis = coordinates = np.eye(p - 1, dtype=np.int64)
    basis, coordinates = basis[order], coordinates[:, order]
    nonzero = (basis @ primary.coordinates % q).reshape(p - 1, -1, s0).any(axis=2)
    owners = [set(np.flatnonzero(nonzero[i : i + s0].any(axis=0)).tolist()) for i in range(0, p - 1, s0)]
    strays = [c for c, owner in enumerate(owners) if len(owner) != 1]
    if strays:
        with pytest.raises(IdentityCheckError, match=r"^component (\d+) with basis .* is not invariant: "
                           r"its row \d+ moves into component \d+$") as refused:
            dataclasses.replace(primary, basis=basis, coordinates=coordinates)
        # The component named is one whose rows leave a single component.
        assert int(re.match(r"component (\d+)", str(refused.value)).group(1)) in strays
        if (triple, start, order) == ((13, 3, 3), "identity", list(range(12))):
            refused.match(_IDENTITY_REFUSED)
        return
    table = dataclasses.replace(primary, basis=basis, coordinates=coordinates)
    action = build_action(params)
    action.__dict__["primary"] = table
    assert [core_dim(h, action) for h in hyperplanes] == dims


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


def test_invariant_subspace_count_check_fails_on_corrupted_factors(monkeypatch):
    # The tables refuse any split that is not the primary one, so the corruption
    # is in the listing: each list of F_Q-echelon forms with its last form
    # replaced by its first.  At (5,2,4) that keeps the count, 19, and leaves
    # 18 distinct subspaces.
    def repeated(*args):
        forms = list(echelon_forms(*args))
        return forms[:-1] + forms[:1] if len(forms) > 1 else forms

    echelon_forms = action_module.iter_echelon_forms
    monkeypatch.setattr(action_module, "iter_echelon_forms", repeated)
    with pytest.raises(IdentityCheckError, match=r"^listed 19 invariant subspaces of F_2\^8, 18 distinct; "
                       r"the closed form .* is 19$"):
        invariant_subspaces(build_action(CoverParams(5, 2, 4)), cap=1000)


def test_invariant_subspace_listing_fails_on_a_subspace_that_is_not_invariant(monkeypatch):
    # Coordinates 2 and 3 swapped in every listed subspace of F_2^12 (the 6-wide
    # pieces of U^-1 are left alone): the listing keeps its count and its
    # distinct subspaces, but not their invariance.
    def swapped(a, q):
        a = np.asarray(a)
        if a.shape[1] == 12:
            a = a[:, [0, 1, 3, 2, *range(4, 12)]]
        return row_space(a, q)

    action = build_action(CoverParams(7, 2, 4))
    row_space = action_module.row_space_array
    monkeypatch.setattr(action_module, "row_space_array", swapped)
    with pytest.raises(IdentityCheckError, match=r"^listed subspace with basis \[\[1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0\], "
                       r".*\] is not T-invariant$"):
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
