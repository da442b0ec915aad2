import ast
import inspect
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np
import pytest

from gonal.action import CoverParams
from gonal.atlas import Hyperplane, enumerate_hyperplanes
from gonal import groupring
from gonal.errors import (
    CapExceededError,
    IdentityCheckError,
    InvalidParamsError,
    InvalidTransversalError,
)
from gonal.groupring import (
    GroupRingOperator,
    apply_subgroup_sum,
    build_group,
    fixed_subspace,
    frobenius_check,
    verify_cross_terms,
    verify_scalar_identity,
)

TINY = CoverParams(3, 2, 3, allow_small_genus=True)


def _code(group, v, e=0):
    """Reference: the code e q^n + (v read as base-q digits) of the element (v, e)."""
    q, n = group.params.q, group.params.n
    return e * q**n + sum(int(x) * q ** (n - 1 - i) for i, x in enumerate(v))


@pytest.mark.parametrize(
    "p,q,r,order",
    [(5, 2, 3, 80), (3, 2, 4, 48), (3, 2, 3, 12)],
)
def test_build_group_orders(p, q, r, order):
    group = build_group(CoverParams(p, q, r, allow_small_genus=True))
    assert group.order == order
    # The identity is code 0 and acts trivially.
    assert group.left_perm(0).tolist() == list(range(order))


def test_build_group_cap():
    with pytest.raises(CapExceededError) as exc:
        build_group(CoverParams(13, 3, 3))
    assert exc.value.required == 13 * 3**12


def test_group_constructor_refuses_past_its_cap_before_building(monkeypatch):
    # The public constructor holds the cap itself: at (3, 2, 14) its translation
    # table alone would be q^n x n int64 entries, about 3.2 GB.
    def no_build(*args, **kwargs):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(groupring, "build_action", no_build)
    monkeypatch.setattr(groupring, "decode_codes", no_build)
    with pytest.raises(CapExceededError) as exc:
        groupring.FrobeniusGroup(CoverParams(5, 2, 3), cap=79)
    assert (exc.value.required, exc.value.cap) == (80, 79)
    with pytest.raises(CapExceededError):
        groupring.FrobeniusGroup(CoverParams(3, 2, 14))
    monkeypatch.undo()
    assert groupring.FrobeniusGroup(CoverParams(5, 2, 3), cap=80).order == 80


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_group_cap_refusal_past_the_int_to_str_limit_builds_no_power():
    # |G| = 3 * 5^19999996 has 13,979,398 digits: its digit count is read off a
    # logarithm, and the order itself, seconds of big-int work, is never built.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CapExceededError, match="^group of order <13979398 digits> exceeds") as exc:
            groupring.FrobeniusGroup(CoverParams(3, 5, 10**7))
    finally:
        sys.set_int_max_str_digits(old)
    assert exc.value.required is None


def test_group_multiplication_semidirect_rule():
    # TINY's action matrix is symmetric; (5, 2, 3)'s is not, so T^e and its
    # transpose give different products there.
    for params in (TINY, CoverParams(5, 2, 3)):
        group = build_group(params)
        p, q, n = params.p, params.q, params.n
        # (v, e)(w, f) = (v + T^e w, e + f), T^e a product of e copies of the action.
        elements = [(v, e) for e in range(p) for v in product(range(q), repeat=n)]
        for v, e in elements:
            twist = np.eye(n, dtype=np.int64)
            for _ in range(e):
                twist = twist @ group.action.matrix_array % q
            for w, f in elements:
                moved = (np.array(v) + twist @ np.array(w)) % q
                expected = _code(group, moved, (e + f) % p)
                assert group.mul(_code(group, v, e), _code(group, w, f)) == expected
        for g in range(group.order):
            assert group.mul(g, group.inv(g)) == 0 == group.mul(group.inv(g), g)


@pytest.mark.parametrize(
    "p,q,r,orbits",
    [(5, 2, 3, 3), (3, 2, 4, 5)],
)
def test_frobenius_check(p, q, r, orbits):
    group = build_group(CoverParams(p, q, r))
    report = frobenius_check(group)
    n = group.params.n
    assert (report.order, report.kernel_size) == (p * q**n, q**n)
    assert report.kernel_orbit_count == orbits == (q ** ((p - 1) * (r - 2)) - 1) // p


def _trivial_twists(group):
    group._tpow = [np.eye(group.params.n, dtype=np.int64)] * group.params.p


def _second_power_is_first(group):
    group._tpow = [group._tpow[0], group._tpow[1], group._tpow[1]] + group._tpow[3:]


@pytest.mark.parametrize(
    "corrupt,orders_ok,message",
    [
        (_trivial_twists, False, "element 17 outside the kernel has order != 5"),
        (_trivial_twists, True, r"twist power 1 centralizes nonzero translation \(0, 0, 0, 1\)"),
        (_second_power_is_first, True, r"twist orbit of \(0, 0, 0, 1\) has size 4 != 5"),
    ],
)
def test_frobenius_check_names_its_witness(monkeypatch, corrupt, orders_ok, message):
    group = build_group(CoverParams(5, 2, 3))
    corrupt(group)
    if orders_ok:
        monkeypatch.setattr(group, "element_order", lambda g: 5)
    with pytest.raises(IdentityCheckError, match=message):
        frobenius_check(group)


def test_regular_module_action_is_permutation():
    group = build_group(TINY)
    vec = np.arange(group.order, dtype=np.int64)
    for g in range(group.order):
        moved = GroupRingOperator(group, {g: 1}).apply(vec)
        assert sorted(moved.tolist()) == vec.tolist()
        assert sorted(group.left_perm(g).tolist()) == vec.tolist()
    # Identity acts trivially.
    assert np.array_equal(GroupRingOperator(group, {0: 1}).apply(vec), vec)


def test_group_ring_operator_convolution():
    group = build_group(TINY)
    a, b = 1, 5
    ab = group.mul(a, b)
    # Applying 3b and then 2a is applying their convolution 6(ab).
    op = GroupRingOperator(group, {ab: 6})
    vec = np.zeros(group.order, dtype=np.int64)
    vec[0] = 1
    out = op.apply(vec)
    assert out.sum() == 6
    assert out[group.mul(ab, 0)] == 6
    rng = np.random.default_rng(0)
    vec = rng.integers(-9, 9, size=(2, group.order))
    composed = GroupRingOperator(group, {a: 2}).apply(GroupRingOperator(group, {b: 3}).apply(vec))
    assert np.array_equal(composed, op.apply(vec))


@pytest.mark.parametrize(
    "p,q,r,dim",
    [(5, 2, 3, 5), (3, 2, 4, 3), (3, 2, 3, 3)],
)
def test_fixed_subspace_dimension_is_uniform(p, q, r, dim):
    # dim A_L = p(q-1) for every hyperplane, in particular equal across
    # each conjugation orbit.
    params = CoverParams(p, q, r, allow_small_genus=True)
    group = build_group(params)
    dims = set()
    for h in enumerate_hyperplanes(params):
        ker = h.kernel()
        u = next(v for v in product(range(q), repeat=params.n) if any(v) and not ker.contains(v))
        basis = fixed_subspace(group, h, u)
        dims.add(basis.shape[0])
        # Conditions hold exactly: fixed by the subgroup, killed by the sum.
        for vtrans in ker.vectors():
            g = _code(group, vtrans)
            assert np.array_equal(
                GroupRingOperator(group, {g: 1}).apply(basis), basis
            )
    assert dims == {dim} == {p * (q - 1)}


def test_fixed_subspace_transversal_independent():
    params = CoverParams(5, 2, 3)
    group = build_group(params)
    for h in list(enumerate_hyperplanes(params))[:4]:
        ker = h.kernel()
        forms = {
            fixed_subspace(group, h, v).tobytes()
            for v in product(range(2), repeat=4)
            if any(v) and not ker.contains(v)
        }
        assert len(forms) == 1


def test_fixed_subspace_rejects_inside_transversal():
    params = CoverParams(5, 2, 3)
    group = build_group(params)
    h = next(iter(enumerate_hyperplanes(params)))
    inside = next(v for v in h.kernel().vectors() if any(v))
    with pytest.raises(InvalidTransversalError):
        fixed_subspace(group, h, inside)
    with pytest.raises(InvalidTransversalError):
        fixed_subspace(group, h, np.zeros(4, dtype=int))


@pytest.mark.parametrize("p,q,r,scalar", [(5, 2, 3, 8), (3, 2, 4, 8), (3, 2, 3, 2)])
def test_prop_scalar_on_every_hyperplane(p, q, r, scalar):
    params = CoverParams(p, q, r, allow_small_genus=True)
    group = build_group(params)
    for h in enumerate_hyperplanes(params):
        assert verify_scalar_identity(group, h) == scalar == q ** (params.n - 1)


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4)])
def test_cross_terms_annihilate(p, q, r):
    params = CoverParams(p, q, r)
    group = build_group(params)
    for h in enumerate_hyperplanes(params):
        report = verify_cross_terms(group, h)
        assert report["cross_terms_zero"]
        assert report["k0_scalar"] == q ** (params.n - 1)
        assert report["checked_k"] == list(range(p))


def test_zero_vector_is_annihilated():
    group = build_group(TINY)
    h = Hyperplane([1, 0], 2)
    subgroup = [_code(group, v) for v in h.kernel().vectors()]
    op = GroupRingOperator.subgroup_sum(group, subgroup)
    zero = np.zeros(group.order, dtype=np.int64)
    assert np.array_equal(op.apply(zero), zero)


def test_groupring_has_no_asserts():
    # `python -O` strips assert statements, so a check written as one never fails.
    tree = ast.parse(inspect.getsource(groupring))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("p,q,r", [(3, 2, 3), (5, 2, 3), (5, 3, 3)])
def test_left_perm_matches_multiplication(p, q, r):
    group = build_group(CoverParams(p, q, r, allow_small_genus=True))
    for g in range(group.order):
        expected = [group.mul(g, x) for x in range(group.order)]
        assert group.left_perm(g).tolist() == expected


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 3, 3)])
def test_factored_subgroup_sum_matches_the_term_sum(p, q, r):
    params = CoverParams(p, q, r)
    group = build_group(params)
    rng = np.random.default_rng(p * q * r)
    for h in enumerate_hyperplanes(params):
        ker = h.kernel()
        terms = GroupRingOperator.subgroup_sum(group, [_code(group, v) for v in ker.vectors()])
        vec = rng.integers(-50, 50, size=(3, group.order))
        assert np.array_equal(apply_subgroup_sum(group, ker.basis_array, vec), terms.apply(vec))


def test_scalar_identity_fails_when_the_product_drops_a_basis_row(monkeypatch):
    params = CoverParams(3, 2, 4)
    group = build_group(params)
    full = groupring.apply_subgroup_sum
    monkeypatch.setattr(
        groupring, "apply_subgroup_sum", lambda g, basis, vec: full(g, basis[:-1], vec)
    )
    for h in enumerate_hyperplanes(params):
        with pytest.raises(IdentityCheckError):
            verify_scalar_identity(group, h)


def _fraction_rref(mat):
    """Reference: Gauss-Jordan over Fractions, returning (nonzero RREF rows, pivots)."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _fraction_kernel(mat):
    """Reference: null-space basis from the Fraction RREF, each row the null
    vector with a 1 at its free column, scaled to a primitive integer row."""
    rows, pivots = _fraction_rref(mat)
    basis = []
    for f in (c for c in range(len(mat[0])) if c not in pivots):
        vec = [Fraction(0)] * len(mat[0])
        vec[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][f]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        basis.append([x // gcd(*ints) for x in ints])
    return basis


def _stacked_partition(group, subgroup_elems):
    """Reference: the coset partition from the minimum over all left permutations at once."""
    rep_of = np.stack([group.left_perm(h) for h in subgroup_elems]).min(axis=0)
    reps, coset_idx = np.unique(rep_of, return_inverse=True)
    return coset_idx, reps


def _coset_matrix(group, coset_idx, reps, u):
    """Reference: column i counts the cosets of (j u) reps[i], j = 0 .. q-1, by group.mul."""
    q = group.params.q
    multiples = [_code(group, np.multiply(j, u) % q) for j in range(q)]
    smat = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for i, rep in enumerate(reps.tolist()):
        for g in multiples:
            smat[coset_idx[group.mul(g, rep)], i] += 1
    return smat


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4), (5, 3, 3)])
def test_fixed_subspace_is_the_null_space_of_the_coset_matrix(p, q, r):
    # Every hyperplane with every transversal: the closed-form basis is the
    # Fraction elimination's null space of the coset matrix, row for row.
    params = CoverParams(p, q, r)
    group = build_group(params)
    kernels = {}  # the elimination once per distinct coset matrix
    for h in enumerate_hyperplanes(params):
        coset_idx, reps = _stacked_partition(group, [_code(group, v) for v in h.kernel().vectors()])
        for u in product(range(q), repeat=params.n):
            if np.dot(u, h.normal) % q:
                smat = _coset_matrix(group, coset_idx, reps, u)
                if smat.tobytes() not in kernels:
                    kernels[smat.tobytes()] = _fraction_kernel(smat.tolist())
                expected = np.array(kernels[smat.tobytes()], dtype=np.int64)[:, coset_idx]
                got = fixed_subspace(group, h, u)
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
                assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "broken,message",
    [
        # u itself acting trivially leaves the j = 0 and j = 1 sums on one
        # coset, so the first fibre block reads 2 on its diagonal.
        ((0, 0, 0, 1), r"u = \(0, 0, 0, 1\) .* coset matrix entry \(0, 0\) is 2, not 1"),
        # An element of L acting trivially splits right cosets.
        ((0, 0, 1, 0), r"has 12 right cosets, not p q = 6"),
    ],
)
def test_coset_matrix_check_names_its_witness(monkeypatch, broken, message):
    group = build_group(CoverParams(3, 2, 4))
    h = next(iter(enumerate_hyperplanes(group.params)))
    assert h.normal == (0, 0, 0, 1)
    assert tuple(groupring._default_transversal(group, h).tolist()) == (0, 0, 0, 1)
    left_perm = group.left_perm
    identity = np.arange(group.order)
    monkeypatch.setattr(
        group, "left_perm", lambda g: identity if g == _code(group, broken) else left_perm(g)
    )
    with pytest.raises(IdentityCheckError, match=message):
        fixed_subspace(group, h)


@pytest.mark.parametrize("check", [fixed_subspace, verify_scalar_identity, verify_cross_terms])
@pytest.mark.parametrize("normal,modulus", [([1, 2, 0, 0], 3), ([1, 0, 1], 2)])
def test_group_ring_checks_refuse_a_foreign_hyperplane(check, normal, modulus):
    # (3, 2, 4) acts on F_2^4: another field or another length is refused.
    group = build_group(CoverParams(3, 2, 4))
    with pytest.raises(InvalidParamsError, match="different spaces"):
        check(group, Hyperplane(normal, modulus))


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4), (5, 3, 3)])
def test_streamed_coset_partition_matches_the_stacked_minimum(p, q, r):
    params = CoverParams(p, q, r)
    group = build_group(params)
    for h in enumerate_hyperplanes(params):
        elems = [_code(group, v) for v in h.kernel().vectors()]
        got = groupring._coset_partition(group, elems)
        expected = _stacked_partition(group, elems)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_scalar_and_cross_terms_build_a_l_once(monkeypatch):
    group = build_group(CoverParams(3, 2, 4))
    builds = []
    partition = groupring._coset_partition

    def counted(group, elems):
        builds.append(len(elems))
        return partition(group, elems)

    monkeypatch.setattr(groupring, "_coset_partition", counted)
    h, other = list(enumerate_hyperplanes(group.params))[:2]
    verify_scalar_identity(group, h)
    verify_cross_terms(group, h)
    fixed_subspace(group, h)
    assert len(builds) == 1
    # Another hyperplane, or another transversal of the same one, rebuilds.
    verify_cross_terms(group, other)
    assert len(builds) == 2
    u = next(
        v for v in product(range(2), repeat=4)
        if any(v) and not h.kernel().contains(v)
        and v != tuple(groupring._default_transversal(group, h).tolist())
    )
    first = fixed_subspace(group, h)
    assert len(builds) == 3
    again = fixed_subspace(group, h, u)
    assert len(builds) == 4
    assert again.tobytes() == first.tobytes()
    assert again is fixed_subspace(group, h, np.array(u) + 2)  # same residues, memo hit
    assert len(builds) == 4


def test_memoised_basis_is_read_only():
    group = build_group(CoverParams(5, 2, 3))
    h = next(iter(enumerate_hyperplanes(group.params)))
    basis = fixed_subspace(group, h)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 7
    assert fixed_subspace(group, h) is basis


def test_cross_terms_name_the_broken_twist(monkeypatch):
    group = build_group(CoverParams(5, 2, 3))
    broken = 3 * group.params.q ** group.params.n
    left_perm = group.left_perm
    identity = np.arange(group.order)
    monkeypatch.setattr(
        group, "left_perm", lambda g: identity if g == broken else left_perm(g)
    )
    for h in enumerate_hyperplanes(group.params):
        with pytest.raises(IdentityCheckError, match="cross term k = 3 fails"):
            verify_cross_terms(group, h)


def test_scalar_identity_names_the_broken_twist_row(monkeypatch):
    # A twist 3 acting trivially adds sum_L h = q^(n-1) to the image of A_L.
    group = build_group(CoverParams(5, 2, 3))
    broken = 3 * group.params.q ** group.params.n
    left_perm = group.left_perm
    identity = np.arange(group.order)
    monkeypatch.setattr(
        group, "left_perm", lambda g: identity if g == broken else left_perm(g)
    )
    for h in enumerate_hyperplanes(group.params):
        with pytest.raises(IdentityCheckError, match="not multiplication by 8 on A_L; witness row 0"):
            verify_scalar_identity(group, h)
