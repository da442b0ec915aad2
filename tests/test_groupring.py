import ast
import inspect
import re
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np
import pytest

from gonal.action import CoverParams
from gonal.atlas import Hyperplane, enumerate_hyperplanes
from gonal import atlas, fqlinalg, groupring
from gonal.errors import CapExceededError, IdentityCheckError, InvalidParamsError
from gonal.fqlinalg import Subspace, decode_codes, encode_rows
from gonal.groupring import (
    FrobeniusGroup,
    GroupRingOperator,
    apply_subgroup_sum,
    build_group,
    fixed_subspace,
    frobenius_check,
    verify_cross_terms,
    verify_scalar_identity,
)

TINY = CoverParams(3, 2, 4)


def _code(group, v, e=0):
    """Reference: the code e q^n + (v read as base-q digits) of the element (v, e)."""
    q, n = group.params.q, group.params.n
    return e * q**n + sum(int(x) * q ** (n - 1 - i) for i, x in enumerate(v))


@pytest.mark.parametrize(
    "p,q,r,order",
    [(5, 2, 3, 80), (3, 2, 4, 48)],
)
def test_build_group_orders(p, q, r, order):
    group = build_group(CoverParams(p, q, r))
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
    # Every row of the twist table the identity: N x P becomes a direct product.
    group._twisted = np.broadcast_to(group._twisted[0], group._twisted.shape)


def _second_power_is_first(group):
    group._twisted = group._twisted[[0, 1, 1, 3, 4]]


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
        # Products from an intact group, so only the twist table itself is wrong.
        monkeypatch.setattr(group, "mul", build_group(CoverParams(5, 2, 3)).mul)
    with pytest.raises(IdentityCheckError, match=message):
        frobenius_check(group)


def test_identity_check_names_its_witness():
    group = FrobeniusGroup(CoverParams(5, 2, 3))
    twisted = group._twisted.copy()
    twisted[0, [1, 2]] = twisted[0, [2, 1]]  # T^0 swaps the translations 1 and 2
    group._twisted = twisted
    with pytest.raises(IdentityCheckError, match="^identity fails at 1$"):
        group.spot_check_axioms()


def test_associativity_check_names_its_witness():
    # T^2 and T^3 swapped: T^e T^-e is still 1, so identity and inverses
    # hold, but T T = T^2 now fails on the first seeded triple.
    group = FrobeniusGroup(CoverParams(5, 2, 3))
    group._twisted = group._twisted[[0, 1, 3, 2, 4]]
    with pytest.raises(IdentityCheckError, match=r"^associativity fails at \(68, 50, 40\)$"):
        group.spot_check_axioms()
    assert group.mul(group.mul(68, 50), 40) != group.mul(68, group.mul(50, 40))


def test_group_tables_are_read_only():
    group = build_group(CoverParams(5, 2, 3))
    for table in (group._translations, group._twisted):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_mul_and_inv_take_codes_or_arrays_of_codes():
    group = build_group(CoverParams(5, 2, 3))
    codes = np.arange(group.order)
    table = group.mul(codes[:, None], codes)
    assert table.tolist() == [[group.mul(a, b) for b in range(80)] for a in range(80)]
    assert group.inv(codes).tolist() == [group.inv(g) for g in range(80)]
    assert type(group.mul(3, 17)) is int and type(group.inv(17)) is int


def test_group_at_7_2_4_builds():
    # |G| = 7 * 2^12: (2^12 - 1)/7 twist orbits on the nonzero translations.
    group = build_group(CoverParams(7, 2, 4), cap=28672)
    assert frobenius_check(group).kernel_orbit_count == 585


@pytest.mark.parametrize("cap", [80.5, "512", True, float("inf")], ids=["float", "str", "bool", "inf"])
def test_group_cap_must_be_a_positive_int(cap):
    # Each of these built a group or failed with a raw TypeError or a cap refusal.
    with pytest.raises(InvalidParamsError, match="^group-order cap must be a positive integer, got "):
        FrobeniusGroup(CoverParams(5, 2, 3), cap=cap)


@pytest.mark.parametrize(
    "call, code",
    [
        pytest.param(lambda g: g.mul(-1, 3), -1, id="mul-low"),
        pytest.param(lambda g: g.mul(80, 0), 80, id="mul-high"),
        pytest.param(lambda g: g.mul(3, np.array([5, 80, -1])), 80, id="mul-array"),
        pytest.param(lambda g: g.inv(-1), -1, id="inv-low"),
        pytest.param(lambda g: g.inv(80), 80, id="inv-high"),
        pytest.param(lambda g: g.left_perm(-1), -1, id="left-perm-low"),
        pytest.param(lambda g: g.left_perm(80), 80, id="left-perm-high"),
        pytest.param(lambda g: GroupRingOperator(g, {-1: 1}).apply(np.ones(80, dtype=np.int64)), -1,
                     id="operator-low"),
        pytest.param(lambda g: GroupRingOperator(g, {80: 1}).apply(np.ones(80, dtype=np.int64)), 80,
                     id="operator-high"),
    ],
)
def test_element_codes_outside_the_group_are_refused(call, code):
    # -1 was read as code 79, and 80 raised a raw IndexError.
    with pytest.raises(InvalidParamsError, match=f"^element code {code} is outside 0 .. 79$"):
        call(build_group(CoverParams(5, 2, 3)))


@pytest.mark.parametrize("code", [3.0, True, np.True_, "3"])
def test_left_perm_refuses_a_non_integer_after_its_code_is_cached(code):
    # 3.0 and True hash like 3 and 1, so the cache answered for them.
    group = build_group(CoverParams(5, 2, 3))
    group.left_perm(3)
    group.left_perm(1)
    with pytest.raises(InvalidParamsError, match=f"^element code {re.escape(repr(code))} is not an integer$"):
        group.left_perm(code)
    assert group.left_perm(np.int64(3)) is group.left_perm(3)


def test_left_perm_reads_each_code_once(monkeypatch):
    # A plain int already cached is answered without a second reading; a miss,
    # and any other type, is read by check_integer first.
    group = build_group(CoverParams(5, 2, 3))
    reads = []
    check_integer = groupring.check_integer
    monkeypatch.setattr(
        groupring, "check_integer", lambda g, what: reads.append(g) or check_integer(g, what)
    )
    first = group.left_perm(3)
    assert reads == [3]
    assert group.left_perm(3) is first and reads == [3]
    assert group.left_perm(np.int64(3)) is first and reads == [3, np.int64(3)]
    with pytest.raises(InvalidParamsError, match="^element code 3.0 is not an integer$"):
        group.left_perm(3.0)
    assert reads[-1] == 3.0 and group.left_perm(3) is first and len(reads) == 3


@pytest.mark.parametrize(
    "terms, vec",
    [
        pytest.param({0: 2**62}, np.full(80, 4), id="zeros"),  # 4 * 2^62 wrapped to 0
        pytest.param({0: 2**62, 1: 2**62}, np.ones(80, dtype=np.int64), id="two-terms"),
        pytest.param({0: -1, 1: 1}, np.array([-(2**63)] + [0] * 79), id="least-int64"),
    ],
)
def test_group_ring_operator_refuses_a_product_past_int64(terms, vec):
    group = build_group(CoverParams(5, 2, 3))
    with pytest.raises(InvalidParamsError, match="^group-ring product may overflow int64"):
        GroupRingOperator(group, terms).apply(vec)
    # Just below the bound the product is exact.
    top = np.full(80, 2**62 - 1)
    assert (GroupRingOperator(group, {0: 2}).apply(top) == 2**63 - 2).all()


def test_subgroup_sum_refuses_a_basis_whose_rows_are_not_of_length_n():
    # A width-5 row at n = 4 has the code 16, a twist, which was summed in.
    group = build_group(CoverParams(5, 2, 3))
    vec = np.arange(80, dtype=np.int64)
    for L in (Subspace([[0, 0, 0, 0, 1]], 5, 2), Subspace([[1, 0, 0]], 3, 2)):
        with pytest.raises(InvalidParamsError, match=rf"^subgroup of F_2\^{L.ambient_dim} is not in F_2\^4$"):
            apply_subgroup_sum(group, L, vec)
    # Rows of length 4 over another field are refused too.
    with pytest.raises(InvalidParamsError, match=r"^subgroup of F_3\^4 is not in F_2\^4$"):
        apply_subgroup_sum(group, Subspace([[1, 0, 0, 0]], 4, 3), vec)


def test_subgroup_sum_over_dependent_rows_counts_each_element_once():
    # A repeated row counted every element of L twice: entry 0 was 56, not 28, the
    # sum of the codes of L's 8 elements.  A Subspace holds independent rows only.
    group = build_group(CoverParams(5, 2, 3))
    L = Hyperplane([1, 0, 0, 0], 2).kernel()
    basis = L.basis_array
    vec = np.arange(80, dtype=np.int64)
    assert apply_subgroup_sum(group, L, vec)[0] == 28
    for rows in (
        np.vstack([basis[:1], basis]),
        np.vstack([basis, basis[0] + basis[2]]),
        np.vstack([basis, np.zeros(4, dtype=np.int64)]),
        np.vstack([basis, 3 * basis[1]]),  # 3 b = b over F_2
    ):
        assert apply_subgroup_sum(group, Subspace(rows, 4, 2), vec)[0] == 28
    # Independent rows out of echelon order, or unreduced, give the same sum.
    for same in (basis[::-1], basis + 2, np.vstack([basis[0] + basis[1], basis[1:]])):
        assert np.array_equal(apply_subgroup_sum(group, Subspace(same, 4, 2), vec), apply_subgroup_sum(group, L, vec))


def test_subgroup_sum_refuses_a_sum_past_int64():
    # L = [1,0,0,0] has 8 elements: 8 * 2^61 = 2^64 wrapped to zeros.
    group = build_group(CoverParams(5, 2, 3))
    L = Hyperplane([1, 0, 0, 0], 2).kernel()
    with pytest.raises(InvalidParamsError, match=r"^subgroup sum may overflow int64: 8 terms on entries "
                       r"up to 2305843009213693952 in size$"):
        apply_subgroup_sum(group, L, np.full(80, 2**61))
    # Just below the bound the sum is exact.
    top = np.full(80, 2**60 - 1)
    assert (apply_subgroup_sum(group, L, top) == 8 * (2**60 - 1)).all()


def test_element_codes_must_be_integers():
    group = build_group(CoverParams(5, 2, 3))
    with pytest.raises(InvalidParamsError, match="element codes must be integers, got float64"):
        group.mul(1.5, 3)


def test_ragged_element_codes_are_refused():
    # group.mul([[1], [1, 2]], 3) raised numpy's bare ValueError.
    group = build_group(CoverParams(5, 2, 3))
    with pytest.raises(InvalidParamsError, match="^expected a rectangular array of integers: "):
        group.mul([[1], [1, 2]], 3)


def test_group_ring_coefficients_must_be_integers():
    group = build_group(CoverParams(5, 2, 3))
    with pytest.raises(InvalidParamsError, match="coefficients must be integers, got float64"):
        GroupRingOperator(group, {0: 1.5})  # was truncated to {0: 1}
    with pytest.raises(InvalidParamsError, match=r"^coefficient of element 0 has shape \(2,\), not a scalar$"):
        GroupRingOperator(group, {0: np.array([1, 2])})  # raised numpy's bare ValueError
    assert GroupRingOperator(group, {0: np.int64(2), 1: 0}).terms == {0: 2}


@pytest.mark.parametrize(
    "vec, message",
    [
        pytest.param(np.full(80, 0.7), "must be integers, got float64", id="float"),
        pytest.param([2**70] * 80, f"must fit int64, got {2**70}$", id="past-int64"),
        pytest.param(np.ones(3, dtype=np.int64), r"of shape \(3,\): need a last axis of 80", id="short"),
        pytest.param(np.ones((80, 3), dtype=np.int64), r"of shape \(80, 3\)", id="transposed"),
        pytest.param(np.int64(1), r"of shape \(\)", id="scalar"),
    ],
)
def test_group_ring_vectors_must_be_integers_over_the_group(vec, message):
    # A float vector came back as zeros; a short one raised a raw numpy ValueError.
    group = build_group(CoverParams(5, 2, 3))
    L = next(iter(enumerate_hyperplanes(group.params))).kernel()
    with pytest.raises(InvalidParamsError, match=f"^group-ring vectors {message}"):
        GroupRingOperator(group, {1: 1}).apply(vec)
    with pytest.raises(InvalidParamsError, match=f"^group-ring vectors {message}"):
        apply_subgroup_sum(group, L, vec)


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
    [(5, 2, 3, 5), (3, 2, 4, 3)],
)
def test_fixed_subspace_dimension_is_uniform(p, q, r, dim):
    # dim A_L = p(q-1) for every hyperplane, in particular equal across
    # each conjugation orbit.
    params = CoverParams(p, q, r)
    group = build_group(params)
    dims = set()
    for h in enumerate_hyperplanes(params):
        ker = h.kernel()
        basis = fixed_subspace(group, h)
        dims.add(basis.shape[0])
        # Conditions hold exactly: fixed by the subgroup, killed by the sum.
        for vtrans in ker.vectors():
            g = _code(group, vtrans)
            assert np.array_equal(
                GroupRingOperator(group, {g: 1}).apply(basis), basis
            )
    assert dims == {dim} == {p * (q - 1)}


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4), (5, 3, 3), (3, 2, 6)])
def test_transversal_is_the_first_translation_outside_the_hyperplane(p, q, r):
    # Reference: the scan over all q^n translations in code order.
    params = CoverParams(p, q, r)
    n = params.n
    translations = decode_codes(np.arange(q**n), n, q)
    hyperplanes = list(enumerate_hyperplanes(params))
    assert len(hyperplanes) == params.m
    for h in hyperplanes:
        outside = np.flatnonzero(translations @ h.normal_array() % q)
        assert groupring._transversal(h) == tuple(translations[outside[0]].tolist())


def test_group_builds_its_own_action():
    # An action passed in was never checked against params: (5, 2, 3)'s action
    # on a (3, 2, 4) group built a wrong group of order 48.
    params = CoverParams(3, 2, 4)
    group = FrobeniusGroup(params)
    assert group.action.params == params
    assert list(inspect.signature(FrobeniusGroup).parameters) == ["params", "cap"]


@pytest.mark.parametrize("p,q,r,scalar", [(5, 2, 3, 8), (3, 2, 4, 8)])
def test_prop_scalar_on_every_hyperplane(p, q, r, scalar):
    params = CoverParams(p, q, r)
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
    h = Hyperplane([1, 0, 0, 0], 2)
    subgroup = [_code(group, v) for v in h.kernel().vectors()]
    op = GroupRingOperator(group, {g: 1 for g in subgroup})
    zero = np.zeros(group.order, dtype=np.int64)
    assert np.array_equal(op.apply(zero), zero)


def test_groupring_has_no_asserts():
    # `python -O` strips assert statements, so a check written as one never fails.
    tree = ast.parse(inspect.getsource(groupring))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (5, 3, 3)])
def test_left_perm_matches_multiplication(p, q, r):
    group = build_group(CoverParams(p, q, r))
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
        terms = GroupRingOperator(group, {_code(group, v): 1 for v in ker.vectors()})
        vec = rng.integers(-50, 50, size=(3, group.order))
        assert np.array_equal(apply_subgroup_sum(group, ker, vec), terms.apply(vec))


def test_scalar_identity_fails_when_the_product_drops_a_basis_row(monkeypatch):
    params = CoverParams(3, 2, 4)
    group = build_group(params)
    full = groupring.apply_subgroup_sum
    def dropped(g, L, vec):
        return full(g, Subspace(L.basis_array[:-1], L.ambient_dim, L.modulus), vec)

    monkeypatch.setattr(groupring, "apply_subgroup_sum", dropped)
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


def _fixed_from_the_kernel(group, L):
    """Reference: A_L and its twisted images as built from L's kernel: L's elements
    from the grid of kernel coefficients times its basis, each twist k applied by the
    operator of the element k q^n."""
    p, q, n = group.params.p, group.params.q, group.params.n
    ker = L.kernel()
    span = (decode_codes(np.arange(q**ker.dim), ker.dim, q) @ ker.basis_array) % q
    coset_idx, reps = groupring._coset_partition(group, encode_rows(span, q).tolist())
    free = np.flatnonzero(np.arange(len(reps)) % q)
    basis = (coset_idx == free[:, None]).astype(np.int64)
    basis -= coset_idx == (free - free % q)[:, None]
    twisted = np.stack([GroupRingOperator(group, {k * q**n: 1}).apply(basis) for k in range(p)])
    return basis, apply_subgroup_sum(group, ker, twisted)


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4), (3, 2, 6), (7, 2, 3), (5, 3, 3)])
def test_fixed_reads_a_l_as_the_kernel_construction_does(p, q, r):
    # L's codes read off the translation table, and the twists as gathers, give
    # the basis and images bit for bit on every hyperplane.
    params = CoverParams(p, q, r)
    group = build_group(params, cap=params.group_order)
    for h in enumerate_hyperplanes(params):
        for got, expected in zip(groupring._fixed(group, h), _fixed_from_the_kernel(group, h)):
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4), (5, 3, 3)])
def test_fixed_subspace_is_the_null_space_of_the_coset_matrix(p, q, r):
    # A_L depends on L alone: for every u outside L, the Fraction elimination's
    # null space of u's coset matrix is the closed-form basis, row for row.
    params = CoverParams(p, q, r)
    group = build_group(params)
    kernels = {}  # the elimination once per distinct coset matrix
    for h in enumerate_hyperplanes(params):
        coset_idx, reps = _stacked_partition(group, [_code(group, v) for v in h.kernel().vectors()])
        got = fixed_subspace(group, h)
        for u in product(range(q), repeat=params.n):
            if np.dot(u, h.normal) % q:
                smat = _coset_matrix(group, coset_idx, reps, u)
                if smat.tobytes() not in kernels:
                    kernels[smat.tobytes()] = _fraction_kernel(smat.tolist())
                expected = np.array(kernels[smat.tobytes()], dtype=np.int64)[:, coset_idx]
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
                assert got.tobytes() == expected.tobytes()


def test_fixed_subspace_transversal_independent():
    # Every u outside L gives one null space of its coset matrix, and it is the
    # one fixed_subspace(group, h) returns with no transversal passed.
    params = CoverParams(5, 2, 3)
    group = build_group(params)
    for h in list(enumerate_hyperplanes(params))[:4]:
        coset_idx, reps = _stacked_partition(group, [_code(group, v) for v in h.kernel().vectors()])
        forms = {
            np.array(_fraction_kernel(_coset_matrix(group, coset_idx, reps, u).tolist()),
                     dtype=np.int64)[:, coset_idx].tobytes()
            for u in product(range(2), repeat=4)
            if np.dot(u, h.normal) % 2
        }
        assert forms == {fixed_subspace(group, h).tobytes()}


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
    assert groupring._transversal(h) == (0, 0, 0, 1)
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
    first = fixed_subspace(group, h)
    assert len(builds) == 1
    # The memo is keyed by the hyperplane alone: an equal one built anew hits it.
    assert fixed_subspace(group, Hyperplane(list(h.normal), 2)) is first
    assert len(builds) == 1
    # Another hyperplane rebuilds, and so does the first one after it.
    verify_cross_terms(group, other)
    assert len(builds) == 2
    again = fixed_subspace(group, h)
    assert len(builds) == 3
    assert again.tobytes() == first.tobytes()


def test_memoised_basis_is_read_only():
    group = build_group(CoverParams(5, 2, 3))
    h = next(iter(enumerate_hyperplanes(group.params)))
    basis = fixed_subspace(group, h)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 7
    assert fixed_subspace(group, h) is basis


def test_cross_terms_name_the_broken_twist(monkeypatch):
    # Twist 3 is applied as a gather along the left permutation of its inverse.
    group = build_group(CoverParams(5, 2, 3))
    broken = (-3 % group.params.p) * group.params.q ** group.params.n
    left_perm = group.left_perm
    identity = np.arange(group.order)
    monkeypatch.setattr(
        group, "left_perm", lambda g: identity if g == broken else left_perm(g)
    )
    for h in enumerate_hyperplanes(group.params):
        with pytest.raises(IdentityCheckError, match="cross term k = 3 fails"):
            verify_cross_terms(group, h)


def test_cross_terms_name_the_first_failing_twist_of_the_memoised_images():
    # images[0] must be q^(n-1) times the basis and images[1:] zero; the first k off is named.
    group = build_group(CoverParams(5, 2, 3))
    for h in list(enumerate_hyperplanes(group.params))[:3]:
        assert verify_cross_terms(group, h)["cross_terms_zero"]
        basis, images = group._fixed_last[1]
        for broken, k in [([0], 0), ([0, 3], 0), ([2, 4], 2), ([4], 4)]:
            corrupted = images.copy()
            corrupted[broken, -1, -1] += 1
            group._fixed_last = (h, (basis, corrupted))
            named = rf"^cross term k = {k} fails on A_L of {re.escape(str(h))}$"
            with pytest.raises(IdentityCheckError, match=named):
                verify_cross_terms(group, h)


def test_group_ring_checks_eliminate_nothing(monkeypatch):
    # L's basis is read off its normal and A_L off its cosets: no elimination on the sweep.
    def refuse(*args):
        pytest.fail("an elimination on the group-ring path")

    group = build_group(CoverParams(3, 2, 4))
    for module, name in [(fqlinalg, "rref_array"), (fqlinalg, "kernel_array"), (atlas, "kernel_array")]:
        monkeypatch.setattr(module, name, refuse)
    for h in enumerate_hyperplanes(group.params):
        assert verify_scalar_identity(group, h) == 8
        assert verify_cross_terms(group, h)["cross_terms_zero"]


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
