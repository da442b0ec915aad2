import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gonal.action import CoverParams
from gonal.atlas import Hyperplane, orbit_classes
from gonal.errors import InvalidParamsError
from gonal.fqlinalg import (
    PRIMALITY_BOUND,
    Subspace,
    _code_weights,
    _lazy_updates,
    as_residues,
    check_prime_modulus,
    decode_codes,
    encode_rows,
    inverse_table,
    is_prime,
    iter_echelon_forms,
    kernel_array,
    matpow_array,
    row_space_array,
    rref_array,
)
from subspace_oracle import all_subspaces


def _kernel(a, q):
    """Null space of `a` as a Subspace of F_q^cols."""
    a = np.atleast_2d(np.asarray(a))
    return Subspace(kernel_array(a, q), a.shape[1], q)


def test_rref_identity_fixed():
    m = np.eye(3, dtype=np.int64)
    red, pivots = rref_array(m, 2)
    assert np.array_equal(red, m)
    assert pivots == [0, 1, 2]


def test_rref_zero_fixed():
    m = np.zeros((2, 4), dtype=np.int64)
    red, pivots = rref_array(m, 3)
    assert np.array_equal(red, m)
    assert pivots == []


def test_rref_dependent_rows():
    # Third row is the sum of the first two over F_2.
    red, pivots = rref_array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2)
    assert len(pivots) == 2
    assert np.array_equal(red, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])


def test_rref_invariant_under_row_operations():
    rng = np.random.default_rng(2047)
    for q in (2, 3, 5):
        for _ in range(25):
            rows, cols = rng.integers(1, 6, size=2)
            a = rng.integers(0, q, size=(rows, cols))
            # Apply a random invertible row operation: composition of swaps,
            # scalings, and additions.
            b = a.copy()
            for _ in range(10):
                op = rng.integers(0, 3)
                i, j = rng.integers(0, rows, size=2)
                if op == 0 and i != j:
                    b[[i, j]] = b[[j, i]]
                elif op == 1:
                    b[i] = (b[i] * rng.integers(1, q)) % q
                elif op == 2 and i != j:
                    b[i] = (b[i] + rng.integers(0, q) * b[j]) % q
            assert np.array_equal(rref_array(a, q)[0], rref_array(b, q)[0])


def test_kernel_zero_row_is_full_space():
    s = _kernel(np.zeros((1, 4), dtype=np.int64), 2)
    assert s == Subspace.full(4, 2)
    assert s.dim == 4


def test_kernel_coordinate_hyperplane():
    s = _kernel([[1, 0, 0, 0]], 2)
    assert s.dim == 3
    expected = Subspace([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4, 2)
    assert s == expected


def test_kernel_sum_functional_mod_3():
    s = _kernel([[1, 1, 1, 1]], 3)
    assert s.dim == 3
    for row in s.basis_array:
        assert int(row.sum()) % 3 == 0


def test_rank_nullity_random():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        for _ in range(30):
            rows, cols = rng.integers(1, 7, size=2)
            m = rng.integers(0, q, size=(rows, cols))
            _, pivots = rref_array(m, q)
            assert _kernel(m, q).dim + len(pivots) == cols


def test_intersect_idempotent():
    a = Subspace([[1, 0, 1, 0], [0, 1, 1, 1]], 4, 3)
    assert a.intersect(a) == a
    zero = Subspace.zero(4, 3)
    assert a.intersect(zero) == zero.intersect(a) == zero.intersect(zero) == zero


def test_intersect_coordinate_hyperplanes():
    a = _kernel([[1, 0, 0, 0]], 2)
    b = _kernel([[0, 1, 0, 0]], 2)
    meet = a.intersect(b)
    assert meet.dim == 2
    assert meet == Subspace([[0, 0, 1, 0], [0, 0, 0, 1]], 4, 2)


def test_intersect_mismatch_raises():
    a = Subspace.full(3, 2)
    b = Subspace.full(4, 2)
    c = Subspace.full(3, 3)
    with pytest.raises(InvalidParamsError, match=r"^subspaces live in F_2\^3 vs F_2\^4$"):
        a.intersect(b)
    with pytest.raises(InvalidParamsError, match=r"^subspaces live in F_2\^3 vs F_3\^3$"):
        a.intersect(c)


def test_contains_basics():
    s = Subspace([[1, 0, 1, 0]], 4, 2)
    assert s.contains_rows([0, 0, 0, 0])
    assert s.contains_rows([1, 0, 1, 0])
    assert not s.contains_rows([1, 0, 1, 1])
    assert Subspace.full(4, 2).contains_rows([1, 1, 0, 1])
    assert s.contains_rows([[1, 0, 1, 0], [3, 0, 5, 2]])
    assert not s.contains_rows([[1, 0, 1, 0], [1, 1, 0, 0]])


@st.composite
def _subspace_and_rows(draw):
    """(basis, rows, q, n) at q^n <= 125: rows mix random vectors, which often lie
    outside the span of basis, with combinations of basis rows, which lie inside."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-q, 2 * q), min_size=n, max_size=n)
    basis = draw(st.lists(vector, max_size=n))
    combination = st.lists(st.integers(0, q - 1), min_size=len(basis), max_size=len(basis)).map(
        lambda c: (np.array(c, dtype=np.int64) @ np.array(basis, dtype=np.int64).reshape(-1, n)).tolist()
    )
    rows = draw(st.lists(st.one_of(vector, combination), min_size=1, max_size=3))
    return basis, rows, q, n


@settings(deadline=None, max_examples=200)
@given(_subspace_and_rows())
def test_contains_rows_matches_the_listed_vectors(drawn):
    basis, rows, q, n = drawn
    sub = Subspace(np.array(basis, dtype=np.int64).reshape(-1, n), n, q)
    members = {tuple(v.tolist()) for v in sub.vectors()}
    assert sub.contains_rows(rows) == all(tuple(x % q for x in row) in members for row in rows)


def test_contains_mismatch_raises():
    s = Subspace([[1, 0, 1, 0]], 4, 2)
    with pytest.raises(InvalidParamsError, match=r"^expected a vector or rows of length 4, got shape \(3,\)$"):
        s.contains_rows([1, 0, 1])
    # Two vectors of s laid end to end are one vector of the wrong length, not two rows.
    with pytest.raises(InvalidParamsError):
        s.contains_rows([1, 0, 1, 0] * 2)


def _all_vectors(n, q):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(q), repeat=n)]


@pytest.mark.parametrize("q,n", [(2, 4), (2, 6), (3, 3), (3, 4)])
def test_intersection_is_largest_common_subspace(q, n):
    rng = np.random.default_rng(11)
    vectors = _all_vectors(n, q)
    for _ in range(20):
        ka, kb = rng.integers(1, n, size=2)
        a = Subspace(rng.integers(0, q, size=(ka, n)), n, q)
        b = Subspace(rng.integers(0, q, size=(kb, n)), n, q)
        meet = a.intersect(b)
        for v in vectors:
            assert meet.contains_rows(v) == (a.contains_rows(v) and b.contains_rows(v))


def _hyperplanes(n, q):
    return all_subspaces(n, n - 1, q)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_two_hyperplanes_meet_in_codimension_two(q, n):
    planes = _hyperplanes(n, q)
    assert len(planes) == (q**n - 1) // (q - 1)
    for a, b in itertools.combinations(planes, 2):
        meet = a.intersect(b)
        assert meet.dim == n - 2
        # Any u in b, not in a, generates a transversal {0, u, ..., (q-1)u}
        # both of a in the full space and of (a meet b) in b.
        found = False
        for u in b.vectors():
            if a.contains_rows(u):
                continue
            found = True
            multiples = [(j * u) % q for j in range(q)]
            cosets_full = {tuple(_reduce_to_coset(a, w)) for w in multiples}
            assert len(cosets_full) == q
            cosets_meet = {tuple(_reduce_to_coset(meet, w)) for w in multiples}
            assert len(cosets_meet) == q
            assert all(b.contains_rows(w) for w in multiples)
            break  # one witness per pair keeps the n = 4 runs quick
        assert found


def _reduce_to_coset(space, v):
    v = np.array(v, dtype=np.int64) % space.modulus
    for row in space.basis_array:
        pc = int(np.nonzero(row)[0][0])
        if v[pc]:
            v = (v - v[pc] * row) % space.modulus
    return v


def test_subspace_value_semantics():
    a = Subspace([[1, 1, 0], [0, 1, 1]], 3, 2)
    b = Subspace([[1, 0, 1], [0, 1, 1]], 3, 2)  # same row space
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_modulus_must_be_prime():
    with pytest.raises(InvalidParamsError):
        Subspace([[1]], 1, 4)
    with pytest.raises(InvalidParamsError):
        Subspace([[1]], 1, 6)


def test_is_prime_agrees_with_sympy():
    assert [n for n in range(10**5) if is_prime(n) != sympy.isprime(n)] == []
    # Strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5 (below 3,215,031,751, where
    # is_prime runs the bases 2, 3, 5, 7 only); 2, 3, 5, 7, the first number past that
    # tier; and 2, ..., 37; the odd numbers around the tier bound; 2^61 - 1, which trial
    # division could not finish; and the largest odd numbers below the bound.
    tier = range(3215031751 - 20, 3215031751 + 20, 2)
    for n in [
        2047, 1373653, 25326001, 3215031751, 3825123056546413051, *tier, 2**61 - 1,
        *range(PRIMALITY_BOUND - 40, PRIMALITY_BOUND, 2),
    ]:
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**89 - 1])
def test_is_prime_refuses_past_the_bound_it_decides_exactly(n):
    with pytest.raises(InvalidParamsError, match=f"^{n} is at or past {PRIMALITY_BOUND}, below which"):
        is_prime(n)


CYCLE = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # e1 -> e3 -> e2 -> e1


def test_transform_and_invariance_guards():
    s = Subspace([[1, 0, 0]], 3, 2)
    assert s.transform(CYCLE) == Subspace([[0, 0, 1]], 3, 2)
    assert not s.is_invariant_under(CYCLE)
    assert Subspace.full(3, 2).is_invariant_under(CYCLE)
    # Entries are read mod the subspace's modulus: 3 = 1 and -1 = 1 over F_2.
    assert s.transform(3 * CYCLE) == s.transform(-CYCLE) == s.transform(CYCLE)
    for bad in (np.eye(2, dtype=np.int64), np.ones((3, 2), dtype=np.int64), np.eye(9)[0], 1):
        with pytest.raises(InvalidParamsError):
            s.transform(bad)
        with pytest.raises(InvalidParamsError):
            s.is_invariant_under(bad)


def test_invariance_reads_matrix_residues_and_keeps_no_state():
    s = Subspace([[1, 1, 1]], 3, 2)
    # 3 * CYCLE and -CYCLE have the residues of CYCLE over F_2.
    assert all(s.is_invariant_under(m) for m in (CYCLE, 3 * CYCLE, -CYCLE, CYCLE.copy()))
    assert not s.is_invariant_under(np.diag([1, 0, 0]))
    assert Subspace.__slots__ == ("ambient_dim", "modulus", "_rows")
    assert not hasattr(s, "__dict__")


@pytest.mark.parametrize("dim", [2.5, 2.0, True, np.bool_(True), "2", None, -1])
def test_subspace_refuses_an_ambient_dim_that_is_no_non_negative_integer(dim):
    # Subspace([[1, 0]], 2.5, 3) used to become a space in F_3^2, and
    # Subspace.zero(2.9, 3) raised a bare TypeError.
    message = "ambient_dim -1 is negative" if dim == -1 else f"ambient_dim {dim!r} is not an integer"
    for make in (lambda d, q: Subspace([[1, 0]], d, q), Subspace.zero, Subspace.full):
        with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
            make(dim, 3)


def test_subspaces_of_the_zero_space_are_the_zero_subspace():
    # F_q^0 is accepted as an ambient space; its rows used to meet numpy's
    # reshape(-1, 0), which refuses an empty array.
    for q in (2, 3):
        spaces = [Subspace.zero(0, q), Subspace.full(0, q), Subspace([], 0, q)]
        assert [sub.dim for sub in spaces] == [0, 0, 0]
        assert all(sub.basis_array.shape == (0, 0) for sub in spaces)
        assert Subspace.full(0, q) == Subspace.zero(0, q)


def test_subspace_reads_a_numpy_integer_ambient_dim_as_an_int():
    for make in (lambda d, q: Subspace([[1, 0]], d, q), Subspace.zero, Subspace.full):
        sub = make(np.int32(2), 3)
        assert type(sub.ambient_dim) is int and sub.ambient_dim == 2
    assert Subspace([[1, 0]], np.int64(2), 3) == Subspace([[1, 0]], 2, 3)


def test_transform_is_the_image_of_every_vector():
    rng = np.random.default_rng(5)
    for q, n in [(2, 4), (3, 3), (5, 3)]:
        for _ in range(10):
            s = Subspace(rng.integers(0, q, size=(rng.integers(0, n + 1), n)), n, q)
            m = rng.integers(-q, 2 * q, size=(n, n))
            image = {tuple((m @ v) % q) for v in s.vectors()}
            assert {tuple(v) for v in s.transform(m).vectors()} == image
            assert s.is_invariant_under(m) == (image <= {tuple(v) for v in s.vectors()})


def test_ints_past_int64_are_reduced_exactly():
    # Each used to raise OverflowError on the int64 conversion.
    big = 2**70
    assert Hyperplane([big, 1], 3) == Hyperplane([big % 3, 1], 3)
    assert Hyperplane([-big, 1], 3) == Hyperplane([-big % 3, 1], 3)
    assert Subspace([[big, 1]], 2, 3) == Subspace([[big % 3, 1]], 2, 3)
    line = Subspace([[1, 0]], 2, 3)
    assert [line.contains_rows([big, x]) for x in (0, 1)] == [True, False]
    assert [line.contains_rows([big % 3, x]) for x in (0, 1)] == [True, False]
    for kernel in (rref_array, row_space_array, kernel_array):
        assert str(kernel([[big, 1]], 3)) == str(kernel([[big % 3, 1]], 3))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Hyperplane([0.5, 1, 0, 0], 3), "got float64 values"),  # was [0, 1, 0, 0]
        (lambda: Hyperplane([1, 2, 0, 0], 3.7), "modulus 3.7 is not an integer"),  # was mod 3
        (lambda: Subspace([[0.9, 1]], 2, 3), "got float64 values"),  # was [[0, 1]]
        (lambda: as_residues([1j, 1], 3), "got complex128 values"),
        (lambda: as_residues(["1", "2"], 3), "got <U1 values"),
        (lambda: as_residues([2**70, 0.5], 3), "got object values"),
        (lambda: as_residues([1.0, 2], 3), "got float64 values"),
        (lambda: as_residues([1, None], 3), "got object values"),
        (lambda: as_residues([0.5, 2**63 + 1], 3), "got float64 values"),
    ],
    ids=["float-normal", "float-modulus", "float-rows", "complex", "string", "big-int-and-float",
         "float-and-int", "none", "float-and-int-past-int64"],
)
def test_no_float_reaches_the_residues(build, message):
    with pytest.raises(InvalidParamsError, match=message):
        build()


def test_uint64_past_int64_is_reduced_exactly():
    big = np.array([2**64 - 1, 2**63 + 1], dtype=np.uint64)
    assert as_residues(big, 7).tolist() == [(2**64 - 1) % 7, (2**63 + 1) % 7]


@st.composite
def _integer_rows(draw):
    """(rows, q): a list of 1-3 integer rows of one length, mixing small ints, ints
    in [2^63, 2^64), which numpy reads alongside other ints as float64, and ints
    of up to 70 bits."""
    q = draw(st.sampled_from([2, 3, 5, 1000003, 876706517]))
    cols = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3 * q, 3 * q), st.integers(2**63, 2**64 - 1),
                      st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=3))
    return rows, q


@settings(deadline=None, max_examples=200)
@given(_integer_rows())
@example(([[0, 2**63 + 1]], 2))
@example(([[0, 2**63 + 1]], 3))  # each reader refused it as float64
@example(([[-1, 2**63 + 1], [1, 2**64 - 1]], 5))
def test_integer_rows_are_reduced_exactly_by_every_reader(drawn):
    rows, q = drawn
    reduced = [[x % q for x in row] for row in rows]
    assert as_residues(rows, q).tolist() == reduced
    for kernel in (rref_array, row_space_array, kernel_array):
        assert str(kernel(rows, q)) == str(kernel(reduced, q))
    n = len(rows[0])
    assert Subspace(rows, n, q) == Subspace(reduced, n, q)


@pytest.mark.parametrize(
    "read",
    [
        lambda rows: as_residues(rows, 3),
        lambda rows: Subspace(rows, 2, 3),
        lambda rows: Hyperplane(rows, 3),
        lambda rows: rref_array(rows, 3),
        lambda rows: kernel_array(rows, 3),
        lambda rows: Subspace.zero(2, 3).is_invariant_under(rows),
    ],
    ids=["as_residues", "Subspace", "Hyperplane", "rref_array", "kernel_array", "is_invariant_under"],
)
def test_ragged_rows_are_refused(read):
    # Each raised numpy's bare ValueError.
    for ragged in ([[1], [1, 2]], [[1, 2], [3]]):
        with pytest.raises(InvalidParamsError, match="^expected a rectangular array of integers: "):
            read(ragged)


def test_wrong_shaped_rows_are_refused_not_reshaped():
    # Two rows of length 3 are not one subspace of F_2^2, and two length-2 rows are
    # not one vector of F_2^4: both used to be reshaped silently.
    with pytest.raises(InvalidParamsError):
        Subspace([[1, 0, 1], [0, 1, 1]], 2, 2)
    s = Subspace([[1, 0, 0, 0]], 4, 2)
    with pytest.raises(InvalidParamsError):
        s.contains_rows([[1, 0], [0, 0]])
    for bad in ([1, 0, 1], np.zeros((1, 2, 4), dtype=np.int64), 1):
        with pytest.raises(InvalidParamsError):
            Subspace(bad, 4, 2)
        with pytest.raises(InvalidParamsError):
            s.contains_rows(bad)
    # A vector and a stack of rows of the right length are both fine.
    assert Subspace([1, 0, 0, 0], 4, 2) == s
    assert s.contains_rows([1, 0, 0, 0]) and s.contains_rows(np.zeros((0, 4), dtype=np.int64))


def two_elimination_kernel(a, q):
    """Oracle: the free-column null basis, put in canonical form by a second RREF."""
    a = np.atleast_2d(np.asarray(a))
    rows, cols = a.shape
    red, pivots = rref_array(a, q)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = (-red[row, f]) % q
    red2, piv2 = rref_array(basis, q)
    assert len(piv2) == len(free)
    return red2[: len(free)]


@st.composite
def fq_matrices(draw):
    """(a, q, rank or None): uniform entries, or L @ [I_k 0; 0 0] @ U of known rank k."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(1, 13)), draw(st.integers(1, 14))
    entries = st.integers(0, q - 1)
    if draw(st.booleans()):
        return draw(arrays(np.int64, (rows, cols), elements=entries)), q, None
    # Unit lower/upper triangular factors are invertible, so the rank is k.
    k = draw(st.integers(0, min(rows, cols)))
    lower = np.tril(draw(arrays(np.int64, (rows, rows), elements=entries)), -1)
    upper = np.triu(draw(arrays(np.int64, (cols, cols), elements=entries)), 1)
    middle = np.zeros((rows, cols), dtype=np.int64)
    middle[range(k), range(k)] = 1
    a = (lower + np.eye(rows, dtype=np.int64)) @ middle @ (upper + np.eye(cols, dtype=np.int64))
    return a % q, q, k


ZERO = (np.zeros((4, 6), dtype=np.int64), 3, 0)
FULL_RANK_TALL = (np.vstack([np.eye(5, dtype=np.int64), np.ones((8, 5), dtype=np.int64)]), 2, 5)
WIDE = (np.vstack([np.ones(14, dtype=np.int64), np.arange(14) % 7]), 7, 2)
FULL_RANK_SQUARE = (np.triu(np.ones((13, 13), dtype=np.int64)), 5, 13)


@settings(deadline=None)
@given(fq_matrices())
@example(ZERO)
@example(FULL_RANK_TALL)
@example(WIDE)
@example(FULL_RANK_SQUARE)
def test_rref_is_idempotent_and_finds_the_rank(case):
    a, q, rank = case
    red, pivots = rref_array(a, q)
    again, pivots_again = rref_array(red, q)
    assert np.array_equal(again, red) and pivots_again == pivots
    if rank is not None:
        assert len(pivots) == rank


@settings(deadline=None)
@given(fq_matrices())
@example(ZERO)
@example(FULL_RANK_TALL)
@example(WIDE)
@example(FULL_RANK_SQUARE)
def test_kernel_is_the_canonical_null_space(case):
    a, q, _ = case
    rank = len(rref_array(a, q)[1])
    k = kernel_array(a, q)
    assert k.shape == (a.shape[1] - rank, a.shape[1])
    assert not np.any((a @ k.T) % q)
    assert np.array_equal(k, row_space_array(k, q))
    assert np.array_equal(k, two_elimination_kernel(a, q))


@settings(deadline=None)
@given(st.data())
def test_intersection_dimension_formula(data):
    # dim(A meet B) = dim A + dim B - dim(A + B); empty meets go through the kernel too.
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 8))
    entries = st.integers(0, q - 1)
    a_rows = data.draw(arrays(np.int64, (data.draw(st.integers(0, n)), n), elements=entries))
    b_rows = data.draw(arrays(np.int64, (data.draw(st.integers(0, n)), n), elements=entries))
    a, b = Subspace(a_rows, n, q), Subspace(b_rows, n, q)
    total = Subspace(np.vstack([a_rows, b_rows]), n, q)
    meet = a.intersect(b)
    assert meet.dim == a.dim + b.dim - total.dim
    assert a.contains_rows(meet.basis_array) and b.contains_rows(meet.basis_array)


DEPENDENT_ROWS_MOD_5 = (np.array([[1, 2, 3], [2, 4, 1]]), 5, 1)
SUM_ROW_MOD_2 = (np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]]), 2, 2)


@pytest.mark.parametrize(
    "case", [ZERO, FULL_RANK_TALL, WIDE, FULL_RANK_SQUARE, DEPENDENT_ROWS_MOD_5, SUM_ROW_MOD_2]
)
def test_nullity_matches_sympy_rank(case):
    a, q, rank = case
    sympy_rank = DomainMatrix.from_list(a.tolist(), GF(q)).rank()
    assert sympy_rank == rank
    assert kernel_array(a, q).shape[0] == a.shape[1] - sympy_rank


@pytest.mark.parametrize("q", [2, 3, 13])
def test_inverse_table_is_built_once_and_read_only(q):
    table = inverse_table(q)
    assert inverse_table(q) is table
    assert not table.flags.writeable
    assert [(x * int(table[x])) % q for x in range(1, q)] == [1] * (q - 1)


@pytest.mark.parametrize("q,n", [(2, 64), (3, 41), (3, 40), (2, 10**6)])
def test_codes_past_int64_are_refused(q, n):
    # q^n - 1 > 2^63 - 1: the codes would wrap around instead of sorting like the rows.
    # Refused on every call: the cached weights never hold a refused width.
    for _ in range(2):
        with pytest.raises(InvalidParamsError, match=f"length {n} over F_{q}.*past the int64 maximum"):
            encode_rows(np.full((1, n), q - 1, dtype=np.int64), q)
    with pytest.raises(InvalidParamsError, match="past the int64 maximum"):
        decode_codes(np.array([1]), n, q)


@pytest.mark.parametrize("q,n", [(2, 63), (3, 39)])
def test_the_widest_codes_that_fit_int64_round_trip(q, n):
    top = np.full((1, n), q - 1, dtype=np.int64)
    assert encode_rows(top, q).tolist() == [q**n - 1]
    assert np.array_equal(decode_codes(encode_rows(top, q), n, q), top)


@pytest.mark.parametrize("q,n", [(2, 8), (3, 12), (7, 5)])
def test_code_weights_are_built_once_and_read_only(q, n):
    weights = _code_weights(n, q)
    assert _code_weights(n, q) is weights
    assert not weights.flags.writeable
    assert weights.tolist() == [q**e for e in range(n - 1, -1, -1)]


def previous_rref(a, q):
    """Oracle: the elimination loop rref_array had before its one-update-per-pivot form."""
    q = check_prime_modulus(q)
    a = as_residues(a, q)
    assert a.ndim == 2
    rows, cols = a.shape
    inv = inverse_table(q)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * inv[a[r, c]] % q
        sel = a[:, c].copy()
        sel[r] = 0
        if sel.any():
            a -= sel[:, None] * a[r]
            a %= q
        pivots.append(c)
        r += 1
    return a, pivots


# Past these, previous_rref's table of q inverses would be too large to build.
LARGE_MODULI = (10007, 65537, 2147483647, 3037000493)


def python_rref(a, q):
    """Oracle for any modulus: Gauss-Jordan elimination on lists of Python ints,
    swapping the pivot row into place, with inverses by pow(x, -1, q)."""
    shape = np.shape(a)
    rows = [[x % q for x in row] for row in np.asarray(a).tolist()]
    pivots = []
    r = 0
    for c in range(shape[1]):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(x - row[c] * y) % q for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return np.array(rows, dtype=np.int64).reshape(shape), pivots


def oracle_rref(a, q):
    """previous_rref, or python_rref at a modulus in LARGE_MODULI."""
    return (python_rref if q in LARGE_MODULI else previous_rref)(a, q)


def previous_kernel(a, q):
    """Oracle: kernel_array's construction read off oracle_rref."""
    red, pivots = oracle_rref(np.asarray(a)[:, ::-1], q)
    cols = red.shape[1]
    rank = len(pivots)
    free = np.array([f for f in range(cols) if f not in pivots][::-1], dtype=np.intp)
    basis = np.zeros((cols - rank, cols), dtype=np.int64)
    basis[np.arange(cols - rank), cols - 1 - free] = 1
    basis[:, cols - 1 - np.array(pivots, dtype=np.intp)] = (-red[:rank, free].T) % q
    return basis


@st.composite
def unreduced_matrices(draw):
    """(a, q): up to 14 x 40, entries unreduced or negative, with zero columns and
    repeated rows; in about half the cases an object array of Python ints past int64.
    The large moduli make rref_array reduce between its updates (`_lazy_updates`).
    In about half the cases the rows are distinct, with uniform entries and
    most columns kept: residues near q, whose products pass int64 unless it does."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13, *LARGE_MODULI]))
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 40))
    if draw(st.booleans()):
        distinct = draw(st.integers(1, max(rows, 1)))
        base = draw(arrays(np.int64, (distinct, cols), elements=st.integers(-2 * q, 2 * q)))
        picks = draw(arrays(np.intp, rows, elements=st.integers(0, distinct - 1)))
        kept = draw(arrays(np.bool_, cols))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        base = rng.integers(-2 * q, 2 * q, (rows, cols), endpoint=True)
        picks, kept = np.arange(rows), rng.random(cols) < 0.9
    a = base[picks] * kept
    if draw(st.booleans()):
        a = a.astype(object) * 2**66 + draw(st.integers(0, q - 1)) * kept
    return a, q


@settings(deadline=None, max_examples=300)
@given(unreduced_matrices())
@example((np.zeros((0, 0), dtype=np.int64), 2))
@example((np.zeros((14, 40), dtype=np.int64), 13))
@example((np.tile(np.arange(-13, 27), (14, 1)), 13))
@example((np.eye(14, 40, dtype=np.int64)[::-1] * -1, 11))
@example((np.random.default_rng(0).integers(0, 3037000493, (14, 40)), 3037000493))
@example((np.random.default_rng(1).integers(-2147483647, 0, (14, 40)), 2147483647))
def test_rref_equals_the_previous_loop_bit_for_bit(case):
    a, q = case
    red, pivots = rref_array(a, q)
    want, want_pivots = oracle_rref(a, q)
    assert red.dtype == want.dtype and red.shape == want.shape == np.shape(a)
    assert np.array_equal(red, want) and pivots == want_pivots
    assert np.array_equal(row_space_array(a, q), want[: len(want_pivots)])
    assert np.array_equal(kernel_array(a, q), previous_kernel(a, q))


@pytest.mark.parametrize("q", [2, 3, 13, *LARGE_MODULI])
def test_lazy_updates_is_the_exact_int64_bound(q):
    # k updates take a residue in [0, q) down to above -k (q - 1)^2: one more would pass int64.
    k = _lazy_updates(q)
    assert k >= 1 and k * (q - 1) ** 2 <= 2**63 - 1 < (k + 1) * (q - 1) ** 2
    assert (_lazy_updates(2147483647), _lazy_updates(3037000493)) == (2, 1)


@pytest.mark.parametrize("p,q,r", [(7, 2, 4), (5, 3, 4)])
def test_kernel_equals_the_previous_loop_on_every_class_stack(p, q, r):
    params = CoverParams(p, q, r)
    classes = orbit_classes(params)
    assert len(classes) == params.t
    for cls in classes:
        stack = decode_codes(np.array(cls.codes), params.n, q)
        kernel = kernel_array(stack, q)
        assert np.array_equal(kernel, previous_kernel(stack, q))
        assert np.array_equal(kernel, cls.core.basis_array)


@pytest.mark.parametrize("q", [4, 1, 0, -3, 6, 9])
def test_the_kernels_refuse_a_modulus_that_is_not_prime(q):
    # rref_array([[2, 0], [0, 1]], 4) returned a zero first row with pivots [0, 1],
    # and rref_array([[1, 1]], 1) rank 0.
    for a in ([[2, 0], [0, 1]], [[1, 1]]):
        for kernel in (rref_array, kernel_array, row_space_array):
            with pytest.raises(InvalidParamsError, match=f"^modulus {q} is not prime$"):
                kernel(a, q)


def test_the_kernels_refuse_a_modulus_whose_products_pass_int64():
    # q = 4294967311 is prime and (q - 1)^2 > 2^63: rref_array returned
    # [[4294967087, 4294967088, 4294967308]] for this row, not [[1, 2, 4294967308]].
    q = 4294967311
    for kernel in (rref_array, kernel_array, row_space_array):
        with pytest.raises(InvalidParamsError, match=rf"^modulus {q} with rows of length 1: .*2\^63"):
            kernel([[q - 1, q - 2, 3]], q)
    # The largest modulus whose (q - 1)^2 stays below 2^63.
    q = 3037000493
    red, pivots = rref_array([[q - 1, q - 2, 3]], q)
    assert (red.tolist(), pivots) == ([[1, 2, q - 3]], [0])


@pytest.mark.parametrize(
    "a",
    [np.int64(5), 7, np.zeros((2, 2, 2), dtype=np.int64), np.ones((1, 1, 3), dtype=np.int64)],
    ids=["int64-scalar", "int", "cube", "3-d-row"],
)
def test_the_kernels_take_only_a_vector_or_a_matrix(a):
    # kernel_array(np.int64(5), 3) read the scalar as a 1x1 matrix and returned shape (0, 1);
    # row_space_array(7, 3) returned [[1]]; a 3-d array raised a bare ValueError.
    for kernel in (rref_array, kernel_array, row_space_array):
        with pytest.raises(InvalidParamsError, match=r"^expected a vector or a 2-d array, got shape \("):
            kernel(a, 3)


def test_a_vector_is_read_as_one_row():
    red, pivots = rref_array([0, 2, 1], 3)
    assert red.tolist() == [[0, 1, 2]] and pivots == [1]
    assert row_space_array([0, 2, 1], 3).tolist() == [[0, 1, 2]]
    assert kernel_array([0, 2, 1], 3).tolist() == [[1, 0, 0], [0, 1, 1]]
    assert rref_array(np.zeros(0, dtype=np.int64), 2)[0].shape == (1, 0)


def test_matpow_array_reads_nested_lists_and_numpy_exponents():
    # A nested list raised AttributeError: the shape was read before the residues.
    assert matpow_array([[1, 1], [0, 1]], 2, 3).tolist() == [[1, 2], [0, 1]]
    assert matpow_array([[1, 1], [0, 1]], np.int64(3), 3).tolist() == [[1, 0], [0, 1]]
    assert matpow_array([[2, 1], [0, 2]], 0, 3).tolist() == [[1, 0], [0, 1]]
    assert matpow_array([[4, 3], [0, 7]], 1, 3).tolist() == [[1, 0], [0, 1]]
    q = 3037000493
    assert matpow_array([[q - 1]], 2, q).tolist() == [[1]]


@pytest.mark.parametrize(
    "a, e, q, message",
    [
        # numpy's bare ValueError from matmul.
        (np.ones((2, 3), dtype=np.int64), 2, 3, r"^expected a square 2-d array, got shape \(2, 3\)$"),
        ([1, 2], 2, 3, r"^expected a square 2-d array, got shape \(2,\)$"),
        (np.ones((2, 2, 2), dtype=np.int64), 1, 3, r"^expected a square 2-d array, got shape \(2, 2, 2\)$"),
        # The identity came back.
        ([[1, 1], [0, 1]], -1, 3, r"^exponent -1 is negative$"),
        # Read as 1.
        ([[1, 1], [0, 1]], True, 3, r"^exponent True is not an integer$"),
        ([[1, 1], [0, 1]], 2.0, 3, r"^exponent 2\.0 is not an integer$"),
        # Accepted, while rref_array refuses it.
        ([[1, 1], [0, 1]], 2, 4, r"^modulus 4 is not prime$"),
        ([[1.5, 0], [0, 1]], 2, 3, r"^entries must be integers, got float64 values$"),
        # The largest modulus whose (q - 1)^2 fits int64: a sum of two such products
        # wrapped, and [[q - 1] * 2] * 2 squared gave 290948288 for 2.
        ([[3037000492] * 2] * 2, 2, 3037000493, r"^modulus 3037000493 with rows of length 2: .*2\^63"),
    ],
    ids=["2x3", "vector", "cube", "negative-exponent", "bool-exponent", "float-exponent",
         "modulus-4", "float-entries", "products-past-int64"],
)
def test_matpow_array_refuses_what_the_other_kernels_refuse(a, e, q, message):
    with pytest.raises(InvalidParamsError, match=message):
        matpow_array(a, e, q)


@pytest.mark.parametrize("k", [-1, 4])
def test_iter_echelon_forms_refuses_k_outside_0_to_blocks(k):
    # A bare ValueError; InvalidParamsError is still one.  Refused at the call: the
    # generator it was came back, and refused k only at its first form.
    with pytest.raises(InvalidParamsError, match=rf"^need 0 <= k <= blocks, got k={k}, blocks=3$"):
        iter_echelon_forms(3, k, np.ones(1, dtype=np.int64), np.arange(2)[:, None])
