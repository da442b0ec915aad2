import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gonal.atlas import Hyperplane
from gonal.errors import AmbientMismatchError, InvalidParamsError
from gonal.fqlinalg import (
    Subspace,
    as_residues,
    decode_codes,
    encode_rows,
    inverse_table,
    iter_subspace_bases,
    kernel_array,
    row_space_array,
    rref_array,
)


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
    with pytest.raises(AmbientMismatchError):
        a.intersect(b)
    with pytest.raises(AmbientMismatchError):
        a.intersect(c)


def test_contains_basics():
    s = Subspace([[1, 0, 1, 0]], 4, 2)
    assert s.contains([0, 0, 0, 0])
    assert s.contains([1, 0, 1, 0])
    assert not s.contains([1, 0, 1, 1])
    assert Subspace.full(4, 2).contains([1, 1, 0, 1])
    assert s.contains_rows([[1, 0, 1, 0], [3, 0, 5, 2]])
    assert not s.contains_rows([[1, 0, 1, 0], [1, 1, 0, 0]])


def test_contains_mismatch_raises():
    s = Subspace([[1, 0, 1, 0]], 4, 2)
    with pytest.raises(AmbientMismatchError):
        s.contains([1, 0, 1])
    # Two vectors of s laid end to end are one vector of the wrong length, not two rows.
    with pytest.raises(AmbientMismatchError):
        s.contains([1, 0, 1, 0] * 2)


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
            assert meet.contains(v) == (a.contains(v) and b.contains(v))


def _hyperplanes(n, q):
    return [Subspace(b, n, q) for b in iter_subspace_bases(n, n - 1, q)]


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
            if a.contains(u):
                continue
            found = True
            multiples = [(j * u) % q for j in range(q)]
            cosets_full = {tuple(_reduce_to_coset(a, w)) for w in multiples}
            assert len(cosets_full) == q
            cosets_meet = {tuple(_reduce_to_coset(meet, w)) for w in multiples}
            assert len(cosets_meet) == q
            assert all(b.contains(w) for w in multiples)
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


@pytest.mark.parametrize("n,k,q,count", [(4, 1, 2, 15), (4, 2, 2, 35), (4, 1, 3, 40), (3, 3, 2, 1)])
def test_iter_subspace_bases_counts(n, k, q, count):
    seen = {Subspace(b, n, q) for b in iter_subspace_bases(n, k, q)}
    assert len(seen) == count


CYCLE = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # e1 -> e3 -> e2 -> e1


def test_transform_and_invariance_guards():
    s = Subspace([[1, 0, 0]], 3, 2)
    assert s.transform(CYCLE) == Subspace([[0, 0, 1]], 3, 2)
    assert not s.is_invariant_under(CYCLE)
    assert Subspace.full(3, 2).is_invariant_under(CYCLE)
    # Entries are read mod the subspace's modulus: 3 = 1 and -1 = 1 over F_2.
    assert s.transform(3 * CYCLE) == s.transform(-CYCLE) == s.transform(CYCLE)
    for bad in (np.eye(2, dtype=np.int64), np.ones((3, 2), dtype=np.int64), np.eye(9)[0], 1):
        with pytest.raises(AmbientMismatchError):
            s.transform(bad)
        with pytest.raises(AmbientMismatchError):
            s.is_invariant_under(bad)


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
    assert [line.contains([big, x]) for x in (0, 1)] == [True, False]
    assert [line.contains([big % 3, x]) for x in (0, 1)] == [True, False]
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
    ],
    ids=["float-normal", "float-modulus", "float-rows", "complex", "string", "big-int-and-float"],
)
def test_no_float_reaches_the_residues(build, message):
    with pytest.raises(InvalidParamsError, match=message):
        build()


def test_uint64_past_int64_is_reduced_exactly():
    big = np.array([2**64 - 1, 2**63 + 1], dtype=np.uint64)
    assert as_residues(big, 7).tolist() == [(2**64 - 1) % 7, (2**63 + 1) % 7]


def test_wrong_shaped_rows_are_refused_not_reshaped():
    # Two rows of length 3 are not one subspace of F_2^2, and two length-2 rows are
    # not one vector of F_2^4: both used to be reshaped silently.
    with pytest.raises(AmbientMismatchError):
        Subspace([[1, 0, 1], [0, 1, 1]], 2, 2)
    s = Subspace([[1, 0, 0, 0]], 4, 2)
    with pytest.raises(AmbientMismatchError):
        s.contains_rows([[1, 0], [0, 0]])
    with pytest.raises(AmbientMismatchError):
        s.contains([[1, 0, 0, 0]])  # one row, but contains takes a vector
    for bad in ([1, 0, 1], np.zeros((1, 2, 4), dtype=np.int64), 1):
        with pytest.raises(AmbientMismatchError):
            Subspace(bad, 4, 2)
        with pytest.raises(AmbientMismatchError):
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
    with pytest.raises(InvalidParamsError, match=f"length {n} over F_{q}.*past the int64 maximum"):
        encode_rows(np.full((1, n), q - 1, dtype=np.int64), q)
    with pytest.raises(InvalidParamsError, match="past the int64 maximum"):
        decode_codes(np.array([1]), n, q)


@pytest.mark.parametrize("q,n", [(2, 63), (3, 39)])
def test_the_widest_codes_that_fit_int64_round_trip(q, n):
    top = np.full((1, n), q - 1, dtype=np.int64)
    assert encode_rows(top, q).tolist() == [q**n - 1]
    assert np.array_equal(decode_codes(encode_rows(top, q), n, q), top)
