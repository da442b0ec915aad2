import operator
import re
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gonal import atlas
from gonal.action import CoverParams, build_action, parameter_sweep
from gonal.atlas import (
    DEFAULT_ATLAS_CAP,
    GaloisReport,
    Hyperplane,
    OrbitClass,
    _codes_at,
    _normal_of_code,
    _orbit_codes,
    conjugate_hyperplane,
    core,
    core_dim,
    core_dim_counts,
    core_dims,
    core_histogram,
    enumerate_hyperplanes,
    galois_closure,
    hyperplane_from_words,
    orbit_classes,
    parse_generator_words,
    parse_word,
    read_fixture,
)
from gonal.cli import main
from gonal.errors import (
    CapExceededError,
    FixtureParseError,
    IdentityCheckError,
    InvalidParamsError,
    check_cap,
    digit_count,
    positive_cap,
    power_digits,
)
from gonal.fqlinalg import (
    Subspace,
    check_code_width,
    decode_codes,
    encode_rows,
    gaussian_count,
    inverse_table,
    kernel_array,
)
from subspace_oracle import all_subspaces


def normal_codes(n, q):
    """Base-q codes of all m normalized normals, ascending (oracle): the normals
    whose leading 1 has w entries after it have codes q^w + arange(q^w)."""
    check_code_width(n, q)
    return np.concatenate([q**w + np.arange(q**w, dtype=np.int64) for w in range(n)])


def all_normals_array(n, q):
    """All normalized normals as an (m, n) array in lexicographic order (oracle)."""
    return decode_codes(normal_codes(n, q), n, q)


@pytest.mark.parametrize("n,q", [(1, 2), (4, 2), (4, 3), (5, 3), (3, 5), (6, 7)])
def test_closed_form_codes_match_the_concatenated_code_table(n, q):
    codes = normal_codes(n, q)
    got = _codes_at(np.arange(codes.size), n, q)
    assert got.dtype == np.int64 and got.tolist() == codes.tolist()
    # Any shape, a 0-d index included.
    assert _codes_at(np.arange(codes.size).reshape(1, -1), n, q).tolist() == [codes.tolist()]
    assert _codes_at(np.int64(codes.size - 1), n, q) == codes[-1]


def test_hyperplane_normalization():
    h = Hyperplane([0, 2, 1, 2], 3)
    assert h.normal == (0, 1, 2, 1)  # scaled by 2^-1 = 2
    assert h.kernel().dim == 3
    with pytest.raises(InvalidParamsError):
        Hyperplane([0, 0, 0], 3)


def test_hyperplane_refuses_a_normal_that_is_not_a_vector():
    # A 2x2 matrix used to be flattened into the normal (1, 0, 0, 1).
    for bad in ([[1, 0], [0, 1]], [[1, 0, 2, 1]], 1):
        with pytest.raises(InvalidParamsError, match="vector"):
            Hyperplane(bad, 2)


def _assert_kernel_is_the_eliminated_one(h):
    got = h.kernel()
    want = kernel_array(h.normal_array().reshape(1, -1), h.modulus)
    rows = got.basis_array
    assert (got.ambient_dim, got.modulus) == (h.ambient_dim, h.modulus)
    assert rows.dtype == want.dtype == np.int64
    assert rows.shape == want.shape == (h.ambient_dim - 1, h.ambient_dim)
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("p,q,r", [(5, 2, 3), (3, 2, 4), (5, 3, 3), (7, 2, 4)])
def test_hyperplane_kernel_in_closed_form_is_the_eliminated_null_space(p, q, r):
    for h in enumerate_hyperplanes(CoverParams(p, q, r)):
        _assert_kernel_is_the_eliminated_one(h)


@pytest.mark.parametrize("q", [2, 3, 13, 876706517, 3037000493])
def test_hyperplane_kernel_matches_the_elimination_on_random_normals(q):
    # 3037000493 is the largest prime modulus admitted: h_i h_l^-1 < (q-1)^2 < 2^63.
    rng = np.random.default_rng(q % 2**32)
    for n in range(1, 9):
        for zeros in range(n):  # normals whose last `zeros` entries are zero, n = 1 included
            for _ in range(5):
                normal = rng.integers(0, q, size=n)
                normal[n - zeros - 1] = rng.integers(1, q)
                normal[n - zeros :] = 0
                _assert_kernel_is_the_eliminated_one(Hyperplane(normal, q))


def test_hyperplane_from_subspace_roundtrip():
    h = Hyperplane([1, 0, 2, 1], 3)
    assert Hyperplane.from_subspace(h.kernel()) == h
    with pytest.raises(InvalidParamsError):
        Hyperplane.from_subspace(Subspace.full(4, 3))


# Small primes, q near a million, and the largest q that (13, q, 3) admits:
# 12 (q - 1)^2 < 2^63 with gcd(13, q - 1) = 1.
_CONSTRUCTOR_MODULI = [2, 3, 5, 1000003, 876706517]


def _normalized_oracle(values, q):
    """Pure-Python normalization: reduce mod q, then scale by the inverse of the first nonzero residue."""
    residues = [int(x) % q for x in values]
    scale = pow(next(x for x in residues if x), -1, q)
    return tuple(x * scale % q for x in residues)


@st.composite
def _constructor_inputs(draw):
    """(input, q): a list of ints, an int64 array, a list of ints past int64, or a uint64 array."""
    q = draw(st.sampled_from(_CONSTRUCTOR_MODULI))
    kind = draw(st.sampled_from(["list", "int64", "big", "uint64"]))
    bounds = {"list": (-3 * q, 3 * q), "int64": (-(2**63), 2**63 - 1),
              "big": (-(2**100), 2**100), "uint64": (0, 2**64 - 1)}[kind]
    values = draw(st.lists(st.integers(*bounds), min_size=1, max_size=8))
    assume(any(x % q for x in values))
    if kind == "int64":
        return np.array(values, dtype=np.int64), q
    if kind == "uint64":
        return np.array(values, dtype=np.uint64), q
    return values, q


def _assert_kept_array(h):
    arr = h.normal_array()
    assert arr.dtype == np.int64 and arr.shape == (len(h.normal),)
    assert arr.tolist() == list(h.normal)
    assert not arr.flags.writeable and h.normal_array() is arr
    with pytest.raises(ValueError):
        arr[0] = 0


@settings(max_examples=300, deadline=None)
@given(_constructor_inputs())
@example(drawn=([0, 2**63 + 1], 2))  # numpy reads this list as float64
def test_hyperplane_constructor_matches_the_pure_python_normalization(drawn):
    values, q = drawn
    h = Hyperplane(values, q)
    assert h.normal == _normalized_oracle(values, q)
    assert all(type(x) is int for x in h.normal)
    _assert_kept_array(h)
    _assert_kept_array(Hyperplane._from_normalized(h.normal, q))


@pytest.mark.parametrize("q", _CONSTRUCTOR_MODULI)
def test_hyperplane_refusals_keep_their_messages(q):
    for zero in ([0, 0, 0], [q, -q, 2 * q], np.zeros(4, dtype=np.uint64), [2**64 * q], []):
        with pytest.raises(InvalidParamsError, match=r"^a hyperplane normal must be nonzero$"):
            Hyperplane(zero, q)
    with pytest.raises(InvalidParamsError, match=r"^a hyperplane normal must be a vector, got shape \(2, 2\)$"):
        Hyperplane([[1, 0], [0, 1]], q)
    with pytest.raises(InvalidParamsError, match=r"^a hyperplane normal must be a vector, got shape \(\)$"):
        Hyperplane(1, q)


def test_hyperplane_order_refuses_other_types_and_other_spaces():
    h = Hyperplane([1, 0, 2], 3)
    # <= and >= raised TypeError while < worked.
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(h, 3)
        for other in (Hyperplane([1, 0, 0], 5), Hyperplane([1, 1], 3), Hyperplane([1, 1, 0, 0], 3)):
            with pytest.raises(InvalidParamsError, match=r"live over different spaces"):
                compare(h, other)
    with pytest.raises(TypeError):
        sorted([h, "h"])
    low, high = Hyperplane([1, 0, 0], 3), Hyperplane([1, 1, 0], 3)
    assert [(a < b, a <= b, a > b, a >= b) for a, b in [(low, h), (high, h), (h, h)]] == [
        (True, True, False, False), (False, False, True, True), (False, True, False, True)]


def test_hyperplane_sorting_orders_the_members_of_a_class_by_normal():
    for cls in orbit_classes(CoverParams(5, 3, 3))[:20]:
        members = sorted(cls.members)
        assert [m.normal for m in members] == sorted(m.normal for m in cls.members)
        assert members[0] == cls.representative


@pytest.mark.parametrize("p,q,r,count", [(3, 2, 4, 15), (5, 2, 3, 15)])
def test_enumerate_hyperplanes_counts(p, q, r, count):
    params = CoverParams(p, q, r)
    planes = list(enumerate_hyperplanes(params))
    assert len(planes) == count == params.m
    assert len(set(planes)) == count
    normals = [h.normal for h in planes]
    assert normals == sorted(normals)
    assert planes[0].normal == (0,) * (params.n - 1) + (1,)


def test_enumerate_matches_array():
    params = CoverParams(5, 3, 3)
    rows = all_normals_array(params.n, params.q)
    gen = [h.normal for h in enumerate_hyperplanes(params)]
    assert gen == [tuple(r.tolist()) for r in rows]


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 3, 3)])
def test_enumeration_matches_the_brute_force_hyperplanes(p, q, r):
    # Independent of the normal blocks: every (n-1)-dim subspace from RREF bases.
    params = CoverParams(p, q, r)
    n = params.n
    oracle = {Hyperplane.from_subspace(sub) for sub in all_subspaces(n, n - 1, q)}
    planes = list(enumerate_hyperplanes(params))
    assert len(planes) == len(oracle) == params.m
    assert set(planes) == oracle
    assert [h.normal for h in planes] == sorted(h.normal for h in oracle)
    assert [tuple(row) for row in all_normals_array(n, q).tolist()] == [h.normal for h in planes]


@pytest.mark.parametrize("cap", [80.9, 80.0, True, np.int64(80), "80.5", " 80", "+80", "٨٠", "0", 0, -3])
def test_positive_cap_refuses_anything_but_a_positive_int(cap):
    # 80.9 is not truncated to 80, nor True read as 1.  A numpy integer, refused
    # before every integer was read by one rule, is read as the int it holds.
    if isinstance(cap, np.integer):
        assert type(positive_cap(cap, "atlas cap")) is int and positive_cap(cap, "atlas cap") == 80
        return
    with pytest.raises(InvalidParamsError, match="^atlas cap must be a positive integer, got "):
        positive_cap(cap, "atlas cap")


def test_enumeration_cap():
    params = CoverParams(13, 3, 3)
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_hyperplanes(params, cap=100))
    assert exc.value.required == 3**12
    with pytest.raises(CapExceededError):
        list(enumerate_hyperplanes(CoverParams(3, 2, 4), cap=10))
    # The default cap is 3^13: (13,3,3) at q^n = 3^12 passes, (5,3,9) at 3^28 does not.
    enumerate_hyperplanes(params)
    with pytest.raises(CapExceededError, match=r"current cap 1594323\)$"):
        enumerate_hyperplanes(CoverParams(5, 3, 9))


def test_enumeration_cap_is_checked_at_the_call():
    # A generator raised only at its first next().
    with pytest.raises(CapExceededError) as exc:
        enumerate_hyperplanes(CoverParams(3, 2, 100))
    assert exc.value.required == 2**196


def test_conjugate_orbit_size_and_period():
    params = CoverParams(3, 2, 4)
    action = build_action(params)
    h = Hyperplane([1, 0, 0, 0], 2)
    orbit = {h}
    cur = h
    for _ in range(params.p):
        cur = conjugate_hyperplane(cur, action)
        orbit.add(cur)
    assert cur == h  # period p
    assert len(orbit) == 3


def test_conjugate_kernel_is_image_of_kernel():
    # The kernel of the conjugate is exactly T applied to the kernel.
    params = CoverParams(3, 2, 4)
    action = build_action(params)
    for h in enumerate_hyperplanes(params):
        conj = conjugate_hyperplane(h, action)
        moved = {tuple((action.matrix_array @ v) % params.q) for v in h.kernel().vectors()}
        assert moved == {tuple(v) for v in conj.kernel().vectors()}


def test_no_hyperplane_is_fixed():
    # gcd(p, q-1) = 1 forbids invariant hyperplanes; check exhaustively.
    for p, q, r in [(3, 2, 4), (5, 2, 3)]:
        params = CoverParams(p, q, r)
        action = build_action(params)
        for h in enumerate_hyperplanes(params):
            assert conjugate_hyperplane(h, action) != h


@pytest.mark.parametrize(
    "p,q,r,t,core_dims",
    [(3, 2, 4, 5, {2}), (5, 2, 3, 3, {0})],
)
def test_orbit_classes_small(p, q, r, t, core_dims):
    params = CoverParams(p, q, r)
    action = build_action(params)
    classes = orbit_classes(params)
    assert len(classes) == t == params.t
    assert {c.core_dim for c in classes} == core_dims
    all_members = [h for c in classes for h in c.members]
    assert len(all_members) == params.m
    assert len(set(all_members)) == params.m
    for c in classes:
        c.verify(action)
        assert c.core_dim >= (p - 1) * (r - 3)
    reps = [c.representative.normal for c in classes]
    assert reps == sorted(reps)


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (3, 2, 5), (5, 2, 3)])
def test_core_bound_exhaustive(p, q, r):
    # Core rank is at least (p-1)(r-3) for every orbit class.
    params = CoverParams(p, q, r)
    action = build_action(params)
    bound = (p - 1) * (r - 3)
    for cls in orbit_classes(params):
        assert cls.core_dim >= bound
        cls.verify(action)


def test_core_bound_on_bundled_fixtures():
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    bound = (params.p - 1) * (params.r - 3)
    for name in ("L1", "L2", "L3", "L4"):
        sub = parse_generator_words(read_fixture(name + ".gens"), params)
        h = Hyperplane.from_subspace(sub)
        assert core(h, action).dim >= bound



def distinct_core_count(params: CoverParams) -> int:
    """(1 + |P^(r-3)(F_Q)|)^k - 1 with Q = q^s0, k = (p - 1)/s0: a core is fixed by
    the F_Q-line, or zero, of the normal in each of the k primary components."""
    big_q, k = params.q**params.s0, (params.p - 1) // params.s0
    return (1 + (big_q ** (params.r - 2) - 1) // (big_q - 1)) ** k - 1


@pytest.mark.parametrize(
    "p, q, r, count", [(5, 2, 3, 1), (7, 2, 4, 99), (5, 3, 4, 82), (3, 2, 6, 85)]
)
def test_classes_with_equal_cores_share_one_core_object(p, q, r, count):
    params = CoverParams(p, q, r)
    assert distinct_core_count(params) == count
    classes = orbit_classes(params)
    assert len({id(cls.core) for cls in classes}) == count
    objects_by_core = {}
    for cls in classes:
        objects_by_core.setdefault(cls.core, set()).add(id(cls.core))
    assert all(len(objects) == 1 for objects in objects_by_core.values())
    assert len(objects_by_core) == count
    assert all(not cls.core.basis_array.flags.writeable for cls in classes)


def test_the_atlas_checks_each_distinct_core_for_invariance_once(monkeypatch, capsys):
    # The 585 classes of (7,2,4) share 99 core objects; orbit_classes checks
    # each once, where it interns it, so 99 invariance checks run, not 585.
    params = CoverParams(7, 2, 4)
    honest = Subspace.contains_rows
    calls = []

    def counted(self, rows):
        calls.append(id(self))
        return honest(self, rows)

    monkeypatch.setattr(Subspace, "contains_rows", counted)
    assert main(["atlas", "--p", "7", "--q", "2", "--r", "4", "--json", "--limit", "0"]) == 0
    capsys.readouterr()
    assert params.t == 585 and distinct_core_count(params) == 99
    assert len(calls) == len(set(calls)) == 99


def test_orbit_classes_retained_memory_at_7_2_4():
    # One core Subspace per distinct core and no per-class __dict__: the
    # classes retained 1,120 bytes each with one core per class and 420 without.
    params = CoverParams(7, 2, 4)
    orbit_classes(params)  # fills the caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classes = orbit_classes(params)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(classes) == params.t
    assert retained / params.t < 700
    assert not hasattr(classes[0], "__dict__")
    assert all(type(cls.codes) is tuple and all(type(c) is int for c in cls.codes) for cls in classes)

def test_orbit_classes_deterministic():
    params = CoverParams(3, 2, 4)
    first = orbit_classes(params)
    second = orbit_classes(params)
    assert first == second


def test_orbit_classes_hold_the_codes_of_their_members():
    params = CoverParams(5, 3, 3)
    for cls in orbit_classes(params):
        assert len(cls.codes) == params.p and all(type(c) is int for c in cls.codes)
        normals = np.array([h.normal for h in cls.members])
        assert encode_rows(normals, params.q).tolist() == list(cls.codes)
        assert cls.representative == cls.members[0]


@pytest.mark.parametrize("code", [0, -1, 2, 2 * 3 + 1, 2 * 3**3, 2 * 3**3 + 5, 3**4, 3**5 + 1])
def test_orbit_class_refuses_a_code_that_is_no_normalized_normal(code):
    # 0 is the zero normal and -1 no code; 2 and 7 lead with a 2 in the low
    # digit table, 2 * 3^3 (+ 5) in the high one; 3^4 and past need five digits.
    cls = orbit_classes(CoverParams(5, 3, 3))[0]
    bad = replace(cls, codes=(code,) + cls.codes[1:])
    message = f"^{code} is not the code of a normalized normal in F_3\\^4$"
    with pytest.raises(InvalidParamsError, match=message):
        bad.members
    with pytest.raises(InvalidParamsError, match=message):
        bad.representative


# (3,2,4) and (5,3,3) give (4, 2) and (4, 3), (7,2,3) gives (6, 2); n is even
# for every triple, so (5, 3) adds halves of unequal width.
@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (6, 2), (5, 3)])
def test_digit_tables_decode_every_normal_code_like_decode_codes(n, q):
    codes = normal_codes(n, q)
    decoded = [tuple(row) for row in decode_codes(codes, n, q).tolist()]
    assert [_normal_of_code(c, n, q) for c in codes.tolist()] == decoded


# (16, 2) has m = 65,535 normals: four sweep chunks, the last one short.
@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (6, 2), (5, 3), (16, 2)])
def test_normal_chunks_gather_the_normals_decode_codes_gives(n, q):
    chunks = list(atlas._normal_chunks(n, q))
    assert [start for start, _ in chunks] == list(range(0, (q**n - 1) // (q - 1), atlas._SWEEP_CHUNK))
    rows = np.concatenate([rows for _, rows in chunks])
    assert rows.dtype == np.int64
    assert np.array_equal(rows, decode_codes(normal_codes(n, q), n, q))


def test_orbit_class_with_no_codes_has_no_representative():
    cls = replace(orbit_classes(CoverParams(5, 2, 3))[0], codes=())
    with pytest.raises(IdentityCheckError, match=r"^orbit with codes \[\] has no representative$"):
        cls.representative


def _corrupted_class_checks():
    """(triple, corrupt(cls, params), expected message(cls, params)) per orbit check."""
    return [
        pytest.param(
            (3, 2, 4), lambda c, P: replace(c, codes=c.codes[:-1] + c.codes[:1]),
            lambda c, P: f"orbit with codes {list(c.codes[:-1] + c.codes[:1])} has size != 3",
            id="size"),
        pytest.param(
            (3, 2, 4), lambda c, P: replace(c, codes=()),
            lambda c, P: "orbit with codes [] has size != 3", id="size-empty"),
        pytest.param(
            (3, 2, 4), lambda c, P: replace(c, codes=c.codes + (max(c.codes) + 1,)),
            lambda c, P: f"orbit with codes {[*c.codes, max(c.codes) + 1]} has size != 3",
            id="size-long"),
        pytest.param(
            (5, 3, 3), lambda c, P: replace(c, codes=c.codes[1:] + c.codes[:1]),
            lambda c, P: f"representative {c.members[1]} is not the least orbit member {c.members[0]}",
            id="least-first"),
        pytest.param(
            # 0 is the zero normal: the least code, first, and no normal's code.
            (5, 3, 3), lambda c, P: replace(c, codes=(0,) + c.codes[1:]),
            lambda c, P: "0 is not the code of a normalized normal in F_3^4", id="first-no-normal"),
        pytest.param(
            # -1 is the least code but not first, and no normal's code.
            (5, 3, 3), lambda c, P: replace(c, codes=c.codes[:1] + (-1,) + c.codes[2:]),
            lambda c, P: "-1 is not the code of a normalized normal in F_3^4", id="least-no-normal"),
        pytest.param(
            (5, 3, 3), lambda c, P: replace(c, codes=c.codes[:1] + c.codes[2:3] + c.codes[1:2] + c.codes[3:]),
            lambda c, P: f"conjugation chain broken at {c.members[0]}", id="chain"),
        pytest.param(
            # 2 q^(n-1) leads with 2 and is past every normal's code, so the least member stays first.
            (5, 3, 3), lambda c, P: replace(c, codes=c.codes[:1] + (2 * P.q ** (P.n - 1),) + c.codes[2:]),
            lambda c, P: f"conjugation chain broken at {c.members[0]}", id="chain-no-normal"),
    ]


@pytest.mark.parametrize("triple, corrupt, message", _corrupted_class_checks())
def test_every_orbit_class_check_can_fail(triple, corrupt, message):
    params = CoverParams(*triple)
    action = build_action(params)
    cls = orbit_classes(params)[1]
    cls.verify(action)
    with pytest.raises(IdentityCheckError) as exc:
        corrupt(cls, params).verify(action)
    assert str(exc.value) == message(cls, params)


def _wrong_cores():
    """(triple, kernel_array stand-in, expected message(params, first class), force invariance)."""
    return [
        pytest.param(
            (5, 3, 3), lambda rows, q: Hyperplane(rows[0], q).kernel().basis_array,
            lambda P, first: f"core of {first.representative} not invariant", False, id="invariance"),
        pytest.param(
            (5, 3, 3), lambda rows, q: np.array([[1, 0, 0, 0]]),
            lambda P, first: f"core dim 1 not a multiple of s0 = {P.s0}", True, id="quantization"),
        pytest.param(
            (3, 2, 4), lambda rows, q: np.zeros((0, 4), dtype=np.int64),
            lambda P, first: f"core dim 0 below rank bound {P.n - P.p}", False, id="rank-bound"),
    ]


@pytest.mark.parametrize("triple, kernel, message, force_invariance", _wrong_cores())
def test_orbit_classes_refuses_a_wrong_core(triple, kernel, message, force_invariance, monkeypatch):
    # The first class interns the first core, so the message names its representative.
    params = CoverParams(*triple)
    first = orbit_classes(params)[0]
    monkeypatch.setattr(atlas, "kernel_array", kernel)
    if force_invariance:
        # Every T-invariant subspace has a dimension divisible by s0, so the
        # quantization check fails only past an invariance check that passes.
        monkeypatch.setattr(Subspace, "is_invariant_under", lambda self, matrix: True)
    with pytest.raises(IdentityCheckError) as exc:
        orbit_classes(params)
    assert str(exc.value) == message(params, first)


def test_orbit_classes_checks_each_distinct_core_once(monkeypatch):
    # The 585 classes of (7,2,4) have 99 distinct cores: orbit_classes checks
    # each once for invariance, and verify reads no core.
    params = CoverParams(7, 2, 4)
    action = build_action(params)
    honest = Subspace.contains_rows
    calls = []
    monkeypatch.setattr(Subspace, "contains_rows", lambda self, rows: calls.append(1) or honest(self, rows))
    classes = orbit_classes(params)
    assert len(classes) == 585 and len(calls) == 99
    for cls in classes:
        cls.verify(action)
    assert len(calls) == 99


def test_orbit_classes_verifies_every_class_before_it_returns(monkeypatch):
    # The 585 classes of (7,2,4) are each verified once, in order, inside
    # orbit_classes: no caller gets a class that has not passed its check.
    params = CoverParams(7, 2, 4)
    honest = OrbitClass.verify
    verified = []
    monkeypatch.setattr(OrbitClass, "verify", lambda self, action: verified.append(self.codes) or honest(self, action))
    classes = orbit_classes(params)
    assert len(verified) == params.t == 585
    assert verified == [cls.codes for cls in classes]
    # A row whose 2nd and 3rd members trade places keeps its members and its
    # core, so only the chain check can tell, and it names the class.
    real = atlas._orbit_codes

    def swapped(params, action):
        codes = real(params, action)
        codes[100, [1, 2]] = codes[100, [2, 1]]
        return codes

    monkeypatch.setattr(atlas, "_orbit_codes", swapped)
    message = f"conjugation chain broken at {classes[100].representative}"
    with pytest.raises(IdentityCheckError, match=f"^{re.escape(message)}$"):
        orbit_classes(params)


def _oracle_partition(params, conjugate):
    """Orbit partition computed on kernels (subspace route), no normals."""
    action = build_action(params)
    remaining = set(enumerate_hyperplanes(params))
    orbits = []
    while remaining:
        h = min(remaining)
        orbit = set()
        cur = h
        while cur not in orbit:
            orbit.add(cur)
            moved = conjugate(cur.kernel(), action)
            cur = Hyperplane.from_subspace(moved)
        orbits.append(frozenset(orbit))
        remaining -= orbit
    return set(orbits)


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 2, 3), (5, 3, 3)])
def test_orbit_classes_match_subspace_oracle_under_both_conventions(p, q, r):
    params = CoverParams(p, q, r)
    classes = orbit_classes(params)
    got = {frozenset(c.members) for c in classes}
    forward = _oracle_partition(params, lambda s, a: s.transform(a.matrix_array))
    backward = _oracle_partition(params, lambda s, a: s.transform(a.inverse_array))
    # Both conventions produce the same partition, which matches the atlas.
    assert got == forward == backward


def test_core_direct_matches_orbit_core():
    params = CoverParams(3, 2, 4)
    action = build_action(params)
    for c in orbit_classes(params):
        for h in c.members:
            assert core(h, action) == c.core


def test_core_is_intersection_of_member_kernels():
    params = CoverParams(5, 2, 3)
    for c in orbit_classes(params):
        meet = Subspace.full(params.n, params.q)
        for h in c.members:
            meet = meet.intersect(h.kernel())
        assert meet == c.core


def test_hyperplane_count_duality():
    # m = [n choose n-1]_q = [n choose 1]_q for every parameter triple.
    for p, q, r in [(3, 2, 4), (5, 2, 3), (13, 3, 3)]:
        params = CoverParams(p, q, r)
        n = params.n
        assert params.m == gaussian_count(n, n - 1, q) == gaussian_count(n, 1, q)


def test_gaussian_count_values():
    assert gaussian_count(5, 0, 2) == 1
    assert gaussian_count(4, 1, 2) == 15
    assert gaussian_count(4, 2, 2) == 35
    assert gaussian_count(4, 1, 3) == 40
    assert gaussian_count(12, 11, 3) == 265720
    assert gaussian_count(6, 2, 3) == gaussian_count(6, 4, 3)
    with pytest.raises(ValueError):
        gaussian_count(4, 5, 2)
    # q = 1 divided by zero.
    for q in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^need q >= 2, got q={q}$"):
            gaussian_count(3, 1, q)



@pytest.mark.parametrize(
    "args, name", [((3.0, 1, 2), "n"), ((3, 1.0, 2), "k"), ((3, 1, 2.5), "q"),
                   ((True, 1, 2), "n"), ((3, np.bool_(True), 2), "k"), ((3, 1, "2"), "q")]
)
def test_gaussian_count_refuses_anything_but_an_integer(args, name):
    # (3.0, 1, 2) used to give the float 7.0, (3, 1, 2.5) a failed-identity
    # error and (3, 1.0, 2) a bare TypeError.
    with pytest.raises(InvalidParamsError, match=f"^{name} .+ is not an integer$"):
        gaussian_count(*args)


def test_gaussian_count_reads_numpy_integers_as_ints():
    count = gaussian_count(np.int64(4), np.int32(1), np.uint8(3))
    assert count == 40 and type(count) is int


def test_galois_closure_small():
    params = CoverParams(3, 2, 4)
    for h in enumerate_hyperplanes(params):
        report = galois_closure(h, params)
        assert not report.is_composite_galois
        assert report.k == 2
        assert report.group == "Z_2^2 ⋊ Z_3"
        assert report.group_order == 12


def test_galois_report_reads_everything_off_core_dim():
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    assert [f.name for f in fields(GaloisReport)] == ["params", "hyperplane", "core_dim"]
    for name in ("L1", "L2", "L3", "L4"):
        h = hyperplane_from_words(read_fixture(name + ".gens"), params, name)
        report = galois_closure(h, params, action)
        # A replaced core dimension carries every derived value with it.
        for dim in core_histogram(params):
            moved = replace(report, core_dim=dim)
            k = params.n - dim
            assert (moved.k, moved.group) == (k, f"Z_3^{k} ⋊ Z_13")
            assert (moved.core_size, moved.group_order) == (3**dim, 13 * 3**k)
            assert not moved.is_composite_galois


def _assert_k_is_s0_times_components(report):
    # k = s0 |J| for the nonempty set J of the normal's primary components, one
    # of the (p - 1)/s0 factors of Phi_p each, so k never passes p - 1.
    params = report.params
    assert report.k % params.s0 == 0 and params.s0 <= report.k <= params.p - 1


@pytest.mark.parametrize("triple", [(7, 2, 4), (5, 3, 4)])
def test_galois_k_is_a_multiple_of_s0_at_most_p_minus_1_on_every_class(triple):
    params = CoverParams(*triple)
    action = build_action(params)
    for cls in orbit_classes(params):
        _assert_k_is_s0_times_components(galois_closure(cls.representative, params, action))


def test_galois_k_is_a_multiple_of_s0_at_most_p_minus_1_on_seeded_normals():
    params = CoverParams(13, 3, 5)
    action = build_action(params)
    normals = np.random.default_rng(20).integers(0, params.q, size=(1000, params.n))
    normals[:, 0] = 1  # nonzero
    for normal in normals:
        _assert_k_is_s0_times_components(galois_closure(Hyperplane(normal, params.q), params, action))


_READER_TRIPLES = [(5, 2, 3), (3, 2, 4), (13, 3, 3)]


@st.composite
def _word_lists(draw):
    """(params, words): generator words over every symbol, the eliminated
    a_(n+j) included, with negative and absent exponents."""
    params = CoverParams(*draw(st.sampled_from(_READER_TRIPLES)))
    q, top = params.q, params.n + params.r - 2
    token = st.tuples(st.integers(1, top), st.none() | st.integers(-2 * q, 2 * q))
    word = st.lists(token, min_size=1, max_size=4).map(
        lambda tokens: " ".join(f"a_{i}" if e is None else f"a_{i}^{e}" for i, e in tokens)
    )
    # As many lists too short to span a hyperplane as long enough ones.
    n = params.n
    count = draw(st.integers(0, n - 2) | st.integers(n - 1, n + 1))
    return params, draw(st.lists(word, min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(_word_lists())
@example(drawn=(CoverParams(5, 2, 3), ["a_1", "a_2^-1", "a_3 a_5"]))
@example(drawn=(CoverParams(5, 2, 3), ["a_1", "a_1^3", "a_5^-1"]))
@example(drawn=(CoverParams(3, 2, 4), ["a_5"]))
@example(drawn=(CoverParams(13, 3, 3), read_fixture("L3.gens").splitlines()[1:]))
@example(drawn=(CoverParams(13, 3, 3), read_fixture("L3.gens").splitlines()[1:] + ["a_13^-1"]))
def test_hyperplane_from_words_reads_a_hyperplane_or_refuses_naming_the_source(drawn):
    params, words = drawn
    q, n = params.q, params.n
    text = "\n".join(words)
    source = "drawn (words).gens"
    tail = f"not a maximal subgroup of Z_{q}^{n}"
    if len(words) < n - 1:
        message = f"{source} has {len(words)} words and spans dimension at most {len(words)}, {tail}"
        with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
            hyperplane_from_words(text, params, source)
        return
    sub = parse_generator_words(text, params)
    if sub.dim == n - 1:
        h = hyperplane_from_words(text, params, source)
        assert h == Hyperplane.from_subspace(sub)
        assert h.kernel() == sub
    else:
        message = f"{source} spans dimension {sub.dim}, {tail}"
        with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
            hyperplane_from_words(text, params, source)


def test_parse_word_basic():
    params = CoverParams(13, 3, 3)
    vec = parse_word("a_1", params)
    assert vec.tolist() == [1] + [0] * 11
    vec = parse_word("a_9 a_12^2", params)
    expected = [0] * 12
    expected[8] = 1
    expected[11] = 2
    assert vec.tolist() == expected


def test_parse_word_block_relation():
    params = CoverParams(13, 3, 3)
    # a_13 is the eliminated generator: minus the sum of a_1..a_12.
    assert parse_word("a_13", params).tolist() == [2] * 12
    # Plain juxtaposition without underscores also parses.
    assert parse_word("a9 a12^2", params).tolist() == parse_word("a_9 a_12^2", params).tolist()


def test_parse_word_negative_exponent():
    params = CoverParams(13, 3, 3)
    assert parse_word("a_1^-1", params).tolist() == [2] + [0] * 11
    assert parse_word("a_13^-1", params).tolist() == [1] * 12


def test_parse_word_reduces_huge_exponents_mod_q():
    # Exponents past int64 used to raise OverflowError, and two just inside it
    # wrapped around: 2(2^63 - 1) = 2 mod 3, not the 1 the int64 sum left.
    params = CoverParams(13, 3, 3)
    big = 2**63 - 1
    assert parse_word("a_1^100000000000000000000", params).tolist() == [1] + [0] * 11
    assert parse_word(f"a_1^{big} a_1^{big}", params).tolist() == [2] + [0] * 11
    assert parse_word(f"a_2^-{big} a_2^-{big}", params).tolist() == [0, 1] + [0] * 10
    # The eliminated generator a_13 is minus the block sum.
    assert parse_word("a_13^100000000000000000000", params).tolist() == [2] * 12
    assert parse_word(f"a_13^{big} a_13^{big}", params).tolist() == [1] * 12


@pytest.mark.parametrize("triple", [(13, 3, 3), (3, 5, 4)])
def test_parse_word_reads_an_exponent_past_the_int_to_str_limit_mod_q(triple):
    # int() refused 5,000 digits, and the word escaped as a bare ValueError.
    params = CoverParams(*triple)
    q = params.q
    nines = "9" * 5000
    residue = (pow(10, 5000, q) - 1) % q
    assert parse_word(f"a_1^{nines}", params).tolist() == parse_word(f"a_1^{residue}", params).tolist()
    assert parse_word(f"a_2^-{nines} a_{params.n + 1}^{nines}", params).tolist() == (
        parse_word(f"a_2^{-residue} a_{params.n + 1}^{residue}", params).tolist()
    )
    text = read_fixture("L3.gens") if triple == (13, 3, 3) else "a_1 a_2\n"
    assert parse_generator_words(text + f"\na_3^{nines}", params) == (
        parse_generator_words(text + f"\na_3^{residue}", params)
    )
    with pytest.raises(FixtureParseError, match="^generator index of 5000 digits out of range"):
        parse_word("a_" + nines, params)
    # Leading zeros are no digits of the index.
    assert parse_word("a_" + "0" * 5000 + "1", params).tolist() == parse_word("a_1", params).tolist()


def test_params_action_mismatch_rejected(monkeypatch):
    params, other = CoverParams(5, 2, 3), CoverParams(3, 2, 4)
    h = Hyperplane([1, 0, 1, 1], 2)
    refusal = re.escape(f"action built for {other}, not {params}")
    with pytest.raises(InvalidParamsError, match=f"^{refusal}$"):
        galois_closure(h, params, build_action(other))
    # An action built for an equal but distinct record is accepted.
    twin = CoverParams(5, 2, 3)
    assert twin is not params
    assert galois_closure(h, params, build_action(twin)) == galois_closure(h, params)
    # The action's own record is accepted by identity, with no field-by-field comparison.
    action = build_action(params)
    monkeypatch.setattr(CoverParams, "__eq__", lambda self, other: pytest.fail("params compared"))
    assert galois_closure(h, params, action).core_dim == core_dim(h, action)


def test_parse_word_errors():
    params = CoverParams(13, 3, 3)
    with pytest.raises(FixtureParseError):
        parse_word("b_2", params)
    with pytest.raises(FixtureParseError):
        parse_word("a_14", params)
    with pytest.raises(FixtureParseError):
        parse_word("", params)
    with pytest.raises(FixtureParseError):
        parse_word("a_3 + a_4", params)


def test_parse_generator_words_comments_and_span():
    params = CoverParams(3, 2, 4)
    text = "# header\n a_1 \n\na_2 a_3  # trailing\n"
    sub = parse_generator_words(text, params)
    assert sub.dim == 2
    assert sub.contains_rows([1, 0, 0, 0])
    assert sub.contains_rows([0, 1, 1, 0])


@pytest.mark.parametrize(
    "name,core_dim,group",
    [
        ("L1", 0, "Z_3^12 ⋊ Z_13"),
        ("L2", 3, "Z_3^9 ⋊ Z_13"),
        ("L3", 6, "Z_3^6 ⋊ Z_13"),
        ("L4", 9, "Z_3^3 ⋊ Z_13"),
    ],
)
def test_bundled_subgroup_fixtures(name, core_dim, group):
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    sub = parse_generator_words(read_fixture(name + ".gens"), params)
    assert sub.dim == params.n - 1
    h = Hyperplane.from_subspace(sub)
    report = galois_closure(h, params, action)
    assert report.core_dim == core_dim
    assert report.group == group
    assert not report.is_composite_galois


@pytest.mark.parametrize("lname,kname", [("L2", "K2"), ("L3", "K3"), ("L4", "K4")])
def test_bundled_core_fixtures_span_the_computed_core(lname, kname):
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    sub = parse_generator_words(read_fixture(lname + ".gens"), params)
    h = Hyperplane.from_subspace(sub)
    expected_core = parse_generator_words(read_fixture(kname + ".gens"), params)
    assert core(h, action) == expected_core


@pytest.mark.parametrize("p,q,r", [(3, 2, 4), (5, 2, 3), (7, 2, 4), (5, 3, 4)])
def test_core_histogram_matches_orbit_classes(p, q, r):
    params = CoverParams(p, q, r)
    observed = {}
    for cls in orbit_classes(params):
        observed[cls.core_dim] = observed.get(cls.core_dim, 0) + 1
    assert core_histogram(params) == observed
    assert sum(observed.values()) == params.t


def test_core_histogram_closed_form_at_13_3_3():
    assert core_histogram(CoverParams(13, 3, 3)) == {9: 4, 6: 156, 3: 2704, 0: 17576}


@pytest.mark.parametrize(
    "p,q,r", [(3, 2, 4), (5, 2, 3), (5, 2, 4), (7, 2, 4), (5, 3, 4), (3, 2, 6)]
)
def test_core_dim_matches_elimination_on_every_class_member(p, q, r):
    params = CoverParams(p, q, r)
    action = build_action(params)
    for cls in orbit_classes(params):
        assert [core_dim(h, action) for h in cls.members] == [cls.core_dim] * p


def _factor_matrices(action):
    """f(T^-1) on the whole space for each of sympy's irreducible factors f of Phi_p
    over F_q, so the component sets below do not rest on the package's tables."""
    from sympy import Poly, cyclotomic_poly, symbols

    p, q = action.params.p, action.params.q
    x = symbols("x")
    _, factors = Poly(cyclotomic_poly(p, x), x, modulus=q).factor_list()
    mats = []
    for f, _ in factors:
        out = np.zeros_like(action.inverse_array)
        for c in f.all_coeffs():
            out = (out @ action.inverse_array + int(c) * np.eye(action.params.n, dtype=np.int64)) % q
        mats.append(out)
    return mats


def _normal_with_components(action, kept):
    """e_1 with the components outside `kept` killed: exactly the components `kept`."""
    params = action.params
    mats = _factor_matrices(action)
    v = np.eye(params.n, dtype=np.int64)[0]
    for i in set(range(len(mats))) - set(kept):
        v = (v @ mats[i]) % params.q
    return Hyperplane(v, params.q)


@pytest.mark.parametrize("triple", [(13, 3, 5), (13, 3, 3)])
def test_core_dim_on_every_set_of_primary_components(triple):
    # e_1 generates the whole block under T^-1, so killing the components
    # outside `kept` leaves a normal with exactly those components.
    params = CoverParams(*triple)
    action = build_action(params)
    k = (params.p - 1) // params.s0
    for size in range(1, k + 1):
        for kept in combinations(range(k), size):
            h = _normal_with_components(action, kept)
            assert core_dim(h, action) == params.n - params.s0 * size == core(h, action).dim


_ORACLE_ACTIONS = {t: build_action(CoverParams(*t)) for t in [(13, 3, 5), (11, 2, 4)]}
_ORACLE_FACTORS = {t: _factor_matrices(a) for t, a in _ORACLE_ACTIONS.items()}


@st.composite
def _sparse_normals(draw):
    """A triple and a normal with at most four nonzero entries, some of its
    primary components killed by factor evaluations, so |J| < k occurs."""
    triple = draw(st.sampled_from(sorted(_ORACLE_ACTIONS)))
    params = _ORACLE_ACTIONS[triple].params
    n, q = params.n, params.q
    v = np.zeros(n, dtype=np.int64)
    for i, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, q - 1)),
                              min_size=1, max_size=4)):
        v[i] = c
    mats = _ORACLE_FACTORS[triple]
    for i in draw(st.sets(st.integers(0, len(mats) - 1), max_size=len(mats) - 1)):
        v = (v @ mats[i]) % q
    assume(v.any())
    return triple, v


@settings(max_examples=200, deadline=None)
@given(_sparse_normals())
def test_core_dim_matches_elimination_on_sparse_normals(drawn):
    triple, v = drawn
    action = _ORACLE_ACTIONS[triple]
    h = Hyperplane(v, action.params.q)
    assert core_dim(h, action) == core(h, action).dim


@pytest.mark.parametrize("p", [13, 7])
def test_core_dim_matches_elimination_at_q_near_a_million(p):
    # Each seeded normal is multiplied by the factors of Phi_p over F_q (sympy's)
    # of a seeded subset, which kills those primary components, so |J| varies.
    params = CoverParams(p, 1000003, 3)
    action = build_action(params)
    factors = _factor_matrices(action)
    rng = np.random.default_rng(p)
    eye = np.eye(params.n, dtype=np.int64)
    checked = set()
    for v in rng.integers(0, params.q, size=(50, params.n)):
        for f, kill in zip(factors, rng.integers(0, 2, size=len(factors))):
            v = v @ (f if kill else eye) % params.q
        if v.any():
            h = Hyperplane(v, params.q)
            checked.add(core_dim(h, action))
            assert core_dim(h, action) == core(h, action).dim
    assert len(checked) == len(factors)


# (13, 876706517, 3): the largest q that (13, q, 3) admits, where Phi_13 stays
# irreducible (s0 = 12); 876706483 is the largest with a split (s0 = 3).  In
# both, one product with U^-1 sums 12 products of residues just below 2^63.
@pytest.mark.parametrize("p,q,r", [(13, 876706517, 3), (13, 876706483, 3), (13, 3, 5), (7, 2, 4), (5, 3, 4)])
def test_core_dim_matches_elimination_up_to_the_int64_edge(p, q, r):
    # 100 dense seeded normals, and 100 sparse ones (one to three nonzero
    # entries) with the components of a seeded proper subset of the factors
    # of Phi_p killed, so that every |J| from 1 to k occurs.
    params = CoverParams(p, q, r)
    action = build_action(params)
    n, s0 = params.n, params.s0
    factors = _factor_matrices(action)
    rng = np.random.default_rng(p + q + r)
    normals = list(rng.integers(0, q, size=(100, n)))
    for _ in range(100):
        v = np.zeros(n, dtype=np.int64)
        size = int(rng.integers(1, 4))
        v[rng.choice(n, size=size, replace=False)] = rng.integers(1, q, size=size)
        for i in rng.permutation(len(factors))[: rng.integers(0, len(factors))]:
            v = v @ factors[i] % q
        normals.append(v)
    seen = set()
    for v in normals:
        if v.any():
            h = Hyperplane(v, q)
            seen.add(core_dim(h, action))
            assert core_dim(h, action) == core(h, action).dim
    assert seen == {n - s0 * j for j in range(1, len(factors) + 1)}


def test_core_dim_alternating_between_two_component_sets():
    params = CoverParams(13, 3, 5)
    action = build_action(params)
    full, part = _normal_with_components(action, (0, 1, 2, 3)), _normal_with_components(action, (1, 3))
    for h in [part, full] * 3:
        assert core_dim(h, action) == core(h, action).dim
    assert core_dim(full, action) == params.n - 12 and core_dim(part, action) == params.n - 6


def test_core_dim_does_not_reuse_a_product_built_from_other_tables(monkeypatch):
    params = CoverParams(13, 3, 5)
    n, s0 = params.n, params.s0
    action = build_action(params)
    h = _normal_with_components(action, (0, 1, 2, 3))
    assert core_dim(h, action) == n - 12
    primary = action.primary
    eye = np.eye(params.p - 1, dtype=np.int64)
    # Coordinates that are not U^-1 are refused when the tables are built, and
    # so is U = U^-1 = I, whose first block is not a component: the table that
    # made core_dim read e_1 in one component alone.
    with pytest.raises(IdentityCheckError, match=r"^U U\^-1 differs from the identity at entry"):
        replace(primary, coordinates=eye)
    with pytest.raises(IdentityCheckError, match=r"^component 0 with basis .* is not invariant"):
        replace(primary, basis=eye, coordinates=eye)
    # The components in reverse order are built, and core_dim reads them: every
    # table that can be built gives the same dimensions.
    e_1 = Hyperplane(eye[0].tolist() + [0] * (n - params.p + 1), params.q)
    part = _normal_with_components(action, (1, 3))
    expected = [core(g, action).dim for g in (e_1, h, part)]
    assert expected == [n - 12, n - 12, n - 6]
    order = [i for start in reversed(range(0, params.p - 1, s0)) for i in range(start, start + s0)]
    reordered = replace(primary, basis=primary.basis[order], coordinates=primary.coordinates[:, order])
    monkeypatch.setattr(action, "primary", reordered)
    assert [core_dim(g, action) for g in (e_1, h, part)] == expected


def test_core_dim_histogram_over_representatives_at_13_3_3():
    # Each class's core is one elimination in orbit_classes: core(h).dim of its representative.
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    classes = orbit_classes(params)
    reps = [cls.representative for cls in classes]
    eliminated = [cls.core_dim for cls in classes]
    assert [core_dim(h, action) for h in reps] == eliminated
    assert core_dims(action, np.array([h.normal for h in reps])).tolist() == eliminated
    observed = {}
    for dim in eliminated:
        observed[dim] = observed.get(dim, 0) + 1
    assert observed == core_histogram(params) == {9: 4, 6: 156, 3: 2704, 0: 17576}


@pytest.mark.parametrize("p,q,r", [(7, 2, 4), (5, 3, 4)])
def test_core_dims_on_every_normal(p, q, r):
    params = CoverParams(p, q, r)
    action = build_action(params)
    hyperplanes = list(enumerate_hyperplanes(params))
    expected = [core(h, action).dim for h in hyperplanes]
    assert [core_dim(h, action) for h in hyperplanes] == expected
    assert core_dims(action, np.array([h.normal for h in hyperplanes])).tolist() == expected


def test_core_dims_on_seeded_normals_at_the_int64_edge():
    # (13, 876706517, 3): each coordinate sums 12 products of residues just below 2^63.
    params = CoverParams(13, 876706517, 3)
    action = build_action(params)
    normals = np.random.default_rng(876706517).integers(0, params.q, size=(1000, params.n))
    assert normals.any(axis=1).all()
    dims = core_dims(action, normals)
    hyperplanes = [Hyperplane(v, params.q) for v in normals]
    assert dims.tolist() == [core_dim(h, action) for h in hyperplanes]
    assert dims.tolist() == [core(h, action).dim for h in hyperplanes]


@pytest.mark.parametrize("triple", [(13, 3, 3), (13, 3, 5)])
def test_a_component_whose_coordinates_sum_to_a_multiple_of_q_is_nonzero(triple):
    # Coordinates (1, 2, 0) of one component sum to 3 = 0 mod 3: a sum reduced
    # mod q, or taken over centered residues (1, -1, 0), would read the
    # component as zero and the core as all of F_3^n.
    params = CoverParams(*triple)
    action = build_action(params)
    n, s0 = params.n, params.s0
    primary = action.primary
    for component in range((params.p - 1) // s0):
        coordinates = np.zeros(params.p - 1, dtype=np.int64)
        coordinates[component * s0 : (component + 1) * s0] = (1, 2, 0)
        block = coordinates @ primary.basis % params.q
        normal = np.concatenate([block, np.zeros(n - params.p + 1, dtype=np.int64)])
        read_back = normal.reshape(-1, params.p - 1) @ primary.coordinates % params.q
        assert read_back[0].tolist() == coordinates.tolist() and not read_back[1:].any()
        h = Hyperplane(normal, params.q)
        assert core_dim(h, action) == n - s0 == core(h, action).dim
        assert core_dims(action, normal[None, :]).tolist() == [n - s0]


@pytest.mark.parametrize(
    "normals, message",
    [
        ([1] + [0] * 35, r"^core_dims takes a 2-d array of normals, got shape \(36,\)$"),
        (np.ones((2, 3, 12), dtype=np.int64),
         r"^core_dims takes a 2-d array of normals, got shape \(2, 3, 12\)$"),
        ([[1] * 12], r"^normals of 12 entries, not n = 36$"),
        ([[1] * 36, [3] * 36, [0] * 36], r"^normal 1 is zero, not a hyperplane normal$"),
        ([[1.5] * 36], r"^entries must be integers, got float64 values$"),
    ],
    ids=["vector", "3-d", "width", "zero-row", "float"],
)
def test_core_dims_refuses_what_is_not_a_stack_of_normals(normals, message):
    action = build_action(CoverParams(13, 3, 5))
    with pytest.raises(InvalidParamsError, match=message):
        core_dims(action, normals)


def test_core_dims_reads_rows_that_are_not_normalized():
    action = build_action(CoverParams(13, 3, 5))
    h = _normal_with_components(action, (1, 3))
    # Scaled, shifted by a multiple of q past int64, negated: one hyperplane each time.
    changes = [(1, 0), (2, 0), (1, 3 * 2**70), (-1, 0)]
    rows = [[c * scale + shift for c in h.normal] for scale, shift in changes]
    assert core_dims(action, rows).tolist() == [core_dim(h, action)] * 4 == [30] * 4


_SWEEP_ACTIONS = {params: build_action(params) for params in parameter_sweep()}


@st.composite
def _normal_stacks(draw):
    """A sweep triple and a (k, n) stack of nonzero rows: dense, sparse (at most
    three nonzero entries) or with exactly one nonzero primary component."""
    params = draw(st.sampled_from(list(_SWEEP_ACTIONS)))
    action = _SWEEP_ACTIONS[params]
    p, q, n, s0 = params.p, params.q, params.n, params.s0
    entries = st.integers(0, q - 1)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "single"]), min_size=1, max_size=5)):
        row = np.zeros(n, dtype=np.int64)
        if kind == "dense":
            row[:] = draw(st.lists(entries, min_size=n, max_size=n))
        elif kind == "sparse":
            for i, c in draw(st.lists(st.tuples(st.integers(0, n - 1), entries), min_size=1, max_size=3)):
                row[i] = c
        else:
            start = s0 * draw(st.integers(0, (p - 1) // s0 - 1))
            coordinates = np.zeros((params.r - 2, p - 1), dtype=np.int64)
            coordinates[:, start : start + s0] = np.reshape(
                draw(st.lists(entries, min_size=(params.r - 2) * s0, max_size=(params.r - 2) * s0)),
                (params.r - 2, s0),
            )
            row[:] = (coordinates @ action.primary.basis % q).ravel()
        assume(row.any())
        rows.append(row)
    return params, np.array(rows)


@settings(max_examples=100, deadline=None)
@given(_normal_stacks())
def test_core_dims_matches_elimination_on_random_stacks(drawn):
    params, rows = drawn
    action = _SWEEP_ACTIONS[params]
    expected = [core(Hyperplane(row, params.q), action).dim for row in rows]
    assert core_dims(action, rows).tolist() == expected


@pytest.mark.parametrize(
    "p,q,r",
    [(P.p, P.q, P.r) for P in parameter_sweep() if P.q**P.n <= DEFAULT_ATLAS_CAP],
)
def test_core_dim_counts_are_p_times_the_closed_form(p, q, r):
    params = CoverParams(p, q, r)
    counts = core_dim_counts(params)
    assert counts == {dim: p * count for dim, count in core_histogram(params).items()}
    assert list(counts) == sorted(counts, reverse=True) and sum(counts.values()) == params.m


def test_core_dim_counts_refuses_past_the_cap_before_building_the_action(monkeypatch):
    monkeypatch.setattr(atlas, "build_action", lambda params: pytest.fail("built the action"))
    with pytest.raises(CapExceededError, match=r"^counting core dimensions needs ambient size 4096"):
        core_dim_counts(CoverParams(7, 2, 4), cap=4095)


def test_galois_closure_rejects_a_corrupted_coordinate_table(monkeypatch):
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    primary = action.primary
    assert not primary.basis.flags.writeable and not primary.coordinates.flags.writeable
    # Zeroing the first s0 columns of U^-1 zeroes the first column of U U^-1:
    # refused when the tables are built.
    coordinates = primary.coordinates.copy()
    coordinates[:, : params.s0] = 0
    with pytest.raises(IdentityCheckError, match=r"^U U\^-1 differs from the identity at entry \(0, 0\)$"):
        replace(primary, coordinates=coordinates)
    # A core dimension off by one gives L1 k = 11, and 3^11 != 1 mod 13.
    h = Hyperplane.from_subspace(parse_generator_words(read_fixture("L1.gens"), params))
    assert galois_closure(h, params, action).k == 12
    true_core_dim = atlas.core_dim
    monkeypatch.setattr(atlas, "core_dim", lambda h, action: true_core_dim(h, action) + 1)
    with pytest.raises(IdentityCheckError, match=r"^q\^k != 1 mod p for k = 11; core computation is wrong$"):
        galois_closure(h, params, action)


@pytest.mark.parametrize("p,q,r", [(7, 2, 3), (13, 3, 3)])
def test_galois_closure_raises_when_every_hyperplane_is_invariant(p, q, r):
    # An inverse that is the identity would fix every hyperplane; its block
    # has one eigenspace per period, so building the tables refuses it.
    # (With k = 1 the whole block is the one component and no table check
    # can tell; building the action refuses an identity matrix.)
    params = CoverParams(p, q, r)
    action = build_action(params)
    action._inverse = np.eye(params.n, dtype=np.int64)
    h = next(enumerate_hyperplanes(params))
    with pytest.raises(IdentityCheckError, match=rf"^F_{q}\^{p - 1} split into spaces of dimensions "
                       rf"\[{p - 1}\], not \(p-1\)/s0 = {(p - 1) // params.s0} of dimension"):
        galois_closure(h, params, action)


@pytest.mark.parametrize("function", [conjugate_hyperplane, core, core_dim])
@pytest.mark.parametrize(
    "normal, modulus",
    [([1] + [0] * 11, 2), ([1] + [0] * 12, 3), ([1] + [0] * 10, 3)],
    ids=["over-F2", "13-entries", "11-entries"],
)
def test_hyperplane_functions_reject_a_foreign_hyperplane(function, normal, modulus):
    # core used to return a core over F_3 for a normal over F_2, and to raise
    # a bare numpy ValueError for a 13-entry normal.
    action = build_action(CoverParams(13, 3, 3))
    with pytest.raises(InvalidParamsError, match="^hyperplane and action live over different spaces$"):
        function(Hyperplane(normal, modulus), action)


def _matrix_power_orbit_codes(params, action):
    """The sweep as it was before the successor permutation: all m normals moved
    by p - 1 matrix products, each conjugate normalized and encoded (oracle)."""
    p, q, n = params.p, params.q, params.n
    inv = inverse_table(q)
    normals = all_normals_array(n, q)
    codes = np.empty((normals.shape[0], p), dtype=np.int64)
    codes[:, 0] = encode_rows(normals, q)
    cur = normals
    for j in range(1, p):
        cur = (cur @ action.inverse_array) % q
        lead = cur[np.arange(cur.shape[0]), np.argmax(cur != 0, axis=1)]
        cur = (cur * inv[lead][:, None]) % q
        codes[:, j] = encode_rows(cur, q)
    return codes[codes[:, 0] == codes.min(axis=1)]


SWEEP_TRIPLES = [(3, 2, 4), (5, 2, 3), (5, 2, 4), (7, 2, 4), (5, 3, 4), (3, 2, 6), (7, 2, 5), (13, 3, 3)]


@pytest.mark.parametrize("triple", SWEEP_TRIPLES, ids=lambda t: "-".join(map(str, t)))
def test_orbit_codes_match_the_matrix_power_sweep(triple):
    params = CoverParams(*triple)
    action = build_action(params)
    got = _orbit_codes(params, action)
    expected = _matrix_power_orbit_codes(params, action)
    assert got.shape == (params.t, params.p)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_orbit_codes_peak_memory_at_13_3_3():
    # The matrix-power sweep peaked at about 152 MB here: five (m, n) int64 arrays.
    # The sweep through a table of all m codes and searchsorted peaked at about
    # 13 MB; with normals indexed in closed form it peaks at about 8.8 MB, four
    # length-m index arrays while the orbit minima are gathered.
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    tracemalloc.start()
    try:
        _orbit_codes(params, action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


def test_orbit_codes_reject_a_successor_array_with_two_entries_swapped(monkeypatch):
    # Normals 0 and 1 lie in different orbits of (5,2,3), so the swap merges
    # two p-cycles into one of length 2p.
    params = CoverParams(5, 2, 3)
    action = build_action(params)
    honest = atlas._successors

    def swapped(action):
        succ = honest(action)
        succ[[0, 1]] = succ[[1, 0]]
        return succ

    monkeypatch.setattr(atlas, "_successors", swapped)
    with pytest.raises(IdentityCheckError, match=r"5th conjugate of the representative .* not itself"):
        _orbit_codes(params, action)


def test_orbit_codes_reject_a_representative_that_is_its_own_conjugate(monkeypatch):
    # Pointing normal 0, the least of its orbit, at itself pulls the rest of
    # its orbit onto it: the p-cycle check and the class count still pass, but
    # its row repeats one normal p times and leaves p - 1 others uncovered.
    params = CoverParams(5, 2, 3)
    action = build_action(params)
    honest = atlas._successors

    def fixed(action):
        succ = honest(action)
        succ[0] = 0
        return succ

    monkeypatch.setattr(atlas, "_successors", fixed)
    with pytest.raises(IdentityCheckError, match=r"^an orbit has fewer than 5 distinct members: "
                       r"the representative \(0, 0, 0, 1\) is its own conjugate$"):
        _orbit_codes(params, action)


def test_orbit_codes_reject_an_image_that_does_not_lead_with_1(monkeypatch):
    # An inverse table that calls 1 the inverse of 2 leaves every image that
    # leads with a 2 as it is, and no listed normal leads with a 2.
    params = CoverParams(5, 3, 3)
    action = build_action(params)
    monkeypatch.setattr(atlas, "inverse_table", lambda q: np.array([0, 1, 1]))
    message = r"^conjugation maps the normal \(0, 0, 0, 1\) to \(2, 0, 0, 0\), which is not a listed normal$"
    with pytest.raises(IdentityCheckError, match=message):
        _orbit_codes(params, action)


def test_orbit_codes_reject_an_action_whose_inverse_is_the_identity():
    params = CoverParams(5, 2, 3)
    fake = SimpleNamespace(params=params, inverse_array=np.eye(params.n, dtype=np.int64))
    with pytest.raises(IdentityCheckError, match=f"found {params.m} orbit classes, expected t = {params.t}"):
        _orbit_codes(params, fake)


def test_orbit_codes_reject_a_successor_off_the_list_of_normals():
    # A singular T^(-1) sends e_0 to the zero row, which is no normal.
    params = CoverParams(5, 2, 3)
    inverse = build_action(params).inverse_array.copy()
    inverse[0] = 0
    fake = SimpleNamespace(params=params, inverse_array=inverse)
    with pytest.raises(IdentityCheckError, match=r"\(1, 0, 0, 0\) to \(0, 0, 0, 0\), which is not a listed normal"):
        _orbit_codes(params, fake)


@pytest.mark.parametrize("triple", [(5, 3, 3), (3, 2, 5), (7, 2, 4), (5, 3, 4), (5, 2, 5)],
                         ids=lambda t: "-".join(map(str, t)))
def test_conjugate_hyperplane_matches_the_normalizing_constructor(triple):
    # q = 3: half the images lead with a 2 and must be scaled by its inverse.
    # r > 3: the companion-block rule runs on every one of the r - 2 blocks.
    params = CoverParams(*triple)
    action = build_action(params)
    for h in enumerate_hyperplanes(params):
        expected = Hyperplane((h.normal_array() @ action.inverse_array) % params.q, params.q)
        assert conjugate_hyperplane(h, action) == expected


def test_conjugate_hyperplane_builds_no_table_of_inverses(monkeypatch):
    # CoverParams accepts q = 10^9 + 7; a table of its inverses has 10^9 entries.
    params = CoverParams(3, 1000000007, 4)
    action = build_action(params)
    monkeypatch.setattr(atlas, "inverse_table", lambda q: pytest.fail("a table of inverses mod q was built"))
    q = params.q
    for normal in [(1, 0, 0, 0), (1, 5, q - 1, 7), (0, 1, 2, 3), (0, 0, 1, q - 2), (0, 0, 0, 1)]:
        expected = Hyperplane((np.array(normal) @ action.inverse_array) % q, q)
        assert conjugate_hyperplane(Hyperplane(normal, q), action) == expected


def _action_with_inverse_t_squared(params):
    """The action with T^2 in place of T^(-1): the same orbits, members in another order."""
    action = build_action(params)
    action._inverse = action.matrix_array @ action.matrix_array % params.q
    return action


@pytest.mark.parametrize("triple", [(5, 3, 3), (7, 2, 3)], ids=lambda t: "-".join(map(str, t)))
def test_the_chain_check_does_not_share_the_sweep_inverse(triple):
    # The sweep follows the wrong inverse and still finds every orbit, so only
    # a chain check that computes T^(-1) by itself can tell.
    params = CoverParams(*triple)
    honest = _orbit_codes(params, build_action(params))
    action = _action_with_inverse_t_squared(params)
    swept = _orbit_codes(params, action)
    assert [set(row) for row in swept.tolist()] == [set(row) for row in honest.tolist()]
    assert swept.tolist() != honest.tolist()
    first = orbit_classes(params)[0]
    message = f"conjugation chain broken at {first.representative}"
    with pytest.raises(IdentityCheckError, match=f"^{re.escape(message)}$"):
        replace(first, codes=tuple(swept[0].tolist())).verify(action)


@pytest.mark.parametrize("triple", [(5, 3, 3), (7, 2, 3)], ids=lambda t: "-".join(map(str, t)))
def test_atlas_exits_1_when_the_sweep_follows_the_wrong_inverse(triple, monkeypatch, capsys):
    monkeypatch.setattr("gonal.atlas.build_action", _action_with_inverse_t_squared)
    p, q, r = (str(x) for x in triple)
    code = main(["atlas", "--p", p, "--q", q, "--r", r])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "conjugation chain broken at Hyperplane(" in err


def test_power_digits_counts_exactly_on_both_sides_of_the_switch():
    # The value is built while (b - 1) exp + f <= 2^16, b and f the bit lengths
    # of base and factor; past that the count comes from decimal logarithms.
    for base, factor in [(2, 1), (3, 1), (5, 3), (10, 1), (10, 1000), (13, 65534), (1000, 1), (65537, 7)]:
        b, f = base.bit_length(), factor.bit_length()
        switch = ((1 << 16) - f) // (b - 1)
        for exp in (0, 1, switch - 1, switch, switch + 1, switch + 2, 2 * switch):
            assert power_digits(base, exp, factor) == digit_count(factor * base**exp), (base, exp, factor)
    # Exact powers of ten: the count is the exponent plus one on both sides.
    for k in (1, 19728, 65536, 65537, 10**6):
        assert power_digits(10, k) == k + 1
        assert power_digits(100, k, 10) == 2 * k + 2


def test_check_cap_decides_from_bit_lengths_without_building_the_power():
    # 5^(10^12) has about 7 * 10^11 digits: building it would not finish.
    with pytest.raises(CapExceededError) as exc:
        check_cap(3**13, "cap", "sweep needs ambient size {}", 5, 10**12)
    assert exc.value.required is None
    assert exc.value.required_text == "<698970004337 digits>"
    assert str(exc.value) == (
        "sweep needs ambient size <698970004337 digits> "
        "(required cap <698970004337 digits>, current cap 1594323)"
    )
    # At and just past the cap the comparison is exact.
    assert check_cap(3**13, "cap", "{}", 3, 13) == 3**13
    with pytest.raises(CapExceededError) as exc:
        check_cap(3**13 - 1, "cap", "{}", 3, 13)
    assert exc.value.required == 3**13 and exc.value.required_text == str(3**13)
    check_cap(2**64, "cap", "{}", 2, 64)
    with pytest.raises(CapExceededError):
        check_cap(2**64, "cap", "{}", 2, 65)
    # With a factor, as |G| = p q^n: at the cap it passes, one below it is refused.
    assert check_cap(13 * 3**12, "cap", "{}", 3, 12, 13) == 13 * 3**12
    with pytest.raises(CapExceededError) as exc:
        check_cap(13 * 3**12 - 1, "cap", "group of order {} exceeds", 3, 12, 13)
    assert (exc.value.required, str(exc.value)) == (
        13 * 3**12, f"group of order {13 * 3**12} exceeds (required cap {13 * 3**12}, current cap {13 * 3**12 - 1})"
    )
    # The order of G at (3,5,2000000), 3 * 5^3999996, is never built where its
    # digits could not be printed.
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as exc:
            check_cap(512, "cap", "group of order {} exceeds", 5, 3999996, 3)
        assert time.perf_counter() - start < 0.5
    finally:
        sys.set_int_max_str_digits(old)
    assert exc.value.required is None
    assert str(exc.value) == "group of order <2795878 digits> exceeds (required cap <2795878 digits>, current cap 512)"
