"""One integer policy at every edge where a scalar or an array enters the package.

An int or any numpy integer, uint64 included, is read by value; a bool, a
float, a complex, a string or None is refused with InvalidParamsError naming
the input.  A Python int past int64 is reduced exactly where a modulus
applies and refused, quoted, where int64 is required.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gonal.action import CoverParams, order_mod
from gonal.atlas import Hyperplane
from gonal.calculus import genus_quotient_by_core
from gonal.errors import InvalidParamsError, integer_array, positive_cap
from gonal.fqlinalg import (
    Subspace,
    as_residues,
    check_prime_modulus,
    decode_codes,
    gaussian_count,
    is_prime,
    iter_echelon_forms,
    kernel_array,
    matpow_array,
    row_space_array,
    rref_array,
)
from gonal.groupring import GroupRingOperator, apply_subgroup_sum, build_group

BIG = 2**70
INTEGERS = [3, np.int64(3), np.uint64(3)]
NON_INTEGERS = [True, np.True_, 3.0, "3", None, 3 + 0j]
REFUSAL = r"is not an integer$|must be integers, got |must be a positive integer, got "
PAST_INT64 = f"must fit int64, got {BIG}$"

GROUP = build_group(CoverParams(5, 2, 3))
LINE = Subspace([[1, 0, 0, 0]], 4, 2)


def _plain(value):
    """`value` in a form that compares by content: arrays as lists, tuples item by item."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _forms(one, entries) -> list:
    """The echelon forms of one row over two blocks, as lists: [one, e] for
    each row e of `entries`, then [0, one]."""
    return [form.tolist() for form in iter_echelon_forms(2, 1, one, entries)]


def _vector(x):
    """A group-ring vector, a list of |G| = 80 entries, with x first."""
    return [x] + [0] * 79


# Each entry point, called with a candidate x, and what it gives for BIG: a value,
# or a regex of the InvalidParamsError it raises.  A scalar entry point reads x
# alone and then checks its range; an array entry point reads x inside nested lists.
SCALAR_EDGES = {
    "check_prime_modulus": (check_prime_modulus, r"^modulus \d+ with rows of length 1: "),
    "is_prime": (is_prime, False),
    "positive_cap": (lambda x: positive_cap(x, "atlas cap"), BIG),
    "CoverParams.p": (lambda x: CoverParams(x, 2, 4), r"^p = 1180591620717411303424 must be an odd prime$"),
    "CoverParams.q": (lambda x: CoverParams(5, x, 3), r"^modulus \d+ with rows of length 1: "),
    "CoverParams.r": (lambda x: CoverParams(5, 2, x).g, (5 - 1) * (BIG - 2) // 2),
    "order_mod.q": (lambda x: order_mod(x, 5), order_mod(BIG % 5, 5)),
    "order_mod.p": (lambda x: order_mod(2, x), r"^1180591620717411303424 is not prime$"),
    "genus_quotient_by_core": (
        lambda x: genus_quotient_by_core(CoverParams(5, 2, 3), x), r"^core_dim \d+ outside 0..4$"
    ),
    "gaussian_count.n": (lambda x: gaussian_count(x, 0, 2), 1),
    "gaussian_count.k": (lambda x: gaussian_count(4, x, 2), r"^need 0 <= k <= n, got k=\d+, n=4$"),
    "gaussian_count.q": (lambda x: gaussian_count(2, 0, x), 1),
    "matpow_array.exponent": (lambda x: matpow_array([[1, 1], [0, 1]], x, 5), [[1, BIG % 5], [0, 1]]),
    "Subspace.ambient_dim": (
        lambda x: Subspace([[1, 0, 0]], x, 2).dim, r"^expected a vector or rows of length 1180591620717411303424,"
    ),
    "FrobeniusGroup.mul": (lambda x: GROUP.mul(x, 0), PAST_INT64),
    "FrobeniusGroup.inv": (lambda x: GROUP.inv(x), PAST_INT64),
    "FrobeniusGroup.left_perm": (lambda x: GROUP.left_perm(x), PAST_INT64),
    "GroupRingOperator.coefficients": (lambda x: GroupRingOperator(GROUP, {0: x}).terms, PAST_INT64),
    "GroupRingOperator.keys": (lambda x: GroupRingOperator(GROUP, {x: 1}).terms, PAST_INT64),
}
ARRAY_EDGES = {
    "as_residues": (lambda x: as_residues([[x, 1]], 5), [[BIG % 5, 1]]),
    "rref_array": (lambda x: rref_array([[x, 1]], 5), rref_array([[BIG % 5, 1]], 5)),
    "row_space_array": (lambda x: row_space_array([[x, 1]], 5), row_space_array([[BIG % 5, 1]], 5)),
    "kernel_array": (lambda x: kernel_array([[x, 1]], 5), kernel_array([[BIG % 5, 1]], 5)),
    "matpow_array": (lambda x: matpow_array([[x, 0], [0, 1]], 2, 5), [[BIG**2 % 5, 0], [0, 1]]),
    "Hyperplane": (lambda x: Hyperplane([x, 1], 5), Hyperplane([BIG % 5, 1], 5)),
    "Subspace": (lambda x: Subspace([[x, 1]], 2, 5), Subspace([[BIG % 5, 1]], 2, 5)),
    # BIG is even: the row is zero, and the matrix diag(0, 1, 1, 1) keeps the line too.
    "Subspace.contains_rows": (lambda x: LINE.contains_rows([[x, 0, 0, 0]]), True),
    "Subspace.is_invariant_under": (
        lambda x: LINE.is_invariant_under([[x, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), True
    ),
    "FrobeniusGroup.mul": (lambda x: GROUP.mul([[x, 1]], 0), PAST_INT64),
    "GroupRingOperator.apply": (lambda x: GroupRingOperator(GROUP, {0: 1}).apply([_vector(x)]), PAST_INT64),
    "apply_subgroup_sum": (lambda x: apply_subgroup_sum(GROUP, Subspace.zero(4, 2), [_vector(x)]), PAST_INT64),
    "decode_codes": (lambda x: decode_codes([x, 1], 2, 2), PAST_INT64),
    "iter_echelon_forms.one": (lambda x: _forms([x], [[0], [1]]), PAST_INT64),
    "iter_echelon_forms.entries": (lambda x: _forms([1], [[x], [1]]), PAST_INT64),
}
EDGES = {f"scalar:{k}": v for k, v in SCALAR_EDGES.items()} | {f"array:{k}": v for k, v in ARRAY_EDGES.items()}


@pytest.mark.parametrize("edge", EDGES)
def test_every_entry_point_reads_integers_by_one_policy(edge):
    call, big = EDGES[edge]
    # Every integer candidate is read as the 3 it holds.
    results = [_plain(call(x)) for x in INTEGERS]
    assert results == [results[0]] * len(INTEGERS)
    for x in NON_INTEGERS:
        with pytest.raises(InvalidParamsError, match=REFUSAL) as refused:
            call(x)
        # The message quotes the value, or the dtype numpy read it as.
        assert repr(x) in str(refused.value) or " values" in str(refused.value)
    if isinstance(big, str):
        with pytest.raises(InvalidParamsError, match=big):
            call(BIG)
    else:
        assert _plain(call(BIG)) == _plain(big)


# Entries of a mixed list: small ints, ints in [2^63, 2^64) (which numpy reads
# alongside other ints as float64), ints of up to 70 bits, numpy integers, and the
# values the policy refuses.
_INTEGER_ENTRIES = st.one_of(
    st.integers(-20, 20),
    st.integers(2**63, 2**64 - 1),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
_REFUSED_ENTRIES = st.sampled_from([True, False, np.True_, 0.0, 2.5, "1", None, 1j])


@st.composite
def _mixed_rows(draw):
    """(rows, q): 1-3 rows of one length 1-4, each entry an integer or, sometimes, a refused value."""
    q = draw(st.sampled_from([2, 3, 5, 1000003]))
    cols = draw(st.integers(1, 4))
    entry = st.one_of(_INTEGER_ENTRIES, _INTEGER_ENTRIES, _REFUSED_ENTRIES)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=3))
    return rows, q


def _is_integer(x) -> bool:
    return type(x) is int or isinstance(x, np.integer)


@settings(deadline=None, max_examples=200)
@given(_mixed_rows())
@example(([[0, 2**63 + 1]], 3))  # numpy reads it as float64
@example(([[np.uint64(2**64 - 1), 1]], 5))
@example(([[True, 1]], 5))  # numpy reads it as int64
@example(([[0, 1], [np.True_, 0]], 5))
@example(([[2**63, True]], 2))  # numpy reads it as uint64
@example(([[0, 2**63 + 1, 0.5]], 3))
def test_every_array_reader_agrees_on_mixed_lists(drawn):
    rows, q = drawn
    entries = [x for row in rows for x in row]
    n = len(rows[0])
    modular = {
        "as_residues": lambda a: as_residues(a, q),
        "rref_array": lambda a: rref_array(a, q),
        "row_space_array": lambda a: row_space_array(a, q),
        "kernel_array": lambda a: kernel_array(a, q),
        "Subspace": lambda a: Subspace(a, n, q),
        "contains_rows": lambda a: Subspace.full(n, q).contains_rows(a),
    }
    # Codes of pairs over F_(2^31): exact up to 2^62 - 1, the largest code.
    exact = {
        "integer_array": lambda a: integer_array(a, "entries"),
        "decode_codes": lambda a: decode_codes(a, 2, 2**31),
        "iter_echelon_forms": lambda a: np.array([form[0][n:] for form in _forms([0] * n, a)][: len(a)]),
        "GroupRingOperator.apply": lambda a: GroupRingOperator(GROUP, {0: 1}).apply(
            [row + [0] * (80 - n) for row in a]
        )[:, :n],
    }
    if not all(map(_is_integer, entries)):
        for read in (*modular.values(), *exact.values()):
            with pytest.raises(InvalidParamsError, match="must be integers, got "):
                read(rows)
        return
    values = [[int(x) for x in row] for row in rows]
    reduced = [[x % q for x in row] for row in values]
    for name, read in modular.items():
        assert _plain(read(rows)) == _plain(read(reduced)), name
    past = next((x for x in entries if not -(2**63) <= int(x) < 2**63), None)
    outside = next((x for x in entries if not 0 <= int(x) < 2**62), None)
    for name, read in exact.items():
        if past is not None:
            with pytest.raises(InvalidParamsError, match=f"must fit int64, got {int(past)}$"):
                read(rows)
        elif name == "decode_codes" and outside is not None:
            with pytest.raises(InvalidParamsError, match=f"^code {int(outside)} is outside 0 .. {2**62 - 1}"):
                read(rows)
        elif name == "decode_codes":
            assert read(rows).tolist() == [[list(divmod(x, 2**31)) for x in row] for row in values]
        elif name == "integer_array" or -(2**63) not in map(int, entries):
            assert read(rows).tolist() == values, name
