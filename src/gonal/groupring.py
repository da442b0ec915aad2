"""Exact group-ring identity checks on the regular representation.

The extended group G = N x| P (N = Z_q^n the homology group, P = Z_p the
lifted gonal action) is small enough at oracle scale to materialize.  The
identities driving the isogeny bookkeeping are pure group-ring statements,
so checking them on any faithful module certifies them; the regular
representation is the canonical choice.  Everything is integer arithmetic,
zero tolerance.

For a hyperplane L < N with transversal element u (any u outside L), the
checked subspace is

    A_L = { z : h z = z for all h in L,  sum_j (j u) z = 0 },

read in closed form off the L-coset space, so no elimination runs.  The
right coset L (v, e) is fixed by e and normal . v, and left multiplication
by j u shifts normal . v by j (normal . u) != 0, so the q multiples of u
sum each coset to all q cosets of its twist fibre: the coset matrix is one
all-ones q x q block per fibre, and A_L is spanned by the differences of
two cosets in one fibre, p(q-1) of them.  The headline identity: (sum over
h in L) composed with (sum over powers of the twist) acts on A_L as
multiplication by q^(n-1), with every twisted cross term vanishing
identically.  The sum over L is applied once per hyperplane, to the p
twisted copies of the basis stacked; the scalar image is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import AdaptedAction, CoverParams, build_action
from .atlas import Hyperplane
from .errors import (
    CapExceededError,
    IdentityCheckError,
    InvalidParamsError,
    InvalidTransversalError,
    quoted_power,
)
from .fqlinalg import decode_codes, encode_rows

DEFAULT_GROUP_CAP = 512


class FrobeniusGroup:
    """The semidirect product N x| P, its elements coded as integers.

    Elements are pairs (v, e) with v in Z_q^n and e in Z_p, multiplying by
    (v, e)(w, f) = (v + T^e w, e + f).  The pair (v, e) is the integer
    e q^n + code(v), code(v) the base-q number with digits v; codes are also
    element indices, so the kernel N is 0 .. q^n - 1 and the identity is 0.
    A group of order past `cap` is refused before anything is built.
    """

    def __init__(
        self, params: CoverParams, action: AdaptedAction | None = None, cap: int = DEFAULT_GROUP_CAP
    ):
        # |G| = p q^n is built only if its digits can be printed.
        order, text = quoted_power(params.q, params.n, factor=params.p)
        if order is None or order > cap:
            raise CapExceededError(
                f"group of order {text} exceeds the regular-representation cap",
                required=order,
                cap=cap,
                required_text=text,
            )
        self.params = params
        self.action = action if action is not None else build_action(params)
        p, q, n = params.p, params.q, params.n
        self._tpow = [self.action.power_array(e) for e in range(p)]
        # row c is the translation with code c
        self._translations = decode_codes(np.arange(q**n), n, q)
        self._perm_cache: dict[int, np.ndarray] = {}
        # ((L, u), (A_L basis, sum_L of its p twists)) of the last _fixed call
        self._fixed_last: tuple = (None, None)

    @property
    def order(self) -> int:
        return self.params.group_order

    def _split(self, g: int) -> tuple[int, np.ndarray]:
        """(twist, translation) of the element with code g."""
        e, c = divmod(g, len(self._translations))
        return e, self._translations[c]

    def _code(self, v: np.ndarray, e: int) -> int:
        """Code of (v mod q, e mod p)."""
        q = self.params.q
        return (e % self.params.p) * len(self._translations) + int(encode_rows(v % q, q))

    def mul(self, a: int, b: int) -> int:
        e, v = self._split(a)
        f, w = self._split(b)
        return self._code(v + self._tpow[e] @ w, e + f)

    def inv(self, a: int) -> int:
        e, v = self._split(a)
        return self._code(-(self._tpow[-e % self.params.p] @ v), -e)

    def element_order(self, a: int) -> int:
        acc = a
        k = 1
        while acc != 0:
            acc = self.mul(acc, a)
            k += 1
        return k

    def left_perm(self, g: int) -> np.ndarray:
        """perm with perm[x] = g * x, for every element code x.

        For x = f q^n + i, the element (w_i, f), the product is (v + T^e w_i,
        e + f), so one array product gives the codes of every moved translation.
        """
        cached = self._perm_cache.get(g)
        if cached is None:
            p, q = self.params.p, self.params.q
            e, v = self._split(g)
            moved = (v + self._translations @ self._tpow[e].T) % q
            twists = (e + np.arange(p, dtype=np.int64)) % p
            cached = (twists[:, None] * len(moved) + encode_rows(moved, q)).reshape(-1)
            cached.flags.writeable = False
            self._perm_cache[g] = cached
        return cached

    def spot_check_axioms(self, trials: int = 64, seed: int = 0):
        """Identity and inverses exhaustively; associativity on random triples."""
        for g in range(self.order):
            if self.mul(0, g) != g or self.mul(g, 0) != g:
                raise IdentityCheckError(f"identity fails at {g}")
            if self.mul(g, self.inv(g)) != 0:
                raise IdentityCheckError(f"inverse fails at {g}")
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            a, b, c = rng.integers(0, self.order, size=3).tolist()
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise IdentityCheckError(f"associativity fails at {(a, b, c)}")


def build_group(params: CoverParams, cap: int = DEFAULT_GROUP_CAP) -> FrobeniusGroup:
    """Materialize G = N x| P after checking the size cap and group axioms."""
    group = FrobeniusGroup(params, cap=cap)
    group.spot_check_axioms()
    return group


@dataclass(frozen=True)
class FrobeniusReport:
    order: int
    kernel_size: int
    kernel_orbit_count: int


def frobenius_check(group: FrobeniusGroup) -> FrobeniusReport:
    """Verify the Frobenius structure exhaustively at cap scale.

    (a) every element outside N has order exactly p, (b) no nontrivial
    twist fixes a nonzero translation (trivial centralizers), (c) twist
    orbits on N - {1} all have length p.  Any failure raises with the
    witness element.
    """
    params = group.params
    p, q, n = params.p, params.q, params.n
    size = q**n
    for g in range(size, group.order):
        if group.element_order(g) != p:
            raise IdentityCheckError(f"element {g} outside the kernel has order != {p}")
    translations = group._translations
    # powers[e][c] is the code of T^e applied to the translation with code c
    powers = [encode_rows((translations @ group._tpow[e].T) % q, q) for e in range(p)]
    codes = np.arange(size)
    for e in range(1, p):
        fixed = np.flatnonzero(powers[e][1:] == codes[1:])
        if fixed.size:
            raise IdentityCheckError(
                f"twist power {e} centralizes nonzero translation "
                f"{tuple(translations[fixed[0] + 1].tolist())}"
            )
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    orbit_count = 0
    for c in range(1, size):
        if seen[c]:
            continue
        orbit = {int(moved[c]) for moved in powers}
        if len(orbit) != p:
            raise IdentityCheckError(
                f"twist orbit of {tuple(translations[c].tolist())} has size {len(orbit)} != {p}"
            )
        seen[list(orbit)] = True
        orbit_count += 1
    if orbit_count != (q**n - 1) // p:
        raise IdentityCheckError(
            f"{orbit_count} twist orbits on N - {{1}}, expected (q^n - 1)/p = {(q**n - 1) // p}"
        )
    return FrobeniusReport(order=group.order, kernel_size=size, kernel_orbit_count=orbit_count)


class GroupRingOperator:
    """Finitely supported integer combination of group elements, keyed by code.

    Operators act on the regular module by permutation sums; integer
    coefficients keep everything exact.
    """

    def __init__(self, group: FrobeniusGroup, terms: dict[int, int]):
        self.group = group
        self.terms = {g: int(c) for g, c in terms.items() if c != 0}

    @classmethod
    def subgroup_sum(cls, group: FrobeniusGroup, elements) -> "GroupRingOperator":
        return cls(group, {g: 1 for g in elements})

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply to rows of an integer vector/matrix over the regular module."""
        vec = np.asarray(vec, dtype=np.int64)
        out = np.zeros_like(vec)
        for g, c in self.terms.items():
            perm = self.group.left_perm(g)
            moved = np.zeros_like(vec)
            moved[..., perm] = vec
            out += c * moved
        return out


def _multiple_codes(rows: np.ndarray, q: int) -> list[list[int]]:
    """codes[i][j] is the code of the translation j rows[i], for j = 0 .. q-1."""
    return encode_rows((rows[:, None, :] * np.arange(q)[:, None]) % q, q).tolist()


def apply_subgroup_sum(group: FrobeniusGroup, basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Apply sum_{h in L} h, for L the translations spanned by the rows of `basis`.

    L is elementary abelian and every h in L is sum_b c_b b for unique c_b in
    Z_q, so in Z[L] the sum is the product over rows b of (1 + b + ... +
    b^(q-1)): (n-1)(q-1) permutations instead of q^(n-1).  Each factor holds
    the inverse (q-j) b of every term j b, so gathering along the left
    permutations (g z = z[perm of g^-1]) gives the same sum as scattering.
    """
    q = group.params.q
    out = np.asarray(vec, dtype=np.int64)
    for row_codes in _multiple_codes(basis, q):
        acc = out.copy()
        for code in row_codes[1:]:
            acc += out.take(group.left_perm(code), axis=-1)
        out = acc
    return out


def _coset_partition(group: FrobeniusGroup, subgroup_elems: list[int]):
    """Right cosets L x: returns (coset index per element, representative indices).

    Each element's representative is the least index reachable by left
    L-translation, a running minimum over the left permutations, so only one
    |G| array is held.  A representative is its own minimum, and cosets are
    numbered in the order of their representatives.
    """
    rep_of = np.arange(group.order, dtype=np.int64)
    for h in subgroup_elems:
        np.minimum(rep_of, group.left_perm(h), out=rep_of)
    is_rep = rep_of == np.arange(group.order)
    coset_idx = (np.cumsum(is_rep) - 1)[rep_of]
    return coset_idx, np.flatnonzero(is_rep)


def _default_transversal(group: FrobeniusGroup, L: Hyperplane) -> np.ndarray:
    """The first translation in element order outside L, i.e. with normal . u != 0."""
    translations = group._translations
    outside = np.flatnonzero(translations @ L.normal_array() % group.params.q)
    if outside.size == 0:
        raise IdentityCheckError("hyperplane kernel exhausts the translation group")
    return translations[outside[0]].copy()


def fixed_subspace(
    group: FrobeniusGroup, L: Hyperplane, transversal_elem=None
) -> np.ndarray:
    """Read-only integer basis (rows) of A_L inside the regular module.

    Conditions: fixed by every translation in L, annihilated by the sum of
    the q multiples of the transversal element (any vector outside L; None
    picks the first one).  Vectors fixed by L are exactly the functions
    constant on right L-cosets, and the sum of the multiples adds up each
    twist fibre's q cosets, so row i is coset f minus the first coset of
    f's fibre, for the i-th coset f not first in its fibre.  The basis is
    the same for every transversal.
    """
    return _fixed(group, L, transversal_elem)[0]


def _fixed(group: FrobeniusGroup, L: Hyperplane, transversal_elem) -> tuple:
    """(A_L basis, images): images[k] is sum_{h in L} h . twist^k on the basis.

    The coset matrix of the transversal sums is checked to be kron(I_p,
    J_q), the closed form the basis is read from; a mismatch raises with
    its first differing entry.  Only the last result is kept on the group,
    keyed by L and the resolved transversal: calls for one hyperplane made
    back to back (its scalar check, then its cross terms) build A_L and
    apply the sum over L once, while a sweep over all hyperplanes in turn
    holds one entry.
    """
    params = group.params
    p, q, n = params.p, params.q, params.n
    if L.modulus != q or L.ambient_dim != n:
        raise InvalidParamsError("hyperplane and action live over different spaces")
    if transversal_elem is None:
        u = _default_transversal(group, L)
    else:
        u = np.asarray(transversal_elem, dtype=np.int64).reshape(-1) % q
    key = (L, tuple(u.tolist()))
    if group._fixed_last[0] == key:
        return group._fixed_last[1]
    if u.shape[0] != n:
        raise InvalidTransversalError(f"transversal has length {u.shape[0]}, need {n}")
    if not u @ L.normal_array() % q:
        raise InvalidTransversalError(
            f"transversal element {key[1]} lies inside the subgroup"
        )
    ker = L.kernel()
    # All q^(n-1) elements of L at once: coefficient grid times the RREF basis.
    span = (decode_codes(np.arange(q**ker.dim), ker.dim, q) @ ker.basis_array) % q
    coset_idx, reps = _coset_partition(group, encode_rows(span, q).tolist())
    ncos = len(reps)
    smat = np.zeros((ncos, ncos), dtype=np.int64)
    for code in _multiple_codes(u[None], q)[0]:
        perm = group.left_perm(code)
        smat[coset_idx[perm[reps]], np.arange(ncos)] += 1
    fibres = np.kron(np.eye(p, dtype=np.int64), np.ones((q, q), dtype=np.int64))
    if smat.shape != fibres.shape:
        raise IdentityCheckError(f"{L} has {ncos} right cosets, not p q = {p * q}")
    if not np.array_equal(smat, fibres):
        i, j = np.argwhere(smat != fibres)[0].tolist()
        raise IdentityCheckError(
            f"transversal sums of {L} with u = {key[1]} are not one block per twist "
            f"fibre: coset matrix entry ({i}, {j}) is {smat[i, j]}, not {fibres[i, j]}"
        )
    # Row i: the i-th coset f not first in its fibre, minus that fibre's first coset.
    free = np.flatnonzero(np.arange(ncos) % q)
    basis = (coset_idx == free[:, None]).astype(np.int64)
    basis -= coset_idx == (free - free % q)[:, None]
    twisted = np.stack([GroupRingOperator(group, {k * q**n: 1}).apply(basis) for k in range(p)])
    images = apply_subgroup_sum(group, ker.basis_array, twisted)
    basis.flags.writeable = images.flags.writeable = False
    group._fixed_last = (key, (basis, images))
    return group._fixed_last[1]


def verify_scalar_identity(group: FrobeniusGroup, L: Hyperplane, transversal_elem=None) -> int:
    """Check that (sum_L h)(sum_k twist^k) is multiplication by q^(n-1) on A_L.

    Exact integer arithmetic over the whole basis of A_L: the image is the
    sum of the p twisted images _fixed computed.  A mismatch raises with
    the witness row.  Returns the verified scalar.
    """
    scalar = group.params.q ** (group.params.n - 1)
    basis, images = _fixed(group, L, transversal_elem)
    bad = np.flatnonzero((images.sum(axis=0) != scalar * basis).any(axis=1))
    if bad.size:
        raise IdentityCheckError(
            f"operator is not multiplication by {scalar} on A_L; witness row {bad[0]}"
        )
    return scalar


def verify_cross_terms(group: FrobeniusGroup, L: Hyperplane, transversal_elem=None) -> dict:
    """Check the twisted terms: sum_L h . twist^k annihilates A_L for k >= 1.

    The untwisted k = 0 term instead scales by |L| = q^(n-1); both facts are
    returned.  The images are the ones _fixed computed with one pass of the
    sum over L; a failure raises naming the first failing k.
    """
    params = group.params
    q, n, p = params.q, params.n, params.p
    basis, images = _fixed(group, L, transversal_elem)
    expected = np.zeros_like(images)
    expected[0] = q ** (n - 1) * basis
    if not np.array_equal(images, expected):
        k = next(k for k in range(p) if not np.array_equal(images[k], expected[k]))
        raise IdentityCheckError(f"cross term k = {k} fails on A_L of {L}")
    return {"k0_scalar": q ** (n - 1), "cross_terms_zero": True, "checked_k": list(range(p))}
