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

computed as an exact integer null space on the L-coset space.  The headline
identity: (sum over h in L) composed with (sum over powers of the twist)
acts on A_L as multiplication by q^(n-1), with every twisted cross term
vanishing identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .action import AdaptedAction, CoverParams, build_action
from .atlas import Hyperplane, _decode_codes, _encode_rows
from .errors import (
    CapExceededError,
    IdentityCheckError,
    InvalidTransversalError,
)

DEFAULT_GROUP_CAP = 512


class FrobeniusGroup:
    """The semidirect product N x| P, its elements coded as integers.

    Elements are pairs (v, e) with v in Z_q^n and e in Z_p, multiplying by
    (v, e)(w, f) = (v + T^e w, e + f).  The pair (v, e) is the integer
    e q^n + code(v), code(v) the base-q number with digits v; codes are also
    element indices, so the kernel N is 0 .. q^n - 1 and the identity is 0.
    """

    def __init__(self, params: CoverParams, action: AdaptedAction | None = None):
        self.params = params
        self.action = action if action is not None else build_action(params)
        p, q, n = params.p, params.q, params.n
        self._tpow = [self.action.power_array(e) for e in range(p)]
        # row c is the translation with code c
        self._translations = _decode_codes(np.arange(q**n), n, q)
        self._perm_cache: dict[int, np.ndarray] = {}
        # ((L, u), (A_L basis, L's kernel basis)) of the last _fixed call
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
        return (e % self.params.p) * len(self._translations) + int(_encode_rows(v % q, q))

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
            cached = (twists[:, None] * len(moved) + _encode_rows(moved, q)).reshape(-1)
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
    size = params.group_order
    if size > cap:
        raise CapExceededError(
            f"group of order {size} exceeds the regular-representation cap",
            required=size,
            cap=cap,
        )
    group = FrobeniusGroup(params)
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
    powers = [_encode_rows((translations @ group._tpow[e].T) % q, q) for e in range(p)]
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

    @classmethod
    def twist_power_sum(cls, group: FrobeniusGroup) -> "GroupRingOperator":
        params = group.params
        return cls(group, {e * params.q**params.n: 1 for e in range(params.p)})

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
    return _encode_rows((rows[:, None, :] * np.arange(q)[:, None]) % q, q).tolist()


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


def _integer_rref(mat) -> tuple[list[list[int]], list[int]]:
    """Echelon basis over Q of an integer matrix's row space: (rows, pivot columns).

    Each row is primitive and zero at every other row's pivot, so dividing
    each by its pivot entry gives the reduced row-echelon form.  Elimination
    stays in integers; no Fraction is built.
    """
    rows = [[int(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row = [top[c] * x - f * y for x, y in zip(row, top)]
                g = gcd(*row) or 1
                rows[i] = [x // g for x in row]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _rational_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Exact null-space basis of an integer matrix, as primitive integer rows.

    Row f is the RREF null vector with a 1 at free column f, scaled to the
    primitive integer vector with a positive entry there.
    """
    rows, pivots = _integer_rref(mat)
    ncols = len(mat[0]) if len(mat) else 0
    scale = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f] * (scale // row[pc])
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def _canonical_rowspan(basis: np.ndarray) -> tuple:
    """Canonical form of a rational row space (its RREF), for subspace equality tests."""
    rows, pivots = _integer_rref(basis)
    return tuple(tuple(Fraction(x, row[pc]) for x in row) for row, pc in zip(rows, pivots))


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
    the q multiples of the transversal element (any vector outside L; the
    resulting subspace does not depend on the choice, and None picks the
    first one).  Vectors fixed by L are exactly the functions constant on
    right L-cosets, so the null space is computed on the coset space and
    expanded back.
    """
    return _fixed(group, L, transversal_elem)[0]


def _fixed(group: FrobeniusGroup, L: Hyperplane, transversal_elem) -> tuple:
    """(A_L basis, L's kernel basis), see fixed_subspace.

    Only the last result is kept on the group, keyed by L and the resolved
    transversal: calls for one hyperplane made back to back (its scalar
    check, then its cross terms) build A_L once, while a sweep over all
    hyperplanes in turn holds one entry.
    """
    params = group.params
    q, n = params.q, params.n
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
    span = (_decode_codes(np.arange(q**ker.dim), ker.dim, q) @ ker.basis_array) % q
    coset_idx, reps = _coset_partition(group, _encode_rows(span, q).tolist())
    ncos = len(reps)
    smat = np.zeros((ncos, ncos), dtype=np.int64)
    for code in _multiple_codes(u[None], q)[0]:
        perm = group.left_perm(code)
        smat[coset_idx[perm[reps]], np.arange(ncos)] += 1
    coeff_rows = np.array(_rational_kernel(smat.tolist()), dtype=np.int64).reshape(-1, ncos)
    basis = coeff_rows[:, coset_idx]
    basis.flags.writeable = False
    group._fixed_last = (key, (basis, ker.basis_array))
    return group._fixed_last[1]


def verify_scalar_identity(group: FrobeniusGroup, L: Hyperplane, transversal_elem=None) -> int:
    """Check that (sum_L h)(sum_k twist^k) is multiplication by q^(n-1) on A_L.

    Exact integer arithmetic over the whole basis of A_L; a mismatch raises
    with the witness vector.  Returns the verified scalar.
    """
    params = group.params
    q, n = params.q, params.n
    basis, span = _fixed(group, L, transversal_elem)
    if basis.shape[0] == 0:
        raise IdentityCheckError(f"A_L is zero for {L}; nothing to verify")
    phi_sum = GroupRingOperator.twist_power_sum(group)
    scalar = q ** (n - 1)
    image = apply_subgroup_sum(group, span, phi_sum.apply(basis))
    if not np.array_equal(image, scalar * basis):
        bad = next(
            i for i in range(basis.shape[0])
            if not np.array_equal(image[i], scalar * basis[i])
        )
        raise IdentityCheckError(
            f"operator is not multiplication by {scalar} on A_L; witness row {bad}"
        )
    return scalar


def verify_cross_terms(group: FrobeniusGroup, L: Hyperplane, transversal_elem=None) -> dict:
    """Check the twisted terms: sum_L h . twist^k annihilates A_L for k >= 1.

    The untwisted k = 0 term instead scales by |L| = q^(n-1); both facts are
    returned.  The sum over L is applied once to the p twisted copies of the
    basis, stacked; a failure raises naming the first failing k.
    """
    params = group.params
    q, n, p = params.q, params.n, params.p
    basis, span = _fixed(group, L, transversal_elem)
    twisted = np.stack([GroupRingOperator(group, {k * q**n: 1}).apply(basis) for k in range(p)])
    images = apply_subgroup_sum(group, span, twisted)
    expected = np.zeros_like(twisted)
    expected[0] = q ** (n - 1) * basis
    if not np.array_equal(images, expected):
        k = next(k for k in range(p) if not np.array_equal(images[k], expected[k]))
        raise IdentityCheckError(f"cross term k = {k} fails on A_L of {L}")
    return {"k0_scalar": q ** (n - 1), "cross_terms_zero": True, "checked_k": list(range(p))}


def composite_scalar(params: CoverParams) -> int:
    """Scalar q^n that the full composed diagram acts by, once every orbit
    class passes verify_scalar_identity (product of the per-class identities)."""
    return params.q**params.n
