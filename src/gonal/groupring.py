"""Exact group-ring identity checks on the regular representation.

The extended group G = N x| P (N = Z_q^n the homology group, P = Z_p the
lifted gonal action) is small enough at oracle scale to materialize.  The
identities driving the isogeny bookkeeping are pure group-ring statements,
so checking them on any faithful module certifies them; the regular
representation is the canonical choice.  Everything is integer arithmetic,
zero tolerance.

For a hyperplane L < N the checked subspace is

    A_L = { z : h z = z for all h in L,  sum_{x in N/L} x z = 0 },

which depends on L alone: N = L + <u> for every u outside L, so on
functions fixed by L the sum of the q multiples of u is the sum over N/L.
The checks take u = e_j, j the last nonzero entry of L's normal, and read
A_L in closed form off the L-coset space, so no elimination runs.  The
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

from .action import CoverParams, build_action
from .atlas import Hyperplane, _check_space
from .errors import IdentityCheckError, InvalidParamsError, check_cap
from .fqlinalg import Subspace, _integer_array, decode_codes, encode_rows

DEFAULT_GROUP_CAP = 512
# Associativity is spot-checked on this many triples, drawn from this seed.
AXIOM_TRIALS = 64
AXIOM_SEED = 0


def _integers(values, what: str, length: int | None = None) -> np.ndarray:
    """`values` as int64, refusing floats, ints past int64, ragged rows, a last axis not `length`."""
    values = _integer_array(values)
    if not np.can_cast(values.dtype, np.int64):
        raise InvalidParamsError(f"{what} must be int64 integers, got {values.dtype} values")
    if length is not None and values.shape[-1:] != (length,):
        raise InvalidParamsError(f"{what} of shape {values.shape}: need a last axis of {length}")
    return values.astype(np.int64, copy=False)


def _refuse_overflow(weight: int, vec: np.ndarray, what: str, terms: str) -> None:
    """InvalidParamsError when `weight` times max |vec|, which bounds every entry
    of a sum of `weight` copies of vec up to sign, reaches 2^63, where int64 wraps."""
    # The uint64 view reads |-2^63|, which wraps to itself in int64, as 2^63.
    peak = int(np.abs(vec).view(np.uint64).max(initial=0))
    if weight * peak >= 2**63:
        raise InvalidParamsError(f"{what} may overflow int64: {terms} on entries up to {peak} in size")


class FrobeniusGroup:
    """The semidirect product N x| P, its elements coded as integers.

    Elements are pairs (v, e) with v in Z_q^n and e in Z_p, multiplying by
    (v, e)(w, f) = (v + T^e w, e + f).  The pair (v, e) is the integer
    e q^n + code(v), code(v) the base-q number with digits v; codes are also
    element indices, so the kernel N is 0 .. q^n - 1 and the identity is 0.
    Two read-only tables hold it: `_translations` (row c is translation c)
    and `_twisted` ([e, c] is the code of T^e c, the one place T^e acts).
    A group of order past `cap` is refused before anything is built.
    """

    def __init__(self, params: CoverParams, cap: int = DEFAULT_GROUP_CAP):
        message = "group of order {} exceeds the regular-representation cap"
        check_cap(cap, "group-order cap", message, params.q, params.n, params.p)
        self.params = params
        self.action = build_action(params)
        p, q, n = params.p, params.q, params.n
        self._translations = decode_codes(np.arange(q**n), n, q)
        step = encode_rows(self._translations @ self.action.matrix_array.T % q, q)
        self._twisted = np.tile(np.arange(q**n), (p, 1))
        for e in range(1, p):  # T^e c = T (T^(e-1) c)
            self._twisted[e] = step[self._twisted[e - 1]]
        self._translations.flags.writeable = self._twisted.flags.writeable = False
        self._perm_cache: dict[int, np.ndarray] = {}
        # (L, (A_L basis, sum_L of its p twists)) of the last _fixed call
        self._fixed_last: tuple = (None, None)

    @property
    def order(self) -> int:
        return self.params.group_order

    def _parts(self, a) -> tuple[np.ndarray, np.ndarray]:
        """(twists, translation codes) of the element codes `a`, each in 0 .. |G| - 1."""
        codes = _integers(a, "element codes")
        outside = codes[(codes < 0) | (codes >= self.order)]
        if outside.size:
            raise InvalidParamsError(f"element code {outside[0]} is outside 0 .. {self.order - 1}")
        return np.divmod(codes, len(self._translations))

    def _element(self, translations: np.ndarray, twists: np.ndarray):
        """Codes of the elements (v mod q, e mod p), as an int for one element."""
        q = self.params.q
        codes = twists % self.params.p * len(self._translations) + encode_rows(translations % q, q)
        return int(codes) if codes.ndim == 0 else codes

    def mul(self, a, b):
        """Code of a b, elementwise over codes broadcast together."""
        (e, c), (f, d) = self._parts(a), self._parts(b)
        return self._element(self._translations[c] + self._translations[self._twisted[e, d]], e + f)

    def inv(self, a):
        """Code of a^-1 = (-T^-e v, -e), elementwise."""
        e, c = self._parts(a)
        return self._element(-self._translations[self._twisted[-e % self.params.p, c]], -e)

    def left_perm(self, g: int) -> np.ndarray:
        """perm with perm[x] = g * x, for every element code x.

        For x = f q^n + i the product is g i shifted by f twists, so one
        product with the q^n translations gives every row.  `g` must be an
        int: 3.0 and True hash like the codes 3 and 1, so the cache would
        answer for them.
        """
        if type(g) is not int and not isinstance(g, np.integer):
            raise InvalidParamsError(f"element code must be an integer, got {g!r}")
        cached = self._perm_cache.get(g)
        if cached is None:
            size = len(self._translations)
            moved = self.mul(g, np.arange(size))
            cached = ((moved + size * np.arange(self.params.p)[:, None]) % self.order).reshape(-1)
            cached.flags.writeable = False
            self._perm_cache[g] = cached
        return cached

    def spot_check_axioms(self):
        """Identity and inverses exhaustively; associativity on AXIOM_TRIALS seeded triples."""
        codes = np.arange(self.order)
        rng = np.random.default_rng(AXIOM_SEED)
        a, b, c = rng.integers(0, self.order, size=(AXIOM_TRIALS, 3)).T
        checks = [
            ("identity", codes, (self.mul(0, codes) != codes) | (self.mul(codes, 0) != codes)),
            ("inverse", codes, self.mul(codes, self.inv(codes)) != 0),
            ("associativity", list(zip(a.tolist(), b.tolist(), c.tolist())),
             self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c))),
        ]
        for name, witnesses, failed in checks:
            if failed.any():  # argmax: the first failure
                raise IdentityCheckError(f"{name} fails at {witnesses[np.argmax(failed)]}")


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
    p, q, n = group.params.p, group.params.q, group.params.n
    size = q**n
    # (a) g^k != 1 for 0 < k < p and g^p = 1, over every g outside N at once.
    outside = np.arange(size, group.order)
    powers = [outside]
    for _ in range(p - 1):
        powers.append(group.mul(powers[-1], outside))
    wrong = (np.stack(powers[:-1]) == 0).any(axis=0) | (powers[-1] != 0)
    if wrong.any():
        g = outside[np.argmax(wrong)]
        raise IdentityCheckError(f"element {g} outside the kernel has order != {p}")
    translations, twisted = group._translations, group._twisted
    codes = np.arange(size)
    fixed = np.argwhere(twisted[1:, 1:] == codes[1:])
    if fixed.size:
        e, c = fixed[0] + 1
        v = tuple(translations[c].tolist())
        raise IdentityCheckError(f"twist power {e} centralizes nonzero translation {v}")
    # Column c of `twisted` is the twist orbit of c; each orbit is counted at its least member.
    orbits = np.sort(twisted[:, 1:], axis=0)
    sizes = 1 + np.count_nonzero(np.diff(orbits, axis=0), axis=0)
    if (sizes != p).any():
        c = np.argmax(sizes != p)
        raise IdentityCheckError(
            f"twist orbit of {tuple(translations[c + 1].tolist())} has size {sizes[c]} != {p}"
        )
    orbit_count = int(np.count_nonzero(orbits[0] == codes[1:]))
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
        self.terms = {g: int(_integers(c, "coefficients")) for g, c in terms.items() if c != 0}

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply to rows of an integer vector/matrix over the regular module.

        Every entry of the result is at most sum |c| times max |vec| in size;
        InvalidParamsError when that bound reaches 2^63, where int64 wraps.
        """
        vec = _integers(vec, "group-ring vectors", self.group.order)
        weight = sum(abs(c) for c in self.terms.values())
        _refuse_overflow(weight, vec, "group-ring product", f"coefficients of total size {weight}")
        out = np.zeros_like(vec)
        for g, c in self.terms.items():
            moved = np.zeros_like(vec)
            moved[..., self.group.left_perm(g)] = vec
            out += c * moved
        return out


def _multiple_codes(rows: np.ndarray, q: int) -> list[list[int]]:
    """codes[i][j] is the code of the translation j rows[i], for j = 0 .. q-1."""
    return encode_rows((rows[:, None, :] * np.arange(q)[:, None]) % q, q).tolist()


def apply_subgroup_sum(group: FrobeniusGroup, L: Subspace, vec: np.ndarray) -> np.ndarray:
    """Apply sum_{h in L} h, for L a subspace of the translations N = F_q^n.

    L is elementary abelian and every h in L is sum_b c_b b for unique c_b in
    Z_q, so in Z[L] the sum is the product over rows b of (1 + b + ... +
    b^(q-1)): (q-1) dim L permutations instead of q^(dim L).  Each factor holds
    the inverse (q-j) b of every term j b, so gathering along the left
    permutations (g z = z[perm of g^-1]) gives the same sum as scattering.

    The rows b are L's canonical basis, independent by construction, so each
    element of L is summed once.  InvalidParamsError unless L lies in F_q^n,
    or when the q^(dim L) terms of the sum on entries up to max |vec| may
    reach 2^63, where int64 wraps.
    """
    q, n = group.params.q, group.params.n
    if L.modulus != q or L.ambient_dim != n:
        raise InvalidParamsError(f"subgroup of F_{L.modulus}^{L.ambient_dim} is not in F_{q}^{n}")
    out = _integers(vec, "group-ring vectors", group.order)
    terms = q**L.dim
    _refuse_overflow(terms, out, "subgroup sum", f"{terms} terms")
    for row_codes in _multiple_codes(L.basis_array, q):
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


def _transversal(L: Hyperplane) -> tuple:
    """u = e_j, j the last nonzero entry of L's normal: normal . u != 0, and every
    translation of lower code is supported after j, so inside L.  u is the first
    translation outside L in code order."""
    j = max(i for i, x in enumerate(L.normal) if x)
    return tuple(int(i == j) for i in range(L.ambient_dim))


def fixed_subspace(group: FrobeniusGroup, L: Hyperplane) -> np.ndarray:
    """Read-only integer basis (rows) of A_L inside the regular module.

    Conditions: fixed by every translation in L, annihilated by the sum over
    N/L.  Vectors fixed by L are exactly the functions constant on right
    L-cosets, and the sum over N/L adds up each twist fibre's q cosets, so
    row i is coset f minus the first coset of f's fibre, for the i-th coset
    f not first in its fibre.
    """
    return _fixed(group, L)[0]


def _fixed(group: FrobeniusGroup, L: Hyperplane) -> tuple:
    """(A_L basis, images): images[k] is sum_{h in L} h . twist^k on the basis.

    The coset matrix of the sums of the multiples of u = _transversal(L) is
    checked to be kron(I_p, J_q), the closed form the basis is read from; a
    mismatch raises with its first differing entry.  Only the last result is
    kept on the group, keyed by L: calls for one hyperplane made back to
    back (its scalar check, then its cross terms) build A_L and apply the
    sum over L once, while a sweep over all hyperplanes in turn holds one
    entry.
    """
    params = group.params
    p, q, n = params.p, params.q, params.n
    _check_space(L, params)
    if group._fixed_last[0] == L:
        return group._fixed_last[1]
    u = _transversal(L)
    ker = L.kernel()
    # All q^(n-1) elements of L at once: coefficient grid times the RREF basis.
    span = (decode_codes(np.arange(q**ker.dim), ker.dim, q) @ ker.basis_array) % q
    coset_idx, reps = _coset_partition(group, encode_rows(span, q).tolist())
    ncos = len(reps)
    smat = np.zeros((ncos, ncos), dtype=np.int64)
    for code in _multiple_codes(np.array([u]), q)[0]:
        smat[coset_idx[group.left_perm(code)[reps]], np.arange(ncos)] += 1
    # kron(I_p, J_q): 1 where two cosets lie in one twist fibre of q.
    fibre = np.arange(p * q) // q
    fibres = (fibre[:, None] == fibre).astype(np.int64)
    if smat.shape != fibres.shape:
        raise IdentityCheckError(f"{L} has {ncos} right cosets, not p q = {p * q}")
    if not np.array_equal(smat, fibres):
        i, j = np.argwhere(smat != fibres)[0].tolist()
        raise IdentityCheckError(
            f"transversal sums of {L} with u = {u} are not one block per twist "
            f"fibre: coset matrix entry ({i}, {j}) is {smat[i, j]}, not {fibres[i, j]}"
        )
    # Row i: the i-th coset f not first in its fibre, minus that fibre's first coset.
    free = np.flatnonzero(np.arange(ncos) % q)
    basis = (coset_idx == free[:, None]).astype(np.int64)
    basis -= coset_idx == (free - free % q)[:, None]
    twisted = np.stack([GroupRingOperator(group, {k * q**n: 1}).apply(basis) for k in range(p)])
    images = apply_subgroup_sum(group, ker, twisted)
    basis.flags.writeable = images.flags.writeable = False
    group._fixed_last = (L, (basis, images))
    return group._fixed_last[1]


def verify_scalar_identity(group: FrobeniusGroup, L: Hyperplane) -> int:
    """Check that (sum_L h)(sum_k twist^k) is multiplication by q^(n-1) on A_L.

    Exact integer arithmetic over the whole basis of A_L: the image is the
    sum of the p twisted images _fixed computed.  A mismatch raises with
    the witness row.  Returns the verified scalar.
    """
    scalar = group.params.q ** (group.params.n - 1)
    basis, images = _fixed(group, L)
    bad = np.flatnonzero((images.sum(axis=0) != scalar * basis).any(axis=1))
    if bad.size:
        raise IdentityCheckError(
            f"operator is not multiplication by {scalar} on A_L; witness row {bad[0]}"
        )
    return scalar


def verify_cross_terms(group: FrobeniusGroup, L: Hyperplane) -> dict:
    """Check the twisted terms: sum_L h . twist^k annihilates A_L for k >= 1.

    The untwisted k = 0 term instead scales by |L| = q^(n-1); both facts are
    returned.  The images are the ones _fixed computed with one pass of the
    sum over L; a failure raises naming the first failing k.
    """
    q, n, p = group.params.q, group.params.n, group.params.p
    basis, images = _fixed(group, L)
    expected = np.zeros_like(images)
    expected[0] = q ** (n - 1) * basis
    failed = (images != expected).any(axis=(1, 2))
    if failed.any():
        raise IdentityCheckError(f"cross term k = {np.argmax(failed)} fails on A_L of {L}")
    return {"k0_scalar": q ** (n - 1), "cross_terms_zero": True, "checked_k": list(range(p))}
