"""Cover parameters and the lifted order-p action on the q-homology group.

The homology group of a genus-g curve with an order-p automorphism and r
fixed points is Z_q^n with n = (p-1)(r-2).  On the adapted basis the lifted
automorphism acts block-by-block: within each of the r-2 blocks it cycles
the p-1 kept generators and sends the last one to minus their sum (the
eliminated generator is the inverse of the block product).  That action is
the block-diagonal companion matrix of 1 + x + ... + x^(p-1) built here.

Invariant subspaces of the action come quantized: their dimensions are
exactly the multiples of s0 = ord_p(q), and each one is a direct sum of
kernels of irreducible-factor evaluations, which is how
:func:`invariant_subspace_of_dim` constructs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gfpoly
from .errors import (
    CapExceededError,
    IdentityCheckError,
    InvalidParamsError,
    NoInvariantSubspaceError,
    quoted,
)
from .fqlinalg import (
    Subspace,
    is_prime,
    iter_subspace_bases,
    kernel_array,
    matpow_array,
    row_space_array,
)


def order_mod(q: int, p: int) -> int:
    """Least s >= 1 with q^s = 1 mod p; divides p-1."""
    if p == q or q % p == 0:
        raise InvalidParamsError(f"order of {q} mod {p} undefined: p divides q")
    if not is_prime(p):
        raise InvalidParamsError(f"{p} is not prime")
    s = 1
    acc = q % p
    while acc != 1:
        acc = (acc * q) % p
        s += 1
    if (p - 1) % s:
        raise IdentityCheckError(f"ord_{p}({q}) = {s} does not divide p - 1 = {p - 1} (Fermat)")
    return s


@dataclass(frozen=True)
class CoverParams:
    """The triple (p, q, r) and everything derived from it.

    p: odd prime, order of the gonal automorphism.
    q: prime != p with gcd(p, q-1) = 1, exponent of the homology cover.
    r: number of fixed points, >= 3.

    The base genus g = (p-1)(r-2)/2 must be >= 2; tiny oracle instances may
    opt out via allow_small_genus.
    """

    p: int
    q: int
    r: int
    allow_small_genus: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        for name, value in (("p", p), ("q", q), ("r", r)):
            if type(value) is not int:
                raise InvalidParamsError(f"{name} = {value!r} must be an int")
        if not (is_prime(p) and p % 2 == 1):
            raise InvalidParamsError(f"p = {p} must be an odd prime")
        if not is_prime(q):
            raise InvalidParamsError(f"q = {q} must be prime")
        if p == q:
            raise InvalidParamsError("p and q must be distinct primes")
        if r < 3:
            raise InvalidParamsError(f"r = {r} must be at least 3")
        # Size refusals read log10(q^n) = n log10(q) off a float, before q^n is built.
        try:
            log_size = self.n * math.log10(q)
        except OverflowError:
            log_size = math.inf
        if not math.isfinite(log_size):
            raise InvalidParamsError(
                f"r = {quoted(r)} makes n = (p-1)(r-2) too large to estimate q^n in floating point"
            )
        if math.gcd(p, q - 1) != 1:
            raise InvalidParamsError(
                f"gcd(p, q-1) must be 1, got gcd({p}, {q - 1}) = {math.gcd(p, q - 1)}"
            )
        if self.g < 2 and not self.allow_small_genus:
            raise InvalidParamsError(
                f"base genus g = {self.g} < 2; pass allow_small_genus=True for oracle runs"
            )

    @property
    def g(self) -> int:
        """Genus of the base curve, (p-1)(r-2)/2."""
        return (self.p - 1) * (self.r - 2) // 2

    @property
    def n(self) -> int:
        """Rank 2g of the homology group Z_q^n."""
        return (self.p - 1) * (self.r - 2)

    @property
    def s0(self) -> int:
        """Multiplicative order of q mod p."""
        return order_mod(self.q, self.p)

    @property
    def m(self) -> int:
        """Number of maximal subgroups of Z_q^n: (q^n - 1)/(q - 1)."""
        return (self.q**self.n - 1) // (self.q - 1)

    @property
    def t(self) -> int:
        """Number of conjugation orbits of maximal subgroups: m/p."""
        # gcd(p, q-1) = 1 forces p | m; anything else is a transcription bug.
        t, rest = divmod(self.m, self.p)
        if rest:
            raise IdentityCheckError(f"p = {self.p} does not divide m = {self.m} for {self}")
        return t

    @property
    def group_order(self) -> int:
        """Order p * q^n of the extended group."""
        return self.p * self.q**self.n

    def describe(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "g": self.g,
            "n": self.n,
            "s0": self.s0,
            "m": self.m,
            "t": self.t,
        }


def parameter_sweep(max_p: int = 13, max_q: int = 7, max_r: int = 6) -> list[CoverParams]:
    """All valid CoverParams with p <= max_p, q <= max_q, r <= max_r."""
    out = []
    for p in range(3, max_p + 1):
        if not (is_prime(p) and p % 2 == 1):
            continue
        for q in range(2, max_q + 1):
            if not is_prime(q) or q == p or math.gcd(p, q - 1) != 1:
                continue
            for r in range(3, max_r + 1):
                if (p - 1) * (r - 2) // 2 < 2:
                    continue
                out.append(CoverParams(p, q, r))
    return out


def cyclotomic_poly(p: int) -> gfpoly.Poly:
    """1 + x + ... + x^(p-1), the minimal polynomial of the action blocks."""
    return (1,) * p


@dataclass(frozen=True)
class CyclotomicFactorization:
    """Irreducible factors of 1 + x + ... + x^(p-1) over F_q.

    There are (p-1)/s0 distinct factors, each of degree s0 = ord_p(q);
    coefficient tuples are lowest-degree-first.
    """

    p: int
    q: int
    s0: int
    factors: tuple[gfpoly.Poly, ...]

    def cofactor(self, i: int) -> gfpoly.Poly:
        """Product of all factors except the i-th."""
        out = gfpoly.ONE
        for j, f in enumerate(self.factors):
            if j != i:
                out = gfpoly.mul(out, f, self.q)
        return out


def cyclotomic_factor(p: int, q: int) -> CyclotomicFactorization:
    """Factor 1 + x + ... + x^(p-1) into irreducibles over F_q."""
    if not is_prime(p) or not is_prime(q):
        raise InvalidParamsError(f"p = {p} and q = {q} must be prime")
    if p == q:
        raise InvalidParamsError("p = q leaves no multiplicative order")
    s0 = order_mod(q, p)
    phi = cyclotomic_poly(p)
    factors = tuple(gfpoly.equal_degree_factors(phi, s0, q))
    # Postconditions pin down the factorization exactly.
    if len(factors) != (p - 1) // s0:
        raise IdentityCheckError(
            f"Phi_{p} over F_{q} split into {len(factors)} factors, "
            f"expected (p-1)/s0 = {(p - 1) // s0}"
        )
    wrong = [f for f in factors if gfpoly.degree(f) != s0]
    if wrong:
        raise IdentityCheckError(f"factor {wrong[0]} of Phi_{p} over F_{q} has degree != s0 = {s0}")
    if len(set(factors)) != len(factors):
        raise IdentityCheckError(f"Phi_{p} over F_{q} has a repeated factor: {factors}")
    prod = gfpoly.ONE
    for f in factors:
        prod = gfpoly.mul(prod, f, q)
    if prod != tuple(c % q for c in phi):
        raise IdentityCheckError(f"factors of Phi_{p} over F_{q} multiply to {prod}, not Phi_{p}")
    return CyclotomicFactorization(p=p, q=q, s0=s0, factors=factors)


@dataclass(frozen=True)
class PrimaryProjections:
    """The primary decomposition of the dual action v -> v T^(-1), per block.

    Phi_p = f_1 ... f_k over F_q with k = (p-1)/s0, so each (p-1)-entry block
    of a normal splits into components in ker f_i(B^(-1)), B the companion
    block.  Both arrays are read-only:

    cofactors: the (p-1, k(p-1)) stack [C_1 | ... | C_k], C_i = (Phi_p/f_i)(B^(-1));
        a block v has v C_i != 0 exactly when its f_i-component is nonzero.
    factors: (k, p-1, p-1), factors[i] = f_i(B^(-1)).
    """

    s0: int
    cofactors: np.ndarray
    factors: np.ndarray


def _companion_block(p: int, q: int) -> np.ndarray:
    # Column i is the image of basis vector e_i: e_(i+1) for i < p-1,
    # and -(e_1 + ... + e_(p-1)) for the last one.
    d = p - 1
    block = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        block[i + 1, i] = 1
    block[:, d - 1] = (q - 1) % q
    return block


class AdaptedAction:
    """The order-p matrix realizing conjugation on Z_q^n in the adapted basis."""

    def __init__(self, params: CoverParams):
        self.params = params
        p, q, n = params.p, params.q, params.n
        block = _companion_block(p, q)
        mat = np.zeros((n, n), dtype=np.int64)
        d = p - 1
        for j in range(params.r - 2):
            mat[j * d : (j + 1) * d, j * d : (j + 1) * d] = block
        self._block = block
        self._matrix = mat
        self._matrix.flags.writeable = False
        self._inverse = matpow_array(mat, p - 1, q)
        self._inverse.flags.writeable = False
        self._validate()

    def _validate(self):
        p, q = self.params.p, self.params.q
        n = self.params.n
        eye = np.eye(n, dtype=np.int64)
        if not np.array_equal(matpow_array(self._matrix, p, q), eye):
            raise IdentityCheckError(f"action for {self.params} does not have order p = {p}")
        if np.array_equal(self._matrix, eye):
            raise IdentityCheckError(f"action for {self.params} is trivial")
        annihilated = gfpoly.eval_at_matrix(cyclotomic_poly(p), self._matrix, q)
        if annihilated.any():
            raise IdentityCheckError(
                f"1 + T + ... + T^(p-1) does not vanish for {self.params}: "
                f"nonzero entry at {tuple(int(i) for i in np.argwhere(annihilated)[0])}"
            )

    @property
    def matrix_array(self) -> np.ndarray:
        """Read-only n x n action matrix."""
        return self._matrix

    @property
    def inverse_array(self) -> np.ndarray:
        """Read-only inverse T^(p-1) of the action matrix."""
        return self._inverse

    @property
    def block_array(self) -> np.ndarray:
        """One (p-1) x (p-1) companion block (shared by all blocks)."""
        return self._block

    @cached_property
    def primary(self) -> PrimaryProjections:
        """Primary projections of the dual action, built on first use.

        The action is block-diagonal with one block repeated r-2 times, so
        the projections are evaluated at that block of the inverse.
        """
        p, q = self.params.p, self.params.q
        fact = cyclotomic_factor(p, q)
        inv_block = self._inverse[: p - 1, : p - 1]
        cofactors = np.hstack(
            [gfpoly.eval_at_matrix(fact.cofactor(i), inv_block, q) for i in range(len(fact.factors))]
        )
        factors = np.stack([gfpoly.eval_at_matrix(f, inv_block, q) for f in fact.factors])
        cofactors.flags.writeable = False
        factors.flags.writeable = False
        return PrimaryProjections(fact.s0, cofactors, factors)

    def power_array(self, e: int) -> np.ndarray:
        return matpow_array(self._matrix, e % self.params.p, self.params.q)

    def __repr__(self) -> str:
        return f"AdaptedAction({self.params!r})"


def build_action(params: CoverParams) -> AdaptedAction:
    """Block-diagonal companion matrix of the cyclotomic polynomial mod q."""
    return AdaptedAction(params)


def invariant_subspace_of_dim(action: AdaptedAction, s: int) -> Subspace:
    """A T-invariant subspace of dimension exactly s.

    Feasible dimensions are the multiples of s0 in 0..n (equivalently the s
    with q^s = 1 mod p); anything else raises NoInvariantSubspaceError.
    The subspace is assembled as a direct sum of kernels of
    irreducible-factor evaluations restricted to blocks.
    """
    params = action.params
    p, q, n, s0 = params.p, params.q, params.n, params.s0
    if not 0 <= s <= n:
        raise NoInvariantSubspaceError(f"dimension {s} outside 0..{n}")
    if s % s0 != 0:
        raise NoInvariantSubspaceError(
            f"no invariant subspace of dimension {s}: q^s != 1 mod p (s0 = {s0})"
        )
    if s == 0:
        return Subspace.zero(n, q)
    fact = cyclotomic_factor(p, q)
    block = action.block_array
    d = p - 1
    # Kernel of f_i evaluated on one block; identical across blocks.
    block_kernels = [
        kernel_array(gfpoly.eval_at_matrix(f, block, q), q) for f in fact.factors
    ]
    dims = [k.shape[0] for k in block_kernels]
    if any(dim != s0 for dim in dims):
        raise IdentityCheckError(f"factor kernels on a block have dims {dims}, not s0 = {s0}")
    pieces = []
    needed = s // s0
    for j in range(params.r - 2):
        for ker in block_kernels:
            if len(pieces) == needed:
                break
            emb = np.zeros((s0, n), dtype=np.int64)
            emb[:, j * d : (j + 1) * d] = ker
            pieces.append(emb)
    rows = row_space_array(np.vstack(pieces), q)
    sub = Subspace._from_canonical(rows, n, q)
    if sub.dim != s:
        raise IdentityCheckError(f"assembled subspace has dim {sub.dim}, expected {s}")
    if not sub.is_invariant_under(action.matrix_array):
        raise IdentityCheckError(f"assembled subspace of dim {s} is not T-invariant")
    return sub


def enumerate_invariant_subspaces(action: AdaptedAction, max_ambient: int) -> list[Subspace]:
    """Brute-force list of all T-invariant subspaces, canonical, all dims.

    Guarded by q^n <= max_ambient since the subspace lattice blows up fast.
    """
    params = action.params
    q, n = params.q, params.n
    size = q**n
    if size > max_ambient:
        raise CapExceededError(
            f"invariant-subspace enumeration over F_{q}^{n}", required=size, cap=max_ambient
        )
    found = []
    for k in range(n + 1):
        for basis in iter_subspace_bases(n, k, q):
            sub = Subspace._from_canonical(basis, n, q)
            if sub.is_invariant_under(action.matrix_array):
                found.append(sub)
    return found
