"""Cover parameters and the lifted order-p action on the q-homology group.

The homology group of a genus-g curve with an order-p automorphism and r
fixed points is Z_q^n with n = (p-1)(r-2).  On the adapted basis the lifted
automorphism acts block-by-block: within each of the r-2 blocks it cycles
the p-1 kept generators and sends the last one to minus their sum (the
eliminated generator is the inverse of the block product).  That action is
the block-diagonal companion matrix of 1 + x + ... + x^(p-1) built here.

Phi_p splits over F_q into k = (p-1)/s0 irreducible factors of degree
s0 = ord_p(q), so F_q^n splits into k primary components, each a vector
space over F_Q, Q = q^s0.  The components are found without factoring
Phi_p, as the joint eigenspaces of the k Gauss periods
sum_{c in C} T^(-c), C the cosets of <q> in Z_p^*, which act on each
component as scalars of F_q.  A subspace is invariant exactly when it is a
direct sum of one F_Q-subspace of each component, which is how
:func:`invariant_subspaces` lists them all; their dimensions are
multiples of s0.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import IdentityCheckError, InvalidParamsError, check_cap, check_integer, quoted
from .fqlinalg import (
    PRIMALITY_BOUND,
    Subspace,
    check_row_products,
    decode_codes,
    gaussian_count,
    is_prime,
    iter_echelon_forms,
    kernel_array,
    matpow_array,
    row_space_array,
    rref_array,
)


# Primes below this are found by trial division; factors past it by Pollard-Brent rho.
_TRIAL_BOUND = 1 << 10


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n, by Brent's variant of Pollard's rho.

    Differences are multiplied in batches of 128 under one gcd; a batch that
    overshoots to n is replayed one step at a time, and a cycle with no
    factor restarts with the next constant c.
    """
    for c in range(1, n):
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                g = math.gcd(product, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g
    raise IdentityCheckError(f"Pollard rho found no factor of {n}")


def _prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n >= 1: trial division below _TRIAL_BOUND,
    then Pollard-Brent rho, with every factor proved prime by is_prime."""
    primes = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            primes.add(m)
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return primes


def order_mod(q: int, p: int) -> int:
    """Least s >= 1 with q^s = 1 mod p, for a prime p below PRIMALITY_BOUND.

    s divides p - 1 (Fermat), so it is p - 1 with each prime factor of p - 1
    divided out for as long as q^s stays 1: a few modular powers once p - 1
    is factored (`_prime_factors`), not up to p - 1 multiplications.
    """
    q, p = check_integer(q, "q"), check_integer(p, "p")
    if p == q or q % p == 0:
        raise InvalidParamsError(f"order of {q} mod {p} undefined: p divides q")
    if not is_prime(p):
        raise InvalidParamsError(f"{p} is not prime")
    fermat = pow(q, p - 1, p)
    if fermat != 1:
        raise IdentityCheckError(
            f"ord_{p}({q}) does not divide p - 1 = {p - 1} (Fermat): q^(p - 1) = {fermat} mod p"
        )
    s = p - 1
    for f in _prime_factors(p - 1):
        while s % f == 0 and pow(q, s // f, p) == 1:
            s //= f
    return s


@dataclass(frozen=True)
class CoverParams:
    """The triple (p, q, r) and everything derived from it.

    p: odd prime, order of the gonal automorphism.
    q: prime != p with gcd(p, q-1) = 1, exponent of the homology cover.
    r: number of fixed points, >= 3.

    The base genus g = (p-1)(r-2)/2 must be >= 2.  g, the rank n = 2g of
    the homology group Z_q^n and s0 = ord_p(q) are computed once, when the
    triple is built, and kept as plain attributes beside the fields, so
    equality, hashing, repr and dataclasses.replace see only (p, q, r).  m
    and t are computed exactly on each read: r has no bound, so q^n is only
    built where it is asked for.
    """

    p: int
    q: int
    r: int

    def __post_init__(self):
        for name in ("p", "q", "r"):  # kept as check_integer reads them, so q^n is exact
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        p, q, r = self.p, self.q, self.r
        check_row_products(1, q)
        if p >= PRIMALITY_BOUND:
            raise InvalidParamsError(
                f"p = {quoted(p)} must be below {PRIMALITY_BOUND}, "
                "past which primality is not decided exactly"
            )
        if not (is_prime(p) and p % 2 == 1):
            raise InvalidParamsError(f"p = {p} must be an odd prime")
        if not is_prime(q):
            raise InvalidParamsError(f"q = {q} must be prime")
        if p == q:
            raise InvalidParamsError("p and q must be distinct primes")
        if r < 3:
            raise InvalidParamsError(f"r = {r} must be at least 3")
        if math.gcd(p, q - 1) != 1:
            raise InvalidParamsError(
                f"gcd(p, q-1) must be 1, got gcd({p}, {q - 1}) = {math.gcd(p, q - 1)}"
            )
        g = (p - 1) * (r - 2) // 2
        if g < 2:
            raise InvalidParamsError(f"base genus g = {g} < 2")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", 2 * g)
        object.__setattr__(self, "s0", order_mod(q, p))

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


def parameter_sweep() -> list[CoverParams]:
    """Every triple with p <= 13, q <= 7, r <= 6 that CoverParams accepts, in (p, q, r) order."""
    out = []
    for p, q, r in product(range(3, 14), range(2, 8), range(3, 7)):
        with suppress(InvalidParamsError):
            out.append(CoverParams(p, q, r))
    return out


@dataclass(frozen=True)
class PrimaryProjections:
    """The primary decomposition of the dual action v -> v T^(-1), per block.

    Phi_p = f_1 ... f_k over F_q with k = (p-1)/s0, so a (p-1)-entry block of
    a normal splits into components in V_i = {v : v f_i(B^(-1)) = 0}, B the
    companion block, each of dimension s0, for p, q and s0 those of `params`.
    All arrays are read-only:

    basis: U, bases of V_1, ..., V_k stacked, s0 rows each (`from_components`
        stacks their canonical bases, in the order given).
    coordinates: U^(-1), so a block v is (v U^(-1)) U, and its V_i-component is
        nonzero exactly when the i-th s0 entries of v U^(-1) are.

    However made (the constructor, `dataclasses.replace` or `from_components`),
    the table passes one check list, or IdentityCheckError names its witness:
    U and U^(-1) are (p-1) x (p-1); their entries are residues in 0 .. q - 1
    (the int64 bound `core_dim` relies on holds only for those); U U^(-1) = I
    mod q, hence U^(-1) U = I; and U B U^(-1) has nothing outside its diagonal
    s0 x s0 blocks, so each block of U spans a B-invariant space, which is
    then B^(-1) = B^(p-1)-invariant too.  Phi_p is squarefree with every factor
    of degree s0, so an invariant space of dimension s0 is one component: the
    checks pin the decomposition down, up to the order of its components.
    """

    params: CoverParams
    basis: np.ndarray
    coordinates: np.ndarray

    def __post_init__(self):
        p, q, s0 = self.params.p, self.params.q, self.params.s0
        d = p - 1
        for name, table in (("U", self.basis), ("U^-1", self.coordinates)):
            if table.shape != (d, d):
                raise IdentityCheckError(f"{name} has shape {table.shape}, not (p - 1) x (p - 1) = {d} x {d}")
            outside = np.argwhere((table < 0) | (table >= q))
            if outside.size:
                entry = tuple(outside[0].tolist())
                raise IdentityCheckError(f"{name} entry {entry} is {table[entry]}, not a residue in 0 .. {q - 1}")
        wrong = np.argwhere((self.basis @ self.coordinates) % q != np.eye(d, dtype=np.int64))
        if wrong.size:
            raise IdentityCheckError(f"U U^-1 differs from the identity at entry {tuple(wrong[0].tolist())}")
        moved = (self.basis @ _companion_block(p, q) % q) @ self.coordinates % q
        owner = np.arange(d) // s0
        stray = np.argwhere(moved * (owner[:, None] != owner[None, :]))
        if stray.size:
            row, col = stray[0].tolist()
            start = row - row % s0
            raise IdentityCheckError(
                f"component {row // s0} with basis {self.basis[start : start + s0].tolist()} is not "
                f"invariant: its row {row % s0} moves into component {col // s0}"
            )

    @classmethod
    def from_components(cls, components: list[np.ndarray], params: CoverParams) -> PrimaryProjections:
        """The tables for `components` (row bases), claimed to be the primary
        components of one block of T^(-1) for `params`, stacked, with U^(-1)
        from one elimination.

        IdentityCheckError with a witness unless there are (p-1)/s0 of them,
        each of dimension s0, with stacked rank p - 1; the constructor checks
        the rest.
        """
        d, q, s0 = params.p - 1, params.q, params.s0
        dims = [c.shape[0] for c in components]
        if dims != [s0] * (d // s0):
            raise IdentityCheckError(
                f"F_{q}^{d} split into spaces of dimensions {dims}, "
                f"not (p-1)/s0 = {d // s0} of dimension s0 = {s0}"
            )
        basis = np.vstack(components)
        # [U | I] reduces to [I | U^-1] exactly when U is invertible.
        red, pivots = rref_array(np.hstack([basis, np.eye(d, dtype=np.int64)]), q)
        rank = sum(c < d for c in pivots)
        if rank != d:
            raise IdentityCheckError(
                f"the {len(dims)} components have stacked rank {rank}, not p - 1 = {d}"
            )
        coordinates = np.ascontiguousarray(red[:, d:])
        basis.flags.writeable = coordinates.flags.writeable = False
        return cls(params, basis, coordinates)


def _gauss_period_eigenspaces(block: np.ndarray, q: int, s0: int) -> list[np.ndarray]:
    """Canonical bases of the joint eigenspaces of v -> v eta_C(M), M = `block`.

    eta_C(M) = sum_{c in C} M^c for each coset C of <q> in Z_p^*, p - 1 the
    size of M and s0 = ord_p(q).  Frobenius permutes each C, so eta_C(M) is a
    scalar of F_q on every primary component, and the k = (p-1)/s0 periods
    span Berlekamp's subalgebra F_q^k of F_q[M], so together they separate
    the components.  Where eta_C(M) is lambda, P = (eta_C(M) + c)^e with
    e = max(1, (q-1)//2) is (lambda + c)^e: 0, 1 or -1 by Euler's criterion.
    So each space is split by the kernels of P - eps, eps in {0, 1, q - 1},
    for the shifts c = 0, 1, ... until every space has dimension s0
    (Cantor-Zassenhaus, Math. Comp. 36, 1981), not by every lambda in F_q.
    Two distinct period values fall apart at some c < q, and at q = 2 and 3,
    where e = 1, at c = 0.  The components come in the order of their tuples
    of period values.
    """
    d = block.shape[0]
    p = d + 1
    coset = [-1] * p
    k = 0
    for a in range(1, p):
        if coset[a] < 0:
            for j in range(s0):
                coset[a * pow(q, j, p) % p] = k
            k += 1
    periods = np.zeros((k, d, d), dtype=np.int64)
    power = eye = np.eye(d, dtype=np.int64)
    for c in range(1, p):
        power = (power @ block) % q
        periods[coset[c]] += power
    periods %= q
    spaces = [eye]
    for shift in range(q):
        if all(space.shape[0] == s0 for space in spaces):
            break
        for period in periods:
            split_by = matpow_array(period + shift * eye, max(1, (q - 1) // 2), q)
            split = []
            for space in spaces:
                image = (space @ split_by) % q
                for value in {0, 1, q - 1}:
                    coefficients = kernel_array((image - value * space).T, q)
                    if coefficients.size:
                        split.append((coefficients @ space) % q)
            spaces = split
    components = [row_space_array(space, q) for space in spaces]
    # A canonical first row has a 1 at its pivot, so eta_C scales it by its image's entry there.
    return sorted(components, key=lambda c: (periods[:, :, np.flatnonzero(c[0])[0]] @ c[0] % q).tolist())


def _companion_block(p: int, q: int) -> np.ndarray:
    # Column i is the image of basis vector e_i: e_(i+1) for i < p-1,
    # and -(e_1 + ... + e_(p-1)) for the last one.
    d = p - 1
    block = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        block[i + 1, i] = 1
    block[:, d - 1] = (q - 1) % q
    return block


def companion_inverse_row(row: tuple, p: int, q: int) -> tuple:
    """row T^(-1) for the block companion matrix T of `_companion_block`, in plain Python.

    On a row w, the companion block gives (w B)_j = w_(j+1) for j < p-2 and
    (w B)_(p-2) = -(w_0 + ... + w_(p-2)).  So each block b of p-1 entries of
    v = row goes to (-(b_0 + ... + b_(p-2)) mod q, b_0, ..., b_(p-3)): a shift
    with the negated block sum in front.  No array, no power of T and no table.
    """
    d = p - 1
    image = ()
    for start in range(0, len(row), d):
        block = row[start : start + d]
        image += (-sum(block) % q,) + block[:-1]
    return image


class AdaptedAction:
    """The order-p matrix realizing conjugation on Z_q^n in the adapted basis."""

    def __init__(self, params: CoverParams):
        self.params = params
        p, q, n = params.p, params.q, params.n
        # Every product of the action's rows and columns sums n products of residues.
        check_row_products(n, q)
        block = _companion_block(p, q)
        # kron(I_(r-2), M) for M = B and B^(p-1), as one broadcast product each.
        blocks = np.eye(params.r - 2, dtype=np.int64)[:, None, :, None]
        self._matrix = (blocks * block[:, None, :]).reshape(n, n)
        self._inverse = (blocks * self._validated_inverse(block)[:, None, :]).reshape(n, n)
        self._matrix.flags.writeable = self._inverse.flags.writeable = False

    def _validated_inverse(self, block: np.ndarray) -> np.ndarray:
        """B^(p-1), once the block B has order p and 1 + B + ... + B^(p-1) = 0: T repeats
        B down its diagonal, so these are T's checks, and a witness in B is one in T."""
        p, q = self.params.p, self.params.q
        eye = np.eye(p - 1, dtype=np.int64)
        # One running product gives B^(p-1), B^p and 1 + B + ... + B^(p-1).
        power, total = eye, np.zeros_like(eye)
        for _ in range(p):
            total += power
            inverse = power
            power = (power @ block) % q
        if not np.array_equal(power, eye):
            raise IdentityCheckError(f"action for {self.params} does not have order p = {p}")
        if np.array_equal(block, eye):
            raise IdentityCheckError(f"action for {self.params} is trivial")
        annihilated = total % q
        if annihilated.any():
            raise IdentityCheckError(
                f"1 + T + ... + T^(p-1) does not vanish for {self.params}: "
                f"nonzero entry at {tuple(int(i) for i in np.argwhere(annihilated)[0])}"
            )
        return inverse

    @property
    def matrix_array(self) -> np.ndarray:
        """Read-only n x n action matrix."""
        return self._matrix

    @property
    def inverse_array(self) -> np.ndarray:
        """Read-only inverse T^(p-1) of the action matrix."""
        return self._inverse

    @cached_property
    def primary(self) -> PrimaryProjections:
        """Primary projections of the dual action, built on first use.

        The action is block-diagonal with one block repeated r-2 times, so
        the components are those of that block of the inverse.
        """
        block = self._inverse[: self.params.p - 1, : self.params.p - 1]
        components = _gauss_period_eigenspaces(block, self.params.q, self.params.s0)
        return PrimaryProjections.from_components(components, self.params)

    @cached_property
    def component_sums(self) -> np.ndarray:
        """Read-only 0/1 table S of shape (n, k), n = (r-2)(p-1) and k = (p-1)/s0, built on first use.

        S[b(p-1) + j, j // s0] = 1: the coordinates of the r-2 blocks of a
        normal in U^(-1) (`PrimaryProjections`), laid out flat, times S give
        one sum per primary component, over the s0 entries of that component
        in every block.
        """
        d, s0 = self.params.p - 1, self.params.s0
        owner = np.arange(self.params.n) % d // s0
        table = (owner[:, None] == np.arange(d // s0)).astype(np.int64)
        table.flags.writeable = False
        return table

    def __repr__(self) -> str:
        return f"AdaptedAction({self.params!r})"


def build_action(params: CoverParams) -> AdaptedAction:
    """Block-diagonal companion matrix of the cyclotomic polynomial mod q."""
    return AdaptedAction(params)


def invariant_subspaces(action: AdaptedAction, cap: int) -> list[Subspace]:
    """Every T-invariant subspace of F_q^n, canonical, read off the primary decomposition.

    W is invariant iff W = W_1 + ... + W_k with W_i an F_Q-subspace of the
    primary component V_i = ker f_i(T^(-1)), Q = q^s0.  In one block V_i is
    C_i, the span of the i-th s0 columns of U^(-1) (`PrimaryProjections`):
    U U^(-1) = I puts them in the annihilator of the other row components,
    which is T-invariant of dimension s0 as they are.  C_i is a copy of F_Q
    whose first canonical row u_i plays 1, and whose q^s0 vectors are its
    elements.  So the F_Q-echelon forms over the r-2 blocks (u_i in pivot
    blocks, any vector of C_i in free ones) list the W_i once each, and a
    form's F_q-span under B^(-j), j < s0, is its F_Q-span.

    The closed-form count (sum_e [r-2 choose e]_Q)^k past `cap` is refused
    with CapExceededError before anything is built.  IdentityCheckError,
    with a witness, if the listing is not that many distinct subspaces or
    one of them is not T-invariant.
    """
    params = action.params
    p, q, n, s0 = params.p, params.q, params.n, params.s0
    blocks, k, size = params.r - 2, (p - 1) // s0, q**s0
    per_component = sum(gaussian_count(blocks, e, size) for e in range(blocks + 1))
    message = f"F_{q}^{n} has {{}} invariant subspaces"
    expected = check_cap(cap, "invariant-subspace cap", message, per_component, k)
    step = action.inverse_array.T
    coefficients = decode_codes(np.arange(size), s0, q)
    columns = action.primary.coordinates
    summands = []
    for i in range(k):
        piece = row_space_array(columns[:, i * s0 : (i + 1) * s0].T, q)
        spans = []
        for e in range(blocks + 1):
            for form in iter_echelon_forms(blocks, e, piece[0], coefficients @ piece % q):
                orbit = [form]
                for _ in range(s0 - 1):
                    orbit.append(orbit[-1] @ step % q)
                spans.append(np.vstack(orbit))
        summands.append(spans)
    found = [
        Subspace._from_canonical(row_space_array(np.vstack(parts), q), n, q)
        for parts in product(*summands)
    ]
    distinct = len(set(found))
    if len(found) != expected or distinct != expected:
        raise IdentityCheckError(
            f"listed {len(found)} invariant subspaces of F_{q}^{n}, {distinct} distinct; "
            f"the closed form (sum_e [{blocks} choose e]_{size})^{k} is {expected}"
        )
    for sub in found:
        if not sub.is_invariant_under(action.matrix_array):
            raise IdentityCheckError(
                f"listed subspace with basis {sub.basis_array.tolist()} is not T-invariant"
            )
    return found
