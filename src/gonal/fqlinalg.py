"""Exact dense linear algebra over the prime fields F_q.

Values are numpy int64 arrays of residues in {0, ..., q-1}.  The `*_array`
kernels take plain ndarrays and the modulus as an argument; hot loops call
them directly.  :class:`Subspace` is the one value that carries its
modulus: a matrix or vector handed to it is reduced mod that modulus, and
input whose shape does not fit its ambient space raises
:class:`~gonal.errors.InvalidParamsError`, never silent reshaping.

Subspaces are value objects: a subspace is identified with the unique
reduced row-echelon basis of its row space, so equality and hashing are
cheap and orbit/core deduplication elsewhere in the package is exact.
Everything here is immutable after construction and safe to share across
threads.
Every null space costs a single elimination (see :func:`kernel_array`).
Within an elimination the entries leave {0, ..., q-1}: `rref_array` reads
each pivot column and row mod q, but reduces the whole array only at the
end and when the next update could pass int64 (:func:`_lazy_updates`), the
delayed reduction of exact linear algebra over word-size prime fields.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

import numpy as np

from .errors import IdentityCheckError, InvalidParamsError, check_integer, integer_array, quoted

_PRIMES_SEEN: set[int] = set()


# Miller-Rabin with the prime bases 2, ..., 41 decides primality exactly below
# this bound (Sorenson and Webster, 2015); is_prime refuses anything at or past it.
# The first four already decide below _FOUR_BASES_BOUND, the least strong pseudoprime
# to all of 2, 3, 5 and 7 (Pomerance, Selfridge and Wagstaff, 1980).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_FOUR_BASES_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Whether the integer `n` (read by check_integer) is prime, by deterministic Miller-Rabin.

    Exact below PRIMALITY_BOUND, in 4 modular powers below _FOUR_BASES_BOUND
    and 13 from it on; InvalidParamsError at or past PRIMALITY_BOUND, where
    these bases no longer decide.
    """
    n = check_integer(n, "n")
    if n >= PRIMALITY_BOUND:
        raise InvalidParamsError(
            f"{quoted(n)} is at or past {PRIMALITY_BOUND}, below which primality is decided exactly"
        )
    if n < 2:
        return False
    for base in _PRIME_BASES:
        if n % base == 0:
            return n == base
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _PRIME_BASES[:4] if n < _FOUR_BASES_BOUND else _PRIME_BASES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_row_products(n: int, q: int) -> None:
    """InvalidParamsError unless n (q-1)^2, the largest sum of n products of two
    residues mod q, is below 2^63: past it int64 arithmetic wraps."""
    if n * (q - 1) ** 2 >= 2**63:
        raise InvalidParamsError(
            f"modulus {q} with rows of length {n}: n (q-1)^2 reaches 2^63, past int64 arithmetic"
        )


def check_prime_modulus(q: int) -> int:
    """`q` as an int; InvalidParamsError unless it is an integer that is prime
    and whose products of two residues fit int64 (`check_row_products`)."""
    q = check_integer(q, "modulus")
    if q not in _PRIMES_SEEN:
        check_row_products(1, q)
        if not is_prime(q):
            raise InvalidParamsError(f"modulus {q} is not prime")
        _PRIMES_SEEN.add(q)
    return q


@cache
def inverse_table(q: int) -> np.ndarray:
    """inverse_table(q)[x] = x^-1 mod q for x in 1..q-1 (index 0 unused).

    Built once per modulus and shared by every caller, hence read-only.
    """
    # Exponentiation by q-2: branch-free and exact for the small primes used here.
    table = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
    table.flags.writeable = False
    return table


def as_residues(a, q: int) -> np.ndarray:
    """A fresh int64 array of the integers `a` reduced mod q, read by integer_array."""
    return integer_array(a, "entries", q)


def rref_array(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_q; returns (R, pivot columns).

    `a` is a vector (read as one row) or a 2-d array of integers; R is a fresh
    array of its rows x cols shape (zero rows trail); rank = len(pivots).
    InvalidParamsError for any other shape or a modulus that is not prime.

    Each pivot is one rank-1 update: the pivot row, scaled from its residues,
    is subtracted from every row as the outer product of the pivot column
    (read mod q) with it, the old row r moves into the pivot's slot (no
    swap), and the update is skipped when no other row has a nonzero residue
    in the pivot column.  The whole array is reduced mod q only when the
    next update could pass int64 (`_lazy_updates`) and once at the end.
    """
    q = check_prime_modulus(q)
    a = as_residues(a, q)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise InvalidParamsError(f"expected a vector or a 2-d array, got shape {a.shape}")
    rows, cols = a.shape
    pivots: list[int] = []
    lazy = _lazy_updates(q)
    pending = 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # The pivot column's residues, as an array for the update and a list to search.
        col = a[:, c] % q
        at = col.tolist()
        for piv in range(r, rows):
            if at[piv]:
                break
        else:
            continue
        scale = pow(at[piv], -1, q)
        prow = a[piv] % q
        if scale != 1:
            prow *= scale
            prow %= q
        if piv != r:
            a[piv] = a[r]
            col[piv] = at[piv] = at[r]
        at[r] = 0
        if any(at):
            col[r] = 0
            if pending == lazy:
                a %= q
                pending = 0
            a -= np.multiply.outer(col, prow)
            pending += 1
        a[r] = prow
        pivots.append(c)
        r += 1
    if pending:
        a %= q
    return a, pivots


def _lazy_updates(q: int) -> int:
    """How many rank-1 updates rref_array may run on an array between reductions mod q.

    A reduced entry lies in [0, q), and an update subtracts a product of two
    residues, at most (q - 1)^2, from it; so after k updates it lies in
    [-k (q - 1)^2, q), which int64 holds while k (q - 1)^2 <= 2^63 - 1.
    The pivot row is reduced before it is scaled, so its product with an
    inverse below q is at most (q - 1)^2 too.  Effectively unlimited at
    q = 3; one (a reduction before every update) at q = 3037000493, the
    largest prime modulus check_prime_modulus admits.
    """
    return (2**63 - 1) // (q - 1) ** 2


def kernel_array(a: np.ndarray, q: int) -> np.ndarray:
    """Canonical RREF basis (rows) of {x : a @ x = 0} over F_q, read off one elimination.

    Let J reverse the columns and R' = rref(a J), pivots p'_i.  Each free f gives x_f =
    J (e_f - sum_i R'[i, f] e_{p'_i}) in ker(a): a 1 at n-1-f, all else right of it (R'[i, f] = 0
    unless p'_i < f) on the n-1-p'_i, which lead no row.  So the x_f by descending f are the RREF.
    `a` is a vector or a 2-d array, as for rref_array.
    """
    a = as_residues(a, check_prime_modulus(q))
    if a.ndim not in (1, 2):
        raise InvalidParamsError(f"expected a vector or a 2-d array, got shape {a.shape}")
    red, pivots = rref_array(a[..., ::-1], q)
    cols = red.shape[1]
    rank = len(pivots)
    if rank == cols:
        return np.zeros((0, cols), dtype=np.int64)
    taken = set(pivots)
    free = [f for f in range(cols - 1, -1, -1) if f not in taken]
    basis = np.zeros((cols - rank, cols), dtype=np.int64)
    basis[range(cols - rank), [cols - 1 - f for f in free]] = 1
    basis[:, [cols - 1 - c for c in pivots]] = (-red[:rank, free].T) % q
    return basis


def row_space_array(a: np.ndarray, q: int) -> np.ndarray:
    """Canonical RREF basis of the row space of `a` (as for rref_array), zero rows removed."""
    red, pivots = rref_array(a, q)
    return red[: len(pivots)]


def matpow_array(a: np.ndarray, e: int, q: int) -> np.ndarray:
    """a^e mod q by repeated squaring, for a square integer matrix `a` and an integer e >= 0."""
    q = check_prime_modulus(q)
    base = as_residues(a, q)
    e = check_integer(e, "exponent")
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise InvalidParamsError(f"expected a square 2-d array, got shape {base.shape}")
    check_row_products(len(base), q)
    if e < 0:
        raise InvalidParamsError(f"exponent {e} is negative")
    result = np.eye(len(base), dtype=np.int64)
    while e > 0:
        if e & 1:
            result = (result @ base) % q
        base = (base @ base) % q
        e >>= 1
    return result


def check_code_width(n: int, q: int) -> None:
    """Refuse rows of length n over F_q whose largest code, q^n - 1, is past int64.

    (b - 1) n >= 64, b the bit length of q, already means q^n >= 2^64: the
    power is built only when it is below 2^128.
    """
    if (q.bit_length() - 1) * n >= 64 or q**n > 2**63:
        raise InvalidParamsError(
            f"rows of length {n} over F_{q} have base-{q} codes up to {q}^{n} - 1, "
            f"past the int64 maximum 2^63 - 1"
        )


@cache
def _code_weights(n: int, q: int) -> np.ndarray:
    """q^(n-1), ..., q, 1, read-only; rows of length n past int64 are refused
    on every call, since a call that raises is not cached."""
    check_code_width(n, q)
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    weights.flags.writeable = False
    return weights


def encode_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of each residue row (last axis); codes sort like the rows."""
    return rows @ _code_weights(rows.shape[-1], q)


def decode_codes(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    """Residue rows of length n with base-q codes `codes` (any shape, read by integer_array);
    inverts encode_rows.  InvalidParamsError naming the first code outside 0 .. q^n - 1."""
    check_code_width(n, q)
    codes = integer_array(codes, "codes")
    outside = codes[(codes < 0) | (codes > q**n - 1)]
    if outside.size:
        raise InvalidParamsError(f"code {outside[0]} is outside 0 .. {q**n - 1}")
    out = np.empty(codes.shape + (n,), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[..., i] = codes % q
        codes = codes // q
    return out


def iter_echelon_forms(blocks: int, k: int, one: np.ndarray, entries: np.ndarray):
    """Yield every k-row echelon form over `blocks` blocks, as (k, blocks * width) arrays.

    A block is a width-wide slot holding one field element, as a row of
    `entries` (all the field's elements).  Row i holds `one` in its pivot
    block, zeros before it and in the other rows' pivot blocks, and any
    entry in each other block after it.  Order: pivot blocks lexicographic,
    then free entries lexicographic in the order of `entries`; each form once.
    `one` and `entries` are read by integer_array, and `k` is checked, at the
    call, not at the first form.
    """
    if not 0 <= k <= blocks:
        raise InvalidParamsError(f"need 0 <= k <= blocks, got k={k}, blocks={blocks}")
    return _echelon_forms(blocks, k, integer_array(one, "pivot entries"), integer_array(entries, "entries"))


def _echelon_forms(blocks: int, k: int, one: np.ndarray, entries: np.ndarray):
    width = entries.shape[1]
    values = entries.tolist()
    for pivots in combinations(range(blocks), k):
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, blocks) if c not in pivots]
        base = np.zeros((k, blocks, width), dtype=np.int64)
        base[np.arange(k), np.array(pivots, dtype=np.intp)] = one
        base = base.reshape(-1)
        # Positions of the free blocks' entries in the flattened form, block by block.
        slots = np.array(
            [(i * blocks + c) * width + j for i, c in free for j in range(width)], dtype=np.intp
        )
        for picks in product(values, repeat=len(free)):
            form = base.copy()
            form[slots] = [x for value in picks for x in value]
            yield form.reshape(k, blocks * width)


def gaussian_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (Gaussian binomial); q any prime power.

    Each argument is read by check_integer.
    """
    n, k, q = check_integer(n, "n"), check_integer(k, "k"), check_integer(q, "q")
    if q < 2:
        raise InvalidParamsError(f"need q >= 2, got q={q}")
    if not 0 <= k <= n:
        raise InvalidParamsError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (k - j) - 1
    count, rest = divmod(num, den)
    if rest:
        raise IdentityCheckError(f"Gaussian binomial [{n} {k}]_{q}: {num} / {den} is not integral")
    return count


def _check_ambient_dim(ambient_dim) -> int:
    """`ambient_dim` as an int by check_integer; InvalidParamsError if negative."""
    dim = check_integer(ambient_dim, "ambient_dim")
    if dim < 0:
        raise InvalidParamsError(f"ambient_dim {dim} is negative")
    return dim


class Subspace:
    """Subspace of F_q^n, held as the unique RREF basis of its row space."""

    __slots__ = ("ambient_dim", "modulus", "_rows")

    def __init__(self, basis_rows, ambient_dim: int, modulus: int):
        self.modulus = check_prime_modulus(modulus)
        self.ambient_dim = _check_ambient_dim(ambient_dim)
        rows = row_space_array(self._as_rows(basis_rows), self.modulus)
        rows.flags.writeable = False
        self._rows = rows

    @classmethod
    def _from_canonical(cls, rows: np.ndarray, ambient_dim: int, modulus: int):
        # Trusted internal path: rows already canonical RREF without zero rows.
        self = cls.__new__(cls)
        self.modulus = modulus
        self.ambient_dim = ambient_dim
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        rows.flags.writeable = False
        self._rows = rows
        return self

    @classmethod
    def zero(cls, ambient_dim: int, modulus: int) -> "Subspace":
        dim = _check_ambient_dim(ambient_dim)
        return cls(np.zeros((0, dim), dtype=np.int64), dim, modulus)

    @classmethod
    def full(cls, ambient_dim: int, modulus: int) -> "Subspace":
        dim = _check_ambient_dim(ambient_dim)
        return cls(np.eye(dim, dtype=np.int64), dim, modulus)

    @property
    def dim(self) -> int:
        return self._rows.shape[0]

    @property
    def basis_array(self) -> np.ndarray:
        """Read-only (dim x ambient_dim) RREF basis array."""
        return self._rows

    def _as_rows(self, rows) -> np.ndarray:
        """`rows` mod q as a 2-d array; only a vector or rows of length ambient_dim fit."""
        a = as_residues(rows, self.modulus)
        if a.ndim not in (1, 2) or a.shape[-1] != self.ambient_dim:
            raise InvalidParamsError(
                f"expected a vector or rows of length {self.ambient_dim}, got shape {a.shape}"
            )
        return a.reshape(-1, self.ambient_dim)

    def _square(self, m) -> np.ndarray:
        """`m` mod q, a square integer matrix of side ambient_dim acting on columns."""
        matrix = as_residues(m, self.modulus)
        if matrix.shape != (self.ambient_dim, self.ambient_dim):
            raise InvalidParamsError(
                f"expected a square matrix of side {self.ambient_dim}, got shape {matrix.shape}"
            )
        return matrix

    def contains_rows(self, rows: np.ndarray) -> bool:
        """True iff every row of `rows` (or the vector `rows`) lies in this subspace."""
        stacked = np.vstack([self._rows, self._as_rows(rows)])
        return len(row_space_array(stacked, self.modulus)) == self.dim  # the rank stays dim

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim or self.modulus != other.modulus:
            raise InvalidParamsError(
                f"subspaces live in F_{self.modulus}^{self.ambient_dim} vs "
                f"F_{other.modulus}^{other.ambient_dim}"
            )
        # Left-kernel method: (u, -w) with u@A = w@B spans the coefficient
        # solutions; u@A then spans the intersection.
        stacked = np.vstack([self._rows, other._rows])
        left = kernel_array(stacked.T, self.modulus)
        vecs = (left[:, : self.dim] @ self._rows) % self.modulus
        return Subspace(vecs, self.ambient_dim, self.modulus)

    def transform(self, m: np.ndarray) -> "Subspace":
        """Image {M v : v in self}; M is reduced mod this subspace's modulus."""
        image = (self._rows @ self._square(m).T) % self.modulus
        return Subspace(image, self.ambient_dim, self.modulus)

    def is_invariant_under(self, m: np.ndarray) -> bool:
        """True iff M maps this subspace into itself (M as for transform)."""
        return self.contains_rows(self._rows @ self._square(m).T % self.modulus)

    def vectors(self):
        """Iterate all q^dim vectors of the subspace (small spaces only)."""
        for coeffs in product(range(self.modulus), repeat=self.dim):
            yield (np.array(coeffs, dtype=np.int64) @ self._rows) % self.modulus

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.ambient_dim == other.ambient_dim
            and self._rows.shape == other._rows.shape
            and np.array_equal(self._rows, other._rows)
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.ambient_dim, self._rows.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim}, "
            f"modulus={self.modulus})"
        )

