"""Exact dense linear algebra over the prime fields F_q.

Values are numpy int64 arrays of residues in {0, ..., q-1}.  The `*_array`
kernels take plain ndarrays and the modulus as an argument; hot loops call
them directly.  :class:`Subspace` is the one value that carries its
modulus: a matrix or vector handed to it is reduced mod that modulus, and
input whose shape does not fit its ambient space raises
:class:`~gonal.errors.AmbientMismatchError`, never silent reshaping.

Subspaces are value objects: a subspace is identified with the unique
reduced row-echelon basis of its row space, so equality and hashing are
cheap and orbit/core deduplication elsewhere in the package is exact.
Everything here is immutable after construction and safe to share across
threads.  Every null space costs a single elimination (see
:func:`kernel_array`).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

import numpy as np

from .errors import AmbientMismatchError, InvalidParamsError

_PRIMES_SEEN: set[int] = set()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime_modulus(q: int) -> int:
    """`q` as an int; InvalidParamsError unless it is an integer that is prime."""
    if type(q) is not int:
        if not isinstance(q, np.integer):
            raise InvalidParamsError(f"modulus {q!r} is not an integer")
        q = int(q)
    if q not in _PRIMES_SEEN:
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
    """Copy `a` into a fresh int64 array reduced mod q.

    Only integers are taken: float, complex, string or other values raise
    InvalidParamsError rather than being truncated.  Integers past int64
    (Python ints, uint64) are reduced exactly, through an object array.
    """
    arr = np.asarray(a)
    kind = arr.dtype.kind
    if kind in "ib" or (kind == "u" and arr.itemsize < 8) or arr.size == 0:
        return arr.astype(np.int64, copy=False) % q
    if kind in "uO" and all(isinstance(x, (int, np.integer)) for x in arr.flat):
        return (arr.astype(object) % q).astype(np.int64)
    raise InvalidParamsError(f"expected integer entries, got {arr.dtype} values")


def rref_array(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_q; returns (R, pivot columns).

    R keeps the input shape (zero rows trail); rank = len(pivots).
    """
    a = as_residues(a, q)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows, cols = a.shape
    inv = inverse_table(q)
    pivots: list[int] = []
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
        # Full width in place: at these sizes slicing off reduced columns costs more.
        if sel.any():
            a -= sel[:, None] * a[r]
            a %= q
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_array(a: np.ndarray, q: int) -> np.ndarray:
    """Canonical RREF basis (rows) of {x : a @ x = 0} over F_q, read off one elimination.

    Let J reverse the columns and R' = rref(a J), pivots p'_i.  Each free f gives x_f =
    J (e_f - sum_i R'[i, f] e_{p'_i}) in ker(a): a 1 at n-1-f, all else right of it (R'[i, f] = 0
    unless p'_i < f) on the n-1-p'_i, which lead no row.  So the x_f by descending f are the RREF.
    """
    red, pivots = rref_array(np.atleast_2d(np.asarray(a))[:, ::-1], q)
    cols = red.shape[1]
    rank = len(pivots)
    if rank == cols:
        return np.zeros((0, cols), dtype=np.int64)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)[::-1]
    basis = np.zeros((cols - rank, cols), dtype=np.int64)
    basis[np.arange(cols - rank), cols - 1 - free] = 1
    basis[:, cols - 1 - np.array(pivots, dtype=np.intp)] = (-red[:rank, free].T) % q
    return basis


def row_space_array(a: np.ndarray, q: int) -> np.ndarray:
    """Canonical RREF basis of the row space of `a`, zero rows removed."""
    red, pivots = rref_array(np.atleast_2d(np.asarray(a)), q)
    return red[: len(pivots)]


def matpow_array(a: np.ndarray, e: int, q: int) -> np.ndarray:
    """a^e mod q by repeated squaring; e >= 0."""
    n = a.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = as_residues(a, q)
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


def encode_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of each residue row (last axis); codes sort like the rows."""
    n = rows.shape[-1]
    check_code_width(n, q)
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return rows @ weights


def decode_codes(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    """Residue rows of length n with base-q codes `codes` (any shape); inverts encode_rows."""
    check_code_width(n, q)
    codes = np.array(codes, dtype=np.int64)
    out = np.empty(codes.shape + (n,), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[..., i] = codes % q
        codes = codes // q
    return out


def iter_subspace_bases(n: int, k: int, q: int):
    """Yield the canonical RREF basis of every k-dim subspace of F_q^n.

    Enumeration order: pivot columns lexicographic, then free entries
    lexicographic; deterministic and duplicate-free by construction.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        yield np.zeros((0, n), dtype=np.int64)
        return
    for pivots in combinations(range(n), k):
        free_pos = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        base = np.zeros((k, n), dtype=np.int64)
        for i, pc in enumerate(pivots):
            base[i, pc] = 1
        for vals in product(range(q), repeat=len(free_pos)):
            mat = base.copy()
            for (i, c), v in zip(free_pos, vals):
                mat[i, c] = v
            yield mat


class Subspace:
    """Subspace of F_q^n, held as the unique RREF basis of its row space."""

    __slots__ = ("ambient_dim", "modulus", "_rows")

    def __init__(self, basis_rows, ambient_dim: int, modulus: int):
        self.modulus = check_prime_modulus(modulus)
        self.ambient_dim = int(ambient_dim)
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
        return cls(np.zeros((0, ambient_dim), dtype=np.int64), ambient_dim, modulus)

    @classmethod
    def full(cls, ambient_dim: int, modulus: int) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=np.int64), ambient_dim, modulus)

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
            raise AmbientMismatchError(
                f"expected a vector or rows of length {self.ambient_dim}, got shape {a.shape}"
            )
        return a.reshape(-1, self.ambient_dim)

    def _image_rows(self, m) -> np.ndarray:
        """Rows spanning {M v : v in self}, M a square integer matrix acting on columns."""
        if np.shape(m) != (self.ambient_dim, self.ambient_dim):
            raise AmbientMismatchError(
                f"expected a square matrix of side {self.ambient_dim}, got shape {np.shape(m)}"
            )
        return (self._rows @ as_residues(m, self.modulus).T) % self.modulus

    def contains(self, v) -> bool:
        """True iff the vector v lies in this subspace."""
        if np.ndim(v) != 1:
            raise AmbientMismatchError(f"expected a vector, got an array with {np.ndim(v)} axes")
        return self.contains_rows(v)

    def contains_rows(self, rows: np.ndarray) -> bool:
        """True iff every row of `rows` (or the vector `rows`) lies in this subspace."""
        rows = self._as_rows(rows)
        for row_basis in self._rows:
            pc = int(np.nonzero(row_basis)[0][0])
            rows = (rows - np.outer(rows[:, pc], row_basis)) % self.modulus
        return not np.any(rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim or self.modulus != other.modulus:
            raise AmbientMismatchError(
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
        return Subspace(self._image_rows(m), self.ambient_dim, self.modulus)

    def is_invariant_under(self, m: np.ndarray) -> bool:
        """True iff M maps this subspace into itself (M as for transform)."""
        return self.contains_rows(self._image_rows(m))

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

