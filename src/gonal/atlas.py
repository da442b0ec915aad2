"""Atlas of maximal subgroups of Z_q^n under the lifted order-p action.

A maximal (index-q) subgroup of Z_q^n is a hyperplane, stored as its dual
normal: a nonzero covector scaled so its first nonzero entry is 1.  That
keeps storage at O(n), makes deduplication a tuple comparison, and gives
every orbit a canonical representative (the lexicographically least normal).

Conjugating a hyperplane by the action T moves its kernel to T.ker(h),
which on normals is v -> v T^(-1).  T is the block companion matrix of
1 + x + ... + x^(p-1), so one normal is conjugated by the block rule
(`conjugate_hyperplane`): each block b of p - 1 entries becomes
(-sum(b) mod q, b_0, ..., b_(p-3)), and the image is scaled by
pow(lead, -1, q), in plain Python.  Orbits all have size exactly p because
gcd(p, q-1) = 1 rules out fixed hyperplanes.  The core of a hyperplane is
the intersection of its p conjugate kernels, i.e. the kernel of the stacked
conjugate normals; it determines the Galois group of the composite cover.

The full classification (`orbit_classes`) applies the conjugation to the
m = (q^n - 1)/(q - 1) normals once, in fixed-size chunks, as a successor
permutation of their indices in lexicographic order.  Indices are closed
form: the normal whose leading 1 has w entries after it and whose tail has
base-q code c sits at index (q^w - 1)/(q - 1) + c, so the sweep decodes
each chunk of normals from its indices and reads each image's index off its
code and the position of its leading 1; no table of the m codes is built,
searched or sorted.  p - 2 gathers give every normal its orbit minimum, a
normal is an orbit representative iff it is its own minimum, p - 1 more
gathers read the orbits off the representatives, one boolean array checks
that they cover every normal, and only the (t, p) result is turned into
codes.  The sweep is cheap because every step is a whole-array gather or
comparison on indices, with no search, sort or table of codes, and it
holds no more than four length-m index arrays at once.  Cores are
extracted per class afterwards, one chunk of classes at a time; classes
with equal cores share one read-only Subspace (at (13,3,3) the t = 20,440
classes have 15 distinct cores), which is checked once, when it is first
found: T-invariant, of a dimension divisible by s0 and at least n - p.  A
class keeps its orbit as p integer codes and decodes its members only when
asked.  Its check (`OrbitClass.verify`) walks the chain from the
representative by the block rule, matching each conjugate against the next
stored member, decoded from its code by two table lookups: the sweep's
product with T^(-1) and the block rule are two independent computations of
the conjugation.  Output order (by representative) is deterministic;
per-class work is independent, so the merge would be identical under any
parallel schedule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, total_ordering
from importlib.resources import files as _resource_files
from math import comb

import numpy as np

from .action import AdaptedAction, CoverParams, build_action, companion_inverse_row
from .errors import FixtureParseError, IdentityCheckError, InvalidParamsError, check_cap
from .fqlinalg import (
    Subspace,
    as_residues,
    check_code_width,
    check_prime_modulus,
    decode_codes,
    encode_rows,
    inverse_table,
    kernel_array,
)

DEFAULT_ATLAS_CAP = 3**13


@total_ordering
class Hyperplane:
    """Index-q subgroup of Z_q^n as a normalized dual normal.

    `normal` is the tuple of residues; `normal_array()` is the same residues
    as a read-only int64 vector, shared by every caller: the one the
    constructor normalized, or, for a hyperplane made from a tuple that is
    already normalized, one built on first call.
    """

    __slots__ = ("normal", "modulus", "_array")

    def __init__(self, normal, modulus: int):
        modulus = check_prime_modulus(modulus)
        vec = as_residues(normal, modulus)
        if vec.ndim != 1:
            raise InvalidParamsError(f"a hyperplane normal must be a vector, got shape {vec.shape}")
        residues = vec.tolist()
        lead = next(filter(None, residues), 0)
        if lead == 0:
            raise InvalidParamsError("a hyperplane normal must be nonzero")
        if lead != 1:
            vec = (vec * pow(lead, modulus - 2, modulus)) % modulus
            residues = vec.tolist()
        vec.flags.writeable = False
        self.normal = tuple(residues)
        self.modulus = modulus
        self._array = vec

    @classmethod
    def _from_normalized(cls, normal: tuple, modulus: int) -> "Hyperplane":
        self = cls.__new__(cls)
        self.normal = normal
        self.modulus = modulus
        self._array = None
        return self

    @classmethod
    def from_subspace(cls, sub: Subspace) -> "Hyperplane":
        """Dual normal of a codimension-one subspace."""
        if sub.dim != sub.ambient_dim - 1:
            raise InvalidParamsError(
                f"subspace of dim {sub.dim} in F^{sub.ambient_dim} is not a hyperplane"
            )
        normals = kernel_array(sub.basis_array, sub.modulus)
        return cls(normals[0], sub.modulus)

    @property
    def ambient_dim(self) -> int:
        return len(self.normal)

    def normal_array(self) -> np.ndarray:
        """The normal as a read-only int64 vector, kept and shared: copy it to change it."""
        if self._array is None:
            vec = np.array(self.normal, dtype=np.int64)
            vec.flags.writeable = False
            self._array = vec
        return self._array

    def kernel(self) -> Subspace:
        """The subgroup itself: {x : normal . x = 0}, dimension n - 1, with no elimination.

        With l the last nonzero entry of the normal h, the canonical RREF basis
        is e_i - h_i h_l^(-1) e_l for i < l and e_i for i > l: every column but
        l leads a row.  Each product h_i h_l^(-1) is below (q-1)^2 < 2^63.
        """
        q = self.modulus
        last = max(i for i, x in enumerate(self.normal) if x)
        scale = pow(self.normal[last], -1, q)
        rows = np.delete(np.eye(self.ambient_dim, dtype=np.int64), last, axis=0)
        rows[:last, last] = -self.normal_array()[:last] * scale % q
        return Subspace._from_canonical(rows, self.ambient_dim, q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.modulus == other.modulus and self.normal == other.normal

    def __lt__(self, other) -> bool:
        """Lexicographic order of normals over one field and length (how a class sorts
        its members); InvalidParamsError across spaces, TypeError against other types."""
        if not isinstance(other, Hyperplane):
            return NotImplemented
        if self.modulus != other.modulus or self.ambient_dim != other.ambient_dim:
            raise InvalidParamsError(f"{self} and {other} live over different spaces")
        return self.normal < other.normal

    def __hash__(self) -> int:
        return hash((self.modulus, self.normal))

    def __repr__(self) -> str:
        return f"Hyperplane({list(self.normal)}, modulus={self.modulus})"


def enumerate_hyperplanes(params: CoverParams, cap: int = DEFAULT_ATLAS_CAP):
    """Iterator over all m hyperplane normals in lexicographic order, each once.

    `cap` bounds the ambient size q^n; it is checked at the call, not at the first item.
    """
    q, n = params.q, params.n
    check_cap(cap, "atlas cap", "hyperplane enumeration needs ambient size {}", q, n)
    return (
        Hyperplane._from_normalized(tuple(row), q)
        for _, rows in _normal_chunks(n, q)
        for row in rows.tolist()
    )


def _check_space(h: Hyperplane, params: CoverParams) -> None:
    if h.modulus != params.q or h.ambient_dim != params.n:
        raise InvalidParamsError("hyperplane and action live over different spaces")


def _action_for(params: CoverParams, action: AdaptedAction | None) -> AdaptedAction:
    """`action`, or the action of `params` built here when it is None; one built for other params is refused."""
    if action is None:
        return build_action(params)
    if action.params is not params and action.params != params:
        raise InvalidParamsError(f"action built for {action.params}, not {params}")
    return action


def conjugate_hyperplane(h: Hyperplane, action: AdaptedAction) -> Hyperplane:
    """Hyperplane whose kernel is T.ker(h): on normals, v -> v T^(-1).

    Computed by the companion-block rule (`companion_inverse_row`): each block
    b of p - 1 entries becomes (-sum(b) mod q, b_0, ..., b_(p-3)), and the
    image is scaled by pow(lead, -1, q).  Plain Python on the normal tuple,
    with no array and no q-sized table; it reads only p and q off `action`,
    so it is independent of the sweep's product with `action.inverse_array`.
    """
    params = action.params
    q = params.q
    _check_space(h, params)
    image = companion_inverse_row(h.normal, params.p, q)
    # T^(-1) is invertible, so the image of a normal is nonzero.
    lead = next(filter(None, image))
    if lead != 1:
        scale = pow(lead, -1, q)
        image = tuple([x * scale % q for x in image])
    return Hyperplane._from_normalized(image, q)


def core(h: Hyperplane, action: AdaptedAction) -> Subspace:
    """Intersection of the p conjugate kernels of h; always T-invariant."""
    p, q, n = action.params.p, action.params.q, action.params.n
    _check_space(h, action.params)
    stack = np.empty((p, n), dtype=np.int64)
    row = h.normal_array()
    for j in range(p):
        stack[j] = row
        row = (row @ action.inverse_array) % q
    rows = kernel_array(stack, q)
    return Subspace._from_canonical(rows, n, q)


def core_dim(h: Hyperplane, action: AdaptedAction) -> int:
    """dim core(h) read off the primary decomposition, without an elimination.

    The conjugate normals h T^(-j) span the cyclic module of h under
    v -> v T^(-1), of dimension deg of h's minimal polynomial.  Phi_p is
    squarefree, so that polynomial is the product of the f_i over
    J = {i : h has a nonzero f_i-component}, read off the coordinates
    h U^(-1) of each block in the stacked component bases U; core dim =
    n - s0 |J|.  However it was made, `PrimaryProjections` checked that its
    blocks of U are the components and that U U^(-1) = I, so those
    coordinates give h back.  They are one product mod q, each entry a sum
    of p - 1 <= n products of residues.  One product with the 0/1 table
    `action.component_sums` then sums each component's coordinates: they
    are residues in 0 .. q - 1, so a sum is 0 exactly when its component
    is, and none passes n(q - 1).  The action's int64 bound
    (`check_row_products(n, q)`, n (q - 1)^2 < 2^63) covers both products.
    """
    params = action.params
    _check_space(h, params)
    # ndarray.dot, not @: on products this small it skips matmul's ufunc dispatch, about 0.2 µs each.
    coordinates = h.normal_array().reshape(params.r - 2, params.p - 1).dot(action.primary.coordinates)
    coordinates %= params.q
    return params.n - params.s0 * int(np.count_nonzero(coordinates.ravel().dot(action.component_sums)))


def core_dims(action: AdaptedAction, normals) -> np.ndarray:
    """dim core(h) for each row h of a (k, n) array of normals, by `core_dim`'s rule.

    The rows are read by `as_residues` (any integers, reduced mod q) and need
    not be normalized: a normal and its multiples have one core.  Returns an
    int64 vector of k dimensions.  No table is checked here:
    `PrimaryProjections` checked its tables when they were built.
    InvalidParamsError for anything but a 2-d array, rows of another length
    than n, and a zero row, which is no hyperplane's normal (naming it).
    """
    n = action.params.n
    rows = as_residues(normals, action.params.q)
    if rows.ndim != 2:
        raise InvalidParamsError(f"core_dims takes a 2-d array of normals, got shape {rows.shape}")
    if rows.shape[1] != n:
        raise InvalidParamsError(f"normals of {rows.shape[1]} entries, not n = {n}")
    zero = np.flatnonzero(~rows.any(axis=1))
    if zero.size:
        raise InvalidParamsError(f"normal {zero[0]} is zero, not a hyperplane normal")
    return _core_dims_of_residues(action, rows)


def _core_dims_of_residues(action: AdaptedAction, rows: np.ndarray) -> np.ndarray:
    """`core_dims` on a (k, n) int64 array of nonzero residue rows, which is not checked."""
    params = action.params
    coordinates = rows.reshape(-1, params.p - 1) @ action.primary.coordinates
    coordinates %= params.q
    sums = coordinates.reshape(rows.shape[0], params.n) @ action.component_sums
    return params.n - params.s0 * np.count_nonzero(sums, axis=1)


def core_dim_counts(params: CoverParams, cap: int = DEFAULT_ATLAS_CAP) -> dict[int, int]:
    """Exact number of the m normals with each core dimension, largest dimension first.

    `core_dims`' rule on the sweep's chunks of normals (`_normal_chunks`),
    which are nonzero residue rows already, so no more than one chunk is
    held at once and none is re-read; `cap` bounds the ambient size q^n as
    in `orbit_classes`, and is checked before the action is built.  Every
    orbit has p members with one core, so the counts are p times
    `core_histogram`'s.
    """
    q, n = params.q, params.n
    check_cap(cap, "atlas cap", "counting core dimensions needs ambient size {}", q, n)
    action = build_action(params)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, rows in _normal_chunks(n, q):
        counts += np.bincount(_core_dims_of_residues(action, rows), minlength=n + 1)
    return {dim: int(counts[dim]) for dim in range(n, -1, -1) if counts[dim]}


@cache
def _digit_tables(n: int, q: int) -> tuple[int, tuple, tuple, tuple]:
    """(q^h, high, low, lead) for h = n // 2: high[c] and low[c] are the digits of c
    as n - h and h residues, lead[c] the leading nonzero digit of c (0 for c = 0)."""
    def digits(width):
        return tuple(map(tuple, decode_codes(np.arange(q**width), width, q).tolist()))

    h = n // 2
    high = digits(n - h)
    lead = tuple(next((x for x in row if x), 0) for row in high)
    return q**h, high, digits(h), lead


def _normal_of_code(code: int, n: int, q: int) -> tuple:
    """The normalized normal in F_q^n with base-q code `code`, as two table halves.

    InvalidParamsError unless the leading base-q digit is 1 and the code has
    at most n digits, i.e. unless `code` is in q^w + [0, q^w) for some w < n.
    """
    size, high, low, lead = _digit_tables(n, q)
    top, bottom = divmod(code, size)
    if not 0 <= top < len(high) or lead[top or bottom] != 1:
        raise InvalidParamsError(f"{code} is not the code of a normalized normal in F_{q}^{n}")
    return high[top] + low[bottom]


@dataclass(frozen=True, slots=True)
class OrbitClass:
    """One conjugation orbit of hyperplanes with its core.

    `codes` holds the p base-q normal codes of the orbit: the representative
    followed by its successive conjugates.  Members are decoded on access
    and not kept, so a class costs p ints rather than p Hyperplanes.  The
    core is read-only and may be shared with other classes that have it.
    """

    codes: tuple[int, ...]
    core: Subspace

    def _hyperplane(self, code: int) -> Hyperplane:
        n, q = self.core.ambient_dim, self.core.modulus
        return Hyperplane._from_normalized(_normal_of_code(code, n, q), q)

    @property
    def members(self) -> tuple[Hyperplane, ...]:
        return tuple(self._hyperplane(c) for c in self.codes)

    @property
    def representative(self) -> Hyperplane:
        if not self.codes:
            raise IdentityCheckError("orbit with codes [] has no representative")
        return self._hyperplane(self.codes[0])

    @property
    def core_dim(self) -> int:
        return self.core.dim

    def verify(self, action: AdaptedAction) -> None:
        """Recheck the orbit invariants, reading the stored members off their codes.

        Raises IdentityCheckError on any failure: orbit size, least member
        first, chain consistency, or a first or least code that is no
        normal's code.  Size and least member are read off the codes, which
        sort like the normals.  The chain is walked from the representative:
        each conjugate (`conjugate_hyperplane`, the companion-block rule)
        must be the next stored member, decoded by `_normal_of_code`, and the
        p-th the representative again; a later code that is no normal's code
        breaks the chain as well.  The sweep found those codes by its own
        product with `action.inverse_array`, so the walk checks one
        computation of T^(-1) against another.  The core is not read here:
        `orbit_classes` checked it when it interned it.
        """
        params = action.params
        p, q, n = params.p, params.q, params.n
        codes = self.codes
        if len(codes) != p or len(set(codes)) != p:
            raise IdentityCheckError(f"orbit with codes {list(codes)} has size != {p}")
        least = min(codes)
        try:
            member = self._hyperplane(codes[0])
            if codes[0] != least:
                raise IdentityCheckError(
                    f"representative {member} is not the least orbit member "
                    f"{self._hyperplane(least)}"
                )
        except InvalidParamsError as exc:
            raise IdentityCheckError(str(exc)) from None
        for code in codes[1:] + codes[:1]:
            image = conjugate_hyperplane(member, action)
            try:
                stored = _normal_of_code(code, n, q)
            except InvalidParamsError:
                stored = None
            if image.normal != stored:
                raise IdentityCheckError(f"conjugation chain broken at {member}")
            member = image


# Rows decoded at once by the sweep, and classes decoded at once for their core eliminations.
_SWEEP_CHUNK = 1 << 14
_CLASS_CHUNK = 1 << 10


def _code_shifts(n: int, q: int) -> np.ndarray:
    """shift[w] = q^w - (q^w - 1)/(q - 1) for w = 0, ..., n - 1.

    Block w of the lexicographic order holds the normals whose leading 1 has
    w entries after it: the one whose tail has code c < q^w sits at index
    (q^w - 1)/(q - 1) + c and has code q^w + c, so code = index + shift[w].
    """
    check_code_width(n, q)
    return np.array([q**w - (q**w - 1) // (q - 1) for w in range(n)], dtype=np.int64)


def _codes_at(index: np.ndarray, n: int, q: int) -> np.ndarray:
    """int64 base-q codes of the normals at the lexicographic indices `index` (any shape).

    Each block start (q^w - 1)/(q - 1) that an index reaches adds the step
    shift[w] - shift[w - 1] = (q - 2) q^(w - 1) to it, so no table of codes
    is built (and for q = 2 every code is index + 1).
    """
    shifts = _code_shifts(n, q)
    codes = np.array(index, dtype=np.int64)
    codes += shifts[0]
    for w in range(1, n):
        np.add(codes, shifts[w] - shifts[w - 1], out=codes, where=index >= (q**w - 1) // (q - 1))
    return codes


def _normal_chunks(n: int, q: int):
    """(start, rows) over the m normalized normals in lexicographic order,
    with rows the (_SWEEP_CHUNK, n) array of the normals from index start on."""
    m = (q**n - 1) // (q - 1)
    for start in range(0, m, _SWEEP_CHUNK):
        index = np.arange(start, min(start + _SWEEP_CHUNK, m), dtype=np.int64)
        yield start, decode_codes(_codes_at(index, n, q), n, q)


def _successors(action: AdaptedAction) -> np.ndarray:
    """succ[i] = lexicographic index of the normal v T^(-1), v the normal at index i.

    Filled _SWEEP_CHUNK normals at a time.  Each image is normalized and its
    index read off its code and the position of its leading 1 (`_code_shifts`).
    IdentityCheckError, naming the normal and its image, if an image is zero
    or does not lead with 1, i.e. is not a listed normal.
    """
    q, n = action.params.q, action.params.n
    inv = inverse_table(q)
    # Indexed by the position j of the leading 1, which has n - 1 - j entries after it.
    shifts = _code_shifts(n, q)[::-1]
    succ = np.empty(action.params.m, dtype=np.intp)
    for start, rows in _normal_chunks(n, q):
        images = rows @ action.inverse_array
        images %= q
        at = np.arange(images.shape[0])
        lead_at = np.argmax(images != 0, axis=1)
        images *= inv[images[at, lead_at]][:, None]
        images %= q
        off = np.flatnonzero(images[at, lead_at] != 1)
        if off.size:
            i = off[0]
            raise IdentityCheckError(
                f"conjugation maps the normal {tuple(rows[i].tolist())} to "
                f"{tuple(images[i].tolist())}, which is not a listed normal"
            )
        succ[start : start + images.shape[0]] = encode_rows(images, q) - shifts[lead_at]
    return succ


def _orbit_codes(params: CoverParams, action: AdaptedAction) -> np.ndarray:
    """Codes of every orbit, (t, p): rows ordered by representative, each row
    the representative's code followed by its successive conjugates'.

    The conjugation is applied once, as a successor permutation of the m
    normals' indices (`_successors`); orbit minima and orbit rows are gathers
    along it, and only the (t, p) result is turned into codes.
    """
    p, q, n = params.p, params.q, params.n

    def normal(i):
        return tuple(decode_codes(_codes_at(i, n, q), n, q).tolist())

    succ = _successors(action)
    m = succ.size
    least = succ.copy()
    cur = succ
    for _ in range(p - 2):
        cur = succ[cur]
        np.minimum(least, cur, out=least)
    # A representative is no larger than any of its p - 1 successive conjugates.
    reps = np.flatnonzero(least >= np.arange(m))
    del least, cur

    orbits = np.empty((reps.size, p), dtype=np.intp)
    orbits[:, 0] = reps
    for j in range(1, p):
        orbits[:, j] = succ[orbits[:, j - 1]]
    back = succ[orbits[:, -1]]
    del succ
    broken = np.flatnonzero(back != reps)
    if broken.size:
        i = broken[0]
        raise IdentityCheckError(
            f"the {p}th conjugate of the representative {normal(reps[i])} is "
            f"{normal(back[i])}, not itself"
        )
    if reps.size != params.t:
        raise IdentityCheckError(f"found {reps.size} orbit classes, expected t = {params.t}")
    # t p = m entries that reach every normal reach each once: the orbits
    # partition the normals, each with p distinct members.  Past the p-cycle
    # check above, a row repeats a member only if its representative is fixed,
    # and no two rows share a cycle, whose least member is its one representative;
    # so a normal is left out only beside a fixed representative.
    covered = np.zeros(m, dtype=bool)
    covered[orbits] = True
    if not covered.all():
        fixed = np.flatnonzero(orbits[:, 1] == reps)[0]
        raise IdentityCheckError(
            f"an orbit has fewer than {p} distinct members: the representative "
            f"{normal(reps[fixed])} is its own conjugate"
        )
    return _codes_at(orbits, n, q)


def orbit_classes(
    params: CoverParams,
    cap: int = DEFAULT_ATLAS_CAP,
    action: AdaptedAction | None = None,
) -> list[OrbitClass]:
    """Classify all hyperplanes into their t conjugation orbits, with cores.

    Deterministic: classes are ordered by representative normal, members by
    successive conjugation starting at the representative.  Each class still
    gets its own elimination, but classes with equal cores share one
    Subspace, interned by the kernel's shape and bytes.  Each distinct core
    is checked once, where it is interned: IdentityCheckError unless it is
    T-invariant (naming the representative of the class that found it), its
    dimension a multiple of s0 and at least the rank bound n - p.
    """
    p, q, n, s0 = params.p, params.q, params.n, params.s0
    check_cap(cap, "atlas cap", "orbit classification needs ambient size {}", q, n)
    action = _action_for(params, action)
    orbit_codes = _orbit_codes(params, action)
    classes = []
    cores: dict[tuple, Subspace] = {}
    for start in range(0, orbit_codes.shape[0], _CLASS_CHUNK):
        chunk = orbit_codes[start : start + _CLASS_CHUNK]
        for codes, rows in zip(chunk.tolist(), decode_codes(chunk, n, q)):
            basis = kernel_array(rows, q)
            key = (basis.shape, basis.tobytes())
            core = cores.get(key)
            if core is None:
                core = cores[key] = Subspace._from_canonical(basis, n, q)
                if not core.is_invariant_under(action.matrix_array):
                    representative = Hyperplane._from_normalized(tuple(rows[0].tolist()), q)
                    raise IdentityCheckError(f"core of {representative} not invariant")
                if core.dim % s0 != 0:
                    raise IdentityCheckError(f"core dim {core.dim} not a multiple of s0 = {s0}")
                if core.dim < n - p:
                    raise IdentityCheckError(f"core dim {core.dim} below rank bound {n - p}")
            classes.append(OrbitClass(codes=tuple(codes), core=core))
    return classes


def core_histogram(params: CoverParams) -> dict[int, int]:
    """Closed-form number of orbit classes of each core dimension, without enumeration.

    Phi_p splits over F_q into k = (p-1)/s0 factors, so the dual space splits
    into k components of dimension d = s0(r-2); a normal with nonzero
    projection on exactly j of them has a core of dimension n - s0 j, and
    C(k, j)(q^d - 1)^j / ((q - 1)p) classes do, for j = 1..k.
    """
    p, q, n, s0 = params.p, params.q, params.n, params.s0
    k, d = (p - 1) // s0, s0 * (params.r - 2)
    histogram = {}
    for j in range(1, k + 1):
        count, rest = divmod(comb(k, j) * (q**d - 1) ** j, (q - 1) * p)
        if rest:
            raise IdentityCheckError(
                f"C({k},{j})(q^{d} - 1)^{j} is not divisible by (q - 1)p = {(q - 1) * p}"
            )
        histogram[n - s0 * j] = count
    return histogram


@dataclass(frozen=True)
class GaloisReport:
    """Galois closure data of the composite cover attached to a hyperplane, all read off
    `core_dim`: the closure has group Z_q^k x| Z_p with k = n - core_dim."""

    params: CoverParams
    hyperplane: Hyperplane
    core_dim: int

    @property
    def k(self) -> int:
        return self.params.n - self.core_dim

    @property
    def group(self) -> str:
        return galois_group(self.params, self.k)

    @property
    def core_size(self) -> int:
        return self.params.q**self.core_dim

    @property
    def group_order(self) -> int:
        return self.params.p * self.params.q**self.k

    @property
    def is_composite_galois(self) -> bool:
        """False: the composite is never Galois.  An invariant hyperplane has
        h T^(-1) = c h, gcd(p, q-1) = 1 forces c = 1, and then h Phi_p(T^(-1)) = p h is
        nonzero for the prime q != p, while Phi_p(T^(-1)) = 0: no normal is invariant."""
        return False


def galois_group(params: CoverParams, k: int) -> str:
    """The name Z_q^k x| Z_p of the Galois group of a closure with k = n - dim(core)."""
    return f"Z_{params.q}^{k} ⋊ Z_{params.p}"


def galois_closure(
    h: Hyperplane, params: CoverParams, action: AdaptedAction | None = None
) -> GaloisReport:
    """The Galois closure Z_q^k x| Z_p of the composite cover, k = n - core_dim(h) (no
    elimination, no conjugate built); IdentityCheckError unless q^k = 1 mod p."""
    report = GaloisReport(params, h, core_dim(h, _action_for(params, action)))
    if pow(params.q, report.k, params.p) != 1:
        raise IdentityCheckError(f"q^k != 1 mod p for k = {report.k}; core computation is wrong")
    return report


_TOKEN = re.compile(r"\s*a_?(\d+)(?:\^(-?)(\d+))?")
# Digits converted by one int() call: under the least int-to-str limit Python allows, 640.
_DIGIT_CHUNK = 600


def _residue(digits: str, q: int) -> int:
    """int(digits) mod q for a decimal digit string of any length, read in chunks."""
    value = 0
    for start in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[start : start + _DIGIT_CHUNK]
        value = (value * pow(10, len(chunk), q) + int(chunk)) % q
    return value


def parse_word(word: str, params: CoverParams) -> np.ndarray:
    """One generator word -> exponent vector in F_q^n.

    Symbols a_1 .. a_n are the kept generators; a_(n+j) for j = 1..r-2 is
    block j's eliminated generator, expanded to minus the block sum.
    Exponents of any length are read mod q; an index longer than the
    largest one, n + r - 2, is refused without being converted.
    """
    p, q, n = params.p, params.q, params.n
    top = n + params.r - 2
    vec = np.zeros(n, dtype=np.int64)
    pos = 0
    matched_any = False
    while pos < len(word):
        match = _TOKEN.match(word, pos)
        if match is None:
            if word[pos:].strip():
                raise FixtureParseError(f"malformed generator word: {word!r} at {word[pos:]!r}")
            break
        matched_any = True
        index = match.group(1).lstrip("0")
        if len(index) > len(str(top)):
            raise FixtureParseError(f"generator index of {len(index)} digits out of range 1..{top}")
        idx = int(index or "0")
        # Reduced before it meets the int64 vector: the word is read mod q anyway.
        exp = 1 if match.group(3) is None else _residue(match.group(3), q)
        if match.group(2):
            exp = -exp % q
        if 1 <= idx <= n:
            vec[idx - 1] += exp
        elif n < idx <= top:
            j = idx - n
            vec[(j - 1) * (p - 1) : j * (p - 1)] -= exp
        else:
            raise FixtureParseError(f"generator index {idx} out of range 1..{top}")
        pos = match.end()
    if not matched_any:
        raise FixtureParseError(f"empty generator word: {word!r}")
    return vec % q


def _generator_words(text: str) -> list[str]:
    """The words of a generator-word fixture: one per line, `#` starts a comment,
    blank lines are skipped."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def parse_generator_words(text: str, params: CoverParams) -> Subspace:
    """Parse a generator-word fixture into the subspace its words span.

    One word per line; `#` starts a comment; blank lines are skipped.
    """
    rows = [parse_word(word, params) for word in _generator_words(text)]
    if not rows:
        return Subspace.zero(params.n, params.q)
    return Subspace(np.vstack(rows), params.n, params.q)


def read_fixture(name: str) -> str:
    """Text of a bundled .gens fixture (see gonal/fixtures/)."""
    return (_resource_files("gonal") / "fixtures" / name).read_text()


def hyperplane_from_file(path: str, params: CoverParams) -> Hyperplane:
    """`hyperplane_from_words` on the text of a UTF-8 file; FixtureParseError
    naming the path if it cannot be read as such."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FixtureParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FixtureParseError(f"{path} is not UTF-8 text") from exc
    return hyperplane_from_words(text, params, path)


def hyperplane_from_words(text: str, params: CoverParams, source: str) -> Hyperplane:
    """The maximal subgroup spanned by the generator words of `text`; InvalidParamsError,
    naming `source`, if they span none.  Fewer than n - 1 words cannot, and are
    refused before any is parsed (each takes a length-n row)."""
    q, n = params.q, params.n
    words = len(_generator_words(text))
    if words < n - 1:
        raise InvalidParamsError(
            f"{source} has {words} words and spans dimension at most {words}, "
            f"not a maximal subgroup of Z_{q}^{n}"
        )
    sub = parse_generator_words(text, params)
    if sub.dim != n - 1:
        raise InvalidParamsError(
            f"{source} spans dimension {sub.dim}, not a maximal subgroup of Z_{q}^{n}"
        )
    return Hyperplane.from_subspace(sub)
