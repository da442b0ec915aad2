"""Atlas of maximal subgroups of Z_q^n under the lifted order-p action.

A maximal (index-q) subgroup of Z_q^n is a hyperplane, stored as its dual
normal: a nonzero covector scaled so its first nonzero entry is 1.  That
keeps storage at O(n), makes deduplication a tuple comparison, and gives
every orbit a canonical representative (the lexicographically least normal).

Conjugating a hyperplane by the action T moves its kernel to T.ker(h),
which on normals is v -> v T^(-1).  Orbits all have size exactly p because
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
codes.  At (13,3,3) the sweep takes about 0.17 s and peaks at about 8.8 MB
of allocations, four length-m index arrays.  Cores are extracted per class
afterwards, one chunk of classes at a time; classes with equal cores share
one read-only Subspace (at (13,3,3) the t = 20,440 classes have 15 distinct
cores), which checks its invariance once, and a class keeps its orbit as p
integer codes and decodes its members only when asked.  Output order (by
representative) is deterministic; per-class work is independent, so the
merge would be identical under any parallel schedule.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cache
from importlib.resources import files as _resource_files
from math import comb

import numpy as np

from .action import AdaptedAction, CoverParams, build_action
from .errors import (
    CapExceededError,
    FixtureParseError,
    IdentityCheckError,
    InvalidParamsError,
    quoted,
    quoted_power,
)
from .fqlinalg import (
    Subspace,
    as_residues,
    check_code_width,
    check_integer,
    check_prime_modulus,
    decode_codes,
    encode_rows,
    gaussian_count,
    inverse_table,
    iter_subspace_bases,
    kernel_array,
    positive_cap,
)

DEFAULT_ATLAS_CAP = 3**13
DEFAULT_BRUTE_CAP = 2**16
ENV_ATLAS_CAP = "GONAL_ATLAS_CAP"


def resolve_atlas_cap(cap: int | None = None) -> int:
    """Explicit cap, else the GONAL_ATLAS_CAP variable, else 3^13.

    A cap that is not a positive integer raises InvalidParamsError.
    """
    source = "atlas cap"
    if cap is None:
        cap, source = os.environ.get(ENV_ATLAS_CAP), ENV_ATLAS_CAP
        if not cap:
            return DEFAULT_ATLAS_CAP
    return positive_cap(cap, source)


def check_cap(q: int, n: int, cap: int, what: str):
    """CapExceededError unless the ambient space F_q^n has at most `cap` vectors.

    (b - 1) n >= the bit length of cap, b that of q, already means q^n > cap:
    then q^n is built only if its digits are printed.  Otherwise q^n stays
    below (2 cap)^2 and is compared exactly.
    """
    if (q.bit_length() - 1) * n < cap.bit_length():
        size = q**n
        if size <= cap:
            return
        text = quoted(size)
    else:
        size, text = quoted_power(q, n)
    raise CapExceededError(f"{what} needs ambient size {text}", size, cap, required_text=text)


class Hyperplane:
    """Index-q subgroup of Z_q^n as a normalized dual normal."""

    __slots__ = ("normal", "modulus")

    def __init__(self, normal, modulus: int):
        modulus = check_prime_modulus(modulus)
        vec = as_residues(normal, modulus)
        if vec.ndim != 1:
            raise InvalidParamsError(f"a hyperplane normal must be a vector, got shape {vec.shape}")
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            raise InvalidParamsError("a hyperplane normal must be nonzero")
        lead = int(vec[nz[0]])
        if lead != 1:
            vec = (vec * pow(lead, modulus - 2, modulus)) % modulus
        self.normal = tuple(vec.tolist())
        self.modulus = modulus

    @classmethod
    def _from_normalized(cls, normal: tuple, modulus: int) -> "Hyperplane":
        self = cls.__new__(cls)
        self.normal = normal
        self.modulus = modulus
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
        return np.array(self.normal, dtype=np.int64)

    def kernel(self) -> Subspace:
        """The subgroup itself: {x : normal . x = 0}, dimension n - 1."""
        rows = kernel_array(self.normal_array().reshape(1, -1), self.modulus)
        return Subspace._from_canonical(rows, self.ambient_dim, self.modulus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.modulus == other.modulus and self.normal == other.normal

    def __lt__(self, other: "Hyperplane") -> bool:
        return self.normal < other.normal

    def __hash__(self) -> int:
        return hash((self.modulus, self.normal))

    def __repr__(self) -> str:
        return f"Hyperplane({list(self.normal)}, modulus={self.modulus})"


def enumerate_hyperplanes(params: CoverParams, cap: int | None = None):
    """Iterator over all m hyperplane normals in lexicographic order, each once.

    The cap is checked at the call, not at the first item.
    """
    q, n = params.q, params.n
    check_cap(q, n, resolve_atlas_cap(cap), "hyperplane enumeration")
    return (
        Hyperplane._from_normalized(tuple(row), q)
        for _, rows in _normal_chunks(n, q)
        for row in rows.tolist()
    )


def conjugate_hyperplane(h: Hyperplane, action: AdaptedAction) -> Hyperplane:
    """Hyperplane whose kernel is T.ker(h): on normals, v -> v T^(-1)."""
    q = action.params.q
    if h.modulus != q or h.ambient_dim != action.params.n:
        raise InvalidParamsError("hyperplane and action live over different spaces")
    # T^(-1) is invertible, so the image of a normal is nonzero.
    image = (h.normal_array() @ action.inverse_array) % q
    lead = image[image.nonzero()[0][0]]
    if lead != 1:
        image = image * inverse_table(q)[lead] % q
    return Hyperplane._from_normalized(tuple(image.tolist()), q)


def core(h: Hyperplane, action: AdaptedAction) -> Subspace:
    """Intersection of the p conjugate kernels of h; always T-invariant."""
    p, q, n = action.params.p, action.params.q, action.params.n
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
    n - s0 |J|.  Those coordinates times U must give h back, else
    IdentityCheckError naming h, J and the entry that differs.
    """
    params = action.params
    p, q, n = params.p, params.q, params.n
    if h.modulus != q or h.ambient_dim != n:
        raise InvalidParamsError("hyperplane and action live over different spaces")
    primary = action.primary
    blocks = np.array(h.normal, dtype=np.int64).reshape(params.r - 2, p - 1)
    parts = (blocks @ primary.coordinates) % q
    components = parts.reshape(params.r - 2, -1, primary.s0).any(axis=(0, 2))
    rest = (parts @ primary.basis - blocks) % q
    if rest.any():
        block, entry = np.argwhere(rest)[0].tolist()
        raise IdentityCheckError(
            f"{h} has components {np.flatnonzero(components).tolist()} but their bases "
            f"do not give back entry {block * (p - 1) + entry}"
        )
    return n - primary.s0 * int(np.count_nonzero(components))


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
        """Recheck the orbit invariants; the members are decoded once.

        Raises IdentityCheckError on any hard failure (orbit size, least
        member first, chain consistency, core invariance, dimension
        quantization, rank bound).  Size and least member are read off the
        codes, which sort like the normals.
        """
        params = action.params
        p, n, s0 = params.p, params.n, params.s0
        codes = self.codes
        if len(codes) != p or len(set(codes)) != p:
            raise IdentityCheckError(f"orbit with codes {list(codes)} has size != {p}")
        least = min(codes)
        if codes[0] != least:
            raise IdentityCheckError(
                f"representative {self.representative} is not the least orbit member "
                f"{self._hyperplane(least)}"
            )
        members = self.members
        representative = members[0]
        for a, b in zip(members, members[1:] + members[:1]):
            if conjugate_hyperplane(a, action) != b:
                raise IdentityCheckError(f"conjugation chain broken at {a}")
        if not self.core.is_invariant_under(action.matrix_array):
            raise IdentityCheckError(f"core of {representative} not invariant")
        if self.core_dim % s0 != 0:
            raise IdentityCheckError(
                f"core dim {self.core_dim} not a multiple of s0 = {s0}"
            )
        if self.core_dim < n - p:
            raise IdentityCheckError(f"core dim {self.core_dim} below rank bound {n - p}")


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
    # check above, a row repeats a member only if its representative is fixed.
    covered = np.zeros(m, dtype=bool)
    covered[orbits] = True
    if not covered.all():
        fixed = np.flatnonzero(orbits[:, 1] == reps)
        if fixed.size:
            raise IdentityCheckError(
                f"an orbit has fewer than {p} distinct members: the representative "
                f"{normal(reps[fixed[0]])} is its own conjugate"
            )
        raise IdentityCheckError(
            f"orbits do not partition the hyperplane set: the normal "
            f"{normal(np.argmin(covered))} lies in no orbit"
        )
    return _codes_at(orbits, n, q)


def orbit_classes(
    params: CoverParams,
    cap: int | None = None,
    action: AdaptedAction | None = None,
) -> list[OrbitClass]:
    """Classify all hyperplanes into their t conjugation orbits, with cores.

    Deterministic: classes are ordered by representative normal, members by
    successive conjugation starting at the representative.  Each class still
    gets its own elimination, but classes with equal cores share one
    Subspace, interned by the kernel's shape and bytes.
    """
    q, n = params.q, params.n
    check_cap(q, n, resolve_atlas_cap(cap), "orbit classification")
    if action is None:
        action = build_action(params)
    elif action.params != params:
        raise InvalidParamsError(
            f"action built for {action.params} cannot classify {params}"
        )
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


def enumerate_subgroups_brute(n: int, k: int, q: int, cap: int = DEFAULT_BRUTE_CAP) -> list[Subspace]:
    """All k-dim subspaces of F_q^n by direct RREF enumeration (oracle).

    n and k are read by check_integer; InvalidParamsError naming both unless
    0 <= k <= n.  `cap` bounds both the ambient size q^n and the number of
    subspaces listed; CapExceededError past either, before any basis is built.
    """
    q = check_prime_modulus(q)
    n, k = check_integer(n, "n"), check_integer(k, "k")
    if not 0 <= k <= n:
        raise InvalidParamsError(f"need 0 <= k <= n, got k={k}, n={n}")
    check_cap(q, n, cap, "brute-force subgroup enumeration")
    count = gaussian_count(n, k, q)
    if count > cap:
        what = f"brute-force subgroup enumeration would list {quoted(count)} {k}-dim subspaces"
        raise CapExceededError(what, count, cap)
    return [
        Subspace._from_canonical(basis, n, q) for basis in iter_subspace_bases(n, k, q)
    ]


@dataclass(frozen=True)
class GaloisReport:
    """Galois closure data of the composite cover attached to a hyperplane."""

    params: CoverParams
    hyperplane: Hyperplane
    is_composite_galois: bool
    k: int
    group: str
    core_dim: int
    exceeds_complement_range: bool

    @property
    def core_size(self) -> int:
        return self.params.q**self.core_dim

    @property
    def group_order(self) -> int:
        return self.params.p * self.params.q**self.k


def galois_closure(
    h: Hyperplane, params: CoverParams, action: AdaptedAction | None = None
) -> GaloisReport:
    """Describe the Galois closure Z_q^k x| Z_p of the composite cover.

    k = n - dim(core), the core dimension read by core_dim (no elimination,
    no conjugate built).  The composite itself is never Galois here: an
    invariant hyperplane has h T^(-1) = c h, gcd(p, q-1) = 1 forces c = 1,
    and then h Phi_p(T^(-1)) = p h, which is nonzero for the prime q != p,
    while Phi_p(T^(-1)) = 0.  So no normal is invariant, and no guard for
    one is needed.
    """
    if action is None:
        action = build_action(params)
    elif action.params != params:
        raise InvalidParamsError(f"action built for {action.params}, not {params}")
    dim = core_dim(h, action)
    k = params.n - dim
    if pow(params.q, k, params.p) != 1:
        raise IdentityCheckError(f"q^k != 1 mod p for k = {k}; core computation is wrong")
    return GaloisReport(
        params=params,
        hyperplane=h,
        is_composite_galois=False,
        k=k,
        group=f"Z_{params.q}^{k} ⋊ Z_{params.p}",
        core_dim=dim,
        exceeds_complement_range=k > params.p - 1,
    )


_TOKEN = re.compile(r"\s*a_?(\d+)(?:\^(-?\d+))?")


def parse_word(word: str, params: CoverParams) -> np.ndarray:
    """One generator word -> exponent vector in F_q^n.

    Symbols a_1 .. a_n are the kept generators; a_(n+j) for j = 1..r-2 is
    block j's eliminated generator, expanded to minus the block sum.
    """
    p, q, n = params.p, params.q, params.n
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
        idx = int(match.group(1))
        # Reduced before it meets the int64 vector: the word is read mod q anyway.
        exp = int(match.group(2)) % q if match.group(2) is not None else 1
        if 1 <= idx <= n:
            vec[idx - 1] += exp
        elif n < idx <= n + params.r - 2:
            j = idx - n
            vec[(j - 1) * (p - 1) : j * (p - 1)] -= exp
        else:
            raise FixtureParseError(
                f"generator index {idx} out of range 1..{n + params.r - 2}"
            )
        pos = match.end()
    if not matched_any:
        raise FixtureParseError(f"empty generator word: {word!r}")
    return vec % q


def parse_generator_words(text: str, params: CoverParams) -> Subspace:
    """Parse a generator-word fixture into the subspace its words span.

    One word per line; `#` starts a comment; blank lines are skipped.
    """
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(parse_word(line, params))
    if not rows:
        return Subspace.zero(params.n, params.q)
    return Subspace(np.vstack(rows), params.n, params.q)


def read_fixture(name: str) -> str:
    """Text of a bundled .gens fixture (see gonal/fixtures/)."""
    return (_resource_files("gonal") / "fixtures" / name).read_text()


def subgroup_from_file(path: str, params: CoverParams) -> Subspace:
    """Subgroup spanned by the generator words of a UTF-8 file; a file that
    cannot be read as such raises FixtureParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FixtureParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FixtureParseError(f"{path} is not UTF-8 text") from exc
    return parse_generator_words(text, params)
