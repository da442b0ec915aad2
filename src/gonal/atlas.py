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
permutation of their indices in lexicographic order.  p - 1 gathers give
every normal its orbit minimum, a normal is an orbit representative iff it
is its own minimum, and p - 1 more gathers read the orbits off the
representatives.  Cores are extracted per class afterwards, one chunk of
classes at a time.  Output order (by representative) is deterministic;
per-class work is independent, so the merge would be identical under any
parallel schedule.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
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
    check_prime_modulus,
    decode_codes,
    encode_rows,
    inverse_table,
    iter_subspace_bases,
    kernel_array,
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


def positive_cap(cap, source: str) -> int:
    """`cap` as an int; InvalidParamsError naming `source` unless it is a positive integer."""
    try:
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParamsError(f"{source} must be a positive integer, got {cap!r}")
    return value


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
    """Yield all m hyperplane normals in lexicographic order, each once."""
    q, n = params.q, params.n
    check_cap(q, n, resolve_atlas_cap(cap), "hyperplane enumeration")
    codes = normal_codes(n, q)
    for start in range(0, codes.size, _SWEEP_CHUNK):
        for row in decode_codes(codes[start : start + _SWEEP_CHUNK], n, q).tolist():
            yield Hyperplane._from_normalized(tuple(row), q)


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
    J = {i : h has a nonzero f_i-component}, found by one product with the
    cofactor stack; core dim = n - s0 |J|.  h times prod_{i in J} f_i(T^(-1))
    must vanish, which pins the minimal polynomial down to that product;
    IdentityCheckError with a witness if it does not.
    """
    params = action.params
    p, q, n = params.p, params.q, params.n
    if h.modulus != q or h.ambient_dim != n:
        raise InvalidParamsError("hyperplane and action live over different spaces")
    primary = action.primary
    blocks = np.array(h.normal, dtype=np.int64).reshape(params.r - 2, p - 1)
    parts = ((blocks @ primary.cofactors) % q).reshape(params.r - 2, -1, p - 1)
    components = np.flatnonzero(parts.any(axis=(0, 2)))
    rest = blocks
    for i in components:
        rest = (rest @ primary.factors[i]) % q
    if rest.any():
        block, entry = np.argwhere(rest)[0].tolist()
        raise IdentityCheckError(
            f"{h} has components {components.tolist()} but the product of their factors "
            f"at T^-1 leaves entry {block * (p - 1) + entry} nonzero"
        )
    return n - primary.s0 * components.size


@dataclass(frozen=True)
class OrbitClass:
    """One conjugation orbit of hyperplanes with its core."""

    representative: Hyperplane
    members: tuple[Hyperplane, ...]
    core: Subspace

    @property
    def core_dim(self) -> int:
        return self.core.dim

    def verify(self, action: AdaptedAction) -> None:
        """Recheck the orbit invariants.

        Raises IdentityCheckError on any hard failure (orbit size, chain
        consistency, core invariance, dimension quantization, rank bound).
        """
        params = action.params
        p, n, s0 = params.p, params.n, params.s0
        if len(self.members) != p or len(set(self.members)) != p:
            raise IdentityCheckError(f"orbit of {self.representative} has size != {p}")
        if self.representative != min(self.members):
            raise IdentityCheckError("representative is not the least orbit member")
        for a, b in zip(self.members, self.members[1:] + self.members[:1]):
            if conjugate_hyperplane(a, action) != b:
                raise IdentityCheckError(f"conjugation chain broken at {a}")
        if not self.core.is_invariant_under(action.matrix_array):
            raise IdentityCheckError(f"core of {self.representative} not invariant")
        if self.core_dim % s0 != 0:
            raise IdentityCheckError(
                f"core dim {self.core_dim} not a multiple of s0 = {s0}"
            )
        if self.core_dim < n - p:
            raise IdentityCheckError(f"core dim {self.core_dim} below rank bound {n - p}")


# Rows decoded at once by the sweep, and classes whose members are decoded at once.
_SWEEP_CHUNK = 1 << 14
_CLASS_CHUNK = 1 << 10


def normal_codes(n: int, q: int) -> np.ndarray:
    """Base-q codes of all m normalized normals, ascending, i.e. in lexicographic order.

    A normal whose leading 1 has w entries after it has code q^w + (its tail's
    code), so the codes are q^w + arange(q^w) for w = 0, ..., n - 1.
    """
    check_code_width(n, q)
    return np.concatenate([q**w + np.arange(q**w, dtype=np.int64) for w in range(n)])


def all_normals_array(n: int, q: int) -> np.ndarray:
    """All normalized normals as an (m, n) array in lexicographic order."""
    return decode_codes(normal_codes(n, q), n, q)


def _normalize_rows(rows: np.ndarray, q: int, inv: np.ndarray) -> np.ndarray:
    lead_idx = np.argmax(rows != 0, axis=1)
    lead = rows[np.arange(rows.shape[0]), lead_idx]
    return (rows * inv[lead][:, None]) % q


def _successors(codes: np.ndarray, action: AdaptedAction) -> np.ndarray:
    """succ[i] = index in `codes` of the normal v T^(-1), v the normal with code codes[i].

    Filled _SWEEP_CHUNK normals at a time.  IdentityCheckError, naming the
    normal and its image, if an image is not a listed normal.
    """
    q, n = action.params.q, action.params.n
    inv = inverse_table(q)
    succ = np.empty(codes.size, dtype=np.intp)
    for start in range(0, codes.size, _SWEEP_CHUNK):
        rows = decode_codes(codes[start : start + _SWEEP_CHUNK], n, q)
        images = encode_rows(_normalize_rows((rows @ action.inverse_array) % q, q, inv), q)
        found = np.searchsorted(codes, images)
        np.minimum(found, codes.size - 1, out=found)
        missed = np.flatnonzero(codes[found] != images)
        if missed.size:
            i = missed[0]
            raise IdentityCheckError(
                f"conjugation maps the normal {tuple(rows[i].tolist())} to "
                f"{tuple(decode_codes(images[i], n, q).tolist())}, which is not a listed normal"
            )
        succ[start : start + rows.shape[0]] = found
    return succ


def _orbit_codes(params: CoverParams, action: AdaptedAction) -> np.ndarray:
    """Codes of every orbit, (t, p): rows ordered by representative, each row
    the representative's code followed by its successive conjugates'.

    The conjugation is applied once, as a successor permutation of the m
    normals (`_successors`); orbit minima and orbit rows are gathers along it.
    """
    p, q, n = params.p, params.q, params.n
    codes = normal_codes(n, q)
    m = codes.size
    if m != params.m:
        raise IdentityCheckError(f"swept {m} normals, expected m = {params.m}")
    succ = _successors(codes, action)

    index = np.arange(m)
    least = index.copy()
    cur = index
    for _ in range(p - 1):
        cur = succ[cur]
        np.minimum(least, cur, out=least)
    reps = np.flatnonzero(least == index)
    del index, least, cur

    orbits = np.empty((reps.size, p), dtype=np.intp)
    orbits[:, 0] = reps
    for j in range(1, p):
        orbits[:, j] = succ[orbits[:, j - 1]]
    back = succ[orbits[:, -1]]
    broken = np.flatnonzero(back != reps)
    if broken.size:
        i = broken[0]
        raise IdentityCheckError(
            f"the {p}th conjugate of the representative "
            f"{tuple(decode_codes(codes[reps[i]], n, q).tolist())} is "
            f"{tuple(decode_codes(codes[back[i]], n, q).tolist())}, not itself"
        )
    if reps.size != params.t:
        raise IdentityCheckError(f"found {reps.size} orbit classes, expected t = {params.t}")
    sorted_orbits = np.sort(orbits, axis=1)
    if not np.all(np.diff(sorted_orbits, axis=1) > 0):
        raise IdentityCheckError("an orbit has fewer than p distinct members")
    if np.unique(sorted_orbits).size != m:
        raise IdentityCheckError("orbits do not partition the hyperplane set")
    return codes[orbits]


def orbit_classes(
    params: CoverParams,
    cap: int | None = None,
    action: AdaptedAction | None = None,
) -> list[OrbitClass]:
    """Classify all hyperplanes into their t conjugation orbits, with cores.

    Deterministic: classes are ordered by representative normal, members by
    successive conjugation starting at the representative.
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
    for start in range(0, orbit_codes.shape[0], _CLASS_CHUNK):
        vecs = decode_codes(orbit_codes[start : start + _CLASS_CHUNK], n, q)
        for rows, normals in zip(vecs, vecs.tolist()):
            members = tuple(Hyperplane._from_normalized(tuple(v), q) for v in normals)
            classes.append(
                OrbitClass(
                    representative=members[0],
                    members=members,
                    core=Subspace._from_canonical(kernel_array(rows, q), n, q),
                )
            )
    return classes


def gaussian_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (Gaussian binomial)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (k - j) - 1
    count, rest = divmod(num, den)
    if rest:
        raise IdentityCheckError(f"Gaussian binomial [{n} {k}]_{q}: {num} / {den} is not integral")
    return count


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
    """All k-dim subspaces of F_q^n by direct RREF enumeration (oracle)."""
    check_prime_modulus(q)
    check_cap(q, n, cap, "brute-force subgroup enumeration")
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
    and then every f_i-component of h is nonzero while the product of all
    f_i(T^(-1)) multiplies h by Phi_p(1) = p, a unit mod the prime q != p,
    so core_dim raises IdentityCheckError on it.
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
