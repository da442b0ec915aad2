"""Output gates: checks on each workload operation, run outside the timed region.

Every gate returns a list of problems; an empty list means the output is
correct.  The gates use closed forms and their own arithmetic, not the gonal
code they check, except where noted.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

import numpy as np


def order_mod(q: int, p: int) -> int:
    """Least s >= 1 with q^s = 1 mod p."""
    s, acc = 1, q % p
    while acc != 1:
        acc = acc * q % p
        s += 1
    return s


def closed_form_histogram(p: int, q: int, r: int) -> dict[int, int]:
    """Number of orbit classes per core dimension, from the primary decomposition.

    A core of rank n - s0*j has C(k, j) (q^d - 1)^j / ((q - 1) p) classes,
    with k = (p - 1)/s0 primary components of dimension d = s0 (r - 2).
    """
    s0 = order_mod(q, p)
    k, d, n = (p - 1) // s0, s0 * (r - 2), (p - 1) * (r - 2)
    hist = {}
    for j in range(1, k + 1):
        num, den = comb(k, j) * (q**d - 1) ** j, (q - 1) * p
        if num % den:
            raise ValueError(f"class count {num}/{den} is not integral")
        hist[n - s0 * j] = num // den
    return hist


def payload_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of an envelope's `payload` object."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def check_atlas(exit_code: int, envelope: dict, p: int, q: int, r: int, digest: str) -> list[str]:
    """Gate one `gonal atlas --json` run against closed forms and a recorded digest."""
    problems = []
    if exit_code != 0:
        problems.append(f"atlas exited with code {exit_code}")
    payload = envelope.get("payload", {})
    n = (p - 1) * (r - 2)
    t = (q**n - 1) // (q - 1) // p
    if payload.get("class_count") != str(t):
        problems.append(f"class_count {payload.get('class_count')} != t = {t}")
    expected = {str(dim): str(count) for dim, count in closed_form_histogram(p, q, r).items()}
    if payload.get("core_dim_histogram") != expected:
        problems.append(f"core_dim_histogram {payload.get('core_dim_histogram')} != {expected}")
    got = payload_digest(payload)
    if got != digest:
        problems.append(f"payload digest {got} != recorded {digest}")
    return problems


def rank_mod(a: np.ndarray, q: int) -> int:
    """Rank of an integer matrix over F_q by plain Gaussian elimination."""
    a = np.array(a, dtype=np.int64) % q
    rank = 0
    for col in range(a.shape[1]):
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), q - 2, q) % q
        a = (a - np.outer(a[:, col], a[rank]) * (np.arange(a.shape[0]) != rank)[:, None]) % q
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def conjugate_stack(normal, matrix: np.ndarray, p: int, q: int) -> np.ndarray:
    """The p normals v, v T, ..., v T^(p-1); they span the same space as the conjugates."""
    stack = np.empty((p, len(normal)), dtype=np.int64)
    row = np.array(normal, dtype=np.int64) % q
    for j in range(p):
        stack[j] = row
        row = row @ matrix % q
    return stack


def check_galois_query(stack: np.ndarray, core_dim: int, basis: np.ndarray, genus: int,
                       p: int, q: int, r: int) -> list[str]:
    """Gate one point query: the core is the common kernel of the conjugate normals.

    `basis` is the core from `gonal.atlas.core`; it must have `core_dim`
    independent rows, all annihilated by every conjugate normal, and the
    conjugate normals must have rank n - core_dim.
    """
    problems = []
    n = stack.shape[1]
    s0 = order_mod(q, p)
    if core_dim % s0:
        problems.append(f"core_dim {core_dim} is not a multiple of s0 = {s0}")
    basis = np.asarray(basis, dtype=np.int64).reshape(-1, n)
    if basis.shape[0] != core_dim or rank_mod(basis, q) != core_dim:
        problems.append(f"core basis of {basis.shape[0]} rows does not have rank {core_dim}")
    if np.any(stack @ basis.T % q):
        problems.append("a conjugate normal does not annihilate the core basis")
    if rank_mod(stack, q) != n - core_dim:
        problems.append(f"conjugate normals do not have rank n - core_dim = {n - core_dim}")
    g = (p - 1) * (r - 2) // 2
    expected_genus = 1 + q ** (n - core_dim) * (g - 1)
    if genus != expected_genus:
        problems.append(f"quotient genus {genus} != {expected_genus}")
    return problems


def check_rank_sympy(stack_rows: list[list[int]], core_dim: int, q: int) -> list[str]:
    """Independent oracle: n - core_dim equals sympy's rank of the conjugate normals over GF(q)."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(q)
    shape = (len(stack_rows), len(stack_rows[0]))
    rank = DomainMatrix([[field(x) for x in row] for row in stack_rows], shape, field).rank()
    if shape[1] - core_dim != rank:
        return [f"n - core_dim = {shape[1] - core_dim} but sympy rank over GF({q}) is {rank}"]
    return []


def check_groupring(kernel_orbit_count: int, scalars: list[int], cross_reports: list[dict],
                    p: int, q: int, n: int) -> list[str]:
    """Gate one group-ring pass: the q^(n-1) scalars, the cross terms and the orbit count."""
    problems = []
    if kernel_orbit_count != (q**n - 1) // p:
        problems.append(f"kernel_orbit_count {kernel_orbit_count} != {(q**n - 1) // p}")
    hyperplanes = (q**n - 1) // (q - 1)
    if len(scalars) != hyperplanes or len(cross_reports) != hyperplanes:
        problems.append(f"{len(scalars)} scalars, {len(cross_reports)} cross reports, "
                        f"{hyperplanes} hyperplanes")
    bad = [i for i, s in enumerate(scalars) if s != q ** (n - 1)]
    if bad:
        problems.append(f"scalar {scalars[bad[0]]} != q^(n-1) = {q ** (n - 1)} at hyperplane {bad[0]}")
    bad = [i for i, rep in enumerate(cross_reports) if rep.get("cross_terms_zero") is not True]
    if bad:
        problems.append(f"cross_terms_zero not set at hyperplane {bad[0]}")
    return problems
