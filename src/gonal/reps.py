"""Irreducible representation census of the extended group G = N x| P.

G is a Frobenius group with abelian kernel N = Z_q^n and cyclic complement
P = Z_p, so its census is rigid: p linear characters pulled back from P,
and (q^n - 1)/p induced representations of degree p, one per conjugation
orbit of nontrivial characters of N.  Rationally the linear characters
fuse into the trivial one plus a single degree-(p-1) representation, and
the induced ones fuse q-1 at a time over the cyclotomic Galois group into
t representations of degree p(q-1), one per hyperplane orbit.

Only labels, degrees, counts, and kernel sizes are materialized; no
character tables.  Every downstream identity needs nothing more, and the
groups reach order ~10^6 where tables would be waste.  These closed forms
are not checked here: `gonal.verify.census_rows` does that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CoverParams
from .calculus import prym_dim


@dataclass(frozen=True)
class RepEntry:
    label: str
    degree: int
    count: int


@dataclass(frozen=True)
class IsotypicalFactor:
    rep_label: str
    factor: str
    dim: int
    count: int


@dataclass(frozen=True)
class RepTable:
    params: CoverParams
    complex_entries: tuple[RepEntry, ...]
    rational_entries: tuple[RepEntry, ...]
    pairing: tuple[IsotypicalFactor, ...]

    @property
    def complex_irreducible_count(self) -> int:
        return sum(e.count for e in self.complex_entries)

    @property
    def rational_irreducible_count(self) -> int:
        return sum(e.count for e in self.rational_entries)

    @property
    def kernel_inside_kernel_group_count(self) -> int:
        """Rational irreducibles whose kernel lies properly inside N."""
        return sum(e.count for e in self.rational_entries if e.label == "U_j")


def complex_table(params: CoverParams) -> tuple[RepEntry, ...]:
    """Complex census: p linear characters and (q^n - 1)/p of degree p."""
    p, q, n = params.p, params.q, params.n
    return (
        RepEntry("chi_0", 1, 1),
        RepEntry("chi_j", 1, p - 1),
        RepEntry("V_j", p, (q**n - 1) // p),
    )


def rational_table(params: CoverParams) -> tuple[RepEntry, ...]:
    """Rational census: chi_0, U of degree p-1, and t of degree p(q-1)."""
    p, q = params.p, params.q
    return (
        RepEntry("chi_0", 1, 1),
        RepEntry("U", p - 1, 1),
        RepEntry("U_j", p * (q - 1), params.t),
    )


def rep_table(params: CoverParams) -> RepTable:
    """Full census: complex and rational irreducibles and the isotypical factors of J(X~)."""
    pairing = (
        IsotypicalFactor("chi_0 + U", "J(X)", params.g, 1),
        IsotypicalFactor("U_j", "P(Y_j/X)^p", params.p * prym_dim(params), params.t),
    )
    return RepTable(params, complex_table(params), rational_table(params), pairing)
