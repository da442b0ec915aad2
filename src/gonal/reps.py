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
from .atlas import OrbitClass
from .calculus import prym_dim
from .errors import IdentityCheckError


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


def isotypical_report(params: CoverParams) -> tuple[IsotypicalFactor, ...]:
    """Isogeny factors of J(X~); their dimensions sum to g + m prym_dim (m = p t)."""
    return rep_table(params).pairing


def induced_rep_count_by_kernel(params: CoverParams, orbit: OrbitClass) -> tuple[int, str]:
    """(kernel size, label) of the induced representation of a hyperplane orbit.

    The induced degree-p representation attached to any member of the orbit
    has kernel equal to the orbit's core, so its size is q^core_dim.
    """
    size = params.q**orbit.core_dim
    label = f"V[{','.join(str(c) for c in orbit.representative.normal)}]"
    return size, label


def coset_rep_decomposition(params: CoverParams) -> dict:
    """Degrees of the permutation representations on G/N and G/L_j.

    Bookkeeping rows: [G:N] = p matches chi_0 + U and [G:L_j] = pq matches
    chi_0 + U + U_j; recorded with the method that produced them.
    """
    p, q = params.p, params.q
    rows = {
        "rho_N": {"degree": p, "constituents": "chi_0 + U", "check": p == 1 + (p - 1)},
        "rho_L_j": {
            "degree": p * q,
            "constituents": "chi_0 + U + U_j",
            "check": p * q == 1 + (p - 1) + p * (q - 1),
        },
        "method": "degree-bookkeeping",
    }
    if not (rows["rho_N"]["check"] and rows["rho_L_j"]["check"]):
        raise IdentityCheckError("coset representation degrees fail to add up")
    return rows
