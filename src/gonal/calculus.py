"""Exact genus, dimension, and counting formulas for the cover tower.

The tower over the base curve X (genus g, gonal automorphism of order p
with r fixed points): the homology cover X~ of exponent q, the index-q
intermediate covers Y_j = X~/L_j, the quotients Z = X~/K by invariant
subgroups K, and the orbifold quotient T = X~/P by the lifted automorphism.

Everything here is arbitrary-precision integer arithmetic; a formula whose
value is not an integer raises instead of rounding.  The identities between
them are checked by `gonal.verify.identity_rows`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CoverParams
from .errors import IdentityCheckError, InvalidParamsError
from .fqlinalg import check_integer


def genus_homology_cover(params: CoverParams) -> int:
    """Genus 1 + q^2g (g - 1) of the exponent-q homology cover."""
    g = params.g
    return 1 + params.q ** (2 * g) * (g - 1)


def genus_intermediate(params: CoverParams) -> int:
    """Genus 1 + q((p-1)(r-2) - 2)/2 of each index-q unramified cover Y_j."""
    num = params.q * (params.n - 2)
    if num % 2:
        raise IdentityCheckError(f"q(n-2) = {num} is odd for {params}")
    return 1 + num // 2


def genus_quotient_T(params: CoverParams) -> int:
    """Genus of the orbifold T = X~/P (r cone points of order p)."""
    num = (params.n - 2) * (params.q**params.n - 1)
    den = 2 * params.p
    if num % den != 0:
        raise IdentityCheckError(
            f"genus of T is not integral for {params}: {num} / {den}"
        )
    return num // den


def prym_dim(params: CoverParams) -> int:
    """Dimension (g-1)(q-1) of the complementary Prym of Y_j over X."""
    return (params.g - 1) * (params.q - 1)


def genus_quotient_by_core(params: CoverParams, core_dim: int) -> int:
    """Genus 1 + q^(n - core_dim)(g - 1) of X~/K for an invariant subgroup K of rank core_dim.

    K acts freely (every subgroup of the homology group does), so this is
    Riemann-Hurwitz for the unramified cover X~/K -> X of degree q^(n - core_dim).
    A numpy integer is read as an int; a bool or a float is refused.
    """
    core_dim = check_integer(core_dim, "core_dim")
    if not 0 <= core_dim <= params.n:
        raise InvalidParamsError(f"core_dim {core_dim} outside 0..{params.n}")
    return 1 + params.q ** (params.n - core_dim) * (params.g - 1)


@dataclass(frozen=True)
class CoverReport:
    """All exact invariants of one parameter triple, unchecked."""

    params: CoverParams
    g: int
    g_tilde: int
    g_y: int
    g_t: int
    prym_dim: int
    m: int
    t: int
    s0: int
    genus_z: dict  # invariant core dim -> genus of X~/K


def decomposition_report(params: CoverParams) -> CoverReport:
    """Evaluate every formula of the tower; `gonal.verify.identity_rows` checks them."""
    return CoverReport(
        params=params,
        g=params.g,
        g_tilde=genus_homology_cover(params),
        g_y=genus_intermediate(params),
        g_t=genus_quotient_T(params),
        prym_dim=prym_dim(params),
        m=params.m,
        t=params.t,
        s0=params.s0,
        genus_z={s: genus_quotient_by_core(params, s) for s in range(0, params.n + 1, params.s0)},
    )
