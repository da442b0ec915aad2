"""Exact genus, dimension, and counting formulas for the cover tower.

The tower over the base curve X (genus g, gonal automorphism of order p
with r fixed points): the homology cover X~ of exponent q, with group
G = N ⋊ C (N = Z_q^n, C = Z_p the lifted automorphism), and its quotients
X~/H.  Each H is conjugate to some W ⊆ N or to W ⋊ C with W invariant; N
acts freely and an element of order p fixes r points of each X~/W, so one
Riemann–Hurwitz count, `genus_quotient_by_core`, gives every genus.

Everything here is arbitrary-precision integer arithmetic; a formula whose
value is not an integer raises instead of rounding.  The identities between
them are checked by `gonal.verify.identity_rows`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CoverParams
from .errors import IdentityCheckError, InvalidParamsError, check_integer


def prym_dim(params: CoverParams) -> int:
    """Dimension (g-1)(q-1) of the complementary Prym of Y_j over X."""
    return (params.g - 1) * (params.q - 1)


def genus_quotient_by_core(params: CoverParams, core_dim: int, *, twisted: bool = False) -> int:
    """Genus of X~/H for H = W ⊆ N of rank w = core_dim, or H = W ⋊ C if `twisted`.

    W acts freely, so X~/W -> X is unramified of degree q^(n-w) and has
    genus 1 + q^(n-w)(g - 1).  A twisted W is invariant, so s0 divides w
    (refused otherwise).  C fixes no nonzero vector of N/W, so the q^(n-w)
    complements of N/W are the stabilizers of the q^(n-w) points of X~/W over
    each of the r branch points, one each: C fixes r points, and
    Riemann–Hurwitz for X~/W -> X~/H, with 2g - 2 = n - 2, gives
    (q^(n-w) - 1)(n - 2) / (2p).  core_dim is read by check_integer.
    """
    core_dim = check_integer(core_dim, "core_dim")
    if not 0 <= core_dim <= params.n:
        raise InvalidParamsError(f"core_dim {core_dim} outside 0..{params.n}")
    if not twisted:
        return 1 + params.q ** (params.n - core_dim) * (params.g - 1)
    if core_dim % params.s0:
        raise InvalidParamsError(f"twisted core_dim {core_dim} is not a multiple of s0 = {params.s0}")
    num = (params.q ** (params.n - core_dim) - 1) * (params.n - 2)
    den = 2 * params.p
    if num % den:
        raise IdentityCheckError(f"genus of X~/H is not integral for {params}: {num} / {den}")
    return num // den


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
        g_tilde=genus_quotient_by_core(params, 0),
        g_y=genus_quotient_by_core(params, params.n - 1),
        g_t=genus_quotient_by_core(params, 0, twisted=True),
        prym_dim=prym_dim(params),
        m=params.m,
        t=params.t,
        s0=params.s0,
        genus_z={s: genus_quotient_by_core(params, s) for s in range(0, params.n + 1, params.s0)},
    )
