from types import SimpleNamespace

import numpy as np
import pytest

from gonal.action import CoverParams, parameter_sweep
from gonal.calculus import decomposition_report, genus_quotient_by_core, prym_dim
from gonal.errors import IdentityCheckError, InvalidParamsError


def test_genus_base():
    # The base genus (p-1)(r-2)/2 is CoverParams.g, under CoverParams's preconditions.
    assert CoverParams(13, 3, 3).g == 6
    assert CoverParams(5, 2, 3).g == 2
    assert CoverParams(3, 2, 4).g == 2
    with pytest.raises(InvalidParamsError):
        CoverParams(9, 2, 3)
    with pytest.raises(InvalidParamsError):
        CoverParams(5, 2, 2)


# The closed forms that genus_quotient_by_core replaced, kept as references.
def homology_cover_genus(params):
    """Genus 1 + q^2g (g - 1) of the exponent-q homology cover."""
    return 1 + params.q ** (2 * params.g) * (params.g - 1)


def intermediate_genus(params):
    """Genus 1 + q(n - 2)/2 of each index-q unramified cover Y_j."""
    num = params.q * (params.n - 2)
    assert num % 2 == 0
    return 1 + num // 2


def orbifold_genus(params):
    """Genus (n - 2)(q^n - 1)/(2p) of the orbifold T = X~/C."""
    num, den = (params.n - 2) * (params.q**params.n - 1), 2 * params.p
    assert num % den == 0
    return num // den


def genus_over_p1(params, w, twisted):
    """g(X~/H) by Riemann-Hurwitz for X~/H -> P^1, fibres counted by Burnside.

    X~ -> P^1 is Galois with group G, |G| = p q^n, branched over r points,
    each with a fibre of q^n points whose stabilizers are the q^n complements
    of N, so each element of order p fixes one point of each fibre.  H = W
    (|W| = q^w) or W ⋊ C; its orbits on a fibre are the points of X~/H over
    the branch point: (q^n + (number of elements of order p in H)) / |H|.
    """
    p, q, n, r = params.p, params.q, params.n, params.r
    order = q**w * (p if twisted else 1)
    order_p_elements = q**w * (p - 1) if twisted else 0
    points, rest = divmod(q**n + order_p_elements, order)
    assert rest == 0
    degree = p * q**n // order
    two_g_minus_2 = -2 * degree + r * (degree - points)
    assert two_g_minus_2 % 2 == 0
    return 1 + two_g_minus_2 // 2


def test_genus_homology_cover():
    # g~ = g(X~/0), and decomposition_report reads it off there.
    assert genus_quotient_by_core(CoverParams(13, 3, 3), 0) == 2657206
    assert genus_quotient_by_core(CoverParams(5, 2, 3), 0) == 17
    assert decomposition_report(CoverParams(5, 2, 3)).g_tilde == 17
    tiny = CoverParams(3, 2, 3, allow_small_genus=True)
    assert genus_quotient_by_core(tiny, 0) == 1  # g = 1 is a fixed point


def test_genus_intermediate():
    # g_Y = g(X~/L_j), L_j a hyperplane of rank n - 1.
    for params, g_y in [(CoverParams(13, 3, 3), 16), (CoverParams(5, 2, 3), 3), (CoverParams(3, 2, 4), 3)]:
        assert genus_quotient_by_core(params, params.n - 1) == g_y == decomposition_report(params).g_y


def test_genus_quotient_T():
    # g_T = g(X~/C), the twisted quotient at rank 0.
    for params, g_t in [(CoverParams(5, 2, 3), 3), (CoverParams(13, 3, 3), 204400), (CoverParams(3, 2, 4), 5)]:
        assert genus_quotient_by_core(params, 0, twisted=True) == g_t == decomposition_report(params).g_t


def test_one_formula_matches_the_references_across_the_sweep():
    sweep = parameter_sweep()
    assert len(sweep) == 62
    for params in sweep:
        p, q, n, g, s0 = params.p, params.q, params.n, params.g, params.s0
        f = genus_quotient_by_core
        assert f(params, 0) == homology_cover_genus(params)
        assert f(params, n - 1) == intermediate_genus(params)
        assert f(params, 0, twisted=True) == orbifold_genus(params)
        assert f(params, 0) == g + p * f(params, 0, twisted=True)
        for w in range(n + 1):
            assert f(params, w) == 1 + q ** (n - w) * (g - 1) == genus_over_p1(params, w, False)
        for w in range(0, n + 1, s0):
            twisted = f(params, w, twisted=True)
            assert twisted * 2 * p == (q ** (n - w) - 1) * (n - 2)
            assert twisted == genus_over_p1(params, w, True)
        # The endpoints: X~/N is the base curve X, and X~/G is P^1.
        assert (f(params, n), f(params, n, twisted=True)) == (g, 0)


def test_twisted_genus_refusals():
    params = CoverParams(13, 3, 3)  # s0 = 3
    for w in (1, 2, 4, 11):
        with pytest.raises(InvalidParamsError, match=f"^twisted core_dim {w} is not a multiple of s0 = 3"):
            genus_quotient_by_core(params, w, twisted=True)
    with pytest.raises(InvalidParamsError, match="outside 0..12"):
        genus_quotient_by_core(params, 13, twisted=True)
    # A value that is not an integer raises rather than rounds: no CoverParams
    # reaches this, so a stand-in with n - 2 odd does.
    odd = SimpleNamespace(p=3, q=2, n=5, g=2, s0=1)
    with pytest.raises(IdentityCheckError, match="not integral"):
        genus_quotient_by_core(odd, 0, twisted=True)


def test_prym_dim():
    assert prym_dim(CoverParams(5, 2, 3)) == 1
    assert prym_dim(CoverParams(13, 3, 3)) == 10
    assert prym_dim(CoverParams(3, 2, 3, allow_small_genus=True)) == 0


def test_genus_quotient_by_core_fixture_values():
    params = CoverParams(13, 3, 3)
    assert genus_quotient_by_core(params, 0) == 2657206
    assert genus_quotient_by_core(params, 3) == 98416
    assert genus_quotient_by_core(params, 6) == 3646
    assert genus_quotient_by_core(params, 9) == 136
    assert genus_quotient_by_core(params, params.n) == params.g
    with pytest.raises(InvalidParamsError):
        genus_quotient_by_core(params, 13)


def test_genus_quotient_by_core_takes_only_integers():
    # A numpy integer wrapped in int64 (7258917284270888024 here); a float
    # gave a float genus and True the genus at core_dim 1.
    assert genus_quotient_by_core(CoverParams(13, 3, 6), np.int64(0)) == 1834628190768067726857304
    params = CoverParams(5, 2, 3)
    assert genus_quotient_by_core(params, np.int8(1)) == genus_quotient_by_core(params, 1) == 9
    for bad in (1.5, 1.0, True, np.float64(1), np.True_, "1"):
        for twisted in (False, True):
            with pytest.raises(InvalidParamsError, match="^core_dim .* is not an integer$"):
                genus_quotient_by_core(params, bad, twisted=twisted)


def test_decomposition_report_examples():
    rep = decomposition_report(CoverParams(5, 2, 3))
    assert (rep.t, rep.prym_dim, rep.g_t) == (3, 1, 3)
    rep = decomposition_report(CoverParams(13, 3, 3))
    assert rep.t * rep.prym_dim == 20440 * 10 == rep.g_t
    rep = decomposition_report(CoverParams(3, 2, 4))
    assert rep.m * rep.prym_dim + rep.g == 17 == rep.g_tilde


def test_identities_hold_across_sweep():
    sweep = parameter_sweep()
    assert sweep
    for params in sweep:
        rep = decomposition_report(params)  # closed forms only: the identities are checked here
        assert rep.g_tilde == rep.g + rep.m * rep.prym_dim
        assert rep.t * rep.prym_dim == rep.g_t
        assert set(rep.genus_z) == set(range(0, params.n + 1, params.s0))
