import pytest

from gonal.action import CoverParams, parameter_sweep
from gonal.calculus import (
    decomposition_report,
    genus_homology_cover,
    genus_intermediate,
    genus_quotient_T,
    genus_quotient_by_core,
    prym_dim,
)
from gonal.errors import InvalidParamsError


def test_genus_base():
    # The base genus (p-1)(r-2)/2 is CoverParams.g, under CoverParams's preconditions.
    assert CoverParams(13, 3, 3).g == 6
    assert CoverParams(5, 2, 3).g == 2
    assert CoverParams(3, 2, 4).g == 2
    with pytest.raises(InvalidParamsError):
        CoverParams(9, 2, 3)
    with pytest.raises(InvalidParamsError):
        CoverParams(5, 2, 2)


def test_genus_homology_cover():
    assert genus_homology_cover(CoverParams(13, 3, 3)) == 2657206
    assert genus_homology_cover(CoverParams(5, 2, 3)) == 17
    tiny = CoverParams(3, 2, 3, allow_small_genus=True)
    assert genus_homology_cover(tiny) == 1  # g = 1 is a fixed point


def test_genus_intermediate():
    assert genus_intermediate(CoverParams(13, 3, 3)) == 16
    assert genus_intermediate(CoverParams(5, 2, 3)) == 3
    assert genus_intermediate(CoverParams(3, 2, 4)) == 3


def test_genus_quotient_T():
    assert genus_quotient_T(CoverParams(5, 2, 3)) == 3
    assert genus_quotient_T(CoverParams(13, 3, 3)) == 204400
    assert genus_quotient_T(CoverParams(3, 2, 4)) == 5


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
