from gonal.action import CoverParams, parameter_sweep
from gonal.atlas import orbit_classes
from gonal.calculus import genus_quotient_by_core
from gonal.reps import complex_table, rational_table, rep_table


def _by_label(entries, label):
    return next(e for e in entries if e.label == label)


def test_complex_table_values():
    comp = complex_table(CoverParams(5, 2, 3))
    assert [(e.degree, e.count) for e in comp] == [(1, 1), (1, 4), (5, 3)]
    comp = complex_table(CoverParams(13, 3, 3))
    assert _by_label(comp, "V_j").count == 40880
    comp = complex_table(CoverParams(3, 2, 4))
    assert [(e.degree, e.count) for e in comp] == [(1, 1), (1, 2), (3, 5)]


def test_sum_of_squares_across_sweep():
    for params in parameter_sweep():
        comp = complex_table(params)
        assert sum(e.count * e.degree**2 for e in comp) == params.group_order


def test_rational_table_values():
    rat = rational_table(CoverParams(5, 2, 3))
    assert [(e.label, e.degree, e.count) for e in rat] == [
        ("chi_0", 1, 1),
        ("U", 4, 1),
        ("U_j", 5, 3),
    ]
    rat = rational_table(CoverParams(13, 3, 3))
    assert _by_label(rat, "U").degree == 12
    assert _by_label(rat, "U_j").degree == 26
    assert _by_label(rat, "U_j").count == 20440
    # q = 2: trivial Galois group, rational degree equals the complex degree p.
    rat = rational_table(CoverParams(3, 2, 4))
    assert _by_label(rat, "U_j").degree == 3


def test_rep_table_grouping_consistency():
    for params in [CoverParams(5, 2, 3), CoverParams(13, 3, 3), CoverParams(7, 3, 3)]:
        table = rep_table(params)
        induced = _by_label(table.complex_entries, "V_j").count
        # The two published forms of the induced count agree, and the
        # rational grouping accounts for every complex irreducible.
        assert induced == params.t * (params.q - 1)
        assert induced == (params.q**params.n - 1) // params.p
        assert table.complex_irreducible_count == params.p + induced
        assert table.rational_irreducible_count == 2 + params.t


def test_isotypical_report_dimensions():
    factors = rep_table(CoverParams(5, 2, 3)).pairing
    assert [(f.factor, f.dim, f.count) for f in factors] == [
        ("J(X)", 2, 1),
        ("P(Y_j/X)^p", 5, 3),
    ]
    assert 2 + 3 * 5 == genus_quotient_by_core(CoverParams(5, 2, 3), 0)
    factors = rep_table(CoverParams(13, 3, 3)).pairing
    assert 6 + 20440 * 13 * 10 == 2657206
    tiny = CoverParams(3, 2, 3, allow_small_genus=True)
    factors = rep_table(tiny).pairing
    assert sum(f.dim * f.count for f in factors) == 1 == genus_quotient_by_core(tiny, 0)


def test_rational_kernel_count_matches_atlas():
    for p, q, r in [(3, 2, 4), (5, 2, 3)]:
        params = CoverParams(p, q, r)
        table = rep_table(params)
        classes = orbit_classes(params)
        assert table.kernel_inside_kernel_group_count == len(classes) == params.t

