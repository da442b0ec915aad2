"""Acceptance gate: one test per criterion, exact values, stated budgets.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import time
from itertools import product

import pytest

from gonal.action import (
    CoverParams,
    build_action,
    invariant_subspaces,
    parameter_sweep,
)
from gonal.atlas import (
    Hyperplane,
    core,
    enumerate_hyperplanes,
    galois_closure,
    orbit_classes,
    parse_generator_words,
    read_fixture,
)
from gonal.calculus import decomposition_report, genus_quotient_by_core
from gonal.fqlinalg import gaussian_count
from gonal.groupring import build_group, verify_cross_terms, verify_scalar_identity
from gonal.reps import complex_table, rep_table
from subspace_oracle import all_subspaces


def _report(number: int, label: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_fixture_reproduction():
    start = time.perf_counter()
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    expected = {
        "L1": (1, "Z_3^12 ⋊ Z_13", 2657206),
        "L2": (27, "Z_3^9 ⋊ Z_13", 98416),
        "L3": (729, "Z_3^6 ⋊ Z_13", 3646),
        "L4": (19683, "Z_3^3 ⋊ Z_13", 136),
    }
    core_sizes = set()
    for name, (size, group, genus) in expected.items():
        sub = parse_generator_words(read_fixture(name + ".gens"), params)
        h = Hyperplane.from_subspace(sub)
        report = galois_closure(h, params, action)
        assert report.core_size == size
        assert report.group == group
        assert genus_quotient_by_core(params, report.core_dim) == genus
        core_sizes.add(report.core_size)
    assert core_sizes == {1, 3**3, 3**6, 3**9}
    _report(1, "fixture reproduction q=3 p=13 r=3", time.perf_counter() - start, 10)


def test_criterion_2_dimension_identities_sweep():
    start = time.perf_counter()
    sweep = parameter_sweep()
    assert sweep
    for params in sweep:
        rep = decomposition_report(params)
        assert rep.g_tilde == rep.g + rep.m * rep.prym_dim
        assert rep.t * rep.prym_dim == rep.g_t
    _report(2, f"dimension identities over {len(sweep)} triples", time.perf_counter() - start, 5)


def test_criterion_3_worked_example_p5_q2():
    start = time.perf_counter()
    rep = decomposition_report(CoverParams(5, 2, 3))
    assert rep.t == 3
    assert rep.prym_dim == 1
    assert rep.g_t == 3
    _report(3, "worked example p=5 q=2: three elliptic factors", time.perf_counter() - start, 5)


def test_criterion_4_counting_oracle():
    start = time.perf_counter()
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(n + 1):
                subs = all_subspaces(n, k, q)
                assert len(subs) == gaussian_count(n, k, q)
                assert len(set(subs)) == len(subs)
    _report(4, "Gaussian counts vs brute force n <= 6", time.perf_counter() - start, 60)


@pytest.mark.parametrize("p,q,r,budget", [(3, 2, 4, 60), (5, 2, 3, 60), (13, 3, 3, 60)])
def test_criterion_5_orbit_structure(p, q, r, budget):
    start = time.perf_counter()
    params = CoverParams(p, q, r)
    # orbit_classes raises unless every core is invariant and quantized and
    # every class passes OrbitClass.verify.
    classes = orbit_classes(params)
    assert len(classes) == params.t
    stated_bound = (p - 1) * (r - 3)
    for cls in classes:
        assert len(set(cls.members)) == params.p
        assert cls.core_dim % params.s0 == 0
        assert cls.core_dim >= stated_bound
    _report(5, f"orbit structure ({p},{q},{r}): {params.t} classes", time.perf_counter() - start, budget)


def test_criterion_6_groupring_identity():
    start = time.perf_counter()
    for p, q, r in [(5, 2, 3), (3, 2, 4)]:
        params = CoverParams(p, q, r)
        group = build_group(params)
        for h in enumerate_hyperplanes(params):
            assert verify_scalar_identity(group, h) == 8 == q ** (params.n - 1)
            report = verify_cross_terms(group, h)
            assert report["cross_terms_zero"]
    _report(6, "group-ring scalar 8 + vanishing cross terms", time.perf_counter() - start, 30)


def test_criterion_7_representation_census():
    start = time.perf_counter()
    for params in parameter_sweep():
        entries = complex_table(params)  # closed form; census_rows and this line check it
        assert sum(e.count * e.degree**2 for e in entries) == params.p * params.q ** params.n
    for p, q, r in [(3, 2, 4), (5, 2, 3)]:
        params = CoverParams(p, q, r)
        table = rep_table(params)
        u_j = next(e for e in table.rational_entries if e.label == "U_j")
        assert u_j.count == len(orbit_classes(params))
    _report(7, "representation census identities", time.perf_counter() - start, 30)


def test_criterion_8_invariant_subspace_dichotomy():
    start = time.perf_counter()
    for p, q, r in [(3, 2, 4), (5, 2, 3)]:
        params = CoverParams(p, q, r)
        action = build_action(params)
        found = invariant_subspaces(action, cap=2**10)
        brute = {
            sub
            for k in range(params.n + 1)
            for sub in all_subspaces(params.n, k, q)
            if sub.is_invariant_under(action.matrix_array)
        }
        assert len(set(found)) == len(found)
        assert set(found) == brute
        assert {s.dim for s in found} == set(range(0, params.n + 1, params.s0))
    _report(8, "invariant-subspace dimension dichotomy", time.perf_counter() - start, 30)
