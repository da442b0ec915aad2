"""Each output gate passes on real output and rejects a corrupted one (small triples)."""

import copy
import json

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gonal import atlas
from gonal.action import CoverParams
from perfbench import gates
from perfbench.workloads import Atlas, Galois, GroupRing


@pytest.mark.parametrize("triple", [(5, 2, 3), (3, 2, 4), (7, 2, 4), (5, 3, 4)])
def test_closed_form_histogram_matches_atlas(triple):
    hist = {}
    for cls in atlas.orbit_classes(CoverParams(*triple)):
        hist[cls.core_dim] = hist.get(cls.core_dim, 0) + 1
    assert gates.closed_form_histogram(*triple) == hist


def test_closed_form_histogram_13_3_3():
    assert gates.closed_form_histogram(13, 3, 3) == {9: 4, 6: 156, 3: 2704, 0: 17576}


@pytest.fixture(scope="module")
def atlas_run():
    workload = Atlas(seed=0, triple=(5, 2, 3), digest="")
    (code, text), _ = workload.run(workload.prepare(0))
    workload.digest = gates.payload_digest(json.loads(text)["payload"])
    return workload, code, json.loads(text)


def test_atlas_gate_passes(atlas_run):
    workload, code, envelope = atlas_run
    assert code == 0
    assert workload.check(None, (code, json.dumps(envelope))) == []


def _corrupt(envelope, edit):
    bad = copy.deepcopy(envelope)
    edit(bad["payload"])
    return bad


@pytest.mark.parametrize("edit", [
    lambda pl: pl["core_dim_histogram"].update({"0": str(int(pl["core_dim_histogram"]["0"]) + 1)}),
    lambda pl: pl.update(class_count="4"),
    lambda pl: pl["classes"][0].update(core_dim="4"),
])
def test_atlas_gate_rejects_corrupted_payload(atlas_run, edit):
    workload, code, envelope = atlas_run
    assert workload.check(None, (code, json.dumps(_corrupt(envelope, edit))))


def test_atlas_gate_rejects_nonzero_exit(atlas_run):
    workload, _, envelope = atlas_run
    assert workload.check(None, (1, json.dumps(envelope)))


def test_atlas_timing_fields_do_not_change_the_digest(atlas_run):
    workload, code, envelope = atlas_run
    other = dict(envelope, timing_s=envelope["timing_s"] + 1.0, checks=[])
    assert workload.check(None, (code, json.dumps(other))) == []


@pytest.fixture(scope="module")
def galois_run():
    workload = Galois(seed=3, triple=(3, 2, 4), batch=12, oracle_per_batch=12)
    normals = workload.prepare(0)
    results, times = workload.run(normals)
    return workload, normals, results, times


def test_galois_gate_passes_and_feeds_the_oracle(galois_run):
    workload, normals, results, times = galois_run
    assert len(times) == len(results) == 12
    assert workload.check(normals, results) == []
    assert len(workload.oracle) == 12
    for _, stack, core_dim, q in workload.oracle:
        assert gates.check_rank_sympy(stack, core_dim, q) == []


def _query(workload, normals, results, i=0):
    p, q = workload.params.p, workload.params.q
    h, core_dim, genus = results[i]
    stack = gates.conjugate_stack(normals[i], workload.action.matrix_array, p, q)
    basis = np.array(atlas.core(h, workload.action).basis_array)
    return stack, core_dim, basis, genus


def test_galois_gate_rejects_zeroed_core_row(galois_run):
    workload, normals, results, _ = galois_run
    stack, core_dim, basis, genus = _query(workload, normals, results)
    p, q, r = workload.params.p, workload.params.q, workload.params.r
    assert gates.check_galois_query(stack, core_dim, basis, genus, p, q, r) == []
    basis[0] = 0
    assert gates.check_galois_query(stack, core_dim, basis, genus, p, q, r)


def test_galois_gate_rejects_wrong_core_dim_and_genus(galois_run):
    workload, normals, results, _ = galois_run
    stack, core_dim, basis, genus = _query(workload, normals, results)
    p, q, r = workload.params.p, workload.params.q, workload.params.r
    assert gates.check_galois_query(stack, core_dim - 1, basis, genus, p, q, r)
    assert gates.check_galois_query(stack, core_dim, basis, genus + 1, p, q, r)
    # An empty core passes annihilation trivially; the rank of the normals catches it.
    assert gates.check_galois_query(stack, 0, basis[:0], genus, p, q, r)
    assert gates.check_rank_sympy(stack.tolist(), core_dim - workload.params.s0, q)


def test_rank_mod_matches_sympy():
    rng = np.random.default_rng(7)
    for q, shape in [(2, (6, 9)), (3, (13, 12)), (5, (4, 4))]:
        a = rng.integers(0, q, size=shape)
        a[-1] = a[0] * 2 % q  # force a dependency
        field = GF(q)
        expected = DomainMatrix([[field(int(x)) for x in row] for row in a], shape, field).rank()
        assert gates.rank_mod(a, q) == expected


@pytest.fixture(scope="module")
def groupring_run():
    workload = GroupRing(seed=5, triple=(3, 2, 4))
    output, times = workload.run(workload.prepare(0))
    return workload, output, times


def test_groupring_gate_passes(groupring_run):
    workload, output, times = groupring_run
    assert len(times) == workload.items == 15
    assert workload.check(None, output) == []


def test_groupring_gate_rejects_wrong_results(groupring_run):
    workload, (orbits, scalars, crosses), _ = groupring_run
    assert workload.check(None, (orbits, [scalars[0] + 1] + scalars[1:], crosses))
    assert workload.check(None, (orbits, scalars, [dict(crosses[0], cross_terms_zero=False)] + crosses[1:]))
    assert workload.check(None, (orbits + 1, scalars, crosses))
    assert workload.check(None, (orbits, scalars[1:], crosses[1:]))


def test_groupring_order_is_seeded():
    a, b, c = (GroupRing(seed=s, triple=(3, 2, 4)) for s in (1, 1, 2))
    assert [h.normal for h in a.hyperplanes] == [h.normal for h in b.hyperplanes]
    assert [h.normal for h in a.hyperplanes] != [h.normal for h in c.hyperplanes]
