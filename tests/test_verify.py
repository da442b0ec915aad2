import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gonal
import gonal.action as action
import gonal.atlas as atlas
import gonal.groupring as groupring
import gonal.verify as verify
from gonal.cli import main
from gonal.errors import IdentityCheckError, InvalidParamsError
from gonal.fqlinalg import Subspace


def test_verify_has_no_asserts():
    # `python -O` strips assert statements, which would turn every suite row
    # into a pass without checking anything; the checks live all over the
    # package, so every module of it is walked.
    found = {}
    for info in pkgutil.iter_modules(gonal.__path__, prefix="gonal."):
        module = importlib.import_module(info.name)
        tree = ast.parse(inspect.getsource(module))
        found[module.__name__] = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert {"gonal.cli", "gonal.reps", "gonal.fqlinalg", "gonal.errors"} <= set(found)
    assert found == {name: [] for name in found}


def test_broken_scalar_identity_fails_its_row_and_exits_1(monkeypatch, capsys):
    def broken(group, h):
        raise IdentityCheckError(f"broken scalar identity at {h}")

    monkeypatch.setattr(verify, "verify_scalar_identity", broken)
    rows = {row.name: row for row in verify.suite_groupring()}
    assert len(rows) == 8
    for tag in ("5-2-3", "3-2-4"):
        assert not rows[f"groupring-{tag}-scalar"].passed
        assert rows[f"groupring-{tag}-scalar"].detail.startswith("broken scalar identity at ")
        assert rows[f"groupring-{tag}-cross-terms"].passed
    assert main(["verify", "--suite", "groupring", "--json"]) == 1
    capsys.readouterr()


def _fixture_report(**change):
    """galois_closure with fields of its report replaced."""
    real = verify.galois_closure

    def wrong(h, params, action=None):
        report = real(h, params, action)
        return dataclasses.replace(report, **{k: f(report) for k, f in change.items()})

    return "gonal.verify.galois_closure", wrong


def _genus_off_by_one():
    real = verify.genus_quotient_by_core
    return "gonal.verify.genus_quotient_by_core", lambda params, dim: real(params, dim) + 1


def _group_one_rank_short():
    # The report derives its group from galois_group, looked up in gonal.atlas.
    real = atlas.galois_group
    return "gonal.atlas.galois_group", lambda params, k: real(params, k - 1)


def _words_drop_a_row():
    # The fixture suite reads L1-L4 through hyperplane_from_words, which parses
    # with the parse_generator_words of gonal.atlas.
    real = atlas.parse_generator_words

    def wrong(text, params):
        sub = real(text, params)
        return Subspace(sub.basis_array[:-1], params.n, params.q)

    return "gonal.atlas.parse_generator_words", wrong


def _products_are_the_identity():
    # The group is built intact; frobenius_check then multiplies with every
    # product the identity, so each element outside the kernel has order 2.
    real = verify.frobenius_check

    def wrong(group):
        group.mul = lambda a, b: np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        return real(group)

    return "gonal.verify.frobenius_check", wrong


def _inverse_is_the_element():
    return "gonal.groupring.FrobeniusGroup.inv", lambda self, a: a


def _case(suite, corrupt, row, detail):
    return pytest.param(suite, corrupt, row, detail, id=row)


@pytest.mark.parametrize(
    "suite, corrupt, row, detail",
    [
        _case("fixtures", lambda: _fixture_report(core_dim=lambda r: r.core_dim + 3),
              "fixture-L1", "L1: core dim 3, expected 0"),
        _case("fixtures", _group_one_rank_short, "fixture-L2", "L2: group Z_3^8 ⋊ Z_13"),
        _case("fixtures", _genus_off_by_one, "fixture-L3", "L3: quotient genus 3647"),
        _case("fixtures", _words_drop_a_row, "fixture-L4",
              "L4.gens spans dimension 10, not a maximal subgroup of Z_3^12"),
        _case("fixtures", lambda: ("gonal.verify.core", lambda h, action: Subspace.zero(12, 3)),
              "fixture-core-generators", "K2 does not span the core of L2"),
        _case("groupring", _inverse_is_the_element, "groupring-5-2-3-build",
              "inverse fails at 16"),
        _case("groupring", _inverse_is_the_element, "groupring-3-2-4-build",
              "inverse fails at 16"),
        _case("groupring", _products_are_the_identity, "groupring-5-2-3-frobenius",
              "element 16 outside the kernel has order != 5"),
        _case("groupring", _products_are_the_identity, "groupring-3-2-4-frobenius",
              "element 16 outside the kernel has order != 3"),
    ],
)
def test_each_suite_row_can_fail(monkeypatch, capsys, suite, corrupt, row, detail):
    # One program part broken at a time; the row names its witness and gonal exits 1.
    target, wrong = corrupt()
    monkeypatch.setattr(target, wrong)
    code = main(["verify", "--suite", suite, "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert {"name": row, "status": "fail", "detail": detail} in checks


_HISTOGRAM_TRIPLES = [params for params in action.parameter_sweep()
                      if params.q**params.n <= atlas.DEFAULT_ATLAS_CAP]


def _histogram_moves_a_class():
    # One class of the largest core dimension moved to dimension n, which no core has.
    real = verify.core_histogram

    def wrong(params):
        histogram = real(params)
        histogram[max(histogram)] -= 1
        histogram[params.n] = 1
        return histogram

    return "gonal.verify.core_histogram", wrong, lambda params: (params.n, 0, params.p)


def _component_table_loses_an_entry():
    # The first coordinate of the first block no longer counts towards component 0, so
    # the one normal whose only nonzero coordinate it is reads as having core F_q^n.
    real = action.AdaptedAction.component_sums.func

    def wrong(self):
        table = real(self).copy()
        table[0, 0] = 0
        return table

    return "gonal.action.AdaptedAction.component_sums", property(wrong), lambda params: (params.n, 1, 0)


def test_histogram_suite_passes_one_row_per_triple_within_the_atlas_cap():
    rows = verify.suite_histogram()
    assert len(rows) == len(_HISTOGRAM_TRIPLES) == 25
    assert [row.name for row in rows] == [f"histogram-{c.p}-{c.q}-{c.r}" for c in _HISTOGRAM_TRIPLES]
    assert all(row.passed for row in rows)
    assert rows[-1].detail == "all 265720 normals match p · core_histogram"


@pytest.mark.parametrize("corrupt", [_histogram_moves_a_class, _component_table_loses_an_entry])
def test_each_histogram_row_can_fail(monkeypatch, capsys, corrupt):
    # Every row fails at the first dimension whose counts differ, naming the
    # triple, the dimension and both counts; gonal exits 1.
    target, wrong, witness = corrupt()
    monkeypatch.setattr(target, wrong)
    code = main(["verify", "--suite", "histogram", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    expected = []
    for params in _HISTOGRAM_TRIPLES:
        (p, q, r), (dim, got, want) = (params.p, params.q, params.r), witness(params)
        detail = f"({p}, {q}, {r}) core dim {dim}: counted {got}, p · core_histogram {want}"
        expected.append({"name": f"histogram-{p}-{q}-{r}", "status": "fail", "detail": detail})
    assert checks == expected


def test_groupring_suite_builds_each_a_l_once(monkeypatch):
    import gonal.groupring as groupring

    builds = []
    partition = groupring._coset_partition

    def counted(group, elems):
        builds.append(len(elems))
        return partition(group, elems)

    monkeypatch.setattr(groupring, "_coset_partition", counted)
    rows = verify.suite_groupring()
    assert all(row.passed for row in rows)
    # m = 15 hyperplanes for each of (5,2,3) and (3,2,4): scalar and cross
    # terms share one A_L per hyperplane, so 30 builds, not 60.
    assert len(builds) == 15 + 15


def test_groupring_rows_keep_their_first_failure(monkeypatch):
    calls = []

    def broken(group, h):
        calls.append(h)
        raise IdentityCheckError(f"broken cross terms at {h}")

    monkeypatch.setattr(verify, "verify_cross_terms", broken)
    rows = {row.name: row for row in verify.suite_groupring()}
    first = next(iter(atlas.enumerate_hyperplanes(action.CoverParams(5, 2, 3))))
    assert rows["groupring-5-2-3-cross-terms"].detail == f"broken cross terms at {first}"
    assert rows["groupring-5-2-3-scalar"].detail == "scalar 8 on all 15 hyperplanes"
    assert len(calls) == 2  # one per triple: a failed row is not rechecked


def test_failed_identity_is_reported_under_python_O():
    program = (
        "import dataclasses\n"
        "import gonal.verify as v\n"
        "real = v.decomposition_report\n"
        "v.decomposition_report = lambda params: dataclasses.replace(real(params), t=real(params).t + 1)\n"
        "rows = v.run_suite('identities')\n"
        "worked = next(r for r in rows if r.name == 'identities-worked-example-p5-q2')\n"
        "print(len(rows), sum(not r.passed for r in rows), worked.passed, worked.detail)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", program], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2 2 False expected (t, prym, g_T) = (3, 1, 3), got (4, 1, 3)\n"


@pytest.mark.parametrize("cap", [80.5, True])
def test_run_suite_refuses_a_cap_that_is_not_an_int(cap):
    # Truncated, 80.5 would run the groupring suite at cap 80 and pass.
    with pytest.raises(InvalidParamsError, match="group-order cap must be a positive integer"):
        verify.run_suite("groupring", cap=cap)


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(InvalidParamsError, match="^unknown suite 'nope'; choose from groupring, "):
        verify.run_suite("nope")
