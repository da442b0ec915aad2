import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gonal
import gonal.action as action
import gonal.atlas as atlas
import gonal.verify as verify
from gonal.cli import main
from gonal.errors import IdentityCheckError


def test_verify_has_no_asserts():
    # `python -O` strips assert statements, which would turn every suite row
    # into a pass without checking anything; the checks live all over the
    # package, so every module of it is walked.
    found = {}
    for info in pkgutil.iter_modules(gonal.__path__, prefix="gonal."):
        module = importlib.import_module(info.name)
        tree = ast.parse(inspect.getsource(module))
        found[module.__name__] = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert {"gonal.cli", "gonal.reps", "gonal.fqlinalg", "gonal.gfpoly", "gonal.errors"} <= set(found)
    assert found == {name: [] for name in found}


def test_composite_row_fails_with_its_scalar_row(monkeypatch, capsys):
    def broken(group, h, transversal_elem=None):
        raise IdentityCheckError(f"broken scalar identity at {h}")

    monkeypatch.setattr(verify, "verify_scalar_identity", broken)
    rows = {row.name: row for row in verify.suite_groupring()}
    for tag in ("5-2-3", "3-2-4"):
        assert not rows[f"groupring-{tag}-scalar"].passed
        assert rows[f"groupring-{tag}-cross-terms"].passed
        composite = rows[f"groupring-{tag}-composite-scalar"]
        assert not composite.passed
        assert f"groupring-{tag}-scalar" in composite.detail
    assert main(["verify", "--suite", "groupring", "--json"]) == 1
    capsys.readouterr()


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

    def broken(group, h, transversal_elem=None):
        calls.append(h)
        raise IdentityCheckError(f"broken cross terms at {h}")

    monkeypatch.setattr(verify, "verify_cross_terms", broken)
    rows = {row.name: row for row in verify.suite_groupring()}
    first = next(iter(atlas.enumerate_hyperplanes(action.CoverParams(5, 2, 3))))
    assert rows["groupring-5-2-3-cross-terms"].detail == f"broken cross terms at {first}"
    assert rows["groupring-5-2-3-scalar"].detail == "scalar 8 on all 15 hyperplanes"
    assert len(calls) == 2  # one per triple: a failed row is not rechecked


def test_composite_row_checks_the_scalar(monkeypatch):
    monkeypatch.setattr(verify, "composite_scalar", lambda params: params.q**params.n + 1)
    rows = {row.name: row for row in verify.suite_groupring()}
    composite = rows["groupring-5-2-3-composite-scalar"]
    assert not composite.passed
    assert "17 != q * q^(n-1) = 16" in composite.detail


def test_failed_identity_is_reported_under_python_O():
    program = (
        "import gonal.verify as v\n"
        "v.gaussian_count = lambda n, k, q: 99\n"
        "rows = v.suite_counts(max_n=1)\n"
        "print(len(rows), sum(not r.passed for r in rows), rows[0].detail)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", program], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("2 2 ")
    assert "formula says 99" in done.stdout
