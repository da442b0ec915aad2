import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script: str) -> str:
    # A suite run under python -O runs each demo under -O too, asserts stripped.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    optimize = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    done = subprocess.run(
        [sys.executable, *optimize, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_group_ring_demo_runs():
    assert "cross terms all vanish" in run_demo("05_group_ring_identities.py")


# Demo 03 is left out: it runs the (13,3,3) atlas and takes several seconds; CI runs it
# as a step of its own.
@pytest.mark.parametrize(
    "script,line",
    [
        ("01_cover_invariants.py",
         "verified g~ = g + m*prym, t*prym = g_T and (g(X~/N), g(X~/G)) = (g, 0) on 62 parameter triples"),
        ("02_subgroup_atlas.py", "orbit of (0, 0, 0, 1): core rank 2, closure Z_2^2 ⋊ Z_3 (order 12)"),
        ("04_representation_census.py", "total = 17 = genus of the homology cover"),
        ("04_representation_census.py", "V[0,1,1,1]: kernel of size 4 (= q^core_rank)"),
    ],
)
def test_demo_runs(script, line):
    assert line in run_demo(script)


# The demos check their results with explicit exits, which python -O keeps.
def test_demo_01_exits_naming_a_failing_row(monkeypatch, capsys):
    from gonal import calculus

    real = calculus.genus_quotient_by_core

    def wrong(params, w, *, twisted=False):
        return real(params, w, twisted=twisted) + (w == 0 and not twisted)

    monkeypatch.setattr(calculus, "genus_quotient_by_core", wrong)
    with pytest.raises(SystemExit, match=r"^jacobian-dimension-identity fails for .*: g~ = g \+ m"):
        runpy.run_path(str(ROOT / "demos" / "01_cover_invariants.py"))
    assert "verified" not in capsys.readouterr().out


def test_demo_03_exits_naming_a_core_that_does_not_match(monkeypatch, capsys):
    import gonal
    from gonal.fqlinalg import Subspace

    # No atlas: the check under test is the last loop, over the bundled cores.
    monkeypatch.setattr(gonal, "orbit_classes", lambda params: [])
    monkeypatch.setattr(gonal, "core", lambda h, action: Subspace.zero(12, 3))
    with pytest.raises(SystemExit, match="^K2.gens does not span the computed core of L2$"):
        runpy.run_path(str(ROOT / "demos" / "03_large_atlas_and_samples.py"))
    assert "match the computed cores" not in capsys.readouterr().out
