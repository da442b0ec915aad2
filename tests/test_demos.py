import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
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
        ("01_cover_invariants.py", "verified g~ = g + m*prym and t*prym = g_T on 62 parameter triples"),
        ("02_subgroup_atlas.py", "orbit of (0, 0, 0, 1): core rank 2, closure Z_2^2 ⋊ Z_3 (order 12)"),
        ("04_representation_census.py", "total = 17 = genus of the homology cover"),
        ("04_representation_census.py", "V[0,1,1,1]: kernel of size 4 (= q^core_rank)"),
    ],
)
def test_demo_runs(script, line):
    assert line in run_demo(script)
