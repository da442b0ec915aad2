import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gonal.verify as verify


def test_verify_has_no_asserts():
    # `python -O` strips assert statements, which would turn every suite row
    # into a pass without checking anything.
    tree = ast.parse(inspect.getsource(verify))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


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
