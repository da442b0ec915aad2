"""The operation loop, the tracer and the runner's contract, on small triples."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gonal
from gonal import atlas, fqlinalg
from perfbench import run
from perfbench.child import run_loop
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Atlas, GroupRing

ROOT = Path(__file__).resolve().parents[2]


class Raises:
    items = 1

    def __init__(self, fail_at):
        self.fail_at = fail_at

    def prepare(self, index):
        return index

    def run(self, index):
        if index in self.fail_at:
            raise ValueError(f"boom {index}")
        return index, [(0.0, 0.001)]

    def check(self, inputs, output):
        return [] if output == inputs else ["wrong output"]


def test_a_raising_operation_counts_as_failed_and_the_loop_goes_on():
    result = run_loop(Raises(fail_at={0}), seconds=0.0)
    assert [op["ok"] for op in result["ops"]] == [False]
    assert "boom 0" in result["problems"][0]
    result = run_loop(Raises(fail_at={1}), seconds=0.05)
    oks = [op["ok"] for op in result["ops"]]
    assert len(oks) >= 2 and oks[1] is False and oks.count(False) == 1


def test_a_failed_gate_counts_as_failed():
    class WrongOutput(Raises):
        def run(self, index):
            return index + 1, [(0.0, 0.001)]

    result = run_loop(WrongOutput(fail_at=set()), seconds=0.0)
    assert result["ops"][0]["ok"] is False
    assert result["problems"] == ["operation 0: wrong output"]


def test_operations_carry_a_speed_factor_and_restore_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    result = run_loop(Raises(fail_at=set()), seconds=0.0)
    op = result["ops"][0]
    assert op["ok"] and op["probes"] >= 2 and op["speed"] > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_records_layers_and_restores_the_program():
    original = (fqlinalg.kernel_array, atlas.Hyperplane.__init__, gonal.cli.jsonify)
    workload = Atlas(seed=0, triple=(5, 2, 3), digest="")
    tracer = Tracer().install()
    try:
        assert atlas.kernel_array is not original[0]
        result = run_loop(workload, seconds=0.0, tracer=tracer)
        layers = tracer.summary(len(result["ops"]))
    finally:
        tracer.uninstall()
    assert (fqlinalg.kernel_array, atlas.Hyperplane.__init__, gonal.cli.jsonify) == original
    assert atlas.kernel_array is original[0]
    params = workload.params
    assert layers["fqlinalg.kernel_array.calls"] == params.t
    assert layers["atlas.OrbitClass.verify.calls"] == params.t
    assert layers["atlas.conjugate_hyperplane.calls"] == params.m
    assert layers["cli.jsonify.calls"] == 2  # outermost calls only: payload and params
    assert layers["cli.cmd_atlas.calls"] == 1
    for name in ("atlas.orbit_classes", "cli.cmd_atlas", "atlas.OrbitClass.verify"):
        assert 0 < layers[f"{name}.self_s"] < layers[f"{name}.s"]


def test_tracer_counts_left_perm_hits():
    workload = GroupRing(seed=0, triple=(3, 2, 4))
    tracer = Tracer().install()
    try:
        workload.prepare(1)  # a fresh group built under the tracer
        run_loop(workload, seconds=0.0, tracer=tracer)
        layers = tracer.summary(1)
    finally:
        tracer.uninstall()
    perms = layers["groupring.FrobeniusGroup.left_perm.calls"]
    assert layers["groupring.build_group.calls"] == 1
    assert layers["groupring.FrobeniusGroup.mul.calls"] > 0
    # Every distinct element misses once: 16 translations and 2 nontrivial twists.
    assert layers["groupring.left_perm.hit_ratio"] == pytest.approx((perms - 18) / perms)


def test_benchmark_json_names_every_metric_and_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert list(run.END_TO_END) == [m["name"] for m in bench["end_to_end"]]
    assert list(run.PER_LAYER) == [m["name"] for m in bench["per_layer"]]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "galois-13-3-5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
