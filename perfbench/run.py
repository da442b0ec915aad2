"""Benchmark runner: run one workload in fresh child processes and print its metrics.

    python3 perfbench/run.py --workload atlas-13-3-3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the children import gonal from its
`src/`.  The load is a closed loop with one client: one child at a time, one
operation at a time, numeric thread pools pinned to one thread.  Operation
times are reported at the reference host speed (see child.SpeedProbe): raw
time times the speed factor measured while the operation ran.

`--trace 0` starts the child SETUPS times (median set-up time), then lets
the last one run whole operations for up to `--seconds` (it starts no
operation that would end later, judging by the one before, but runs at least
one) and reports the end-to-end metrics.  `--trace 1` gives half the time to an untraced child and half to
a child traced by perfbench.tracer, and reports the per-layer metrics and the
tracing overhead.  Every operation is gated (perfbench.gates); the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exit code 0 when every operation passed, 1 when one failed, 2
when the checkout or a child is unusable (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

SETUPS = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
}
PER_LAYER = {
    "fqlinalg.kernel_array.calls": "count",
    "fqlinalg.kernel_array.s": "s",
    "fqlinalg.rref_array.calls": "count",
    "fqlinalg.rref_array.s": "s",
    "atlas.orbit_classes.s": "s",
    "atlas.orbit_classes.self_s": "s",
    "atlas.OrbitClass.verify.calls": "count",
    "atlas.OrbitClass.verify.self_s": "s",
    "atlas.conjugate_hyperplane.calls": "count",
    "atlas.conjugate_hyperplane.s": "s",
    "fqlinalg.Subspace.contains_rows.s": "s",
    "cli.jsonify.s": "s",
    "cli.ReportEnvelope.to_json.s": "s",
    "cli.cmd_atlas.self_s": "s",
    "cli.output_bytes": "bytes",
    "atlas.Hyperplane.s": "s",
    "atlas.galois_closure.self_s": "s",
    "atlas.core.calls": "count",
    "atlas.core.self_s": "s",
    "calculus.genus_quotient_by_core.s": "s",
    "groupring.build_group.s": "s",
    "groupring.frobenius_check.s": "s",
    "groupring.fixed_subspace.calls": "count",
    "groupring.fixed_subspace.self_s": "s",
    "groupring.verify_scalar_identity.self_s": "s",
    "groupring.verify_cross_terms.self_s": "s",
    "groupring.GroupRingOperator.apply.s": "s",
    "groupring.FrobeniusGroup.mul.calls": "count",
    "groupring.FrobeniusGroup.left_perm.calls": "count",
    "groupring.left_perm.hit_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


class ChildError(RuntimeError):
    pass


class Child:
    """A workload child process, started and set up.

    `setup_s` is the spawn-to-ready time at the reference speed, scaled by the
    speed the child measures right after it is ready.
    """

    def __init__(self, workload: str, seed: int, trace: bool, deadline: float):
        env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env.pop("GONAL_ATLAS_CAP", None)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", workload, str(seed), str(int(trace))],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline()
        self.raw_setup_s = time.perf_counter() - start
        speed = self.proc.stdout.readline().split()
        if ready.strip() != "ready" or len(speed) != 2:
            self.close()
            raise ChildError(f"{workload} child did not set up (exit code {self.proc.returncode})")
        self.setup_s = self.raw_setup_s * float(speed[1])

    def finish(self, seconds: float | None) -> dict | None:
        """Run operations for `seconds` and return the child's result; None just stops it."""
        try:
            out, _ = self.proc.communicate("quit\n" if seconds is None else f"go {seconds}\n")
        finally:
            self.close()
        if seconds is None:
            return None
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise ChildError(f"child ended with exit code {self.proc.returncode} and no result")
        return json.loads(lines[-1])

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    s = sorted(values)
    k = (len(s) - 1) * pct / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def oracle_problems(result: dict) -> list[str]:
    """sympy rank checks on the seeded subset of galois queries; failing operations are marked."""
    from perfbench.gates import check_rank_sympy

    problems = []
    for op_index, stack, core_dim, q in result.get("oracle", []):
        found = check_rank_sympy(stack, core_dim, q)
        if found:
            result["ops"][op_index]["ok"] = False
            problems += [f"operation {op_index}: {p}" for p in found]
    return problems


def measure(workload: str, seed: int, trace: bool, seconds: float, deadline: float,
            setups: int = 1) -> dict:
    """Set a child up `setups` times, then run the last one for `seconds`; gate its result."""
    children = []
    for _ in range(setups - 1):
        children.append(Child(workload, seed, trace, deadline))
        children[-1].finish(None)
    children.append(Child(workload, seed, trace, deadline))
    result = children[-1].finish(seconds)
    result["setup_s"] = [c.setup_s for c in children]
    result["raw_setup_s"] = [c.raw_setup_s for c in children]
    result["problems"] += oracle_problems(result)
    return result


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """Median set-up time and operation metrics, all at the reference speed."""
    setups = result["setup_s"]
    good = [op for op in result["ops"] if op["ok"]]
    walls = [op["wall_s"] * op["speed"] for op in good]
    latencies = [x for op in good for x in op["latencies_s"]]
    items = sum(op["items"] for op in good)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(op["cpu_s"] * op["speed"] for op in good),
        "peak_rss_mb": result["peak_rss_mb"],
        "items_per_s": items / sum(walls),
        "item_p50_ms": 1e3 * percentile(latencies, 50),
        "item_p90_ms": 1e3 * percentile(latencies, 90),
    }
    speeds = [op["speed"] for op in good]
    notes = [
        f"samples: {len(setups)} set-ups, {len(walls)} operations, {items} items, "
        f"{len(latencies)} latency samples, {sum(op['probes'] for op in good)} speed probes",
        f"raw medians: setup_s {statistics.median(result['raw_setup_s']):.4f} s, "
        f"wall_s {statistics.median(op['wall_s'] for op in good):.4f} s; "
        f"speed factor {min(speeds):.3f}..{max(speeds):.3f}",
    ]
    return values, notes


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Layer metrics of the traced run; its times are scaled to the reference speed."""
    traced_ops = [op for op in traced["ops"] if op["ok"]]
    speed = statistics.median(op["speed"] for op in traced_ops)
    wall = statistics.median(op["wall_s"] * op["speed"] for op in untraced["ops"] if op["ok"])
    traced_wall = statistics.median(op["wall_s"] * op["speed"] for op in traced_ops)
    values = {name: traced["layers"].get(name, 0.0) * (speed if unit == "s" else 1)
              for name, unit in PER_LAYER.items()}
    values["cli.output_bytes"] = statistics.mean(op.get("output_bytes", 0) for op in traced_ops)
    values["trace.overhead_s"] = traced_wall - wall
    values["trace.overhead_pct"] = 100 * (traced_wall - wall) / wall
    notes = [
        f"traced operations: {len(traced['ops'])}, untraced: {len(untraced['ops'])}; "
        f"layer metrics are per operation; traced speed factor {speed:.3f}",
        f"wall_s untraced {wall:.4f} s, traced {traced_wall:.4f} s",
    ]
    return values, notes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else f"unknown ({ref[5:]})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gonal" / "__init__.py").is_file():
        print(f"error: no gonal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            runs = [measure(args.workload, args.seed, trace, args.seconds / 2, deadline)
                    for trace in (False, True)]
        else:
            runs = [measure(args.workload, args.seed, False, args.seconds, deadline, SETUPS)]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    if all(any(op["ok"] for op in r["ops"]) for r in runs):
        values, notes = per_layer(*runs) if args.trace else end_to_end(runs[0])
    else:  # nothing passed: nothing to measure
        values, notes, units = {}, [], {}

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(not op["ok"] for r in runs for op in r["ops"])
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "git_commit": git_commit(), **runs[-1]["env"],
    }
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    print(f"fail_rate {failed}/{attempted}")
    for problem in (p for r in runs for p in r["problems"]):
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
