"""Run the benchmark once per seed and report each metric's median, quartiles and spread.

    python3 perfbench/sweep.py --workload galois-13-3-5 --seeds 1-10 --seconds 20 --trace 0 \
        [--out FILE.json]

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median; a metric is
steady when its spread stays well inside its bound in BENCHMARK.json.
Runs are sequential, one at a time, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env = json.loads(lines[0][len("env "):])
        runs.append({"seed": seed, "exit_code": proc.returncode, "result": result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    names = list(runs[0]["result"]["metrics"])
    summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
               for name in names}
    for name, s in summary.items():
        spread = f"{100 * s['spread']:.2f}%" if s["spread"] is not None else "-"
        bound = f" (bound {100 * bounds[name]:.0f}%)" if bounds.get(name) else ""
        print(f"{name:42s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {spread}{bound}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "env": env, "summary": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
