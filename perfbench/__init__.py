"""Benchmark of the gonal toolkit, measured from outside the package.

`python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`
runs one workload in fresh child processes and prints its metrics; see
`perfbench/README.md` for the workloads, the metrics and the baseline.
"""
