"""One workload child: set up, report ready, then run operations one at a time.

Started by run.py as `python -m perfbench.child WORKLOAD SEED TRACE`.
It writes `ready` once set up, then the host speed, then waits for a line on
stdin: `go SECONDS` runs operations for up to SECONDS and writes the result
as one JSON line; anything else exits.  Protocol lines go to the original stdout; the
program's own output goes to stderr or, for the CLI, into a buffer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import sys
import traceback
from bisect import bisect
from pathlib import Path
from statistics import fmean, median
from time import perf_counter, process_time

import numpy as np

from perfbench.gates import rank_mod

# The probe: one elimination of a fixed 13x36 matrix over F_3, the same mix of
# interpreter work and small numpy calls as gonal's hot loops.  Its duration
# at the reference speed defines the unit of the speed factor; never change it.
PROBE_MATRIX = np.random.default_rng(0).integers(0, 3, size=(13, 36))
PROBE_REFERENCE_S = 0.0004
PROBE_INTERVAL_S = 0.05


def probe() -> tuple[float, float]:
    """One probe: (start, duration)."""
    start = perf_counter()
    rank_mod(PROBE_MATRIX, 3)
    return start, perf_counter() - start


class SpeedProbe:
    """Samples how fast the host runs this process while an operation runs.

    Shared hosts switch a process between speeds (up to 1.5x apart) for
    seconds at a time, so raw times of one operation differ between runs.
    The probe runs before, every PROBE_INTERVAL_S during (from a SIGALRM
    handler, between bytecodes) and after the operation.  `speed` is the
    time-average of PROBE_REFERENCE_S / probe duration; raw time x speed is
    the time the operation would take at the reference speed.  Probes that
    ran inside a timed interval are subtracted from it by `net`.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, *_):
        self.samples.append(probe())

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @property
    def speed(self) -> float:
        return fmean(PROBE_REFERENCE_S / d for _, d in self.samples)

    def speed_at(self, t: float) -> float:
        """Median speed of the six samples nearest to time t."""
        i = bisect(self.samples, (t,))
        return median(PROBE_REFERENCE_S / d for _, d in self.samples[max(0, i - 3): i + 3])

    def net(self, start: float, end: float) -> float:
        """end - start, less the probes that started in between."""
        return end - start - sum(d for t, d in self.samples if start <= t < end)


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Run whole operations within `seconds` (at least one); gate each outside the timing.

    `workload.run` returns its output and the (start, end) times of each item
    it timed, or None.  Operation times are raw, less the probes that ran
    inside them, with the mean host speed measured while the operation ran;
    item latencies are already scaled by the speed measured nearest to each
    item.  The peak RSS is taken at the end of the first operation, before
    later operations fragment the heap.  An operation that raises or fails a
    gate counts as failed; the loop goes on.
    """
    ops, problems = [], []
    output_bytes = getattr(workload, "output_bytes", None)
    start = perf_counter()
    index = 0
    while True:
        cycle0 = perf_counter()
        inputs = workload.prepare(index)
        error = None
        with SpeedProbe() as speed:
            wall0, cpu0 = perf_counter(), process_time()
            try:
                output, items = workload.run(inputs)
            except Exception:
                error = traceback.format_exc(limit=4)
            wall1, cpu = perf_counter(), process_time() - cpu0
        if index == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.enabled = False
        try:
            failed = [error] if error else workload.check(inputs, output)
        except Exception:
            failed = [traceback.format_exc(limit=4)]
        finally:
            if tracer is not None:
                tracer.enabled = True
        wall = speed.net(wall0, wall1)
        op = {"wall_s": wall, "cpu_s": cpu - (wall1 - wall0 - wall), "speed": speed.speed,
              "probes": len(speed.samples), "ok": not failed}
        if not failed:
            op["items"] = workload.items
            op["latencies_s"] = ([wall * speed.speed] if items is None else
                                 [speed.net(s, e) * speed.speed_at((s + e) / 2) for s, e in items])
            if output_bytes is not None:
                op["output_bytes"] = output_bytes(output)
        problems += [f"operation {index}: {p}" for p in failed]
        ops.append(op)
        inputs = output = None  # free before the next operation, so peak RSS is one operation's
        index += 1
        now = perf_counter()
        if now - start + (now - cycle0) > seconds:  # the next one would overrun
            return {"ops": ops, "problems": problems, "peak_rss_mb": peak_rss_mb}


def environment() -> dict:
    import gonal

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gonal_file": os.path.relpath(gonal.__file__),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr

    import gonal

    src = Path.cwd() / "src"
    if Path(gonal.__file__).resolve().parent != (src / "gonal").resolve():
        print(f"gonal imported from {gonal.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer().install() if trace else None
    workload = WORKLOADS[name](seed)
    proto.write("ready\n")
    proto.write(f"speed {median(PROBE_REFERENCE_S / probe()[1] for _ in range(20))}\n")
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    result = run_loop(workload, float(command[1]), tracer)
    if tracer is not None:
        tracer.enabled = False
        result["layers"] = {k: float(v) for k, v in tracer.summary(len(result["ops"])).items()}
        tracer.dump(Path(".perfbench_out") / f"trace-{name}.npz")
    result["oracle"] = getattr(workload, "oracle", [])
    result["env"] = environment()
    proto.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
