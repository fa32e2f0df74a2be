"""Host-speed probe: a fixed kernel of numpy and interpreter work, timed in a
process of its own.

The host the benchmark was tuned on shares its cores, caches and memory
bandwidth with other tenants.  Its speed drifts by a quarter or more over
tens of seconds, and whole runs of an unchanged workload differ by that
much.  The benchmark therefore times this kernel between the timings it
takes (before every job, and before every set-up interpreter), and
``at_nominal_speed`` divides their median by the median kernel time.  The
kernel is the benchmark's own code, so a change to trajbounds moves only the
timings, never the probe.

The kernel runs in a child process, so that its arrays stay out of the
worker's peak resident set.  The child waits on a pipe while a job runs.

Run as a script, this file is that child: it times the kernel once for every
line it reads on standard input and writes the seconds back, one per line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

# Median kernel time on the reference host (see README.md); it only sets the
# scale of the results, so that a rescaled time reads close to a raw one there.
NOMINAL_S = 0.07


def at_nominal_speed(times: list[float], probe_s: list[float]) -> float:
    """Median of ``times``, rescaled to the host speed at which the probe
    takes ``NOMINAL_S``."""
    return statistics.median(times) / statistics.median(probe_s) * NOMINAL_S


class Probe:
    """The probe child; ``time()`` runs the kernel once and returns its seconds."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    import time

    import numpy as np

    rng = np.random.default_rng(0)
    big, small = rng.random(2_000_000), rng.random(100_000)
    big_tmp, small_tmp = np.empty_like(big), np.empty_like(small)

    def kernel() -> None:
        # numpy over arrays larger than the caches, then over arrays that fit
        # in them; the buffers are allocated once, so no call page-faults.
        for arr, tmp, reps in ((big, big_tmp, 4), (small, small_tmp, 80)):
            for _ in range(reps):
                np.multiply(arr, arr, out=tmp)
                np.add(tmp, 1.0, out=tmp)
                np.sqrt(tmp, out=tmp)
        # Interpreter-bound work: integer arithmetic, then dict updates.
        total = 0
        for i in range(200_000):
            total += i * i
        counts: dict[int, float] = {}
        for i in range(50_000):
            counts[i % 997] = counts.get(i % 997, 0.0) + float(i)

    kernel()  # warm caches and allocator before the first timed call
    for _ in sys.stdin:
        t = time.perf_counter()
        kernel()
        print(time.perf_counter() - t, flush=True)


if __name__ == "__main__":
    _serve()
