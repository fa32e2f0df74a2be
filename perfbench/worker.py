"""One benchmark process: set up a workload, then run its job list in whole rounds.

Started by ``run.py`` with ``src/`` on PYTHONPATH.  With ``--mode setup`` it
stops once the job list is ready; with ``--mode run`` it repeats the job list
until ``--seconds`` have passed, always finishing the round it is in, and
times the host-speed probe (``hostspeed.py``) before every job and after the
last round; probe time is not counted in the round.  The last line of
standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401
import trajbounds  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--out", required=True, help="scratch directory for CLI output")
    args = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(trajbounds.__file__).resolve().parents:
        print(f"trajbounds imported from {trajbounds.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import hostspeed
    import workloads

    wl = workloads.build(args.workload, args.seed, Path(args.out))
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    probe = hostspeed.Probe()
    try:
        result = run_rounds(wl, tracer, probe, ready + args.seconds, args.seconds)
    finally:
        probe.close()
    result["ready"] = ready
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(result["round_s"]) - 1)
        layers["import.s"] = IMPORT_S
        layers["trace.wall_s"] = hostspeed.at_nominal_speed(result["round_s"][1:],
                                                            result["probe_s"])
        result["layers"] = layers
    print(json.dumps(result))
    return 0


def run_rounds(wl, tracer, probe, deadline: float, seconds: float) -> dict:
    round_s: list[float] = []
    probe_s: list[float] = []
    attempted = 0
    failures: list[str] = []
    wrong: list[str] = []
    first = None
    while True:
        if tracer is not None:
            # The first traced round measures peak memory, which slows it
            # several times over; layer times come from the rounds after it,
            # which get the full --seconds.
            tracer.memory = not round_s
            if len(round_s) == 1:
                tracer.reset()
                probe_s.clear()
                deadline = time.monotonic() + seconds
        out = {}
        busy = 0.0
        for label, job in wl.jobs:
            probe_s.append(probe.time())
            attempted += 1
            t = time.perf_counter()
            try:
                out[label] = job()
            except Exception as e:  # a failed operation is counted, not fatal
                failures.append(f"{label}: {e!r}")
            busy += time.perf_counter() - t
        t = time.perf_counter()
        errs = wl.check(out)
        round_s.append(busy + time.perf_counter() - t)
        digest = hashlib.sha256(repr(sorted(out.items())).encode()).hexdigest()
        if first is None:
            first = digest
        elif digest != first:
            errs.append("outputs differ from the first round's")
        wrong += errs
        # Peak RSS settles only in the second round, so every run makes two.
        if time.monotonic() >= deadline and len(round_s) >= 2:
            break
    probe_s.append(probe.time())

    return {
        "round_s": round_s,
        "probe_s": probe_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "wrong": wrong[:10],
        "n_wrong": len(wrong),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    sys.exit(main())
