"""trajbounds benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a trajbounds checkout:

    python3 perfbench/run.py --workload deep|scan|hedge --seed N --seconds S --trace 0|1

Every measurement runs in a fresh single-process interpreter
(``worker.py``) with the checkout's ``src/`` first on PYTHONPATH.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
one round of the workload's job list; ``peak_rss_mib``, the peak resident set
of the process that ran the rounds; and ``setup_s``, the median over many
fresh interpreters, started before and after the rounds, of the time from
process start to the job list being ready.  Both times are rescaled to a
fixed host speed by the probe in ``hostspeed.py``.  ``--trace 1`` runs the
workload again with spans around trajbounds' public functions and reports
the per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("deep", "scan", "hedge")
SETUP_PROBES = 20  # setup-only interpreters, half before and half after the rounds
TIME_LIMIT_S = 170.0
SCRATCH = ".perfbench_out"


def declared_units(key: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under ``key``."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def spawn(args, mode: str, env: dict, deadline: float) -> dict:
    """Run worker.py once; return its JSON result with ``setup_s`` added."""
    Path(SCRATCH).mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{mode}-", dir=SCRATCH)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--out", out_dir]
    try:
        start = time.monotonic()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - start, 1.0))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {mode} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    src = Path.cwd() / "src"
    if not (src / "trajbounds" / "__init__.py").is_file():
        print(f"perfbench: no trajbounds sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.resolve())] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # One thread per process, so the two cores do not trade work mid-run.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    try:
        if args.trace:
            units = declared_units("per_layer")
            res = spawn(args, "run", env, deadline)
            values = res["layers"]
        else:
            units = declared_units("end_to_end")
            probe = hostspeed.Probe()
            try:
                setups, probe_s = [], []
                for i in range(SETUP_PROBES):
                    if i == SETUP_PROBES // 2:
                        res = spawn(args, "run", env, deadline)
                        setups.append(res["setup_s"])
                    probe_s.append(probe.time())
                    setups.append(spawn(args, "setup", env, deadline)["setup_s"])
                probe_s.append(probe.time())
            finally:
                probe.close()
            values = {
                "wall_s": hostspeed.at_nominal_speed(res["round_s"], res["probe_s"]),
                "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
                "setup_s": hostspeed.at_nominal_speed(setups, probe_s),
            }
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)  # left in place if another run is using it

    if set(values) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(set(values) ^ set(units))} "
                         "differently from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for msg in dict.fromkeys(res["failures"] + res["wrong"]):
        print(f"perfbench: {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload} ran {len(res['round_s'])} rounds: "
          + " ".join(f"{t:.3f}" for t in res["round_s"]), file=sys.stderr)
    print("perfbench: host-speed probe: " + " ".join(f"{t:.4f}" for t in res["probe_s"]),
          file=sys.stderr)
    print(json.dumps({"correct": res["n_wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
