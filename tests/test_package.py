"""The package's boundary: what it exports, the bitwise-check tool that imports its tests' references,
and the benchmark's tracer, which rebinds its functions."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import trajbounds
from trajbounds.model import MARule

ROOT = Path(__file__).resolve().parents[1]


def test_public_api_is_the_pricer():
    # Engine-only references live in tests/reference.py, not in the package.
    assert sorted(trajbounds.__all__) == [
        "Band", "BinomialBandRule", "BoundsGrid", "Grid", "GridSpec", "HedgeLedger",
        "MARule", "MBRule", "ModelValidationError", "ModifiedRule", "NodeClass",
        "NotZeroNeutralError", "Payoff", "Trajectory", "TransitionRule", "ValidationReport",
        "Vertex", "band_bounds", "bjn_rule", "black_scholes", "build_grid", "classify_node",
        "compute_bounds", "extract_hedge", "inject_arbitrage", "merton_envelope", "payoff_eval",
        "price", "price_all", "price_horizons", "reachable", "sample_trajectory", "simulate_pnl",
        "spec_for_rule", "spec_from_total_variance", "validate_model",
    ]


def test_fingerprint_tool_hashes_both_sweeps(tmp_path):
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # n2 = 4 runs the banded sweep and the reference generic sweep on three payoffs.
    assert tool.family(tool.Hasher(), MARule(2), 4, 4, (4,), 2, tmp_path) == "ok"


def test_benchmark_tracer_installs():
    # perfbench's tracer rebinds functions by name (engine.reachable, ModifiedRule.selection,
    # grid.build_grid, hedge.sample_trajectory, ...): a refactor that removes one breaks it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}  # no __pycache__ under perfbench/
    code = "import tracing; tracing.install(tracing.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
