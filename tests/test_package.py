"""The package's boundary: what it exports, and the bitwise-check tool that imports its tests' references."""

import importlib.util
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
