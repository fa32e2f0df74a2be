"""Worst-case option price bounds and hedges on trajectory-set market models."""

from types import ModuleType as _Module

from .model import (
    Band,
    BinomialBandRule,
    GridSpec,
    MARule,
    MBRule,
    ModelValidationError,
    ModifiedRule,
    NodeClass,
    NotZeroNeutralError,
    TransitionRule,
    ValidationReport,
    Vertex,
    bjn_rule,
    classify_node,
    reachable,
    spec_for_rule,
    spec_from_total_variance,
    validate_model,
)
from .grid import BoundsGrid, Grid, Payoff, build_grid, payoff_eval
from .engine import band_bounds, compute_bounds, inject_arbitrage, price, price_all, price_horizons
from .oracle import black_scholes, merton_envelope
from .hedge import (
    HedgeLedger,
    Trajectory,
    extract_hedge,
    sample_trajectory,
    simulate_pnl,
)

__all__ = [name for name in dir() if not (name.startswith("_") or isinstance(globals()[name], _Module))]  # not submodules
