"""Worst-case option price bounds and hedges on trajectory-set market models."""

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
from .engine import band_bounds, compute_bounds, inject_arbitrage, price
from .oracle import (
    HullPoint,
    LocalSolution,
    OracleReport,
    black_scholes,
    brute_force_upper,
    convex_hull_step,
    crr_binomial,
    hull_fast,
    merton_envelope,
)
from .hedge import (
    HedgeLedger,
    Trajectory,
    count_trajectories,
    enumerate_trajectories,
    extract_hedge,
    sample_trajectory,
    simulate_pnl,
)

__all__ = [name for name in dir() if not name.startswith("_")]
