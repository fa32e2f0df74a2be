"""Correctness checks on trajbounds outputs, made apart from the program.

Nothing here imports trajbounds: the binomial reference is this file's own
numpy recursion, and every other check is an inequality or identity that the
paper's bounds must satisfy.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Observed misfits on the workloads are at most a few 1e-15 on prices of
# order 0.01-1; 1e-12 leaves three orders of magnitude of rounding room.
TOL = 1e-12


def crr_price(s0: float, strike: float, delta: float, steps: int, kind: str = "CALL") -> float:
    """Price of a European option on a recombining binomial tree.

    Log-price moves are +-delta per step, rates are zero, so the risk-neutral
    up-probability is (1 - d) / (u - d) with u = exp(delta), d = exp(-delta).
    """
    ks = np.arange(-steps, steps + 1, 2)
    prices = s0 * np.exp(ks * delta)
    if kind == "CALL":
        values = np.maximum(prices - strike, 0.0)
    elif kind == "PUT":
        values = np.maximum(strike - prices, 0.0)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    u, d = math.exp(delta), math.exp(-delta)
    q = (1.0 - d) / (u - d)
    for _ in range(steps):
        values = q * values[1:] + (1.0 - q) * values[:-1]
    return float(values[0])


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def check_crr(interval: tuple[float, float], reference: float) -> list[str]:
    """Unit-jump model: both bounds equal the binomial price."""
    lo, hi = interval
    if not _finite(lo, hi) or abs(lo - reference) > TOL or abs(hi - reference) > TOL:
        return [f"BJN interval [{lo!r}, {hi!r}] != CRR price {reference!r}"]
    return []


def check_interval(interval: tuple[float, float]) -> list[str]:
    """Bounds are finite and ordered."""
    lo, hi = interval
    if not _finite(lo, hi) or lo > hi + TOL:
        return [f"interval [{lo!r}, {hi!r}] is not finite and ordered"]
    return []


def check_envelope(interval: tuple[float, float], s0: float, strike: float) -> list[str]:
    """Call bounds lie in Merton's static envelope max(s0 - K, 0) <= lower <= upper <= s0."""
    lo, hi = interval
    inside = max(s0 - strike, 0.0) - TOL <= lo and lo <= hi + TOL and hi <= s0 + TOL
    if not _finite(lo, hi) or not inside:
        return [f"call interval [{lo!r}, {hi!r}] outside envelope at s0={s0!r}, K={strike!r}"]
    return []


def check_parity(call: tuple[float, float], put: tuple[float, float], s0: float,
                 strike: float) -> list[str]:
    """Put-call parity: upper_call - upper_put = lower_call - lower_put = s0 - K."""
    fwd = s0 - strike
    out = []
    if not abs(call[1] - put[1] - fwd) <= TOL:
        out.append(f"upper parity off by {call[1] - put[1] - fwd!r}")
    if not abs(call[0] - put[0] - fwd) <= TOL:
        out.append(f"lower parity off by {call[0] - put[0] - fwd!r}")
    return out


def check_contains(outer: tuple[float, float], inner: tuple[float, float]) -> list[str]:
    """``outer`` contains ``inner``, as a cumulative-variation interval contains
    the single-variation one."""
    if not (outer[0] <= inner[0] + TOL and inner[1] <= outer[1] + TOL):
        return [f"interval {outer!r} does not contain {inner!r}"]
    return []


def check_widening(intervals: list[tuple[float, float]]) -> list[str]:
    """Intervals listed in increasing jump cap p are nested, widening outwards."""
    return [e for a, b in zip(intervals, intervals[1:]) for e in check_contains(b, a)]


def check_hedge(side: str, final: float, payoff: float) -> list[str]:
    """Domination: SHORT funded at upper ends at or above the payoff, LONG
    funded at lower ends at or below it."""
    if side == "SHORT":
        ok = final >= payoff - TOL
    elif side == "LONG":
        ok = final <= payoff + TOL
    else:
        return [f"unknown hedge side {side!r}"]
    if not ok:
        return [f"{side} ledger ends at {final!r} against payoff {payoff!r}"]
    return []
