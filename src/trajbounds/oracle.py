"""Closed-form references the CLI prints beside the bounds: the zero-rate
Black-Scholes price and the model-free static Merton envelope."""

from __future__ import annotations

import math


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes(s0: float, strike: float, sigma: float, years: float,
                  kind: str = "CALL") -> float:
    """Zero-rate Black-Scholes price via the error-function normal CDF."""
    if not all(0.0 < x < math.inf for x in (s0, sigma, years)):
        raise ValueError(f"s0, sigma and years must be positive and finite, got {(s0, sigma, years)}")
    if not 0.0 <= strike < math.inf:
        raise ValueError(f"strike must be non-negative and finite, got {strike!r}")
    kind = kind.upper()
    if kind not in ("CALL", "PUT"):
        raise ValueError(f"unsupported option kind {kind!r}")
    if strike == 0.0:
        return s0 if kind == "CALL" else 0.0
    sig = sigma * math.sqrt(years)
    d1 = (math.log(s0 / strike) + 0.5 * sig * sig) / sig
    d2 = d1 - sig
    if kind == "CALL":
        return s0 * _norm_cdf(d1) - strike * _norm_cdf(d2)
    return strike * _norm_cdf(-d2) - s0 * _norm_cdf(-d1)


def merton_envelope(kind: str, s0: float, strike: float) -> tuple[float, float]:
    """Model-free (lb, ub) from static super/sub-replication with stock and cash."""
    kind = kind.upper()
    if kind == "CALL":
        return max(s0 - strike, 0.0), s0
    if kind == "PUT":
        return max(strike - s0, 0.0), strike
    raise ValueError(f"unsupported option kind {kind!r}")
