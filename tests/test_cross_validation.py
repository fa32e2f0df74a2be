"""Seeded fuzz: both engine sweeps against the brute-force oracle.

Random rules (including flats, narrow price rails, and arbitrage injection),
random liquidation columns, and assorted payoffs; every valid instance must
agree across the three independent computations on both interval ends.
"""

import numpy as np

import trajbounds as tb
from trajbounds.engine import compute_bounds, inject_arbitrage
from trajbounds.grid import build_grid
from test_grid import Negated
from reference import InstanceTooLargeError, brute_force_upper, generic_bounds

PAYOFFS = (tb.Payoff.call(1.0), tb.Payoff.put(1.0), tb.Payoff.butterfly(1.0, 1.1),
           tb.Payoff.call(0.95), tb.Payoff.put(1.08))


def _random_rule(rng, p):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return tb.MARule(p)
    if kind == 1:
        return tb.MARule(p, allow_flat=True)
    if kind == 2:
        if p == 1:
            return tb.MBRule(1, 1)
        a = int(rng.integers(1, min(p * p, 3) + 1))
        try:
            return tb.MBRule(p, a)
        except ValueError:
            return None
    return inject_arbitrage(tb.MARule(p), float(rng.uniform(0, 1)),
                            seed=int(rng.integers(10 ** 6)))


def test_engine_sweeps_match_oracle_on_random_instances():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(150):
        p = int(rng.integers(1, 4))
        rule = _random_rule(rng, p)
        if rule is None:
            continue
        n2 = int(rng.integers(2, 7))
        n1 = int(rng.integers(max(1, n2 - 2), min(p * n2, n2 + 3) + 1))
        inner = sorted(set(int(x) for x in rng.integers(1, n2, size=int(rng.integers(0, 3)))))
        lam = tuple(inner + [n2]) if inner and inner[-1] < n2 else (n2,)
        step = float(rng.uniform(0.01, 0.12))
        s0 = float(rng.uniform(0.85, 1.2))
        try:
            spec = tb.spec_for_rule(rule, s0, step, step, n1, n2, lam=lam)
        except ValueError:
            continue
        if not tb.validate_model(spec, rule).ok:
            continue
        z = PAYOFFS[int(rng.integers(0, len(PAYOFFS)))]
        try:
            bf_up = brute_force_upper(spec, rule, z)
            bf_lo = -brute_force_upper(spec, rule, Negated(z))
        except InstanceTooLargeError:
            continue
        grid = build_grid(spec)
        lo, hi = compute_bounds(grid, rule, z).price_interval()
        glo, ghi = generic_bounds(grid, rule, z).price_interval()
        for x, y in ((lo, glo), (hi, ghi), (hi, bf_up), (lo, bf_lo)):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y)), \
                (rule.kind, n1, n2, lam, z.kind, x, y)
        checked += 1
    assert checked >= 80
