"""Look inside a model: reachable moves, node classes, and the bounds surface.

A validation pass classifies each reachable vertex by the signs of its
admissible price moves and passes the model when every one is 0-neutral, which
also means every vertex can land exactly on a liquidation column.  Pricing runs
it only to explain a root it cannot price.
"""

from pathlib import Path

from trajbounds import (
    MARule,
    Payoff,
    build_grid,
    classify_node,
    compute_bounds,
    reachable,
    spec_for_rule,
    validate_model,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

rule = MARule(2)
spec = spec_for_rule(rule, s0=1.0, delta=0.02, beta=0.02, n1=12, n2=12)

print("admissible successors of the root under jump cap 2:")
for v in reachable(spec, rule, (0, 0)):
    print(f"  {v}")
print(f"root class: {classify_node(spec, rule, (0, 0)).value}")
print()
print(validate_model(spec, rule).summary())

# A narrow grid with flat moves produces arbitrage nodes on the price rails.
railed = MARule(3, allow_flat=True)
rail_spec = spec_for_rule(railed, s0=1.0, delta=0.02, beta=0.02, n1=5, n2=12)
report = validate_model(rail_spec, railed)
print()
print(report.summary())
print(f"first arbitrage vertices: {report.arbitrage_vertices[:4]}")

bounds = compute_bounds(build_grid(spec), rule, Payoff.butterfly(1.0, 1.1))
bounds.to_csv(OUT / "bounds_surface.csv")
print(f"\nwrote the full per-vertex surface to {OUT / 'bounds_surface.csv'}")
print(f"root interval for the butterfly: "
      f"({bounds.lower_at(0, 0):.6f}, {bounds.upper_at(0, 0):.6f})")
