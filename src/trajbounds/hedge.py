"""Hedge extraction and profit-and-loss simulation along admissible trajectories."""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Iterator

from .grid import BoundsGrid, Grid, payoff_eval
from .model import TransitionRule, Vertex, reachable

SHORT = "SHORT"
LONG = "LONG"


@dataclass(frozen=True)
class Trajectory:
    """Admissible vertex path from (0, 0) to its liquidation column."""

    vertices: tuple[Vertex, ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        if not self.vertices or self.vertices[0] != (0, 0):
            raise ValueError("trajectories start at (0, 0)")
        if len(self.vertices) != len(self.prices):
            raise ValueError("vertices and prices must align")

    @property
    def terminal(self) -> Vertex:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)


def _from_vertices(grid: Grid, vertices: tuple[Vertex, ...]) -> Trajectory:
    return Trajectory(vertices=vertices, prices=tuple(grid.price(k) for k, _ in vertices))


def sample_trajectory(rule: TransitionRule, grid: Grid, seed: int) -> Trajectory:
    """One random admissible path: uniform successor choice, stop with
    probability 1/2 on each intermediate liquidation column, always stop on the
    last one.  Fully determined by the seed."""
    spec = grid.spec
    rng = random.Random(seed)
    lam = set(spec.lam)
    path: list[Vertex] = [(0, 0)]
    while True:
        k, j = path[-1]
        if j == spec.n2:
            break
        if j in lam and rng.random() < 0.5:
            break
        succ = reachable(spec, rule, (k, j))
        if not succ:
            if j in lam:
                break
            raise ValueError(f"dead end at {(k, j)}: model was not validated")
        path.append(succ[rng.randrange(len(succ))])
    return _from_vertices(grid, tuple(path))


def extract_hedge(bounds: BoundsGrid, traj: Trajectory, side: str = SHORT) -> tuple[float, ...]:
    """Hedge ratio held at each non-terminal vertex of the trajectory.

    Ratios depend on the current vertex only, so the strategy is
    non-anticipative by construction.
    """
    if side not in (SHORT, LONG):
        raise ValueError("side must be SHORT or LONG")
    out = []
    for k, j in traj.vertices[:-1]:
        s = bounds.slope_up_at(k, j) if side == SHORT else bounds.slope_dn_at(k, j)
        if s != s:  # NaN: vertex never priced
            raise ValueError(f"no hedge recorded at vertex {(k, j)}")
        out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class LedgerRow:
    step: int
    k: int
    j: int
    s: float
    slope: float
    ds: float
    cum_value: float


@dataclass(frozen=True)
class HedgeLedger:
    """Step-by-step account of one hedged position along one trajectory."""

    side: str
    initial: float
    rows: tuple[LedgerRow, ...]
    final: float
    payoff: float

    @property
    def excess(self) -> float:
        return self.final - self.payoff

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["step", "k", "j", "s", "slope", "dS", "cum_value"])
            for r in self.rows:
                w.writerow([r.step, r.k, r.j, repr(r.s), repr(r.slope),
                            repr(r.ds), repr(r.cum_value)])


def simulate_pnl(bounds: BoundsGrid, traj: Trajectory, side: str, x0: float) -> HedgeLedger:
    """Mark-to-market of initial capital ``x0`` hedged along the trajectory.

    SHORT accrues ``+slope * dS`` per step, LONG accrues ``-slope * dS``; the
    final value is compared against the payoff at the liquidation vertex.
    """
    slopes = extract_hedge(bounds, traj, side)
    sign = 1.0 if side == SHORT else -1.0
    value = x0
    rows = []
    for i, slope in enumerate(slopes):
        k, j = traj.vertices[i]
        ds = traj.prices[i + 1] - traj.prices[i]
        value += sign * slope * ds
        rows.append(LedgerRow(step=i, k=k, j=j, s=traj.prices[i],
                              slope=slope, ds=ds, cum_value=value))
    kT, _ = traj.terminal
    z = payoff_eval(bounds.payoff, kT, bounds.grid.spec)
    return HedgeLedger(side=side, initial=x0, rows=tuple(rows), final=value, payoff=z)


# --------------------------------------------------------------------------- #
# Exhaustive trajectory enumeration (small instances)
# --------------------------------------------------------------------------- #

def count_trajectories(rule: TransitionRule, grid: Grid) -> int:
    """Number of complete trajectories, counting each admissible stop once."""
    spec = grid.spec
    lam = set(spec.lam)
    # Column by column from the last: a vertex counts its own stop plus the
    # trajectories of its successors.
    counts: dict[Vertex, int] = {(k, spec.n2): 1 for k in grid.column_ks(spec.n2)}
    for j in range(spec.n2 - 1, -1, -1):
        for k in grid.column_ks(j):
            counts[(k, j)] = (1 if j in lam else 0) + sum(
                counts[w] for w in reachable(spec, rule, (k, j)))
    return counts[(0, 0)]


def enumerate_trajectories(rule: TransitionRule, grid: Grid) -> Iterator[Trajectory]:
    """Yield every complete trajectory (stopped paths included), depth-first."""
    spec = grid.spec
    lam = set(spec.lam)
    path: list[Vertex] = []
    # stack[i] iterates the successors of path[i - 1]; stack[0] yields the root.
    stack = [iter([(0, 0)])]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            del path[-1:]
            continue
        path.append(v)
        if v[1] in lam:
            yield _from_vertices(grid, tuple(path))
        stack.append(iter(reachable(spec, rule, v) if v[1] < spec.n2 else ()))
