"""Hedge extraction and profit-and-loss simulation along admissible trajectories."""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

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


def sample_trajectories(rule: TransitionRule, grid: Grid, seeds: Iterable[int]) -> list[Trajectory]:
    """One random admissible path per seed, drawn from ``random.Random(seed)``:
    uniform successor choice, stop with probability 1/2 on each intermediate
    liquidation column, always stop on the last one.  All paths advance one
    column at a time, so each distinct vertex asks for its successors once."""
    spec = grid.spec
    lam = set(spec.lam)
    # waiting[j]: (path, its generator) for each path now at column j.
    waiting = [[([(0, 0)], random.Random(seed)) for seed in seeds]] + [[] for _ in range(spec.n2)]
    paths = [path for path, _ in waiting[0]]
    for j in range(spec.n2):
        succs: dict[int, list[Vertex]] = {}  # dropped with the column
        for path, rng in waiting[j]:
            if j in lam and rng.random() < 0.5:
                continue
            k = path[-1][0]
            if k not in succs:
                succs[k] = reachable(spec, rule, (k, j))
            succ = succs[k]
            if not succ and j not in lam:
                raise ValueError(f"dead end at {(k, j)}: model was not validated")
            if succ:
                path.append(succ[rng.randrange(len(succ))])
                waiting[path[-1][1]].append((path, rng))
        waiting[j] = []
    return [_from_vertices(grid, tuple(path)) for path in paths]


def sample_trajectory(rule: TransitionRule, grid: Grid, seed: int) -> Trajectory:
    """The path of :func:`sample_trajectories` for one seed."""
    return sample_trajectories(rule, grid, (seed,))[0]


def _slopes(bounds: BoundsGrid, trajs: Sequence[Trajectory], side: str) -> np.ndarray:
    """Hedge slopes at the non-terminal vertices of ``trajs``, joined in path
    order; raises for the first vertex in that order that is off the grid or
    was never priced (NaN)."""
    if side not in (SHORT, LONG):
        raise ValueError("side must be SHORT or LONG")
    spec = bounds.grid.spec
    k, j = np.array([v for t in trajs for v in t.vertices[:-1]], dtype=np.int64).reshape(-1, 2).T
    jc = j.clip(0, spec.n2)
    inside = (j == jc) & (np.abs(k) <= bounds.grid.half_widths[jc])
    table = bounds.slope_up if side == SHORT else bounds.slope_dn
    slopes = np.where(inside, table[jc, (k + spec.n1).clip(0, 2 * spec.n1)], np.nan)
    bad = np.flatnonzero(np.isnan(slopes))
    if bad.size:
        v = (int(k[bad[0]]), int(j[bad[0]]))
        raise ValueError(f"no hedge recorded at vertex {v}" if inside[bad[0]]
                         else f"vertex {v} is not in the grid")
    return slopes


def extract_hedge(bounds: BoundsGrid, traj: Trajectory, side: str = SHORT) -> tuple[float, ...]:
    """Hedge ratio held at each non-terminal vertex of the trajectory.

    Ratios depend on the current vertex only, so the strategy is
    non-anticipative by construction.
    """
    return tuple(_slopes(bounds, (traj,), side).tolist())


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


def ledger_finals(bounds: BoundsGrid, trajs: Sequence[Trajectory], side: str,
                  x0s: Sequence[float]) -> np.ndarray:
    """``simulate_pnl(bounds, traj, side, x0).final`` for each ``x0`` (rows) and
    trajectory (columns), bitwise: the slopes are gathered once, and
    ``np.add.accumulate`` adds ``[x0, (sign * slope) * dS, ...]`` left to right."""
    slopes = _slopes(bounds, trajs, side)
    incs = ((1.0 if side == SHORT else -1.0) * slopes) * np.array(
        [b - a for t in trajs for a, b in zip(t.prices, t.prices[1:])])
    steps = np.array([len(t) - 1 for t in trajs], dtype=np.int64)
    # Row = path; x0 in column 0, step i in column i + 1, zeros past the end.
    acc = np.zeros((len(trajs), int(steps.max(initial=0)) + 1))
    acc[:, 1:][np.arange(acc.shape[1] - 1) < steps[:, None]] = incs
    out = np.empty((len(x0s), len(trajs)))
    for x0, row in zip(x0s, out):
        acc[:, 0] = x0
        row[:] = np.add.accumulate(acc, axis=1)[np.arange(len(trajs)), steps]
    return out


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
