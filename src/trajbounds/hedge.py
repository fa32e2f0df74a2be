"""Hedge extraction and profit-and-loss simulation along admissible trajectories."""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import engine
from .grid import BoundsGrid, Grid, payoff_eval
from .model import TransitionRule, Vertex, column_moves

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


def sample_trajectories(rule: TransitionRule, grid: Grid, seeds: Iterable[int]) -> list[Trajectory]:
    """One random admissible path per seed, drawn from ``random.Random(seed)``:
    uniform successor choice, stop with probability 1/2 on each intermediate
    liquidation column, always stop on the last one.  All paths advance one
    column at a time, and each column's paths draw from one table of that column's
    moves: the successors of :func:`reachable`, in its order, duplicates included."""
    spec = grid.spec
    lam = set(spec.lam)
    lists = column_moves(spec, rule)
    tables = {}  # one move table per cut list, as the sweep shares its plans
    # waiting[j]: (path, its generator) for each path now at column j.
    waiting = [[([(0, 0)], random.Random(seed)) for seed in seeds]] + [[] for _ in range(spec.n2)]
    paths = [path for path, _ in waiting[0]]
    for j in range(spec.n2):
        walkers = [(path, rng) for path, rng in waiting[j] if j not in lam or rng.random() >= 0.5]
        waiting[j] = []
        if not walkers:
            continue
        key = id(lists[j])
        if key not in tables:
            # The moves in reachable's order, by dj and then by band (dk, lo, hi), and
            # where each move's class applies (None: everywhere).
            bands = sorted([(*band, m) for m, bs in lists[j] for band in bs], key=lambda b: b[:3])
            moves = sorted((dj, b, dk) for b, (dk, lo, hi, _) in enumerate(bands) for dj in range(lo, hi + 1))
            dj, band, dk = np.array(moves, dtype=np.int64).reshape(-1, 3).T
            masks = None if all(m is None for *_, m in bands) else np.array(
                [np.ones(spec.width, bool) if m is None else m for *_, m in bands])[band]
            tables[key] = dj, dk, dj.tolist(), dk.tolist(), masks
        dj, dk, djs, dks, masks = tables[key]
        # A move is open at a walker's vertex where its class applies and it stays in the grid.
        ks = np.array([path[-1][0] for path, _ in walkers])
        is_open = np.abs(ks + dk[:, None]) <= grid.half_widths[j + dj][:, None]
        if masks is not None:
            is_open &= masks[:, ks + spec.n1]
        n = is_open.sum(axis=0).tolist()
        if 0 in n and j not in lam:
            raise ValueError(f"dead end at {(walkers[n.index(0)][0][-1][0], j)}: model was not validated")
        draws = [rng.randrange(c) if c else -1 for (_, rng), c in zip(walkers, n)]
        # Draw r takes the (r+1)-th open move: move r if all are, else the first whose running count passes r.
        picks = draws if is_open.all() else (is_open.cumsum(axis=0) <= draws).sum(axis=0).tolist()
        for walker, r, m in zip(walkers, draws, picks):
            if r >= 0:
                walker[0].append((walker[0][-1][0] + dks[m], j + djs[m]))
                waiting[j + djs[m]].append(walker)
    levels = grid.prices.tolist()
    return [Trajectory(tuple(path), tuple([levels[k + spec.n1] for k, _ in path])) for path in paths]


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


def path_hedges(rule: TransitionRule, grid: Grid, Z: np.ndarray, trajs: Sequence[Trajectory]):
    """``(lower, upper)`` at the root and the ``{SHORT, LONG}`` slopes of :func:`_slopes`
    (bitwise) for the terminal rows ``Z = [z, -z]``, from one sweep of the cone the root
    reaches, each column's slopes read at its path vertices; an unpriced root raises the audit's error."""
    k, j = np.fromiter((x for t in trajs for v in t.vertices[:-1] for x in v), np.int64).reshape(-1, 2).T
    order = np.argsort(j, kind="stable")
    first = np.searchsorted(j[order], np.arange(grid.spec.n2 + 1)).tolist()  # of each column
    S = np.empty((len(Z), len(k)))
    for jj, cone, V, classes, C, stop in engine._sweep_banded(grid, rule, Z, reach=True):
        at = order[first[jj]: first[jj + 1]]
        slopes = engine._support_slopes(C, classes, grid.prices[cone], grid.spec.delta, stop)
        S[:, at] = slopes[:, k[at] + grid.spec.n1 - cone.start]
    hi, lo = engine._priced(grid.spec, rule, V[:, 0].tolist())
    return (-lo, hi), {SHORT: S[0], LONG: S[1]}


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
    return hedged_finals(trajs, _slopes(bounds, trajs, side), side, x0s)


def hedged_finals(trajs: Sequence[Trajectory], slopes: np.ndarray, side: str,
                  x0s: Sequence[float]) -> np.ndarray:
    """:func:`ledger_finals` with the ``slopes`` at the non-terminal vertices of ``trajs``, in path order."""
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
