"""Reference computations that check the pricing engine; the package never imports them.

* :func:`convex_hull_step` and :func:`hull_fast` — the local step at one vertex,
  by enumeration of every (plus, minus) chord and via the upper concave
  envelope: they check each other and the engine's pair-combine.
* :func:`generic_bounds` — :func:`~trajbounds.engine.compute_bounds` with a
  per-vertex sweep built on :func:`hull_fast` in place of the banded one: same
  surfaces, same audit error.
* :func:`brute_force_upper` — the upper bound from a direct local inf-sup at
  every reachable vertex (candidate slopes and a refining grid search that
  must agree), sharing no hull geometry with the engine.
* :func:`crr_binomial` — the textbook zero-rate binomial recursion, which the
  bounds of a two-move model must equal.
* :func:`count_trajectories` and :func:`enumerate_trajectories` — every
  complete trajectory of a small instance, for exhaustive hedge checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from trajbounds import engine
from trajbounds.grid import PROV_CONTINUATION, PROV_Q_MAX, BoundsGrid, Grid, _terminal_surfaces, payoff_eval
from trajbounds.hedge import Trajectory
from trajbounds.model import (
    GridSpec,
    NotZeroNeutralError,
    TransitionRule,
    Vertex,
    reachable,
)


class InstanceTooLargeError(ValueError):
    pass


class OracleInconsistencyError(RuntimeError):
    """The two internal minimizers disagreed beyond the grid resolution."""


@dataclass(frozen=True)
class OracleReport:
    engine_value: float
    oracle_value: float
    abs_diff: float
    rel_diff: float
    method: str

    @classmethod
    def compare(cls, engine_value: float, oracle_value: float, method: str) -> "OracleReport":
        ad = abs(engine_value - oracle_value)
        scale = max(abs(engine_value), abs(oracle_value), 1e-300)
        return cls(engine_value, oracle_value, ad, ad / scale, method)


# --------------------------------------------------------------------------- #
# Per-vertex hull step and reference sweep
# --------------------------------------------------------------------------- #

class HullPoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class LocalSolution:
    """Value and hedge slope of one local optimization."""

    value: float
    slope: float
    plus: Optional[HullPoint]
    minus: Optional[HullPoint]


def _as_points(points: Iterable) -> list[HullPoint]:
    return [p if isinstance(p, HullPoint) else HullPoint(float(p[0]), float(p[1])) for p in points]


def _support_slope(points: Sequence[HullPoint], s: float, value: float) -> float:
    """Slope nearest zero among lines through (s, value) that dominate every point."""
    lo = -math.inf
    hi = math.inf
    for p in points:
        dx = p.x - s
        if dx > 0.0:
            lo = max(lo, (p.y - value) / dx)
        elif dx < 0.0:
            hi = min(hi, (p.y - value) / dx)
    return min(max(0.0, lo), hi)


def _local_inputs(points_plus, points_minus, s: float):
    """Checked ``(plus, minus, flats, downs)`` in input order; raises where no optimum exists."""
    plus = _as_points(points_plus)
    minus = _as_points(points_minus)
    if any(p.x <= s for p in plus):
        raise ValueError("points_plus must satisfy x > s_k")
    if any(p.x > s for p in minus):
        raise ValueError("points_minus must satisfy x <= s_k")
    if not plus and not minus:
        raise ValueError("both successor sets are empty")
    flats = [p for p in minus if p.x == s]
    downs = [p for p in minus if p.x < s]
    if not flats and not (plus and downs):
        raise NotZeroNeutralError()
    return plus, minus, flats, downs


def _degenerate_solution(
    plus: Sequence[HullPoint], flats: Sequence[HullPoint], downs: Sequence[HullPoint], s: float
) -> LocalSolution:
    """Arbitrage / flat vertex: the bound is the best value among flat moves."""
    best_flat = max(flats, key=lambda p: p.y)
    value = best_flat.y
    pts = list(plus) + list(flats) + list(downs)
    slope = _support_slope(pts, s, value)
    wit_plus: Optional[HullPoint] = None
    if plus:
        wit_plus = min(plus, key=lambda p: abs((p.y - value) / (p.x - s)))
    return LocalSolution(value=value, slope=slope, plus=wit_plus, minus=best_flat)


def convex_hull_step(points_plus, points_minus, s_k: float) -> LocalSolution:
    """Local optimum by explicit enumeration of all (plus, minus) chords.

    ``points_plus`` must have x > s_k and ``points_minus`` x <= s_k (price-flat
    successors ride with the minus set).  One-sided inputs are admissible only
    when flats are present (arbitrage vertices); otherwise the vertex is not
    0-neutral and no finite optimum exists.
    """
    plus, minus, flats, downs = _local_inputs(points_plus, points_minus, s_k)
    if not plus:
        return _degenerate_solution(plus, flats, downs, s_k)

    best = -math.inf
    best_u = math.inf
    best_pair: tuple[HullPoint, HullPoint] | None = None
    for a in plus:
        for b in minus:
            u = (a.y - b.y) / (a.x - b.x)
            val = a.y - u * (a.x - s_k)
            if val > best or (val == best and abs(u) < abs(best_u)):
                best, best_u, best_pair = val, u, (a, b)
    assert best_pair is not None
    slope = _support_slope(plus + minus, s_k, best)
    return LocalSolution(value=best, slope=slope, plus=best_pair[0], minus=best_pair[1])


def _upper_hull(pts: list[HullPoint]) -> list[HullPoint]:
    """Upper concave envelope of points sorted by x; max y kept per x level."""
    pts = sorted(pts, key=lambda p: (p.x, p.y))
    dedup: list[HullPoint] = []
    for p in pts:
        if dedup and dedup[-1].x == p.x:
            dedup[-1] = p  # sorted by y: later point dominates
        else:
            dedup.append(p)
    hull: list[HullPoint] = []
    for p in dedup:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (a.x - o.x) * (p.y - o.y) - (a.y - o.y) * (p.x - o.x) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_fast(points_plus, points_minus, s_k: float) -> LocalSolution:
    """Same optimum as :func:`convex_hull_step` via the upper concave envelope.

    O(m log m): the maximizing chord is the envelope edge spanning ``s_k``.
    """
    plus, minus, flats, downs = _local_inputs(points_plus, points_minus, s_k)
    if not plus or not downs:
        # No up move or no down move: the spanning edge degenerates onto the flats.
        return _degenerate_solution(plus, flats, downs, s_k)

    hull = _upper_hull(plus + minus)
    # Spanning edge: hull[i].x <= s_k < hull[i+1].x always exists here.
    i = 0
    while i + 1 < len(hull) and hull[i + 1].x <= s_k:
        i += 1
    b, a = hull[i], hull[i + 1]
    u = (a.y - b.y) / (a.x - b.x)
    value = a.y - u * (a.x - s_k)
    slope = _support_slope(plus + minus, s_k, value)
    return LocalSolution(value=value, slope=slope, plus=a, minus=b)


def _sweep_generic(grid: Grid, rule: TransitionRule, Z: np.ndarray):
    """Reference per-vertex sweep with identical semantics to the banded one.

    Takes the same stacked terminal rows and returns the same stacked
    surfaces as the engine's banded sweep, one lane at a time.
    """
    spec = grid.spec
    n1, n2 = spec.n1, spec.n2
    lam = set(spec.lam)
    Us, slopes, provs = _terminal_surfaces(grid, Z)
    for U, slope, prov, Zl in zip(Us, slopes, provs, Z):
        for j in range(n2 - 1, -1, -1):
            in_lam = j in lam
            for k in grid.column_ks(j):
                i = k + n1
                succ = reachable(spec, rule, (k, j))
                if not succ:
                    if in_lam:  # forced liquidation: the trajectory has nowhere to go
                        U[j, i], slope[j, i], prov[j, i] = Zl[i], 0.0, PROV_Q_MAX
                    continue
                s = grid.price(k)
                pts = [HullPoint(grid.price(kk), float(U[jj, kk + n1])) for kk, jj in succ]
                if any(math.isnan(p.y) for p in pts):
                    continue
                try:
                    sol = hull_fast([p for p in pts if p.x > s], [p for p in pts if p.x <= s], s)
                except NotZeroNeutralError:
                    continue
                val, pv = sol.value, PROV_CONTINUATION
                if in_lam and Zl[i] > val:
                    val, pv = Zl[i], PROV_Q_MAX
                U[j, i], slope[j, i], prov[j, i] = val, sol.slope, pv
    return Us, slopes, provs


def generic_bounds(grid: Grid, rule: TransitionRule, payoff) -> BoundsGrid:
    """:func:`~trajbounds.engine.compute_bounds` with the per-vertex reference sweep
    in place of the banded one: same terminal rows, same surfaces, same audit error."""
    U, slope, prov = _sweep_generic(grid, rule, engine._terminal_rows(payoff, grid.prices.tolist(), -grid.spec.n1))
    engine._priced(grid.spec, rule, U[:, 0, grid.spec.n1].tolist())
    np.negative(U[1], out=U[1])
    return BoundsGrid(grid, payoff, U[0], U[1], slope[0], slope[1], prov[0])


# --------------------------------------------------------------------------- #
# Brute-force dynamic bound
# --------------------------------------------------------------------------- #

def _local_inf_sup(xs: np.ndarray, ys: np.ndarray, s: float) -> float:
    """inf over u of max_i (ys[i] - u * (xs[i] - s)), two independent ways.

    Candidates: every pairwise chord slope plus 0 and +-(max slope + 1); the
    infimum of a piecewise-linear convex function is attained at a breakpoint
    or approached in the direction where the steepest line family dies out.
    A refining grid search must agree within its resolution.
    """
    dx = xs - s
    if np.all(dx > 0) or np.all(dx < 0):
        raise NotZeroNeutralError()

    cands = [0.0]
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] != xs[j]:
                cands.append((ys[i] - ys[j]) / (xs[i] - xs[j]))
    r = max(abs(c) for c in cands) + 1.0
    cands.extend([r, -r])
    u_cand = np.array(cands)

    def g(us: np.ndarray) -> np.ndarray:
        return (ys[None, :] - np.outer(us, dx)).max(axis=1)

    val_a = float(g(u_cand).min())

    # Grid search with three refinement rounds around the running minimizer.
    lo, hi = -r, r
    val_b = math.inf
    for _ in range(3):
        us = np.linspace(lo, hi, 801)
        vals = g(us)
        imin = int(vals.argmin())
        val_b = min(val_b, float(vals[imin]))
        du = us[1] - us[0]
        lo, hi = us[imin] - du, us[imin] + du

    lipschitz = float(np.abs(dx).max())
    res = (2.0 * r / 800.0)  # coarsest grid spacing dominates the bound
    tol = lipschitz * res + 1e-9 * max(1.0, abs(val_a))
    if not (val_a <= val_b + 1e-9 * max(1.0, abs(val_a)) and val_b <= val_a + tol):
        raise OracleInconsistencyError(
            f"candidate minimum {val_a} vs grid minimum {val_b} beyond tolerance {tol}")
    return val_a


def brute_force_upper(spec: GridSpec, rule: TransitionRule, payoff,
                      max_work: int = 10_000) -> float:
    """Upper dynamic bound at (0, 0) by direct local inf-sup at every vertex.

    Enforces a work cap of ``max_work`` successor-pair units so the quadratic
    candidate enumeration stays honest.
    """
    succ: dict[Vertex, list[Vertex]] = {}
    frontier = [(0, 0)]
    seen = {(0, 0)}
    work = 0
    while frontier:
        v = frontier.pop()
        if v[1] == spec.n2:
            continue
        nxt = reachable(spec, rule, v)
        succ[v] = nxt
        work += len(nxt) * len(nxt)
        if work > max_work:
            raise InstanceTooLargeError(
                f"instance exceeds {max_work} (vertex, pair) work units")
        for w in nxt:
            if w not in seen:
                seen.add(w)
                frontier.append(w)

    lam = set(spec.lam)
    values: dict[Vertex, float] = {}
    order = sorted(seen, key=lambda v: v[1], reverse=True)
    for v in order:
        k, j = v
        if j == spec.n2:
            values[v] = payoff_eval(payoff, k, spec)
            continue
        nxt = succ[v]
        z = payoff_eval(payoff, k, spec)
        if not nxt:
            if j in lam:
                values[v] = z
                continue
            raise NotZeroNeutralError(v)
        xs = np.array([spec.price(kk) for kk, _ in nxt])
        ys = np.array([values[w] for w in nxt])
        try:
            c = _local_inf_sup(xs, ys, spec.price(k))
        except NotZeroNeutralError:
            raise NotZeroNeutralError(v) from None
        values[v] = max(z, c) if j in lam else c
    return values[(0, 0)]


# --------------------------------------------------------------------------- #
# Binomial benchmark
# --------------------------------------------------------------------------- #

def crr_binomial(u: float, d: float, n: int, s0: float, payoff) -> float:
    """Zero-rate binomial backward induction with weights (1-d)/(u-d), (u-1)/(u-d)."""
    if not (0.0 < d < 1.0 < u):
        raise ValueError("need 0 < d < 1 < u")
    if n < 1:
        raise ValueError("n must be >= 1")
    wu = (1.0 - d) / (u - d)
    wd = (u - 1.0) / (u - d)
    values = np.array([payoff.value_at(s0 * u ** a * d ** (n - a)) for a in range(n + 1)])
    for _ in range(n):
        values = wu * values[1:] + wd * values[:-1]
    return float(values[0])


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
            yield Trajectory(tuple(path), tuple(grid.price(k) for k, _ in path))
        stack.append(iter(reachable(spec, rule, v) if v[1] < spec.n2 else ()))
