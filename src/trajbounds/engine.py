"""Backward-induction pricing engine with the convex-hull local optimizer.

The upper bound at a non-terminal vertex is the highest intersection with the
vertical line ``x = s_k`` over all chords joining one successor with price
above ``s_k`` to one with price at or below it.  The recorded hedge slope is
the support slope of that value nearest zero, so it superhedges every
successor by construction.  Upper and lower bounds come from one batched
column sweep over the stacked terminal rows ``[Z, -Z]``: ``price`` holds only
the next ``max_dj`` rows, while ``compute_bounds`` keeps the full surfaces
for hedging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .grid import (
    Grid,
    BoundsGrid,
    PROV_CONTINUATION,
    PROV_Q_MAX,
    PROV_TERMINAL_PAYOFF,
    build_grid,
)
from .model import (
    BinomialBandRule,
    GridSpec,
    ModifiedRule,
    NotZeroNeutralError,
    TransitionRule,
    _clipped_bands,
    reachable,
    reachable_masks,
    shift_row,
    validate_model,
)

_BIG = 1e300
_INVALID = -1e250  # anything below this is a leaked sentinel, not a value


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


# --------------------------------------------------------------------------- #
# Column sweeps
# --------------------------------------------------------------------------- #

def _terminal_row(grid: Grid, payoff) -> np.ndarray:
    """Payoff at every price level of the terminal column, NaN off its cone."""
    spec = grid.spec
    row = np.full(spec.width, np.nan)
    w = spec.column_half_width(spec.n2)
    for k in range(-w, w + 1):
        z = payoff.value_at(grid.price(k))
        # Inner liquidation rows read a subset of these price levels, and sweep
        # values are convex combinations of them, so no value reaches the sentinels.
        if not math.isfinite(z) or abs(z) >= -_INVALID:
            raise ValueError(f"payoff is {z!r} at price level k={k} (s_k={grid.price(k)!r})")
        row[k + spec.n1] = z
    return row


def _sweep_banded(grid: Grid, rule: TransitionRule, Z: np.ndarray):
    """Vectorized descending-j sweep of the stacked terminal rows ``Z`` (lanes, W).

    Yields ``(j, V, ys, C, stop)`` for each column j = n2-1 .. 0: its values
    ``V`` (the sentinel off the column's cone), the window maxima ``ys`` per
    dk, the continuation ``C`` (at most ``_INVALID`` where none exists) and,
    on a liquidation column, the ``stop`` mask (else None).  Only the next
    ``D = min(max_dj, n2)`` rows are kept, ordered by distance: ``buf[pos+d-1]``
    is row j+d.  ``buf`` holds 2D rows, so each window stays one slice read
    in ascending d, and the D-1 rows still needed move up once every D
    columns.  A vertex is left NaN where it has no finite local optimum: it
    is not 0-neutral, it has no move and sits off every liquidation column,
    or one of its successors is NaN.
    """
    spec = grid.spec
    n1, n2 = spec.n1, spec.n2
    lam = set(spec.lam)

    # Off-grid entries hold the sentinel so window maxima ignore them, while
    # NaN (uncomputed, in grid) propagates through later window maxima.  The
    # terminal column spans the full width (n1 <= p * n2).
    D = min(rule.max_dj, n2)
    buf = np.full((2 * D, *Z.shape), -_BIG)
    pos = D
    buf[pos] = Z

    pmax = max(spec.p, rule.p)
    em1 = {dk: math.expm1(dk * spec.delta) for dk in range(-pmax, pmax + 1)}

    for j in range(n2 - 1, -1, -1):
        # Window maxima per dk, same-dk bands merged by max; a masked-off band
        # reads as the sentinel, like a move that leaves the grid.
        win: dict[tuple[int, int], np.ndarray] = {}
        ys: dict[int, np.ndarray] = {}
        on: dict[int, bool | np.ndarray] = {}  # where some band of dk applies; True: everywhere
        for dk, blo, bhi, mask in _clipped_bands(spec, rule, j):
            if (blo, bhi) not in win:
                if blo < 1 or bhi > D:  # the buffer holds rows j+1 .. j+D only
                    raise ValueError(f"band {(dk, blo, bhi)} leaves 1 <= dj <= max_dj={rule.max_dj}")
                win[blo, bhi] = buf[pos + blo - 1: pos + bhi].max(axis=0)
            y = shift_row(win[blo, bhi], dk, -_BIG)
            if mask is None:
                mask = True
            else:
                y[..., ~mask] = -_BIG
            if dk in ys:
                ys[dk], on[dk] = np.maximum(ys[dk], y), on[dk] | mask
            else:
                ys[dk], on[dk] = y, mask
        C = np.full(Z.shape, -_BIG)
        for a in (d for d in ys if d >= 0):
            ea = em1[a]
            for b in (d for d in ys if d <= 0 and d < a):
                eb = em1[b]
                den = ea - eb
                ca = -eb / den
                cb = ea / den
                v = ca * ys[a] + cb * ys[b]
                # A flat move's pair carries a zero weight, whose product with
                # the sentinel is a signed zero: count it only where both apply.
                both = on[a] & on[b] if 0 in (a, b) else True
                np.maximum(C, v if both is True else np.where(both, v, -_BIG), out=C)
        if 0 in ys:
            # Flat moves only: the degenerate hull takes the best flat value.
            C = np.where(C <= _INVALID, ys[0], C)

        ok = C > _INVALID
        V = np.where(ok, C, np.nan)
        stop = None
        if j in lam:
            # Forced liquidation where no move is left (a NaN target is a
            # move); elsewhere stop where the payoff beats continuation.
            stuck = ~ok
            for y in ys.values():
                stuck &= y <= _INVALID
            stop = stuck | (Z > V)  # NaN-safe: comparisons with NaN are False
            V = np.where(stop, Z, V)
        wj = spec.column_half_width(j)
        V[..., : n1 - wj] = -_BIG
        V[..., n1 + wj + 1:] = -_BIG

        yield j, V, ys, C, stop
        if pos == 0:
            buf[D + 1:] = buf[: D - 1]
            pos = D + 1
        pos -= 1
        buf[pos] = V


def _terminal_surfaces(grid: Grid, Z: np.ndarray):
    """Stacked (lanes, n2+1, W) value, slope and provenance surfaces, filled
    on the terminal column only; NaN and provenance 0 elsewhere."""
    shape = (Z.shape[0], grid.spec.n2 + 1, grid.spec.width)
    U, S, P = np.full(shape, np.nan), np.full(shape, np.nan), np.zeros(shape, dtype=np.int8)
    U[:, -1], S[:, -1], P[:, -1] = Z, 0.0, PROV_TERMINAL_PAYOFF
    return U, S, P


def _banded_surfaces(grid: Grid, rule: TransitionRule, Z: np.ndarray):
    """Full (lanes, n2+1, W) value, slope and provenance surfaces of :func:`_sweep_banded`.

    The slope at a priced vertex is the support slope nearest zero of its
    continuation over every dk's window maximum; a forced stop has slope 0.
    """
    spec = grid.spec
    n1 = spec.n1
    U, S, P = _terminal_surfaces(grid, Z)
    prices = grid.prices
    for j, V, ys, C, stop in _sweep_banded(grid, rule, Z):
        lo = np.full(Z.shape, -np.inf)
        hi = np.full(Z.shape, np.inf)
        for a in (d for d in ys if d > 0):
            np.maximum(lo, (ys[a] - C) / (prices * math.expm1(a * spec.delta)), out=lo)
        for b in (d for d in ys if d < 0):
            np.minimum(hi, (ys[b] - C) / (prices * math.expm1(b * spec.delta)), out=hi)
        ok = C > _INVALID
        Sj = np.where(ok, np.minimum(np.maximum(0.0, lo), hi), np.nan)
        Pj = np.where(ok, np.int8(PROV_CONTINUATION), np.int8(0))
        if stop is not None:
            Sj[stop & ~ok] = 0.0  # forced stop: no move is left
            Pj = np.where(stop, np.int8(PROV_Q_MAX), Pj)
        wj = spec.column_half_width(j)
        col = slice(n1 - wj, n1 + wj + 1)
        U[:, j, col] = V[:, col]
        S[:, j, col] = Sj[:, col]
        P[:, j, col] = Pj[:, col]
    return U, S, P


def _sweep_generic(grid: Grid, rule: TransitionRule, Z: np.ndarray):
    """Reference per-vertex sweep with identical semantics to the banded one.

    Takes the same stacked terminal rows and returns the same stacked
    surfaces as :func:`_banded_surfaces`, one lane at a time.
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


def compute_bounds(grid: Grid, rule: TransitionRule, payoff, *, method: str = "banded") -> BoundsGrid:
    """Fill upper/lower bounds and hedge slopes over the whole grid.

    ``method='banded'`` runs the vectorized sweep (rules must expose column
    bands); ``'generic'`` runs the per-vertex reference sweep.  The payoff
    is read once, as the terminal row ``Z``; one pass over the stacked rows
    ``[Z, -Z]`` gives the upper bound and the negated lower bound by the same
    code path.  Since the upper sweep takes max(payoff, continuation) on
    intermediate liquidation columns, the lower bound takes min(payoff,
    continuation) there.  Unlike :func:`price`, it keeps the full value,
    slope and provenance surfaces, which hedging reads.

    Both sweeps price every vertex they can, reachable from (0, 0) or not,
    and leave the rest NaN.  An unpriced reachable vertex leaves the root
    unpriced too; only then does one reachability pass name the vertex in
    the :class:`NotZeroNeutralError`: the reachable unpriced one of highest
    ``j``, then lowest ``k``.
    """
    sweep = _banded_surfaces if method == "banded" else _sweep_generic
    Z = _terminal_row(grid, payoff)
    U, slope, prov = sweep(grid, rule, np.stack([Z, -Z]))
    n1 = grid.spec.n1
    if math.isnan(U[0, 0, n1]):
        bad = reachable_masks(grid.spec, rule) & np.isnan(U[0])
        j = int(np.flatnonzero(bad.any(axis=1))[-1])
        raise NotZeroNeutralError((int(np.flatnonzero(bad[j])[0]) - n1, j))
    np.negative(U[1], out=U[1])
    return BoundsGrid(grid, payoff, U[0], U[1], slope[0], slope[1], prov[0])


def price(spec: GridSpec, rule: TransitionRule, payoff) -> tuple[float, float]:
    """(lower, upper) worst-case price interval at the root vertex (0, 0).

    One banded pass over ``[Z, -Z]`` that holds only the next ``max_dj``
    rows (in a buffer of twice that) and keeps the root; it builds no
    surface and no slope.  The sweep decides validity: an unpriced root
    reruns :func:`compute_bounds` to name the vertex, then the
    :func:`validate_model` audit raises its ``ModelValidationError``.
    """
    grid = build_grid(spec)
    Z = _terminal_row(grid, payoff)
    for _, V, *_ in _sweep_banded(grid, rule, np.stack([Z, -Z])):
        pass
    hi, lo = V[:, spec.n1].tolist()
    if math.isnan(hi):
        try:
            compute_bounds(grid, rule, payoff)
        except NotZeroNeutralError:
            validate_model(spec, rule).raise_if_failed()
            raise
    return -lo, hi


def inject_arbitrage(rule: TransitionRule, fraction: float, seed: int) -> ModifiedRule:
    """Rule with a seeded fraction of reachable vertices turned one-sided + flat."""
    return ModifiedRule(base=rule, fraction=fraction, seed=seed)


# --------------------------------------------------------------------------- #
# Two-sided multiplicative band on its own recombining lattice
# --------------------------------------------------------------------------- #

def band_bounds(rule: BinomialBandRule, steps: int, s0: float, payoff) -> tuple[float, float]:
    """(lower, upper) for the multiplicative-band model over ``steps`` periods.

    Nodes are (period, level-sum); prices recombine as s0 * d**i * rho**m with
    rho the level ratio.  Each node is optimized with the same hull step as the
    grid engine.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    prices = _band_prices(rule, steps, s0)
    values = np.array([payoff.value_at(x) for x in prices[steps]])
    return -_band_sweep(rule, prices, -values), _band_sweep(rule, prices, values)


def _band_prices(rule: BinomialBandRule, steps: int, s0: float) -> list[np.ndarray]:
    L = rule.levels
    rho = (rule.u / rule.d) ** (1.0 / (L - 1))
    out = []
    for i in range(steps + 1):
        m = np.arange(i * (L - 1) + 1)
        out.append(s0 * rule.d ** i * rho ** m)
    return out


def _band_sweep(rule: BinomialBandRule, prices: list[np.ndarray], values: np.ndarray) -> float:
    """Root value of the band lattice from the terminal ``values``."""
    L = rule.levels
    for i in range(len(prices) - 2, -1, -1):
        nxt = values
        cur = np.empty(i * (L - 1) + 1)
        for m in range(cur.shape[0]):
            s = float(prices[i][m])
            pts = [HullPoint(float(prices[i + 1][m + t]), float(nxt[m + t])) for t in range(L)]
            sol = hull_fast([p for p in pts if p.x > s], [p for p in pts if p.x <= s], s)
            cur[m] = sol.value
        values = cur
    return float(values[0])
