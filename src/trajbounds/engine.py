"""Backward-induction pricing engine: one local step, one column sweep.

The upper bound at a non-terminal vertex is the highest intersection with the
vertical line ``x = s_k`` over all chords joining one successor with price
above ``s_k`` to one at or below it.  Each move scales the price by a factor
that does not depend on the vertex, so one vectorized pair-combine takes that
step for whole grid columns and band-lattice periods (the per-vertex hull
step that checks it is in ``oracle``).  The hedge slope is the support slope
of that value nearest zero, so it superhedges every successor.  Upper and
lower bounds come from one batched column sweep over the stacked terminal
rows ``[Z, -Z]``: ``price`` holds only the next ``max_dj`` rows, while
``compute_bounds`` keeps the full surfaces for hedging.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    Grid,
    BoundsGrid,
    PROV_CONTINUATION,
    PROV_Q_MAX,
    _terminal_surfaces,
    build_grid,
)
from .model import (
    BinomialBandRule,
    GridSpec,
    ModifiedRule,
    NotZeroNeutralError,
    TransitionRule,
    _clipped_bands,
    reachable,  # noqa: F401  perfbench's tracer counts calls of engine.reachable
    reachable_masks,
    shift_row,
    validate_model,
)
from .oracle import (  # noqa: F401  the reference hull step stays importable from here
    HullPoint, LocalSolution, _sweep_generic, convex_hull_step, hull_fast)

_BIG = 1e300
_INVALID = -1e250  # anything below this is a leaked sentinel, not a value


# --------------------------------------------------------------------------- #
# Column sweeps
# --------------------------------------------------------------------------- #

def _terminal_rows(payoff, prices: list, k0: int) -> np.ndarray:
    """Stacked ``[Z, -Z]`` of the payoff at the terminal ``prices`` (levels k0, k0 + 1, ...).
    Sweep values are convex combinations of these, so rejecting non-finite and
    sentinel-sized ones keeps every value off the sentinels."""
    row = np.empty(len(prices))
    for i, s in enumerate(prices):
        z = payoff.value_at(s)
        if not math.isfinite(z) or abs(z) >= -_INVALID:
            raise ValueError(f"payoff is {z!r} at price level k={k0 + i} (s_k={s!r})")
        row[i] = z
    return np.stack([row, -row])


def _pair_combine(C: np.ndarray, ys: dict, em1: dict, on: dict) -> None:
    """Raise ``C`` in place to the best chord value over all pairs of moves.

    ``ys``, ``em1`` and ``on`` map each move to its successor values, its
    relative price change and where it applies (True: everywhere).  The pair
    order is fixed: ``np.maximum`` keeps the sign of a zero by position."""
    for a in (d for d in ys if em1[d] >= 0):
        ea = em1[a]
        for b in (d for d in ys if em1[d] <= 0 and d < a):
            eb = em1[b]
            den = ea - eb
            ca = -eb / den
            cb = ea / den
            v = ca * ys[a] + cb * ys[b]
            # A flat move's pair carries a zero weight, whose product with
            # the sentinel is a signed zero: count it only where both apply.
            both = on[a] & on[b] if 0.0 in (ea, eb) else True
            np.maximum(C, v if both is True else np.where(both, v, -_BIG), out=C)


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
        _pair_combine(C, ys, em1, on)
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


def compute_bounds(grid: Grid, rule: TransitionRule, payoff, *, method: str = "banded") -> BoundsGrid:
    """Fill upper/lower bounds and hedge slopes over the whole grid.

    ``method='banded'`` runs the vectorized sweep (rules must expose column
    bands); ``'generic'`` runs the per-vertex reference sweep of ``oracle``.
    The payoff is read once, as the terminal row ``Z``; one pass over the
    stacked rows ``[Z, -Z]`` gives the upper bound and the negated lower
    bound by the same code path.  Since the upper sweep takes max(payoff,
    continuation) on intermediate liquidation columns, the lower bound takes
    min(payoff, continuation) there.  Unlike :func:`price`, it keeps the
    full value, slope and provenance surfaces, which hedging reads.

    Both sweeps price every vertex they can, reachable from (0, 0) or not,
    and leave the rest NaN.  An unpriced reachable vertex leaves the root
    unpriced too; only then does one reachability pass name the vertex in
    the :class:`NotZeroNeutralError`: the reachable unpriced one of highest
    ``j``, then lowest ``k``.
    """
    sweep = {"banded": _banded_surfaces, "generic": _sweep_generic}.get(method)
    if sweep is None:
        raise ValueError(f"method must be 'banded' or 'generic', got {method!r}")
    U, slope, prov = sweep(grid, rule, _terminal_rows(payoff, grid.prices.tolist(), -grid.spec.n1))
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
    for _, V, *_ in _sweep_banded(grid, rule, _terminal_rows(payoff, grid.prices.tolist(), -spec.n1)):
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
    rho the level ratio, so successor t of every node scales the price by the
    same d * rho**t, and each period is one pair-combine over ``[Z, -Z]``.
    Raises :class:`NotZeroNeutralError` when rounding leaves no up-move.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(s0) and s0 > 0.0):
        raise ValueError(f"s0 must be positive and finite, got {s0!r}")
    L = rule.levels
    rho = (rule.u / rule.d) ** (1.0 / (L - 1))
    V = _terminal_rows(payoff, (s0 * rule.d ** steps * rho ** np.arange(steps * (L - 1) + 1)).tolist(), 0)
    em1 = {t: rule.d * rho ** t - 1.0 for t in range(L)}
    on = dict.fromkeys(em1, True)
    for i in range(steps - 1, -1, -1):
        n = i * (L - 1) + 1
        C = np.full((2, n), -_BIG)
        _pair_combine(C, {t: V[:, t: t + n] for t in em1}, em1, on)
        if not (C > _INVALID).all():
            raise NotZeroNeutralError()
        V = C
    hi, lo = V[:, 0].tolist()
    return -lo, hi
