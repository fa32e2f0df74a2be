"""Backward-induction pricing engine: one local step, one column sweep.

The upper bound at a non-terminal vertex is the highest intersection with the
vertical line ``x = s_k`` over all chords joining one successor with price
above ``s_k`` to one at or below it.  Each move scales the price by a factor
that does not depend on the vertex, so one vectorized pair-combine takes that
step for whole grid columns and band-lattice periods, all (up, down) pairs in
one broadcast, or one chord for one pair (the per-vertex hull step that checks
it is in the tests' ``reference`` module).  The hedge slope is the support slope of that value
nearest zero, so it superhedges every successor.  Upper and lower bounds come
from one batched sweep over each column's live cone of the stacked rows
``[Z, -Z]``, which builds what a vertex class's bands read (windows, nested where they
share their last row, and pair weights) once per sweep as the class's plan, and holds
O((``max_dj`` + ups·downs) · width · lanes) floats per column:
``compute_bounds`` keeps full surfaces, ``price_horizons`` only the roots of many
``(s0, payoff[, lam])`` points, as lanes that each stop on their own
liquidation columns, read at the root of each horizon's sub-model (``price_all``:
the one horizon n2), and ``hedge.path_hedges`` path slopes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .grid import (
    Grid,
    BoundsGrid,
    PROV_CONTINUATION,
    PROV_Q_MAX,
    Payoff,
    _terminal_surfaces,
    build_grid,
)
from .model import (
    BinomialBandRule,
    GridSpec,
    ModifiedRule,
    NotZeroNeutralError,
    TransitionRule,
    column_moves,
    reachable,  # noqa: F401  perfbench's tracer counts calls of engine.reachable
    validate_model,
)

_BIG = 1e300
_INVALID = -1e250  # anything below this is a leaked sentinel, not a value


# --------------------------------------------------------------------------- #
# Column sweeps
# --------------------------------------------------------------------------- #

def _terminal_rows(payoff, prices: list, k0: int) -> np.ndarray:
    """Stacked ``[Z, -Z]`` of the payoff at the terminal ``prices`` (levels k0, k0 + 1, ...),
    by :meth:`Payoff.values_at` where it applies, else one ``value_at`` per level.
    Sweep values are convex combinations of these, so rejecting non-finite and
    sentinel-sized ones (the first, by level) keeps every value off the sentinels."""
    array = isinstance(payoff, Payoff) and payoff.kind != "CUSTOM_TABLE"
    row = payoff.values_at(np.array(prices)) if array else np.empty(len(prices))
    for i in np.flatnonzero(~(np.abs(row) < -_INVALID))[:1].tolist() if array else range(len(prices)):
        z = row[i].item() if array else payoff.value_at(prices[i])
        if not math.isfinite(z) or abs(z) >= -_INVALID:
            raise ValueError(f"payoff is {z!r} at price level k={k0 + i} (s_k={prices[i]!r})")
        row[i] = z
    return np.stack([row, -row])


def _pair_weights(dks, em1: dict) -> tuple:
    """Up-moves a and down-moves b of ``dks``, in order, the pairs' ``(ups, downs, 1, 1)``
    weights on a and on b, and the indices ``(i, r)`` of ``ups[i]``, ``downs[r]`` with b >= a."""
    downs = [d for d in dks if em1[d] <= 0]
    ups = [a for a in dks if em1[a] >= 0 and downs]
    ea, eb = np.array([em1[a] for a in ups]).reshape(-1, 1), np.array([em1[b] for b in downs])
    with np.errstate(invalid="ignore"):  # one IEEE division per weight; 0 / 0 only where a = b = 0: no pair
        w = np.where(none := np.subtract.outer(ups, downs) <= 0, 0.0, [-eb / (ea - eb), ea / (ea - eb)])
    return ups, downs, w[0, ..., None, None], w[1, ..., None, None], list(zip(*np.nonzero(none)))


def _pair_combine(ys: dict, em1: dict, pairs: tuple | None = None) -> np.ndarray:
    """The best chord value over all pairs of moves, floored at the sentinel.

    ``ys`` and ``em1`` map each move, which applies everywhere, to its successor values and
    its relative price change; ``pairs`` is their :func:`_pair_weights`, with at least one
    up-move.  One up-move and one down-move give one chord, taken directly.  Otherwise all
    pairs meet in one ``(ups, downs, lanes, width)`` broadcast and one max over its pairs
    flattened in (up, down) order (``np.maximum`` keeps a zero's sign by position); b >= a
    is no pair, so its row is the sentinel."""
    ups, downs, wa, wb, none = pairs or _pair_weights(tuple(ys), em1)
    if wa.size == 1 and not none:  # the same arithmetic with no stack and no one-row reduce
        v = wb.item() * ys[downs[0]]
        v += wa.item() * ys[ups[0]]
        return np.maximum(v, -_BIG, out=v)
    v = wb * np.array([ys[b] for b in downs])
    v += wa * np.array([ys[a] for a in ups])[:, None]
    for i, r in none:
        v[i, r] = -_BIG
    m = np.maximum.reduce(v.reshape(-1, *v.shape[2:]))
    return np.maximum(m, -_BIG, out=m)


def _sweep_plan(bands: tuple, em1: dict, weights: dict) -> tuple:
    """``(dk, window)`` per band of one vertex class's cut ``bands``, and their :func:`_pair_weights`."""
    dks = tuple(dict.fromkeys(dk for dk, _, _ in bands))
    pairs = weights.get(dks) or weights.setdefault(dks, _pair_weights(dks, em1))
    return [(dk, (lo, hi)) for dk, lo, hi in bands], pairs


def _column_plan(classes: list, D: int, max_dj: int, em1: dict, plans: dict, weights: dict) -> tuple:
    """The cut vertex ``classes`` of a column, each ``(mask or None, *plan)`` with the
    :func:`_sweep_plan` of its bands, and all classes' distinct windows by ``hi``, shortest first."""
    for dk, lo, hi in (band for _, bands in classes for band in bands):
        if lo < 1 or hi > D:  # the buffer holds rows j+1 .. j+D only
            raise ValueError(f"band {(dk, lo, hi)} leaves 1 <= dj <= max_dj={max_dj}")
    col = [(mask, *(plans.get(bands) or plans.setdefault(bands, _sweep_plan(bands, em1, weights))))
           for mask, bands in classes]
    return col, sorted({w for _, kept, _ in col for _, w in kept}, key=lambda w: (w[1], -w[0]))


def _by_class(classes: list, rows: list, fill, shape: tuple) -> np.ndarray:
    """The per-class ``rows`` of a swept column, each on its class's span, merged by the
    disjoint masks; ``fill`` at a vertex in no class (its class's bands were all cut away)."""
    if classes and classes[0][0] is None:
        return rows[0]
    out = np.full(shape, fill)
    for (mask, at, _), row in zip(classes, rows):
        np.copyto(out[:, at], row, where=mask)
    return out


def _window_maxima(rows: np.ndarray, wins: list) -> dict:
    """``rows[lo-1:hi].max(axis=0)`` per window ``(lo, hi)``, nested: the max of its new rows
    (one row: a view) and the next shorter window with the same ``hi``, rows still in order."""
    win, inner = {}, None
    for lo, hi in wins:
        stop = inner[0] - 1 if inner and inner[1] == hi else hi
        new = rows[lo - 1] if stop == lo else np.maximum.reduce(rows[lo - 1: stop])
        win[lo, hi] = new if stop == hi else np.maximum(new, win[inner], out=None if stop == lo else new)
        inner = lo, hi
    return win


def _sweep_banded(grid: Grid, rule: TransitionRule, Z: np.ndarray, reach: bool, stops: dict | None = None):
    """Vectorized descending-j sweep of the stacked terminal rows ``Z`` (lanes, W).

    Column j has vertices only on its live cone, rows ``n1-live[j] .. n1+live[j]``: with
    ``reach``, the :func:`_live_cone` the root reaches, else the whole grid column.  Yields
    ``(j, cone, V, classes, C, stop)`` for j = n2-1 .. 0 on the row slice ``cone``: the live
    cone widened to a multiple of 16 rows, as numpy keeps freed blocks under 1 KiB per size.
    ``V`` are values; ``classes`` the column's vertex classes with a swept vertex, each
    ``(mask, span, ys)``: window maxima ``ys`` per dk on ``span``, the slice of the cone from
    the class's first to last vertex, which ``mask`` marks (None: all of the cone); ``C`` the
    continuation (at least the sentinel, exactly it where no pair of moves exists, at most
    ``_INVALID`` where none is finite, NaN off the live cone); ``stop`` a liquidation column's
    stop mask (else None).  ``stops`` maps each liquidation column to the lanes that may stop
    there, a (lanes, 1) mask or True for all (by default every lane stops on ``spec.lam``).
    Only the next ``D = min(max_dj, n2)`` rows are kept, by distance: ``buf[pos+d-1]`` is row
    j+d.  ``buf`` holds 2D rows, so each window stays one slice read in ascending d, and the
    D-1 rows still needed move up once every D columns; a row is reset only where the column
    it last held was live beyond the one written.  :func:`_column_plan` plans each vertex class
    of a cut list of :func:`column_moves` once, and their windows :func:`_window_maxima` reads
    nested once per column (once per row position and swept width where each window is one
    buffer row and no dk merges: the reads are then views of ``buf``); each class takes one
    :func:`_pair_combine` of its own moves on its span, merged by :func:`_by_class`:
    O((``max_dj`` + ups·downs) · width · lanes) floats.  A vertex is left NaN where it has no
    finite local optimum: it is not 0-neutral, it has no move and sits off every liquidation
    column, or one of its successors is NaN.
    """
    spec = grid.spec
    n1, n2 = spec.n1, spec.n2
    stops = dict.fromkeys(spec.lam, True) if stops is None else stops
    pmax, D = rule.p, min(rule.max_dj, n2)
    em1 = {dk: math.expm1(dk * spec.delta) for dk in range(-pmax, pmax + 1)}
    moves, columns, plans, weights, reads = column_moves(spec, rule), {}, {}, {}, {}
    live = _live_cone(moves, grid.half_widths.tolist()) if reach else grid.half_widths.tolist()

    # Off-cone entries hold the sentinel, so window maxima ignore them, as do
    # the pmax padding columns that make each dk shift a slice.  NaN (unpriced,
    # in the cone) propagates.  Buffer column c + pmax holds row index n1.
    c = max(live)
    buf = np.full((2 * D, len(Z), 2 * (c + pmax) + 1), -_BIG)
    pos = D
    buf[pos, :, pmax: pmax + 2 * c + 1] = Z[:, n1 - c: n1 + c + 1]

    for j, cut in zip(range(n2 - 1, -1, -1), moves[::-1]):
        w, s = live[j], min(c, -(-live[j] // 16) * 16)  # live and swept half-widths
        cone = slice(n1 - s, n1 + s + 1)
        if id(cut) not in columns:
            # Its reads are views of buffer rows if every window is one row and no dk merges.
            col, wins = _column_plan(cut, D, rule.max_dj, em1, plans, weights)
            columns[id(cut)] = col, wins, all(lo == hi for lo, hi in wins) and all(
                len(kept) == len({dk for dk, _ in kept}) for _, kept, _ in col)
        col, wins, views = plan = columns[id(cut)]
        got = reads.get((id(plan), pos, s))
        if got is None:
            win = _window_maxima(buf[pos:, :, c - s: c + s + 2 * pmax + 1], wins)
            got = [], []  # the classes with a swept vertex, and their pairs
            for mask, kept, pairs in col:
                on = (0, 2 * s) if mask is None else np.flatnonzero(mask := mask[cone])
                if not len(on):
                    continue  # no swept vertex in this class
                a, b = int(on[0]), int(on[-1]) + 1  # the class's span of the cone
                ys: dict[int, np.ndarray] = {}  # window maxima per dk, same-dk bands merged by max
                for dk, wk in kept:
                    y = win[wk][:, pmax + dk + a: pmax + dk + b]
                    ys[dk] = np.maximum(ys[dk], y) if dk in ys else y
                got[0].append((mask if mask is None else mask[a:b], slice(a, b), ys))
                got[1].append(pairs)
            if views:  # the same views for the same row position and swept width
                reads[id(plan), pos, s] = got
        classes, Cs, shape = got[0], [], (len(Z), 2 * s + 1)
        for (_, at, ys), pairs in zip(*got):
            C = _pair_combine(ys, em1, pairs) if pairs[0] else np.full((len(Z), at.stop - at.start), -_BIG)
            if 0 in ys:
                # Flat moves only: the degenerate hull takes the best flat value.
                C = np.where(C <= _INVALID, ys[0], C)
            Cs.append(C)
        C = _by_class(classes, Cs, -_BIG, shape)
        if s > w:
            C[:, : s - w] = C[:, s + w + 1:] = np.nan  # not vertices: never stuck, never stopped

        V = C.copy()
        np.copyto(V, np.nan, where=C <= _INVALID)  # C's NaN is np.nan's
        stop = lanes = stops.get(j)
        if lanes is not None:
            # Forced liquidation where no move of the vertex's class is left (a NaN
            # target is a move); elsewhere stop where the payoff beats continuation.
            stuck = C <= _INVALID
            stuck &= _by_class(classes, [np.logical_and.reduce([y <= _INVALID for y in ys.values()])
                                         for _, _, ys in classes], True, shape)
            stop = stuck | (Z[:, cone] > V)  # NaN-safe: comparisons with NaN are False
            if lanes is not True:
                stop &= lanes
            V = np.where(stop, Z[:, cone], V)

        yield j, cone, V, classes, C, stop
        if pos == 0:
            buf[D + 1:] = buf[: D - 1]
            pos = D + 1
        pos -= 1
        # Row pos last held column j + D + 1, live on |k| <= wo: reset its part outside this
        # column's live slice (live widths never shrink as j grows).
        lo, hi, wo = c - w + pmax, c + w + pmax + 1, live[min(j + D + 1, n2)]
        if wo > w:
            buf[pos, :, lo - wo + w: lo] = buf[pos, :, hi: hi + wo - w] = -_BIG
        buf[pos, :, lo: hi] = V[:, s - w: s + w + 1]


def _support_slopes(C: np.ndarray, classes: list, prices: np.ndarray, delta: float, stop) -> np.ndarray:
    """Hedge slope at each vertex of a column swept by :func:`_sweep_banded`: the support
    slope nearest zero of its continuation ``C`` over every dk's window maximum ``ys`` of
    its class, NaN where it has no continuation, 0 at a forced ``stop``, elementwise."""
    rows = []
    for _, at, ys in classes:
        c, x = C[:, at], prices[at]
        lo, hi = np.full(c.shape, -np.inf), np.full(c.shape, np.inf)
        for a in (d for d in ys if d > 0):
            np.maximum(lo, (ys[a] - c) / (x * math.expm1(a * delta)), out=lo)
        for b in (d for d in ys if d < 0):
            np.minimum(hi, (ys[b] - c) / (x * math.expm1(b * delta)), out=hi)
        rows.append(np.minimum(np.maximum(0.0, lo), hi))
    ok = C > _INVALID
    S = np.where(ok, _by_class(classes, rows, np.nan, C.shape), np.nan)
    if stop is not None:
        S[stop & ~ok] = 0.0  # forced stop: no move is left
    return S


def _priced(spec: GridSpec, rule: TransitionRule, roots: list) -> list:
    """``roots`` once none is NaN.  Payoffs are finite, so an unpriced root is
    the model's: the :func:`validate_model` audit explains it."""
    if any(map(math.isnan, roots)):
        validate_model(spec, rule).raise_if_failed()
        raise NotZeroNeutralError()
    return roots


def compute_bounds(grid: Grid, rule: TransitionRule, payoff) -> BoundsGrid:
    """Fill upper/lower bounds and hedge slopes over the whole grid.

    The rule must expose column classes.  The payoff is read once, as the
    terminal row ``Z``; one banded pass over the stacked rows ``[Z, -Z]``
    gives the upper bound and the negated lower bound by the same code path.
    Since the upper sweep takes max(payoff, continuation) on intermediate
    liquidation columns, the lower bound takes min(payoff, continuation)
    there.  Unlike :func:`price`, it keeps the full value, slope and
    provenance surfaces, for the surface CSV and library callers.

    The sweep prices every vertex it can, reachable from (0, 0) or not, and
    leaves the rest NaN.  An unpriced reachable vertex leaves the root
    unpriced too; only then does the audit run, and its
    :class:`ModelValidationError` reports the vertices that are not 0-neutral.
    """
    Z = _terminal_rows(payoff, grid.prices.tolist(), -grid.spec.n1)
    U, S, P = _terminal_surfaces(grid, Z)
    for j, col, V, classes, C, stop in _sweep_banded(grid, rule, Z, reach=False):
        Pj = np.where(C > _INVALID, np.int8(PROV_CONTINUATION), np.int8(0))
        U[:, j, col] = V
        S[:, j, col] = _support_slopes(C, classes, grid.prices[col], grid.spec.delta, stop)
        P[:, j, col] = Pj if stop is None else np.where(stop, np.int8(PROV_Q_MAX), Pj)
    _priced(grid.spec, rule, U[:, 0, grid.spec.n1].tolist())
    np.negative(U[1], out=U[1])
    return BoundsGrid(grid, payoff, U[0], U[1], S[0], S[1], P[0])


def _live_cone(moves: list, half_widths: list[int]) -> list[int]:
    """Half-width of each column's cone reachable from the root, by the cut class table ``moves``:
    each move has |dk| <= a/b * dj, a/b the largest |dk|/lo of any band (the sweep rejects
    lo < 1; floats order such ratios exactly), so reachable |k| <= a*j // b."""
    lists = {id(classes): classes for classes in moves}.values()
    a, b = max({(abs(dk), max(lo, 1)) for classes in lists for _, bands in classes for dk, lo, _ in bands},
               key=lambda r: r[0] / r[1], default=(0, 1))
    return [min(w, a * j // b) for j, w in enumerate(half_widths)]


def price_horizons(spec: GridSpec, rule: TransitionRule, points, horizons) -> list[list[tuple[float, float]]]:
    """For each horizon h of ``horizons``, :func:`price_all` of ``points`` on the horizon-h
    spec: ``spec`` with ``n2 = h``, ``n1 = min(spec.n1, p * h)`` and each point's ``lam``,
    given on ``spec``'s columns, cut to its columns past ``n2 - h`` and moved down by ``n2 - h``.

    The sweep never reads ``s0``, and ``lam`` only where a lane may stop, so each point's
    terminal rows ``[Z, -Z]`` are two lanes of one banded pass over the reachable cone, each
    stopping on its own liquidation columns.  Where every column has the same bands, the
    value that pass leaves at vertex (0, n2 - h), before any stop there, is the price of the
    horizon-h model rooted there, bitwise, unless the horizon grid clips the live cone
    (``ValueError``).  An unpriced root raises the audit's error for the first unpriced
    point at the first such horizon, in the order given.
    """
    n2 = spec.n2
    if not all(1 <= h <= n2 for h in horizons):
        raise ValueError(f"horizons must lie in 1..n2={n2}, got {list(horizons)}")
    if min(horizons) < n2:
        if type(rule).column_classes is not TransitionRule.column_classes:
            raise ValueError(f"horizons below n2={n2} need a rule whose bands serve every column")
        reach = _live_cone(column_moves(spec, rule)[:1], [math.inf] * n2)  # column 0 has every band
        if clipped := [h for h in horizons if h < n2 and reach[h] > min(spec.n1, spec.p * h)]:
            raise ValueError(f"horizon {clipped[0]}'s grid clips its live cone |k| <= {reach[clipped[0]]}")
    specs = [dataclasses.replace(spec, s0=s0, lam=lam[0] if lam else spec.lam) for s0, _, *lam in points]
    grids = {s0: build_grid(s) for s0, s in {s.s0: s for s in reversed(specs)}.items()}  # of each s0's first point
    Z = np.concatenate([_terminal_rows(p[1], grids[s.s0].prices.tolist(), -spec.n1) for s, p in zip(specs, points)])
    lanes = {j: np.repeat([j in s.lam for s in specs], 2)[:, None] for j in {j for s in specs for j in s.lam}}
    stops = {j: True if on.all() else on for j, on in lanes.items()}
    roots = dict.fromkeys(n2 - h for h in horizons)
    for j, cone, _, _, C, _ in _sweep_banded(grids[specs[0].s0], rule, Z, reach=True, stops=stops):
        if j in roots:  # the root of horizon n2 - j, which has no liquidation column j
            roots[j] = [x if x > _INVALID else math.nan for x in C[:, spec.n1 - cone.start].tolist()]
    out = []
    for h, r in ((h, roots[n2 - h]) for h in horizons):
        if (i := next((i // 2 for i, x in enumerate(r) if x != x), None)) is not None:
            s = specs[i]
            _priced(dataclasses.replace(s, n1=min(s.n1, s.p * h), n2=h,
                                        lam=[c - n2 + h for c in s.lam if c > n2 - h]), rule, r)
        out.append([(-lo, hi) for hi, lo in zip(r[::2], r[1::2])])
    return out


def price_all(spec: GridSpec, rule: TransitionRule, points) -> list[tuple[float, float]]:
    """(lower, upper) worst-case price interval at the root vertex (0, 0) for each
    point ``(s0, payoff)`` or ``(s0, payoff, lam)`` of ``points``, priced on ``spec``
    with that ``s0`` and ``lam`` (by default ``spec.lam``): the one horizon ``spec.n2``
    of :func:`price_horizons`, equal to a one-point pass bitwise.
    """
    return price_horizons(spec, rule, points, [spec.n2])[0]


def price(spec: GridSpec, rule: TransitionRule, payoff) -> tuple[float, float]:
    """(lower, upper) at the root: :func:`price_all` of the one point ``(spec.s0, payoff)``."""
    return price_all(spec, rule, [(spec.s0, payoff)])[0]


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
    pairs = _pair_weights(list(em1), em1)
    if not pairs[0]:
        raise NotZeroNeutralError()
    for i in range(steps - 1, -1, -1):
        n = i * (L - 1) + 1
        C = _pair_combine({t: V[:, t: t + n] for t in em1}, em1, pairs)
        if not (C > _INVALID).all():
            raise NotZeroNeutralError()
        V = C
    hi, lo = V[:, 0].tolist()
    return -lo, hi
