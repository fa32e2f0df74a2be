"""Trajectory-grid market models: discretization specs, transition rules, node classes.

A market model lives on the integer grid of vertices ``(k, j)`` with price
``s_k = s0 * exp(k * delta)`` and accumulated variation ``w_j = j * beta**2``.
A :class:`TransitionRule` declares which moves ``(dk, dj)`` are admissible from
a vertex; every rule here expresses admissibility as a per-``dk`` window of
``dj`` values (a "band"), which is what the vectorized sweeps exploit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

Vertex = tuple[int, int]
# (dk, dj_lo, dj_hi): moves to (k + dk, j + dj) are admissible for dj_lo <= dj <= dj_hi.
Band = tuple[int, int, int]
# (mask, bands): one vertex class of a column, where its full-width boolean row is set (None: everywhere).
VertexClass = tuple[Optional[np.ndarray], tuple[Band, ...]]


class NodeClass(Enum):
    UP_DOWN = "up_down"
    FLAT = "flat"
    POSITIVE_ARBITRAGE = "positive_arbitrage"
    NEGATIVE_ARBITRAGE = "negative_arbitrage"
    NOT_ZERO_NEUTRAL = "not_zero_neutral"


class ModelValidationError(ValueError):
    """Raised when a (spec, rule) pair fails structural validation."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


class NotZeroNeutralError(ValueError):
    """All admissible moves from a vertex change price in the same direction."""

    def __init__(self, vertex: Vertex | None = None):
        at = f" at vertex {vertex}" if vertex is not None else ""
        super().__init__(f"not 0-neutral{at}: admissible price moves are one-sided")
        self.vertex = vertex


# --------------------------------------------------------------------------- #
# Grid specification
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class GridSpec:
    """Finite discretization of a trajectory set.

    Vertices are the pairs ``(k, j)`` with ``|k| <= n1``, ``0 <= j <= n2`` and
    ``|k| <= p * j``.  ``lam`` lists the variation columns (indices ``j``) at
    which portfolios may liquidate; its last element must equal ``n2``.
    ``p`` shapes the grid's cone only: the moves, and so their caps on
    ``|dk|`` and ``dj``, are the transition rule's.
    """

    s0: float
    delta: float
    beta: float
    p: int
    n1: int
    n2: int
    lam: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple([_integer("each lam entry", x) for x in self.lam]))
        if self.s0 <= 0.0:
            raise ValueError("s0 must be positive")
        if self.delta <= 0.0 or self.beta <= 0.0:
            raise ValueError("delta and beta must be positive")
        for name in ("p", "n1", "n2"):
            if (x := _integer(name, getattr(self, name))) < 1:
                raise ValueError(f"{name} must be an integer >= 1")
            object.__setattr__(self, name, x)
        if not self.lam:
            raise ValueError("lam must be non-empty")
        if any(b <= a for a, b in zip(self.lam, self.lam[1:])):
            raise ValueError("lam must be strictly increasing")
        if self.lam[0] < 1:
            raise ValueError("lam entries must be >= 1")
        if self.lam[-1] != self.n2:
            raise ValueError("last element of lam must equal n2")
        if self.n1 > self.p * self.n2:
            raise ValueError("need n1 <= p * n2, otherwise the top price rows are unreachable")
        try:
            top = self.price(self.n1)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"top price s0 * exp(n1 * delta) is not finite for "
                             f"s0={self.s0!r}, delta={self.delta!r}, n1={self.n1}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")

    @property
    def width(self) -> int:
        """Full row width 2*n1 + 1; row index of k is k + n1."""
        return 2 * self.n1 + 1

    def price(self, k: int) -> float:
        return self.s0 * math.exp(k * self.delta)

    def column_half_width(self, j: int) -> int:
        return min(self.n1, self.p * j)

    def in_grid(self, k: int, j: int) -> bool:
        return 0 <= j <= self.n2 and abs(k) <= self.column_half_width(j)


def _integer(name: str, x) -> int:
    """``x`` as an int where it is an integer (numpy's too) and not a bool, else ``ValueError``."""
    if not isinstance(x, bool):
        with contextlib.suppress(TypeError):
            return operator.index(x)
    raise ValueError(f"{name} must be an integer >= 1, got {x!r}")


def spec_for_rule(
    rule: "TransitionRule",
    s0: float,
    delta: float,
    beta: float,
    n1: int,
    n2: int,
    lam: Sequence[int] | None = None,
) -> GridSpec:
    """GridSpec whose cone ``|k| <= p * j`` has the rule's largest ``|dk|`` as ``p``."""
    lam_t = tuple(lam) if lam is not None else (n2,)
    return GridSpec(s0=s0, delta=delta, beta=beta, p=rule.p, n1=n1, n2=n2, lam=lam_t)


def spec_from_total_variance(
    rule: "TransitionRule",
    s0: float,
    v0: float,
    n2: int,
    lam: Sequence[int] | None = None,
) -> GridSpec:
    """Desk parametrization: beta = delta = sqrt(v0 / n2), n1 = n2.

    Trajectories then accumulate total variation v0 by column n2.
    """
    step = math.sqrt(v0 / n2)
    return spec_for_rule(rule, s0=s0, delta=step, beta=step, n1=n2, n2=n2, lam=lam)


# --------------------------------------------------------------------------- #
# Transition rules
# --------------------------------------------------------------------------- #

class TransitionRule:
    """Base for band-structured transition rules.

    Subclasses must provide ``p`` (max |dk|), ``max_dj`` and either
    vertex-independent :meth:`bands` or an override of :meth:`column_classes`,
    the one statement of a rule's moves: the column passes read its vertex
    classes, and :func:`reachable` reads the class of one vertex,
    :meth:`bands_at`.
    """

    kind: str = "?"

    @property
    def p(self) -> int:
        raise NotImplementedError

    @property
    def max_dj(self) -> int:
        raise NotImplementedError

    def bands(self) -> tuple[Band, ...]:
        """Bands shared by every vertex, for rules that do not vary by vertex."""
        raise NotImplementedError

    def column_classes(self, spec: GridSpec, j: int) -> list[VertexClass]:
        """The vertex classes of column j, each ``(mask, bands)``: the masks partition
        the column, and a ``None`` mask means the whole column, which is then the only class."""
        return [(None, self.bands())]

    def bands_at(self, spec: GridSpec, k: int, j: int) -> tuple[Band, ...]:
        """The bands of the class of ``column_classes(spec, j)`` that holds in-grid vertex (k, j)."""
        return next(bands for mask, bands in self.column_classes(spec, j) if mask is None or mask[k + spec.n1])


@functools.cache
def _quadratic_bands(p: int, a: int, allow_flat: bool) -> tuple[Band, ...]:
    """Bands of ``0 < |dk| <= p`` (``dk = 0`` too with flats) and
    ``max(|dk|, dk**2 / a) <= dj <= p**2 / a`` in integers: MB with
    horizon ``a``, and MA when ``a = 1``."""
    out: list[Band] = []
    hi = (p ** 2) // a
    for dk in range(-p, p + 1):
        if dk == 0 and not allow_flat:
            continue
        m = abs(dk)
        lo = max(m, -(-(m * m) // a), 1)  # ceil(m^2 / a)
        if lo <= hi:
            out.append((dk, lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class MBRule(TransitionRule):
    """Operationally constrained rule with rebalance horizon A (in time ticks).

    Admissible moves satisfy ``0 < |dk| <= p`` and
    ``max(|dk|, dk**2 / A) <= dj <= p**2 / A``; all comparisons are carried
    out in exact integer arithmetic (multiply through by A).
    """

    p_max: int
    A: int
    allow_flat: bool = False

    def __post_init__(self):
        if self.A < 1:
            raise ValueError("A must be >= 1")
        if self.p_max < 1:
            raise ValueError("p must be >= 1")
        if self.p_max == 1 and self.A != 1:
            raise ValueError("p = 1 is only admissible with A = 1")
        if self.p_max * self.p_max < self.A:
            raise ValueError("no admissible moves: need p**2 >= A")

    kind = "MB"

    @property
    def p(self) -> int:
        return self.p_max

    @property
    def max_dj(self) -> int:
        return (self.p_max ** 2) // self.A

    def bands(self) -> tuple[Band, ...]:
        return _quadratic_bands(self.p_max, self.A, self.allow_flat)


@dataclass(frozen=True)
class MARule(MBRule):
    """Jump-bounded quadratic-variation rule: dj between dk**2 and p**2.

    This is MB with A = 1.  ``allow_flat=False`` additionally forbids
    dk == 0 (prices must move every step); with p == 1 and no flats this is
    the classical binomial-with-variation-clock model.
    """

    A: int = field(default=1, init=False, repr=False)

    @property
    def kind(self) -> str:  # type: ignore[override]
        if self.p_max == 1 and not self.allow_flat:
            return "BJN"
        return "MA"


def bjn_rule() -> MARule:
    """Unit-jump special case: the only admissible move is (dk, dj) = (+-1, 1)."""
    return MARule(p_max=1)


@dataclass(frozen=True)
class BinomialBandRule:
    """Two-sided multiplicative band: next price in [d*S, u*S].

    Hosted on its own recombining lattice (see ``engine.band_bounds``) because
    arbitrary (u, d) factors do not embed in the exponential k-grid.  ``levels``
    geometrically spaced price levels fill the band; the two extremes are
    always present.
    """

    u: float
    d: float
    levels: int = 2

    kind = "BINOMIAL_BAND"

    def __post_init__(self):
        if not (0.0 < self.d < 1.0 < self.u):
            raise ValueError("need 0 < d < 1 < u")
        if self.levels < 2:
            raise ValueError("levels must be >= 2")


@dataclass(frozen=True)
class ModifiedRule(TransitionRule):
    """Base rule with a seeded set of vertices turned into arbitrage nodes.

    At a selected vertex with k >= 0 the admissible moves become
    ``-p <= dk <= 0`` with ``0 < dj <= p**2`` (negative arbitrage); for k < 0
    the mirrored band applies.  Unselected vertices keep the base bands.
    Selection is a fraction of the base-rule-reachable non-terminal vertices,
    drawn as a prefix of one seeded permutation, so selections are nested
    across fractions for a fixed seed.
    """

    base: TransitionRule
    fraction: float
    seed: int

    kind = "MODIFIED"
    _pools = {}  # id(base rule) -> (grid shape, read-only pool) of its latest shape, dropped with it

    def __post_init__(self):
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError("fraction must lie in [0, 1]")
        if self.base.kind not in ("MA", "BJN"):
            raise ValueError("arbitrage injection expects an MA-family base rule")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "_cache", {})

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def max_dj(self) -> int:
        return self.p ** 2

    def _drawn(self, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """Rows j and columns k + n1 of the selected vertices, in draw order.  The base rule's pass
        reads only the grid shape: one base rule object's injected rules share it (``arbitrage-scan``)."""
        shape, got = (spec.n1, spec.n2, spec.p), self._pools.get(id(self.base))
        if got is None or got[0] != shape:
            if got is None:
                weakref.finalize(self.base, self._pools.pop, id(self.base), None)
            got = self._pools[id(self.base)] = shape, np.nonzero(reachable_masks(spec, self.base)[:spec.n2])
            for a in got[1]:
                a.flags.writeable = False
        js, iis = got[1]
        order = np.random.default_rng(self.seed).permutation(len(js))[:int(round(self.fraction * len(js)))]
        return js[order], iis[order]

    def selection(self, spec: GridSpec) -> frozenset[Vertex]:
        js, iis = self._drawn(spec)
        return frozenset(zip((iis - spec.n1).tolist(), js.tolist()))

    def column_classes(self, spec: GridSpec, j: int) -> list[VertexClass]:
        # Base reachability reads only the grid shape, so specs that differ in
        # s0, delta, beta or lam share one selection: the classes of every column
        # are built once per shape (one list for all columns with no selected
        # vertex), and callers must not mutate them.
        cache = self._cache  # type: ignore[attr-defined]
        key = (spec.n1, spec.n2, spec.p)
        got = cache.get(key)
        if got is None:
            sel = np.zeros((spec.n2 + 1, spec.width), dtype=bool)
            sel[self._drawn(spec)] = True
            ks = np.arange(-spec.n1, spec.n1 + 1)
            rest, pos, neg = ~sel, sel & (ks >= 0), sel & (ks < 0)
            # Arbitrage moves: down or flat where k >= 0, up or flat where k < 0.
            p, top, base = self.p, self.max_dj, self.base.bands()
            down = tuple((dk, 1, top) for dk in range(-p, 1))
            up = tuple((dk, 1, top) for dk in range(0, p + 1))
            whole = [(None, base)]
            got = cache[key] = [[(r, base), (po, down), (ne, up)] if any_sel else whole
                                for r, po, ne, any_sel in zip(rest, pos, neg, sel.any(axis=1).tolist())]
        return got[j]


# --------------------------------------------------------------------------- #
# Per-vertex operations
# --------------------------------------------------------------------------- #

def reachable(spec: GridSpec, rule: TransitionRule, v: Vertex) -> list[Vertex]:
    """All in-grid vertices admissible from v, ascending (j, k)."""
    k, j = v
    if not spec.in_grid(k, j):
        raise ValueError(f"vertex {v} is not in the grid")
    out: list[Vertex] = []
    # Built in (j, k) order: callers index into it with a seeded draw.
    bands = sorted(rule.bands_at(spec, k, j))
    if not bands:
        return out
    _, los, his = zip(*bands)
    for dj in range(min(los), min(max(his), spec.n2 - j) + 1):
        jj = j + dj
        w = spec.column_half_width(jj)
        for dk, lo, hi in bands:
            if lo <= dj <= hi and abs(k + dk) <= w:
                out.append((k + dk, jj))
    return out


def classify_node(spec: GridSpec, rule: TransitionRule, v: Vertex) -> NodeClass:
    """Local class of a non-terminal vertex, from the signs of its price moves."""
    k, j = v
    if j >= spec.n2:
        raise ValueError("terminal column vertices have no classification")
    signs = {(kk > k) - (kk < k) for kk, _ in reachable(spec, rule, v)}
    return _CLASSES[_class_codes(1 in signs, -1 in signs, 0 in signs)]


# Class codes index NodeClass's declaration order.
_CLASSES = tuple(NodeClass)
_UP_DOWN, _FLAT, _POS_ARB, _NEG_ARB, _NZN = range(len(_CLASSES))


def _class_codes(up, dn, flat):
    """Class code of each vertex from whether it has an up, a down and a flat move
    (bools, or boolean rows elementwise): the first of these that holds."""
    return np.select([up & dn, up & flat, dn & flat, flat], [_UP_DOWN, _POS_ARB, _NEG_ARB, _FLAT], _NZN)


# --------------------------------------------------------------------------- #
# Vectorized column machinery (shared with the engine sweep)
# --------------------------------------------------------------------------- #

def column_moves(spec: GridSpec, rule: TransitionRule) -> list[list[VertexClass]]:
    """``rule.column_classes(spec, j)`` of each column j < n2, each dj window cut at the last
    column (``hi <= n2 - j``), then empty bands and classes dropped.  Columns with one class
    list share one cut list while their cut is the same (past the largest ``hi``, a cut changes
    nothing), so callers may key on its ``id``; they must not mutate it."""
    n2 = spec.n2
    if type(rule).column_classes is TransitionRule.column_classes:  # bands() serve every column
        lists = [rule.column_classes(spec, 0)] * n2
    else:
        lists = [rule.column_classes(spec, j) for j in range(n2)]
    H = max((hi for c in {id(c): c for c in lists}.values() for _, bands in c for _, _, hi in bands), default=0)
    cut, moves = {}, []  # keyed by the id of a list in ``lists``, which keeps it alive
    for top, classes in zip(range(n2, 0, -1), lists):
        key = id(classes), top if top < H else H
        got = cut.get(key)
        if got is None:
            # tuple() of a list, sized once: CPython resizes a tuple built from a generator, and parks
            # each freed one on its length's free list, which resized tuples never draw from.
            got = cut[key] = [(mask, kept) for mask, bands in classes if (kept := tuple([
                (dk, lo, min(hi, top)) for dk, lo, hi in bands if lo <= hi and lo <= top]))]
        moves.append(got)
    return moves


def reachable_masks(spec: GridSpec, rule: TransitionRule) -> np.ndarray:
    """Boolean (n2+1, width) array: vertices reachable from (0, 0).

    Each band of a source column adds its class's row, shifted by dk, to a difference
    array over j at the first column of its dj window and subtracts it one past
    the last, so a running sum counts the moves landing on each later vertex.
    Its rows carry ``rule.p`` zero columns on each side, where moves off the grid land.
    """
    n1, n2, w, pad = spec.n1, spec.n2, spec.width, rule.p
    ks = np.arange(-n1, n1 + 1)
    reach = np.zeros((n2 + 1, w), dtype=bool)
    reach[0, n1] = True
    diff = np.zeros((n2 + 2, w + 2 * pad), dtype=np.int32)
    hits = np.zeros(w, dtype=np.int32)
    for j, classes in enumerate(column_moves(spec, rule)):
        if reach[j].any():
            for mask, bands in classes:
                src = reach[j] if mask is None else (reach[j] & mask)
                for dk, lo, hi in bands:
                    diff[j + lo, pad + dk: pad + dk + w] += src
                    diff[j + hi + 1, pad + dk: pad + dk + w] -= src
        hits += diff[j + 1, pad: pad + w]
        reach[j + 1] = (hits > 0) & (np.abs(ks) <= spec.column_half_width(j + 1))
    return reach


def _successor_flags(spec: GridSpec, j: int, classes: list[VertexClass]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(has_up, has_dn, has_flat) boolean rows for column j < n2 and its cut classes.

    A move along band (dk, lo, hi) exists at k iff k + dk lies in the cone of
    column j + hi: the cone widens with j, so the window's last column decides.
    """
    ks = np.arange(-spec.n1, spec.n1 + 1)
    # One flag row per sign of dk: index 1 up, -1 down, 0 flat.
    flags = np.zeros((3, spec.width), dtype=bool)
    for mask, bands in classes:
        for dk, lo, hi in bands:
            ok = np.abs(ks + dk) <= spec.column_half_width(j + hi)
            flags[(dk > 0) - (dk < 0)] |= ok if mask is None else (ok & mask)
    return flags[1], flags[-1], flags[0]


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #

@dataclass
class ValidationReport:
    """Structural audit of reachable non-terminal vertices.

    ``codes[j, k + n1]`` is the class code of vertex ``(k, j)`` (an index into
    ``NodeClass`` order), or -1 where the vertex is unreachable, terminal or
    a forced stop (no move, on a liquidation column: its trajectories end).
    """

    spec: GridSpec
    rule_kind: str
    counts: dict[NodeClass, int]
    codes: np.ndarray
    arbitrage_vertices: tuple[Vertex, ...]
    not_zero_neutral: tuple[Vertex, ...]

    @property
    def classes(self) -> dict[Vertex, NodeClass]:
        """Class of every reachable non-terminal vertex, in ascending (j, k) order."""
        live = self.codes >= 0
        return dict(zip(_vertex_list(self.spec, live),
                        (_CLASSES[c] for c in self.codes[live].tolist())))

    @property
    def ok(self) -> bool:
        return not self.not_zero_neutral

    def raise_if_failed(self) -> None:
        if self.not_zero_neutral:
            raise ModelValidationError(
                f"{len(self.not_zero_neutral)} reachable vertices are not 0-neutral, "
                f"first {self.not_zero_neutral[0]}", self)

    def summary(self) -> str:
        lines = [f"model {self.rule_kind}: n1={self.spec.n1} n2={self.spec.n2} "
                 f"p={self.spec.p} lam={self.spec.lam}"]
        for cls in NodeClass:
            n = self.counts.get(cls, 0)
            if n:
                lines.append(f"  {cls.value}: {n}")
        lines.append("  status: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def _vertex_list(spec: GridSpec, mask: np.ndarray) -> tuple[Vertex, ...]:
    """Vertices where a (n2+1, width) mask is set, in ascending (j, k) order."""
    js, iis = np.nonzero(mask)
    return tuple(zip((iis - spec.n1).tolist(), js.tolist()))


def validate_model(spec: GridSpec, rule: TransitionRule) -> ValidationReport:
    """Classify every reachable non-terminal vertex; the model passes when each is 0-neutral.

    Vertices of the grid that are not reachable from (0, 0) are excluded from
    the report, and so are forced stops (no move, on a liquidation column),
    which end their trajectories like terminal vertices.  A passing model can
    land exactly on a liquidation column from every reachable vertex: the
    highest-``j`` one that could not has no in-grid move (its successors are
    higher, so they land) and is off every liquidation column, so it is coded
    not 0-neutral.  Call ``raise_if_failed`` to turn defects into exceptions.
    """
    reach = reachable_masks(spec, rule)
    codes = np.full(reach.shape, -1, dtype=np.int8)
    for j, classes in enumerate(column_moves(spec, rule)):
        if not reach[j].any():
            continue
        up, dn, fl = _successor_flags(spec, j, classes)
        cls = _class_codes(up, dn, fl)
        if j in spec.lam:
            cls[~(up | dn | fl)] = -1  # no move on a liquidation column: a stop
        codes[j] = np.where(reach[j], cls, -1)
    tally = np.bincount(codes[codes >= 0], minlength=len(_CLASSES))
    return ValidationReport(
        spec=spec,
        rule_kind=rule.kind,
        counts={cls: int(n) for cls, n in zip(_CLASSES, tally) if n},
        codes=codes,
        arbitrage_vertices=_vertex_list(spec, (codes == _POS_ARB) | (codes == _NEG_ARB)),
        not_zero_neutral=_vertex_list(spec, codes == _NZN),
    )
