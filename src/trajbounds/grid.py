"""Dense storage for the trajectory grid, payoff functions, and computed bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .model import GridSpec, Vertex


class Grid:
    """Immutable vertex set: column half-widths and one price per level."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n1, n2 = spec.n1, spec.n2
        self.half_widths = np.minimum(n1, spec.p * np.arange(n2 + 1, dtype=np.int64))  # spec.column_half_width(j)
        self.n_vertices = int((2 * self.half_widths + 1).sum())
        # One exp per price level; every consumer reads from this array.
        self.prices = np.array([spec.price(k) for k in range(-n1, n1 + 1)])

    def price(self, k: int) -> float:
        return float(self.prices[k + self.spec.n1])

    def column_ks(self, j: int) -> range:
        w = int(self.half_widths[j])
        return range(-w, w + 1)

    def vertices(self) -> Iterator[Vertex]:
        for j in range(self.spec.n2 + 1):
            for k in self.column_ks(j):
                yield (k, j)


def build_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


# --------------------------------------------------------------------------- #
# Payoffs
# --------------------------------------------------------------------------- #

def _strike(name: str, x: float) -> float:
    if not math.isfinite(x := float(x)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class Payoff:
    """European payoff as a function of the terminal price only."""

    kind: str  # CALL | PUT | BUTTERFLY | CUSTOM_TABLE
    k1: float = 0.0
    k2: float = 0.0
    table: tuple[tuple[float, float], ...] = ()

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls("CALL", k1=_strike("strike", strike))

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls("PUT", k1=_strike("strike", strike))

    @classmethod
    def butterfly(cls, k1: float, k2: float) -> "Payoff":
        if not _strike("strike k1", k1) < _strike("strike k2", k2):
            raise ValueError("butterfly needs k1 < k2")
        return cls("BUTTERFLY", k1=float(k1), k2=float(k2))

    @classmethod
    def from_table(cls, mapping: Mapping[float, float]) -> "Payoff":
        items = tuple(sorted((float(s), float(v)) for s, v in mapping.items()))
        return cls("CUSTOM_TABLE", table=items)

    def value_at(self, price: float) -> float:
        if self.kind == "CUSTOM_TABLE":
            for s, v in self.table:
                if s == price:
                    return v
            raise KeyError(f"no table entry for terminal price {price!r}")
        return self.values_at(np.float64(price)).item()

    def values_at(self, prices: np.ndarray) -> np.ndarray:
        """The payoff at each price of ``prices`` (not for CUSTOM_TABLE); ``np.maximum(0.0, x)``
        is Python's ``max(x, 0.0)``, signed zeros included."""
        if self.kind == "PUT":
            return np.maximum(0.0, self.k1 - prices)
        call = np.maximum(0.0, prices - self.k1)
        if self.kind == "CALL":
            return call
        if self.kind == "BUTTERFLY":
            return np.where(prices <= 0.5 * (self.k1 + self.k2), call, np.maximum(0.0, self.k2 - prices))
        raise ValueError(f"unknown payoff kind {self.kind!r}")


def payoff_eval(payoff, k: int, spec: GridSpec) -> float:
    """Payoff value at the price level k; price computed exactly as the grid does."""
    if abs(k) > spec.n1:
        raise ValueError(f"price index {k} outside |k| <= n1")
    return payoff.value_at(spec.price(k))


# --------------------------------------------------------------------------- #
# Bounds container
# --------------------------------------------------------------------------- #

PROV_NONE = 0
PROV_TERMINAL_PAYOFF = 1
PROV_Q_MAX = 2
PROV_CONTINUATION = 3

_PROV_NAMES = {
    PROV_NONE: "",
    PROV_TERMINAL_PAYOFF: "TERMINAL_PAYOFF",
    PROV_Q_MAX: "Q_MAX",
    PROV_CONTINUATION: "CONTINUATION",
}


def _terminal_surfaces(grid: Grid, Z: np.ndarray):
    """Stacked (lanes, n2+1, W) value, slope and provenance surfaces, filled
    on the terminal column only; NaN and provenance 0 elsewhere."""
    shape = (Z.shape[0], grid.spec.n2 + 1, grid.spec.width)
    U, S, P = np.full(shape, np.nan), np.full(shape, np.nan), np.zeros(shape, dtype=np.int8)
    U[:, -1], S[:, -1], P[:, -1] = Z, 0.0, PROV_TERMINAL_PAYOFF
    return U, S, P


class BoundsGrid:
    """Per-vertex upper/lower bounds with the hedge slopes that attain them.

    Rows are full-width arrays indexed by ``k + n1``; vertices that were not
    computed (outside the grid, or unreachable from (0, 0) and without a
    finite local optimum) hold NaN and provenance 0.  ``slope_dn`` stores the
    slope recorded by the negated-payoff sweep; a long position applies it
    with a minus sign.
    """

    def __init__(self, grid: Grid, payoff, upper, lower, slope_up, slope_dn, prov):
        self.grid = grid
        self.payoff = payoff
        self.upper = upper
        self.lower = lower
        self.slope_up = slope_up
        self.slope_dn = slope_dn
        self.prov = prov

    def _idx(self, k: int, j: int) -> tuple[int, int]:
        if not self.grid.spec.in_grid(k, j):
            raise ValueError(f"vertex {(k, j)} is not in the grid")
        return j, k + self.grid.spec.n1

    def upper_at(self, k: int, j: int) -> float:
        return float(self.upper[self._idx(k, j)])

    def lower_at(self, k: int, j: int) -> float:
        return float(self.lower[self._idx(k, j)])

    def slope_up_at(self, k: int, j: int) -> float:
        return float(self.slope_up[self._idx(k, j)])

    def slope_dn_at(self, k: int, j: int) -> float:
        return float(self.slope_dn[self._idx(k, j)])

    def provenance_at(self, k: int, j: int) -> str:
        return _PROV_NAMES[int(self.prov[self._idx(k, j)])]

    def price_interval(self) -> tuple[float, float]:
        return self.lower_at(0, 0), self.upper_at(0, 0)

    def to_csv(self, path) -> None:
        spec = self.grid.spec
        levels = [repr(s) for s in self.grid.prices.tolist()]  # one repr per price level
        ks = [str(k) for k in range(-spec.n1, spec.n1 + 1)]
        ends = {c: f"{name}\n" for c, name in _PROV_NAMES.items()}
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("k,j,s_k,upper,lower,slope_up,slope_dn,provenance\n")
            # One column at a time, as Python floats: per-vertex repr(float(v)),
            # "" for NaN.  No field needs CSV quoting, so fields and lines are joined.
            for j in range(spec.n2 + 1):
                hw = spec.column_half_width(j)
                col = slice(spec.n1 - hw, spec.n1 + hw + 1)
                cells = [["" if v != v else repr(v) for v in a[j, col].tolist()]
                         for a in (self.upper, self.lower, self.slope_up, self.slope_dn)]
                names = [ends[c] for c in self.prov[j, col].tolist()]
                f.write("".join(map(",".join, zip(ks[col], [str(j)] * len(names), levels[col], *cells, names))))
