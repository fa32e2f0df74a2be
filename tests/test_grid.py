import csv
import hashlib
import math

import numpy as np
import pytest

from trajbounds.engine import compute_bounds, inject_arbitrage
from trajbounds.grid import Payoff, build_grid, payoff_eval
from trajbounds.model import GridSpec, MARule, ModifiedRule, spec_for_rule


def unit_spec(p, n1, n2, lam=None, s0=1.0, step=0.01):
    return GridSpec(s0=s0, delta=step, beta=step, p=p, n1=n1, n2=n2,
                    lam=tuple(lam) if lam else (n2,))


class TestBuildGrid:
    def test_small_exact_vertices(self):
        grid = build_grid(unit_spec(1, 2, 2))
        assert grid.n_vertices == 9
        assert list(grid.vertices()) == [(0, 0), (-1, 1), (0, 1), (1, 1),
                                         (-2, 2), (-1, 2), (0, 2), (1, 2), (2, 2)]

    def test_count_matches_column_sum(self):
        # Production-scale grid: p=3, n1=300, n2=200.
        spec = GridSpec(1.0, 0.0058, 0.0058, p=3, n1=300, n2=200, lam=(200,))
        grid = build_grid(spec)
        expected = sum(2 * min(300, 3 * j) + 1 for j in range(201))
        assert grid.n_vertices == expected

    @pytest.mark.parametrize("p, n1, n2", [(1, 1, 1), (1, 1200, 1200), (3, 300, 200), (8, 16, 200), (2, 5, 40)])
    def test_half_widths_are_column_half_widths(self, p, n1, n2):
        spec = unit_spec(p, n1, n2)
        got = build_grid(spec).half_widths
        assert got.dtype == np.int64
        assert got.tolist() == [spec.column_half_width(j) for j in range(n2 + 1)]

    def test_rejects_invalid_spec(self):
        with pytest.raises(ValueError):
            unit_spec(1, 11, 10)

    def test_prices_match_spec(self):
        spec = unit_spec(1, 5, 5, step=0.02)
        grid = build_grid(spec)
        for k in range(-5, 6):
            assert grid.price(k) == spec.price(k)
            assert grid.price(k) == 1.0 * math.exp(k * 0.02)


class Negated:
    """The payoff -Z of a payoff Z, read one price at a time."""

    def __init__(self, inner):
        self.inner = inner

    def value_at(self, price: float) -> float:
        return -self.inner.value_at(price)


class TestPayoff:
    def test_call(self):
        assert Payoff.call(1.0).value_at(1.1) == pytest.approx(0.1, abs=1e-15)
        assert Payoff.call(1.0).value_at(0.9) == 0.0

    def test_put(self):
        assert Payoff.put(1.0).value_at(0.8) == pytest.approx(0.2, abs=1e-15)
        assert Payoff.put(1.0).value_at(1.2) == 0.0

    def test_butterfly_both_branches(self):
        z = Payoff.butterfly(1.0, 1.1)
        assert z.value_at(1.04) == pytest.approx(0.04, abs=1e-15)
        assert z.value_at(1.06) == pytest.approx(0.04, abs=1e-15)
        assert z.value_at(0.99) == 0.0
        assert z.value_at(1.12) == 0.0
        with pytest.raises(ValueError):
            Payoff.butterfly(1.1, 1.0)

    @pytest.mark.parametrize("make, name", [
        (lambda: Payoff.call(math.inf), "strike"),
        (lambda: Payoff.call(-math.inf), "strike"),
        (lambda: Payoff.put(math.nan), "strike"),
        (lambda: Payoff.butterfly(1.0, math.inf), "strike k2"),
        (lambda: Payoff.butterfly(math.nan, 1.1), "strike k1"),
    ], ids=["call_inf", "call_minus_inf", "put_nan", "butterfly_k2_inf", "butterfly_k1_nan"])
    def test_non_finite_strike_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()

    def test_table_exact_lookup(self):
        spec = unit_spec(1, 2, 2)
        table = Payoff.from_table({spec.price(k): float(k) for k in range(-2, 3)})
        assert payoff_eval(table, 2, spec) == 2.0
        assert payoff_eval(table, -1, spec) == -1.0
        with pytest.raises(KeyError):
            table.value_at(123.456)

    def test_payoff_eval_range_check(self):
        spec = unit_spec(1, 2, 2)
        with pytest.raises(ValueError):
            payoff_eval(Payoff.call(1.0), 3, spec)

    def test_negated(self):
        z = Payoff.call(1.0)
        assert Negated(z).value_at(1.25) == -z.value_at(1.25)


class TestBoundsCsv:
    def test_round_trip(self, tmp_path):
        rule = MARule(2)
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, 4, 4)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, Payoff.call(1.0))
        path = tmp_path / "bounds.csv"
        bounds.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == grid.n_vertices
        for row in rows:
            k, j = int(row["k"]), int(row["j"])
            assert float(row["s_k"]) == grid.price(k)
            if row["upper"]:
                assert float(row["upper"]) == bounds.upper_at(k, j)
                assert float(row["lower"]) == bounds.lower_at(k, j)
        by_vertex = {(int(r["k"]), int(r["j"])): r for r in rows}
        assert by_vertex[(0, 4)]["provenance"] == "TERMINAL_PAYOFF"
        assert by_vertex[(0, 0)]["provenance"] == "CONTINUATION"
        # One-sided unreachable corner (only down moves remain): left uncomputed.
        assert by_vertex[(4, 2)]["upper"] == ""
        assert by_vertex[(4, 2)]["provenance"] == ""

    @pytest.mark.parametrize("rule, n1, n2, lam, payoff, marker", [
        # Injected arbitrage leaves unreachable NaN vertices.
        (ModifiedRule(base=MARule(3), fraction=0.3, seed=1), 12, 12, None, Payoff.call(1.0),
         b",,,,,\n"),
        # An inner liquidation column gives Q_MAX provenance.
        (MARule(3), 15, 15, (6, 15), Payoff.butterfly(0.95, 1.05), b",Q_MAX\n"),
        # n1 < p * n2: the half-widths saturate at n1.
        (MARule(3, allow_flat=True), 5, 10, (4, 10), Payoff.put(1.0), b"\n-5,10,"),
        # NaN cells and all four provenance names in one surface.
        (ModifiedRule(base=MARule(3), fraction=0.3, seed=1), 12, 12, (6, 12),
         Payoff.butterfly(0.95, 1.05), b",Q_MAX\n"),
    ], ids=["injected", "inner_lam", "narrow", "every_provenance"])
    def test_bytes_match_per_vertex_writer(self, tmp_path, rule, n1, n2, lam, payoff, marker):
        spec = spec_for_rule(rule, 1.0, 0.02, 0.02, n1, n2, lam=lam)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, payoff)
        bounds.to_csv(tmp_path / "by_column.csv")
        ref = tmp_path / "per_vertex.csv"
        with open(ref, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["k", "j", "s_k", "upper", "lower", "slope_up", "slope_dn",
                        "provenance"])
            for k, j in grid.vertices():
                vals = [bounds.upper_at(k, j), bounds.lower_at(k, j),
                        bounds.slope_up_at(k, j), bounds.slope_dn_at(k, j)]
                w.writerow([k, j, repr(grid.price(k))]
                           + ["" if math.isnan(v) else repr(v) for v in vals]
                           + [bounds.provenance_at(k, j)])
        got = (tmp_path / "by_column.csv").read_bytes()
        assert got == ref.read_bytes()
        assert marker in got

    @pytest.mark.parametrize("payoff, sha256", [
        (Payoff.call(1.0), "e7e0035eed0e90cdf3398645836d8db7bdb3cc1acca71e92cbe63ad051aca3e6"),
        (Payoff.butterfly(0.95, 1.1),
         "00881288e7cad89ceca67f027eb0f2bf3a31ab3a85e8bd251d9508bdd42f1eff"),
    ], ids=["call", "butterfly"])
    def test_injected_surface_pinned(self, tmp_path, payoff, sha256):
        # Base and arbitrage bands share dk = 0 under different masks; the
        # pinned bytes include hundreds of -0.0 cells.
        rule = inject_arbitrage(MARule(3, allow_flat=True), 0.3, seed=7)
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, 14, 14, lam=(7, 14))
        compute_bounds(build_grid(spec), rule, payoff).to_csv(tmp_path / "surface.csv")
        got = (tmp_path / "surface.csv").read_bytes()
        assert b",-0.0" in got
        assert hashlib.sha256(got).hexdigest() == sha256
