import csv
import math
import random

import numpy as np
import pytest

from trajbounds.engine import _terminal_rows, compute_bounds, inject_arbitrage
from trajbounds.grid import Payoff, build_grid, payoff_eval
from trajbounds.hedge import (
    LONG,
    SHORT,
    Trajectory,
    extract_hedge,
    ledger_finals,
    path_hedges,
    sample_trajectories,
    sample_trajectory,
    simulate_pnl,
)
from trajbounds.model import (
    MARule,
    MBRule,
    bjn_rule,
    reachable,
    spec_for_rule,
    spec_from_total_variance,
)
from test_model import DoubleStepRule, FlatTailRule, OverlapRule
from reference import count_trajectories, enumerate_trajectories

V0 = 0.0067
CALL = Payoff.call(1.0)


def bounds_for(rule, n2, lam=None, s0=1.0):
    spec = spec_from_total_variance(rule, s0, V0, n2) if lam is None else \
        spec_for_rule(rule, s0, math.sqrt(V0 / n2), math.sqrt(V0 / n2), n2, n2, lam=lam)
    grid = build_grid(spec)
    return grid, compute_bounds(grid, rule, CALL)


class TestSampling:
    def test_unit_jump_full_length(self):
        rule = bjn_rule()
        grid, _ = bounds_for(rule, 30)
        traj = sample_trajectory(rule, grid, seed=1)
        assert len(traj) == 31
        assert all(abs(b[0] - a[0]) == 1 and b[1] - a[1] == 1
                   for a, b in zip(traj.vertices, traj.vertices[1:]))

    def test_seed_determinism(self):
        rule = MARule(3)
        grid, _ = bounds_for(rule, 40)
        a = sample_trajectory(rule, grid, seed=99)
        b = sample_trajectory(rule, grid, seed=99)
        c = sample_trajectory(rule, grid, seed=100)
        assert a.vertices == b.vertices
        assert a.vertices != c.vertices

    def test_steps_admissible(self):
        rule = MARule(3)
        grid, _ = bounds_for(rule, 40)
        for seed in range(1000):
            traj = sample_trajectory(rule, grid, seed=seed)
            for (k0, j0), (k1, j1) in zip(traj.vertices, traj.vertices[1:]):
                dk, dj = k1 - k0, j1 - j0
                assert 0 < abs(dk) <= 3
                assert dk * dk <= dj <= 9

    def test_intermediate_stops_occur(self):
        rule = bjn_rule()
        grid, _ = bounds_for(rule, 20, lam=(10, 20))
        lengths = {len(sample_trajectory(rule, grid, seed=s)) for s in range(40)}
        assert 11 in lengths  # stopped at the first liquidation column
        assert 21 in lengths  # ran to the last one

    def test_trajectory_invariants(self):
        with pytest.raises(ValueError):
            Trajectory(vertices=((1, 1),), prices=(1.0,))


class TestExtractHedge:
    def test_one_step_chord_slope(self):
        rule = bjn_rule()
        spec = spec_for_rule(rule, 1.0, 0.1, 0.1, 1, 1)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, CALL)
        traj = sample_trajectory(rule, grid, seed=0)
        u, d = math.exp(0.1), math.exp(-0.1)
        expect = (u - 1.0) / (u - d)  # chord slope of the call payoff
        got = extract_hedge(bounds, traj, SHORT)
        assert len(got) == 1
        assert got[0] == pytest.approx(expect, rel=1e-12)

    def test_slopes_match_recorded(self):
        rule = MARule(2)
        grid, bounds = bounds_for(rule, 25)
        traj = sample_trajectory(rule, grid, seed=5)
        for side, col in ((SHORT, bounds.slope_up_at), (LONG, bounds.slope_dn_at)):
            slopes = extract_hedge(bounds, traj, side)
            assert slopes == tuple(col(k, j) for k, j in traj.vertices[:-1])

    def test_terminal_only_trajectory(self):
        rule = bjn_rule()
        grid, bounds = bounds_for(rule, 10)
        traj = Trajectory(vertices=((0, 0),), prices=(grid.price(0),))
        assert extract_hedge(bounds, traj, SHORT) == ()

    def test_bad_side(self):
        rule = bjn_rule()
        grid, bounds = bounds_for(rule, 10)
        traj = sample_trajectory(rule, grid, seed=0)
        with pytest.raises(ValueError):
            extract_hedge(bounds, traj, "BOTH")


class TestSimulatePnl:
    def test_one_step_binomial_both_moves(self):
        rule = bjn_rule()
        spec = spec_for_rule(rule, 1.0, 0.1, 0.1, 1, 1)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, CALL)
        x0 = bounds.upper_at(0, 0)
        up = Trajectory(vertices=((0, 0), (1, 1)), prices=(grid.price(0), grid.price(1)))
        dn = Trajectory(vertices=((0, 0), (-1, 1)), prices=(grid.price(0), grid.price(-1)))
        for traj in (up, dn):
            ledger = simulate_pnl(bounds, traj, SHORT, x0)
            assert ledger.final == pytest.approx(ledger.payoff, abs=1e-14)
            assert ledger.excess == pytest.approx(0.0, abs=1e-14)

    def test_shift_linearity(self):
        rule = MARule(2)
        grid, bounds = bounds_for(rule, 25)
        traj = sample_trajectory(rule, grid, seed=11)
        base = simulate_pnl(bounds, traj, SHORT, 0.25)
        shifted = simulate_pnl(bounds, traj, SHORT, 0.25 + 0.01)
        assert shifted.final - base.final == pytest.approx(0.01, abs=1e-15)

    def test_ledger_telescopes(self):
        rule = MARule(3)
        grid, bounds = bounds_for(rule, 30)
        traj = sample_trajectory(rule, grid, seed=3)
        ledger = simulate_pnl(bounds, traj, SHORT, 0.1)
        acc = 0.1
        for row in ledger.rows:
            acc += row.slope * row.ds
            assert row.cum_value == acc
        assert ledger.final == acc
        assert ledger.payoff == payoff_eval(CALL, traj.terminal[0], grid.spec)

    def test_ledger_csv(self, tmp_path):
        rule = bjn_rule()
        grid, bounds = bounds_for(rule, 10)
        traj = sample_trajectory(rule, grid, seed=2)
        ledger = simulate_pnl(bounds, traj, LONG, 0.05)
        path = tmp_path / "ledger.csv"
        ledger.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(traj) - 1
        assert [int(r["step"]) for r in rows] == list(range(len(rows)))


class TestExhaustiveHedging:
    def test_counts_match_enumeration(self):
        rule = MARule(2)
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, 4, 4, lam=(2, 4))
        grid = build_grid(spec)
        trajs = list(enumerate_trajectories(rule, grid))
        assert len(trajs) == count_trajectories(rule, grid)
        assert len({t.vertices for t in trajs}) == len(trajs)
        lam = set(spec.lam)
        assert all(t.terminal[1] in lam for t in trajs)

    def test_superhedge_and_underhedge_every_trajectory(self):
        # Exhaustive check, including paths stopping at the inner column.
        rule = MARule(2)
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, 4, 4, lam=(2, 4))
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, CALL)
        lo, hi = bounds.price_interval()
        n = 0
        for traj in enumerate_trajectories(rule, grid):
            short = simulate_pnl(bounds, traj, SHORT, hi)
            long_ = simulate_pnl(bounds, traj, LONG, lo)
            assert short.final >= short.payoff - 1e-9
            assert long_.final <= long_.payoff + 1e-9
            n += 1
        assert n > 50

    def test_superhedge_on_arbitrage_model(self):
        # The support-slope rule keeps hedges valid at one-sided + flat vertices.
        from trajbounds.engine import inject_arbitrage
        rule = inject_arbitrage(bjn_rule(), 0.5, seed=21)
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, 6, 6)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, CALL)
        lo, hi = bounds.price_interval()
        for traj in enumerate_trajectories(rule, grid):
            assert simulate_pnl(bounds, traj, SHORT, hi).final >= \
                payoff_eval(CALL, traj.terminal[0], spec) - 1e-9
            assert simulate_pnl(bounds, traj, LONG, lo).final <= \
                payoff_eval(CALL, traj.terminal[0], spec) + 1e-9


def walk_reference(rule, spec, path):
    """The recursive depth-first enumeration the library's stack replaces."""
    k, j = path[-1]
    if j == spec.n2:
        yield tuple(path)
        return
    if j in spec.lam:
        yield tuple(path)
    for w in reachable(spec, rule, (k, j)):
        path.append(w)
        yield from walk_reference(rule, spec, path)
        path.pop()


class TestIterativeEnumeration:
    def test_long_grid_count(self):
        # From k = 0 both moves are open, from k = +-1 only the way back:
        # two choices every two columns.
        rule = bjn_rule()
        grid = build_grid(spec_for_rule(rule, 1.0, 0.05, 0.05, 1, 500))
        assert count_trajectories(rule, grid) == 2 ** 250

    @pytest.mark.parametrize("rule, n1, n2, lam", [
        (bjn_rule(), 8, 8, None),
        (MARule(2), 5, 6, (2, 5, 6)),
        (inject_arbitrage(MARule(2), 0.3, seed=5), 5, 5, (3, 5)),
    ], ids=["bjn", "ma2_inner_lam", "injected"])
    def test_order_matches_recursive_reference(self, rule, n1, n2, lam):
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, n1, n2, lam=lam)
        grid = build_grid(spec)
        got = [t.vertices for t in enumerate_trajectories(rule, grid)]
        assert got == list(walk_reference(rule, spec, [(0, 0)]))
        assert len(got) == count_trajectories(rule, grid)
        assert len(got) > 20


def sample_reference(rule, grid, seed):
    """The per-seed walk that the column pass replaces: one path at a time,
    one successor list per step."""
    spec = grid.spec
    rng = random.Random(seed)
    path = [(0, 0)]
    while True:
        k, j = path[-1]
        if j == spec.n2 or (j in spec.lam and rng.random() < 0.5):
            break
        succ = reachable(spec, rule, (k, j))
        if not succ:
            if j in spec.lam:
                break
            raise ValueError(f"dead end at {(k, j)}: model was not validated")
        path.append(succ[rng.randrange(len(succ))])
    return tuple(path)


BATCH_CASES = pytest.mark.parametrize("rule, n2, lam", [
    (MARule(3), 40, (20, 40)),
    (MARule(2, allow_flat=True), 30, (10, 30)),
    (bjn_rule(), 50, (25, 50)),
    (MBRule(3, 2), 30, None),
    (inject_arbitrage(MARule(3), 0.3, seed=3), 20, (10, 20)),
], ids=["ma3_inner_lam", "ma2_flat", "bjn", "mb3_a2", "injected"])


class TestBatchedPaths:
    @BATCH_CASES
    @pytest.mark.parametrize("start", [0, 977])
    def test_sample_trajectories_match_per_seed(self, rule, n2, lam, start):
        grid, _ = bounds_for(rule, n2, lam=lam)
        seeds = range(start, start + 40)
        got = sample_trajectories(rule, grid, seeds)
        assert [t.vertices for t in got] == [sample_reference(rule, grid, s) for s in seeds]
        assert [t.vertices for t in got] == [sample_trajectory(rule, grid, s).vertices
                                             for s in seeds]
        assert all(t.prices == tuple(grid.price(k) for k, _ in t.vertices) for t in got)
        assert len({t.terminal[1] for t in got}) == len(grid.spec.lam)

    @pytest.mark.parametrize("rule, n2, lam", [
        (OverlapRule(), 12, (6, 12)),
        (FlatTailRule(), 12, (6, 12)),
        (DoubleStepRule(), 10, (4, 10)),
    ], ids=["overlap", "flat_tail", "double_step"])
    def test_test_rules_match_per_seed(self, rule, n2, lam):
        # Not every test rule is a valid model, so the grid is built unpriced.
        grid = build_grid(spec_for_rule(rule, 1.0, 0.05, 0.05, n2, n2, lam=lam))
        if isinstance(rule, OverlapRule):  # two bands list the same successor
            assert reachable(grid.spec, rule, (0, 0)).count((1, 1)) == 2
        seeds = range(60)
        got = sample_trajectories(rule, grid, seeds)
        assert [t.vertices for t in got] == [sample_reference(rule, grid, s) for s in seeds]

    @pytest.mark.parametrize("lam", [None, (4, 9)], ids=["last_only", "inner_lam"])
    def test_dead_end_error_matches_per_seed(self, lam):
        # Only even columns are reachable, so column 8 is all dead ends.
        rule = DoubleStepRule()
        grid = build_grid(spec_for_rule(rule, 1.0, 0.05, 0.05, 9, 9, lam=lam))
        with pytest.raises(ValueError) as ref:
            for s in range(40):
                sample_reference(rule, grid, s)
        with pytest.raises(ValueError, match=r"^dead end at \(-?\d+, 8\)") as got:
            sample_trajectories(rule, grid, range(40))
        assert str(got.value) == str(ref.value)

    @BATCH_CASES
    def test_ledger_finals_match_simulate_pnl(self, rule, n2, lam):
        grid, bounds = bounds_for(rule, n2, lam=lam)
        trajs = sample_trajectories(rule, grid, range(40))
        trajs.append(Trajectory(vertices=((0, 0),), prices=(grid.price(0),)))
        x0s = (bounds.upper_at(0, 0), -0.0, 0.37)
        for side in (SHORT, LONG):
            ref = np.array([[simulate_pnl(bounds, t, side, x0).final for t in trajs]
                            for x0 in x0s])
            assert ledger_finals(bounds, trajs, side, x0s).tobytes() == ref.tobytes()

    @BATCH_CASES
    def test_path_hedges_match_compute_bounds(self, rule, n2, lam):
        # One live-cone sweep gives the surfaces' root interval and path slopes, bitwise.
        grid, bounds = bounds_for(rule, n2, lam=lam)
        trajs = sample_trajectories(rule, grid, range(40))
        Z = _terminal_rows(CALL, grid.prices.tolist(), -grid.spec.n1)
        (lo, hi), slopes = path_hedges(rule, grid, Z, trajs)
        assert (lo, hi) == bounds.price_interval()
        for side in (SHORT, LONG):
            want = [s for t in trajs for s in extract_hedge(bounds, t, side)]
            assert slopes[side].tobytes() == np.array(want).tobytes()

    def test_ledger_finals_nan_slope_error(self):
        rule = MARule(3)
        grid, bounds = bounds_for(rule, 40, lam=(20, 40))
        trajs = sample_trajectories(rule, grid, range(10))
        # Blank a late vertex of the third path and an early one of the sixth:
        # the error names the first blank vertex in path order.
        blank = {trajs[2].vertices[-2], trajs[5].vertices[1]}
        for k, j in blank:
            bounds.slope_dn[j, k + grid.spec.n1] = float("nan")
        first = next(v for t in trajs for v in t.vertices[:-1] if v in blank)
        with pytest.raises(ValueError) as ref:
            for t in trajs:
                simulate_pnl(bounds, t, LONG, 0.0)
        assert str(ref.value) == f"no hedge recorded at vertex {first}"
        with pytest.raises(ValueError, match=r"^no hedge recorded at vertex \(") as got:
            ledger_finals(bounds, trajs, LONG, (0.0,))
        assert str(got.value) == str(ref.value)
        ledger_finals(bounds, trajs, SHORT, (0.0,))  # the other side is intact

    @pytest.mark.parametrize("bad", [(5, 1), (-71, 20), (0, 41)],
                             ids=["outside_cone", "below_array", "past_last_column"])
    def test_ledger_finals_off_grid_vertex_error(self, bad):
        # Fancy indexing would read some other cell, or wrap around.
        rule = MARule(3)
        grid, bounds = bounds_for(rule, 40, lam=(20, 40))
        trajs = sample_trajectories(rule, grid, range(3))
        trajs.append(Trajectory(vertices=((0, 0), bad, (0, 40)), prices=(1.0, 1.1, 1.0)))
        with pytest.raises(ValueError) as ref:
            for t in trajs:
                simulate_pnl(bounds, t, SHORT, 0.0)
        assert str(ref.value) == f"vertex {bad} is not in the grid"
        with pytest.raises(ValueError) as got:
            ledger_finals(bounds, trajs, SHORT, (0.0,))
        assert str(got.value) == str(ref.value)
