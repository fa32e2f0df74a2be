import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from trajbounds.engine import band_bounds, compute_bounds, inject_arbitrage, price, price_all
from trajbounds.grid import Payoff, build_grid
from trajbounds import engine
from trajbounds.model import (
    BinomialBandRule,
    MARule,
    MBRule,
    ModelValidationError,
    NotZeroNeutralError,
    TransitionRule,
    bjn_rule,
    column_moves,
    reachable,
    reachable_masks,
    spec_for_rule,
    spec_from_total_variance,
    validate_model,
)
from test_model import DoubleStepRule, FlatTailRule, OverlapRule
from test_grid import Negated
from reference import brute_force_upper, convex_hull_step, generic_bounds, hull_fast

V0 = 0.0067
CALL = Payoff.call(1.0)
PUT = Payoff.put(1.0)
BFLY = Payoff.butterfly(1.0, 1.1)
SWEEPS = {"banded": compute_bounds, "generic": generic_bounds}


def unit_spec(rule, n1, n2, lam=None, s0=1.0, step=0.05):
    return spec_for_rule(rule, s0=s0, delta=step, beta=step, n1=n1, n2=n2, lam=lam)


class TestConvexHullStep:
    def test_single_chord(self):
        sol = convex_hull_step([(1.1, 0.1)], [(0.9, 0.0)], 1.0)
        assert sol.value == pytest.approx(0.05, abs=1e-15)
        assert sol.slope == pytest.approx(0.5, abs=1e-15)
        assert sol.plus.x == 1.1 and sol.minus.x == 0.9

    def test_horizontal_chord(self):
        sol = convex_hull_step([(1.1, 0.3)], [(0.9, 0.3)], 1.0)
        assert sol.value == 0.3
        assert sol.slope == 0.0

    def test_four_pair_enumeration(self):
        plus = [(1.1, 0.1), (1.2, 0.12)]
        minus = [(0.9, 0.0), (0.8, 0.0)]
        best = -math.inf
        for a in plus:
            for b in minus:
                u = (a[1] - b[1]) / (a[0] - b[0])
                best = max(best, a[1] - u * (a[0] - 1.0))
        sol = convex_hull_step(plus, minus, 1.0)
        assert sol.value == pytest.approx(best, abs=1e-15)
        assert sol.value == pytest.approx(0.1 - (0.1 / 0.3) * 0.1, abs=1e-15)
        assert sol.slope == pytest.approx(0.1 / 0.3, rel=1e-12)

    def test_positive_arbitrage_degenerates_to_flats(self):
        sol = convex_hull_step([(1.1, 0.0), (1.2, 0.0)], [(1.0, 0.4), (1.0, 0.1)], 1.0)
        assert sol.value == 0.4
        assert sol.slope == 0.0  # zero already dominates every up point

    def test_positive_arbitrage_slope_superhedges(self):
        # An up point above the flat maximum forces a positive support slope.
        sol = convex_hull_step([(1.1, 0.6)], [(1.0, 0.4)], 1.0)
        assert sol.value == 0.4
        assert sol.slope == pytest.approx((0.6 - 0.4) / 0.1, rel=1e-12)
        assert sol.value + sol.slope * 0.1 >= 0.6 - 1e-12

    def test_negative_arbitrage(self):
        sol = convex_hull_step([], [(1.0, 0.2), (0.9, 0.1)], 1.0)
        assert sol.value == 0.2
        assert sol.slope == 0.0
        assert sol.plus is None

    def test_flats_only(self):
        sol = convex_hull_step([], [(1.0, 0.3), (1.0, 0.7)], 1.0)
        assert sol.value == 0.7
        assert sol.slope == 0.0

    def test_one_sided_without_flats_raises(self):
        with pytest.raises(NotZeroNeutralError):
            convex_hull_step([(1.1, 0.1)], [], 1.0)
        with pytest.raises(NotZeroNeutralError):
            convex_hull_step([], [(0.9, 0.1)], 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            convex_hull_step([], [], 1.0)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            convex_hull_step([(0.9, 0.1)], [], 1.0)
        with pytest.raises(ValueError):
            convex_hull_step([], [(1.2, 0.1)], 1.0)

    def test_witness_chord_identity(self):
        # value = y+ - u (x+ - s) = y- - u (x- - s) along the witness chord.
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = 1.0
            plus = [(s + rng.uniform(0.01, 0.5), rng.normal()) for _ in range(4)]
            minus = [(s - rng.uniform(0.01, 0.5), rng.normal()) for _ in range(4)]
            sol = convex_hull_step(plus, minus, s)
            a, b = sol.plus, sol.minus
            assert sol.value == pytest.approx(a.y - sol.slope * (a.x - s), abs=1e-12)
            assert sol.value == pytest.approx(b.y - sol.slope * (b.x - s), abs=1e-12)

    def test_local_superhedge_property(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            s = float(rng.uniform(0.5, 2.0))
            plus = [(s + rng.uniform(0.001, 1.0), rng.normal()) for _ in range(5)]
            minus = [(s - rng.uniform(0.0, 1.0), rng.normal()) for _ in range(5)]
            sol = convex_hull_step(plus, minus, s)
            for x, y in plus + minus:
                assert sol.value + sol.slope * (x - s) >= y - 1e-10


class TestHullFast:
    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            s = 1.0
            n_plus = int(rng.integers(1, 7))
            n_minus = int(rng.integers(1, 7))
            plus = [(s + rng.uniform(0.01, 1.0), rng.normal()) for _ in range(n_plus)]
            minus = [(s - rng.uniform(0.0, 1.0), rng.normal()) for _ in range(n_minus)]
            a = convex_hull_step(plus, minus, s)
            b = hull_fast(plus, minus, s)
            scale = max(1.0, abs(a.value))
            assert abs(a.value - b.value) <= 1e-12 * scale
            assert abs(a.slope - b.slope) <= 1e-9 * max(1.0, abs(a.slope))

    def test_collinear_points(self):
        plus = [(1.1, 0.1), (1.2, 0.2)]
        minus = [(0.9, -0.1), (0.8, -0.2)]
        a = convex_hull_step(plus, minus, 1.0)
        b = hull_fast(plus, minus, 1.0)
        assert a.value == pytest.approx(0.0, abs=1e-15)
        assert b.value == pytest.approx(a.value, abs=1e-15)
        assert b.slope == pytest.approx(a.slope, abs=1e-12)

    def test_single_pair_exact_chord(self):
        a = convex_hull_step([(1.07, 0.21)], [(0.96, -0.05)], 1.0)
        b = hull_fast([(1.07, 0.21)], [(0.96, -0.05)], 1.0)
        assert b.value == a.value
        assert b.slope == a.slope

    def test_degenerate_paths_identical(self):
        cases = [
            ([(1.1, 0.0)], [(1.0, 0.4), (1.0, 0.1)]),
            ([], [(1.0, 0.2), (0.9, 0.5)]),
            ([], [(1.0, 0.3)]),
        ]
        for plus, minus in cases:
            a = convex_hull_step(plus, minus, 1.0)
            b = hull_fast(plus, minus, 1.0)
            assert (a.value, a.slope) == (b.value, b.slope)


class TestComputeBounds:
    def test_zero_payoff_prices_exactly_zero(self):
        zero = Payoff.put(0.0)
        for rule in (bjn_rule(), MARule(2), MARule(3), MBRule(p_max=3, A=2)):
            spec = spec_from_total_variance(rule, 1.0, V0, 30)
            lo, hi = price(spec, rule, zero)
            assert lo == 0.0 and hi == 0.0, rule.kind

    def test_one_step_band_chord(self):
        lo, hi = band_bounds(BinomialBandRule(u=1.1, d=0.9), 1, 1.0, CALL)
        assert hi == pytest.approx(0.05, abs=1e-15)
        assert lo == pytest.approx(0.05, abs=1e-15)

    def test_zero_strike_call_replicates_forward(self):
        rule = MARule(2)
        spec = spec_from_total_variance(rule, 1.0, V0, 40)
        lo, hi = price(spec, rule, Payoff.call(0.0))
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_duality_same_code_path(self):
        rule = MARule(2)
        spec = spec_from_total_variance(rule, 1.0, V0, 25)
        grid = build_grid(spec)
        b_call = compute_bounds(grid, rule, CALL)
        b_neg = compute_bounds(grid, rule, Negated(CALL))
        w = np.isfinite(b_call.upper)
        assert np.array_equal(b_call.lower[w], -b_neg.upper[w])
        assert np.array_equal(b_call.upper[w], -b_neg.lower[w])

    def test_nonnegative_payoff_gives_nonnegative_upper(self):
        rule = MBRule(p_max=2, A=2)
        spec = spec_from_total_variance(rule, 1.0, V0, 20, lam=(10, 20))
        bounds = compute_bounds(build_grid(spec), rule, BFLY)
        vals = bounds.upper[np.isfinite(bounds.upper)]
        assert (vals >= 0.0).all()

    def test_interval_order(self):
        for rule in (MARule(2), MBRule(p_max=3, A=2)):
            spec = spec_from_total_variance(rule, 1.0, V0, 30)
            bounds = compute_bounds(build_grid(spec), rule, BFLY)
            w = np.isfinite(bounds.upper)
            assert (bounds.lower[w] <= bounds.upper[w] + 1e-12).all()

    def test_butterfly_bounds_inside_payoff_range(self):
        # The payoff peaks at (k2 - k1) / 2, which caps both bounds.
        for rule in (bjn_rule(), MARule(3)):
            spec = spec_from_total_variance(rule, 1.0, V0, 50)
            lo, hi = price(spec, rule, BFLY)
            assert 0.0 <= lo <= hi <= 0.05 + 1e-12

    def test_terminal_column_equals_payoff(self):
        rule = MARule(2)
        spec = spec_from_total_variance(rule, 1.0, V0, 12)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, CALL)
        for k in grid.column_ks(12):
            z = CALL.value_at(grid.price(k))
            assert bounds.upper_at(k, 12) == z
            assert bounds.lower_at(k, 12) == z
            assert bounds.provenance_at(k, 12) == "TERMINAL_PAYOFF"

    def test_liquidation_column_dominance(self):
        rule = MARule(1)
        spec = unit_spec(rule, 40, 40, lam=(20, 40), step=math.sqrt(V0 / 40))
        grid = build_grid(spec)
        for z in (CALL, BFLY):
            bounds = compute_bounds(grid, rule, z)
            for k in range(-20, 21):
                if not np.isfinite(bounds.upper[20, k + 40]):
                    continue
                zv = z.value_at(grid.price(k))
                assert bounds.upper_at(k, 20) >= zv - 1e-12
                assert bounds.lower_at(k, 20) <= zv + 1e-12

    def test_local_superhedge_inequality(self):
        rule = MARule(2)
        spec = spec_from_total_variance(rule, 1.0, V0, 25)
        grid = build_grid(spec)
        bounds = compute_bounds(grid, rule, CALL)
        checked = 0
        for j in range(25):
            for k in grid.column_ks(j):
                if bounds.provenance_at(k, j) != "CONTINUATION":
                    continue
                up, sl = bounds.upper_at(k, j), bounds.slope_up_at(k, j)
                lo, sd = bounds.lower_at(k, j), bounds.slope_dn_at(k, j)
                s = grid.price(k)
                for kk, jj in reachable(spec, rule, (k, j)):
                    ds = grid.price(kk) - s
                    assert up + sl * ds >= bounds.upper_at(kk, jj) - 1e-9
                    assert lo - sd * ds <= bounds.lower_at(kk, jj) + 1e-9
                    checked += 1
        assert checked > 1000

    def test_banded_equals_generic(self):
        cases = [
            (bjn_rule(), dict(n1=6, n2=6)),
            (MARule(2), dict(n1=6, n2=6)),
            (MARule(2, allow_flat=True), dict(n1=4, n2=6)),
            (MARule(3, allow_flat=True), dict(n1=5, n2=8)),
            (MBRule(p_max=2, A=2), dict(n1=8, n2=8, lam=(4, 8))),
            (inject_arbitrage(bjn_rule(), 0.4, seed=12), dict(n1=8, n2=8)),
            (inject_arbitrage(MARule(3), 0.3, seed=5), dict(n1=9, n2=9, lam=(5, 9))),
            # A base band and an arbitrage band share dk = 0 under different masks.
            (inject_arbitrage(MARule(2, allow_flat=True), 0.3, seed=5), dict(n1=9, n2=9, lam=(5, 9))),
            # Every reachable vertex selected; the cone never meets the grid's edge.
            (inject_arbitrage(MARule(2), 1.0, seed=3), dict(n1=16, n2=8, lam=(4, 8))),
            # dk = 0 in all three classes, and the stop runs on a three-class column.
            (inject_arbitrage(MARule(2, allow_flat=True), 1.0, seed=3), dict(n1=16, n2=8, lam=(4, 8))),
            # Bands with the same dk merge by max.
            (OverlapRule(), dict(n1=4, n2=4)),
            (OverlapRule(), dict(n1=6, n2=6, lam=(3, 6))),
            (DoubleStepRule(), dict(n1=6, n2=6)),
            # Column 5 has no move at all and is a liquidation column; its
            # unreachable predecessors on column 3 are priced through it.
            (DoubleStepRule(), dict(n1=6, n2=6, lam=(5, 6))),
            # Column n2 - 1 has only the flat move.
            (FlatTailRule(), dict(n1=6, n2=6)),
            (FlatTailRule(), dict(n1=6, n2=6, lam=(3, 6))),
        ]
        for rule, kw in cases:
            spec = unit_spec(rule, **kw)
            grid = build_grid(spec)
            for z in (CALL, PUT, BFLY):
                a = compute_bounds(grid, rule, z)
                b = generic_bounds(grid, rule, z)
                for arr_a, arr_b in ((a.upper, b.upper), (a.lower, b.lower)):
                    both = np.isfinite(arr_a) & np.isfinite(arr_b)
                    assert np.array_equal(np.isfinite(arr_a), np.isfinite(arr_b))
                    assert np.allclose(arr_a[both], arr_b[both], rtol=1e-12, atol=1e-13)
                assert np.array_equal(a.prov, b.prov), (rule.kind, z.kind)
        # Overlapping same-dk bands: the banded bound must not fall below the oracle's.
        rule = OverlapRule()
        spec = unit_spec(rule, 4, 4)
        for z in (CALL, PUT, BFLY, Payoff.butterfly(0.95, 1.1)):
            hi = compute_bounds(build_grid(spec), rule, z).upper_at(0, 0)
            assert hi >= brute_force_upper(spec, rule, z) * (1 - 1e-12), z

    def test_unit_jump_bounds_coincide_bitwise(self):
        rule = bjn_rule()
        for n2 in (10, 50):
            spec = spec_from_total_variance(rule, 1.0, V0, n2)
            lo, hi = price(spec, rule, CALL)
            assert lo == hi

    def test_not_zero_neutral_propagates_vertex(self):
        rule = MARule(3)
        spec = unit_spec(rule, 5, 10)
        with pytest.raises(ModelValidationError) as want:
            price(spec, rule, CALL)  # the audit explains the sweep's failure
        with pytest.raises(ModelValidationError) as got:
            compute_bounds(build_grid(spec), rule, CALL)
        assert str(got.value) == str(want.value)
        # Not 0-neutral at the k = -5 edge: the report holds the reachable
        # unpriced vertex of highest j, then lowest k.
        assert (-5, 9) in got.value.report.not_zero_neutral

    @pytest.mark.parametrize("fn", [price, compute_bounds, generic_bounds],
                             ids=["price", "compute_bounds", "generic_bounds"])
    def test_audit_only_when_root_unpriced(self, monkeypatch, fn):
        calls = []

        def counted(spec, rule):
            calls.append(spec)
            return validate_model(spec, rule)

        def run(spec):
            return fn(spec if fn is price else build_grid(spec), rule, CALL)

        monkeypatch.setattr("trajbounds.engine.validate_model", counted)
        rule = MARule(3)
        run(unit_spec(rule, 10, 10, lam=(5, 10)))
        assert calls == []
        spec = unit_spec(rule, 5, 10)
        with pytest.raises(ModelValidationError) as got:
            run(spec)
        assert len(calls) == 1
        with pytest.raises(ModelValidationError) as want:
            validate_model(spec, rule).raise_if_failed()
        assert str(got.value) == str(want.value)

    def test_flat_only_column_priced(self):
        rule = FlatTailRule()
        spec = unit_spec(rule, 5, 5)
        _, hi = price(spec, rule, CALL)
        assert hi == 0.024994792968420724

    def test_stuck_vertices_on_liquidation_column_stop(self):
        # Every move advances two columns, so column 5 of 6 has none; on a
        # liquidation column each of its vertices stops, reachable or not.
        rule = DoubleStepRule()
        grid = build_grid(unit_spec(rule, 6, 6, lam=(3, 5, 6)))
        for method, bounds in SWEEPS.items():
            b = bounds(grid, rule, CALL)
            for k in grid.column_ks(5):
                z = CALL.value_at(grid.price(k))
                assert b.provenance_at(k, 5) == "Q_MAX", (method, k)
                assert b.upper_at(k, 5) == z == b.lower_at(k, 5), (method, k)

    def test_forced_stop_is_valid(self):
        # Column 4 of 5 has no move; as a liquidation column it ends every
        # trajectory that reaches it, so the model is valid and priced.
        rule = DoubleStepRule()
        spec = unit_spec(rule, 5, 5, lam=(4, 5))
        report = validate_model(spec, rule)
        assert report.ok
        assert (report.codes[4] == -1).all()
        lo, hi = price(spec, rule, CALL)
        want_hi = brute_force_upper(spec, rule, CALL)
        assert want_hi == pytest.approx(0.024994792968420707, abs=1e-15)
        assert hi == pytest.approx(want_hi, rel=0, abs=1e-12)
        assert lo == pytest.approx(-brute_force_upper(spec, rule, Negated(CALL)), rel=0, abs=1e-12)

    def test_convex_upper_passthrough_is_bitwise(self):
        # Continuation dominates intrinsic for convex payoffs, so intermediate
        # liquidation columns never bind the upper bound.
        rule = MBRule(p_max=3, A=2)
        d0 = math.sqrt(V0 / 40)
        single = spec_for_rule(rule, 1.0, d0, d0, 40, 40, lam=(40,))
        cum = spec_for_rule(rule, 1.0, d0, d0, 40, 40, lam=(10, 20, 30, 40))
        for z in (CALL, PUT):
            _, hs = price(single, rule, z)
            _, hc = price(cum, rule, z)
            assert hs == hc


    @pytest.mark.parametrize("make_payoff", [
        lambda spec: Payoff.from_table({spec.price(k): math.nan if k == 0 else 0.0
                                        for k in range(-4, 5)}),
        lambda spec: Payoff.from_table({spec.price(k): math.inf if k == 2 else 0.0
                                        for k in range(-4, 5)}),
        lambda spec: Payoff("CALL", k1=math.nan),  # past Payoff.call's strike check
    ], ids=["nan_table", "inf_table", "nan_strike"])
    def test_non_finite_payoff_rejected(self, make_payoff):
        rule = bjn_rule()
        spec = unit_spec(rule, 4, 4)
        with pytest.raises(ValueError, match="price level k="):
            price(spec, rule, make_payoff(spec))

    @pytest.mark.parametrize("value", [6e299, -6e299, 1e260])
    def test_sentinel_sized_payoff_rejected(self, value):
        # Values this large would be read as the engine's "uncomputed"
        # sentinels: 6e299 gave a NaN bound, 1e260 gave lower > upper.
        rule = bjn_rule()
        spec = unit_spec(rule, 4, 4)
        z = Payoff.from_table({spec.price(k): value if k == 0 else 0.0 for k in range(-4, 5)})
        with pytest.raises(ValueError, match="price level k=0"):
            price(spec, rule, z)

    @pytest.mark.parametrize("method", SWEEPS)
    def test_payoff_read_once_as_terminal_row(self, method):
        # Both sweeps and every inner liquidation column read the one terminal
        # row: 2 * w(n2) + 1 payoff evaluations per compute_bounds.
        class CountingPayoff:
            def __init__(self):
                self.calls = 0

            def value_at(self, s):
                self.calls += 1
                return CALL.value_at(s)

        rule = MARule(2)
        spec = unit_spec(rule, 8, 8, lam=(3, 6, 8))
        grid = build_grid(spec)
        z = CountingPayoff()
        b = SWEEPS[method](grid, rule, z)
        assert z.calls == 2 * spec.column_half_width(spec.n2) + 1
        ref = SWEEPS[method](grid, rule, CALL)
        for name in ("upper", "lower", "slope_up", "slope_dn", "prov"):
            assert np.array_equal(getattr(b, name), getattr(ref, name), equal_nan=True)


class TestPriceOnly:
    def test_price_holds_no_surface(self):
        # A (N2+1) x (2N1+1) float surface at N2 = 2000 alone is 122 MiB.
        rule = bjn_rule()
        spec = spec_from_total_variance(rule, 1.0, V0, 2000)
        tracemalloc.start()
        try:
            price(spec, rule, CALL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"

    def test_price_equals_compute_bounds_bitwise(self):
        rules = [MARule(p, allow_flat=f) for p in (1, 2, 3, 8) for f in (False, True)]
        rules += [MBRule(p_max=3, A=2), DoubleStepRule(), FlatTailRule(), OverlapRule()]
        rules += [inject_arbitrage(MARule(3, allow_flat=f), fraction, seed)
                  for f in (False, True) for fraction in (0.1, 0.3) for seed in (1, 7)]
        grids = [(10, 10, None), (10, 10, (4, 7, 10)), (5, 12, None), (5, 12, (6, 12))]
        priced = 0
        for rule in rules:
            for n1, n2, lam in grids:
                spec = unit_spec(rule, n1, n2, lam=lam)
                for z in (CALL, PUT, Payoff.butterfly(0.95, 1.1)):
                    case = (rule, n1, n2, lam, z)
                    try:
                        want = compute_bounds(build_grid(spec), rule, z).price_interval()
                    except ModelValidationError as e:
                        # The audit's text is the model's: the slow reference sweep checks it once.
                        for fn in (price, generic_bounds) if z is CALL else (price,):
                            with pytest.raises(ModelValidationError) as got:
                                fn(spec if fn is price else build_grid(spec), rule, z)
                            assert str(got.value) == str(e), case
                        continue
                    assert np.array(price(spec, rule, z)).tobytes() == np.array(want).tobytes(), case
                    priced += 1
        assert priced > 150

    def test_failing_price_runs_only_the_audit(self, monkeypatch):
        calls = []
        monkeypatch.setattr("trajbounds.engine.compute_bounds",
                            lambda *args, **kwargs: calls.append(args))
        rule = MARule(3)
        spec = unit_spec(rule, 5, 10)
        with pytest.raises(ModelValidationError) as got:
            price(spec, rule, CALL)
        assert calls == []
        with pytest.raises(ModelValidationError) as want:
            validate_model(spec, rule).raise_if_failed()
        assert str(got.value) == str(want.value)

    def test_flat_zero_sign_pinned(self):
        # A window maximum taken in reversed row order gives -0.0 here.
        rule = inject_arbitrage(MARule(3, allow_flat=True), 0.3, 12)
        spec = spec_for_rule(rule, 1.0, 0.05, 0.05, 40, 40)
        lo, _ = price(spec, rule, Payoff.butterfly(0.95, 1.1))
        assert lo == 0.0 and math.copysign(1.0, lo) == 1.0

    def test_band_past_max_dj_rejected(self):
        # The sweep keeps only the next max_dj rows, so a longer band is an error.
        class Understated(OverlapRule):
            max_dj = 2

        rule = Understated()
        with pytest.raises(ValueError, match=r"band \(1, 2, 3\)"):
            price(unit_spec(rule, 4, 4), rule, CALL)


class NanAbove:
    """A call that is NaN at prices above 1.5."""

    def value_at(self, s):
        return math.nan if s > 1.5 else CALL.value_at(s)


class TestPriceAll:
    SPOTS = (0.8, 0.9, 1.0, 1.1, 1.2)

    @staticmethod
    def separately(spec, rule, points):
        """price() of each point on its own spec, or the error it raises."""
        out = []
        for s0, z, *lam in points:
            try:
                out.append(price(dataclasses.replace(spec, s0=s0, lam=lam[0] if lam else spec.lam), rule, z))
            except (ValueError, ArithmeticError) as e:
                out.append((type(e), str(e)))
        return out

    @pytest.mark.parametrize("rule", [
        bjn_rule(), MARule(3), MARule(3, allow_flat=True), MBRule(3, 2),
        inject_arbitrage(MARule(3), 0.1, 1)], ids=["BJN", "MA3", "MA3-flat", "MB3A2", "inject"])
    @pytest.mark.parametrize("n2", [20, 60])
    @pytest.mark.parametrize("full_cone", [False, True])
    def test_lanes_equal_separate_prices_bitwise(self, rule, n2, full_cone):
        # repr of both floats, so zero signs count; a permuted point order
        # permutes the results and nothing else.
        step = math.sqrt(V0 / n2)
        spec = spec_for_rule(rule, 1.0, step, step, rule.p * n2 if full_cone else n2, n2,
                             lam=(n2 // 2, n2))
        points = [(s0, z) for s0 in self.SPOTS for z in (CALL, PUT, BFLY)]
        want = self.separately(spec, rule, points)
        assert all(isinstance(w[0], float) for w in want)
        assert repr(price_all(spec, rule, points)) == repr(want)
        order = np.random.default_rng(n2).permutation(len(points)).tolist()
        assert repr(price_all(spec, rule, [points[i] for i in order])) == repr([want[i] for i in order])

    @pytest.mark.parametrize("rule", [
        bjn_rule(), MARule(3), MARule(2, allow_flat=True), MBRule(3, 2),
        inject_arbitrage(MARule(3), 0.1, 1)], ids=["BJN", "MA3", "MA2-flat", "MB3A2", "inject"])
    @pytest.mark.parametrize("n2", [20, 60])
    def test_mixed_lam_lanes_equal_separate_prices_bitwise(self, rule, n2):
        # Each lane stops on its own liquidation columns (1 to 5 of them).
        step = math.sqrt(V0 / n2)
        spec = spec_for_rule(rule, 1.0, step, step, n2, n2)
        lams = [(n2,), (n2 // 2, n2), (1, n2 // 3, n2 - 1, n2), tuple(range(n2 // 5, n2 + 1, n2 // 5))]
        points = [(s0, z, lam) for s0 in (0.9, 1.0, 1.1) for z in (CALL, PUT, BFLY) for lam in lams]
        want = self.separately(spec, rule, points)
        assert all(isinstance(w[0], float) for w in want)
        assert repr(price_all(spec, rule, points)) == repr(want)
        order = np.random.default_rng(n2).permutation(len(points)).tolist()
        assert repr(price_all(spec, rule, [points[i] for i in order])) == repr([want[i] for i in order])
        # A point without a lam stops on spec.lam.
        assert repr(price_all(spec, rule, [p[:2] if p[2] == spec.lam else p for p in points])) == repr(want)

    @pytest.mark.parametrize("bad", [(10, 5, 20), (5, 10), (10, 10, 20), ()])
    def test_bad_lam_raises_grid_spec_error(self, bad):
        rule = MARule(3)
        spec = unit_spec(rule, 20, 20)
        with pytest.raises(ValueError) as want:
            dataclasses.replace(spec, lam=bad)
        with pytest.raises(ValueError) as got:
            price_all(spec, rule, [(1.0, CALL, (10, 20)), (1.0, CALL, bad), (1.0, BFLY)])
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_audit_runs_on_first_unpriced_point(self):
        # A double-step rule has no move from column 4 of 5: only a stop there prices it.
        rule = DoubleStepRule()
        spec = unit_spec(rule, 5, 5)
        points = [(1.0, CALL, (4, 5)), (1.1, BFLY, (2, 5)), (0.9, CALL), (1.0, PUT, (1, 2, 3, 4, 5))]
        priced = self.separately(spec, rule, points)
        assert [isinstance(w[0], float) for w in priced] == [True, False, False, True]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
            first = next(i for i in order if not isinstance(priced[i][0], float))
            s0, _, *lam = points[first]
            with pytest.raises(ModelValidationError) as want:
                price(dataclasses.replace(spec, s0=s0, lam=lam[0] if lam else spec.lam), rule, CALL)
            with pytest.raises(ModelValidationError) as got:
                price_all(spec, rule, [points[i] for i in order])
            assert str(got.value) == str(want.value)
            assert got.value.report.spec == want.value.report.spec
            assert got.value.report.summary() == want.value.report.summary()

    def test_invalid_model_raises_price_error(self):
        rule = MARule(3)
        spec = unit_spec(rule, 5, 10)
        with pytest.raises(ModelValidationError) as want:
            price(spec, rule, CALL)
        with pytest.raises(ModelValidationError) as got:
            price_all(spec, rule, [(s0, z) for s0 in self.SPOTS for z in (CALL, BFLY)])
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad, text", [
        (2.0, "price level k=-4"), (-1.0, "s0 must be positive"),
        (math.nan, "top price s0 * exp(n1 * delta) is not finite")])
    def test_bad_point_raises_its_own_price_error(self, bad, text):
        z = NanAbove()  # finite on every level at s0 = 1, not at s0 = 2
        rule = bjn_rule()
        spec = unit_spec(rule, 4, 4)
        points = [(1.0, z), (bad, z), (1.1, z)]
        (_, ok), (err, msg), _ = self.separately(spec, rule, points)
        assert isinstance(ok, float) and text in msg
        with pytest.raises(err) as got:
            price_all(spec, rule, points)
        assert type(got.value) is err and str(got.value) == msg

    def test_no_points_rejected(self):
        rule = bjn_rule()
        with pytest.raises(ValueError):
            price_all(unit_spec(rule, 4, 4), rule, [])


def pair_combine_by_pairs(C, ys, em1):
    """Reference for ``engine._pair_combine``: one pair of moves at a time."""
    for a in (d for d in ys if em1[d] >= 0):
        ea = em1[a]
        for b in (d for d in ys if em1[d] <= 0 and d < a):
            eb = em1[b]
            den = ea - eb
            np.maximum(C, (-eb / den) * ys[a] + (ea / den) * ys[b], out=C)


class TestPairCombine:
    MA8 = tuple(dict.fromkeys(dk for dk, _, _ in MARule(8).bands()))  # 8 x 8 = 64 pairs

    @pytest.mark.parametrize("keys", [(0, -1, 1), (-2, -1, 0, 1, 2), (2, -1, 0, -2, 1), (-3, 3, -1, 2, 1),
                                      (2, -5), MA8, MA8 + (0,), (-1, 1), (1, -1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_equals_pair_loop_bitwise(self, keys, seed):
        # Zero signs, NaN and sentinels drawn often, so ties and their order
        # count, and so do pairs of sentinels, which round to either side of
        # the sentinel: (2, -5)'s round below it.  Every move applies
        # everywhere, so a flat move's pair counts wherever the other is the sentinel.
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, math.nan, -1e300, 0.25, -0.5, 1.0])
        em1 = {d: math.expm1(0.05 * d) for d in keys}
        for shape in ((3, 17), (6, 5), (10, 33)):  # (lanes, width)
            ys = {d: rng.choice(pool, size=shape) for d in keys}
            want = np.full(shape, -1e300)
            pair_combine_by_pairs(want, ys, em1)
            assert engine._pair_combine(ys, em1).tobytes() == want.tobytes(), shape


class TestWindowMaxima:
    """The sweep nests windows that share their last row; each must still equal
    one flat read of its buffer rows, zero signs and NaN bits included."""

    RULES = {"ma8": MARule(8), "mb3a2": MBRule(3, 2), "mb5a3_flat": MBRule(5, 3, allow_flat=True)}

    @pytest.mark.parametrize("name", list(RULES))
    @pytest.mark.parametrize("top", [1, 2, 5, 9, 30, 63, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_nested_equals_flat_bitwise(self, name, top, seed):
        rule = self.RULES[name]
        top = min(top, rule.max_dj)  # a cut at the last column: n2 - j < max_dj
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, math.nan, -math.nan, 1e300, -1e300, 0.25, -0.5, 1.0])
        buf = rng.choice(pool, size=(rule.max_dj, 3, 17))
        bands = [(dk, lo, min(hi, top), None) for dk, lo, hi in rule.bands() if lo <= min(hi, top)]
        em1 = {d: math.expm1(0.05 * d) for d in range(-rule.p, rule.p + 1)}
        _, wins = engine._column_plan(bands, rule.max_dj, rule.max_dj, em1, {}, {})
        got = engine._window_maxima(buf, wins)
        assert set(got) == {(lo, min(hi, top)) for _, lo, hi in rule.bands() if lo <= min(hi, top)}
        for (lo, hi), y in got.items():
            assert y.tobytes() == buf[lo - 1: hi].max(axis=0).tobytes(), (lo, hi)


class ZeroLagRule(TransitionRule):
    """Test-only rule whose down band starts at dj = 0, outside the sweep's buffer."""

    kind = "ZEROLAG"
    p = 1
    max_dj = 1

    def bands(self):
        return ((-1, 0, 1), (1, 1, 1))


class NoMoveRule(ZeroLagRule):
    """Test-only rule with no band at all: no vertex has a move."""

    kind = "NOMOVE"

    def bands(self):
        return ()


class UpOnlyRule(ZeroLagRule):
    """Test-only rule whose only move is up: no vertex is 0-neutral."""

    kind = "UPONLY"

    def bands(self):
        return ((1, 1, 1),)


class OffGridPairRule(ZeroLagRule):
    """Test-only rule whose two moves both leave a grid with n1 = 2 from its
    top rows; at step 0.05 their chord of two sentinels rounds below the sentinel."""

    kind = "OFFGRIDPAIR"
    p = 5

    def bands(self):
        return ((-5, 1, 1), (2, 1, 1))


class LateBandRule(ZeroLagRule):
    """Test-only rule whose second and third bands reach past ``max_dj``."""

    kind = "LATEBAND"
    max_dj = 2

    def bands(self):
        return ((-1, 1, 2), (1, 1, 4), (1, 2, 5))


class FarBandRule(ZeroLagRule):
    """Test-only rule whose last band starts two columns past ``max_dj``."""

    kind = "FARBAND"
    max_dj = 2

    def bands(self):
        return ((-1, 1, 2), (1, 1, 2), (1, 4, 4))


class TestBandErrors:
    """A band outside ``1 <= dj <= max_dj`` fails in the first column that
    reads it, naming the first such band in band order, cut at that column."""

    FNS = {"price": price, "compute_bounds": lambda spec, rule, z: compute_bounds(build_grid(spec), rule, z),
           "price_all": lambda spec, rule, z: price_all(spec, rule, [(1.0, z), (1.1, PUT)])}

    @pytest.mark.parametrize("rule, text", [(LateBandRule(), "band (1, 1, 3) leaves 1 <= dj <= max_dj=2"),
                                            (FarBandRule(), "band (1, 4, 4) leaves 1 <= dj <= max_dj=2")],
                             ids=["late", "far"])
    @pytest.mark.parametrize("fn", list(FNS))
    def test_first_bad_band_in_order(self, fn, rule, text):
        spec = unit_spec(rule, 12, 12)  # columns past the bands' reach share one plan
        for _ in range(2):
            with pytest.raises(ValueError) as got:
                self.FNS[fn](spec, rule, CALL)
            assert type(got.value) is ValueError and str(got.value) == text


class TestVertexClasses:
    def test_injected_sweep_shares_plans_across_columns(self, monkeypatch):
        # A plan per vertex class and cut, as for the base rule's one class,
        # not one per column with a selected vertex.
        built, plan = [], engine._sweep_plan
        monkeypatch.setattr(engine, "_sweep_plan", lambda *args: built.append(1) or plan(*args))
        counts = []
        for rule in (MARule(3), inject_arbitrage(MARule(3), 0.3, seed=1)):
            built.clear()
            spec = spec_from_total_variance(rule, 1.0, V0, 60)
            price_all(spec, rule, [(s0, CALL) for s0 in (0.9, 1.0, 1.1)])
            counts.append(len(built))
        assert counts[1] <= 3 * counts[0], counts


class TestYieldedContinuation:
    """Each ``C`` the sweep yields is NaN or at least the sentinel -1e300, and
    exactly the sentinel where no pair of moves exists (or, with a flat move,
    that move's value).  Every move of a vertex class applies at each of its
    vertices, which lie in no other class and span its slice of the cone from
    the first to the last; a vertex in no class has no move."""

    @pytest.mark.parametrize("rule", [FlatTailRule(), UpOnlyRule(), inject_arbitrage(MARule(3), 0.1, 1),
                                      OffGridPairRule()],
                             ids=["flat_tail", "up_only", "injected_ma3", "off_grid_pair"])
    @pytest.mark.parametrize("n1, n2, lam", [(10, 10, (4, 10)), (2, 10, None)], ids=["wide", "narrow"])
    @pytest.mark.parametrize("reach", [False, True], ids=["grid", "live_cone"])
    def test_continuation_floored_at_sentinel(self, rule, n1, n2, lam, reach):
        spec = unit_spec(rule, n1, n2, lam=lam)
        grid = build_grid(spec)
        moves = column_moves(spec, rule)
        Z = engine._terminal_rows(PUT, grid.prices.tolist(), -n1)
        for j, cone, _, classes, C, _ in engine._sweep_banded(grid, rule, Z, reach=reach):
            assert (np.isnan(C) | (C >= -1e300)).all(), j
            covered = np.zeros(C.shape[1], dtype=bool)
            for mask, span, ys in classes:
                at = np.zeros_like(covered)
                at[span] = True if mask is None else mask
                assert at[span.start] and at[span.stop - 1] and not (covered & at).any(), j
                assert all(y.shape == (len(Z), span.stop - span.start) for y in ys.values()), j
                covered |= at
                assert set(ys) == {dk for dk, _, _, m in moves[j] if m is None or m[cone][at].all()}, j
                if not any(b < a for a in ys if a >= 0 for b in ys if b <= 0):
                    lone = C[:, at]
                    want = ys[0][:, at[span]] if 0 in ys else np.full_like(lone, -1e300)
                    assert (np.isnan(lone) | (lone == want)).all(), j
            assert (np.isnan(C[:, ~covered]) | (C[:, ~covered] == -1e300)).all(), j


class TestSweptCone:
    """Each column is swept on its live cone widened to a multiple of 16 rows; the
    widened rows are not vertices, so ``C`` is NaN exactly there on grids whose
    live vertices are all priced."""

    @pytest.mark.parametrize("rule, n2", [(MARule(8), 200), (bjn_rule(), 300)], ids=["ma8", "bjn"])
    def test_nan_exactly_on_swept_rows_off_live_cone(self, rule, n2):
        spec = spec_from_total_variance(rule, 1.0, V0, n2)
        grid = build_grid(spec)
        live = engine._live_cone(column_moves(spec, rule), grid.half_widths.tolist())
        Z = engine._terminal_rows(CALL, grid.prices.tolist(), -spec.n1)
        kinds = set()
        for j, cone, _, _, C, _ in engine._sweep_banded(grid, rule, Z, reach=True):
            off = np.abs(np.arange(cone.start, cone.stop) - spec.n1) > live[j]
            assert (np.isnan(C) == off).all(), j
            kinds.add(bool(off.any()))
        assert kinds == {False, True}  # columns swept as wide as their live cone, and wider


class TestLiveCone:
    """``price_all`` sweeps column j only where ``|k| <= live[j]``; every
    vertex reachable from the root must lie inside that cone."""

    @staticmethod
    def swept_widths(monkeypatch, spec, rule, points):
        """The ``live`` widths that ``price_all``'s sweep computes and sweeps."""
        cone, seen = engine._live_cone, []
        monkeypatch.setattr(engine, "_live_cone", lambda moves, widths:
                            seen.append(cone(moves, widths)) or seen[-1])
        table, built = engine.column_moves, []
        monkeypatch.setattr(engine, "column_moves", lambda spec, rule: built.append(1) or table(spec, rule))
        try:
            price_all(spec, rule, points)
        except ModelValidationError:
            pass
        (live,) = seen
        assert len(built) == 1  # one cut band table per sweep
        return np.array(live)

    def test_reachable_vertices_inside_live_widths(self, monkeypatch):
        rules = [MARule(p, allow_flat=f) for p in (1, 2, 3, 8) for f in (False, True)]
        rules += [MBRule(p_max=3, A=2), DoubleStepRule(), FlatTailRule(), OverlapRule()]
        rules += [inject_arbitrage(MARule(3, allow_flat=f), fraction, seed)
                  for f in (False, True) for fraction in (0.1, 0.3) for seed in (1, 7)]
        cases = [(rule, n1, n2, lam) for rule in rules
                 for n1, n2, lam in [(10, 10, None), (10, 10, (4, 7, 10)), (5, 12, None), (5, 12, (6, 12))]]
        cases += [(bjn_rule(), 300, 300, None), (MARule(8), 200, 200, None)]
        narrower = 0
        for rule, n1, n2, lam in cases:
            spec = unit_spec(rule, n1, n2, lam=lam)
            live = self.swept_widths(monkeypatch, spec, rule, [(1.0, CALL)])
            ks = np.arange(-n1, n1 + 1)
            outside = reachable_masks(spec, rule) & (np.abs(ks) > live[:, None])
            assert not outside.any(), (rule, n1, n2, lam, np.argwhere(outside)[:3])
            assert (live <= build_grid(spec).half_widths).all()
            narrower += bool((live < build_grid(spec).half_widths).any())
        assert narrower > 10  # the cone is a real restriction on most of the corpus

    def test_deep_ma8_lanes_equal_compute_bounds_roots(self):
        rule = MARule(8)
        spec = spec_from_total_variance(rule, 1.0, V0, 200)
        points = [(s0, z) for s0 in TestPriceAll.SPOTS for z in (CALL, PUT, BFLY)]
        want = [compute_bounds(build_grid(dataclasses.replace(spec, s0=s0)), rule, z).price_interval()
                for s0, z in points]
        assert repr(price_all(spec, rule, points)) == repr(want)

    @pytest.mark.parametrize("fn", [price, lambda spec, rule, z: compute_bounds(build_grid(spec), rule, z)],
                             ids=["price", "compute_bounds"])
    def test_band_below_one_step_rejected(self, fn):
        # The reach bound divides by each band's lo: a zero lo must still
        # meet the sweep's own check, not a ZeroDivisionError.
        rule = ZeroLagRule()
        with pytest.raises(ValueError, match=r"band \(-1, 0, 1\) leaves 1 <= dj <= max_dj=1"):
            fn(unit_spec(rule, 4, 4), rule, CALL)

    @pytest.mark.parametrize("rule", [NoMoveRule(), UpOnlyRule()], ids=["no_band", "up_only"])
    @pytest.mark.parametrize("fn", [price, lambda spec, rule, z: compute_bounds(build_grid(spec), rule, z)],
                             ids=["price", "compute_bounds"])
    def test_one_sided_rule_raises_audit_error(self, fn, rule):
        # With no band the reach bound is 0 on every column, and with no
        # down-move no pair forms: the root stays unpriced, and the audit
        # explains it.
        spec = unit_spec(rule, 4, 4)
        with pytest.raises(ModelValidationError) as want:
            validate_model(spec, rule).raise_if_failed()
        with pytest.raises(ModelValidationError) as got:
            fn(spec, rule, CALL)
        assert str(got.value) == str(want.value)


class TestPriceHorizons:
    """``price_horizons`` reads horizon h off the one sweep of ``spec``, at column
    ``n2 - h``; each horizon equals ``price_all`` on its own spec, zero signs included."""

    @staticmethod
    def horizon_spec(spec, h, lam=None):
        """``spec`` cut to horizon h: its last h columns, rooted at column n2 - h, with
        the liquidation columns ``lam`` (by default ``spec.lam``) among them."""
        return dataclasses.replace(spec, n1=min(spec.n1, spec.p * h), n2=h,
                                   lam=[c - spec.n2 + h for c in lam or spec.lam if c > spec.n2 - h])

    def by_horizon(self, spec, rule, points, horizons):
        """``price_all`` of each horizon on its own spec, or the error it raises."""
        out = []
        for h in horizons:
            try:
                out.append(price_all(self.horizon_spec(spec, h), rule,
                                     [(s0, z, self.horizon_spec(spec, h, *lam).lam) for s0, z, *lam in points]))
            except (ValueError, ArithmeticError) as e:
                out.append((type(e), str(e)))
        return out

    @pytest.mark.parametrize("rule", [
        bjn_rule(), MARule(2), MARule(2, allow_flat=True), MARule(3), MARule(3, allow_flat=True),
        MBRule(3, 2), MBRule(4, 3)], ids=["BJN", "MA2", "MA2-flat", "MA3", "MA3-flat", "MB3A2", "MB4A3"])
    @pytest.mark.parametrize("unit", [1, 5, 7, 15])
    @pytest.mark.parametrize("steps", [1, 2, 6])
    def test_vol_scan_horizons_equal_per_horizon_sweeps(self, rule, unit, steps):
        # vol-scan's lanes: single (N,) and cumulative (unit, ..., N) liquidation
        # columns, each horizon unit*j priced before on its own n1 = n2 = unit*j grid.
        n, step = unit * steps, math.sqrt(V0 / 120)
        horizons = [unit * j for j in range(1, steps + 1)]
        points = [(s0, z, lam) for s0 in (0.95, 1.0, 1.07) for z in (CALL, PUT, BFLY)
                  for lam in ((n,), tuple(horizons))]
        got = engine.price_horizons(spec_for_rule(rule, 1.0, step, step, n, n), rule, points, horizons)
        for h, row in zip(horizons, got):
            old = [(s0, z, (h,) if len(lam) == 1 else tuple(horizons[: h // unit])) for s0, z, lam in points]
            assert repr(row) == repr(price_all(spec_for_rule(rule, 1.0, step, step, h, h), rule, old)), h

    @pytest.mark.parametrize("rule, n1", [
        (DoubleStepRule(), 10), (FlatTailRule(), 10), (OverlapRule(), 10), (UpOnlyRule(), 10),
        (NoMoveRule(), 10), (MARule(3), 10), (MARule(3), 30)],
        ids=["double_step", "flat_tail", "overlap", "up_only", "no_band", "MA3-n1=10", "MA3-n1=30"])
    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_each_horizon_equals_its_own_spec(self, rule, n1, order):
        # Values, or the audit error of the first unpriced (horizon, point), the
        # horizons taken in the order given.
        spec = unit_spec(rule, n1, 10, lam=(5, 10))
        points = [(1.0, PUT), (1.05, CALL, (10,)), (0.9, BFLY, (1, 4, 9, 10)), (1.0, CALL, (2, 8, 10))]
        horizons = list(range(1, 11))[::order]
        want = self.by_horizon(spec, rule, points, horizons)
        failed = [w for w in want if not isinstance(w, list)]
        if not failed:
            assert repr(engine.price_horizons(spec, rule, points, horizons)) == repr(want)
            return
        with pytest.raises(failed[0][0]) as got:
            engine.price_horizons(spec, rule, points, horizons)
        assert type(got.value) is failed[0][0] and str(got.value) == failed[0][1]

    def test_up_only_rule_raises_per_horizon_error(self):
        rule = UpOnlyRule()
        spec = unit_spec(rule, 8, 8)
        for horizons in ([3, 8], [8, 3]):
            with pytest.raises(ModelValidationError) as want:
                price_all(self.horizon_spec(spec, horizons[0]), rule, [(1.0, CALL)])
            with pytest.raises(ModelValidationError) as got:
                engine.price_horizons(spec, rule, [(1.0, CALL)], horizons)
            assert str(got.value) == str(want.value)
            assert got.value.report.spec == want.value.report.spec

    @pytest.mark.parametrize("rule, n1, p, horizons, text", [
        (inject_arbitrage(MARule(3), 0.1, 1), 20, 3, [10, 20],
         "horizons below n2=20 need a rule whose bands serve every column"),
        (MARule(3), 5, 3, [4, 6, 20], "horizon 6's grid clips its live cone |k| <= 6"),
        (OffGridPairRule(), 20, 1, [20, 2], "horizon 2's grid clips its live cone |k| <= 10"),
        (MARule(3), 20, 3, [0, 20], "horizons must lie in 1..n2=20, got [0, 20]"),
        (MARule(3), 20, 3, [20, 21], "horizons must lie in 1..n2=20, got [20, 21]"),
    ], ids=["injected", "n1_clips", "p_clips", "zero", "past_n2"])
    def test_bad_horizons_rejected(self, rule, n1, p, horizons, text):
        spec = dataclasses.replace(unit_spec(rule, n1, 20), p=p)
        with pytest.raises(ValueError) as got:
            engine.price_horizons(spec, rule, [(1.0, CALL)], horizons)
        assert type(got.value) is ValueError and str(got.value) == text

    @pytest.mark.parametrize("rule, n1, horizons", [
        (inject_arbitrage(MARule(3), 0.1, 1), 20, [20]), (MARule(3), 10, [10, 3])], ids=["injected", "n1_edge"])
    def test_horizons_at_the_edge_allowed(self, rule, n1, horizons):
        # Horizon n2 on any rule; a horizon grid exactly as wide as its live cone,
        # priced even though the full model, whose cone the grid clips, is not 0-neutral.
        spec = unit_spec(rule, n1, 20, lam=(8, 20))
        points = [(s0, z) for s0 in (0.9, 1.0) for z in (CALL, BFLY)]
        want = self.by_horizon(spec, rule, points, horizons)
        assert repr(engine.price_horizons(spec, rule, points, horizons)) == repr(want)


class TestInjectArbitrage:
    def test_fraction_zero_identity_prices(self):
        base = bjn_rule()
        mod = inject_arbitrage(base, 0.0, seed=1)
        spec = spec_from_total_variance(base, 1.0, V0, 20)
        assert price(spec, mod, CALL) == price(spec, base, CALL)

    def test_price_iff_valid_on_injected_corpus(self):
        # Injection leaves some of these models invalid (18 of the 80 when
        # this test was written): price() must fail on exactly those, with
        # the audit's own message.
        for fraction in (0.1, 0.3):
            for seed in range(40):
                rule = inject_arbitrage(MARule(3), fraction, seed)
                spec = spec_from_total_variance(rule, 1.0, V0, 20)
                report = validate_model(spec, rule)
                if report.ok:
                    price(spec, rule, CALL)
                    continue
                with pytest.raises(ModelValidationError) as got:
                    price(spec, rule, CALL)
                with pytest.raises(ModelValidationError) as want:
                    report.raise_if_failed()
                assert str(got.value) == str(want.value), (fraction, seed)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            inject_arbitrage(bjn_rule(), -0.1, 1)
        with pytest.raises(ValueError):
            inject_arbitrage(bjn_rule(), 1.01, 1)

    def test_full_injection_classifies_arbitrage(self):
        from trajbounds.model import NodeClass, classify_node
        mod = inject_arbitrage(bjn_rule(), 1.0, seed=2)
        spec = unit_spec(mod, 6, 6)
        sel = mod.selection(spec)
        assert sel
        for k, j in sel:
            got = classify_node(spec, mod, (k, j))
            want = NodeClass.NEGATIVE_ARBITRAGE if k >= 0 else NodeClass.POSITIVE_ARBITRAGE
            assert got is want


class TestBandLattice:
    def test_more_levels_keep_convex_value(self):
        # Interior band levels lie under the chord of a convex payoff.
        two = band_bounds(BinomialBandRule(1.1, 0.9, levels=2), 5, 1.0, CALL)
        five = band_bounds(BinomialBandRule(1.1, 0.9, levels=5), 5, 1.0, CALL)
        assert five[1] == pytest.approx(two[1], rel=1e-12)

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            BinomialBandRule(0.9, 1.1)
        with pytest.raises(ValueError):
            band_bounds(BinomialBandRule(1.1, 0.9), 0, 1.0, CALL)

    @pytest.mark.parametrize("payoff", [
        Payoff("CALL", k1=math.nan), Payoff("PUT", k1=math.inf), Payoff.put(6e299),
    ], ids=["nan", "inf", "sentinel_sized"])
    def test_bad_payoff_rejected(self, payoff):
        with pytest.raises(ValueError, match="price level k="):
            band_bounds(BinomialBandRule(1.1, 0.9, levels=3), 3, 1.0, payoff)

    @pytest.mark.parametrize("s0", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_s0_rejected(self, s0):
        with pytest.raises(ValueError, match="s0"):
            band_bounds(BinomialBandRule(1.1, 0.9), 3, s0, CALL)

    def test_no_up_move_not_zero_neutral(self):
        # u is one ulp above 1: rounding puts the top level at or below s.
        rule = BinomialBandRule(float(np.nextafter(1.0, 2.0)), 0.5, levels=5)
        with pytest.raises(NotZeroNeutralError):
            band_bounds(rule, 2, 1.0, CALL)

    @pytest.mark.parametrize("levels", [3, 5, 7])
    @pytest.mark.parametrize("payoff", [CALL, PUT, BFLY], ids=["call", "put", "butterfly"])
    def test_matches_per_node_hull(self, levels, payoff):
        rule = BinomialBandRule(1.1, 0.9, levels=levels)
        lo, hi = band_bounds(rule, 6, 1.0, payoff)
        ref_lo, ref_hi = per_node_band_bounds(rule, 6, 1.0, payoff)
        assert lo <= hi
        assert lo == pytest.approx(ref_lo, rel=1e-12)
        assert hi == pytest.approx(ref_hi, rel=1e-12)


def per_node_band_bounds(rule, steps, s0, payoff):
    """Reference band lattice: one oracle hull step per node."""
    L = rule.levels
    rho = (rule.u / rule.d) ** (1.0 / (L - 1))

    def at(i, m):
        return s0 * rule.d ** i * rho ** m

    def root(values):
        for i in range(steps - 1, -1, -1):
            cur = []
            for m in range(i * (L - 1) + 1):
                s = at(i, m)
                pts = [(at(i + 1, m + t), values[m + t]) for t in range(L)]
                sol = hull_fast([q for q in pts if q[0] > s], [q for q in pts if q[0] <= s], s)
                cur.append(sol.value)
            values = cur
        return values[0]

    z = [payoff.value_at(at(steps, m)) for m in range(steps * (L - 1) + 1)]
    return -root([-v for v in z]), root(z)
