import math
import tracemalloc

import numpy as np
import pytest

from trajbounds.engine import (
    band_bounds,
    compute_bounds,
    convex_hull_step,
    hull_fast,
    inject_arbitrage,
    price,
)
from trajbounds.grid import Payoff, build_grid
from trajbounds.oracle import brute_force_upper
from trajbounds import oracle
from trajbounds.model import (
    BinomialBandRule,
    MARule,
    MBRule,
    ModelValidationError,
    NotZeroNeutralError,
    bjn_rule,
    reachable,
    reachable_masks,
    spec_for_rule,
    spec_from_total_variance,
    validate_model,
)
from test_model import DoubleStepRule, FlatTailRule, OverlapRule

V0 = 0.0067
CALL = Payoff.call(1.0)
PUT = Payoff.put(1.0)
BFLY = Payoff.butterfly(1.0, 1.1)


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
        b_neg = compute_bounds(grid, rule, CALL.negated())
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
                a = compute_bounds(grid, rule, z, method="banded")
                b = compute_bounds(grid, rule, z, method="generic")
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
        with pytest.raises(ModelValidationError):
            price(spec, rule, CALL)  # the audit explains the sweep's failure
        grid = build_grid(spec)
        with pytest.raises(NotZeroNeutralError) as e:
            compute_bounds(grid, rule, CALL)
        assert e.value.vertex is not None

    def test_reach_pass_only_when_root_unpriced(self, monkeypatch):
        calls = []

        def counted(spec, rule):
            calls.append(spec)
            return reachable_masks(spec, rule)

        monkeypatch.setattr("trajbounds.engine.reachable_masks", counted)
        rule = MARule(3)
        compute_bounds(build_grid(unit_spec(rule, 10, 10, lam=(5, 10))), rule, CALL)
        assert calls == []
        # Not 0-neutral at the k = -5 edge: the named vertex is the reachable
        # unpriced one of highest j, then lowest k.
        grid = build_grid(unit_spec(rule, 5, 10))
        for method in ("banded", "generic"):
            calls.clear()
            with pytest.raises(NotZeroNeutralError) as e:
                compute_bounds(grid, rule, CALL, method=method)
            assert e.value.vertex == (-5, 9), method
            assert len(calls) == 1, method

    def test_audit_only_when_root_unpriced(self, monkeypatch):
        calls = []

        def counted(spec, rule):
            calls.append(spec)
            return validate_model(spec, rule)

        monkeypatch.setattr("trajbounds.engine.validate_model", counted)
        rule = MARule(3)
        price(unit_spec(rule, 10, 10, lam=(5, 10)), rule, CALL)
        assert calls == []
        spec = unit_spec(rule, 5, 10)
        with pytest.raises(ModelValidationError) as got:
            price(spec, rule, CALL)
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
        for method in ("banded", "generic"):
            b = compute_bounds(grid, rule, CALL, method=method)
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
        assert lo == pytest.approx(-brute_force_upper(spec, rule, CALL.negated()), rel=0, abs=1e-12)

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
        lambda spec: Payoff.call(math.nan),
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

    @pytest.mark.parametrize("method", ["banded", "generic"])
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
        b = compute_bounds(grid, rule, z, method=method)
        assert z.calls == 2 * spec.column_half_width(spec.n2) + 1
        ref = compute_bounds(grid, rule, CALL, method=method)
        for name in ("upper", "lower", "slope_up", "slope_dn", "prov"):
            assert np.array_equal(getattr(b, name), getattr(ref, name), equal_nan=True)

    def test_unknown_method_rejected(self):
        rule = MARule(2)
        grid = build_grid(unit_spec(rule, 4, 4))
        with pytest.raises(ValueError, match="'banded' or 'generic'"):
            compute_bounds(grid, rule, CALL, method="bogus")


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
                    except NotZeroNeutralError:
                        with pytest.raises(ModelValidationError):
                            price(spec, rule, z)
                        continue
                    assert np.array(price(spec, rule, z)).tobytes() == np.array(want).tobytes(), case
                    priced += 1
        assert priced > 150

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
        Payoff.call(math.nan), Payoff.put(math.inf), Payoff.put(6e299),
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
                sol = oracle.hull_fast([q for q in pts if q[0] > s], [q for q in pts if q[0] <= s], s)
                cur.append(sol.value)
            values = cur
        return values[0]

    z = [payoff.value_at(at(steps, m)) for m in range(steps * (L - 1) + 1)]
    return -root([-v for v in z]), root(z)
