import math

import pytest

from trajbounds.engine import price
from trajbounds.grid import Payoff
from trajbounds.model import MARule, MBRule, bjn_rule, spec_for_rule, spec_from_total_variance
from trajbounds.oracle import black_scholes, merton_envelope
from reference import InstanceTooLargeError, OracleReport, brute_force_upper, crr_binomial
from test_grid import Negated

V0 = 0.0067
CALL = Payoff.call(1.0)


class TestCrrBinomial:
    def test_one_step(self):
        assert crr_binomial(1.1, 0.9, 1, 1.0, CALL) == pytest.approx(0.05, abs=1e-15)

    def test_two_step_by_hand(self):
        # 0.25 * (1.21 - 1) with zero contribution from the other leaves.
        got = crr_binomial(1.1, 0.9, 2, 1.0, CALL)
        assert got == pytest.approx(0.0525, abs=1e-12)

    def test_weights_sum_to_one_effect(self):
        # A payoff identically 1 must price to 1 under any (u, d).
        one = type("One", (), {"value_at": staticmethod(lambda x: 1.0)})()
        assert crr_binomial(1.07, 0.96, 9, 1.0, one) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            crr_binomial(0.9, 1.1, 1, 1.0, CALL)
        with pytest.raises(ValueError):
            crr_binomial(1.1, 0.9, 0, 1.0, CALL)


class TestBlackScholes:
    def test_benchmark_two_month_atm(self):
        got = black_scholes(1.0, 1.0, 0.2, 2.0 / 12.0)
        assert abs(got - 0.0326) < 5e-5

    def test_zero_strike_limit(self):
        assert black_scholes(1.0, 0.0, 0.2, 1.0, "CALL") == 1.0

    def test_put_call_parity_at_the_money(self):
        c = black_scholes(1.0, 1.0, 0.3, 0.5, "CALL")
        p = black_scholes(1.0, 1.0, 0.3, 0.5, "PUT")
        assert c == pytest.approx(p, abs=1e-14)

    def test_cdf_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for s0, k, sig, t in ((1.0, 1.0, 0.2, 1 / 6), (1.2, 1.0, 0.35, 0.75),
                              (0.9, 1.1, 0.15, 2.0)):
            d1 = (math.log(s0 / k) + 0.5 * sig * sig * t) / (sig * math.sqrt(t))
            d2 = d1 - sig * math.sqrt(t)
            ref = float(s0 * mp.ncdf(d1) - k * mp.ncdf(d2))
            assert black_scholes(s0, k, sig, t) == pytest.approx(ref, abs=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            black_scholes(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            black_scholes(1.0, 1.0, 0.2, 1.0, "STRADDLE")
        for args in ((1.0, 1.0, math.nan, 1.0), (1.0, 1.0, 0.2, math.inf),
                     (math.nan, 1.0, 0.2, 1.0), (1.0, math.nan, 0.2, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                black_scholes(*args)


class TestMertonEnvelope:
    def test_call_examples(self):
        assert merton_envelope("CALL", 1.0, 1.0) == (0.0, 1.0)
        assert merton_envelope("CALL", 1.2, 1.0) == (pytest.approx(0.2), 1.2)

    def test_put_example(self):
        assert merton_envelope("PUT", 1.0, 1.0) == (0.0, 1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            merton_envelope("DIGITAL", 1.0, 1.0)

    def test_brackets_engine_prices(self):
        for rule in (bjn_rule(), MARule(2), MBRule(p_max=2, A=2)):
            for s0 in (0.9, 1.0, 1.1):
                spec = spec_from_total_variance(rule, s0, V0, 12)
                for kind, z in (("CALL", Payoff.call(1.0)), ("PUT", Payoff.put(1.0))):
                    lo, hi = price(spec, rule, z)
                    mlb, mub = merton_envelope(kind, s0, 1.0)
                    assert mlb - 1e-12 <= lo <= hi <= mub + 1e-12


class TestBruteForce:
    def test_zero_payoff(self):
        spec = spec_from_total_variance(bjn_rule(), 1.0, V0, 3)
        assert brute_force_upper(spec, bjn_rule(), Payoff.put(0.0)) == 0.0

    def test_one_step_chord_weights(self):
        rule = bjn_rule()
        spec = spec_for_rule(rule, 1.0, 0.1, 0.1, 1, 1)
        u, d = math.exp(0.1), math.exp(-0.1)
        expect = (1 - d) / (u - d) * (u - 1.0)
        got = brute_force_upper(spec, rule, CALL)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_engine_small(self):
        rule = MARule(2)
        spec = spec_from_total_variance(rule, 1.0, V0, 4)
        lo, hi = price(spec, rule, CALL)
        bf = brute_force_upper(spec, rule, CALL)
        rep = OracleReport.compare(hi, bf, "brute_force")
        assert rep.rel_diff <= 1e-9

    def test_work_guard(self):
        rule = MARule(3)
        spec = spec_from_total_variance(rule, 1.0, V0, 30)
        with pytest.raises(InstanceTooLargeError):
            brute_force_upper(spec, rule, CALL)

    def test_arbitrage_vertices_handled(self):
        from trajbounds.engine import inject_arbitrage
        mod = inject_arbitrage(bjn_rule(), 0.5, seed=8)
        spec = spec_from_total_variance(mod, 1.0, V0, 5)
        lo, hi = price(spec, mod, CALL)
        assert brute_force_upper(spec, mod, CALL) == pytest.approx(hi, rel=1e-9)
        neg = -brute_force_upper(spec, mod, Negated(CALL))
        assert neg == pytest.approx(lo, rel=1e-9)


class TestOracleReport:
    def test_diffs(self):
        rep = OracleReport.compare(1.0, 1.0 + 1e-6, "x")
        assert rep.abs_diff == pytest.approx(1e-6)
        assert rep.rel_diff == pytest.approx(1e-6, rel=1e-3)
        assert rep.method == "x"
