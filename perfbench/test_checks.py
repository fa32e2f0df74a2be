"""Tests of the benchmark's own checks: each accepts a right result and
rejects a deliberately wrong one.

Run from the checkout root: PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math

import pytest

import checks

S0, K = 1.0, 1.0


def test_crr_one_step_by_hand():
    delta = 0.1
    u, d = math.exp(delta), math.exp(-delta)
    q = (1 - d) / (u - d)
    assert checks.crr_price(S0, K, delta, 1) == pytest.approx(q * (u - K), abs=1e-15)
    assert checks.crr_price(S0, K, delta, 1, "PUT") == pytest.approx((1 - q) * (K - d), abs=1e-15)


def test_crr_parity_and_rejects_unknown_kind():
    call = checks.crr_price(S0, 1.02, 0.01, 200)
    put = checks.crr_price(S0, 1.02, 0.01, 200, "PUT")
    assert call - put == pytest.approx(S0 - 1.02, abs=1e-14)
    with pytest.raises(ValueError):
        checks.crr_price(S0, K, 0.01, 10, "DIGITAL")


def test_check_crr_rejects_upper_off_by_1e_6():
    ref = checks.crr_price(S0, K, 0.01, 100)
    assert checks.check_crr((ref, ref), ref) == []
    assert checks.check_crr((ref, ref + 1e-6), ref)
    assert checks.check_crr((ref - 1e-6, ref), ref)
    assert checks.check_crr((math.nan, ref), ref)


def test_check_interval_rejects_inverted_and_nan():
    assert checks.check_interval((0.01, 0.02)) == []
    assert checks.check_interval((0.02, 0.01))
    assert checks.check_interval((math.nan, math.nan))


def test_check_envelope():
    assert checks.check_envelope((0.21, 0.3), 1.2, 1.0) == []
    assert checks.check_envelope((0.2 - 1e-6, 0.3), 1.2, 1.0)  # below intrinsic value
    assert checks.check_envelope((0.2, 1.2 + 1e-6), 1.2, 1.0)  # above s0
    assert checks.check_envelope((0.3, 0.2), 1.2, 1.0)  # inverted


def test_check_parity_rejects_upper_off_by_1e_6():
    call, put = (0.03, 0.05), (0.04, 0.06)  # s0 - K = -0.01
    assert checks.check_parity(call, put, 1.0, 1.01) == []
    assert checks.check_parity((0.03, 0.05 + 1e-6), put, 1.0, 1.01)
    assert checks.check_parity((0.03 - 1e-6, 0.05), put, 1.0, 1.01)


def test_check_widening():
    assert checks.check_widening([(0.03, 0.03), (0.02, 0.04), (0.01, 0.05)]) == []
    assert checks.check_widening([(0.03, 0.03), (0.02, 0.04), (0.021, 0.05)])
    assert checks.check_widening([(0.02, 0.04), (0.02, 0.04 - 1e-6)])


def test_check_contains():
    assert checks.check_contains((0.01, 0.05), (0.02, 0.04)) == []
    assert checks.check_contains((0.01, 0.05), (0.02, 0.05 + 1e-6))
    assert checks.check_contains((0.02 + 1e-6, 0.05), (0.02, 0.04))


def test_check_hedge_rejects_ledger_past_its_payoff():
    assert checks.check_hedge("SHORT", 0.1, 0.1) == []
    assert checks.check_hedge("SHORT", 0.1 - 1e-6, 0.1)
    assert checks.check_hedge("LONG", 0.1, 0.1) == []
    assert checks.check_hedge("LONG", 0.1 + 1e-6, 0.1)
    assert checks.check_hedge("FLAT", 0.1, 0.1)


def test_checks_pass_on_trajbounds_outputs():
    tb = pytest.importorskip("trajbounds")
    bjn = tb.bjn_rule()
    spec = tb.spec_from_total_variance(bjn, S0, 0.0067, 80)
    iv = tb.price(spec, bjn, tb.Payoff.call(1.01))
    assert checks.check_crr(iv, checks.crr_price(S0, 1.01, spec.delta, 80)) == []
    ma = tb.MARule(3)
    spec = tb.spec_from_total_variance(ma, S0, 0.0067, 40)
    call = tb.price(spec, ma, tb.Payoff.call(1.01))
    put = tb.price(spec, ma, tb.Payoff.put(1.01))
    assert checks.check_envelope(call, S0, 1.01) == []
    assert checks.check_parity(call, put, S0, 1.01) == []
