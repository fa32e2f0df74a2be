"""Metamorphic invariants of the bounds at N2 in the hundreds, past the oracle's reach.

Each property draws a rule (BJN, MA with or without flat moves, or MB), a
grid of N2 = 100..400 columns with n1 = N2 and one inner liquidation column, a
spot and a strike.  All but widening in p also draw MA p = 2, 3 with a seeded
fraction 0.1 or 0.3 of arbitrage nodes injected (INJ), on N2 = 100..200 with
n1 = p * N2: the full cone, so every move stays in the grid and the model
stays 0-neutral.  Prices on one grid shape come from one ``price_all``
sweep.  The examples are derandomized and no example database is kept, so
every run checks the same cases.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from trajbounds.engine import compute_bounds, inject_arbitrage, price, price_all
from trajbounds.grid import Payoff, build_grid, payoff_eval
from trajbounds.hedge import LONG, SHORT, ledger_finals, sample_trajectories
from trajbounds.model import MARule, MBRule, spec_for_rule, spec_from_total_variance

V0 = 0.0067
TOL = 1e-12
CHECK = settings(derandomize=True, database=None, deadline=None, max_examples=15)


@dataclass(frozen=True)
class Case:
    family: str  # BJN | MA | MB | INJ
    p: int
    a: int
    flat: bool  # MA only: flat moves allowed
    n2: int
    inner: int  # the inner liquidation column
    s0: float
    strike: float
    fraction: float = 0.0  # INJ only: the injected share and its seed
    seed: int = 0

    def rule(self, p=None):
        p = self.p if p is None else p
        if self.family == "INJ":
            return inject_arbitrage(MARule(p), self.fraction, self.seed)
        return MBRule(p, self.a) if self.family == "MB" else MARule(p, allow_flat=self.flat)

    def spec(self, rule, s0=None):
        s0 = self.s0 if s0 is None else s0
        lam = (self.inner, self.n2)
        if self.family == "INJ":
            step = (V0 / self.n2) ** 0.5
            return spec_for_rule(rule, s0, step, step, rule.p * self.n2, self.n2, lam)
        return spec_from_total_variance(rule, s0, V0, self.n2, lam=lam)


@st.composite
def cases(draw, injected=True):
    family = draw(st.sampled_from(["BJN", "MA", "MB", "INJ"] if injected else ["BJN", "MA", "MB"]))
    if family == "INJ":
        p, n2 = draw(st.sampled_from([2, 3])), draw(st.integers(100, 200))
        return Case(family, p, 1, False, n2, draw(st.integers(1, n2 - 1)),
                    draw(st.floats(0.8, 1.25)), draw(st.floats(0.8, 1.25)),
                    draw(st.sampled_from([0.1, 0.3])), draw(st.integers(0, 10**6)))
    p = 1 if family == "BJN" else draw(st.integers(2, 4))
    a = draw(st.integers(2, p * p)) if family == "MB" else 1
    flat = draw(st.booleans()) if family == "MA" else False
    n2 = draw(st.integers(100, 400))
    return Case(family, p, a, flat, n2, draw(st.integers(1, n2 - 1)),
                draw(st.floats(0.8, 1.25)), draw(st.floats(0.8, 1.25)))


@CHECK
@given(cases())
def test_put_call_parity(case):
    rule = case.rule()
    spec = case.spec(rule)
    (c_lo, c_hi), (p_lo, p_hi) = price_all(
        spec, rule, [(case.s0, Payoff.call(case.strike)), (case.s0, Payoff.put(case.strike))])
    assert c_lo <= c_hi and p_lo <= p_hi
    assert abs((c_hi - p_hi) - (case.s0 - case.strike)) <= TOL
    assert abs((c_lo - p_lo) - (case.s0 - case.strike)) <= TOL


@CHECK
@given(cases(), st.floats(-2.0, 2.0))
def test_translation_by_a_constant(case, c):
    rule = case.rule()
    spec = case.spec(rule)
    call = Payoff.call(case.strike)
    shifted = Payoff.from_table({s: call.value_at(s) + c for s in build_grid(spec).prices.tolist()})
    (lo, hi), (s_lo, s_hi) = price_all(spec, rule, [(case.s0, call), (case.s0, shifted)])
    assert abs(s_lo - (lo + c)) <= TOL and abs(s_hi - (hi + c)) <= TOL


@CHECK
@given(cases(), st.floats(0.25, 8.0))
def test_homogeneity_in_spot_and_strike(case, lam):
    rule = case.rule()
    (lo, hi), (l_lo, l_hi) = price_all(case.spec(rule), rule, [
        (case.s0, Payoff.call(case.strike)), (lam * case.s0, Payoff.call(lam * case.strike))])
    assert abs(l_lo - lam * lo) <= TOL * lam and abs(l_hi - lam * hi) <= TOL * lam


@CHECK
@given(cases())
def test_lower_below_upper(case):
    rule = case.rule()
    spec = case.spec(rule)
    zs = (Payoff.call(case.strike), Payoff.butterfly(case.strike, case.strike + 0.1))
    for z, (lo, hi) in zip(zs, price_all(spec, rule, [(case.s0, z) for z in zs])):
        assert lo <= hi, z


@CHECK
@given(cases(injected=False))  # a different p draws a different selection
def test_widening_in_p(case):
    narrow, wide = case.rule(), case.rule(case.p + 1)
    z = Payoff.butterfly(case.strike, case.strike + 0.1)
    lo, hi = price(case.spec(narrow), narrow, z)
    w_lo, w_hi = price(case.spec(wide), wide, z)
    assert w_lo <= lo + TOL and hi <= w_hi + TOL


@CHECK
@given(cases(), st.integers(0, 10**6))
def test_hedges_dominate_along_sampled_paths(case, seed):
    rule = case.rule()
    spec = case.spec(rule)
    grid = build_grid(spec)
    z = Payoff.call(case.strike)
    bounds = compute_bounds(grid, rule, z)
    lo, hi = bounds.price_interval()
    trajs = sample_trajectories(rule, grid, range(seed, seed + 40))
    payoffs = [payoff_eval(z, t.terminal[0], spec) for t in trajs]
    short, = ledger_finals(bounds, trajs, SHORT, (hi,)).tolist()
    long, = ledger_finals(bounds, trajs, LONG, (lo,)).tolist()
    for f_short, f_long, pay in zip(short, long, payoffs):
        assert f_short >= pay - TOL and f_long <= pay + TOL
