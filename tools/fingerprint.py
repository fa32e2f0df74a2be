"""Bitwise fingerprint of the engine's observable results, one sha256 per case family.

A case family is one rule on one grid shape (``n2``, ``n1``, liquidation
columns).  Its hash covers the rule's ``kind``, ``repr`` (the class name for
the test-only rules, whose ``repr`` holds an address), ``p`` and ``max_dj``,
and, for that spec:

* the ``validate_model`` report (counts, class codes, arbitrage and
  not-0-neutral vertices, ``ok``, summary text), the ``reachable_masks``
  array (which, unlike the class codes, tells unreachable vertices from
  terminal ones and forced stops), and the ``reachable`` list, the
  ``bands_at`` tuple and, off the terminal column, the ``classify_node``
  class of every in-grid vertex (every fourth column when ``n2 > 9``);
* for each payoff, the five ``BoundsGrid`` arrays by ``tobytes``, of
  ``engine.compute_bounds`` (labelled "banded") and, at ``n2 <= 9`` for three
  of the payoffs, of the reference sweep ``reference.generic_bounds``
  (labelled "generic");
* for each payoff, the ``price()`` interval and the bytes that
  ``BoundsGrid.to_csv`` writes for the banded bounds;
* the ``sample_trajectory`` paths for seeds 0-19 and, for the call, the
  ``simulate_pnl`` final, payoff and rows of each path on both sides;
* for MA, MB and BJN rules, the exit code, error text, CSV and SVG of
  ``trajbounds hedge-sim --svg`` on the family's ``config_text`` with
  ``n_paths`` set;
* the type and text of every error any of these raise.

Each family is hashed twice: on the rule's own spec, and on that spec with
the grid's cone slope ``p`` set to ``rule.p - 1`` (``rule.p + 2`` when that
is 0), whose line carries a ``p=`` field; a cone narrower than the moves
cuts them off the grid, a wider one holds vertices the root cannot reach.

More families hash ``bands()``, ``kind``, ``repr``, ``p`` and ``max_dj`` of
MA and MB rules for p = 1..9, the ``ModifiedRule`` selections, and the exit
code, error text, CSV and SVG of ``merton-scan``, ``arbitrage-scan`` and
``vol-scan --svg`` on one valid and one invalid config each, of three more
valid ``vol-scan`` configs (MA p = 2 with flat moves, BJN, and the shape of
perfbench's ``scan`` workload: MB p = 3, A = 2, ``vol_ref_steps`` 120,
``vol_unit`` 15, ``vol_steps`` 6, with a fixed strike), and of two
``arbitrage-scan`` configs at the shape of that workload (MA p = 3, N2 = 60,
K = 1, five spots, fractions 0, 0.1 and 0.3) for injection seed 1, which
validates, and seed 7, which fails validation.  One more
line hashes ``engine.price_all`` of 5 spots x (call, put, butterfly) at the
two large shapes of perfbench's ``deep`` workload (MA p = 8 at N2 = 200 and
BJN at N2 = 1200, n1 = N2), where the sweep's live cone is narrower than the
grid.  Three ``plans`` lines hash ``engine.price_all`` of the same 15 points
and the five ``engine.compute_bounds`` arrays of the call and the butterfly
on rules whose band lists vary by column: MA p = 8 at N2 = 40, where every
column's dj windows are cut at the last column; MB p = 5, A = 3 with flat
moves; and MA p = 3 with injected arbitrage (fraction 0.1, seed 1) and
liquidation columns (20, 40).  A last line hashes the exit code, error text,
CSV and SVG of ``hedge-sim --svg`` at the shape of perfbench's ``hedge``
workload (MA p = 3, N2 = N1 = 200, Lambda = (100, 200), 500 paths), where the
live cone is narrower than the grid and Lambda has an inner column, with a
fixed seed and strike.  A ``band_bounds`` line hashes
``engine.band_bounds`` of the call, the put and the butterfly on
``BinomialBandRule(1.1, 0.9)`` with 2-5 levels over 1-20 steps, and its
``NotZeroNeutralError`` when rounding leaves no up-move.  To check that
a refactor leaves every result
bitwise equal, run the script on both trees and compare::

    python3 tools/fingerprint.py > after.txt     # in each checkout
    diff before.txt after.txt

Each family line ends in the ``validate_model`` verdict of its spec: ``ok``,
``invalid``, or ``-`` when there is no report (the spec is rejected).  A
deliberate change to what an invalid model raises should then change only
lines that end in ``invalid``.

It imports the package from ``src/``, and the test-only rules from
``tests/test_model.py`` and the reference sweep from ``tests/reference.py``,
of the checkout it lives in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from trajbounds import cli, engine, hedge  # noqa: E402
from trajbounds.grid import Payoff, build_grid  # noqa: E402
from trajbounds.model import (  # noqa: E402
    BinomialBandRule, MARule, MBRule, ModifiedRule, classify_node, reachable, reachable_masks, spec_for_rule,
    spec_from_total_variance, validate_model)
from test_model import DoubleStepRule, FlatTailRule, OverlapRule  # noqa: E402
import reference  # noqa: E402

STEP = 0.05
N2S = (4, 9, 16, 25)
GENERIC = ("put", "fly", "nan")  # payoffs that also run the generic sweep (n2 <= 9)
SWEEPS = {"banded": engine.compute_bounds, "generic": reference.generic_bounds}
SEEDS = range(20)  # sampled trajectories per family
N_PATHS = 20  # hedge-sim paths per family
DEEP = ((MARule(8), 200), (MARule(1), 1200))  # perfbench deep's shapes, n1 = N2, v0 = 0.0067
SPOTS = (0.9, 0.95, 1.0, 1.05, 1.1)
PLANS = {  # name: (rule, N2, liquidation columns), n1 = N2, v0 = 0.0067
    "MA8-n2=40": (MARule(8), 40, None),
    "MB5A3-flat-n2=40": (MBRule(5, 3, allow_flat=True), 40, None),
    "inject(MA3,0.1,1)-n2=40-lam=20,40": (engine.inject_arbitrage(MARule(3), 0.1, 1), 40, (20, 40)),
}
HEDGE = ("model = ma\np = 3\nN2 = 200\nv0 = 0.0067\ns0 = 1.0\nK = 1.0123\nLambda = 100,200\n"
         "n_paths = 500\neps_short_hi = 0.0\neps_long_lo = 0.0\nseed = 4242\n")  # perfbench hedge's shape
BAD_MODEL = "model = ma\np = 3\nN1 = 5\nN2 = 10\nv0 = 0.0067\n"  # not 0-neutral at k = -5
SCANS = {  # command: (valid config, invalid config)
    "merton-scan": ("model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nsigma = 0.2\nT = 0.1667\n",
                    BAD_MODEL),
    "arbitrage-scan": ("model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nseed = 1\n"
                       "fraction_list = 0,0.1,0.3\n", BAD_MODEL),
    "vol-scan": ("model = mb\np = 3\nA = 2\nvol_unit = 5\nvol_steps = 4\nK1 = 0.98\n",
                 "vol_unit = 5\nvol_steps = 2\nK = nan\n"),
}
MORE_SCANS = {  # (command, label): further config
    ("vol-scan", "valid-ma2-flat"): "model = ma\np = 2\nallow_flat = true\nvol_unit = 5\nvol_steps = 4\n",
    ("vol-scan", "valid-bjn"): "model = bjn\nvol_unit = 6\nvol_steps = 3\n",
    ("vol-scan", "valid-scan-shape"): "model = mb\np = 3\nA = 2\nv0 = 0.0067\nvol_ref_steps = 120\nvol_unit = 15\n"
                                      "vol_steps = 6\nK = 1.0123\nK1 = 1.0123\nK2 = 1.1123\n",  # perfbench scan's vol job
}
ARB_SHAPE = ("model = ma\np = 3\nN2 = 60\nv0 = 0.0067\nK = 1\ns0_list = 0.85,0.93,1.0,1.07,1.15\n"
             "fraction_list = 0,0.1,0.3\nseed = {}\n")  # perfbench scan's arbitrage job
MORE_SCANS["arbitrage-scan", "valid-scan-shape-seed1"] = ARB_SHAPE.format(1)
MORE_SCANS["arbitrage-scan", "invalid-scan-shape-seed7"] = ARB_SHAPE.format(7)  # not 0-neutral at (-60, 58)


def rules():
    yield "BJN", MARule(1)
    for p in (2, 3):
        yield f"MA{p}", MARule(p)
        yield f"MA{p}-flat", MARule(p, allow_flat=True)
    yield "MB3A2", MBRule(3, 2)
    yield "MB4A3-flat", MBRule(4, 3, allow_flat=True)
    yield "DOUBLE", DoubleStepRule()
    yield "FLATTAIL", FlatTailRule()
    yield "OVERLAP", OverlapRule()
    for name, base in (("MA3", MARule(3)), ("MA2-flat", MARule(2, allow_flat=True)),
                       ("BJN", MARule(1))):
        for frac in (0.1, 0.3):
            for seed in (1, 7):
                yield f"inject({name},{frac},{seed})", engine.inject_arbitrage(base, frac, seed)


def shapes(p: int, n2: int):
    for n1 in sorted({n2, max(1, p * n2 // 2), p * n2}):
        for lam in ((n2,), (n2 // 2, n2), tuple(range(3, n2, 3)) + (n2,)):
            yield n1, tuple(sorted(set(x for x in lam if x >= 1)))


def payoffs(grid):
    return (("call", Payoff.call(1.0)), ("put", Payoff.put(1.0)),
            ("fly", Payoff.butterfly(0.95, 1.05)),
            ("zero", Payoff.from_table(dict.fromkeys(grid.prices.tolist(), 0.0))),
            ("nan", Payoff("CALL", k1=float("nan"))))  # past Payoff.call's strike check


class Hasher:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *items):
        for x in items:
            self.h.update(x.tobytes() if isinstance(x, np.ndarray) else repr(x).encode())
            self.h.update(b"\0")

    def call(self, fn, *args, **kwargs):
        """Run fn, hash its error if it raises, and return its result (or None)."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, ArithmeticError, KeyError) as e:
            self.add("error", type(e).__name__, str(e))
            return None


def identity(rule) -> tuple:
    name = repr(rule) if dataclasses.is_dataclass(rule) else type(rule).__name__
    return rule.kind, name, rule.p, rule.max_dj


def run_cli(h: Hasher, command: str, text: str, tmp: Path) -> None:
    """Hash the exit code, error text, CSV and SVG of ``trajbounds <command> --svg``."""
    cfg = tmp / "run.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp), "--svg"])
    h.add(command, code, err.getvalue())
    stem = command.replace("-", "_")
    for path in (tmp / f"{stem}.csv", tmp / f"{stem}.svg"):
        h.add(path.name, path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)


def family(h: Hasher, rule, n1: int, n2: int, lam, p: int, tmp: Path) -> str:
    """Hash one family, on a spec with cone slope ``p``; return its verdict: ``ok``,
    ``invalid`` or ``-`` (no report)."""
    h.add(identity(rule))
    spec = h.call(spec_for_rule, rule, s0=1.0, delta=STEP, beta=STEP, n1=n1, n2=n2, lam=lam)
    if spec is not None and p != rule.p:
        spec = h.call(dataclasses.replace, spec, p=p)
    if spec is None:
        return "-"
    rep = h.call(validate_model, spec, rule)
    if rep is not None:
        h.add(rep.rule_kind, sorted((c.value, n) for c, n in rep.counts.items()), rep.codes,
              rep.arbitrage_vertices, rep.not_zero_neutral, rep.ok, rep.summary())
    h.add("reach", h.call(reachable_masks, spec, rule))
    for j in range(0, n2 + 1, 1 if n2 <= 9 else 4):
        w = spec.column_half_width(j)
        for k in range(-w, w + 1):
            h.add((k, j), h.call(reachable, spec, rule, (k, j)),
                  h.call(rule.bands_at, spec, k, j),
                  h.call(classify_node, spec, rule, (k, j)) if j < n2 else None)
    grid = build_grid(spec)
    trajs = [h.call(hedge.sample_trajectory, rule, grid, seed) for seed in SEEDS]
    h.add("trajectories", [t and (t.vertices, t.prices) for t in trajs])
    for name, payoff in payoffs(grid):
        h.add(name)
        for method in ("banded", "generic") if n2 <= 9 and name in GENERIC else ("banded",):
            b = h.call(SWEEPS[method], grid, rule, payoff)
            if b is None:
                continue
            h.add(method, b.upper, b.lower, b.slope_up, b.slope_dn, b.prov)
            if method == "banded":
                b.to_csv(tmp / "surface.csv")
                h.add("to_csv", (tmp / "surface.csv").read_bytes())
            if method == "banded" and name == "call":
                lo, hi = b.price_interval()
                for traj in filter(None, trajs):
                    for side, x0 in ((hedge.SHORT, hi), (hedge.LONG, lo)):
                        ledger = h.call(hedge.simulate_pnl, b, traj, side, x0)
                        h.add(ledger and (ledger.final, ledger.payoff, ledger.rows))
        h.add("price", h.call(engine.price, spec, rule, payoff))
    if rule.kind in ("BJN", "MA", "MB"):
        run_cli(h, "hedge-sim", cli.config_text(rule, spec, Payoff.call(1.0))
                + f"n_paths = {N_PATHS}\n", tmp)
    return "-" if rep is None else "ok" if rep.ok else "invalid"


def main() -> None:
    h = Hasher()
    for p in range(1, 10):
        for flat in (False, True):
            ma = MARule(p, allow_flat=flat)
            h.add(identity(ma), ma.bands())
            for a in range(1, p * p + 1):
                mb = h.call(MBRule, p, a, allow_flat=flat)
                h.add(a, None if mb is None else (identity(mb), mb.bands()))
    print(f"bands {h.h.hexdigest()}")

    for name, rule in rules():
        if not isinstance(rule, ModifiedRule):
            continue
        h = Hasher()
        for n2 in N2S:
            for n1, _ in shapes(rule.p, n2):
                spec = spec_for_rule(rule, 1.0, STEP, STEP, n1, n2)
                h.add((n1, n2), sorted(rule.selection(spec)))
        print(f"selection {name} {h.h.hexdigest()}")

    h = Hasher()
    for rule, n2 in DEEP:
        spec = spec_from_total_variance(rule, 1.0, 0.0067, n2)
        points = [(s0, z) for s0 in SPOTS
                  for z in (Payoff.call(1.0), Payoff.put(1.0), Payoff.butterfly(0.95, 1.05))]
        h.add(identity(rule), n2, np.array(h.call(engine.price_all, spec, rule, points)))
    print(f"price_all deep {h.h.hexdigest()}")

    for name, (rule, n2, lam) in PLANS.items():
        h = Hasher()
        spec = spec_from_total_variance(rule, 1.0, 0.0067, n2, lam)
        points = [(s0, z) for s0 in SPOTS
                  for z in (Payoff.call(1.0), Payoff.put(1.0), Payoff.butterfly(0.95, 1.05))]
        h.add(identity(rule), np.array(h.call(engine.price_all, spec, rule, points)))
        for z in (Payoff.call(1.0), Payoff.butterfly(0.95, 1.05)):
            b = h.call(engine.compute_bounds, build_grid(spec), rule, z)
            if b is not None:
                h.add(b.upper, b.lower, b.slope_up, b.slope_dn, b.prov)
        print(f"plans {name} {h.h.hexdigest()}")

    h = Hasher()
    for levels in range(2, 6):
        for steps in range(1, 21):
            for z in (Payoff.call(1.0), Payoff.put(1.0), Payoff.butterfly(0.95, 1.05)):
                h.add(levels, steps, h.call(engine.band_bounds, BinomialBandRule(1.1, 0.9, levels), steps, 1.0, z))
    h.add(h.call(engine.band_bounds, BinomialBandRule(float(np.nextafter(1.0, 2.0)), 0.5, 5), 2, 1.0,
                 Payoff.call(1.0)))  # no up-move: NotZeroNeutralError
    print(f"band_bounds {h.h.hexdigest()}")

    with tempfile.TemporaryDirectory() as tmp:
        for name, rule in rules():
            for n2 in N2S:
                for n1, lam in shapes(rule.p, n2):
                    for p in (rule.p, rule.p - 1 or rule.p + 2):
                        h = Hasher()
                        verdict = family(h, rule, n1, n2, lam, p, Path(tmp))
                        print(f"{name} n2={n2} n1={n1} lam={','.join(map(str, lam))}"
                              f"{'' if p == rule.p else f' p={p}'} {h.h.hexdigest()} {verdict}")
        for command, configs in SCANS.items():
            for label, text in zip(("valid", "invalid"), configs):
                h = Hasher()
                run_cli(h, command, text, Path(tmp))
                print(f"scan {command} {label} {h.h.hexdigest()}")
        for (command, label), text in MORE_SCANS.items():
            h = Hasher()
            run_cli(h, command, text, Path(tmp))
            print(f"scan {command} {label} {h.h.hexdigest()}")
        h = Hasher()
        run_cli(h, "hedge-sim", HEDGE, Path(tmp))
        print(f"hedge-sim hedge {h.h.hexdigest()}")


if __name__ == "__main__":
    main()
