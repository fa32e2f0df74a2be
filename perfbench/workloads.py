"""The benchmark's workloads: fixed job lists built from a seed.

A workload is a list of jobs, each a call into a public trajbounds entry
point, plus one check over all job outputs.  Building a workload only
creates inputs (specs, payoffs, config files); it prices nothing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import trajbounds as tb
from trajbounds import cli

import checks

V0 = 0.0067  # total variance of the paper's two-month at-the-money example

# deep: one unit-jump call with N2 in the thousands, and an MA p=8 call/put
# pair at a few hundred steps.
DEEP_BJN_N2 = 1200
DEEP_MA_P = 8
DEEP_MA_N2 = 200

# scan: the paper's studies at sizes where per-call overhead dominates.
SCAN_N2 = 60
SCAN_P_LIST = (1, 3, 7)
SCAN_ARB_P = 3
SCAN_FRACTIONS = (0.0, 0.1, 0.3)
# The arbitrage-node draw is fixed, not taken from --seed: with N1 = N2 some
# injection seeds leave reachable vertices on the k = -N1 edge that are not
# 0-neutral, and arbitrage-scan then stops with a validation failure.  Seed 1
# passes.
SCAN_ARB_SEED = 1
VOL_REF_STEPS, VOL_UNIT, VOL_STEPS = 120, 15, 6

# hedge: MA p=3 with an inner liquidation column, 4 * HEDGE_PATHS ledgers.
HEDGE_P = 3
HEDGE_N2 = 200
HEDGE_LAMBDA = (100, 200)
HEDGE_PATHS = 500


@dataclass
class Workload:
    jobs: list[tuple[str, Callable[[], Any]]]
    check: Callable[[dict[str, Any]], list[str]]


def _strike(rng: random.Random) -> float:
    return round(rng.uniform(0.95, 1.05), 4)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _run_cli(args: list[str], out_dir: Path, stem: str) -> list[dict[str, str]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(args + ["--out", str(out_dir)])
    if rc != 0:
        raise RuntimeError(f"trajbounds {args[0]} exited with {rc}: {err.getvalue().strip()}")
    return _read_csv(out_dir / f"{stem}.csv")


def _write_config(path: Path, values: dict[str, object]) -> str:
    lines = []
    for key, val in values.items():
        if isinstance(val, (tuple, list)):
            val = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _pair(row: dict[str, str]) -> tuple[float, float]:
    return float(row["lower"]), float(row["upper"])


# --------------------------------------------------------------------------- #
# deep
# --------------------------------------------------------------------------- #

def deep(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    strike = _strike(rng)
    s0 = 1.0
    bjn = tb.bjn_rule()
    bjn_spec = tb.spec_from_total_variance(bjn, s0, V0, DEEP_BJN_N2)
    ma = tb.MARule(DEEP_MA_P)
    ma_spec = tb.spec_from_total_variance(ma, s0, V0, DEEP_MA_N2)
    call, put = tb.Payoff.call(strike), tb.Payoff.put(strike)
    jobs = [
        ("bjn_call", lambda: tb.price(bjn_spec, bjn, call)),
        ("ma_call", lambda: tb.price(ma_spec, ma, call)),
        ("ma_put", lambda: tb.price(ma_spec, ma, put)),
    ]

    def check(out: dict[str, Any]) -> list[str]:
        errs = []
        if "bjn_call" in out:
            reference = checks.crr_price(s0, strike, bjn_spec.delta, DEEP_BJN_N2)
            errs += checks.check_crr(out["bjn_call"], reference)
        if "ma_call" in out:
            errs += checks.check_envelope(out["ma_call"], s0, strike)
        if "ma_put" in out:
            errs += checks.check_interval(out["ma_put"])
        if "ma_call" in out and "ma_put" in out:
            errs += checks.check_parity(out["ma_call"], out["ma_put"], s0, strike)
        return errs

    return Workload(jobs, check)


# --------------------------------------------------------------------------- #
# scan
# --------------------------------------------------------------------------- #

def scan(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    s0_list = tuple(sorted(round(rng.uniform(0.8, 1.2), 4) for _ in range(5)))
    strike = 1.0
    vol_strike = _strike(rng)
    common = {"N2": SCAN_N2, "v0": V0, "K": strike, "s0_list": s0_list}
    jobs = []
    for p in SCAN_P_LIST:
        cfg = _write_config(out_dir / f"merton_p{p}.cfg", {"model": "ma", "p": p, **common})
        sub = out_dir / f"merton_p{p}"
        args = ["merton-scan", "--config", cfg, "--svg"]
        jobs.append((f"merton_p{p}", lambda a=args, d=sub: _run_cli(a, d, "merton_scan")))
    cfg = _write_config(out_dir / "arbitrage.cfg",
                        {"model": "ma", "p": SCAN_ARB_P, "fraction_list": SCAN_FRACTIONS,
                         "seed": SCAN_ARB_SEED, **common})
    args = ["arbitrage-scan", "--config", cfg, "--svg"]
    jobs.append(("arbitrage", lambda: _run_cli(args, out_dir / "arbitrage", "arbitrage_scan")))
    cfg = _write_config(out_dir / "vol.cfg",
                        {"model": "mb", "p": 3, "A": 2, "v0": V0,
                         "vol_ref_steps": VOL_REF_STEPS, "vol_unit": VOL_UNIT,
                         "vol_steps": VOL_STEPS, "K": vol_strike, "K1": vol_strike,
                         "K2": round(vol_strike + 0.1, 4)})
    vargs = ["vol-scan", "--config", cfg, "--svg"]
    jobs.append(("vol", lambda: _run_cli(vargs, out_dir / "vol", "vol_scan")))

    def check(out: dict[str, Any]) -> list[str]:
        errs = []
        by_p = {}
        for p in SCAN_P_LIST:
            rows = out.get(f"merton_p{p}")
            if rows is None:
                continue
            if [float(r["s0"]) for r in rows] != list(s0_list):
                errs.append(f"merton-scan p={p} rows do not follow s0_list")
                continue
            by_p[p] = [_pair(r) for r in rows]
            for s0, iv in zip(s0_list, by_p[p]):
                errs += checks.check_envelope(iv, s0, strike)
                if p == 1:
                    delta = math.sqrt(V0 / SCAN_N2)
                    errs += checks.check_crr(iv, checks.crr_price(s0, strike, delta, SCAN_N2))
        if len(by_p) == len(SCAN_P_LIST):
            for i in range(len(s0_list)):
                errs += checks.check_widening([by_p[p][i] for p in SCAN_P_LIST])
        rows = out.get("arbitrage")
        if rows is not None:
            if len(rows) != len(SCAN_FRACTIONS) * len(s0_list):
                errs.append(f"arbitrage-scan wrote {len(rows)} rows")
            for r in rows:
                errs += checks.check_interval(_pair(r))
            plain = [_pair(r) for r in rows if float(r["fraction"]) == 0.0]
            if SCAN_ARB_P in by_p and plain != by_p[SCAN_ARB_P]:
                errs.append("arbitrage-scan at fraction 0 differs from merton-scan")
        rows = out.get("vol")
        if rows is not None:
            table = {(r["j"], r["mode"], r["payoff"]): _pair(r) for r in rows}
            if len(table) != 4 * VOL_STEPS:
                errs.append(f"vol-scan wrote {len(table)} distinct rows")
            for (j, mode, kind), iv in table.items():
                if kind == "CALL":
                    errs += checks.check_envelope(iv, 1.0, vol_strike)
                else:
                    errs += checks.check_interval(iv)
                if mode == "single" and (j, "cumulative", kind) in table:
                    errs += checks.check_contains(table[(j, "cumulative", kind)], iv)
        return errs

    return Workload(jobs, check)


# --------------------------------------------------------------------------- #
# hedge
# --------------------------------------------------------------------------- #

def hedge(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    strike = _strike(rng)
    s0 = 1.0
    cfg = _write_config(out_dir / "hedge.cfg",
                        {"model": "ma", "p": HEDGE_P, "N2": HEDGE_N2, "v0": V0, "s0": s0,
                         "K": strike, "Lambda": HEDGE_LAMBDA, "n_paths": HEDGE_PATHS,
                         "eps_short_hi": 0.0, "eps_long_lo": 0.0, "seed": seed})
    args = ["hedge-sim", "--config", cfg, "--svg"]
    rule = tb.MARule(HEDGE_P)
    spec = tb.spec_from_total_variance(rule, s0, V0, HEDGE_N2, lam=HEDGE_LAMBDA)
    payoff = tb.Payoff.call(strike)
    surface_csv = out_dir / "surface.csv"

    def surface():
        bounds = tb.compute_bounds(tb.build_grid(spec), rule, payoff)
        bounds.to_csv(surface_csv)
        # The check streams the file; keeping its rows would inflate peak RSS.
        return bounds.grid.n_vertices, hashlib.sha256(surface_csv.read_bytes()).hexdigest()

    jobs = [
        ("hedge_sim", lambda: _run_cli(args, out_dir, "hedge_sim")),
        ("surface", surface),
    ]

    def check(out: dict[str, Any]) -> list[str]:
        errs = []
        if "surface" not in out:
            return errs
        n_vertices = out["surface"][0]
        n_rows = 0
        root = None
        with open(surface_csv, newline="", encoding="utf-8") as f:
            for r in csv.DictReader(f):
                n_rows += 1
                if r["upper"] and r["lower"]:
                    iv = _pair(r)
                    errs += checks.check_interval(iv)
                    if r["k"] == "0" and r["j"] == "0":
                        root = iv
        if n_rows != n_vertices:
            errs.append(f"surface CSV has {n_rows} rows for {n_vertices} vertices")
        if root is None:
            return errs + ["surface CSV has no root row"]
        errs += checks.check_envelope(root, s0, strike)
        ledgers = out.get("hedge_sim")
        if ledgers is None:
            return errs
        funded = {("SHORT", root[1]): 0, ("LONG", root[0]): 0}
        for r in ledgers:
            key = (r["side"], float(r["X"]))
            if key in funded:
                funded[key] += 1
                errs += checks.check_hedge(r["side"], float(r["final"]), float(r["payoff"]))
        if list(funded.values()) != [HEDGE_PATHS, HEDGE_PATHS]:
            errs.append(f"ledgers funded at the bounds: {funded}")
        return errs

    return Workload(jobs, check)


WORKLOADS = {"deep": deep, "scan": scan, "hedge": hedge}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return WORKLOADS[name](seed, out_dir)

