"""Experiment runner: deterministic CSV tables (and SVG charts) per study.

Every run is fully determined by (config, seed): scan points are computed in
task order, floats are serialized with shortest round-trip ``repr``, and the
chart writer is byte-stable.  Exit codes: 0 success, 1 model validation
failure, 2 config error: a malformed config, or any value that the model,
grid or payoff rejects.  Only :func:`main` maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import charts, engine, hedge, oracle
from .grid import Payoff, build_grid
from .model import (
    GridSpec,
    MARule,
    MBRule,
    ModelValidationError,
    NodeClass,
    TransitionRule,
    spec_for_rule,
    validate_model,
)


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _float_list(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(",") if x.strip())


# Config keys use the experiment symbols directly for traceability.
_KEY_TYPES: dict[str, Callable[[str], object]] = {
    "model": str, "payoff": str,
    "p": int, "A": int, "N1": int, "N2": int, "seed": int,
    "n_paths": int, "vol_steps": int, "vol_unit": int, "vol_ref_steps": int,
    "delta": float, "beta": float, "v0": float, "s0": float,
    "K": float, "K1": float, "K2": float, "sigma": float, "T": float,
    "eps_short_hi": float, "eps_short_lo": float,
    "eps_long_lo": float, "eps_long_hi": float,
    "allow_flat": _parse_bool,
    "Lambda": _int_list, "N2_list": _int_list, "p_list": _int_list,
    "s0_list": _float_list, "fraction_list": _float_list,
}


class ExperimentConfig:
    """Flat key-value run description parsed from a text file."""

    def __init__(self, values: dict[str, object]):
        self.values = values

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        values: dict[str, object] = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            conv = _KEY_TYPES.get(key)
            if conv is None:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = conv(val)
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from None
        return cls(values)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"config key {key!r} is required for this command")
        return self.values[key]


def _check(key: str, value, ok: bool, need: str):
    """``value`` of config key ``key``, or a ConfigError naming the key."""
    if not ok:
        raise ConfigError(f"{key} must be {need}, got {value}")
    return value


def _nonempty(key: str, values: tuple) -> tuple:
    return _check(key, values, len(values) > 0, "non-empty")


def build_rule(cfg: ExperimentConfig, p: int | None = None) -> TransitionRule:
    model = str(cfg.get("model", "ma")).lower()
    p = int(p if p is not None else cfg.get("p", 1))
    allow_flat = bool(cfg.get("allow_flat", False))
    if model in ("ma", "bjn"):
        if model == "bjn" and p != 1:
            raise ConfigError("model bjn means p = 1")
        return MARule(p_max=p, allow_flat=allow_flat)
    if model == "mb":
        return MBRule(p_max=p, A=int(cfg.get("A", 1)), allow_flat=allow_flat)
    raise ConfigError(f"unknown model {cfg.get('model')!r}")


def build_spec(cfg: ExperimentConfig, rule: TransitionRule,
               n2: int | None = None, s0: float | None = None) -> GridSpec:
    """GridSpec from explicit delta/beta or the derived form beta^2 = v0 / N2."""
    n2 = int(n2 if n2 is not None else cfg.require("N2"))
    _check("N2", n2, n2 >= 1, ">= 1")
    s0 = float(s0 if s0 is not None else cfg.get("s0", 1.0))
    if "delta" in cfg.values or "beta" in cfg.values:
        delta = float(cfg.get("delta", cfg.get("beta")))
        beta = float(cfg.get("beta", delta))
    else:
        v0 = float(cfg.require("v0"))
        _check("v0", v0, 0 < v0 < math.inf, "> 0 and finite")
        delta = beta = math.sqrt(v0 / n2)
    n1 = int(cfg.get("N1", n2))
    _check("N1", n1, n1 >= 1, ">= 1")
    lam = cfg.get("Lambda", (n2,))
    return spec_for_rule(rule, s0=s0, delta=delta, beta=beta, n1=n1, n2=n2, lam=lam)


def build_payoff(cfg: ExperimentConfig, kind: str | None = None) -> Payoff:
    kind = str(kind if kind is not None else cfg.get("payoff", "call")).lower()
    if kind == "call":
        return Payoff.call(float(cfg.get("K", 1.0)))
    if kind == "put":
        return Payoff.put(float(cfg.get("K", 1.0)))
    if kind == "butterfly":
        return Payoff.butterfly(float(cfg.get("K1", 1.0)), float(cfg.get("K2", 1.1)))
    raise ConfigError(f"unknown payoff {kind!r}")


def config_text(rule: TransitionRule, spec: GridSpec, payoff: Payoff | None = None) -> str:
    """Serialize a (rule, spec[, payoff]) triple back to the flat config format.

    The result round-trips through :func:`build_rule` / :func:`build_spec`.
    """
    lines = [f"model = {rule.kind.lower()}", f"p = {rule.p}"]
    if rule.kind == "MB":
        lines.append(f"A = {rule.A}")  # type: ignore[attr-defined]
    if getattr(rule, "allow_flat", False):
        lines.append("allow_flat = true")
    lines += [f"s0 = {spec.s0!r}", f"delta = {spec.delta!r}", f"beta = {spec.beta!r}",
              f"N1 = {spec.n1}", f"N2 = {spec.n2}",
              "Lambda = " + ",".join(str(x) for x in spec.lam)]
    if payoff is not None:
        lines.append(f"payoff = {payoff.kind.lower()}")
        if payoff.kind in ("CALL", "PUT"):
            lines.append(f"K = {payoff.k1!r}")
        elif payoff.kind == "BUTTERFLY":
            lines += [f"K1 = {payoff.k1!r}", f"K2 = {payoff.k2!r}"]
    return "\n".join(lines) + "\n"


def _references(cfg: ExperimentConfig, payoff: Payoff, s0: float) -> tuple:
    """(merton_lb, merton_ub, bs_price) of a call or put at s0, the last one
    only when the config sets sigma and T; blank cells for any other payoff."""
    if payoff.kind not in ("CALL", "PUT"):
        return "", "", ""
    mlb, mub = oracle.merton_envelope(payoff.kind, s0, payoff.k1)
    bs = ""
    if "sigma" in cfg.values and "T" in cfg.values:
        bs = oracle.black_scholes(s0, payoff.k1, float(cfg.require("sigma")),
                                  float(cfg.require("T")), payoff.kind)
    return mlb, mub, bs


# --------------------------------------------------------------------------- #
# Commands: each returns (header, rows, chart-or-None)
# --------------------------------------------------------------------------- #

def cmd_price(cfg: ExperimentConfig):
    rule = build_rule(cfg)
    spec = build_spec(cfg, rule)
    payoff = build_payoff(cfg)
    lo, hi = engine.price(spec, rule, payoff)
    header = ["model", "p", "N2", "s0", "payoff", "lower", "upper",
              "merton_lb", "merton_ub", "bs_price"]
    row = [rule.kind, rule.p, spec.n2, spec.s0, payoff.kind, lo, hi,
           *_references(cfg, payoff, spec.s0)]
    return header, [row], None


def cmd_converge(cfg: ExperimentConfig):
    p_list = _nonempty("p_list", cfg.get("p_list", (2, 3, 5)))
    n2_list = _nonempty("N2_list", cfg.get("N2_list", tuple(range(20, 201, 20))))
    for p in p_list:
        _check("p_list", p, p >= 1, ">= 1")
    for n2 in n2_list:
        _check("N2_list", n2, n2 >= 1, ">= 1")
    payoff = build_payoff(cfg)
    rows = []
    for p in p_list:
        rule = build_rule(cfg, p=p)
        for n2 in n2_list:
            spec = build_spec(cfg, rule, n2=n2)
            lo, hi = engine.price(spec, rule, payoff)
            rows.append([rule.kind, p, n2, lo, hi, _references(cfg, payoff, spec.s0)[2]])
    header = ["model", "p", "N2", "lower", "upper", "bs_price"]
    chart = charts.ChartSpec(x="N2", ys=("lower", "upper"), series=("p",),
                             title="price bounds vs N2", x_label="N2", y_label="price")
    return header, rows, chart


def cmd_merton_scan(cfg: ExperimentConfig):
    s0_list = _nonempty("s0_list", cfg.get("s0_list", (0.8, 0.9, 1.0, 1.1, 1.2)))
    rule = build_rule(cfg)
    payoff = build_payoff(cfg)
    spec = build_spec(cfg, rule, n2=int(cfg.get("N2", 100)), s0=s0_list[0])
    bounds = engine.price_all(spec, rule, [(s0, payoff) for s0 in s0_list])
    rows = [[s0, lo, hi, *_references(cfg, payoff, s0)[:2]] for s0, (lo, hi) in zip(s0_list, bounds)]
    header = ["s0", "lower", "upper", "merton_lb", "merton_ub"]
    chart = charts.ChartSpec(x="s0", ys=("lower", "upper", "merton_lb", "merton_ub"),
                             title=f"bounds vs s0 (p={rule.p})", x_label="s0",
                             y_label="price")
    return header, rows, chart


def cmd_arbitrage_scan(cfg: ExperimentConfig):
    fractions = _nonempty("fraction_list", cfg.get("fraction_list", (0.0, 0.1, 0.3)))
    for frac in fractions:
        _check("fraction_list", frac, 0.0 <= frac <= 1.0, "in [0, 1]")
    s0_list = _nonempty("s0_list", cfg.get("s0_list", (0.8, 0.9, 1.0, 1.1, 1.2)))
    n2 = int(cfg.get("N2", 100))
    seed = int(cfg.get("seed", 0))
    base = build_rule(cfg)
    payoff = build_payoff(cfg)
    rows = []
    for frac in fractions:
        rule = engine.inject_arbitrage(base, float(frac), seed) if frac > 0 else base
        spec = build_spec(cfg, rule, n2=n2, s0=s0_list[0])
        bounds = engine.price_all(spec, rule, [(s0, payoff) for s0 in s0_list])
        rows += ([frac, s0, lo, hi, _references(cfg, payoff, s0)[0]]
                 for s0, (lo, hi) in zip(s0_list, bounds))
    header = ["fraction", "s0", "lower", "upper", "merton_lb"]
    chart = charts.ChartSpec(x="s0", ys=("lower", "upper"), series=("fraction",),
                             title="bounds vs s0 under arbitrage nodes",
                             x_label="s0", y_label="price")
    return header, rows, chart


def cmd_hedge_sim(cfg: ExperimentConfig):
    rule = build_rule(cfg)
    spec = build_spec(cfg, rule)
    payoff = build_payoff(cfg)
    n_paths = int(cfg.get("n_paths", 200))
    _check("n_paths", n_paths, n_paths >= 1, ">= 1")
    grid = build_grid(spec)
    Z = engine._terminal_rows(payoff, grid.prices.tolist(), -spec.n1)
    seed = int(cfg.get("seed", 0))
    # A trajectory depends only on (rule, grid, seed): sample once, replay per run.
    trajs = hedge.sample_trajectories(rule, grid, range(seed, seed + n_paths))
    (lo, hi), slopes = hedge.path_hedges(rule, grid, Z, trajs)
    def eps(key, default):
        x = float(cfg.get(key, default))
        return _check(key, x, math.isfinite(x), "finite")
    runs = {hedge.SHORT: (hi + eps("eps_short_hi", 0.01), hi - eps("eps_short_lo", 0.03)),
            hedge.LONG: (lo - eps("eps_long_lo", 0.01), lo + eps("eps_long_hi", 0.03))}
    payoffs = Z[0, [traj.terminal[0] + spec.n1 for traj in trajs]].tolist()
    rows = []
    for side, x0s in runs.items():
        for x0, finals in zip(x0s, hedge.hedged_finals(trajs, slopes[side], side, x0s).tolist()):
            rows += ([t, x0, side, f, z, f - z] for t, (f, z) in enumerate(zip(finals, payoffs)))
    header = ["trajectory_id", "X", "side", "final", "payoff", "excess"]
    chart = charts.ChartSpec(x="payoff", ys=("final",), series=("side", "X"),
                             kind="scatter", title="hedge value vs payoff",
                             x_label="payoff", y_label="final value")
    return header, rows, chart


def cmd_vol_scan(cfg: ExperimentConfig):
    v0 = float(cfg.get("v0", 0.0067))
    _check("v0", v0, 0 < v0 < math.inf, "> 0 and finite")
    ref_steps = int(cfg.get("vol_ref_steps", 200))
    _check("vol_ref_steps", ref_steps, ref_steps >= 1, ">= 1")
    unit = int(cfg.get("vol_unit", 25))
    _check("vol_unit", unit, unit >= 1, ">= 1")
    steps = int(cfg.get("vol_steps", 8))
    _check("vol_steps", steps, steps >= 1, ">= 1")
    s0 = float(cfg.get("s0", 1.0))
    d0 = math.sqrt(v0 / ref_steps)
    rule = build_rule(cfg) if "model" in cfg.values else MBRule(p_max=3, A=2)
    payoffs = [build_payoff(cfg, "call"), build_payoff(cfg, "butterfly")]
    # Each j is read off the longest grid's sweep, on which cumulative columns past n2 - unit*j are j's own.
    horizons = [unit * j for j in range(1, steps + 1)]
    modes = {"single": horizons[-1:], "cumulative": horizons}
    cases = [(mode, z, lam) for mode, lam in modes.items() for z in payoffs]  # lanes of one sweep
    spec = spec_for_rule(rule, s0=s0, delta=d0, beta=d0, n1=horizons[-1], n2=horizons[-1])
    bounds = engine.price_horizons(spec, rule, [(s0, z, lam) for _, z, lam in cases], horizons)
    rows = [[j, n2 * d0 * d0, mode, z.kind, lo, hi] for j, (n2, row) in enumerate(zip(horizons, bounds), 1)
            for (mode, z, _), (lo, hi) in zip(cases, row)]
    header = ["j", "v_j", "mode", "payoff", "lower", "upper"]
    chart = charts.ChartSpec(x="j", ys=("lower", "upper"), series=("mode", "payoff"),
                             title="bounds vs accumulated variation",
                             x_label="j", y_label="price")
    return header, rows, chart


def cmd_validate(cfg: ExperimentConfig):
    rule = build_rule(cfg)
    spec = build_spec(cfg, rule)
    report = validate_model(spec, rule)
    print(report.summary())
    report.raise_if_failed()
    header = ["model", "p", "N2", *(c.value for c in NodeClass), "ok"]
    row = [rule.kind, rule.p, spec.n2, *(report.counts.get(c, 0) for c in NodeClass), int(report.ok)]
    return header, [row], None


_COMMANDS = {
    "price": cmd_price,
    "converge": cmd_converge,
    "merton-scan": cmd_merton_scan,
    "arbitrage-scan": cmd_arbitrage_scan,
    "hedge-sim": cmd_hedge_sim,
    "vol-scan": cmd_vol_scan,
    "validate": cmd_validate,
}


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="trajbounds",
                                     description="worst-case option price bounds "
                                                 "on trajectory-set models")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument("--out", default=".", help="output directory for CSV/SVG")
    parser.add_argument("--svg", action="store_true", help="also emit an SVG chart")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.values["seed"] = int(args.seed)
        header, rows, chart = _COMMANDS[args.command](cfg)
    except ModelValidationError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as e:  # ConfigError, or a value the model rejects
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.command.replace("-", "_")
    csv_path = out_dir / f"{stem}.csv"
    write_csv(csv_path, header, rows)
    if args.command == "price":
        print(",".join(header))
        print(",".join(_cell(v) for v in rows[0]))
    print(f"wrote {csv_path}")
    if args.svg and chart is not None:
        svg_path = out_dir / f"{stem}.svg"
        charts.emit_svg(header, rows, chart, svg_path)
        print(f"wrote {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
