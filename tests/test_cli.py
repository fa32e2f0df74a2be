import csv

import pytest

from trajbounds import charts, engine, hedge, model
from trajbounds.cli import (ConfigError, ExperimentConfig, build_payoff, build_rule,
                            build_spec, cmd_hedge_sim, main)
from trajbounds.grid import build_grid


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_CFG = """
# two-month at-the-money call, unit jumps
model = bjn
p = 1
N2 = 30
v0 = 0.0067
s0 = 1.0
payoff = call
K = 1.0
sigma = 0.2
T = 0.16666666666666666
seed = 7
"""


class TestConfig:
    def test_parse_and_types(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path / "a.cfg", BASE_CFG))
        assert cfg.get("model") == "bjn"
        assert cfg.get("N2") == 30
        assert cfg.get("v0") == 0.0067

    # q and p_eta are not keys: the rule alone fixes the caps p and q = max_dj.
    @pytest.mark.parametrize("text", ["frobnicate = 3\n", "q = 4\n", "p_eta = 1.5\n"],
                             ids=["frobnicate", "q", "p_eta"])
    def test_unknown_key(self, tmp_path, text):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_file(write_cfg(tmp_path / "a.cfg", text))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            ExperimentConfig.from_file(write_cfg(tmp_path / "a.cfg", "N2 = nope\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            ExperimentConfig.from_file(write_cfg(tmp_path / "a.cfg", "just words\n"))

    def test_lists(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            write_cfg(tmp_path / "a.cfg", "Lambda = 10,20\ns0_list = 0.9,1.0\n"))
        assert cfg.get("Lambda") == (10, 20)
        assert cfg.get("s0_list") == (0.9, 1.0)

    def test_inconsistent_q_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        "model = ma\np = 2\nq = 3\nN2 = 10\nv0 = 0.0067\n")
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["price", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "price", "hedge-sim", "merton-scan",
                                         "arbitrage-scan"])
    def test_validation_failure_exit(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path / "bad.cfg",
                        "model = ma\np = 3\nN1 = 5\nN2 = 10\nv0 = 0.0067\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert ("validation failure: 10 reachable vertices are not 0-neutral, first (-5, 5)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extra, code, message", [
        ("payoff = put\nK = 1e260\n", 2, "config error: payoff is 1e+260"),
        ("eps_short_hi = nan\n", 1,
         "validation failure: 10 reachable vertices are not 0-neutral, first (-5, 5)"),
    ], ids=["payoff_before_audit", "audit_before_eps"])
    def test_hedge_sim_failure_order(self, tmp_path, capsys, extra, code, message):
        # On an invalid model, hedge-sim reads the payoff first, then runs the
        # audit, and only then checks the eps offsets.
        cfg = write_cfg(tmp_path / "bad.cfg",
                        "model = ma\np = 3\nN1 = 5\nN2 = 10\nv0 = 0.0067\n" + extra)
        assert main(["hedge-sim", "--config", cfg, "--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["merton-scan", "arbitrage-scan"])
    def test_scan_checks_every_spot_before_pricing(self, tmp_path, capsys, command):
        # Every point's spec is built before the one sweep, so a bad spot
        # anywhere in s0_list is a config error even on an invalid model.
        cfg = write_cfg(tmp_path / "bad.cfg", "model = ma\np = 3\nN1 = 5\nN2 = 10\n"
                                              "v0 = 0.0067\ns0_list = 1.0,-1.0\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: s0 must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("hedge-sim", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nn_paths = -5\n"),
        ("hedge-sim", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nn_paths = 0\n"),
        ("price", "model = bjn\nN2 = 710\ndelta = 1\n"),
        ("price", "model = bjn\nN2 = 200\ndelta = 0.1\ns0 = 1e300\n"),
        ("merton-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\nworkers = 2\n"),
        ("price", "model = ma\np = 0\nN2 = 10\nv0 = 0.0067\n"),
        ("price", "model = bjn\nN2 = 10\nv0 = 0.0067\npayoff = butterfly\nK1 = 1.1\nK2 = 1.0\n"),
        ("price", "model = bjn\nN2 = 10\nv0 = 0.0067\nK = nan\n"),
        ("arbitrage-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\nfraction_list = 0.0,1.5\n"),
        ("vol-scan", "vol_unit = 0\nvol_steps = 2\n"),
        ("price", "model = bjn\nN2 = 10\nv0 = -1\n"),
        ("price", "model = bjn\nN2 = 0\nv0 = 0.0067\n"),
        ("vol-scan", "vol_ref_steps = 0\nvol_steps = 2\n"),
        ("price", "model = ma\np = 2\nN2 = 10\nv0 = 0.0067\nsigma = 0.2\nT = inf\n"),
        ("price", "model = ma\np = 2\nN2 = 10\nv0 = 0.0067\nsigma = nan\nT = 0.1667\n"),
        ("price", "model = ma\np = 2\nN2 = 10\ndelta = 0.05\nbeta = nan\n"),
    ], ids=["n_paths_negative", "n_paths_zero", "exp_overflow", "s0_overflow", "workers",
            "p_zero", "butterfly_strikes_reversed", "strike_nan", "fraction_above_one",
            "vol_unit_zero", "v0_negative", "n2_zero", "vol_ref_steps_zero", "years_inf",
            "sigma_nan", "beta_nan"])
    def test_config_error_exit(self, tmp_path, capsys, command, text):
        cfg = write_cfg(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, key", [
        ("price", "model = bjn\nN2 = 0\nv0 = 0.0067\n", "N2"),
        ("price", "model = bjn\nN2 = 10\nv0 = -1\n", "v0"),
        ("price", "model = bjn\nN2 = 10\nv0 = 0\n", "v0"),
        ("vol-scan", "v0 = -1\nvol_steps = 2\n", "v0"),
        ("vol-scan", "vol_ref_steps = 0\nvol_steps = 2\n", "vol_ref_steps"),
        ("vol-scan", "vol_unit = 0\nvol_steps = 2\n", "vol_unit"),
        ("hedge-sim", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nn_paths = 0\n", "n_paths"),
        ("arbitrage-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\nfraction_list = nan\n",
         "fraction_list"),
        ("arbitrage-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\nfraction_list = 0.1,-0.5\n",
         "fraction_list"),
        ("converge", "model = ma\nv0 = 0.0067\nN2_list = 0,10\n", "N2_list"),
        ("converge", "model = ma\nv0 = 0.0067\np_list = 0,2\n", "p_list"),
        ("converge", "model = ma\nv0 = 0.0067\nN1 = 0\n", "N1"),
        ("arbitrage-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\nseed = -1\n", "seed"),
    ], ids=["n2_zero", "v0_negative", "v0_zero", "vol_scan_v0_negative",
            "vol_ref_steps_zero", "vol_unit_zero", "n_paths_zero", "fraction_nan",
            "fraction_negative", "converge_n2_list_zero", "converge_p_list_zero",
            "converge_n1_zero", "arbitrage_seed_negative"])
    def test_config_error_names_key(self, tmp_path, capsys, command, text, key):
        cfg = write_cfg(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("hedge-sim", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nn_paths = 3\neps_short_hi = nan\n",
         "eps_short_hi must be finite"),
        ("hedge-sim", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nn_paths = 3\neps_long_lo = -inf\n",
         "eps_long_lo must be finite"),
        ("price", "model = bjn\nN2 = 10\nv0 = inf\n", "v0 must be > 0 and finite"),
        ("vol-scan", "v0 = inf\nvol_steps = 2\n", "v0 must be > 0 and finite"),
        ("price", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nK = inf\n", "strike must be finite"),
    ], ids=["eps_short_hi_nan", "eps_long_lo_minus_inf", "v0_inf", "vol_scan_v0_inf", "strike_inf"])
    def test_non_finite_input_names_its_key(self, tmp_path, capsys, command, text, message):
        cfg = write_cfg(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("vol-scan", "vol_steps = 0\n", "vol_steps must be >= 1"),
        ("vol-scan", "vol_steps = -3\n", "vol_steps must be >= 1"),
        ("merton-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\ns0_list =\n",
         "s0_list must be non-empty"),
        ("arbitrage-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\ns0_list =\n",
         "s0_list must be non-empty"),
        ("arbitrage-scan", "model = bjn\nN2 = 10\nv0 = 0.0067\nfraction_list =\n",
         "fraction_list must be non-empty"),
        ("converge", "model = ma\nv0 = 0.0067\np_list =\n", "p_list must be non-empty"),
        ("converge", "model = ma\nv0 = 0.0067\nN2_list =\n", "N2_list must be non-empty"),
    ], ids=["vol_steps_zero", "vol_steps_negative", "merton_s0_list", "arbitrage_s0_list",
            "fraction_list", "p_list", "n2_list"])
    @pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
    def test_empty_scan_is_config_error(self, tmp_path, capsys, command, text, message, svg):
        cfg = write_cfg(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out)] + (["--svg"] if svg else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_price_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "a.cfg", BASE_CFG)
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "lower" in out and "0.03" in out


class TestCommands:
    def test_price_row(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", BASE_CFG)
        main(["price", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "price.csv", newline="") as f:
            row = next(csv.DictReader(f))
        assert row["model"] == "BJN"
        assert float(row["lower"]) == float(row["upper"])
        assert float(row["merton_lb"]) == 0.0
        assert float(row["merton_ub"]) == 1.0
        assert abs(float(row["bs_price"]) - 0.0326) < 1e-4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        BASE_CFG.replace("model = bjn", "model = ma")
                        + "\nN2_list = 10,20\np_list = 1,2\n")
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert main(["converge", "--config", cfg, "--out", str(d), "--svg"]) == 0
        assert (a_dir / "converge.csv").read_bytes() == (b_dir / "converge.csv").read_bytes()
        assert (a_dir / "converge.svg").read_bytes() == (b_dir / "converge.svg").read_bytes()

    def test_converge_error_shrinks(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        BASE_CFG + "\nN2_list = 50,100,200\np_list = 1\n")
        main(["converge", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "converge.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        errs = [abs(float(r["upper"]) - 0.0326) for r in rows]
        assert all(b <= a + 1e-4 for a, b in zip(errs, errs[1:]))

    def test_merton_scan_containment(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nK = 1.0\n"
                        "s0_list = 0.9,1.0,1.1\n")
        main(["merton-scan", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "merton_scan.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        for r in rows:
            assert float(r["merton_lb"]) - 1e-9 <= float(r["lower"])
            assert float(r["upper"]) <= float(r["merton_ub"]) + 1e-9

    def test_price_butterfly_has_no_references(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", BASE_CFG.replace("payoff = call", "payoff = butterfly"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "price.csv", newline="") as f:
            row = next(csv.DictReader(f))
        assert row["payoff"] == "BUTTERFLY"
        assert row["merton_lb"] == row["merton_ub"] == row["bs_price"] == ""

    def test_merton_scan_butterfly_has_no_references(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", "model = bjn\nN2 = 10\nv0 = 0.0067\n"
                        "payoff = butterfly\ns0_list = 0.9,1.1\n")
        assert main(["merton-scan", "--config", cfg, "--out", str(tmp_path), "--svg"]) == 0
        with open(tmp_path / "merton_scan.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(r["merton_lb"] == r["merton_ub"] == "" for r in rows)

    def test_arbitrage_scan_put_envelope(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", "model = bjn\nN2 = 10\nv0 = 0.0067\npayoff = put\n"
                        "K = 1.0\ns0_list = 0.9,1.1\nfraction_list = 0\n")
        assert main(["arbitrage-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "arbitrage_scan.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["merton_lb"]) for r in rows] == [max(1.0 - s0, 0.0) for s0 in (0.9, 1.1)]

    def test_arbitrage_scan_lower_monotone(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        "model = bjn\np = 1\nN2 = 30\nv0 = 0.0067\nK = 1.0\nseed = 3\n"
                        "s0_list = 0.9,1.0,1.1\nfraction_list = 0,0.2,0.5\n")
        main(["arbitrage-scan", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "arbitrage_scan.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        by_s0 = {}
        for r in rows:
            by_s0.setdefault(r["s0"], []).append(float(r["lower"]))
        for vals in by_s0.values():
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_hedge_sim_superhedges(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nK = 1.0\nseed = 5\n"
                        "n_paths = 25\n")
        main(["hedge-sim", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "hedge_sim.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4 * 25
        xs = sorted({float(r["X"]) for r in rows if r["side"] == "SHORT"})
        assert len(xs) == 2 and xs[1] - xs[0] == pytest.approx(0.04, abs=1e-12)
        for r in rows:
            if r["side"] == "SHORT" and float(r["X"]) == xs[1]:  # upper + 0.01
                assert float(r["excess"]) >= -1e-9

    def test_hedge_sim_audits_only_on_failure(self, monkeypatch):
        calls = []
        monkeypatch.setattr("trajbounds.cli.validate_model",
                            lambda spec, rule: calls.append(spec))
        cfg = ExperimentConfig({"model": "ma", "p": 3, "N2": 20, "v0": 0.0067,
                                "Lambda": (10, 20), "n_paths": 5})
        cmd_hedge_sim(cfg)
        assert calls == []

    @pytest.mark.parametrize("seed", [3, 11])
    def test_hedge_sim_replays_each_trajectory(self, seed):
        # Rows equal those of sampling every trajectory afresh for each
        # (side, X) run: sample_trajectory depends on (rule, grid, seed) only.
        cfg = ExperimentConfig({"model": "ma", "p": 3, "N2": 24, "v0": 0.0067, "K": 1.0,
                                "Lambda": (10, 24), "n_paths": 15, "seed": seed})
        _, rows, _ = cmd_hedge_sim(cfg)
        rule = build_rule(cfg)
        grid = build_grid(build_spec(cfg, rule))
        bounds = engine.compute_bounds(grid, rule, build_payoff(cfg))
        lo, hi = bounds.price_interval()
        expected = []
        for side, x0 in [(hedge.SHORT, hi + 0.01), (hedge.SHORT, hi - 0.03),
                         (hedge.LONG, lo - 0.01), (hedge.LONG, lo + 0.03)]:
            for t in range(15):
                traj = hedge.sample_trajectory(rule, grid, seed=seed + t)
                ledger = hedge.simulate_pnl(bounds, traj, side, x0)
                expected.append([t, x0, side, ledger.final, ledger.payoff, ledger.excess])
        assert rows == expected
        # The inner liquidation column is exercised: some paths stop on it.
        assert any(hedge.sample_trajectory(rule, grid, seed=seed + t).terminal[1] == 10
                   for t in range(15))

    @pytest.mark.parametrize("command, text, sweeps, horizons", [
        ("merton-scan", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\n", 1, 1),
        ("arbitrage-scan", "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nseed = 1\n"
                           "fraction_list = 0,0.1,0.3\n", 3, 1),
        ("vol-scan", "vol_unit = 5\nvol_steps = 3\n", 1, 3),
    ], ids=["merton-scan", "arbitrage-scan", "vol-scan"])
    def test_scan_sweeps_once_per_grid_shape(self, tmp_path, monkeypatch, command, text, sweeps, horizons):
        # Spots, payoffs and liquidation columns on one grid shape are lanes of one
        # sweep; vol-scan reads all its horizons off the longest one's sweep.
        sweep = engine._sweep_banded
        calls = []
        monkeypatch.setattr(engine, "_sweep_banded", lambda grid, rule, Z, reach, stops=None:
                            calls.append(len(Z)) or sweep(grid, rule, Z, reach, stops))
        assert main([command, "--config", write_cfg(tmp_path / "a.cfg", text),
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / f"{command.replace('-', '_')}.csv").read_text().splitlines()[1:]
        assert len(calls) == sweeps
        assert sum(calls) == 2 * len(rows) // horizons  # one [Z, -Z] lane pair per CSV row and horizon

    def test_arbitrage_scan_reaches_base_once(self, tmp_path, monkeypatch):
        # Every injected fraction draws from the one base reachability of the grid shape.
        reach, calls = model.reachable_masks, []
        monkeypatch.setattr(model, "reachable_masks", lambda spec, rule: calls.append(rule) or reach(spec, rule))
        text = "model = ma\np = 3\nN2 = 20\nv0 = 0.0067\nseed = 1\nfraction_list = 0,0.1,0.3\n"
        assert main(["arbitrage-scan", "--config", write_cfg(tmp_path / "a.cfg", text),
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_vol_scan_convex_upper_equality(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg",
                        "model = mb\np = 3\nA = 2\nv0 = 0.0067\nvol_ref_steps = 200\n"
                        "vol_unit = 10\nvol_steps = 3\ns0 = 1.0\n")
        main(["vol-scan", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "vol_scan.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        table = {(r["j"], r["mode"], r["payoff"]): r for r in rows}
        for j in ("1", "2", "3"):
            single = table[(j, "single", "CALL")]
            cum = table[(j, "cumulative", "CALL")]
            assert single["upper"] == cum["upper"]  # byte-equal CSV cells

    def test_validate_report_csv(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", BASE_CFG)
        main(["validate", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "validate.csv", newline="") as f:
            row = next(csv.DictReader(f))
        assert row["ok"] == "1"
        assert int(row["up_down"]) > 0
        assert row["not_zero_neutral"] == "0"

    def test_seed_flag_overrides(self, tmp_path):
        base = ("model = ma\np = 2\nN2 = 12\nv0 = 0.0067\nK = 1.0\nseed = 5\n"
                "n_paths = 10\n")
        cfg = write_cfg(tmp_path / "a.cfg", base)
        main(["hedge-sim", "--config", cfg, "--out", str(tmp_path / "s5")])
        main(["hedge-sim", "--config", cfg, "--seed", "6", "--out", str(tmp_path / "s6")])
        a = (tmp_path / "s5" / "hedge_sim.csv").read_bytes()
        b = (tmp_path / "s6" / "hedge_sim.csv").read_bytes()
        assert a != b


class TestConfigRoundTrip:
    def test_spec_and_rule_round_trip(self, tmp_path):
        from trajbounds.cli import build_payoff, build_rule, build_spec, config_text
        from trajbounds.model import MBRule, spec_for_rule
        from trajbounds.grid import Payoff

        rule = MBRule(p_max=3, A=2)
        spec = spec_for_rule(rule, s0=1.05, delta=0.004, beta=0.004,
                             n1=40, n2=50, lam=(25, 50))
        payoff = Payoff.butterfly(1.0, 1.1)
        text = config_text(rule, spec, payoff)
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path / "rt.cfg", text))
        rule2 = build_rule(cfg)
        spec2 = build_spec(cfg, rule2)
        assert rule2 == rule
        assert spec2 == spec
        assert build_payoff(cfg) == payoff


class TestCharts:
    def test_render_is_stable(self):
        header = ["x", "y", "grp"]
        rows = [[0, 1.0, "a"], [1, 2.0, "a"], [0, 0.5, "b"], [1, 0.7, "b"]]
        spec = charts.ChartSpec(x="x", ys=("y",), series=("grp",), title="t")
        a = charts.render_svg(header, rows, spec)
        b = charts.render_svg(header, rows, spec)
        assert a == b
        assert a.startswith("<svg")

    def test_missing_column(self):
        with pytest.raises(ValueError):
            charts.render_svg(["x"], [[1.0]], charts.ChartSpec(x="x", ys=("y",)))

    def test_scatter_kind(self):
        header = ["x", "y"]
        rows = [[0.0, 1.0], [1.0, 3.0]]
        svg = charts.render_svg(header, rows, charts.ChartSpec(x="x", ys=("y",),
                                                               kind="scatter"))
        assert "<circle" in svg
