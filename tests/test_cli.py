"""Command-line interface: presets, regime tags, outputs, exit codes."""

import argparse
import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfinv

import kinmarket
from kinmarket import fokker_planck as fp
from kinmarket.cli import (
    PRESETS,
    _build_parser,
    _lognormal_overlay_grid,
    _slope,
    classify_regime,
    load_config_file,
    main,
    preset,
    preset_names,
)
from kinmarket.model import ConfigurationError
from kinmarket.simulation import Trajectory


def synthetic_trajectory(S, N=1000):
    S = np.asarray(S, dtype=float)
    n = S.size
    return Trajectory(
        t=np.arange(n, dtype=float), S=S, Y=np.zeros(n),
        rho_C=np.full(n, 0.5), rho_F=np.full(n, 0.5), E=S * S,
        n_chartists=np.full(n, N // 2, dtype=np.int64),
        max_abs_y=np.zeros(n), min_price=S.copy(),
        rejected=np.zeros(n, dtype=np.int64), switch_cf=np.zeros(n, dtype=np.int64),
        switch_fc=np.zeros(n, dtype=np.int64), N=N,
        y_final=np.zeros(10), s_final=np.full(10, S[-1]),
    )


def _remove_analyzed_files(out):
    """Delete files that analyze writes from run directory ``out``; return the
    names left, which a refused analyze must leave as they are."""
    for name in ("summary.txt", "y_hist.csv", "s_hist.csv"):
        (out / name).unlink()
    return sorted(p.name for p in out.iterdir())


class TestPresets:
    def test_preset_names(self):
        assert set(preset_names()) == {"test1", "test2", "test3a", "test3b",
                                       "test3c", "custom"}

    def test_test1_preset_values(self):
        cfg = preset("test1")
        assert cfg.sim.S0 == 10.0
        assert cfg.sim.n_iters == 1500
        assert cfg.sim.N == 50000 and cfg.sim.N_s == 50000
        assert cfg.sim.params.beta == 0.1
        assert cfg.sim.params.t_C == 1.0
        assert cfg.sim.params.alpha1 == 0.01 and cfg.sim.params.alpha2 == 0.01
        assert cfg.sim.params.herding_a == 1.0 and cfg.sim.params.herding_b == 0.0
        assert cfg.sim.rho_C0 == 1.0
        assert cfg.sim.pin_mean

    def test_test2_preset_values(self):
        cfg = preset("test2")
        assert cfg.sim.params.S_F == 20.0
        assert cfg.sim.params.gamma_f == 1.3
        assert cfg.sim.rho_C0 == 0.5
        assert not cfg.sim.enable_switching

    def test_test3_variants(self):
        a = preset("test3a")
        assert (a.sim.params.alpha1, a.sim.params.alpha2) == (0.2, 0.55)
        b = preset("test3b")
        assert (b.sim.params.alpha1, b.sim.params.alpha2) == (0.2, 0.7)
        c = preset("test3c")
        assert (c.sim.params.alpha1, c.sim.params.alpha2) == (0.5, 0.4)
        for cfg in (a, b, c):
            assert cfg.sim.enable_switching
            assert cfg.sim.params.beta == 6.0
            assert cfg.sim.params.t_C == 0.02
            assert cfg.sim.params.gamma_f == 0.1
            assert cfg.sim.params.mu_freq == 0.2
            assert cfg.sim.params.sigma_switch == 0.8
            assert cfg.sim.params.dividend == 0.004
            assert cfg.sim.params.k_discount == 0.75
            assert cfg.sim.n_iters == 2000

    def test_value_function_exponents(self):
        for name in PRESETS:
            cfg = preset(name)
            assert cfg.sim.value_spec.r_exp == 0.5
            assert cfg.sim.value_spec.l_exp == 0.25

    def test_custom_requires_full_config(self):
        with pytest.raises(ConfigurationError):
            preset("custom")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            preset("test9")

    def test_noise_defaults_admissible(self):
        # each bound written out, at every population split
        for name in PRESETS:
            p = preset(name).sim.params
            c = 0.5 * (1.0 - p.alpha1 - p.alpha2)
            if p.gamma_diff == 1.0:
                assert p.sigma2_opinion <= c * c / 3.0
            for rho_C in (0.0, 0.5, 1.0):
                d = 1.0 - p.beta * (rho_C * p.t_C + (1.0 - rho_C) * p.gamma_f)
                assert p.zeta2_price <= d * d / 3.0


class TestClassifyRegime:
    def test_crash(self):
        S = 20.0 * 0.98 ** np.arange(400)
        assert classify_regime(synthetic_trajectory(S), 20.0) == "crash"

    def test_boom(self):
        S = 20.0 * 1.02 ** np.arange(400)
        assert classify_regime(synthetic_trajectory(S), 20.0) == "boom"

    def test_damped_oscillation(self):
        t = np.arange(600.0)
        S = 20.0 + 8.0 * np.exp(-t / 60.0) * np.cos(t / 8.0)
        assert classify_regime(synthetic_trajectory(S), 20.0) == "damped_to_SF"

    def test_oscillatory(self):
        t = np.arange(600.0)
        S = 20.0 + 3.0 * np.sin(t / 25.0)
        assert classify_regime(synthetic_trajectory(S), 20.0) == "oscillatory"

    def test_stationary(self):
        S = np.full(400, 10.0)
        S[::7] += 0.02
        assert classify_regime(synthetic_trajectory(S), 20.0) == "stationary"

    def test_unclassified_drift(self):
        S = np.linspace(20.0, 30.0, 400)
        assert classify_regime(synthetic_trajectory(S), 20.0) == "none"

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(synthetic_trajectory(np.full(100, 10.0)), 20.0)

    def test_deterministic(self):
        S = 20.0 + 3.0 * np.sin(np.arange(600.0) / 25.0)
        tr = synthetic_trajectory(S)
        assert classify_regime(tr, 20.0) == classify_regime(tr, 20.0)

    def test_slope_matches_polyfit(self):
        # the tags read the last quarter's least-squares slope
        rng = np.random.default_rng(12)
        for n in (50, 150, 501):
            i = np.arange(n)
            for path in (20.0 + np.cumsum(rng.normal(size=n)),
                         rng.lognormal(size=n), 3.0 - 0.25 * i, 20.0 + 1e-3 * i):
                assert _slope(path) == pytest.approx(np.polyfit(i, path, 1)[0],
                                                     rel=1e-9)


SMALL = ["--set", "N=400", "--set", "N_s=400", "--set", "n_iters=60"]


def _keyvalues(text):
    return dict(ln.split("=", 1) for ln in text.splitlines())


class TestMainCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "r1"
        code = main(["run", "--preset", "test1", "--seed", "3",
                     "--out", str(out)] + SMALL)
        assert code == 0
        for name in ("trajectory.csv", "y_samples.txt", "s_samples.txt",
                     "y_hist.csv", "s_hist.csv", "config.txt", "summary.txt",
                     "chartist_fp.csv", "lognormal_fp.csv"):
            assert (out / name).exists(), name
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 61
        summary = dict(ln.split("=", 1) for ln in
                       (out / "summary.txt").read_text().splitlines())
        assert summary["preset"] == "test1"
        assert "l1_chartist" in summary
        assert "ks_lognormal" in summary
        stdout = capsys.readouterr().out
        assert "terminal_S=" in stdout

    def test_determinism_across_invocations(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "--preset", "test2", "--seed", "7",
                         "--out", str(out)] + SMALL) == 0
        for name in ("trajectory.csv", "s_samples.txt", "summary.txt",
                     "pareto_fp.csv", "hill_scan.csv", "s_hist.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["run", "--preset", "test1", "--out", "x",
                     "--bogus"]) == 1
        assert "ERROR:config:" in capsys.readouterr().err

    def test_unknown_preset_exits_one(self, tmp_path, capsys):
        assert main(["run", "--preset", "nope",
                     "--out", str(tmp_path / "x")]) == 1
        assert "ERROR:config:" in capsys.readouterr().err

    def test_custom_without_config_exits_one(self, tmp_path, capsys):
        assert main(["run", "--preset", "custom",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "ERROR:config:" in err and "missing required fields" in err

    def test_inadmissible_override_exits_one(self, tmp_path, capsys):
        # test2 at rho_F=0.5 admits zeta2 < 0.885^2/3 ~ 0.261; run() refuses
        # it, and no run directory is left behind
        assert main(["run", "--preset", "test2", "--seed", "1",
                     "--out", str(tmp_path / "x"), "--set", "zeta2_price=0.4"]
                    + SMALL) == 1
        assert "ERROR:config:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_exits_one_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--preset", "test1", "--seed", "-3",
                     "--out", str(out)] + SMALL) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR:config:") and "seed" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["N", "N_s"])
    def test_empty_ensemble_exits_one_naming_the_key(self, tmp_path, capsys,
                                                     key):
        out = tmp_path / "r"
        assert main(["run", "--preset", "test1", "--out", str(out)]
                    + SMALL + ["--set", f"{key}=0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:config:{key} must be"), err
        assert not out.exists()

    def test_inadmissible_opinion_noise_in_a_config_writes_nothing(self, tmp_path,
                                                                   capsys):
        # the key passes the config schema; the parameters refuse the noise
        cfg = tmp_path / "c.txt"
        cfg.write_text("sigma2_opinion=0.5\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--config", str(cfg),
                     "--out", str(out)] + SMALL) == 1
        assert "ERROR:config:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("beta=nan", "beta"), ("zeta2_price=nan", "zeta2_price"),
        ("chartist_init=constant:nan", "chartist_init"), ("dt=nan", "dt"),
        ("S0=inf", "S0"), ("L=-inf", "L"), ("N=nan", "N"),
        ("beta=abc", "beta"), ("chartist_init=constant:abc", "chartist_init")])
    def test_non_finite_config_value_exits_one_before_writing(
            self, tmp_path, capsys, line, key):
        # a nan fails every ordered comparison, so `if x < 0: raise` lets it
        # through: unchecked, the run goes ahead and writes nan files; a
        # value that does not parse must name its key too
        cfg = tmp_path / "c.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--config", str(cfg),
                     "--out", str(out), "--set", "N=200",
                     "--set", "N_s=200", "--set", "n_iters=5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:config:{key}"), err
        assert not out.exists()

    def test_analyze_without_samples_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--preset", "test1", "--seed", "1",
                     "--out", str(out)] + SMALL) == 0
        (out / "s_samples.txt").unlink()
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("ERROR:config:")

    def test_run_into_a_regular_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "f"
        out.write_text("kept\n")
        assert main(["run", "--preset", "test1", "--seed", "1",
                     "--out", str(out)] + SMALL) == 1
        assert capsys.readouterr().err.startswith("ERROR:config:")
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("name, over, written", [
        ("test1", "", {"chartist_fp.csv", "lognormal_fp.csv"}),
        ("test2", "", {"pareto_fp.csv", "hill_scan.csv"}),
        ("test3a", "", set()),
        ("test1", "rho_C0=0.5", {"pareto_fp.csv", "hill_scan.csv"}),
        ("test2", "rho_C0=1.0", {"chartist_fp.csv", "lognormal_fp.csv"}),
        ("test1", "enable_switching=true", set()),
    ], ids=["test1", "test2", "test3a", "test1-fundamentalists",
            "test2-chartists", "test1-switching"])
    def test_overlays_follow_from_the_populations(self, tmp_path, name, over,
                                                  written):
        # chartists alone: opinion equilibrium and lognormal price; a fixed
        # fundamentalist share: Pareto tail and a finer price histogram;
        # switching: no closed form
        cfg = tmp_path / "c.txt"
        cfg.write_text(over + "\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", name, "--seed", "2", "--config", str(cfg),
                     "--out", str(out)] + SMALL) == 0
        overlays = {"chartist_fp.csv", "lognormal_fp.csv", "pareto_fp.csv",
                    "hill_scan.csv"}
        assert {p.name for p in out.iterdir()} & overlays == written
        rows = len((out / "s_hist.csv").read_text().splitlines()) - 1
        assert rows == (200 if "pareto_fp.csv" in written else 100)
        assert len((out / "y_hist.csv").read_text().splitlines()) - 1 == 100

    @pytest.mark.parametrize("size", [
        ["--set", "N=200", "--set", "N_s=100", "--set", "n_iters=30"],
        ["--set", "N=200", "--set", "N_s=199", "--set", "n_iters=30"],
        ["--set", "N=200", "--set", "N_s=400", "--set", "n_iters=0"],
    ], ids=["k-5", "k-9", "all-prices-equal"])
    def test_hill_scan_only_where_the_estimator_is_defined(self, tmp_path,
                                                           capsys, size):
        # the Hill estimate takes k = 5% of the prices, at least 10, and
        # needs a tail without ties: a finished run with fewer than 200
        # prices, or none yet moved, gets its Pareto overlay and no Hill block
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--seed", "1",
                     "--out", str(out)] + size) == 0, capsys.readouterr().err
        summary = _keyvalues((out / "summary.txt").read_text())
        assert "mu_exp" in summary and (out / "pareto_fp.csv").exists()
        assert not (out / "hill_scan.csv").exists()
        assert not [k for k in summary if k.startswith("hill_")]
        assert main(["analyze", "--out", str(out)]) == 0

    @pytest.mark.parametrize("name, lines, skipped", [
        ("test2", "gamma_f=0.0\n", ("pareto_fp.csv", "mu_exp")),
        ("test2", "beta=0.0\n", ("pareto_fp.csv", "mu_exp")),
        ("test1", "sigma2_opinion=0.0\n",
         ("chartist_fp.csv", "kappa", "l1_chartist")),
        ("test1", "alpha1=0.0\nalpha2=0.0\n",
         ("chartist_fp.csv", "kappa", "l1_chartist")),
        ("test1", "sigma2_opinion=2e-9\n",
         ("chartist_fp.csv", "kappa", "l1_chartist")),
        ("test1", "herding_a=0.5\n", ("chartist_fp.csv", "kappa", "l1_chartist")),
        ("test1", "herding_a=0.0\nherding_b=1.0\n",
         ("chartist_fp.csv", "kappa", "l1_chartist")),
        ("test1", "gamma_diff=0.5\n", ("chartist_fp.csv", "kappa", "l1_chartist")),
        ("test1", "zeta2_price=0.0\npin_mean=false\nchartist_init=constant:-0.5\n",
         ("lognormal_fp.csv", "ks_lognormal", "log_mean_fit", "log_var_fit")),
    ], ids=["gamma_f-0", "beta-0", "sigma2-0", "alphas-0", "kappa-1e-7",
            "herding_a-0.5", "herding_b-1", "gamma_diff-0.5", "falling-price"])
    def test_overlay_without_a_law_is_left_out(self, tmp_path, capsys, name,
                                               lines, skipped):
        # mu = 1 + 2 beta rho_F gamma_f / zeta2 is 1 without a restoring
        # force, and kappa = sigma2 / (alpha1 + alpha2) is 0 or nan: no
        # steady law to overlay, but the run itself is sound.  At kappa =
        # 1e-7 the opinion peak is narrower than the normalization's nodes.
        # The opinion equilibrium's closed form needs H = 1 and D = 1 - y^2:
        # other herding or diffusion profiles have none.  A lognormal law of
        # mean S0 has a second moment above S0^2: a falling noiseless price
        # has none.  An overlay left by an earlier analysis, whose conditions
        # held then, is removed by the next
        cfg = tmp_path / "c.txt"
        cfg.write_text(lines)
        out = tmp_path / "r"
        assert main(["run", "--preset", name, "--seed", "1", "--config",
                     str(cfg), "--out", str(out), "--set", "N=400",
                     "--set", "N_s=400", "--set", "n_iters=30"]) == 0, \
            capsys.readouterr().err
        written = (out / "summary.txt").read_text()
        summary = _keyvalues(written)
        for skip in skipped:
            assert not (out / skip).exists() and skip not in summary, skip
        if name == "test2":
            assert (out / "hill_scan.csv").exists() and "price_mean" in summary
        else:
            S0 = preset(name).sim.S0
            lognormal = float(summary["terminal_E"]) > S0 * S0
            assert (out / "lognormal_fp.csv").exists() == lognormal
            assert ("ks_lognormal" in summary) == lognormal
        (out / "summary.txt").unlink()
        stale = [out / skip for skip in skipped if skip.endswith(".csv")]
        for path in stale:
            path.write_text("x,density\n0,1\n")
        assert main(["analyze", "--out", str(out)]) == 0
        assert (out / "summary.txt").read_text() == written
        assert stale and not any(path.exists() for path in stale)

    @pytest.mark.filterwarnings("error")
    def test_run_without_chartists_writes_no_y_histogram_and_no_warning(
            self, tmp_path):
        # an empty y_samples.txt is a run's output, read back without a warning
        cfg = tmp_path / "c.txt"
        cfg.write_text("rho_C0=0.0\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--seed", "2", "--config",
                     str(cfg), "--out", str(out)] + SMALL) == 0
        assert (out / "y_samples.txt").read_text() == ""
        assert not (out / "y_hist.csv").exists()
        assert main(["analyze", "--out", str(out)]) == 0

    def test_reused_out_keeps_no_stale_outputs(self, tmp_path):
        # test1 writes overlays that test3a does not: a test3a run into
        # test1's directory must leave what it leaves in a fresh one, and
        # keep files that are not a run's outputs
        small = ["--set", "N=400", "--set", "N_s=400",
                 "--set", "n_iters=30"]
        out, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["run", "--preset", "test1", "--seed", "1",
                     "--out", str(out)] + small) == 0
        assert (out / "chartist_fp.csv").exists()
        (out / "notes.txt").write_text("kept\n")
        for d in (out, fresh, out):
            assert main(["run", "--preset", "test3a", "--seed", "1",
                         "--out", str(d)] + small) == 0
        assert not (out / "chartist_fp.csv").exists()
        assert not (out / "lognormal_fp.csv").exists()
        assert (out / "notes.txt").read_text() == "kept\n"
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["notes.txt"])
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_test2_tail_exponent_does_not_depend_on_dt(self, tmp_path):
        # mu = 1 + 2 beta rho_F gamma_f / zeta2 is a ratio of rates: the
        # time step cancels out of it
        cfg = tmp_path / "c.txt"
        cfg.write_text("dt=0.5\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--seed", "2", "--config",
                     str(cfg), "--out", str(out)] + SMALL) == 0
        summary = _keyvalues((out / "summary.txt").read_text())
        p = preset("test2").sim.params
        rho_F = float(summary["terminal_rho_F"])
        assert rho_F == 0.5
        assert float(summary["mu_exp"]) == \
            1.0 + 2.0 * p.beta * rho_F * p.gamma_f / p.zeta2_price

    def test_preset_list(self, capsys):
        assert main(["preset-list"]) == 0
        text = capsys.readouterr().out
        for name in PRESETS:
            assert name in text

    @pytest.mark.parametrize("name, init", [
        ("test1", "symmetric_uniform"), ("test2", "equilibrium"),
        ("test1", "constant:0.3")], ids=["test1", "test2", "constant"])
    def test_config_file_round_trip(self, tmp_path, name, init):
        # each kind of chartist_init is written as its name and replays
        over = tmp_path / "over.txt"
        over.write_text(f"chartist_init={init}\n")
        out1 = tmp_path / "orig"
        assert main(["run", "--preset", name, "--config", str(over),
                     "--seed", "11", "--out", str(out1)] + SMALL) == 0
        saved = load_config_file(out1 / "config.txt")
        assert saved["chartist_init"] == init
        # replay the recorded config as a custom run
        out2 = tmp_path / "replay"
        assert main(["run", "--preset", "custom",
                     "--config", str(out1 / "config.txt"),
                     "--seed", "11", "--out", str(out2)]) == 0
        replayed = load_config_file(out2 / "config.txt")
        assert replayed.pop("preset") == "custom"
        assert saved.pop("preset") == name
        assert replayed == saved
        for f in ("trajectory.csv", "y_samples.txt", "s_samples.txt"):
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f

    def test_unnormalizable_equilibrium_exits_two_before_writing(self, tmp_path,
                                                                 capsys):
        # kappa = 2e-9 / 0.02 = 1e-7: the peak is narrower than the nodes
        cfg = tmp_path / "c.txt"
        cfg.write_text("sigma2_opinion=2e-9\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--config", str(cfg),
                     "--out", str(out)] + SMALL) == 2
        assert "ERROR:numerical:" in capsys.readouterr().err
        assert not out.exists()

    def test_config_replay_keeps_the_saved_seed(self, tmp_path):
        # no --seed on the replay: the config file's seed must be used, not 0
        out1 = tmp_path / "orig"
        assert main(["run", "--preset", "test1", "--seed", "11",
                     "--out", str(out1)] + SMALL) == 0
        out2 = tmp_path / "replay"
        assert main(["run", "--preset", "custom",
                     "--config", str(out1 / "config.txt"),
                     "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("line", [
        "n_streams=4", "overlay_chartist=true", "overlay_lognormal=true",
        "overlay_pareto=false", "hill_k_frac=0.5", "bins_y=7", "bins_s=13",
    ], ids=lambda line: line.split("=")[0])
    def test_config_with_retired_key_replays(self, tmp_path, capsys, line):
        # keys that config files of older versions carry: n_streams of the
        # thread-pool mode, and analysis settings that now follow from the
        # run.  Such a file predates the per-phase streams, so it cannot
        # replay to its bytes; the replay is refused, naming the key
        out1 = tmp_path / "orig"
        assert main(["run", "--preset", "test2", "--seed", "5",
                     "--out", str(out1)] + SMALL) == 0
        key = line.split("=")[0]
        assert key not in (out1 / "config.txt").read_text()
        old = tmp_path / "old.txt"
        old.write_text((out1 / "config.txt").read_text() + line + "\n")
        out2 = tmp_path / "replay"
        capsys.readouterr()
        assert main(["run", "--preset", "test2", "--config", str(old),
                     "--out", str(out2)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:config:unknown config keys: {key}\n"), err
        assert not out2.exists()

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        # a misspelt alpha1 must not run silently with the preset's value
        cfg = tmp_path / "c.txt"
        cfg.write_text("alpah1=0.3\n")
        out = tmp_path / "r"
        assert main(["run", "--preset", "test1", "--config", str(cfg),
                     "--out", str(out)] + SMALL) == 1
        err = capsys.readouterr().err
        assert "ERROR:config:" in err and "alpah1" in err
        assert not out.exists()

    def test_run_without_seed_uses_seed_zero(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--preset", "test1", "--out", str(out)] + SMALL) == 0
        assert load_config_file(out / "config.txt")["seed"] == 0

    def test_analyze_recomputes_summary(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--preset", "test1", "--seed", "5",
                     "--out", str(out)] + SMALL) == 0
        original = (out / "summary.txt").read_text()
        # the run totals too are in trajectory.csv, as column sums
        (out / "summary.txt").unlink()
        assert main(["analyze", "--out", str(out)]) == 0
        assert (out / "summary.txt").read_text() == original

    def test_analyze_reports_the_runs_counters(self, tmp_path, capsys):
        # a switching run rejects no interaction here but moves agents both
        # ways; analyze must report its totals, not zeros
        out = tmp_path / "r"
        assert main(["run", "--preset", "test3a", "--seed", "3", "--out",
                     str(out), "--set", "N=2000", "--set", "N_s=2000",
                     "--set", "n_iters=40"]) == 0
        ran = _keyvalues(capsys.readouterr().out)
        keys = ("interaction_rejections", "switches_to_fundamentalist",
                "switches_to_chartist")
        assert int(ran["switches_to_fundamentalist"]) > 0
        assert int(ran["switches_to_chartist"]) > 0
        assert main(["analyze", "--out", str(out)]) == 0
        analyzed = _keyvalues(capsys.readouterr().out)
        assert [analyzed[k] for k in keys] == [ran[k] for k in keys]
        assert (out / "summary.txt").read_text() == "".join(
            f"{k}={v}\n" for k, v in ran.items())

    @pytest.mark.parametrize("column, edit", [
        ("rho_C", {4: "0.500013", 5: "0.499987"}),
        ("max_abs_y", {7: "1.0000000000000002"}),
        ("min_price", {8: "-0.25"}),
    ], ids=["rho_C", "max_abs_y", "min_price"])
    def test_analyze_rejects_an_edited_population_share(self, tmp_path, capsys,
                                                        column, edit):
        # rho_C = 0.500013 is no whole number of agents out of N = 400; with
        # rho_F edited to match, rho_C + rho_F stays exactly 1.  |y| > 1 and
        # a negative price are checked at every row from disk as well.
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--seed", "5",
                     "--out", str(out)] + SMALL) == 0
        capsys.readouterr()
        lines = (out / "trajectory.csv").read_text().splitlines()
        row = lines[3].split(",")
        assert row[4] == "0.5"
        for k, v in edit.items():
            row[k] = v
        assert float(row[4]) + float(row[5]) == 1.0
        lines[3] = ",".join(row)
        (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
        left = _remove_analyzed_files(out)
        assert main(["analyze", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:numerical:")
        assert "row 2: " + column in err, err
        assert sorted(p.name for p in out.iterdir()) == left

    @pytest.fixture(scope="class")
    def switching_run(self, tmp_path_factory):
        # test3a rejects, switches both ways and, at 220 iterations, is tagged
        out = tmp_path_factory.mktemp("test3a") / "r"
        assert main(["run", "--preset", "test3a", "--seed", "3", "--out", str(out),
                     "--set", "N=400", "--set", "N_s=400",
                     "--set", "n_iters=220"]) == 0
        return out

    @pytest.mark.parametrize("column, value", [
        ("S", "nan"), ("S", "inf"), ("S", "-5"), ("E", "nan"), ("E", "-1"),
        ("Y", "2"), ("Y", "-1.5"), ("rejected", "-3"), ("switch_cf", "0.5"),
        ("switch_fc", "inf"),
    ])
    def test_analyze_rejects_a_value_no_run_writes(self, tmp_path, capsys,
                                                   switching_run, column, value):
        # a mean price and second moment are finite and >= 0, a mean opinion
        # lies in [-1, 1], and the counters are whole and >= 0 at every row
        out = tmp_path / "r"
        shutil.copytree(switching_run, out)
        lines = (out / "trajectory.csv").read_text().splitlines()
        k = lines[0].split(",").index(column)
        row = lines[101].split(",")
        row[k] = value
        lines[101] = ",".join(row)
        (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
        left = _remove_analyzed_files(out)
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:numerical:"), err
        assert f"row 100: {column}=" in err, err
        assert sorted(p.name for p in out.iterdir()) == left

    @pytest.mark.parametrize("name, edit, named", [
        ("y_samples.txt", lambda text: "x\n", "could not convert string 'x'"),
        ("s_samples.txt", lambda text: text + "0.5,2\n", "0.5,2"),
        ("trajectory.csv", lambda text: text.replace("\n2,2,", "\n2,abc,", 1),
         "at row 2"),
        # numpy counts this row from 1, and adds advice on usecols
        ("trajectory.csv", lambda text: text.replace("\n3,3,", ",5\n3,3,", 1),
         "changed from 12 to 13 at row 2\n"),
        ("trajectory.csv", lambda text: "".join(
            ",".join(ln.split(",")[:7]) + "\n" for ln in text.splitlines()),
         "no column max_abs_y, min_price, rejected, switch_cf, switch_fc"),
        ("trajectory.csv", lambda text: text.split("\n", 1)[0] + "\n",
         "holds 0 rows"),
        # N_s = 400 prices, and round(rho_C N) = 200 chartists at the last row
        ("s_samples.txt", lambda text: "".join(text.splitlines(True)[:300]),
         "holds 300 values, not 400"),
        ("y_samples.txt", lambda text: "".join(text.splitlines(True)[:10]),
         "holds 10 values, not 200"),
        ("s_samples.txt", lambda text: "", "holds 0 values, not 400"),
    ], ids=["y-samples", "s-samples", "trajectory-value", "trajectory-extra-value",
            "trajectory-7-columns", "trajectory-no-rows", "s-samples-short",
            "y-samples-short", "s-samples-empty"])
    def test_analyze_names_the_file_it_cannot_read(self, tmp_path, capsys, name,
                                                   edit, named):
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--seed", "5",
                     "--out", str(out)] + SMALL) == 0
        path = out / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:config:{path}"), err
        assert named in err, err

    def test_analyze_missing_dir_exits_one(self, tmp_path, capsys):
        assert main(["analyze", "--out", str(tmp_path / "missing")]) == 1
        assert "ERROR:config:" in capsys.readouterr().err

    def test_pin_mean_override(self, tmp_path):
        out = tmp_path / "pin"
        assert main(["run", "--preset", "test1", "--seed", "3", "--out",
                     str(out), "--set", "pin_mean=off"] + SMALL) == 0
        assert load_config_file(out / "config.txt")["pin_mean"] is False

    @pytest.mark.parametrize("item, named", [
        ("N=abc", "ERROR:config:N: cannot read 'abc' as int (--set)"),
        ("pin_mean=maybe", "ERROR:config:pin_mean: cannot read 'maybe'"),
        ("alpah1=0.3", "ERROR:config:unknown config keys: alpah1"),
        ("preset=test2", "ERROR:config:unknown config keys: preset"),
        ("out=elsewhere", "ERROR:config:unknown config keys: out"),
        ("N", "ERROR:config:--set: expected key=value, got 'N'"),
    ], ids=["bad-int", "bad-bool", "unknown", "preset", "out", "no-equals"])
    def test_set_refuses_what_a_config_file_refuses(self, tmp_path, capsys,
                                                    item, named):
        # one grammar for a --set item and a config line; preset() refuses
        # a key outside the schema, out among them.  A config file may carry
        # the preset line that config.txt holds, so preset is a --set case only
        cfg = tmp_path / "c.txt"
        cfg.write_text(item + "\n")
        ways = [(["--set", item], named)]
        if not item.startswith("preset="):
            ways.append((["--config", str(cfg)], named.replace("--set", f"{cfg}:1")))
        out = tmp_path / "r"
        for flags, message in ways:
            assert main(["run", "--preset", "test1", "--out", str(out)] + SMALL
                        + flags) == 1
            err = capsys.readouterr().err
            assert err.startswith(message), err
            assert not out.exists()

    def test_set_overrides_the_config_file_and_seed_overrides_both(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("N_s=300\nbeta=0.2\nseed=4\n")
        base = ["run", "--preset", "test1", "--config", str(cfg)] + SMALL
        for argv, seed in ((["--set", "N_s=500", "--set", "seed=6"], 6),
                           (["--set", "N_s=500", "--set", "seed=6", "--seed", "9"], 9)):
            out = tmp_path / f"seed{seed}"
            assert main(base + argv + ["--out", str(out)]) == 0
            saved = load_config_file(out / "config.txt")
            assert (saved["N_s"], saved["beta"], saved["seed"]) == (500, 0.2, seed)

    def test_run_takes_no_per_key_flag(self):
        # every config key is set through --config or --set, one grammar
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {o for a in sub.choices["run"]._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == {"--preset", "--seed", "--out",
                                              "--config", "--set"}

    def test_a_run_builds_the_opinion_equilibrium_once(self, tmp_path,
                                                       monkeypatch):
        # validating chartist_init=equilibrium builds nothing; the run builds
        # it when it draws, and analyze of a test2 run needs no overlay of it
        builds = []
        init = fp.ChartistEquilibrium.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(fp.ChartistEquilibrium, "__init__", counted)
        preset("test2")
        assert len(builds) == 0
        out = tmp_path / "r"
        assert main(["run", "--preset", "test2", "--out", str(out)] + SMALL) == 0
        assert len(builds) == 1
        assert main(["analyze", "--out", str(out)]) == 0
        assert len(builds) == 1


class TestNumpyOnly:
    def test_run_and_analyze_load_no_scipy(self, tmp_path):
        # a fresh interpreter: import, resolve every preset, run each small,
        # analyze each run directory, then list the scipy modules loaded
        code = (
            "import sys\n"
            "import kinmarket\n"
            "from kinmarket.cli import PRESETS, main, preset\n"
            "for name in PRESETS:\n"
            "    preset(name)\n"
            "    small = ['--set', 'N=400', '--set', 'N_s=400',\n"
            "             '--set', 'n_iters=30']\n"
            "    assert main(['run', '--preset', name, '--out', name] + small) == 0\n"
            "    assert main(['analyze', '--out', name]) == 0\n"
            "print('scipy:', sorted(m for m in sys.modules\n"
            "                       if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(kinmarket.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "scipy: []"

    def test_import_loads_no_logging(self):
        # concurrent.futures would load logging, whose import time counts in
        # every run's start-up; the thread that draws the pairing ahead is a
        # bare threading.Thread, a module numpy loads already
        code = ("import sys\n"
                "import kinmarket, kinmarket.cli\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('concurrent', 'logging')))\n")
        src = str(Path(kinmarket.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_setup_loads_no_numpy_random_polynomial_or_statistics(self):
        # a benchmark's set-up is a fresh import and a resolved preset;
        # numpy.random is loaded where a run draws, numpy.polynomial where an
        # L1 distance is taken, statistics where a lognormal overlay is made
        code = ("import sys\n"
                "import kinmarket, kinmarket.cli\n"
                "for name in kinmarket.cli.PRESETS:\n"
                "    kinmarket.cli.preset(name)\n"
                "print(sorted({'numpy.random', 'numpy.polynomial', 'statistics'}\n"
                "             & set(sys.modules)))\n")
        src = str(Path(kinmarket.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_src_imports_no_scipy(self):
        # every import statement of the package, lazy ones inside a function too
        found = []
        for path in sorted(Path(kinmarket.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for m in names
                          if m.split(".")[0] == "scipy"]
        assert found == []

    def test_row_format_is_written_in_one_place(self):
        # every data file of a run directory is rows of stats.write_columns;
        # cli._fmt formats the key=value files.  A ".17g" anywhere else is a
        # second copy of the row format
        found = set()
        for path in sorted(Path(kinmarket.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}
            for fn in ast.walk(tree):  # outer functions first, inner overwrite
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update((id(node), fn.name) for node in ast.walk(fn))
            found |= {f"{path.stem}.{owner.get(id(node), '<module>')}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and ".17g" in node.value}
        assert found == {"stats.write_columns", "cli._fmt"}

    def test_lognormal_overlay_grid_matches_erfinv(self):
        for m, v in ((2.3, 0.04), (0.0, 1.0), (-1.5, 3e-4)):
            qs = np.linspace(1e-4, 1.0 - 1e-4, 801)
            old = np.exp(m + np.sqrt(2.0 * v) * erfinv(2.0 * qs - 1.0))
            grid = _lognormal_overlay_grid(m, v)
            assert grid.shape == (801,)
            assert np.max(np.abs(grid / old - 1.0)) <= 1e-13


class TestPublicNames:
    package = Path(kinmarket.__file__).parent

    @pytest.mark.parametrize("module", sorted(
        p.stem for p in package.glob("*.py") if p.stem != "__init__"))
    def test_every_name_in_all_resolves(self, module):
        # `import *` raises AttributeError on a listed name that is gone
        namespace: dict = {}
        exec(f"from kinmarket.{module} import *", namespace)
        assert set(importlib.import_module(f"kinmarket.{module}").__all__) \
            <= namespace.keys()

    def test_package_reexports_only_public_names(self):
        # the package's public names, less its submodules, are exactly the
        # engine modules' __all__, each the module's own object
        engine = ("model", "fokker_planck", "simulation", "stats")
        public = {n for n in dir(kinmarket) if not n.startswith("_")}
        exported = {}
        for name in engine:
            module = importlib.import_module(f"kinmarket.{name}")
            exported.update((n, getattr(module, n)) for n in module.__all__)
        assert public - {"cli", *engine} == exported.keys()
        for n, obj in exported.items():
            assert getattr(kinmarket, n) is obj, n


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha1=0.2  # herding\nN=1000\npin_mean=true\n"
                        "chartist_init=constant:0\n\n# comment line\n")
        table = load_config_file(path)
        assert table == {"alpha1": 0.2, "N": 1000, "pin_mean": True,
                         "chartist_init": "constant:0"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("not a key value line\n")
        with pytest.raises(ConfigurationError):
            load_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config_file(tmp_path / "absent.txt")
