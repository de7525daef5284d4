"""The benchmark's checks reject wrong outputs, and its references agree
with the library's own estimators on samples of known law."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import oracles
from kinmarket import fokker_planck as fp
from kinmarket import stats
from kinmarket.cli import PRESETS
import harness
import run
from harness import import_ms
from spans import Tracer

N = 50_000
TEST1, TEST2 = PRESETS["test1"], PRESETS["test2"]


def rows_of(n_rec=201, S=20.0, rho_C=0.5, E=400.0):
    """trajectory.csv rows iter,t,S,Y,rho_C,rho_F,E of constant values."""
    rows = np.zeros((n_rec, 7))
    rows[:, 0] = rows[:, 1] = np.arange(n_rec)
    rows[:, 2], rows[:, 4], rows[:, 5], rows[:, 6] = S, rho_C, 1.0 - rho_C, E
    return rows


def equilibrium_opinions(rng, kappa=1.0, n=N):
    grid = np.linspace(-1.0, 1.0, 20001)
    cdf = np.cumsum(oracles.opinion_density(grid, kappa))
    return np.interp(rng.random(n), cdf / cdf[-1], grid)


def lognormal(rng, mean, log_var, n=N):
    return np.exp(np.log(mean) - 0.5 * log_var
                  + np.sqrt(log_var) * rng.standard_normal(n))


def has(problems, text):
    return any(text in p for p in problems)


# --------------------------------------------------------------------------
# chartist_relax
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def relaxed():
    rng = np.random.default_rng(5)
    E_T = 100.0 * np.exp(0.75)
    return (equilibrium_opinions(rng), lognormal(rng, 10.0, 0.75),
            rows_of(1501, S=10.0, rho_C=1.0, E=E_T))


def test_chartist_relax_accepts_the_equilibrium_laws(relaxed):
    y, s, rows = relaxed
    assert oracles.check_chartist_relax(TEST1, rows, y, s) == []


def test_chartist_relax_rejects_a_uniform_opinion_law(relaxed):
    _, s, rows = relaxed
    y = np.random.default_rng(6).uniform(-1.0, 1.0, N)
    assert has(oracles.check_chartist_relax(TEST1, rows, y, s), "L1")


def test_chartist_relax_rejects_a_price_law_of_the_wrong_spread(relaxed):
    y, _, rows = relaxed
    s = lognormal(np.random.default_rng(7), 10.0, 0.6)
    assert has(oracles.check_chartist_relax(TEST1, rows, y, s), "KS")


def test_chartist_relax_rejects_a_drifted_price(relaxed):
    y, s, rows = relaxed
    problems = oracles.check_chartist_relax(TEST1, rows, y, 1.05 * s)
    assert has(problems, "mean price")


def test_l1_and_ks_agree_with_the_library(relaxed):
    y, s, rows = relaxed
    hist = stats.Histogram.from_samples(y, bins=100, range=(-1.0, 1.0))
    assert oracles.l1_to_opinion_law(y, 1.0) == pytest.approx(
        stats.l1_density_distance(hist, fp.ChartistEquilibrium(0.0, 1.0)), abs=1e-6)
    E_T = rows[-1, 6]
    assert oracles.ks_to_lognormal(s, 10.0, E_T) == pytest.approx(
        stats.ks_statistic(s, lambda x: fp.lognormal_price_cdf(x, 10.0, E_T)),
        abs=1e-12)


# --------------------------------------------------------------------------
# fat_tail_io
# --------------------------------------------------------------------------

def pareto_prices(rng, mu=2.0, S_F=20.0):
    # inverse-Gamma law with mean S_F and CCDF tail s^-mu
    return (mu - 1.0) * S_F / rng.gamma(mu, 1.0, N)


def test_fat_tail_accepts_a_pareto_tailed_law():
    assert oracles.pareto_exponent(TEST2) == pytest.approx(2.0)
    s = pareto_prices(np.random.default_rng(8))
    assert oracles.check_fat_tail(TEST2, rows_of(), s) == []


def test_fat_tail_rejects_a_lognormal_sample():
    s = lognormal(np.random.default_rng(9), 20.0, 0.5)
    assert has(oracles.check_fat_tail(TEST2, rows_of(), s), "Hill")


def test_fat_tail_rejects_a_mean_price_away_from_S_F():
    s = pareto_prices(np.random.default_rng(10))
    assert has(oracles.check_fat_tail(TEST2, rows_of(S=21.0), s), "mean price")


def test_hill_mean_agrees_with_the_library():
    s = pareto_prices(np.random.default_rng(11))
    scan = stats.hill_plateau(s, k_min_frac=0.02, k_max_frac=0.08)
    assert oracles.hill_mean(s) == pytest.approx(float(scan.estimates.mean()),
                                                 rel=1e-12)


def test_analyze_check_rejects_a_changed_statistic():
    run = {k: "1.5" for k in oracles.ANALYZED_KEYS}
    assert oracles.check_analyze(run, dict(run)) == []
    assert has(oracles.check_analyze(run, dict(run, hill_estimate="1.6")),
               "hill_estimate")


# --------------------------------------------------------------------------
# regime_sweep and the shared invariants
# --------------------------------------------------------------------------

def test_regime_check_rejects_a_swapped_tag_and_extinct_fundamentalists():
    rows = rows_of()
    assert oracles.check_regime("oscillatory", "oscillatory", rows) == []
    assert has(oracles.check_regime("damped_to_SF", "oscillatory", rows),
               "regime")
    rows[100, 4], rows[100, 5] = 1.0, 0.0
    assert has(oracles.check_regime("oscillatory", "oscillatory", rows), "rho_F")


def invariant_case(n_rec=11, N=1000):
    rows = rows_of(n_rec, rho_C=0.5)
    traj = SimpleNamespace(N=N, n_chartists=np.full(n_rec, N // 2),
                           max_abs_y=np.full(n_rec, 0.9),
                           min_price=np.full(n_rec, 1.0))
    return rows, traj, np.array([0.5, -0.9]), np.array([1.0, 2.0])


def test_invariants_accept_consistent_bookkeeping():
    assert oracles.check_invariants(*invariant_case()) == []


@pytest.mark.parametrize("breach, text", [
    (lambda r, t, y, s: r.__setitem__((3, 5), 0.6), "rho_C + rho_F"),
    (lambda r, t, y, s: t.n_chartists.__setitem__(3, 499), "n_chartists"),
    (lambda r, t, y, s: t.max_abs_y.__setitem__(3, 1.01), "|y|"),
    (lambda r, t, y, s: y.__setitem__(0, -1.5), "|y|"),
    (lambda r, t, y, s: t.min_price.__setitem__(3, -0.1), "negative"),
    (lambda r, t, y, s: s.__setitem__(1, -1e-9), "negative"),
])
def test_invariants_reject_each_breach(breach, text):
    case = invariant_case()
    breach(*case)
    assert has(oracles.check_invariants(*case), text)


# --------------------------------------------------------------------------
# tracing and the harness itself
# --------------------------------------------------------------------------

def test_tracer_times_nested_calls_and_restores_the_originals():
    mod = ModuleType("fake")

    class Thing:
        @classmethod
        def make(cls):
            return cls()

    mod.inner = lambda: 1
    mod.outer = lambda: mod.inner() + 1
    originals = (mod.inner, mod.outer, vars(Thing)["make"])
    tracer = Tracer()
    tracer.wrap("inner", mod, "inner")
    tracer.wrap("outer", mod, "outer")
    tracer.wrap("make", Thing, "make")
    assert mod.outer() == 2 and isinstance(Thing.make(), Thing)
    assert tracer.calls == {"inner": 1, "outer": 1, "make": 1}
    assert tracer.child["outer"] == tracer.total["inner"] > 0.0
    assert tracer.self_time("outer") == tracer.total["outer"] - tracer.total["inner"]
    tracer.remove()
    assert (mod.inner, mod.outer, vars(Thing)["make"]) == originals


def test_import_ms_sums_self_time_per_package(tmp_path):
    log = tmp_path / "importtime.txt"
    log.write_text(
        "import time: self [us] | cumulative | imported package\n"
        "import time:       200 |        200 |   numpy.core\n"
        "import time:       100 |        300 | numpy\n"
        "import time:      1500 |       1500 | scipy.stats\n"
        "import time:        50 |       1850 | kinmarket\n")
    assert import_ms(log) == {"numpy": 0.3, "scipy": 1.5, "kinmarket": 0.05}


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "fat_tail_io", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_declares_what_a_run_reports():
    declared = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} \
        == set(run.WORKLOADS) == set(harness.WORKLOADS)
    rnd = [harness.Outcome(argv=[], seconds=2.0, summary={}, failed=False,
                           iters=100, switches=7, sim_seconds=1.0)]
    for reported, kind in (
        (harness.end_to_end_metrics([1.0], [rnd]), "end_to_end"),
        (harness.layer_metrics(Tracer(), [rnd], [rnd], [{"numpy": 1.0}]),
         "per_layer"),
    ):
        assert {k: u for k, (v, u) in reported.items()} \
            == {m["name"]: m["unit"] for m in declared[kind]}
