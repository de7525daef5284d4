"""Command-line experiment runner.

Subcommands
-----------
run          execute a preset or custom configuration and write all outputs
preset-list  show the built-in experiment presets
analyze      recompute statistics and overlays from a finished run directory

A run writes ``config.txt`` (the fully resolved key=value configuration,
reusable via --config, under a comment naming the layout of the random
streams), ``trajectory.csv`` and ``y_samples.txt`` /
``s_samples.txt`` (terminal sample sets, one value per line), then analyzes
its directory as ``analyze`` does: ``y_hist.csv`` / ``s_hist.csv``, the
overlays and ``summary.txt`` (key=value report).  ``trajectory.csv`` holds,
per iteration, ``iter,t,S,Y,rho_C,rho_F,E,max_abs_y,min_price`` and the
iteration's ``rejected`` interactions and switches ``switch_cf`` (chartist to
fundamentalist) and ``switch_fc``; the summary's run totals are their sums.
Which overlays a run gets is stated by the conditions of ``_analyze_outputs``
and, in prose, by the run-directory table of the README.
All randomness is controlled by the seed (--seed, else that of --set or the
config file, else 0); two runs with identical flags produce identical files.
Every config key is set the same way: a --config line or a --set KEY=VALUE;
a config file may also carry the ``preset`` line that config.txt holds.

Exit codes: 0 success, 1 configuration error, 2 numerical-invariant failure;
``analyze`` exits 1 or 2 before it writes anything.
Errors are printed to stderr with the machine-readable prefix
``ERROR:<category>:``.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import fokker_planck as fp
from . import stats
from .model import (
    ConfigurationError,
    InvariantViolation,
    ModelParams,
    NumericsError,
    ValueFunctionSpec,
)
from .simulation import STREAM_LAYOUT, SimConfig, Trajectory, run

__all__ = ["ExperimentConfig", "preset", "preset_names", "classify_regime",
           "main", "entry"]

# test1 and test2 share everything but the price noise, the run length and
# the initial market.
_TEST12_COMMON = dict(
    alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02, beta=0.1,
    t_C=1.0, gamma_f=1.3, S_F=20.0, dividend=0.0,
    k_discount=0.75, mu_freq=0.2, sigma_switch=0.8,
    herding_a=1.0, herding_b=0.0, gamma_diff=1.0,
    L=1.0, R0=0.0, r_exp=0.5, l_exp=0.25,
    N=50000, N_s=50000, dt=1.0, enable_switching=False, pin_mean=True,
)

# The three test3 variants share everything but the interaction weights.
_TEST3_COMMON = dict(
    sigma2_opinion=5e-4, beta=6.0, zeta2_price=2.5e-3, t_C=0.02, gamma_f=0.1,
    S_F=20.0, dividend=0.004, k_discount=0.75, mu_freq=0.2, sigma_switch=0.8,
    herding_a=0.0, herding_b=1.0, gamma_diff=1.0,
    L=1.0, R0=0.0, r_exp=0.5, l_exp=0.25,
    N=50000, N_s=50000, dt=1.0, n_iters=2000, enable_switching=True,
    S0=20.0, rho_C0=0.5, chartist_init="symmetric_uniform", pin_mean=False,
)

PRESETS: dict[str, dict] = {
    # pure chartists relaxing to the bimodal opinion equilibrium around a
    # constant price; the unstable Y=0 point is held by mean re-centering
    "test1": dict(_TEST12_COMMON, zeta2_price=5e-4, n_iters=1500, S0=10.0,
                  rho_C0=1.0, chartist_init="symmetric_uniform"),
    # balanced fixed populations around the fundamental price: the price law
    # relaxes to the fat-tailed steady state
    "test2": dict(_TEST12_COMMON, zeta2_price=0.13, n_iters=1000, S0=20.0,
                  rho_C0=0.5, chartist_init="equilibrium"),
    "test3a": dict(_TEST3_COMMON, alpha1=0.2, alpha2=0.55),
    "test3b": dict(_TEST3_COMMON, alpha1=0.2, alpha2=0.7),
    "test3c": dict(_TEST3_COMMON, alpha1=0.5, alpha2=0.4),
}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: the preset's name and its simulation config."""

    preset: str
    sim: SimConfig


def _fields(cls, skip=()) -> dict:
    # constructor fields of a dataclass: name -> annotation (a string here)
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


_PARAM_FIELDS = _fields(ModelParams)
_VALUE_FIELDS = _fields(ValueFunctionSpec)
_SIM_FIELDS = _fields(SimConfig, skip=("params", "value_spec"))
# every config key with its type, in config.txt order but for "preset"
_SCHEMA = {**_PARAM_FIELDS, **_VALUE_FIELDS, **_SIM_FIELDS}
REQUIRED_KEYS = tuple(k for k in _SCHEMA if k != "seed")


def preset_names() -> list[str]:
    return list(PRESETS) + ["custom"]


def preset(name: str, overrides: dict | None = None) -> ExperimentConfig:
    """Build a complete experiment configuration from a named preset.

    ``custom`` starts from an empty table and therefore requires every field
    in ``overrides`` (typically loaded from a config file); named presets
    accept partial overrides.  A key outside the config schema is an error.
    """
    if name in PRESETS:
        table = dict(PRESETS[name])
    elif name == "custom":
        table = {}
    else:
        raise ConfigurationError(
            f"unknown preset {name!r}; known: {', '.join(preset_names())}"
        )
    table.update(overrides or {})
    unknown = [k for k in table if k not in _SCHEMA]
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in REQUIRED_KEYS if k not in table]
    if missing:
        raise ConfigurationError(
            f"preset {name!r} is missing required fields: {', '.join(sorted(missing))}"
        )
    params = ModelParams(**{k: table[k] for k in _PARAM_FIELDS})
    value_spec = ValueFunctionSpec(**{k: table[k] for k in _VALUE_FIELDS})
    sim = {k: table[k] for k in _SIM_FIELDS if k in table}  # seed may be absent
    return ExperimentConfig(
        preset=name, sim=SimConfig(params=params, value_spec=value_spec, **sim))


def classify_regime(traj: Trajectory, S_F: float) -> str:
    """Tag a trajectory as boom/crash/damped_to_SF/oscillatory/stationary.

    Tie-breaking follows the listed order; trajectories matching none of the
    patterns (e.g. slow drifts) are tagged 'none'.  Requires at least 200
    recorded iterations.
    """
    S = np.asarray(traj.S, dtype=float)
    n = S.size
    if n < 200:
        raise ValueError(f"trajectory too short to classify ({n} records < 200)")
    slope = _slope(S[-(n // 4):])
    if S[-1] < 0.05 * S_F and slope <= 0.0:
        return "crash"
    if S[-1] > 3.0 * S_F and slope >= 0.0:
        return "boom"

    def crossings(path):
        # sign changes of path - S_F, points at S_F skipped
        signs = np.sign(path - S_F)
        signs = signs[signs != 0]
        return int(np.count_nonzero(signs[1:] != signs[:-1]))

    last_decile = S[-(n // 10):]
    if crossings(S) >= 1 and np.max(np.abs(last_decile - S_F)) / S_F < 0.02:
        return "damped_to_SF"
    half = S[n // 2:]
    if crossings(half) >= 4 and np.max(np.abs(half - S_F)) >= 0.05 * S_F:
        return "oscillatory"
    if np.max(np.abs(S - S[0])) / S[0] < 0.01:
        return "stationary"
    return "none"


def _slope(path: np.ndarray) -> float:
    """Least-squares slope of ``path`` against its index, in closed form over
    the centred index: no polyfit, whose lstsq would start LAPACK."""
    x = np.arange(path.size) - 0.5 * (path.size - 1)
    return float(np.sum(x * (path - np.mean(path))) / np.sum(x * x))


# --------------------------------------------------------------------------
# run outputs
# --------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _keyvalues(table: dict) -> str:
    """The text of config.txt and summary.txt: one key=value line per entry."""
    return "".join(f"{k}={_fmt(v)}\n" for k, v in table.items())


def _config_table(config: ExperimentConfig) -> dict:
    s = config.sim
    table = {k: getattr(s.params, k) for k in _PARAM_FIELDS}
    table.update({k: getattr(s.value_spec, k) for k in _VALUE_FIELDS})
    table.update({k: getattr(s, k) for k in _SIM_FIELDS})
    table["preset"] = config.preset
    return table


def _lognormal_overlay_grid(m: float, v: float) -> np.ndarray:
    """801 quantiles, from 1e-4 to 1 - 1e-4, of the lognormal law (m, v)."""
    from statistics import NormalDist  # statistics loads decimal, random, ...

    inv_cdf = NormalDist().inv_cdf
    z = np.array([inv_cdf(q) for q in np.linspace(1e-4, 1.0 - 1e-4, 801)])
    return np.exp(m + np.sqrt(v) * z)


# every file an analysis may write, removed first so none of an earlier
# analysis is left where its conditions no longer hold
_DERIVED = ("y_hist.csv", "s_hist.csv", "chartist_fp.csv", "lognormal_fp.csv",
            "pareto_fp.csv", "hill_scan.csv", "summary.txt")


def _load(path: Path, **kwargs) -> np.ndarray:
    # np.loadtxt naming the file that does not parse and its row, counted from
    # 0 (numpy counts from 1 where the number of values changes); an empty
    # y_samples.txt, of a market without chartists, is no cause to warn
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, **kwargs)
    except ValueError as exc:
        msg = re.sub(r"(changed from \d+ to \d+) at row (\d+);.*",
                     lambda m: f"{m[1]} at row {int(m[2]) - 1}", str(exc))
        raise ConfigurationError(f"{path}: {msg}") from None


def _analyze_outputs(config: ExperimentConfig, out: Path) -> dict:
    """Histograms, overlays and the summary table of the run directory ``out``,
    from its trajectory.csv and terminal samples.  Each block is written
    under the whole condition its law needs, once ``_DERIVED`` is removed.

    Raises, before it writes or removes anything, ConfigurationError on a
    file that does not parse or has the wrong shape, and InvariantViolation at
    the first row holding a value no run writes, in the first column that has
    one.
    """
    p = config.sim.params
    N = config.sim.N
    path = out / "trajectory.csv"
    with open(path) as fh:
        columns = fh.readline().rstrip("\n").split(",")
    missing = [c for c in Trajectory.CSV_COLUMNS if c not in columns]
    if missing:
        raise ConfigurationError(f"{path} has no column {', '.join(missing)}")
    rows = _load(path, delimiter=",", skiprows=1, ndmin=2)
    want = (config.sim.n_iters + 1, len(columns))
    if rows.shape != want:
        raise ConfigurationError(f"{path} holds {rows.shape[0]} rows of {rows.shape[1]} "
                                 f"values, not {want[0]} of {want[1]}")
    traj = SimpleNamespace(**dict(zip(columns, rows.T)))
    y = _load(out / "y_samples.txt", ndmin=1)
    s = _load(out / "s_samples.txt", ndmin=1)
    n_chartists = np.round(traj.rho_C * N)
    # the last row's chartists, and N_s prices
    for name, a, count in (("y_samples.txt", y, n_chartists[-1]),
                           ("s_samples.txt", s, config.sim.N_s)):
        if a.size != count:
            raise ConfigurationError(f"{out / name} holds {a.size} values, "
                                     f"not {count:.0f}")
    # per row, failing on nan too, as every run writes them: whole agents in
    # [0, N], rho_C + rho_F exactly 1, S and E finite and >= 0, |Y| and |y| <= 1,
    # s >= 0, and whole counts >= 0
    broken = {
        "rho_C": ~((n_chartists >= 0) & (n_chartists <= N)
                   & (n_chartists / N == traj.rho_C)),
        "rho_F": traj.rho_C + traj.rho_F != 1.0,
        "S": ~(np.isfinite(traj.S) & (traj.S >= 0.0)),
        "Y": ~(np.abs(traj.Y) <= 1.0),
        "E": ~(np.isfinite(traj.E) & (traj.E >= 0.0)),
        "max_abs_y": ~(traj.max_abs_y <= 1.0),
        "min_price": ~(traj.min_price >= 0.0),
        **{c: ~(np.isfinite(n) & (n >= 0.0) & (n == np.round(n))) for c, n in
           vars(traj).items() if c in ("rejected", "switch_cf", "switch_fc")},
    }
    for column, bad in broken.items():
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantViolation(
                f"{path}: row {i}: {column}={float(getattr(traj, column)[i])} "
                "is a value no run writes")
    summary: dict = {
        "preset": config.preset,
        "seed": config.sim.seed,
        "N": N,
        "N_s": config.sim.N_s,
        "n_iters": config.sim.n_iters,
        "dt": config.sim.dt,
        "terminal_S": float(traj.S[-1]),
        "terminal_Y": float(traj.Y[-1]),
        "terminal_rho_C": float(traj.rho_C[-1]),
        "terminal_rho_F": float(traj.rho_F[-1]),
        "terminal_E": float(traj.E[-1]),
        # whole for every run, so %.17g prints them as integers
        "interaction_rejections": traj.rejected.sum(),
        "switches_to_fundamentalist": traj.switch_cf.sum(),
        "switches_to_chartist": traj.switch_fc.sum(),
        "min_price_terminal": float(s.min()),
        "max_abs_y_terminal": float(np.abs(y).max()) if y.size else 0.0,
    }

    # the closed forms hold for fixed populations: chartists alone, or a
    # share rho_F of fundamentalists
    fixed = not config.sim.enable_switching
    rho_F = float(traj.rho_F[-1])
    E_T, S0 = float(traj.E[-1]), config.sim.S0
    for name in _DERIVED:
        (out / name).unlink(missing_ok=True)
    if y.size:
        y_hist = stats.Histogram.from_samples(y, bins=100, range=(-1.0, 1.0))
        y_hist.to_csv(out / "y_hist.csv")
    s_bins = 200 if fixed and rho_F > 0.0 else 100
    stats.Histogram.from_samples(s, bins=s_bins).to_csv(out / "s_hist.csv")
    if traj.S.size >= 200:
        summary["regime"] = classify_regime(traj, p.S_F)
    # the opinion equilibrium's closed form holds at H = 1 and D = 1 - y^2 alone
    if (fixed and rho_F == 0.0 and y.size
            and (p.herding_a, p.herding_b, p.gamma_diff) == (1.0, 0.0, 1.0)):
        try:  # none at kappa 0 or nan, nor normalizable at kappa = 1e-7
            eq = fp.ChartistEquilibrium(0.0, p.kappa)
        except (ValueError, NumericsError):
            pass
        else:
            grid = np.linspace(-1.0, 1.0, 801)
            stats.write_columns(out / "chartist_fp.csv", "x,density", grid, eq(grid))
            summary["kappa"] = eq.kappa
            summary["l1_chartist"] = stats.l1_density_distance(y_hist, eq)
    # every lognormal law of mean S0 has a finite second moment above S0^2
    if fixed and rho_F == 0.0 and S0 * S0 < E_T:
        grid = _lognormal_overlay_grid(*fp.lognormal_log_params(S0, E_T))
        stats.write_columns(out / "lognormal_fp.csv", "x,density", grid,
                            fp.lognormal_price_density(grid, S0, E_T))
        summary["lognormal_S_ref"] = S0
        summary["lognormal_E"] = E_T
        summary["ks_lognormal"] = stats.ks_statistic(
            s, lambda x: fp.lognormal_price_cdf(x, S0, E_T))
        summary["log_mean_fit"], summary["log_var_fit"] = stats.lognormal_fit(s)
    if fixed and rho_F > 0.0 and p.zeta2_price > 0.0:
        try:
            state = fp.pareto_steady_state(p, rho_F)
        except ValueError:  # mu <= 1: no steady law without a restoring force
            pass
        else:
            grid = np.geomspace(max(1e-3, float(np.quantile(s, 1e-3))),
                                float(s.max()), 801)
            stats.write_columns(out / "pareto_fp.csv", "x,density", grid,
                                state.pdf(grid))
            summary["mu_exp"] = state.mu_exp
    # the Hill estimates need k = 5% of the prices to be at least 10, and a
    # tail without ties; the diagnostic plateau scan takes k in [1%, 10%]
    if (fixed and rho_F > 0.0 and p.zeta2_price > 0.0
            and s.size >= 200 and s.min() < s.max()):
        scan = stats.hill_plateau(s)
        stats.write_columns(out / "hill_scan.csv", "k,estimate", scan.k_values,
                            scan.estimates)
        summary["hill_plateau_found"] = scan.plateau_found
        summary["hill_plateau_mean"] = float(scan.estimates.mean())
        summary["hill_k"] = k = int(0.05 * s.size)
        summary["hill_estimate"] = stats.hill_tail_index(s, k)
    if fixed and rho_F > 0.0 and p.zeta2_price > 0.0:
        summary["price_mean"] = price_mean = float(s.mean())
        summary["price_mean_rel_err"] = abs(price_mean - p.S_F) / p.S_F

    (out / "summary.txt").write_text(_keyvalues(summary))
    return summary


def run_experiment(config: ExperimentConfig, out: Path) -> dict:
    """Execute a configured experiment, write all outputs to ``out``, return
    the summary."""
    # run first: a configuration the engine refuses must leave no directory
    traj = run(config.sim)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(f"# random streams: {STREAM_LAYOUT}\n"
                                    + _keyvalues(_config_table(config)))
    traj.to_csv(out / "trajectory.csv")
    traj.write_samples(out / "y_samples.txt", out / "s_samples.txt")
    return _analyze_outputs(config, out)


# --------------------------------------------------------------------------
# config files and argument parsing
# --------------------------------------------------------------------------

_BOOLS = {"true": True, "1": True, "on": True, "yes": True,
          "false": False, "0": False, "off": False, "no": False}


def _parse_item(item: str, where: str) -> tuple:
    """The key, as typed, and the value of one ``key=value`` item, a config
    file line or a --set; ``where`` names the item in an error."""
    if "=" not in item:
        raise ConfigurationError(f"{where}: expected key=value, got {item!r}")
    key, raw = (part.strip() for part in item.split("=", 1))
    kind = _SCHEMA.get(key)
    try:
        if kind == "bool":
            return key, _BOOLS[raw.lower()]
        return key, {"int": int, "float": float}.get(kind, str)(raw)
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"{key}: cannot read {raw!r} as {kind} ({where})") from None


def load_config_file(path) -> dict:
    """Read a flat key=value config file (# starts a comment).

    Each line is read as a --set item is; a ``preset`` line is kept for the
    caller to pop, since ``preset()`` refuses every key outside the schema.
    """
    table: dict = {}
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    for ln, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = _parse_item(line, f"{p}:{ln}")
            table[key] = value
    return table


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the configuration
    # error code and keep the machine-readable prefix
    def error(self, message):
        print(f"ERROR:config:{message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kinmarket",
                     description="Kinetic Monte Carlo market experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a preset or custom configuration")
    runp.add_argument("--preset", default="custom",
                      help=f"one of: {', '.join(preset_names())}")
    runp.add_argument("--seed", type=int,
                      help="RNG seed (default: that of --set or --config, else 0)")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--config", help="key=value config file (overrides preset)")
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="set one config key as a --config line would "
                           "(repeatable; applies after --config, before --seed)")

    sub.add_parser("preset-list", help="list available presets")

    ana = sub.add_parser("analyze", help="recompute statistics for a run directory")
    ana.add_argument("--out", required=True, help="directory of a finished run")
    return parser


def _print_summary(summary: dict) -> int:
    print(_keyvalues(summary), end="")
    return 0


def _cmd_run(args) -> int:
    overrides = load_config_file(args.config) if args.config else {}
    overrides.pop("preset", None)  # --preset names the run
    overrides.update(_parse_item(item, "--set") for item in args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return _print_summary(run_experiment(preset(args.preset, overrides),
                                         Path(args.out)))


def _cmd_preset_list() -> int:
    header = f"{'name':<8} {'N':>6} {'iters':>6} {'switching':>9}  key parameters"
    print(header)
    for name, tab in PRESETS.items():
        keys = (f"alpha1={tab['alpha1']} alpha2={tab['alpha2']} "
                f"beta={tab['beta']} zeta2={tab['zeta2_price']} "
                f"rho_C0={tab['rho_C0']}")
        print(f"{name:<8} {tab['N']:>6} {tab['n_iters']:>6} "
              f"{str(tab['enable_switching']):>9}  {keys}")
    print("custom   (requires a full --config file)")
    return 0


def _cmd_analyze(args) -> int:
    out = Path(args.out)
    table = load_config_file(out / "config.txt")
    return _print_summary(
        _analyze_outputs(preset(table.pop("preset", "custom"), table), out))


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset-list":
            return _cmd_preset_list()
        if args.command == "analyze":
            return _cmd_analyze(args)
        return 1
    except SystemExit as exc:  # argparse errors already printed with prefix
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"ERROR:config:{exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, NumericsError) as exc:
        print(f"ERROR:numerical:{exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
