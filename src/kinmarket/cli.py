"""Command-line experiment runner.

Subcommands
-----------
run          execute a preset or custom configuration and write all outputs
preset-list  show the built-in experiment presets
analyze      recompute statistics and overlays from a finished run directory

A run writes ``config.txt`` (the fully resolved key=value configuration,
reusable via --config), ``trajectory.csv`` and ``y_samples.txt`` /
``s_samples.txt`` (terminal sample sets, one value per line), then analyzes
its directory as ``analyze`` does: ``y_hist.csv`` / ``s_hist.csv``, the
overlays and ``summary.txt`` (key=value report).  ``trajectory.csv`` holds,
per iteration, ``iter,t,S,Y,rho_C,rho_F,E,max_abs_y,min_price`` and the
iteration's ``rejected`` interactions and switches ``switch_cf`` (chartist to
fundamentalist) and ``switch_fc``; the summary's run totals are their sums.
The analytic overlays (two-column CSV) follow from the populations: with
switching off, a market of chartists alone gets ``chartist_fp.csv`` (opinion
equilibrium) and ``lognormal_fp.csv`` (price), and one with fundamentalists
gets ``pareto_fp.csv`` and a 200-bin price histogram, and ``hill_scan.csv``
(fat price tail) when its 200 or more prices are not all equal; a switching
run gets none.
All randomness is controlled by the seed (--seed, else the config file's, else
0); two runs with identical flags produce identical files.

Exit codes: 0 success, 1 configuration error, 2 numerical-invariant failure.
Errors are printed to stderr with the machine-readable prefix
``ERROR:<category>:``.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from statistics import NormalDist
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
from .simulation import SimConfig, Trajectory, run

__all__ = ["ExperimentConfig", "preset", "preset_names", "classify_regime",
           "main", "entry"]

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
    "test1": dict(
        alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02, beta=0.1,
        zeta2_price=5e-4, t_C=1.0, gamma_f=1.3, S_F=20.0, dividend=0.0,
        k_discount=0.75, mu_freq=0.2, sigma_switch=0.8,
        herding_a=1.0, herding_b=0.0, gamma_diff=1.0,
        L=1.0, R0=0.0, r_exp=0.5, l_exp=0.25,
        N=50000, N_s=50000, dt=1.0, n_iters=1500, enable_switching=False,
        S0=10.0, rho_C0=1.0, chartist_init="symmetric_uniform", pin_mean=True,
    ),
    # balanced fixed populations around the fundamental price: the price law
    # relaxes to the fat-tailed steady state
    "test2": dict(
        alpha1=0.01, alpha2=0.01, sigma2_opinion=0.02, beta=0.1,
        zeta2_price=0.13, t_C=1.0, gamma_f=1.3, S_F=20.0, dividend=0.0,
        k_discount=0.75, mu_freq=0.2, sigma_switch=0.8,
        herding_a=1.0, herding_b=0.0, gamma_diff=1.0,
        L=1.0, R0=0.0, r_exp=0.5, l_exp=0.25,
        N=50000, N_s=50000, dt=1.0, n_iters=1000, enable_switching=False,
        S0=20.0, rho_C0=0.5, chartist_init="equilibrium", pin_mean=True,
    ),
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
    return {f.name: f.type for f in fields(cls) if f.init and f.name not in skip}


_PARAM_FIELDS = _fields(ModelParams)
_VALUE_FIELDS = _fields(ValueFunctionSpec)
_SIM_FIELDS = _fields(SimConfig, skip=("params", "value_spec"))
# every config key with its type, in config.txt order but for "preset"
_SCHEMA = {**_PARAM_FIELDS, **_VALUE_FIELDS, **_SIM_FIELDS}
REQUIRED_KEYS = tuple(k for k in _SCHEMA if k != "seed")
# keys of older versions that still load, and do nothing
_RETIRED_KEYS = ("n_streams", "overlay_chartist", "overlay_lognormal",
                 "overlay_pareto", "hill_k_frac", "bins_y", "bins_s")


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
    unknown = [k for k in table if k not in _SCHEMA and k not in _RETIRED_KEYS]
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
    last_quarter = S[-(n // 4):]
    slope = np.polyfit(np.arange(last_quarter.size), last_quarter, 1)[0]
    if S[-1] < 0.05 * S_F and slope <= 0.0:
        return "crash"
    if S[-1] > 3.0 * S_F and slope >= 0.0:
        return "boom"
    signs = np.sign(S - S_F)
    signs = signs[signs != 0]
    crossings_all = int(np.count_nonzero(signs[1:] != signs[:-1]))
    last_decile = S[-(n // 10):]
    if crossings_all >= 1 and np.max(np.abs(last_decile - S_F)) / S_F < 0.02:
        return "damped_to_SF"
    half = S[n // 2:]
    signs_half = np.sign(half - S_F)
    signs_half = signs_half[signs_half != 0]
    crossings_half = int(np.count_nonzero(signs_half[1:] != signs_half[:-1]))
    if crossings_half >= 4 and np.max(np.abs(half - S_F)) >= 0.05 * S_F:
        return "oscillatory"
    if np.max(np.abs(S - S[0])) / S[0] < 0.01:
        return "stationary"
    return "none"


# --------------------------------------------------------------------------
# run outputs
# --------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_keyvalues(path: Path, table: dict) -> None:
    with open(path, "w") as fh:
        for k, v in table.items():
            fh.write(f"{k}={_fmt(v)}\n")


def _config_table(config: ExperimentConfig) -> dict:
    s = config.sim
    table = {k: getattr(s.params, k) for k in _PARAM_FIELDS}
    table.update({k: getattr(s.value_spec, k) for k in _VALUE_FIELDS})
    table.update({k: getattr(s, k) for k in _SIM_FIELDS})
    table["preset"] = config.preset
    return table


def _write_overlay(path: Path, x: np.ndarray, density: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("x,density\n")
        for a, b in zip(x, density):
            fh.write(f"{a:.17g},{b:.17g}\n")


def _lognormal_overlay_grid(m: float, v: float) -> np.ndarray:
    """801 quantiles, from 1e-4 to 1 - 1e-4, of the lognormal law (m, v)."""
    inv_cdf = NormalDist().inv_cdf
    z = np.array([inv_cdf(q) for q in np.linspace(1e-4, 1.0 - 1e-4, 801)])
    return np.exp(m + np.sqrt(v) * z)


# every file a run may write, removed first so none of an earlier run is left
_OUTPUTS = ("config.txt", "trajectory.csv", "y_samples.txt", "s_samples.txt",
            "y_hist.csv", "s_hist.csv", "chartist_fp.csv", "lognormal_fp.csv",
            "pareto_fp.csv", "hill_scan.csv", "summary.txt")


def _load(path: Path, **kwargs) -> np.ndarray:
    # np.loadtxt naming the file that does not parse (numpy names the row);
    # an empty y_samples.txt, of a market without chartists, is no cause to warn
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, **kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _analyze_outputs(config: ExperimentConfig, out: Path) -> dict:
    """Histograms, overlays and the summary table of the run directory ``out``,
    from its trajectory.csv and terminal samples (see the module docstring).

    After writing the summary, raises InvariantViolation at the first row
    that breaks the population bookkeeping, |y| <= 1 or s >= 0.
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
    # per row: a whole number of agents in [0, N], rho_C + rho_F exactly 1,
    # and (failing on nan too) |y| <= 1 and s >= 0
    broken = {
        "rho_C": ~((n_chartists >= 0) & (n_chartists <= N)
                   & (n_chartists / N == traj.rho_C)),
        "rho_F": traj.rho_C + traj.rho_F != 1.0,
        "max_abs_y": ~(traj.max_abs_y <= 1.0),
        "min_price": ~(traj.min_price >= 0.0),
    }
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
        "interaction_rejections": int(traj.rejected.sum()),
        "switches_to_fundamentalist": int(traj.switch_cf.sum()),
        "switches_to_chartist": int(traj.switch_fc.sum()),
        "min_price_terminal": float(s.min()) if s.size else 0.0,
        "max_abs_y_terminal": float(np.abs(y).max()) if y.size else 0.0,
        "rho_sum_exact": not broken["rho_F"].any(),
        "n_agents_constant": not broken["rho_C"].any(),
    }

    fixed = not config.sim.enable_switching
    rho_F = float(traj.rho_F[-1])
    if y.size:
        y_hist = stats.Histogram.from_samples(y, bins=100, range=(-1.0, 1.0))
        y_hist.to_csv(out / "y_hist.csv")
    else:
        y_hist = None
    s_hist = stats.Histogram.from_samples(
        s, bins=200 if fixed and rho_F > 0.0 else 100)
    s_hist.to_csv(out / "s_hist.csv")

    if traj.S.size >= 200:
        summary["regime"] = classify_regime(traj, p.S_F)

    if fixed and rho_F == 0.0:
        if y_hist is not None:
            eq = fp.symmetric_equilibrium(p.kappa)
            grid = np.linspace(-1.0, 1.0, 801)
            _write_overlay(out / "chartist_fp.csv", grid, eq(grid))
            summary["kappa"] = eq.kappa
            summary["l1_chartist"] = stats.l1_density_distance(y_hist, eq)
        E_T = float(traj.E[-1])
        S_ref = config.sim.S0
        if E_T > S_ref * S_ref:
            grid = _lognormal_overlay_grid(*fp.lognormal_log_params(S_ref, E_T))
            _write_overlay(out / "lognormal_fp.csv", grid,
                           fp.lognormal_price_density(grid, S_ref, E_T))
            summary["lognormal_S_ref"] = S_ref
            summary["lognormal_E"] = E_T
            summary["ks_lognormal"] = stats.ks_statistic(
                s, lambda x: fp.lognormal_price_cdf(x, S_ref, E_T))
            fit_m, fit_v = stats.lognormal_fit(s)
            summary["log_mean_fit"] = fit_m
            summary["log_var_fit"] = fit_v

    if fixed and rho_F > 0.0 and p.zeta2_price > 0.0:
        state = fp.pareto_steady_state(p, rho_F)
        grid = np.geomspace(max(1e-3, float(np.quantile(s, 1e-3))),
                            float(s.max()), 801)
        _write_overlay(out / "pareto_fp.csv", grid, state.pdf(grid))
        summary["mu_exp"] = state.mu_exp
        # the Hill estimates need k = 5% of the prices to be at least 10, and
        # a tail without ties; the diagnostic plateau scan takes k in [1%, 10%]
        if s.size >= 200 and s.min() < s.max():
            scan = stats.hill_plateau(s)
            with open(out / "hill_scan.csv", "w") as fh:
                fh.write("k,estimate\n")
                for k, est in zip(scan.k_values, scan.estimates):
                    fh.write(f"{int(k)},{est:.17g}\n")
            summary["hill_plateau_found"] = scan.plateau_found
            summary["hill_plateau_mean"] = float(scan.estimates.mean())
            k_default = int(0.05 * s.size)
            summary["hill_k"] = k_default
            summary["hill_estimate"] = stats.hill_tail_index(s, k_default)
        summary["price_mean"] = float(s.mean())
        summary["price_mean_rel_err"] = abs(summary["price_mean"] - p.S_F) / p.S_F

    _write_keyvalues(out / "summary.txt", summary)
    for column, bad in broken.items():
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantViolation(
                f"{path}: row {i}: {column}={float(getattr(traj, column)[i])} "
                "breaks whole agents, rho_C + rho_F = 1, |y| <= 1 or s >= 0")
    return summary


def run_experiment(config: ExperimentConfig, out: Path) -> dict:
    """Execute a configured experiment, write all outputs to ``out``, return
    the summary."""
    # run first: a configuration the engine refuses must leave no directory
    traj = run(config.sim)
    out.mkdir(parents=True, exist_ok=True)
    for name in _OUTPUTS:
        (out / name).unlink(missing_ok=True)
    _write_keyvalues(out / "config.txt", _config_table(config))
    traj.to_csv(out / "trajectory.csv")
    traj.write_samples(out / "y_samples.txt", out / "s_samples.txt")
    return _analyze_outputs(config, out)


# --------------------------------------------------------------------------
# config files and argument parsing
# --------------------------------------------------------------------------

def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind = _SCHEMA.get(key)
    if kind == "bool":
        if raw.lower() in ("true", "1", "on", "yes"):
            return True
        if raw.lower() in ("false", "0", "off", "no"):
            return False
        raise ValueError(raw)
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def load_config_file(path) -> dict:
    """Read a flat key=value config file (# starts a comment).

    The table keeps a ``preset`` line; ``out`` lines are skipped.
    """
    table: dict = {}
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    for ln, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{p}:{ln}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key == "out":
            continue
        try:
            table[key] = _parse_value(key, raw)
        except ValueError:
            raise ConfigurationError(f"{key}: cannot read {raw.strip()!r} as "
                                     f"{_SCHEMA[key]} ({p}:{ln})") from None
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
                      help="RNG seed (default: the config file's, else 0)")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--config", help="key=value config file (overrides preset)")
    runp.add_argument("--iters", type=int, help="override iteration count")
    runp.add_argument("--n-agents", type=int, help="override agent count N")
    runp.add_argument("--n-price-samples", type=int, help="override price sample count")
    runp.add_argument("--zeta2", type=float, help="override price-noise variance")
    runp.add_argument("--pin-mean", choices=["on", "off"],
                      help="override mean re-centering")

    sub.add_parser("preset-list", help="list available presets")

    ana = sub.add_parser("analyze", help="recompute statistics for a run directory")
    ana.add_argument("--out", required=True, help="directory of a finished run")
    return parser


def _cmd_run(args) -> int:
    overrides: dict = {}
    if args.config:
        overrides.update(load_config_file(args.config))
        overrides.pop("preset", None)  # --preset names the run
    pin_mean = None if args.pin_mean is None else args.pin_mean == "on"
    for key, value in (("n_iters", args.iters), ("N", args.n_agents),
                       ("N_s", args.n_price_samples), ("zeta2_price", args.zeta2),
                       ("pin_mean", pin_mean), ("seed", args.seed)):
        if value is not None:
            overrides[key] = value
    summary = run_experiment(preset(args.preset, overrides), Path(args.out))
    for k, v in summary.items():
        print(f"{k}={_fmt(v)}")
    return 0


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
    summary = _analyze_outputs(preset(table.pop("preset", "custom"), table), out)
    for k, v in summary.items():
        print(f"{k}={_fmt(v)}")
    return 0


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
