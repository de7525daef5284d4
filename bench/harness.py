"""One benchmark run: rounds of CLI operations, their checks and their metrics.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import kinmarket
import kinmarket.cli as cli
import oracles
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 3           # fresh interpreters per run, under -X importtime if traced
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import kinmarket, kinmarket.cli\n"
    "kinmarket.cli.preset(sys.argv[2])\n"
    "print('ready', flush=True)\n"
)


@dataclass
class Outcome:
    """One CLI invocation: wall time, what it printed and what it wrote."""

    argv: list[str]
    seconds: float
    summary: dict               # the key=value lines it printed
    failed: bool
    iters: int = 0              # iterations simulated, by a `run`
    switches: int = 0           # strategy switches in those iterations
    sim_seconds: float = 0.0    # of ``seconds``, inside simulation.run
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


class RunProbe:
    """Stands in for ``simulation.run`` where the CLI calls it.

    Times the call and keeps the returned trajectory, whose per-iteration
    invariant arrays are not written to disk.  Installed in untraced runs
    too: it adds two clock reads per experiment.
    """

    def __init__(self):
        self._run = cli.run
        self.traj = None
        self.seconds = 0.0
        cli.run = self.timed_run

    def timed_run(self, config):
        t0 = perf_counter()
        self.traj = self._run(config)
        self.seconds = perf_counter() - t0
        return self.traj


def _files(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p: p.stat().st_mtime_ns for p in directory.iterdir() if p.is_file()}


class Bench:
    """Executes CLI operations in this process and records their outcomes."""

    def __init__(self):
        self.probe = RunProbe()
        self.outcomes: list[Outcome] = []

    def op(self, *argv: str, out: Path) -> Outcome:
        """`kinmarket ARGV`, timed; ``out`` is the directory it writes to."""
        before = _files(out)
        self.probe.traj, self.probe.seconds = None, 0.0
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = perf_counter() - t0
        written = [p for p, mtime in _files(out).items() if before.get(p) != mtime]
        o = Outcome(argv=list(argv), seconds=seconds, failed=code != 0,
                    summary=dict(line.split("=", 1)
                                 for line in buf.getvalue().splitlines()
                                 if "=" in line),
                    sim_seconds=self.probe.seconds,
                    bytes_written=sum(p.stat().st_size for p in written))
        traj = self.probe.traj  # kept until the next operation, not beyond
        if traj is not None:
            o.iters = len(traj) - 1
            o.switches = traj.n_switches_cf + traj.n_switches_fc
        self.outcomes.append(o)
        return o

    def run_checked(self, preset: str, seed: int, out: Path, check) -> Outcome:
        """`kinmarket run --preset P --seed N`, then the shared and preset checks.

        ``check(outcome, rows, y, s)`` gets trajectory.csv and the terminal
        sample files as read back.
        """
        o = self.op("run", "--preset", preset, "--seed", str(seed), "--out", str(out),
                    out=out)
        if not o.failed:
            rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1,
                              ndmin=2)
            y = np.loadtxt(out / "y_samples.txt", ndmin=1)
            s = np.loadtxt(out / "s_samples.txt", ndmin=1)
            o.problems += oracles.check_invariants(rows, self.probe.traj, y, s)
            o.problems += check(o, rows, y, s)
        return o


# --------------------------------------------------------------------------
# workloads: one round each, into a fresh directory
# --------------------------------------------------------------------------

def chartist_relax(bench: Bench, seed: int, d: Path, refs) -> None:
    table = cli.PRESETS["test1"]
    bench.run_checked("test1", seed, d / "test1",
                      lambda o, rows, y, s: oracles.check_chartist_relax(
                          table, rows, y, s))


def regime_sweep(bench: Bench, seed: int, d: Path, refs) -> None:
    for name in ("test3a", "test3b", "test3c"):
        bench.run_checked(name, seed, d / name,
                          lambda o, rows, y, s, name=name: oracles.check_regime(
                              o.summary.get("regime"), refs[name], rows))


def fat_tail_io(bench: Bench, seed: int, d: Path, refs) -> None:
    table = cli.PRESETS["test2"]
    run_dir, replay_dir = d / "test2", d / "replay"
    first = bench.run_checked("test2", seed, run_dir,
                              lambda o, rows, y, s: oracles.check_fat_tail(
                                  table, rows, s))
    ana = bench.op("analyze", "--out", str(run_dir), out=run_dir)
    if not ana.failed:
        ana.problems += oracles.check_analyze(first.summary, ana.summary)
    # A replay must reproduce the run byte for byte.  It does not today:
    # `run` overrides the config file's seed with --seed, default 0, and the
    # workload seed is never 0.  The replay is counted as failed.
    replay = bench.op("run", "--preset", "custom", "--config",
                      str(run_dir / "config.txt"), "--out", str(replay_dir),
                      out=replay_dir)
    if not replay.failed:
        replay.failed = (replay_dir / "trajectory.csv").read_bytes() \
            != (run_dir / "trajectory.csv").read_bytes()


def regime_refs() -> dict:
    """Regime of each switching preset's deterministic mean-field solution."""
    return {name: cli.classify_regime(
                SimpleNamespace(S=oracles.mean_field_price(cli.preset(name).sim)),
                cli.PRESETS[name]["S_F"])
            for name in ("test3a", "test3b", "test3c")}


# name: (one round, preset resolved by the set-up timing, references)
WORKLOADS = {
    "chartist_relax": (chartist_relax, "test1", None),
    "regime_sweep": (regime_sweep, "test3a", regime_refs),
    "fat_tail_io": (fat_tail_io, "test2", None),
}


def run_rounds(bench: Bench, workload, seed: int, refs, seconds: float,
               tracer: Tracer | None = None):
    """Whole rounds until ``seconds`` have passed: (untraced, traced) rounds.

    With a tracer every untraced round is followed by a traced one, so that
    a drift in machine speed falls on both alike, and the rounds run for
    twice ``seconds``.
    """
    plain, traced = [], []
    t0 = perf_counter()
    while True:
        plain.append(_one_round(bench, workload, seed, refs))
        if tracer is not None:
            install_spans(tracer)
            try:
                traced.append(_one_round(bench, workload, seed, refs))
            finally:
                tracer.remove()
        if perf_counter() - t0 >= seconds * (1 if tracer is None else 2):
            return plain, traced


def _one_round(bench: Bench, workload, seed: int, refs) -> list[Outcome]:
    d = WORK / "round"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    start = len(bench.outcomes)
    workload(bench, seed, d, refs)
    return bench.outcomes[start:]


def round_figures(rnd: list[Outcome]) -> tuple[float, float]:
    """(wall seconds, simulated iterations per second inside simulation.run)."""
    return (sum(o.seconds for o in rnd),
            sum(o.iters for o in rnd) / sum(o.sim_seconds for o in rnd))


# --------------------------------------------------------------------------
# set-up time and import cost, in fresh interpreters
# --------------------------------------------------------------------------

def time_setup(preset: str, importtime: Path | None = None) -> float:
    """Seconds from starting a fresh interpreter to a resolved preset."""
    argv = [sys.executable]
    if importtime is not None:
        argv += ["-X", "importtime"]
    argv += ["-c", SETUP_CODE, str(SRC), preset]
    with contextlib.ExitStack() as stack:
        err = stack.enter_context(open(importtime, "w")) if importtime else None
        t0 = perf_counter()
        proc = stack.enter_context(subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT))
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up interpreter failed (exit {proc.returncode})")
    return seconds


def import_ms(path: Path) -> dict:
    """Self import time per top-level package from an -X importtime log."""
    totals: dict = {}
    for line in path.read_text().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            us = int(parts[0].split(":")[1])
        except ValueError:      # the header line
            continue
        pkg = parts[2].strip().split(".")[0]
        totals[pkg] = totals.get(pkg, 0) + us
    return {pkg: us / 1000.0 for pkg, us in totals.items()}


# --------------------------------------------------------------------------
# traced rounds
# --------------------------------------------------------------------------

def install_spans(tracer: Tracer) -> None:
    """Wrap each public callable where the program looks it up."""
    sim, stats, fp = kinmarket.simulation, kinmarket.stats, kinmarket.fokker_planck
    for name, owner, attr in (
        ("simulation.run", cli, "run"),
        ("simulation.step_chartists", sim, "step_chartists"),
        ("simulation.binary_interact", sim, "binary_interact"),
        ("simulation.step_strategy_exchange", sim, "step_strategy_exchange"),
        ("simulation.step_price", sim, "step_price"),
        ("simulation.mean_propensity", sim.AgentEnsemble, "mean_propensity"),
        ("model.chartist_profit", sim, "chartist_profit"),
        ("model.value_function", sim, "value_function"),
        ("cli.run_experiment", cli, "run_experiment"),
        ("cli.trajectory_csv", sim.Trajectory, "to_csv"),
        ("cli.write_samples", sim.Trajectory, "write_samples"),
        ("cli.analyze", cli, "_analyze_outputs"),
        ("cli.analyze_command", cli, "_cmd_analyze"),
        ("stats.l1_density_distance", stats, "l1_density_distance"),
        ("stats.ks_statistic", stats, "ks_statistic"),
        ("stats.hill_plateau", stats, "hill_plateau"),
        ("stats.histogram", stats.Histogram, "from_samples"),
        ("stats.histogram", stats.Histogram, "to_csv"),
        ("fokker_planck.equilibrium", fp.ChartistEquilibrium, "__init__"),
        ("fokker_planck.equilibrium_sample", fp.ChartistEquilibrium, "sample"),
        ("fokker_planck.pareto", fp, "pareto_steady_state"),
        ("fokker_planck.pareto", fp.ParetoSteadyState, "pdf"),
    ):
        tracer.wrap(name, owner, attr)


def layer_metrics(tracer: Tracer, traced: list[list[Outcome]],
                  plain: list[list[Outcome]], imports: list[dict]) -> dict:
    """Loop costs per simulated iteration; tail, I/O and analysis per round.

    ``traced`` are the rounds run under ``tracer``, ``plain`` the same rounds
    without it, ``imports`` the -X importtime figures of fresh interpreters.
    """
    outcomes = [o for r in traced for o in r]
    n_rounds = len(traced)
    iters = sum(o.iters for o in outcomes)
    t = tracer.total

    def per_iter(seconds):
        return 1000.0 * seconds / iters

    def per_round(seconds):
        return 1000.0 * seconds / n_rounds

    m = {f"{name}.ms_per_iter": (per_iter(t[name]), "ms") for name in (
        "simulation.run", "simulation.step_chartists",
        "simulation.binary_interact", "simulation.step_strategy_exchange",
        "simulation.step_price", "simulation.mean_propensity",
        "model.chartist_profit", "model.value_function")}
    m["simulation.run_self.ms_per_iter"] = (
        per_iter(tracer.self_time("simulation.run")), "ms")
    m["simulation.mean_propensity.calls_per_iter"] = (
        tracer.calls["simulation.mean_propensity"] / iters, "count")
    m["simulation.switches_per_iter"] = (
        sum(o.switches for o in outcomes) / iters, "count")
    m["cli.tail_ms"] = (per_round(t["cli.run_experiment"] - t["simulation.run"]),
                        "ms")
    m["cli.read_back_ms"] = (per_round(tracer.self_time("cli.analyze_command")),
                             "ms")
    m["cli.bytes_written"] = (sum(o.bytes_written for o in outcomes) / n_rounds,
                              "bytes")
    for name in ("cli.write_samples", "cli.trajectory_csv", "cli.analyze",
                 "stats.l1_density_distance", "stats.ks_statistic",
                 "stats.hill_plateau", "stats.histogram",
                 "fokker_planck.equilibrium", "fokker_planck.equilibrium_sample",
                 "fokker_planck.pareto"):
        m[f"{name}_ms"] = (per_round(t[name]), "ms")
    for pkg in ("numpy", "scipy", "kinmarket"):
        m[f"import.{pkg}_ms"] = (
            statistics.median(i.get(pkg, 0.0) for i in imports), "ms")
    m["trace.overhead_pct"] = (
        100.0 * (statistics.median(round_figures(r)[0] for r in traced)
                 / statistics.median(round_figures(r)[0] for r in plain) - 1.0),
        "%")
    return m


def end_to_end_metrics(setup: list[float], plain: list[list[Outcome]]) -> dict:
    """Median set-up and round figures of an untraced run, and its peak memory."""
    walls, rates = zip(*(round_figures(r) for r in plain))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sim_iters_per_s": (statistics.median(rates), "iter/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check the workload; the result object to print."""
    workload, setup_preset, make_refs = WORKLOADS[workload_name]
    # never 0: a config replay that loses the seed then always differs
    seed = 1 + seed % (2**31 - 1)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if trace:
            logs = [WORK / f"importtime{i}.txt" for i in range(SETUP_SAMPLES)]
            for log in logs:
                time_setup(setup_preset, importtime=log)
            imports = [import_ms(log) for log in logs]
        else:
            setup = [time_setup(setup_preset) for _ in range(SETUP_SAMPLES)]
        refs = make_refs() if make_refs else None

        bench = Bench()
        tracer = Tracer() if trace else None
        plain, traced = run_rounds(bench, workload, seed, refs, seconds, tracer)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    problems = [(o.argv, p) for o in bench.outcomes if not o.failed
                for p in o.problems]
    for o in bench.outcomes:
        print(f"{o.seconds:8.3f} s  {'FAILED ' if o.failed else ''}"
              f"kinmarket {' '.join(o.argv)}", file=sys.stderr)
    for argv, p in problems:
        print(f"CHECK FAILED: kinmarket {' '.join(argv)}: {p}", file=sys.stderr)

    metrics = layer_metrics(tracer, traced, plain, imports) if trace \
        else end_to_end_metrics(setup, plain)
    return {
        "correct": not problems,
        "attempted": len(bench.outcomes),
        "failed": sum(o.failed for o in bench.outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
