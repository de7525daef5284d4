"""A/B runner: the benchmark and the golden digests of two trees, side by side.

    python3 tools/ab.py --base REV [--head REV] --workload W --pairs K
    python3 tools/ab.py --base REV [--head REV] --workload W --setup K
    python3 tools/ab.py --base REV [--head REV] --bytes

Each revision is checked out with ``git worktree add --detach`` under
``.bench_work/ab/`` and removed at the end.  The head defaults to the working
tree, copied there as git sees it (tracked and untracked files, less the
ignored ones): a benchmark run empties the ``.bench_work/`` of its own tree.

A timing run makes K pairs.  Pair j runs each tree's own
``bench/run.py --workload W --seed j --seconds S --trace 0``, S being the
``run_seconds`` of ``BENCHMARK.json``, each in its own subprocess, the head
first on odd j and the base first on even j.  For each end-to-end metric of
``BENCHMARK.json`` it prints both sides' medians and quartiles, the head/base
ratio of the medians with a 95% bootstrap interval over the pairs (seeded: a
re-run of the same numbers prints the same interval) and the number of pairs
the head won; then each side's count of runs that read ``correct: false`` and
of failed operations.

``--setup K`` makes K pairs of set-up timings in place of the benchmark runs,
alternating the same way: each is the ``time_setup`` of the tree's own
``bench/harness.py`` (seconds from a fresh interpreter to workload W's preset
resolved), called in a subprocess on that tree's ``bench/`` and ``src/``.  It
prints one line of the same table, for ``setup_s``.

``--bytes`` runs each tree's ``tests/test_golden.py::digests`` in a
subprocess on that tree's ``src/`` and lists the keys whose digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "ab"
BOOTSTRAP = 4000
DIGESTS = """
import json, pathlib, sys, tempfile
sys.path.insert(0, "tests")
from test_golden import digests
with tempfile.TemporaryDirectory() as d:
    print(json.dumps(digests(pathlib.Path(d))))
"""
SETUP = """
import sys
import harness
print(harness.time_setup(harness.WORKLOADS[sys.argv[1]][1]))
"""
HEADER = (f"{'metric':<16} {'better':<7} {'base':<28} {'head':<28} "
          f"{'head/base [95%]':<24} head wins")


def quartiles(values) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


def compare(base, head, better: str, n_boot: int = BOOTSTRAP, seed: int = 0) -> dict:
    """One metric over the pairs, base[j] and head[j] being pair j's values:
    both sides' quartiles, the head/base ratio of the medians with its 95%
    interval from n_boot resamples of the pairs, and the pairs the head won
    (a tie wins for neither side; ``better`` is "higher" or "lower")."""
    base, head = np.asarray(base, dtype=float), np.asarray(head, dtype=float)
    idx = np.random.default_rng(seed).integers(0, base.size, (n_boot, base.size))
    boot = np.median(head[idx], axis=1) / np.median(base[idx], axis=1)
    wins = head > base if better == "higher" else head < base
    return {"base": quartiles(base), "head": quartiles(head),
            "ratio": float(np.median(head) / np.median(base)),
            "interval": tuple(float(q) for q in np.percentile(boot, [2.5, 97.5])),
            "wins": int(np.count_nonzero(wins)), "pairs": base.size}


def row(metric: str, better: str, base, head) -> str:
    """The line of ``metric`` under HEADER: both sides' median [q1, q3], the
    head/base ratio [95%] and the pairs the head won, from ``compare``."""
    c = compare(base, head, better)
    cell = {s: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*c[s]) for s in ("base", "head")}
    return (f"{metric:<16} {better:<7} {cell['base']:<28} {cell['head']:<28} "
            f"{c['ratio']:.3f} [{c['interval'][0]:.3f}, {c['interval'][1]:.3f}]"
            f"{'':<6} {c['wins']}/{c['pairs']}")


def differing_keys(base: dict, head: dict) -> list[str]:
    """The keys that differ in value or are on one side only, sorted.  The
    one line of tests/test_golden.py's own diff, kept here so that neither
    kinmarket nor a tree's tests are imported into this process."""
    return sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def tree(rev: str | None, name: str):
    """A checkout of rev under WORK/name, or a copy of the working tree."""
    path = WORK / name
    if path.exists():
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(path)], capture_output=True)
        shutil.rmtree(path, ignore_errors=True)
    _git("worktree", "prune")
    if rev is None:
        files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for rel in filter(None, files.split("\0")):
            if (ROOT / rel).is_file():
                (path / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / rel, path / rel)
    else:
        _git("worktree", "add", "--detach", str(path), rev)
    try:
        yield path
    finally:
        if rev is not None:
            _git("worktree", "remove", "--force", str(path))
        shutil.rmtree(path, ignore_errors=True)


def _last_json(argv: list[str], cwd: Path, env=None) -> dict:
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(argv)} in {cwd} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def bench(path: Path, workload: str, seed: int, seconds: float) -> dict:
    return _last_json([sys.executable, "bench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0"], path)


def digests(path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    return _last_json([sys.executable, "-c", DIGESTS], path, env)


def setup_seconds(path: Path, workload: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(path / "bench"),
                                                       str(path / "src")]))
    return _last_json([sys.executable, "-c", SETUP, workload], path, env)


def _alternate(trees: dict, pairs: int, measure) -> dict:
    """measure(side, j) for pairs j = 1..pairs, the head first on odd j."""
    runs = {side: [] for side in trees}
    for j in range(1, pairs + 1):
        for side in (("head", "base") if j % 2 else ("base", "head")):
            runs[side].append(measure(side, j))
    return runs


def _setup_timing(trees: dict, workload: str, pairs: int) -> None:
    runs = _alternate(trees, pairs,
                      lambda side, j: setup_seconds(trees[side], workload))
    print(f"{workload} set-up, {pairs} pairs of fresh interpreters; "
          "median [q1, q3]")
    print(HEADER)
    print(row("setup_s", "lower", runs["base"], runs["head"]))


def _timing(trees: dict, workload: str, pairs: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    def measure(side, j):
        r = bench(trees[side], workload, j, seconds)
        print(f"pair {j}: {side} {r['metrics']['sim_iters_per_s']['value']:.1f} "
              "iter/s", file=sys.stderr, flush=True)
        return r

    runs = _alternate(trees, pairs, measure)
    print(f"{workload}, {pairs} pairs at {seconds:g} s; median [q1, q3]")
    print(HEADER)
    for m in spec["end_to_end"]:
        value = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                 for side in trees}
        print(row(m["name"], m["better"], value["base"], value["head"]))
    for side in trees:
        print(f"{side}: {sum(not r['correct'] for r in runs[side])} of {pairs} "
              f"runs not correct, {sum(r['failed'] for r in runs[side])} of "
              f"{sum(r['attempted'] for r in runs[side])} operations failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--head", help="head revision (default: the working tree)")
    ap.add_argument("--workload", help="benchmark workload to time")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--setup", type=int, metavar="K",
                    help="time K pairs of the workload's set-up, not its runs")
    ap.add_argument("--bytes", action="store_true",
                    help="list the golden digests that differ")
    args = ap.parse_args(argv)
    if not (args.workload or args.bytes):
        ap.error("give --workload, --bytes or both")
    if args.setup and not args.workload:
        ap.error("--setup times a workload's set-up: give --workload")
    head = "working tree" if args.head is None else _git("rev-parse", "--short", args.head)
    print(f"base {_git('rev-parse', '--short', args.base)}, head {head}")
    with tree(args.base, "base") as base_path, tree(args.head, "head") as head_path:
        trees = {"base": base_path, "head": head_path}
        if args.bytes:
            keys = differing_keys(digests(base_path), digests(head_path))
            print(f"{len(keys)} golden digests differ" + "".join(f"\n  {k}" for k in keys))
        if args.setup:
            _setup_timing(trees, args.workload, args.setup)
        elif args.workload:
            _timing(trees, args.workload, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
