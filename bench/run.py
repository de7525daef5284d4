"""kinmarket benchmark: end-to-end cost of the CLI experiments, and where it goes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process through ``kinmarket.cli.main``, in whole
rounds, until S seconds have passed, checks every output against references
the benchmark computes itself (``oracles.py``), and prints one JSON object as
the last line of standard output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it follows every round with the same
round under timers around the public callables of each module (``spans.py``)
and reports the per-layer metrics.  The package is imported from ``src/``
next to this directory; nothing is installed.  See README.md.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("chartist_relax", "regime_sweep", "fat_tail_io")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kinmarket" / "__init__.py").is_file():
        print(f"error: no kinmarket package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
