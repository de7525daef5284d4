"""Golden digests: the bytes a fixed set of small runs writes, across revisions.

Every preset at seeds 2 and 3, N = N_s = 2,000 and 220 iterations (enough for
``classify_regime``): a ``run``, an ``analyze`` of a copy of its directory and
a ``--config`` replay, each through ``cli.main``.  ``golden_digests.txt``
holds the sha256 of every file each step leaves in its directory and of its
stdout, one ``<run>/<file> <sha256>`` line each, under a header naming the
Python and numpy versions it was recorded with: numpy does not promise the
same ``Generator`` streams across releases, so other versions fail the test
rather than pass it.

A change that alters output bytes on purpose rewrites the file, and says
which lines changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from kinmarket.cli import PRESETS, main

DIGESTS = Path(__file__).with_name("golden_digests.txt")
SIZE = ["--n-agents", "2000", "--n-price-samples", "2000", "--iters", "220"]
SEEDS = (2, 3)


def _header() -> str:
    return f"# python {platform.python_version()} numpy {np.__version__}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path) -> dict:
    """``<run>/<file>`` -> sha256 of every output and stdout, runs under root."""
    found = {}
    for name in PRESETS:
        for seed in SEEDS:
            base = root / f"{name}-{seed}"
            steps = (
                ("run", ["run", "--preset", name, "--seed", str(seed),
                         "--out", str(base / "run")] + SIZE),
                ("analyze", ["analyze", "--out", str(base / "analyze")]),
                ("replay", ["run", "--preset", "custom", "--config",
                            str(base / "run" / "config.txt"),
                            "--out", str(base / "replay")]),
            )
            for step, argv in steps:
                if step == "analyze":
                    shutil.copytree(base / "run", base / "analyze")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
                assert code == 0, f"kinmarket {' '.join(argv)} exited {code}"
                key = f"{name}-{seed}/{step}"
                found[f"{key}/stdout"] = _sha256(stdout.getvalue().encode())
                for path in sorted((base / step).iterdir()):
                    found[f"{key}/{path.name}"] = _sha256(path.read_bytes())
    return found


def test_outputs_keep_their_golden_digests(tmp_path):
    header, *lines = DIGESTS.read_text().splitlines()
    assert header == _header(), (
        f"{DIGESTS.name} was recorded under {header[2:]}, this is "
        f"{_header()[2:]}; numpy does not promise the same streams across "
        f"releases, so rewrite it with `python {Path(__file__).name}` on a "
        f"tree known to be right")
    want = dict(line.split(" ") for line in lines)
    got = digests(tmp_path)
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, f"{len(differ)} outputs changed: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        table = digests(Path(d))
    DIGESTS.write_text(_header() + "\n"
                       + "".join(f"{k} {v}\n" for k, v in table.items()))
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
