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
which lines changed and why.  Run as a script, it first prints the keys that
changed, were added or were removed against the file it replaces:

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

from kinmarket.cli import PRESETS, main, preset
from kinmarket.simulation import run

DIGESTS = Path(__file__).with_name("golden_digests.txt")
SIZE = ["--set", "N=2000", "--set", "N_s=2000", "--set", "n_iters=220"]
SEEDS = (2, 3)
# test1 at an odd size, where the pairing leaves one agent out and draws
# choice(N, N - 1): the sha256 of the S, Y, max_abs_y and y_final bytes,
# recorded under the numpy version of golden_digests.txt's header
ODD = {"N": 2001, "N_s": 2001, "n_iters": 60, "seed": 2}
ODD_SHA256 = "b7d582925a39ce9fa6bffe0b905461b26332ad2b379c2789bd91ea42c205d15d"


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


def test_odd_size_pairing_keeps_its_bytes():
    # the value is of the numpy version golden_digests.txt was recorded with
    assert DIGESTS.read_text().splitlines()[0] == _header()
    traj = run(preset("test1", ODD).sim)
    got = hashlib.sha256()
    for a in (traj.S, traj.Y, traj.max_abs_y, traj.y_final):
        got.update(a.tobytes())
    assert got.hexdigest() == ODD_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        table = digests(Path(d))
    old = (dict(line.split(" ") for line in DIGESTS.read_text().splitlines()[1:])
           if DIGESTS.exists() else {})
    for change, keys in (
            ("changed", [k for k in table if k in old and old[k] != table[k]]),
            ("added", [k for k in table if k not in old]),
            ("removed", [k for k in old if k not in table])):
        print(f"{len(keys)} {change}" + "".join(f"\n  {k}" for k in keys))
    DIGESTS.write_text(_header() + "\n"
                       + "".join(f"{k} {v}\n" for k, v in table.items()))
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
