"""tools/ab.py: the arithmetic of its table and its digest diff, on hand-made
numbers (no git, no subprocess)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles():
    assert ab.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


def test_identical_sides_read_a_ratio_of_one_and_no_wins():
    x = [610.0, 655.0, 701.0, 598.0, 640.0, 720.0]
    c = ab.compare(x, x, "higher")
    assert c["ratio"] == 1.0 and c["interval"] == (1.0, 1.0)
    assert c["wins"] == 0 and c["pairs"] == 6
    assert c["base"] == c["head"] == ab.quartiles(x)


def test_a_uniform_gain_is_read_exactly():
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    c = ab.compare(base, 2.0 * base, "higher")
    assert c["ratio"] == 2.0 and c["interval"] == (2.0, 2.0)
    assert c["wins"] == 5
    assert ab.compare(base, 2.0 * base, "lower")["wins"] == 0


def test_the_interval_holds_the_ratio_within_the_per_pair_ratios():
    # head[j] = r[j] base[j] with r in [1.05, 1.25]: every order statistic of
    # a resample, so every resampled ratio of medians, lies in that range
    rng = np.random.default_rng(4)
    base = rng.uniform(600.0, 900.0, 10)
    r = rng.uniform(1.05, 1.25, 10)
    c = ab.compare(base, r * base, "higher", seed=7)
    lo, hi = c["interval"]
    assert r.min() <= lo <= c["ratio"] <= hi <= r.max()
    assert c["interval"] == ab.compare(base, r * base, "higher", seed=7)["interval"]
    assert c["wins"] == 10


@pytest.mark.parametrize("better, wins", [("higher", 1), ("lower", 2)])
def test_a_tie_wins_for_neither_side(better, wins):
    c = ab.compare([1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 2.5, 3.5], better)
    assert c["wins"] == wins


def test_differing_keys():
    base = {"a/run/stdout": "1", "b/run/stdout": "2", "c/run/stdout": "3"}
    head = {"a/run/stdout": "1", "b/run/stdout": "9", "d/run/stdout": "4"}
    assert ab.differing_keys(base, head) == ["b/run/stdout", "c/run/stdout",
                                             "d/run/stdout"]
    assert ab.differing_keys(base, dict(base)) == []


def test_a_setup_row_reads_a_lower_head_as_a_win():
    # --setup's line: fresh-interpreter set-up seconds, lower is better; the
    # head is 10% faster in 9 of 10 pairs and slower in pair 4
    base = [0.168, 0.171, 0.165, 0.150, 0.180, 0.169, 0.166, 0.175, 0.172, 0.170]
    head = [0.9 * b for b in base]
    head[3] = 0.160
    line = ab.row("setup_s", "lower", base, head)
    c = ab.compare(base, head, "lower")
    assert c["wins"] == 9
    assert line.split()[:3] == ["setup_s", "lower", "0.1695"]
    assert line.endswith(f"{c['ratio']:.3f} [{c['interval'][0]:.3f}, "
                         f"{c['interval'][1]:.3f}]       9/10")
    assert c["ratio"] < 1.0 and c["interval"][1] < 1.0
