"""Empirical diagnostics: histograms, tail indices, fit distances.

Connects Monte Carlo sample sets to the closed-form oracles: normalized
histograms with mass checks, the Hill order-statistics estimator of the CCDF
tail exponent (with a plateau scan over the order count), an L1 distance
between an empirical histogram and an analytic density, and lognormal
moment-matching fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Histogram",
    "hill_tail_index",
    "hill_plateau",
    "l1_density_distance",
    "lognormal_fit",
    "ks_statistic",
]


@dataclass
class Histogram:
    """Normalized histogram: strictly increasing edges, counts, densities."""

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=float)
        self.counts = np.asarray(self.counts)
        self.density = np.asarray(self.density, dtype=float)
        if self.edges.ndim != 1 or np.any(np.diff(self.edges) <= 0.0):
            raise ValueError("histogram edges must be strictly increasing")
        if self.counts.size != self.edges.size - 1 or self.density.size != self.counts.size:
            raise ValueError("counts/density must have one entry per bin")
        mass = float(np.sum(self.density * self.widths))
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"histogram density integrates to {mass}, not 1")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @classmethod
    def from_samples(cls, samples, bins=100, range=None) -> "Histogram":
        x = np.asarray(samples, dtype=float)
        if x.size == 0:
            raise ValueError("cannot build a histogram from an empty sample set")
        counts, edges = np.histogram(x, bins=bins, range=range)
        n_in = counts.sum()
        if n_in == 0:
            raise ValueError("no samples fall inside the histogram range")
        density = counts / (n_in * np.diff(edges))
        return cls(edges=edges, counts=counts, density=density)

    def to_csv(self, path) -> None:
        write_columns(path, "left_edge,right_edge,count,density", self.edges[:-1],
                      self.edges[1:], self.counts, self.density)


# values write_columns formats per block: its text and temporaries then hold
# under 0.3 MB at any table size
_BLOCK_VALUES = 4096


def write_columns(path, header: str, *columns) -> None:
    """Write the equal-length ``columns`` to ``path``: one comma-separated
    row of "%.17g" values per index, under the line ``header`` unless it is
    empty.  Every run-directory data file has this format.

    The columns pass through float64, so an int column is written exactly up
    to 2^53: above every count of a run, which is at most max(N, n_iters).
    """
    # Blocks of _BLOCK_VALUES values: one % over the table made a string of
    # several MB (+2.4 MB of test2's peak RSS).  Freeing it raised glibc's
    # mmap threshold, which once kept test1's 8*N-byte rng.choice temporaries
    # off fresh, faulting mmaps; that choice now runs on the thread that draws
    # the pairing ahead, whose own arena serves it.  With blocks, later runs
    # in a process read 0.3-0.7 minor faults per iteration on test1 and
    # test2, and up to 2.1 in test3b's exchange (0.1-0.3 with one %), at the
    # same ms per iteration.
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must have equal lengths")
    rows = max(1, _BLOCK_VALUES // len(columns))
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, n, rows):
            block = np.column_stack([c[start:start + rows] for c in columns])
            fh.write((line * len(block))
                     % tuple(block.astype(float, copy=False).ravel().tolist()))


def hill_tail_index(samples, k: int) -> float:
    """Hill estimate of the CCDF tail exponent from the top k order statistics.

    Returns k / sum_i log(x_(n-i+1) / x_(n-k)), the reciprocal mean log excess
    over the k-th largest value.  For a CCDF decaying like x^-mu this
    estimates mu directly (no off-by-one: the density then decays like
    x^-(1+mu)).
    """
    return _hill_sorted(np.sort(np.asarray(samples, dtype=float)), k)


def _hill_sorted(x: np.ndarray, k: int) -> float:
    """``hill_tail_index`` of samples already sorted ascending."""
    n = x.size
    if k < 10:
        raise ValueError(f"order-statistic count k={k} must be at least 10")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the sample count {n}")
    if x[0] <= 0.0:
        raise ValueError("samples must be positive for a tail-index estimate")
    threshold = x[n - k - 1]
    denom = float(np.sum(np.log(x[n - k:])) - k * np.log(threshold))
    if denom <= 0.0:
        raise ValueError("degenerate tail: ties make the Hill denominator vanish")
    return k / denom


@dataclass
class HillScan:
    """Hill estimates over a range of order counts, with plateau detection."""

    k_values: np.ndarray
    estimates: np.ndarray
    plateau_found: bool


# hill_plateau's number of order counts and its plateau spread bound
_PLATEAU_N_K = 25
_PLATEAU_SPREAD = 0.25


def hill_plateau(samples, k_min_frac: float = 0.01,
                 k_max_frac: float = 0.10) -> HillScan:
    """Scan Hill estimates over k in [k_min_frac, k_max_frac] of the sample size.

    A stable plateau (relative spread of the estimates at most 0.25)
    indicates a genuine power tail; distributions with lighter tails drift
    across the scan and report no plateau.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    ks = np.unique(np.linspace(max(10, int(k_min_frac * n)),
                               max(11, int(k_max_frac * n)),
                               _PLATEAU_N_K).astype(int))
    estimates = np.array([_hill_sorted(x, int(k)) for k in ks])
    med = float(np.median(estimates))
    spread = float((estimates.max() - estimates.min()) / abs(med)) if med != 0.0 else np.inf
    return HillScan(k_values=ks, estimates=estimates,
                    plateau_found=bool(spread <= _PLATEAU_SPREAD))


def l1_density_distance(hist: Histogram, density_fn) -> float:
    """L1 distance between a histogram and a unit-mass analytic density.

    Sums |empirical density - cell-averaged analytic density| * width over the
    bins, plus the analytic mass lying outside the histogram support (so two
    laws with disjoint supports are at distance 2).  Cell masses come from a
    16-node Gauss-Legendre rule per cell, in one call of ``density_fn`` on an
    array of shape (bins, 16); it must accept arrays, and a value that
    broadcasts to that shape (a constant) is taken as the density everywhere.
    """
    # nodes and weights on [-1, 1], exact for polynomials up to degree 31;
    # made here, so that importing the package runs no eigvalsh
    nodes, weights = np.polynomial.legendre.leggauss(16)
    widths = hist.widths
    half = 0.5 * widths
    at = hist.centers[:, None] + half[:, None] * nodes
    values = np.broadcast_to(np.asarray(density_fn(at), dtype=float), at.shape)
    cell_mass = (values @ weights) * half
    inner = float(np.sum(np.abs(hist.density - cell_mass / widths) * widths))
    return inner + max(0.0, 1.0 - float(np.sum(cell_mass)))


def lognormal_fit(samples) -> tuple[float, float]:
    """Moment-matching fit on log samples: (log-mean, log-variance)."""
    x = np.asarray(samples, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("lognormal fit requires strictly positive samples")
    logs = np.log(x)
    return float(logs.mean()), float(logs.var())


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against an analytic CDF.

    The empirical CDF steps from (i-1)/n to i/n at the i-th smallest sample;
    ``cdf`` is called once, on the sorted samples.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    d_plus = np.max(np.arange(1.0, n + 1) / n - F)
    d_minus = np.max(F - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))
