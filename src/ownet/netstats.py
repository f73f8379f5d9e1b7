"""Structural statistics: degree distributions, power-law fits, clustering.

Degree histograms use geometric (logarithmic) binning. Exponents are fitted
by exact discrete maximum likelihood through the Hurwitz zeta function,
with an optional Kolmogorov-Smirnov scan for the lower cutoff; a log-log
regression slope on the binned densities is available separately for
comparison with straight-line fits. Only the likelihood fit needs
``scipy.optimize``, so ``_mle_gamma`` imports it: other stages skip the load.

The clustering and k_nn curves take one undirected simple CSR, built once
per caller by ``undirected_simple_csr``. Triangles are counted per node by
enumerating degree-ordered wedges and looking up each closing edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import zeta

from ._csr import build_indptr, neighbor_positions, sorted_unique
from .errors import FitError

_GAMMA_LO = 1.000001
_GAMMA_HI = 25.0
_MIN_TAIL = 50
_MAX_XMIN_CANDIDATES = 200
BIN_RATIO = 2.0  # each geometric bin is twice as wide as the last
WEDGE_CHUNK = 1 << 16  # wedges per step of triangle_counts: its temporaries stay a few MB


@dataclass(frozen=True)
class LogBinnedHistogram:
    """Geometric bins over the positive values.

    The one histogram type of the degree and community-size distributions.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray

    def rows(self) -> list[tuple[float, float, int, float]]:
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), int(self.counts[i]), float(self.densities[i]))
            for i in range(self.counts.shape[0])
        ]


def value_counts(values: np.ndarray) -> dict[int, int]:
    """``{value: count}`` of non-negative integer ``values``, in value order."""
    counts = np.bincount(values)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), counts[present].tolist()))


def log_binned_histogram(values: np.ndarray) -> LogBinnedHistogram:
    """Log-binned density of non-negative integer ``values``.

    Positive values fall in the bins 1, r, r^2, ... (r = ``BIN_RATIO``) past
    their maximum; zero values are excluded. Densities are counts / (n *
    width) over the n positive values, so sum(density * width) equals 1.
    """
    positive = values[values > 0]
    if positive.size == 0:
        return LogBinnedHistogram(np.zeros(0), np.zeros(0, np.int64), np.zeros(0))
    max_v, edges = int(positive.max()), [1.0]
    while edges[-1] <= max_v:
        edges.append(edges[-1] * BIN_RATIO)
    edges_arr = np.asarray(edges)
    counts, _ = np.histogram(positive, bins=edges_arr)
    return LogBinnedHistogram(edges_arr, counts.astype(np.int64), counts / (positive.size * np.diff(edges_arr)))


def degree_histogram(g, direction: str = "in") -> LogBinnedHistogram:
    """Log-binned in- or out-degree distribution (see :func:`log_binned_histogram`)."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be in/out, got {direction!r}")
    return log_binned_histogram(g.in_degrees() if direction == "in" else g.out_degrees())


@dataclass(frozen=True)
class PowerLawFit:
    gamma: float
    x_min: int
    n_tail: int
    loglik: float
    ks: float | None = None


def _nll(gamma: float, n: int, sum_log: float, x_min: int) -> float:
    return n * np.log(zeta(gamma, x_min)) + gamma * sum_log


def _mle_gamma(tail: np.ndarray, x_min: int) -> tuple[float, float]:
    # Deferred: importing scipy.optimize costs ~0.15 s, and no other stage needs it.
    from scipy.optimize import minimize_scalar
    n = tail.size
    sum_log = float(np.log(tail).sum())
    res = minimize_scalar(
        _nll,
        bounds=(_GAMMA_LO, _GAMMA_HI),
        args=(n, sum_log, x_min),
        method="bounded",
        options={"xatol": 1e-10},
    )
    gamma = float(res.x)
    return gamma, -_nll(gamma, n, sum_log, x_min)


def _ks_statistic(tail: np.ndarray, gamma: float, x_min: int) -> float:
    values, counts = sorted_unique(tail, return_counts=True)
    ecdf = np.cumsum(counts) / tail.size
    mcdf = 1.0 - zeta(gamma, values + 1) / zeta(gamma, x_min)
    return float(np.abs(ecdf - mcdf).max())


def fit_power_law(samples, x_min: int | None = 1) -> PowerLawFit:
    """Discrete power-law exponent by exact maximum likelihood.

    ``x_min`` fixes the lower cutoff; pass ``None`` to select it by
    minimising the Kolmogorov-Smirnov distance over candidate cutoffs.
    Requires at least 50 tail samples and a non-degenerate tail.
    """
    data = np.asarray(samples)
    data = data[data > 0].astype(np.int64)

    if x_min is not None:
        if x_min < 1:
            raise FitError(f"x_min must be >= 1, got {x_min}")
        tail = data[data >= x_min]
        if tail.size < _MIN_TAIL:
            raise FitError(f"need >= {_MIN_TAIL} samples >= x_min, got {tail.size}")
        if int(tail.min()) == int(tail.max()):
            raise FitError("all tail samples equal: degenerate likelihood")
        gamma, loglik = _mle_gamma(tail, int(x_min))
        return PowerLawFit(gamma, int(x_min), int(tail.size), loglik, _ks_statistic(tail, gamma, int(x_min)))

    candidates = sorted_unique(data)
    candidates = candidates[: _MAX_XMIN_CANDIDATES]
    best: PowerLawFit | None = None
    tail = data
    for cand in candidates:
        tail = tail[tail >= cand]  # candidates ascend: each tail is a subset of the last
        if tail.size < _MIN_TAIL:
            break
        if int(tail.min()) == int(tail.max()):
            continue
        gamma, loglik = _mle_gamma(tail, int(cand))
        ks = _ks_statistic(tail, gamma, int(cand))
        if best is None or ks < best.ks:
            best = PowerLawFit(gamma, int(cand), int(tail.size), loglik, ks)
    if best is None:
        raise FitError("no viable x_min candidate (too few or degenerate samples)")
    return best


def binned_fit_slope(hist: LogBinnedHistogram) -> float:
    """Least-squares slope of log density vs log degree over the occupied bins of ``hist``.

    The straight-line analogue of the MLE exponent (reported alongside it;
    the slope approximates -gamma).
    """
    edges = hist.bin_edges
    centers = np.sqrt(edges[:-1] * edges[1:])
    mask = hist.counts > 0
    if mask.sum() < 2:
        raise FitError("fewer than two occupied bins")
    x = np.log10(centers[mask])
    y = np.log10(hist.densities[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# -- clustering and degree correlations -----------------------------------

def undirected_simple_csr(g) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the undirected simple graph (reciprocal/parallel collapsed).

    The adjacency holds bool data: summing duplicates of a narrow integer
    type would wrap to zero on a pair with many parallel edges.
    """
    n = g.n_nodes
    a = csr_matrix((np.ones(g.n_edges, dtype=bool), (g.src, g.dst)), shape=(n, n))
    s = (a + a.T).tocsr()
    s.sort_indices()
    return s.indptr.astype(np.int64), s.indices.astype(np.int64)


def triangle_counts(indptr: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Per-node triangle counts on a sorted undirected simple CSR.

    Degree-ordered wedges (Latapy, TCS 2008): every edge is oriented from
    the endpoint of lower (degree, index) to the higher, so a triangle
    a < b < c in that order is the one wedge a -> b -> c, and a hub has few
    out-neighbours. The wedges are enumerated from batches of oriented edges
    a -> b of about ``WEDGE_CHUNK`` wedges each; one ``searchsorted`` over
    the sorted keys of the oriented edges confirms each closing edge a -> c,
    and every triangle found credits its three corners.
    """
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    order_key = deg * n + np.arange(n)  # (degree, index), one distinct key per node
    up = np.repeat(order_key, deg) < order_key[nbrs]
    tail, head = np.repeat(np.arange(n), deg)[up], nbrs[up]  # sorted by (tail, head), as the CSR is
    out_indptr = build_indptr(tail, n)
    edge_keys = tail * n + head  # ascending; node indexes fit int32, so n * n fits int64
    wedges = out_indptr[head + 1] - out_indptr[head]
    ends = np.cumsum(wedges)
    corners = [np.zeros(0, dtype=np.int64)]
    start = 0
    while start < len(tail):
        stop = max(int(np.searchsorted(ends, ends[start] - wedges[start] + WEDGE_CHUNK, "right")), start + 1)
        a, b = np.repeat(tail[start:stop], wedges[start:stop]), np.repeat(head[start:stop], wedges[start:stop])
        c = head[neighbor_positions(out_indptr, head[start:stop])]
        keys = a * n + c
        closed = edge_keys[np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)] == keys
        corners += [a[closed], b[closed], c[closed]]
        start = stop
    return np.bincount(np.concatenate(corners), minlength=n).astype(np.int64)


def local_clustering(indptr: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Per-node clustering on an undirected simple CSR (0 for degree < 2)."""
    deg = np.diff(indptr)
    tri = triangle_counts(indptr, nbrs)
    c = np.zeros(deg.shape[0], dtype=np.float64)
    mask = deg >= 2
    c[mask] = 2.0 * tri[mask] / (deg[mask] * (deg[mask] - 1.0))
    return c


@dataclass(frozen=True)
class StatCurve:
    """Per-degree averages with sample counts (clustering or k_nn curves)."""

    degrees: np.ndarray
    values: np.ndarray
    counts: np.ndarray


def _group_by_degree(deg: np.ndarray, values: np.ndarray, keep: np.ndarray) -> StatCurve:
    deg = deg[keep]
    values = values[keep]
    if deg.size == 0:
        return StatCurve(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64))
    cnt = np.bincount(deg)
    sums = np.bincount(deg, weights=values)
    ks = np.flatnonzero(cnt)
    return StatCurve(ks.astype(np.int64), sums[ks] / cnt[ks], cnt[ks].astype(np.int64))


def clustering_by_degree(indptr: np.ndarray, nbrs: np.ndarray) -> StatCurve:
    """Average clustering per degree of an undirected simple CSR."""
    deg = np.diff(indptr)
    c = local_clustering(indptr, nbrs)
    return _group_by_degree(deg, c, np.ones(deg.shape[0], dtype=bool))


def knn_by_degree(indptr: np.ndarray, nbrs: np.ndarray) -> StatCurve:
    """Average nearest-neighbor degree per degree of an undirected simple CSR."""
    deg = np.diff(indptr)
    n = deg.shape[0]
    row = np.repeat(np.arange(n), deg)
    sums = np.bincount(row, weights=deg[nbrs].astype(np.float64), minlength=n)
    knn = np.zeros(n, dtype=np.float64)
    pos = deg > 0
    knn[pos] = sums[pos] / deg[pos]
    return _group_by_degree(deg, knn, pos)
