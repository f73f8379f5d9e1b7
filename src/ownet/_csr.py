"""Compact adjacency helpers: CSR construction, gathers, multi-source BFS.

All routines are pure numpy and deterministic: frontiers are expanded in
sorted node order and edge arrays are kept in a canonical sort, so repeated
runs produce identical arrays regardless of input row order.
"""

from __future__ import annotations

import numpy as np


def canonical_edge_order(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Permutation sorting edges by (src, dst), nodes below ``n``; parallel
    edges keep their input order (the ``np.lexsort`` order).

    Distinct pairs have distinct keys, which any sort orders alike, so numpy's
    default sort does; only the runs of equal keys (parallel edges) are sorted
    again by input index, so the extra work grows with the number of ties.
    """
    key = src.astype(np.int64) * n + dst
    order = np.argsort(key)
    ordered = key[order]
    same = ordered[1:] == ordered[:-1]
    tied = np.zeros(key.shape[0], dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    sub = order[tied]
    order[tied] = sub[np.lexsort((sub, ordered[tied]))]
    return order


def sorted_unique(values: np.ndarray, return_counts: bool = False):
    """Sorted distinct values of an integer array (and how often each occurs),
    as ``np.unique`` returns them.

    A sort plus an adjacent diff: numpy's hash-based ``unique`` is many
    times slower on integer arrays.
    """
    values = np.sort(values, axis=None)
    first = np.ones(values.shape[0], dtype=bool)
    first[1:] = values[1:] != values[:-1]
    distinct = values[first]
    if not return_counts:
        return distinct
    return distinct, np.diff(np.append(np.flatnonzero(first), values.shape[0]))


def dense_relabel(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for integers in ``[0, n)``:
    the sorted distinct values and each entry's rank among them, from a
    presence mask and its running count rather than numpy's hash path."""
    present = np.zeros(n, dtype=bool)
    present[values] = True
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present), rank[values]


def build_indptr(endpoints: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer for edges grouped by ``endpoints`` (must be sorted)."""
    counts = np.bincount(endpoints, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def neighbor_positions(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Positions (into the underlying edge arrays) of all edges whose row
    endpoint lies in ``frontier``. Vectorised equivalent of concatenating
    ``range(indptr[f], indptr[f+1])`` for every f."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - prefix, counts)


def multi_source_bfs(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    sources: np.ndarray,
    n: int,
) -> np.ndarray:
    """Hop distance from the nearest source, -1 where unreachable.

    ``neighbors`` holds the neighbor of each edge position, grouped per node
    by ``indptr``. Sources themselves get distance 0.
    """
    dist = np.full(n, -1, dtype=np.int32)
    frontier = sorted_unique(np.asarray(sources, dtype=np.int64))
    if frontier.size == 0:
        return dist
    dist[frontier] = 0
    d = 0
    while frontier.size:
        d += 1
        pos = neighbor_positions(indptr, frontier)
        if pos.size == 0:
            break
        nb = neighbors[pos]
        nb = nb[dist[nb] < 0]
        if nb.size == 0:
            break
        frontier = sorted_unique(nb)
        dist[frontier] = d
    return dist


def freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
