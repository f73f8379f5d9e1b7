"""Connectivity analysis: weak/strong components, bow-tie regions, distances.

Component labelings are deterministic: component ids are assigned in order
of each component's smallest contained node index, and ties for "largest"
resolve to the smallest id. The strongly-connected-component pass is
delegated to scipy's iterative C implementation, which is linear-time and
recursion-safe on multi-million-node graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components

from ._csr import multi_source_bfs
from .errors import GraphError
from .netstats import value_counts

GSCC, IN, OUT, TE, REST = 0, 1, 2, 3, 4
REGION_NAMES = {GSCC: "GSCC", IN: "IN", OUT: "OUT", TE: "TE", REST: "REST"}


@dataclass(frozen=True)
class ComponentLabeling:
    """Node -> component id, with ids ordered by smallest member index."""

    labels: np.ndarray
    sizes: np.ndarray
    largest: int

    @property
    def n_components(self) -> int:
        return int(self.sizes.shape[0])


def rank_by_first_member(raw: np.ndarray) -> np.ndarray:
    """Renumber the group ids in ``raw`` 0, 1, ... in order of each group's
    first (smallest-index) member.

    The sort key is ``(value - min) * n + index``, which must fit in int64:
    ids in ``[0, n)`` always do, wider ranges raise ``ValueError``.
    """
    n = raw.shape[0]
    low = int(raw.min()) if n else 0
    if n and (int(raw.max()) - low + 1) * n >= 1 << 63:
        raise ValueError(f"group ids span too wide a range for {n} members")
    # (value, index) keys are distinct, so the default sort gives the stable order of ``raw``
    order = np.argsort((raw.astype(np.int64) - low) * n + np.arange(n))
    ordered = raw[order]
    first = np.ones(ordered.shape[0], dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    # index breaks value ties, so each group's smallest member index comes first
    starts = order[first]
    rank = np.empty(starts.shape[0], dtype=np.int64)
    rank[np.argsort(starts)] = np.arange(starts.shape[0])
    labels = np.empty(raw.shape[0], dtype=np.int64)
    labels[order] = rank[np.cumsum(first) - 1]
    return labels


def _relabel_by_first_member(raw: np.ndarray) -> ComponentLabeling:
    if raw.size == 0:
        return ComponentLabeling(raw.astype(np.int32), np.zeros(0, dtype=np.int64), -1)
    labels = rank_by_first_member(raw).astype(np.int32)
    sizes = np.bincount(labels).astype(np.int64)
    # np.argmax picks the first maximum, i.e. the smallest component id
    return ComponentLabeling(labels, sizes, int(np.argmax(sizes)))


def _adjacency_matrix(g) -> csr_matrix:
    n = g.n_nodes
    data = np.ones(g.n_edges, dtype=np.int8)
    return csr_matrix((data, (g.src, g.dst)), shape=(n, n))


def weak_components(g) -> ComponentLabeling:
    """Components of the undirected view of the graph."""
    if g.n_nodes == 0:
        return _relabel_by_first_member(np.zeros(0, dtype=np.int32))
    _, raw = _scipy_components(_adjacency_matrix(g), directed=True, connection="weak")
    return _relabel_by_first_member(raw)


def strong_components(g) -> ComponentLabeling:
    """Strongly connected components (iterative, no recursion limit)."""
    if g.n_nodes == 0:
        return _relabel_by_first_member(np.zeros(0, dtype=np.int32))
    _, raw = _scipy_components(_adjacency_matrix(g), directed=True, connection="strong")
    return _relabel_by_first_member(raw)


@dataclass(frozen=True)
class BowTie:
    """Partition of the giant weakly connected component.

    ``region`` assigns every node one of GSCC / IN / OUT / TE, or REST for
    nodes outside the GWCC. Shortest-hop distances to/from the GSCC are
    kept for the distance tables, and the weak labeling the GWCC came from
    for the component-size table.
    """

    region: np.ndarray
    gwcc_size: int
    sizes: dict[int, int]
    dist_to_gscc: np.ndarray = field(repr=False)
    dist_from_gscc: np.ndarray = field(repr=False)
    weak: ComponentLabeling = field(repr=False)

    def size(self, region: int) -> int:
        return self.sizes.get(region, 0)

    def summary_rows(self) -> list[tuple[str, int, str]]:
        """(region, count, ratio) rows with ratios rounded half-up to 3 dp."""
        rows = [
            (REGION_NAMES[r], self.size(r), ratio_percent_3dp(self.size(r), self.gwcc_size))
            for r in (GSCC, IN, OUT, TE)
        ]
        rows.append(("Total", self.gwcc_size, "100"))
        return rows


def ratio_percent_3dp(part: int, total: int) -> str:
    """Percentage of ``part`` in ``total``, rounded half-up to 3 decimals."""
    if total == 0:
        return "0.000"
    pct = Decimal(part) * 100 / Decimal(total)
    return str(pct.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def bowtie_decompose(g) -> BowTie:
    """Bow-tie regions of the giant weakly connected component.

    GSCC is the largest strongly connected component inside the GWCC; IN
    holds the GWCC nodes with a directed path into the GSCC, OUT the nodes
    reachable from it, TE the remainder of the GWCC.
    """
    if g.n_nodes == 0:
        raise GraphError("bow-tie decomposition of an empty graph")

    weak = weak_components(g)
    gwcc_mask = weak.labels == weak.largest

    strong = strong_components(g)
    scc_sizes_in_gwcc = np.bincount(
        strong.labels[gwcc_mask], minlength=strong.n_components
    )
    gscc_label = int(np.argmax(scc_sizes_in_gwcc))
    gscc_mask = strong.labels == gscc_label
    gscc_nodes = np.flatnonzero(gscc_mask)

    # nodes that reach the GSCC: walk ownership edges backwards
    dist_to = multi_source_bfs(g.in_indptr, g.in_sources, gscc_nodes, g.n_nodes)
    # nodes the GSCC reaches: walk forwards
    dist_from = multi_source_bfs(g.out_indptr, g.dst, gscc_nodes, g.n_nodes)

    region = np.full(g.n_nodes, REST, dtype=np.int8)
    region[gwcc_mask] = TE
    region[(dist_to > 0) & gwcc_mask] = IN
    region[(dist_from > 0) & gwcc_mask] = OUT
    region[gscc_mask] = GSCC

    sizes = {
        r: int(np.count_nonzero(region == r)) for r in (GSCC, IN, OUT, TE)
    }
    return BowTie(
        region=region,
        gwcc_size=int(gwcc_mask.sum()),
        sizes=sizes,
        dist_to_gscc=dist_to,
        dist_from_gscc=dist_from,
        weak=weak,
    )


def component_size_histogram(labeling: ComponentLabeling) -> dict[int, int]:
    """Mapping component size -> number of components of that size."""
    return value_counts(labeling.sizes)


def distance_distribution(bowtie: BowTie, direction: str) -> dict[int, int]:
    """``{hops: nodes}`` IN -> GSCC (``direction="in"``) or GSCC -> OUT (``"out"``).

    Distances are unweighted hops in stored capital-flow orientation. Every
    IN node reaches the GSCC and the GSCC reaches every OUT node, so the
    counts add up to the region's size.
    """
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    if direction == "in":
        return value_counts(bowtie.dist_to_gscc[bowtie.region == IN])
    return value_counts(bowtie.dist_from_gscc[bowtie.region == OUT])
