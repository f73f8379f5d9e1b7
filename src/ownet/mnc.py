"""Per-corporation subtrees over substantial ownership links, all MNCs at once.

An affiliate of a headquarters is any node with a directed substantial
path to it (capital-flow orientation), found by reverse BFS from the HQ.
Layer numbers are the BFS hop counts, so direct affiliates sit in layer 1
and cross-shareholding cycles get the minimum consistent layer. Degrees
for the centrality sums are counted inside the subgraph induced by the
affiliates plus the HQ, with the sums running over affiliates only. One
BFS over (MNC, node) pairs serves every HQ, and the subgraphs' edges are
gathered once into one table of direct subsidiaries per member, which
key-firm identification reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csr import neighbor_positions, sorted_unique
from .errors import GraphError, InvariantError, LoadError
from .graph import SubstantialView, data_rows

HQ_HEADER = ["hq_node_id", "mnc_name"]


def load_hq_list(path) -> list[tuple[str, str]]:
    """Read ``hq_node_id,mnc_name`` rows; a repeated MNC name fails with its line."""
    path = Path(path)
    rows: list[tuple[str, str]] = []
    names: set[str] = set()
    for line, row in data_rows(path, HQ_HEADER):
        hq_id, name = row[0].strip(), row[1].strip()
        if not hq_id or not name:
            raise LoadError("empty field", path, line)
        if name in names:
            raise LoadError(f"duplicate mnc_name {name!r}", path, line)
        names.add(name)
        rows.append((hq_id, name))
    return rows


def row_mnc(bounds: np.ndarray) -> np.ndarray:
    """The MNC of each row of a table where MNC ``m`` owns rows ``bounds[m]:bounds[m + 1]``."""
    return np.repeat(np.arange(bounds.shape[0] - 1), np.diff(bounds))


@dataclass
class SubtreeTable:
    """Every MNC's subtree as one flat table of affiliate rows.

    Affiliates are grouped by MNC and sorted by node index within each;
    MNC ``m`` owns rows ``bounds[m]:bounds[m + 1]``, and row
    ``n_affiliates + m`` stands for its HQ. The direct subsidiaries of row
    ``r`` inside its subtree are rows
    ``subsidiaries[sub_indptr[r]:sub_indptr[r + 1]]``.
    """

    view: SubstantialView = field(repr=False)
    hqs: np.ndarray
    bounds: np.ndarray
    affiliates: np.ndarray
    layers: np.ndarray
    sub_indptr: np.ndarray
    subsidiaries: np.ndarray
    k_in: np.ndarray
    k_out: np.ndarray

    @property
    def n_affiliates(self) -> int:
        return int(self.affiliates.shape[0])

    @property
    def row_mnc(self) -> np.ndarray:
        return row_mnc(self.bounds)

    def mnc_sums(self, values: np.ndarray) -> np.ndarray:
        """Per MNC, the sum of ``values`` (one per affiliate row) over its affiliates."""
        totals = np.concatenate(([0], np.cumsum(values)))
        return totals[self.bounds[1:]] - totals[self.bounds[:-1]]


def _affiliate_pairs(view: SubstantialView, hqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``mnc * n + node`` keys of every (MNC, affiliate) pair, with layers.

    One reverse BFS from all HQs at once, each frontier entry labelled with
    its MNC, so overlapping subtrees and a repeated HQ stay apart. Every
    pair is visited at most once, so cycles are safe. Sets are kept as
    sorted arrays.
    """
    n = view.n_nodes
    seen = hqs + n * np.arange(hqs.shape[0], dtype=np.int64)
    frontier = seen
    keys, layers = [], []
    while frontier.size:
        nodes = frontier % n
        counts = view.in_indptr[nodes + 1] - view.in_indptr[nodes]
        reached = sorted_unique(np.repeat(frontier - nodes, counts)
                                + view.in_sources[neighbor_positions(view.in_indptr, nodes)])
        known = np.append(seen, -1)[np.searchsorted(seen, reached)] == reached
        frontier = reached[~known]
        seen = np.sort(np.concatenate((seen, frontier)))
        keys.append(frontier)
        layers.append(np.full(frontier.shape[0], len(layers) + 1, dtype=np.int32))
    keys = np.concatenate([np.zeros(0, dtype=np.int64)] + keys)
    order = np.argsort(keys)
    return keys[order], np.concatenate([np.zeros(0, dtype=np.int32)] + layers)[order]


def subtree_table(view: SubstantialView, hqs) -> SubtreeTable:
    """The subtrees of all HQs (dense node indexes, one MNC each) as one table.

    An affiliate is any node with a directed substantial path to its HQ
    (capital-flow orientation), and its layer is the hop count. Degrees
    are counted inside the subgraph induced by the MNC's affiliates plus
    its HQ, from the table's internal edges.
    """
    n = view.n_nodes
    hqs = np.asarray(hqs, dtype=np.int64)
    if np.any((hqs < 0) | (hqs >= n)):
        raise GraphError(f"HQ index out of range for {n} nodes")
    keys, layers = _affiliate_pairs(view, hqs)
    n_aff, n_mncs = keys.shape[0], hqs.shape[0]
    mnc = keys // n
    affiliates = keys - mnc * n

    # every in-edge of a member starts at a member, because its subsidiary
    # reaches the HQ through that member: the in-edges are the internal edges
    owners = np.concatenate((affiliates, hqs))
    counts = view.in_indptr[owners + 1] - view.in_indptr[owners]
    subs = view.in_sources[neighbor_positions(view.in_indptr, owners)]
    sub_mnc = np.repeat(np.concatenate((mnc, np.arange(n_mncs))), counts)
    sub_keys = sub_mnc * n + subs
    rows = np.searchsorted(keys, sub_keys)
    is_hq = subs == hqs[sub_mnc]
    outside = ~is_hq & (np.append(keys, -1)[rows] != sub_keys)
    if np.any(outside):
        raise InvariantError(f"node {subs[outside][0]} is a direct subsidiary of a member but not one itself")
    rows[is_hq] = n_aff + sub_mnc[is_hq]

    return SubtreeTable(
        view=view,
        hqs=hqs,
        bounds=np.searchsorted(mnc, np.arange(n_mncs + 1)),
        affiliates=affiliates,
        layers=layers,
        sub_indptr=np.concatenate(([0], np.cumsum(counts))),
        subsidiaries=rows,
        k_in=counts[:n_aff],
        k_out=np.bincount(rows, minlength=n_aff + n_mncs)[:n_aff],
    )
