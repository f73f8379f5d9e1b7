"""Per-corporation subtrees over substantial ownership links.

An affiliate of a headquarters is any node with a directed substantial
path to it (capital-flow orientation), found by reverse BFS from the HQ.
Layer numbers are the BFS hop counts, so direct affiliates sit in layer 1
and cross-shareholding cycles get the minimum consistent layer. Degrees
for the centrality sums are counted inside the subgraph induced by the
affiliates plus the HQ, with the sums running over affiliates only. That
subgraph's edges are gathered once per subtree into a table of direct
subsidiaries per owner, which key-firm identification reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csr import multi_source_bfs, neighbor_positions
from .errors import GraphError, InvariantError, LoadError
from .graph import SubstantialView, data_rows

HQ_HEADER = ["hq_node_id", "mnc_name"]


def mnc_file_name(name: str) -> str:
    """File name of an MNC's affiliate artifact (``/`` would split the path)."""
    return f"{name.replace('/', '_')}.csv"


def load_hq_list(path) -> list[tuple[str, str]]:
    """Read ``hq_node_id,mnc_name`` rows.

    Duplicate MNC names are rejected, and so are distinct names that map to
    the same artifact file name (``a/b`` and ``a_b``).
    """
    path = Path(path)
    rows: list[tuple[str, str]] = []
    names_by_file: dict[str, str] = {}
    for line, row in data_rows(path, HQ_HEADER):
        hq_id, name = row[0].strip(), row[1].strip()
        if not hq_id or not name:
            raise LoadError("empty field", path, line)
        file_name = mnc_file_name(name)
        other = names_by_file.get(file_name)
        if other == name:
            raise LoadError(f"duplicate mnc_name {name!r}", path, line)
        if other is not None:
            raise LoadError(f"mnc_name {name!r} and {other!r} share the file name {file_name!r}",
                            path, line)
        names_by_file[file_name] = name
        rows.append((hq_id, name))
    return rows


@dataclass
class MncSubtree:
    view: SubstantialView = field(repr=False)
    hq: int
    affiliates: np.ndarray
    layers: np.ndarray
    k_in: np.ndarray | None = None
    k_out: np.ndarray | None = None
    sum_k_in: int | None = None
    sum_k_total: int | None = None
    sum_k_product: int | None = None
    # internal edges grouped by owner: the direct subsidiaries of the member
    # at local position p are subsidiaries[sub_indptr[p]:sub_indptr[p + 1]];
    # local positions index the affiliates, and n_affiliates is the HQ
    sub_indptr: np.ndarray | None = None
    subsidiaries: np.ndarray | None = None

    @property
    def n_affiliates(self) -> int:
        return int(self.affiliates.shape[0])

    def position(self, node):
        """Index of ``node`` (one node index or an array of them) inside the
        sorted affiliate array; raises for any node that is not an affiliate."""
        found = _member_mask_lookup(self.affiliates, node)
        if not np.all(found):
            bad = np.atleast_1d(node)[~np.atleast_1d(found)][0]
            raise GraphError(f"node {bad} is not an affiliate of this subtree")
        pos = np.searchsorted(self.affiliates, node)
        return int(pos) if np.ndim(node) == 0 else pos


def extract_mnc(view: SubstantialView, hq) -> MncSubtree:
    """All nodes with a directed substantial path to ``hq``, with layers.

    ``hq`` may be a node id string or a dense index. Cycle-safe: the BFS
    visits every node at most once.
    """
    hq_idx = view.graph.index_of(hq) if isinstance(hq, str) else int(hq)
    if not 0 <= hq_idx < view.n_nodes:
        raise GraphError(f"node index {hq_idx} out of range")
    dist = multi_source_bfs(view.in_indptr, view.in_sources, np.array([hq_idx]), view.n_nodes)
    affiliates = np.flatnonzero(dist > 0).astype(np.int64)
    return MncSubtree(
        view=view,
        hq=hq_idx,
        affiliates=affiliates,
        layers=dist[affiliates].astype(np.int32),
    )


def _member_mask_lookup(members: np.ndarray, nodes) -> np.ndarray:
    """Whether each of ``nodes`` occurs in the sorted array ``members``."""
    if members.shape[0] == 0:
        return np.zeros(np.shape(nodes), dtype=bool)
    pos = np.searchsorted(members, nodes)
    pos_clipped = np.minimum(pos, members.shape[0] - 1)
    return (pos < members.shape[0]) & (members[pos_clipped] == nodes)


def mnc_degrees(subtree: MncSubtree) -> tuple[np.ndarray, np.ndarray]:
    """In/out degrees of each affiliate, plus the three centrality sums.

    Degrees are counted inside the subgraph induced by the affiliates plus
    the HQ, so links leaving the corporation are ignored; the sums run over
    the affiliates. Also stores that subgraph's edges on the subtree as its
    subsidiary table. Returns (k_in, k_out) aligned with ``subtree.affiliates``.
    """
    view = subtree.view
    n_aff = subtree.n_affiliates
    owners = np.append(subtree.affiliates, subtree.hq)
    # every in-edge of a member starts at a member, because its subsidiary
    # reaches the HQ through that member: the in-edges are the internal edges
    subs = view.in_sources[neighbor_positions(view.in_indptr, owners)]
    is_hq = subs == subtree.hq
    outside = ~(is_hq | _member_mask_lookup(subtree.affiliates, subs))
    if np.any(outside):
        raise InvariantError(f"node {subs[outside][0]} is a direct subsidiary of a member but not one itself")
    local = np.searchsorted(subtree.affiliates, subs)
    local[is_hq] = n_aff

    counts = view.in_indptr[owners + 1] - view.in_indptr[owners]
    subtree.sub_indptr = np.concatenate(([0], np.cumsum(counts)))
    subtree.subsidiaries = local
    k_in = counts[:n_aff]
    k_out = np.bincount(local, minlength=n_aff + 1)[:n_aff]

    subtree.k_in = k_in
    subtree.k_out = k_out
    subtree.sum_k_in = int(k_in.sum())
    subtree.sum_k_total = int((k_in + k_out).sum())
    subtree.sum_k_product = int((k_in * k_out).sum())
    return k_in, k_out


def build_subtree(view: SubstantialView, hq) -> MncSubtree:
    """Extract, layer, and degree a subtree in one call."""
    subtree = extract_mnc(view, hq)
    mnc_degrees(subtree)
    return subtree
