"""Per-corporation subtrees over substantial ownership links.

An affiliate of a headquarters is any node with a directed substantial
path to it (capital-flow orientation), found by reverse BFS from the HQ.
Layer numbers are the BFS hop counts, so direct affiliates sit in layer 1
and cross-shareholding cycles get the minimum consistent layer. Degrees
for the centrality sums are counted inside the subgraph induced by the
affiliates plus the HQ, with the sums running over affiliates only.
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

    @property
    def n_affiliates(self) -> int:
        return int(self.affiliates.shape[0])

    def members(self) -> np.ndarray:
        """Affiliates plus the HQ, sorted by node index."""
        return np.sort(np.append(self.affiliates, self.hq))

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
    the affiliates. Returns (k_in, k_out) aligned with ``subtree.affiliates``.
    """
    view = subtree.view
    members = subtree.members()
    edge_pos = neighbor_positions(view.out_indptr, members)
    srcs = view.src[edge_pos]
    dsts = view.dst[edge_pos]
    internal = _member_mask_lookup(members, dsts)
    srcs, dsts = srcs[internal], dsts[internal]

    k = members.shape[0]
    k_out_m = np.bincount(np.searchsorted(members, srcs), minlength=k)
    k_in_m = np.bincount(np.searchsorted(members, dsts), minlength=k)

    aff_sel = members != subtree.hq
    # members() sorts, so the non-HQ entries are exactly the affiliates in order
    if not np.array_equal(members[aff_sel], subtree.affiliates):
        raise InvariantError("subtree members minus the HQ differ from its affiliates")
    k_in = k_in_m[aff_sel].astype(np.int64)
    k_out = k_out_m[aff_sel].astype(np.int64)

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
