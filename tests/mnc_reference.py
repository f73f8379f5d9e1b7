"""Reference: subtree extraction and key-firm identification one MNC at a time.

Each MNC gets its own reverse BFS over an n-length distance array, its own
internal-edge table and its own role walk driven by a FIFO queue. The
batched table in ``ownet.mnc`` and ``ownet.keyfirms`` must reproduce every
column of every MNC.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ownet._csr import multi_source_bfs, neighbor_positions
from ownet.errors import GraphError, InvariantError
from ownet.graph import SubstantialView
from ownet.keyfirms import ClassificationReport, Role


@dataclass
class RefSubtree:
    view: SubstantialView = field(repr=False)
    hq: int
    affiliates: np.ndarray
    layers: np.ndarray
    k_in: np.ndarray | None = None
    k_out: np.ndarray | None = None
    sum_k_in: int | None = None
    sum_k_total: int | None = None
    sum_k_product: int | None = None
    # the direct subsidiaries of the member at local position p are
    # subsidiaries[sub_indptr[p]:sub_indptr[p + 1]]; n_affiliates is the HQ
    sub_indptr: np.ndarray | None = None
    subsidiaries: np.ndarray | None = None

    @property
    def n_affiliates(self) -> int:
        return int(self.affiliates.shape[0])

    def position(self, node) -> int:
        pos = int(np.searchsorted(self.affiliates, node))
        if pos == self.n_affiliates or self.affiliates[pos] != node:
            raise GraphError(f"node {node} is not an affiliate of this subtree")
        return pos


def ref_extract(view, hq: int) -> RefSubtree:
    dist = multi_source_bfs(view.in_indptr, view.in_sources, np.array([hq]), view.n_nodes)
    affiliates = np.flatnonzero(dist > 0).astype(np.int64)
    return RefSubtree(view=view, hq=hq, affiliates=affiliates, layers=dist[affiliates].astype(np.int32))


def ref_degrees(subtree: RefSubtree) -> None:
    view = subtree.view
    n_aff = subtree.n_affiliates
    owners = np.append(subtree.affiliates, subtree.hq)
    subs = view.in_sources[neighbor_positions(view.in_indptr, owners)]
    is_hq = subs == subtree.hq
    local = np.searchsorted(subtree.affiliates, subs)
    found = np.append(subtree.affiliates, -1)[local] == subs
    if np.any(~(is_hq | found)):
        raise InvariantError(f"node {subs[~(is_hq | found)][0]} is a direct subsidiary of a member but not one itself")
    local[is_hq] = n_aff
    counts = view.in_indptr[owners + 1] - view.in_indptr[owners]
    subtree.sub_indptr = np.concatenate(([0], np.cumsum(counts)))
    subtree.subsidiaries = local
    subtree.k_in = counts[:n_aff]
    subtree.k_out = np.bincount(local, minlength=n_aff + 1)[:n_aff]
    subtree.sum_k_in = int(subtree.k_in.sum())
    subtree.sum_k_total = int((subtree.k_in + subtree.k_out).sum())
    subtree.sum_k_product = int((subtree.k_in * subtree.k_out).sum())


def ref_subtree(view, hq: int) -> RefSubtree:
    subtree = ref_extract(view, hq)
    ref_degrees(subtree)
    return subtree


def ref_identify(subtree: RefSubtree):
    """(holding, conduit, third_country, roles) of one subtree, walked with a FIFO queue."""
    n_aff = subtree.n_affiliates
    k_in, k_out = subtree.k_in, subtree.k_out
    degenerate_h = subtree.sum_k_in <= 0
    degenerate_t = subtree.sum_k_product <= 0
    holding = (np.full(n_aff, np.nan) if degenerate_h
               else (k_in - k_out) / subtree.sum_k_in * (subtree.sum_k_total / (k_in + k_out)))
    conduit = (np.full(n_aff, np.nan) if degenerate_t
               else k_in / subtree.sum_k_product * (subtree.sum_k_total / (k_in + k_out)))

    g = subtree.view.graph
    na = g.na_jurisdiction
    jur = g.jurisdiction_index[np.append(subtree.affiliates, subtree.hq)]

    def differ(a, b):
        return (a != b) | (a == na) | (b == na)

    owner = np.repeat(np.arange(n_aff + 1), np.diff(subtree.sub_indptr))
    foreign_sub = np.zeros(n_aff + 1, dtype=bool)
    foreign_sub[owner[differ(jur[subtree.subsidiaries], jur[owner])]] = True
    tc = differ(jur[:n_aff], jur[-1]) & foreign_sub[:n_aff]

    h, t, tc_list = holding.tolist(), conduit.tolist(), tc.tolist()
    sub_ptr, sub_pos = subtree.sub_indptr.tolist(), subtree.subsidiaries.tolist()
    h_seen = np.zeros(n_aff, dtype=bool)
    t_seen = np.zeros(n_aff, dtype=bool)
    roles = np.zeros(n_aff, dtype=np.int8)
    expanded = np.zeros(n_aff, dtype=bool)
    pending = deque(np.flatnonzero(subtree.layers == 1).tolist())
    while pending and not degenerate_h:
        x = pending.popleft()
        if expanded[x]:
            continue
        expanded[x] = h_seen[x] = True
        if not (h[x] > 0.0 and tc_list[x]) or degenerate_t:
            continue
        found_conduit = False
        for s in sub_pos[sub_ptr[x]:sub_ptr[x + 1]]:
            if s == n_aff:
                continue
            t_seen[s] = True
            if t[s] > 0.0 and tc_list[s]:
                found_conduit = True
                roles[s] |= Role.CONDUIT
                h_seen[s] = True
                if h[s] > 0.0:
                    roles[s] |= Role.HOLDING
                    pending.append(s)
        if found_conduit:
            roles[x] |= Role.HOLDING
    t_seen[subtree.layers == 1] = True
    return np.where(h_seen, holding, np.nan), np.where(t_seen, conduit, np.nan), tc, roles


def ref_classify_all(view, hq_list) -> ClassificationReport:
    names, hqs, failures, columns = [], [], [], []
    for hq_id, name in hq_list:
        try:
            hq_index = view.graph.index_of(hq_id)
        except GraphError as exc:
            failures.append((name, str(exc)))
            continue
        subtree = ref_subtree(view, hq_index)
        names.append(name)
        hqs.append(hq_index)
        columns.append((subtree.affiliates, subtree.layers, subtree.k_in, subtree.k_out, *ref_identify(subtree)))
    bounds = np.cumsum([0] + [mnc[0].shape[0] for mnc in columns])
    if not columns:
        columns = [tuple(np.zeros(0, dtype) for dtype in (np.int64, np.int32, np.int64, np.int64, np.float64,
                                                         np.float64, bool, np.int8))]
    return ClassificationReport(view.graph, names, np.array(hqs, dtype=np.int64), bounds,
                                *(np.concatenate(column) for column in zip(*columns)), failures=failures)
