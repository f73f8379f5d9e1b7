"""Key-company identification inside corporate subtrees.

Two link-count centralities score each affiliate: holding centrality
compares capital entering against capital leaving, conduit centrality
measures pass-through volume; both are normalised by the affiliate's share
of the subtree's total links. Roles are assigned hierarchically starting
from the first ownership layer: a holding candidate (positive holding
centrality, third-country location) exposes its direct subsidiaries to the
conduit test, qualifying subsidiaries become conduits and promote the
parent to a holding, and a conduit that itself passes the holding test is
relabeled holding-and-conduit and expanded in turn.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ._csr import neighbor_positions
from .errors import InvariantError
from .graph import SubstantialView
from .mnc import SubtreeTable, row_mnc, subtree_table


class Role(enum.IntFlag):
    NONE = 0
    HOLDING = 1
    CONDUIT = 2
    HOLDING_AND_CONDUIT = 3


KEYFIRMS_HEADER = ["mnc", "affiliate_id", "layer", "k_in", "k_out", "H", "T", "third_country", "role"]

# NONE, then the key roles in tally order
ROLE_NAMES = {
    Role.NONE: "None",
    Role.HOLDING: "Holding",
    Role.HOLDING_AND_CONDUIT: "HoldingAndConduit",
    Role.CONDUIT: "Conduit",
}


def _mnc_totals(table: SubtreeTable, values: np.ndarray) -> np.ndarray:
    """Per affiliate row, the sum of ``values`` over its MNC's affiliates.

    NaN for an MNC whose k_in sum is zero, the one degenerate denominator:
    every affiliate has an internal out-edge toward its HQ, so k_out >= 1,
    and a positive k_in sum makes the k_in * k_out sum positive too.
    """
    totals = np.where(table.mnc_sums(table.k_in) > 0, table.mnc_sums(values), np.nan)
    return totals[table.row_mnc]


def holding_centrality(table: SubtreeTable) -> np.ndarray:
    """Normalised surplus of capital entering each affiliate row.

    Positive exactly when the affiliate owns more substantial links than it
    grants, relative to its whole subtree. NaN on the rows of an MNC whose
    total in-degree is zero.
    """
    k_in, k_out = table.k_in, table.k_out
    return (k_in - k_out) / _mnc_totals(table, k_in) * (_mnc_totals(table, k_in + k_out) / (k_in + k_out))


def conduit_centrality(table: SubtreeTable) -> np.ndarray:
    """Normalised pass-through volume of each affiliate row; NaN like
    :func:`holding_centrality`."""
    k_in, k_out = table.k_in, table.k_out
    return k_in / _mnc_totals(table, k_in * k_out) * (_mnc_totals(table, k_in + k_out) / (k_in + k_out))


def third_country(table: SubtreeTable) -> np.ndarray:
    """Located outside the HQ's jurisdiction with a foreign direct subsidiary.

    True for an affiliate row iff its jurisdiction differs from its HQ's
    and at least one direct subsidiary inside the subtree (the HQ included)
    sits in a jurisdiction different from the affiliate's own. The "n.a."
    sentinel never equals any code, itself included.
    """
    g = table.view.graph
    na = g.na_jurisdiction
    # jurisdictions by row, the HQs last
    jur = g.jurisdiction_index[np.concatenate((table.affiliates, table.hqs))]

    def differ(a, b):
        return (a != b) | (a == na) | (b == na)

    n_aff = table.n_affiliates
    owner = np.repeat(np.arange(jur.shape[0]), np.diff(table.sub_indptr))
    foreign_sub = np.zeros(jur.shape[0], dtype=bool)
    foreign_sub[owner[differ(jur[table.subsidiaries], jur[owner])]] = True
    return differ(jur[:n_aff], jur[n_aff + table.row_mnc]) & foreign_sub[:n_aff]


def hierarchical_identify(table: SubtreeTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign None/Holding/Conduit/HoldingAndConduit roles to all affiliate rows.

    Returns (holding, conduit, third_country, roles) aligned with
    ``table.affiliates``: the two centralities as float64, the condition
    as bool and the roles as int8 :class:`Role` values. Strict thresholds
    (> 0) throughout. The walk advances one frontier per round across all
    MNCs and expands each affiliate at most once, so cross-shareholding
    cycles terminate; the expanded set is a closure, so the order of
    expansion does not change any result. Conduit-centrality values for
    first-layer affiliates are recorded as diagnostics but never create a
    conduit role without an identified holding parent. An MNC whose k_in
    sum is zero gets no role. H and T are NaN except for the affiliates the
    role search evaluated.
    """
    n_aff = table.n_affiliates
    holding = holding_centrality(table)
    conduit = conduit_centrality(table)
    tc = third_country(table)
    positive_h = holding > 0.0
    key_conduit = (conduit > 0.0) & tc
    sub_counts = np.diff(table.sub_indptr)

    h_seen = np.zeros(n_aff, dtype=bool)
    t_seen = np.zeros(n_aff, dtype=bool)
    roles = np.zeros(n_aff, dtype=np.int8)
    expanded = np.zeros(n_aff, dtype=bool)
    frontier = np.flatnonzero(table.layers == 1)
    while frontier.size:
        expanded[frontier] = h_seen[frontier] = True
        holders = frontier[positive_h[frontier] & tc[frontier]]
        owners = np.repeat(holders, sub_counts[holders])
        subs = table.subsidiaries[neighbor_positions(table.sub_indptr, holders)]
        inside = subs < n_aff  # not the HQ, a subsidiary in a cross-shareholding cycle
        owners, subs = owners[inside], subs[inside]
        t_seen[subs] = True
        found = key_conduit[subs]
        conduits = subs[found]
        roles[conduits] |= Role.CONDUIT
        roles[owners[found]] |= Role.HOLDING
        h_seen[conduits] = True
        both = conduits[positive_h[conduits]]
        roles[both] |= Role.HOLDING
        frontier = both[~expanded[both]]  # a repeat is harmless: every update is idempotent

    t_seen[table.layers == 1] = True

    # post hoc: a role without the third-country condition is a logic bug
    if np.any((roles != Role.NONE) & ~tc):
        raise InvariantError("a key firm fails the third-country condition")

    return np.where(h_seen, holding, np.nan), np.where(t_seen, conduit, np.nan), tc, roles


@dataclass
class ClassificationReport:
    """Every classified MNC's affiliates as one flat table of key-firm rows.

    MNC ``m`` is ``mncs[m]`` with HQ node ``hqs[m]``, always a resolved
    node (an MNC whose HQ is unknown is in ``failures`` instead), and owns
    rows ``bounds[m]:bounds[m + 1]``; the columns from ``affiliates`` to
    ``roles`` hold one value per row. ``holding`` and ``conduit`` are
    NaN where the role search did not evaluate them; ``roles`` holds int8
    :class:`Role` values. A firm under several MNCs has one row per MNC.
    """

    graph: object = field(repr=False)
    mncs: list[str]
    hqs: np.ndarray
    bounds: np.ndarray
    affiliates: np.ndarray
    layers: np.ndarray
    k_in: np.ndarray
    k_out: np.ndarray
    holding: np.ndarray
    conduit: np.ndarray
    third_country: np.ndarray
    roles: np.ndarray
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def row_mnc(self) -> np.ndarray:
        return row_mnc(self.bounds)

    @property
    def tallies(self) -> dict[str, int]:
        counts = np.bincount(self.roles, minlength=len(ROLE_NAMES))
        return {name: int(counts[role]) for role, name in ROLE_NAMES.items() if role != Role.NONE}

    @property
    def n_affiliates(self) -> int:
        return int(self.affiliates.shape[0])


def classify_all(view: SubstantialView, hq_list) -> ClassificationReport:
    """Extract, layer, and identify every MNC in the HQ list.

    ``hq_list`` yields (hq_node_id, mnc_name) pairs. An unknown HQ id is
    collected as a failure and the run continues. All subtrees are built
    and identified in one pass; MNCs keep list order.
    """
    hq_list = list(hq_list)
    found = view.graph.ids.indexes_of([hq_id for hq_id, _ in hq_list])
    names, hqs, failures = [], [], []
    for (hq_id, name), index in zip(hq_list, found.tolist()):
        if index < 0:
            failures.append((name, f"unknown node id {hq_id!r}"))
            continue
        hqs.append(index)
        names.append(name)
    table = subtree_table(view, hqs)
    return ClassificationReport(view.graph, names, table.hqs, table.bounds, table.affiliates, table.layers,
                                table.k_in, table.k_out, *hierarchical_identify(table), failures=failures)
