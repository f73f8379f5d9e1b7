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
from pathlib import Path

import numpy as np

from ._csr import neighbor_positions
from .errors import GraphError, InvariantError, LoadError
from .graph import SubstantialView, data_rows, parse_number
from .mnc import SubtreeTable, subtree_table


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
class MncClassification:
    """One MNC's identification results, as columns aligned with its affiliates.

    ``holding`` and ``conduit`` are NaN where the role search did not
    evaluate them; ``roles`` holds int8 :class:`Role` values.
    """

    mnc: str
    hq_index: int
    affiliates: np.ndarray
    layers: np.ndarray
    k_in: np.ndarray
    k_out: np.ndarray
    holding: np.ndarray
    conduit: np.ndarray
    third_country: np.ndarray
    roles: np.ndarray


@dataclass
class ClassificationReport:
    """Per-MNC role assignments plus global tallies."""

    graph: object = field(repr=False, default=None)
    classifications: list[MncClassification] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def affiliate_roles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(HQ index, firm index, role) of every classified affiliate, MNC by MNC.

        A firm under several MNCs appears once per MNC.
        """
        classes = self.classifications
        sizes = [cls.affiliates.shape[0] for cls in classes]
        hq = np.repeat(np.array([cls.hq_index for cls in classes], dtype=np.int64), sizes)
        firms = np.concatenate([np.zeros(0, dtype=np.int64)] + [cls.affiliates for cls in classes])
        roles = np.concatenate([np.zeros(0, dtype=np.int8)] + [cls.roles for cls in classes])
        return hq, firms, roles

    @property
    def tallies(self) -> dict[str, int]:
        counts = np.bincount(self.affiliate_roles()[2], minlength=len(ROLE_NAMES))
        return {name: int(counts[role]) for role, name in ROLE_NAMES.items() if role != Role.NONE}

    @property
    def n_affiliates(self) -> int:
        return sum(cls.affiliates.shape[0] for cls in self.classifications)


def load_keyfirms_csv(path, graph, hq_map: dict[str, str] | None = None) -> ClassificationReport:
    """Rebuild a classification report from an emitted keyfirms.csv.

    ``hq_map`` (mnc name -> hq node id) restores the headquarters link;
    without it HQ-based tables are unavailable (hq_index stays -1). A row
    with an unknown id or role, a malformed number, a third_country other
    than 0/1, or an (mnc, affiliate_id) pair seen before fails with its line.
    """
    path = Path(path)
    name_to_role = {v: k for k, v in ROLE_NAMES.items()}
    hq_of: dict[str, int] = {}
    fields: dict[str, dict[str, tuple]] = {}  # mnc -> affiliate id -> its values in column order
    for line, row in data_rows(path, KEYFIRMS_HEADER):
        mnc, aff, layer, k_in, k_out, h, t, tc, role = row
        if role not in name_to_role:
            raise LoadError(f"unknown role {role!r}", path, line)
        if tc not in ("0", "1"):
            raise LoadError(f"third_country must be 0 or 1, got {tc!r}", path, line)
        rows = fields.setdefault(mnc, {})
        if aff in rows:
            raise LoadError(f"duplicate affiliate {aff!r} of mnc {mnc!r}", path, line)
        try:
            if mnc not in hq_of:
                hq_id = hq_map.get(mnc, "") if hq_map else ""
                hq_of[mnc] = graph.index_of(hq_id) if hq_id else -1
            index = graph.index_of(aff)
        except GraphError as exc:
            raise LoadError(str(exc), path, line) from None
        rows[aff] = (
            index,
            parse_number(layer, int, "layer", path, line),
            parse_number(k_in, int, "k_in", path, line),
            parse_number(k_out, int, "k_out", path, line),
            parse_number(h, float, "H", path, line) if h else np.nan,
            parse_number(t, float, "T", path, line) if t else np.nan,
            tc == "1",
            name_to_role[role],
        )
    dtypes = (np.int64, np.int32, np.int64, np.int64, np.float64, np.float64, bool, np.int8)
    return ClassificationReport(graph=graph, classifications=[
        MncClassification(mnc, hq_of[mnc], *(np.array(c, dtype=d) for c, d in zip(zip(*rows.values()), dtypes)))
        for mnc, rows in fields.items()
    ])


def classify_all(view: SubstantialView, hq_list) -> ClassificationReport:
    """Extract, layer, and identify every MNC in the HQ list.

    ``hq_list`` yields (hq_node_id, mnc_name) pairs. An unknown HQ id is
    collected as a failure and the run continues. All subtrees are built
    and identified in one pass; classifications keep list order.
    """
    report = ClassificationReport(graph=view.graph)
    known: list[tuple[str, int]] = []
    for hq_id, name in hq_list:
        try:
            known.append((name, view.graph.index_of(hq_id)))
        except GraphError as exc:
            report.failures.append((name, str(exc)))
    table = subtree_table(view, [hq for _, hq in known])
    columns = (table.affiliates, table.layers, table.k_in, table.k_out, *hierarchical_identify(table))
    bounds = table.bounds.tolist()
    report.classifications = [
        MncClassification(name, hq, *(column[bounds[m]:bounds[m + 1]] for column in columns))
        for m, (name, hq) in enumerate(known)
    ]
    return report
