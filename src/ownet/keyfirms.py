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
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateSubtreeError, GraphError, InvariantError, LoadError
from .graph import SubstantialView, data_rows, parse_number
from .mnc import MncSubtree, build_subtree


class Role(enum.IntFlag):
    NONE = 0
    HOLDING = 1
    CONDUIT = 2
    HOLDING_AND_CONDUIT = 3


KEYFIRMS_HEADER = ["mnc", "affiliate_id", "layer", "k_in", "k_out", "H", "T", "third_country", "role"]

ROLE_NAMES = {
    Role.NONE: "None",
    Role.HOLDING: "Holding",
    Role.CONDUIT: "Conduit",
    Role.HOLDING_AND_CONDUIT: "HoldingAndConduit",
}


@dataclass(frozen=True)
class CentralityRecord:
    affiliate: str
    index: int
    layer: int
    k_in: int
    k_out: int
    holding: float | None
    conduit: float | None
    third_country: bool
    role: Role


def _as_given(affiliate, values):
    """``values`` as an array for an array of affiliates, else as one Python scalar."""
    return values if np.ndim(affiliate) else values.item()


def _degrees_of(subtree: MncSubtree, affiliate) -> tuple[np.ndarray, np.ndarray]:
    """Within-subtree (k_in, k_out) of the affiliate(s); rejects isolated ones."""
    pos = subtree.position(affiliate)
    k_in, k_out = subtree.k_in[pos], subtree.k_out[pos]
    isolated = np.flatnonzero(np.atleast_1d(k_in + k_out) == 0)
    if isolated.size:
        node = np.atleast_1d(affiliate)[isolated[0]]
        raise DegenerateSubtreeError(f"affiliate {node} is isolated in the subtree")
    return k_in, k_out


def holding_centrality(subtree: MncSubtree, affiliate):
    """Normalised surplus of capital entering the affiliate(s).

    Positive exactly when the affiliate owns more substantial links than it
    grants, relative to the whole subtree. Takes one affiliate index (gives
    a float) or an array of them (gives an array). Undefined (raises) for
    isolated affiliates and for subtrees whose total in-degree is zero.
    """
    k_in, k_out = _degrees_of(subtree, affiliate)
    if subtree.sum_k_in <= 0:
        raise DegenerateSubtreeError("subtree in-degree sum is zero; holding centrality undefined")
    return _as_given(affiliate, (k_in - k_out) / subtree.sum_k_in * (subtree.sum_k_total / (k_in + k_out)))


def conduit_centrality(subtree: MncSubtree, affiliate):
    """Normalised pass-through volume of the affiliate(s); scalar or array like
    :func:`holding_centrality`."""
    k_in, k_out = _degrees_of(subtree, affiliate)
    if subtree.sum_k_product <= 0:
        raise DegenerateSubtreeError("subtree in*out degree sum is zero; conduit centrality undefined")
    return _as_given(affiliate, k_in / subtree.sum_k_product * (subtree.sum_k_total / (k_in + k_out)))


def third_country(subtree: MncSubtree, affiliate):
    """Located outside the HQ's jurisdiction with a foreign direct subsidiary.

    True iff the affiliate's jurisdiction differs from the HQ's and at least
    one direct subsidiary inside the subtree (the HQ included) sits in a
    jurisdiction different from the affiliate's own. The "n.a." sentinel
    never equals any code, itself included. Scalar or array like
    :func:`holding_centrality`.
    """
    pos = subtree.position(affiliate)
    g = subtree.view.graph
    na = g.na_jurisdiction
    # jurisdictions by local position, the HQ last
    jur = g.jurisdiction_index[np.append(subtree.affiliates, subtree.hq)]

    def differ(a, b):
        return (a != b) | (a == na) | (b == na)

    n_members = subtree.n_affiliates + 1
    owner = np.repeat(np.arange(n_members), np.diff(subtree.sub_indptr))
    foreign_sub = np.zeros(n_members, dtype=bool)
    foreign_sub[owner[differ(jur[subtree.subsidiaries], jur[owner])]] = True
    return _as_given(affiliate, differ(jur[pos], jur[-1]) & foreign_sub[pos])


def hierarchical_identify(subtree: MncSubtree) -> list[CentralityRecord]:
    """Assign None/Holding/Conduit/HoldingAndConduit roles to all affiliates.

    Strict thresholds (> 0) throughout; each affiliate is expanded at most
    once, so cross-shareholding cycles terminate. Conduit-centrality values
    for first-layer affiliates are recorded as diagnostics but never create
    a conduit role without an identified holding parent. On subtrees with a
    zero centrality denominator no role can be assigned. H and T are
    reported only for the affiliates the role search evaluated.
    """
    g = subtree.view.graph
    affiliates = subtree.affiliates
    n_aff = subtree.n_affiliates
    if n_aff == 0:
        return []

    degenerate_h = subtree.sum_k_in <= 0
    degenerate_t = subtree.sum_k_product <= 0
    h = holding_centrality(subtree, affiliates).tolist() if not degenerate_h else None
    t = conduit_centrality(subtree, affiliates).tolist() if not degenerate_t else None
    tc = third_country(subtree, affiliates)

    sub_ptr = subtree.sub_indptr.tolist()
    sub_pos = subtree.subsidiaries.tolist()
    tc_list = tc.tolist()
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
            if s == n_aff:  # the HQ, a subsidiary in a cross-shareholding cycle
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

    if not degenerate_t:
        t_seen[subtree.layers == 1] = True

    # post hoc: a role without the third-country condition is a logic bug
    if np.any((roles != Role.NONE) & ~tc):
        raise InvariantError("a key firm fails the third-country condition")

    return [
        CentralityRecord(g.ids[aff], aff, layer, k_in, k_out, hv, tv, third, Role(role))
        for aff, layer, k_in, k_out, hv, tv, third, role in zip(
            affiliates.tolist(), subtree.layers.tolist(), subtree.k_in.tolist(), subtree.k_out.tolist(),
            _where_seen(h, h_seen), _where_seen(t, t_seen), tc_list, roles.tolist())
    ]


def _where_seen(values: list[float] | None, seen: np.ndarray) -> list[float | None]:
    """``values`` where ``seen`` is set, None elsewhere (everywhere without values)."""
    if values is None:
        return [None] * seen.shape[0]
    return [v if shown else None for v, shown in zip(values, seen.tolist())]


@dataclass
class MncClassification:
    mnc: str
    hq_id: str
    hq_index: int
    records: list[CentralityRecord]
    # the subtree the records came from; None when rebuilt from keyfirms.csv
    subtree: MncSubtree | None = field(default=None, repr=False, compare=False)


@dataclass
class ClassificationReport:
    """Per-MNC role assignments plus global tallies."""

    graph: object = field(repr=False, default=None)
    classifications: list[MncClassification] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def tallies(self) -> dict[str, int]:
        counts = {"Holding": 0, "HoldingAndConduit": 0, "Conduit": 0}
        for cls in self.classifications:
            for rec in cls.records:
                if rec.role != Role.NONE:
                    counts[ROLE_NAMES[rec.role]] += 1
        return counts

    @property
    def n_affiliates(self) -> int:
        return sum(len(cls.records) for cls in self.classifications)


def load_keyfirms_csv(path, graph, hq_map: dict[str, str] | None = None) -> ClassificationReport:
    """Rebuild a classification report from an emitted keyfirms.csv.

    ``hq_map`` (mnc name -> hq node id) restores the headquarters link;
    without it HQ-based tables are unavailable (hq_index stays -1). A row
    with an unknown id or role, a malformed number or a third_country
    other than 0/1 fails with its line.
    """
    path = Path(path)
    name_to_role = {v: k for k, v in ROLE_NAMES.items()}
    by_mnc: dict[str, MncClassification] = {}
    for line, row in data_rows(path, KEYFIRMS_HEADER):
        mnc, aff, layer, k_in, k_out, h, t, tc, role = row
        if role not in name_to_role:
            raise LoadError(f"unknown role {role!r}", path, line)
        if tc not in ("0", "1"):
            raise LoadError(f"third_country must be 0 or 1, got {tc!r}", path, line)
        try:
            if mnc not in by_mnc:
                hq_id = hq_map.get(mnc, "") if hq_map else ""
                hq_index = graph.index_of(hq_id) if hq_id else -1
                by_mnc[mnc] = MncClassification(mnc=mnc, hq_id=hq_id, hq_index=hq_index, records=[])
            index = graph.index_of(aff)
        except GraphError as exc:
            raise LoadError(str(exc), path, line) from None
        by_mnc[mnc].records.append(
            CentralityRecord(
                affiliate=aff,
                index=index,
                layer=parse_number(layer, int, "layer", path, line),
                k_in=parse_number(k_in, int, "k_in", path, line),
                k_out=parse_number(k_out, int, "k_out", path, line),
                holding=parse_number(h, float, "H", path, line) if h else None,
                conduit=parse_number(t, float, "T", path, line) if t else None,
                third_country=tc == "1",
                role=name_to_role[role],
            )
        )
    return ClassificationReport(graph=graph, classifications=list(by_mnc.values()))


def classify_all(view: SubstantialView, hq_list) -> ClassificationReport:
    """Extract, layer, and identify every MNC in the HQ list.

    ``hq_list`` yields (hq_node_id, mnc_name) pairs. Each subtree is built
    once and kept on its classification. Per-MNC failures are collected
    and the run continues; classifications keep list order.
    """
    report = ClassificationReport(graph=view.graph)
    for hq_id, name in hq_list:
        try:
            hq_index = view.graph.index_of(hq_id)
            subtree = build_subtree(view, hq_index)
            records = hierarchical_identify(subtree)
        except (GraphError, DegenerateSubtreeError) as exc:
            report.failures.append((name, str(exc)))
            continue
        report.classifications.append(
            MncClassification(mnc=name, hq_id=hq_id, hq_index=hq_index, records=records, subtree=subtree)
        )
    return report
