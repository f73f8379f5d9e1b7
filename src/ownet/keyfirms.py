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

import numpy as np

from .errors import DegenerateSubtreeError, GraphError, InvariantError
from .graph import SubstantialView
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
    jurisdiction_missing: bool
    role: Role


def _require_degrees(subtree: MncSubtree) -> None:
    if subtree.k_in is None:
        from .mnc import mnc_degrees

        mnc_degrees(subtree)


def holding_centrality(subtree: MncSubtree, affiliate: int) -> float:
    """Normalised surplus of capital entering the affiliate.

    Positive exactly when the affiliate owns more substantial links than it
    grants, relative to the whole subtree. Undefined (raises) for isolated
    affiliates and for subtrees whose total in-degree is zero.
    """
    _require_degrees(subtree)
    pos = subtree.position(affiliate)
    k_in = int(subtree.k_in[pos])
    k_out = int(subtree.k_out[pos])
    if k_in + k_out == 0:
        raise DegenerateSubtreeError(f"affiliate {affiliate} is isolated in the subtree")
    if subtree.sum_k_in <= 0:
        raise DegenerateSubtreeError("subtree in-degree sum is zero; holding centrality undefined")
    return (k_in - k_out) / subtree.sum_k_in * (subtree.sum_k_total / (k_in + k_out))


def conduit_centrality(subtree: MncSubtree, affiliate: int) -> float:
    """Normalised pass-through volume of the affiliate."""
    _require_degrees(subtree)
    pos = subtree.position(affiliate)
    k_in = int(subtree.k_in[pos])
    k_out = int(subtree.k_out[pos])
    if k_in + k_out == 0:
        raise DegenerateSubtreeError(f"affiliate {affiliate} is isolated in the subtree")
    if subtree.sum_k_product <= 0:
        raise DegenerateSubtreeError("subtree in*out degree sum is zero; conduit centrality undefined")
    return k_in / subtree.sum_k_product * (subtree.sum_k_total / (k_in + k_out))


def _jurisdictions_differ(g, a: int, b: int) -> bool:
    # the "n.a." sentinel never equals any code, itself included
    na = g.na_jurisdiction
    ja, jb = int(g.jurisdiction_index[a]), int(g.jurisdiction_index[b])
    if ja == na or jb == na:
        return True
    return ja != jb


def _direct_subsidiaries(subtree: MncSubtree, affiliate: int) -> list[int]:
    """In-neighbors of the affiliate that are themselves affiliates."""
    nbrs = subtree.view.in_neighbors(affiliate)
    members = subtree.affiliates
    out = []
    for s in np.unique(nbrs):
        pos = int(np.searchsorted(members, s))
        if pos < members.shape[0] and members[pos] == s:
            out.append(int(s))
    return out


def third_country(subtree: MncSubtree, affiliate: int) -> bool:
    """Located outside the HQ's jurisdiction with a foreign direct subsidiary.

    True iff the affiliate's jurisdiction differs from the HQ's and at least
    one direct subsidiary inside the subtree sits in a jurisdiction
    different from the affiliate's own.
    """
    g = subtree.view.graph
    if not _jurisdictions_differ(g, affiliate, subtree.hq):
        return False
    member_set = subtree.members()
    for s in subtree.view.in_neighbors(affiliate):
        pos = int(np.searchsorted(member_set, s))
        if pos < member_set.shape[0] and member_set[pos] == s:
            if _jurisdictions_differ(g, int(s), affiliate):
                return True
    return False


def hierarchical_identify(subtree: MncSubtree) -> list[CentralityRecord]:
    """Assign None/Holding/Conduit/HoldingAndConduit roles to all affiliates.

    Strict thresholds (> 0) throughout; each affiliate is expanded at most
    once, so cross-shareholding cycles terminate. Conduit-centrality values
    for first-layer affiliates are recorded as diagnostics but never create
    a conduit role without an identified holding parent. On subtrees with a
    zero centrality denominator no role can be assigned.
    """
    _require_degrees(subtree)
    g = subtree.view.graph
    n_aff = subtree.n_affiliates
    if n_aff == 0:
        return []

    degenerate_h = subtree.sum_k_in <= 0
    degenerate_t = subtree.sum_k_product <= 0

    h_val: dict[int, float] = {}
    t_val: dict[int, float] = {}
    roles: dict[int, Role] = {}
    tc_cache: dict[int, bool] = {}

    def tc(node: int) -> bool:
        if node not in tc_cache:
            tc_cache[node] = third_country(subtree, node)
        return tc_cache[node]

    layer1 = [int(a) for a, l in zip(subtree.affiliates, subtree.layers) if l == 1]
    pending = deque(sorted(layer1))
    expanded: set[int] = set()

    while pending and not degenerate_h:
        x = pending.popleft()
        if x in expanded:
            continue
        expanded.add(x)
        if x not in h_val:
            h_val[x] = holding_centrality(subtree, x)
        if not (h_val[x] > 0.0 and tc(x)):
            continue
        if degenerate_t:
            continue
        found_conduit = False
        for s in _direct_subsidiaries(subtree, x):
            if s not in t_val:
                t_val[s] = conduit_centrality(subtree, s)
            if t_val[s] > 0.0 and tc(s):
                found_conduit = True
                roles[s] = roles.get(s, Role.NONE) | Role.CONDUIT
                if s not in h_val:
                    h_val[s] = holding_centrality(subtree, s)
                if h_val[s] > 0.0 and tc(s):
                    roles[s] = roles.get(s, Role.NONE) | Role.HOLDING
                    pending.append(s)
        if found_conduit:
            roles[x] = roles.get(x, Role.NONE) | Role.HOLDING

    if not degenerate_t:
        for x in layer1:
            t_val.setdefault(x, conduit_centrality(subtree, x))

    # post hoc: a role without the third-country condition is a logic bug
    if not all(tc(aff) for aff, role in roles.items() if role != Role.NONE):
        raise InvariantError("a key firm fails the third-country condition")

    na = g.na_jurisdiction
    hq_missing = int(g.jurisdiction_index[subtree.hq]) == na
    records = []
    for pos, aff in enumerate(subtree.affiliates):
        aff = int(aff)
        records.append(
            CentralityRecord(
                affiliate=g.ids[aff],
                index=aff,
                layer=int(subtree.layers[pos]),
                k_in=int(subtree.k_in[pos]),
                k_out=int(subtree.k_out[pos]),
                holding=h_val.get(aff),
                conduit=t_val.get(aff),
                third_country=tc(aff),
                jurisdiction_missing=hq_missing or int(g.jurisdiction_index[aff]) == na,
                role=roles.get(aff, Role.NONE),
            )
        )
    return records


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

    def key_records(self):
        for cls in self.classifications:
            for rec in cls.records:
                if rec.role != Role.NONE:
                    yield cls, rec


def load_keyfirms_csv(path, graph, hq_map: dict[str, str] | None = None) -> ClassificationReport:
    """Rebuild a classification report from an emitted keyfirms.csv.

    ``hq_map`` (mnc name -> hq node id) restores the headquarters link;
    without it HQ-based tables are unavailable (hq_index stays -1).
    """
    import csv as _csv

    from .errors import LoadError

    name_to_role = {v: k for k, v in ROLE_NAMES.items()}
    by_mnc: dict[str, MncClassification] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = _csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != KEYFIRMS_HEADER:
            raise LoadError(f"expected header {','.join(KEYFIRMS_HEADER)}", path, 1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(KEYFIRMS_HEADER):
                raise LoadError(f"expected {len(KEYFIRMS_HEADER)} fields", path, line)
            mnc, aff, layer, k_in, k_out, h, t, tc, role = row
            if mnc not in by_mnc:
                hq_id = hq_map.get(mnc, "") if hq_map else ""
                hq_index = graph.index_of(hq_id) if hq_id else -1
                by_mnc[mnc] = MncClassification(mnc=mnc, hq_id=hq_id, hq_index=hq_index, records=[])
            index = graph.index_of(aff)
            na = graph.na_jurisdiction
            by_mnc[mnc].records.append(
                CentralityRecord(
                    affiliate=aff,
                    index=index,
                    layer=int(layer),
                    k_in=int(k_in),
                    k_out=int(k_out),
                    holding=float(h) if h else None,
                    conduit=float(t) if t else None,
                    third_country=tc == "1",
                    jurisdiction_missing=int(graph.jurisdiction_index[index]) == na,
                    role=name_to_role[role],
                )
            )
    return ClassificationReport(graph=graph, classifications=list(by_mnc.values()))


def classify_all(view: SubstantialView, hq_list, global_degrees: bool = False) -> ClassificationReport:
    """Extract, layer, and identify every MNC in the HQ list.

    ``hq_list`` yields (hq_node_id, mnc_name) pairs. Each subtree is built
    once and kept on its classification. Per-MNC failures are collected
    and the run continues; classifications keep list order.
    """
    report = ClassificationReport(graph=view.graph)
    for hq_id, name in hq_list:
        try:
            hq_index = view.graph.index_of(hq_id)
            subtree = build_subtree(view, hq_index, global_degrees=global_degrees)
            records = hierarchical_identify(subtree)
        except (GraphError, DegenerateSubtreeError) as exc:
            report.failures.append((name, str(exc)))
            continue
        report.classifications.append(
            MncClassification(mnc=name, hq_id=hq_id, hq_index=hq_index, records=records, subtree=subtree)
        )
    return report
