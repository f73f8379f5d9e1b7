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

# NONE, then the key roles in tally order
ROLE_NAMES = {
    Role.NONE: "None",
    Role.HOLDING: "Holding",
    Role.HOLDING_AND_CONDUIT: "HoldingAndConduit",
    Role.CONDUIT: "Conduit",
}


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


def hierarchical_identify(subtree: MncSubtree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign None/Holding/Conduit/HoldingAndConduit roles to all affiliates.

    Returns (holding, conduit, third_country, roles) aligned with
    ``subtree.affiliates``: the two centralities as float64, the condition
    as bool and the roles as int8 :class:`Role` values. Strict thresholds
    (> 0) throughout; each affiliate is expanded at most once, so
    cross-shareholding cycles terminate. Conduit-centrality values for
    first-layer affiliates are recorded as diagnostics but never create a
    conduit role without an identified holding parent. On subtrees with a
    zero centrality denominator no role can be assigned. H and T are NaN
    except for the affiliates the role search evaluated.
    """
    affiliates = subtree.affiliates
    n_aff = subtree.n_affiliates
    degenerate_h = subtree.sum_k_in <= 0
    degenerate_t = subtree.sum_k_product <= 0
    holding = holding_centrality(subtree, affiliates) if not degenerate_h else np.full(n_aff, np.nan)
    conduit = conduit_centrality(subtree, affiliates) if not degenerate_t else np.full(n_aff, np.nan)
    tc = third_country(subtree, affiliates)

    h = holding.tolist()
    t = conduit.tolist()
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

    t_seen[subtree.layers == 1] = True

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

    ``hq_list`` yields (hq_node_id, mnc_name) pairs. Each subtree is built
    once. Per-MNC failures are collected and the run continues;
    classifications keep list order.
    """
    report = ClassificationReport(graph=view.graph)
    for hq_id, name in hq_list:
        try:
            hq_index = view.graph.index_of(hq_id)
            subtree = build_subtree(view, hq_index)
            identified = hierarchical_identify(subtree)
        except (GraphError, DegenerateSubtreeError) as exc:
            report.failures.append((name, str(exc)))
            continue
        report.classifications.append(MncClassification(
            name, hq_index, subtree.affiliates, subtree.layers, subtree.k_in, subtree.k_out, *identified
        ))
    return report
