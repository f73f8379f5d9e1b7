"""Jurisdiction-level aggregation: flow centralities, tallies, regressions.

Capital flows between jurisdictions are proxied by counting substantial
links that cross a border (an optional per-edge value array switches to
value mode). The sink score rewards jurisdictions that retain much more
inbound than outbound flow relative to their GDP share; the conduit score
rewards pass-through volume toward sink-flagged jurisdictions.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from ._csr import neighbor_positions, sorted_unique
from .components import REGION_NAMES, BowTie
from .errors import LoadError
from .graph import data_rows, id_pair_rows, parse_number
from .keyfirms import ClassificationReport, Role, ROLE_NAMES
from .netstats import value_counts

SINK_THRESHOLD = 10.0
CONDUIT_THRESHOLD = 1.0
TABLE_ROWS = 5  # jurisdictions listed per chain and HQ table

PROFILE_HEADER = ["code", "gdp", "gdp_year", "statutory_rate", "wtc"]

# the tag of each key role in tally, chain and regression file names
ROLE_TAGS = {
    "holding": Role.HOLDING,
    "hc": Role.HOLDING_AND_CONDUIT,
    "conduit": Role.CONDUIT,
}

TALLY_DIMENSIONS = ("hq", *ROLE_TAGS, "affiliates")


@dataclass(frozen=True)
class JurisdictionProfile:
    """A jurisdiction's GDP and withholding-tax score; ``load_profiles`` keys them by code."""

    gdp: float | None
    wtc: float | None = None


def load_profiles(path) -> dict[str, JurisdictionProfile]:
    """Read ``code,gdp,gdp_year,statutory_rate,wtc`` profile rows.

    ``gdp_year`` and ``statutory_rate`` are checked, so a bad value fails
    with its line, but not kept: no report reads them.
    """
    path = Path(path)
    profiles: dict[str, JurisdictionProfile] = {}
    for line, row in data_rows(path, PROFILE_HEADER):
        code = row[0].strip()
        if not code:
            raise LoadError("empty jurisdiction code", path, line)
        if code in profiles:
            raise LoadError(f"duplicate jurisdiction {code!r}", path, line)

        def optional(raw, kind, name):
            return parse_number(raw, kind, name, path, line) if raw.strip() else None

        gdp = optional(row[1], float, "gdp")
        if gdp is not None and gdp <= 0:
            raise LoadError(f"gdp must be positive, got {gdp}", path, line)
        wtc = optional(row[4], float, "wtc")
        if wtc is not None and wtc < 0:
            raise LoadError(f"wtc must be nonnegative, got {wtc}", path, line)
        optional(row[2], int, "gdp_year")
        optional(row[3], float, "statutory_rate")
        profiles[code] = JurisdictionProfile(gdp, wtc)
    return profiles


VALUE_HEADER = ["subsidiary_id", "shareholder_id", "value"]


def load_edge_values(path, view) -> np.ndarray:
    """Per-edge values aligned with the view's canonical edge order (``RunConfig.values``).

    Rows name an edge by its endpoints (``subsidiary_id,shareholder_id,
    value``); repeated rows add up in file order, edges without a row get
    0, and rows for pairs absent from the view (e.g. below the threshold)
    are ignored. Endpoints are looked up through :func:`graph.id_pair_rows`;
    the first bad row fails with its line, an unknown node before a bad value.
    """
    path = Path(path)
    n = view.n_nodes
    pairs, amounts = array("q"), array("d")
    for line, row, sub, sh in id_pair_rows(path, VALUE_HEADER, view.graph.ids):
        if sub < 0 or sh < 0:
            raise LoadError("unknown node in value row", path, line)
        value = parse_number(row[2], float, "value", path, line)
        if value < 0:
            raise LoadError(f"value must be nonnegative, got {value}", path, line)
        pairs.append(sub * n + sh)
        amounts.append(value)

    keys = view.src.astype(np.int64) * n + view.dst.astype(np.int64)  # ascending: views are in (src, dst) order
    lo = np.searchsorted(keys, pairs, side="left")
    count = np.searchsorted(keys, pairs, side="right") - lo
    # parallel edges share the pair: spread the value over them; np.add.at adds in row order
    values = np.zeros(view.n_edges, dtype=np.float64)
    positions = np.arange(int(count.sum())) + np.repeat(lo - (np.cumsum(count) - count), count)
    np.add.at(values, positions, np.repeat(np.asarray(amounts) / np.maximum(count, 1), count))
    return values


def _cross_border(view, edge_values):
    """The view's edge weights, source and target jurisdictions, and cross-border mask.

    Weights are 1 per link, or ``edge_values`` (aligned with the view's
    canonical edge order) in value mode. An edge crosses a border when its
    two jurisdiction labels differ ("n.a." is its own label).
    """
    weights = np.ones(view.n_edges) if edge_values is None else np.asarray(edge_values, dtype=np.float64)
    if weights.shape[0] != view.n_edges:
        raise ValueError("edge_values must align with the view's edges")
    jsrc = view.graph.jurisdiction_index[view.src]
    jdst = view.graph.jurisdiction_index[view.dst]
    return weights, jsrc, jdst, jsrc != jdst


def _by_label(labels, totals: np.ndarray) -> dict[str, float]:
    """``{label: total}`` of the nonzero per-label ``totals``, in label order."""
    return {labels[i]: float(totals[i]) for i in range(len(labels)) if totals[i]}


def link_flows(view, edge_values=None) -> tuple[dict[str, float], dict[str, float]]:
    """Cross-border ``(v_in, v_out)`` totals per jurisdiction over the view's edges.

    A cross-border edge adds its weight (see :func:`_cross_border`) to the
    target jurisdiction's inbound and the source jurisdiction's outbound
    total; codes with a zero total are absent.
    """
    weights, jsrc, jdst, cross = _cross_border(view, edge_values)
    labels = view.graph.jurisdiction_labels
    v_in = _by_label(labels, np.bincount(jdst[cross], weights=weights[cross], minlength=len(labels)))
    v_out = _by_label(labels, np.bincount(jsrc[cross], weights=weights[cross], minlength=len(labels)))
    return v_in, v_out


@dataclass(frozen=True)
class CentralityScores:
    scores: dict[str, float]
    flagged: list[str]


def _gdp_normalised(values: dict[str, float], total: float, profiles: dict[str, JurisdictionProfile],
                    threshold: float) -> CentralityScores:
    """``values[code] / total`` divided by the code's share of the summed GDP.

    Codes without a GDP get no score; scores strictly above ``threshold``
    are flagged.
    """
    gdp = {code: p.gdp for code, p in profiles.items() if p.gdp is not None}
    gdp_sum = sum(gdp.values())
    scores = {code: values[code] / total * (gdp_sum / gdp[code]) for code in sorted(values) if code in gdp}
    flagged = [c for c, s in scores.items() if s > threshold]
    return CentralityScores(scores, flagged)


def sink_centrality(v_in: dict[str, float], v_out: dict[str, float],
                    profiles: dict[str, JurisdictionProfile]) -> CentralityScores:
    """GDP-normalised net capital retention score of the :func:`link_flows` totals; flagged above 10."""
    total_in = sum(v_in.values())
    if total_in <= 0:
        raise ValueError("total inbound flow is zero; sink centrality undefined")
    net = {code: v_in.get(code, 0.0) - v_out.get(code, 0.0) for code in set(v_in) | set(v_out)}
    return _gdp_normalised(net, total_in, profiles, SINK_THRESHOLD)


def pass_flows(view, sink_codes, edge_values=None) -> dict[str, float]:
    """Pass-through volume per jurisdiction.

    A node accrues one unit for every two-edge path u -> x -> w where both
    endpoints sit outside x's jurisdiction and the terminal jurisdiction is
    sink-flagged; in value mode the unit becomes (inbound value sum) *
    (outbound value sum).
    """
    weights, jsrc, jdst, foreign = _cross_border(view, edge_values)
    g = view.graph
    labels = g.jurisdiction_labels
    sinks = set(sink_codes)
    is_sink = np.array([label in sinks for label in labels], dtype=bool)

    inbound = np.bincount(view.dst[foreign], weights=weights[foreign], minlength=g.n_nodes)
    to_sink = foreign & is_sink[jdst]
    outbound = np.bincount(view.src[to_sink], weights=weights[to_sink], minlength=g.n_nodes)
    return _by_label(labels, np.bincount(g.jurisdiction_index, weights=inbound * outbound, minlength=len(labels)))


def conduit_outward_centrality(v_in: dict[str, float], v_out: dict[str, float], v_pass: dict[str, float],
                               profiles: dict[str, JurisdictionProfile]) -> CentralityScores:
    """GDP-normalised pass-through score of the :func:`pass_flows` totals; flagged strictly above 1.

    Codes with cross-border flow but no pass-through score 0.
    """
    total = sum(v_pass.values())
    if total <= 0:
        raise ValueError("total pass-through flow is zero; conduit centrality undefined")
    passed = {code: v_pass.get(code, 0.0) for code in set(v_in) | set(v_out) | set(v_pass)}
    return _gdp_normalised(passed, total, profiles, CONDUIT_THRESHOLD)


# -- tallies over classification output -----------------------------------

def _ranked_jurisdictions(g, nodes, table: bool = False) -> list[tuple[str, int, float]]:
    """Ranked (code, count, percent) rows over the jurisdictions of ``nodes``.

    Rows run by descending count, then code; percents are of all ``nodes``,
    also when ``table`` keeps only the first ``TABLE_ROWS`` rows.
    """
    counts = np.bincount(g.jurisdiction_index[np.asarray(nodes, dtype=np.int64)],
                         minlength=len(g.jurisdiction_labels))
    total = int(counts.sum())
    rows = sorted(((g.jurisdiction_labels[i], int(counts[i])) for i in np.flatnonzero(counts)),
                  key=lambda kv: (-kv[1], kv[0]))
    if table:
        rows = rows[:TABLE_ROWS]
    return [(code, cnt, 100.0 * cnt / total) for code, cnt in rows]


def tally_by_jurisdiction(report: ClassificationReport, dimension: str) -> list[tuple[str, int, float]]:
    """Ranked (code, count, percent) rows for one tally dimension."""
    if dimension not in TALLY_DIMENSIONS:
        raise ValueError(f"dimension must be one of {TALLY_DIMENSIONS}, got {dimension!r}")
    if dimension == "hq":
        return _ranked_jurisdictions(report.graph, report.hqs)
    firms = report.affiliates
    if dimension != "affiliates":
        firms = firms[report.roles == ROLE_TAGS[dimension]]
    return _ranked_jurisdictions(report.graph, firms)


def tally_by_bowtie(report: ClassificationReport, bowtie: BowTie) -> dict[str, dict[str, int]]:
    """Bow-tie region counts for headquarters and each key-company role."""
    nodes = {ROLE_NAMES[role]: report.affiliates[report.roles == role] for role in ROLE_TAGS.values()}
    nodes["hq"] = report.hqs
    return {
        category: {REGION_NAMES[r]: c for r, c in value_counts(bowtie.region[members]).items()}
        for category, members in nodes.items()
        if len(members)
    }


@dataclass(frozen=True)
class ChainTable:
    """Jurisdiction shares of direct subsidiaries and shareholders."""

    subsidiaries: list[tuple[str, int, float]]
    shareholders: list[tuple[str, int, float]]


def chain_tables(report: ClassificationReport, view, role: Role, jurisdiction: str) -> ChainTable:
    """Where the key companies of one role in one jurisdiction connect to.

    Direct subsidiaries are the firms' in-neighbors over the substantial
    view, direct shareholders their out-neighbors; firms appearing under
    several MNCs are counted once.
    """
    if role == Role.NONE:
        raise ValueError("role must be Holding, Conduit, or HoldingAndConduit")
    g = view.graph
    firms = report.affiliates
    in_jurisdiction = np.array([label == jurisdiction for label in g.jurisdiction_labels])
    firms = sorted_unique(firms[(report.roles == role) & in_jurisdiction[g.jurisdiction_index[firms]]])
    subsidiaries = view.in_sources[neighbor_positions(view.in_indptr, firms)]
    shareholders = view.dst[neighbor_positions(view.out_indptr, firms)]
    return ChainTable(
        subsidiaries=_ranked_jurisdictions(g, subsidiaries, table=True),
        shareholders=_ranked_jurisdictions(g, shareholders, table=True),
    )


@dataclass(frozen=True)
class HqTables:
    """HQ-jurisdiction shares per role, and key-firm locations per HQ home."""

    by_role: dict[str, list[tuple[str, int, float]]]
    locations: dict[tuple[str, str], list[tuple[str, int, float]]]


def hq_tables(report: ClassificationReport) -> HqTables:
    g = report.graph
    hqs = report.hqs[report.row_mnc]  # the HQ of each row
    firms, roles = report.affiliates, report.roles
    hq_jur = g.jurisdiction_index[hqs]
    by_role = {}  # role -> the HQ of each key firm
    locations = {}  # (HQ jurisdiction, role) -> key firms
    for role in ROLE_TAGS.values():
        has_role = roles == role
        if not has_role.any():
            continue
        by_role[ROLE_NAMES[role]] = _ranked_jurisdictions(g, hqs[has_role], table=True)
        for j in sorted_unique(hq_jur[has_role]):
            locations[(g.jurisdiction_labels[j], ROLE_NAMES[role])] = _ranked_jurisdictions(
                g, firms[has_role & (hq_jur == j)], table=True)
    return HqTables(by_role=dict(sorted(by_role.items())), locations=dict(sorted(locations.items())))


# -- regression ------------------------------------------------------------

@dataclass(frozen=True)
class RegressionResult:
    intercept: float
    slope: float
    t_intercept: float
    t_slope: float
    p_intercept: float
    p_slope: float
    r_squared: float
    adj_r_squared: float
    n: int


def ols_regression(x, y) -> RegressionResult:
    """Ordinary least squares of y on x with intercept.

    Exact-t p-values with n-2 degrees of freedom. Requires n >= 3 and a
    non-constant regressor.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y must have equal length")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if np.ptp(x) == 0:
        raise ValueError("constant regressor: singular design")

    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm

    resid = y - (intercept + slope * x)
    ssr = float((resid**2).sum())
    sst = float(((y - ym) ** 2).sum())
    df = n - 2
    sigma2 = ssr / df
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / n + xm * xm / sxx))

    def t_and_p(coef, se):
        if se == 0.0:
            return (math.inf if coef > 0 else (-math.inf if coef < 0 else 0.0),
                    0.0 if coef != 0 else 1.0)
        t = coef / se
        return t, 2.0 * float(stdtr(df, -abs(t)))

    t_int, p_int = t_and_p(intercept, se_intercept)
    t_slo, p_slo = t_and_p(slope, se_slope)
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return RegressionResult(intercept, slope, t_int, t_slo, p_int, p_slo, r2, adj, n)
