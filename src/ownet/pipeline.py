"""End-to-end pipeline: ingest through jurisdiction reports, with manifest.

Stages run in dependency order and write their artifacts under the output
directory; ``manifest.json`` records every artifact with a sha256 content
hash. Outputs carry no timestamps, so identical inputs and seeds reproduce
identical bytes. Each stage function computes and writes all of its
artifacts and returns their paths in manifest order; ``run_stage`` runs one,
for ``run_pipeline`` and for the CLI's stage subcommands alike, so both emit
the same files with the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import components as comp
from . import jurisdiction as jur
from . import netstats
from .community import DEFAULT_DAMPING, community_size_histogram, detect_communities
from .errors import FitError, OwnetError, PipelineError
from .graph import (
    OwnershipGraph,
    _sha256,
    induced_subgraph,
    load_or_build,
    save_cache,
    substantial_view,
    write_csv_rows,
    write_id_value_csv,
    write_json,
)
from .keyfirms import KEYFIRMS_HEADER, ROLE_NAMES, Role, classify_all
from .mnc import load_hq_list

STAGES = ("ingest", "bowtie", "stats", "communities", "extract", "identify", "jurisdiction")

MANIFEST_VERSION = 1


@dataclass
class RunConfig:
    """Inputs, seed, and stage toggles for one pipeline run."""

    nodes: Path
    edges: Path
    outdir: Path
    hqs: Path | None = None
    profiles: Path | None = None
    values: Path | None = None  # per-edge values: the jurisdiction stage's value mode
    seed: int = 0
    stages: tuple[str, ...] = STAGES
    cache: Path | None = None
    damping = DEFAULT_DAMPING  # not a field, so no run sets it; the fixed perfbench/run.py reads it

    def __post_init__(self):
        """Reject a parameter no stage can use, so a bad value fails before any stage runs.

        Types are checked first, so a range rule only ever compares numbers.
        """
        rules = (
            ("seed", lambda value: isinstance(value, int) and not isinstance(value, bool), "an int"),
            ("stages", lambda value: isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value),
             "a list of stage names"),
            ("seed", lambda value: value >= 0, ">= 0"),
        )
        for name, ok, rule in rules:
            if not ok(getattr(self, name)):
                raise PipelineError(f"bad parameter: {name} must be {rule}, got {getattr(self, name)!r}")
        self.stages = tuple(self.stages)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise PipelineError(f"bad config: {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise PipelineError(f"bad config: {path}: expected a JSON object, got {type(raw).__name__}")
        base = Path(path).parent
        paths = {}
        try:
            for key in ("nodes", "edges", "outdir", "hqs", "profiles", "values", "cache"):
                value = raw.pop(key, None)
                if value is not None:
                    paths[key] = base / value  # an absolute path replaces the base
            return cls(**raw, **paths)
        except TypeError as exc:
            raise PipelineError(f"bad config: {exc}") from exc

    def validate(self) -> None:
        """Fail fast: every input referenced by an enabled stage must exist."""
        unknown = set(self.stages) - set(STAGES)
        if unknown:
            raise PipelineError(f"unknown stages: {sorted(unknown)}")
        required = [("nodes", self.nodes), ("edges", self.edges)]
        if {"extract", "identify", "jurisdiction"} & set(self.stages):
            required.append(("hqs", self.hqs))
        if "jurisdiction" in self.stages:
            required.append(("profiles", self.profiles))
            if self.values is not None:
                required.append(("values", self.values))
        for name, path in required:
            if path is None:
                raise PipelineError(f"stage inputs incomplete: {name} file not configured")
            if not Path(path).exists():
                raise PipelineError(f"missing input file: {name} ({path})")


class _Manifest:
    def __init__(self, outdir: Path, config: RunConfig):
        self.outdir = outdir
        self.data = {
            "version": MANIFEST_VERSION,
            "config": {"seed": config.seed, "stages": list(config.stages)},
            "stages": {},
            "status": "running",
        }

    def add(self, stage: str, path: Path) -> None:
        entry = self.data["stages"].setdefault(stage, {"artifacts": {}})
        entry["artifacts"][str(path.relative_to(self.outdir))] = _sha256(path)

    def finish(self, status: str) -> Path:
        self.data["status"] = status
        target = self.outdir / "manifest.json"
        write_json(target, self.data)
        return target


def _fmt(value: float) -> str:
    return repr(float(value))


def run_pipeline(config: RunConfig) -> Path:
    """Execute the configured stages; returns the manifest path.

    Any stage failure is re-raised as :class:`PipelineError` after the
    partial manifest is written.
    """
    config.validate()
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(outdir, config)
    state: dict[str, object] = {}
    try:
        for stage in STAGES:
            if stage in config.stages:
                for path in run_stage(stage, config, state):
                    manifest.add(stage, path)
    except OwnetError:
        manifest.finish("failed")
        raise
    except Exception as exc:
        manifest.finish("failed")
        raise PipelineError(f"stage failure: {exc}") from exc
    return manifest.finish("ok")


def run_stage(stage: str, config: RunConfig, state: dict) -> list[Path]:
    """Run one stage into ``config.outdir``; returns its artifacts' paths in manifest order.

    A stage computes what ``state`` lacks (``graph``, ``view``, ``report``, ...)
    and keeps it there for later stages; a caller may seed any of it instead.
    """
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _STAGE_FUNCS[stage](config, outdir, state)


def _cache_path(config: RunConfig) -> Path:
    return Path(config.cache) if config.cache else Path(config.outdir) / "graph.npz"


def _get_graph(config: RunConfig, state: dict) -> OwnershipGraph:
    if "graph" not in state:
        state["graph"], state["digests"] = load_or_build(config.nodes, config.edges, _cache_path(config))
    return state["graph"]


def _stage_ingest(config, outdir, state):
    graph = _get_graph(config, state)
    cache = _cache_path(config)
    if state["digests"] is not None:  # parsed from the CSVs: the cache was absent or stale
        save_cache(graph, cache, state["digests"])
    summary = outdir / "ingest_summary.json"
    write_json(summary, {"nodes": graph.n_nodes, "edges": graph.n_edges, "counters": graph.ingest_counters})
    return [cache, summary] if cache.is_relative_to(outdir) else [summary]


def _stage_bowtie(config, outdir, state):
    graph = _get_graph(config, state)
    bowtie = state["bowtie"] = comp.bowtie_decompose(graph)
    paths = [outdir / name for name in
             ("bowtie.csv", "bowtie_summary.csv", "distances_in.csv", "distances_out.csv", "component_sizes.csv")]
    regions, summary, dist_in, dist_out, sizes = paths

    write_id_value_csv(regions, ["node_id", "region"], graph.ids, bowtie.region,
                       [comp.REGION_NAMES[r] for r in range(len(comp.REGION_NAMES))])
    write_csv_rows(summary, ["component", "companies", "ratio"], bowtie.summary_rows())
    # hop counts IN -> GSCC and GSCC -> OUT, as shares of the region
    for direction, region, path in (("in", comp.IN, dist_in), ("out", comp.OUT, dist_out)):
        counts = comp.distance_distribution(bowtie, direction)
        write_csv_rows(path, ["distance", "count", "ratio"],
                       ((d, c, _fmt(c / bowtie.size(region))) for d, c in counts.items()))
    write_csv_rows(sizes, ["size", "count"], sorted(comp.component_size_histogram(bowtie.weak).items()))
    return paths


def _fmt_bins(hist) -> list[tuple[str, str, int, str]]:
    return [(_fmt(lo), _fmt(hi), c, _fmt(d)) for lo, hi, c, d in hist.rows()]


def _fmt_curve(curve) -> list[tuple[int, str, int]]:
    return [(int(k), _fmt(v), int(c)) for k, v, c in zip(curve.degrees, curve.values, curve.counts)]


def _stage_stats(config, outdir, state):
    """``stats/``: degree histograms, exponent fits, clustering and k_nn curves."""
    graph = _get_graph(config, state)
    stats_dir = outdir / "stats"
    stats_dir.mkdir(exist_ok=True)
    paths = []
    fits = {}
    for direction in ("in", "out"):
        hist = netstats.degree_histogram(graph, direction)
        path = stats_dir / f"pk_{direction}.csv"
        write_csv_rows(path, ["bin_lo", "bin_hi", "count", "density"], _fmt_bins(hist))
        paths.append(path)

        deg = graph.in_degrees() if direction == "in" else graph.out_degrees()
        try:
            fit = netstats.fit_power_law(deg, x_min=None)
            fits[direction] = {
                "gamma": fit.gamma,
                "x_min": fit.x_min,
                "n_tail": fit.n_tail,
                "loglik": fit.loglik,
                "ks": fit.ks,
                "binned_slope": netstats.binned_fit_slope(hist),
            }
        except FitError as exc:
            fits[direction] = {"error": str(exc)}

    indptr, nbrs = netstats.undirected_simple_csr(graph)
    path = stats_dir / "ck.csv"
    write_csv_rows(path, ["k", "mean_clustering", "n"], _fmt_curve(netstats.clustering_by_degree(indptr, nbrs)))
    paths.append(path)

    path = stats_dir / "knn.csv"
    write_csv_rows(path, ["k", "mean_knn", "n"], _fmt_curve(netstats.knn_by_degree(indptr, nbrs)))
    paths.append(path)

    path = stats_dir / "fits.json"
    write_json(path, fits)
    paths.append(path)
    return paths


def community_scope(graph: OwnershipGraph, weak: comp.ComponentLabeling) -> OwnershipGraph:
    """The graph communities are detected on: the GWCC of ``weak``, the graph's weak labelling."""
    return induced_subgraph(graph, np.flatnonzero(weak.labels == weak.largest))


def _stage_communities(config, outdir, state):
    graph = _get_graph(config, state)
    weak = state["bowtie"].weak if "bowtie" in state else comp.weak_components(graph)  # one labelling per run
    scope = community_scope(graph, weak)
    partition = state["partition"] = detect_communities(scope, seed=config.seed)
    paths = [outdir / "communities.csv", outdir / "dsizes.csv", outdir / "communities_summary.json"]
    labels, dsizes, summary = paths

    write_id_value_csv(labels, ["node_id", "community_id"], scope.ids, partition.labels,
                       [str(k) for k in range(partition.n_communities)])
    hist = community_size_histogram(partition)
    write_csv_rows(dsizes, ["size_lo", "size_hi", "count", "density"], _fmt_bins(hist))
    write_json(summary, {"communities": partition.n_communities, "codelength": partition.codelength,
                         "scope": "gwcc"})
    return paths


def _get_view(config, state):
    if "view" not in state:
        state["view"] = substantial_view(_get_graph(config, state))
    return state["view"]


def _get_report(config, state):
    if "report" not in state:
        state["report"] = classify_all(_get_view(config, state), load_hq_list(config.hqs))
    return state["report"]


def _affiliate_columns(report) -> list[list]:
    """MNC name, affiliate id, layer and within-MNC degrees of every report row."""
    return [[report.mncs[m] for m in report.row_mnc.tolist()], report.graph.ids.take(report.affiliates),
            report.layers.tolist(), report.k_in.tolist(), report.k_out.tolist()]


def _stage_extract(config, outdir, state):
    """``affiliates.csv``: the affiliate columns of ``keyfirms.csv``, one row per (MNC, affiliate)."""
    path = outdir / "affiliates.csv"
    write_csv_rows(path, KEYFIRMS_HEADER[:5], zip(*_affiliate_columns(_get_report(config, state))))
    return [path]


def _fmt_or_blank(values: np.ndarray) -> list[str]:
    return ["" if math.isnan(v) else _fmt(v) for v in values.tolist()]


def _stage_identify(config, outdir, state):
    report = _get_report(config, state)
    paths = [outdir / "keyfirms.csv", outdir / "mnc_summary.csv", outdir / "identify_summary.json"]
    keyfirms, mnc_summary, summary = paths

    # the affiliate columns, centralities and role of every classified affiliate
    write_csv_rows(keyfirms, KEYFIRMS_HEADER, zip(
        *_affiliate_columns(report), _fmt_or_blank(report.holding), _fmt_or_blank(report.conduit),
        report.third_country.astype(int).tolist(), [ROLE_NAMES[role] for role in report.roles.tolist()],
    ))

    n_roles = len(ROLE_NAMES)
    counts = np.bincount(report.row_mnc * n_roles + report.roles,
                         minlength=len(report.mncs) * n_roles).reshape(-1, n_roles)
    key_roles = [Role.HOLDING, Role.HOLDING_AND_CONDUIT, Role.CONDUIT]
    rows = zip(report.mncs, [report.graph.jurisdiction_of(hq) for hq in report.hqs.tolist()],
               np.diff(report.bounds).tolist(), *counts[:, key_roles].T.tolist())
    write_csv_rows(
        mnc_summary, ["mnc", "hq_jurisdiction", "affiliates", "holding", "holding_and_conduit", "conduit"], rows
    )

    write_json(summary, {"tallies": report.tallies, "affiliates": report.n_affiliates,
                         "failures": report.failures})
    return paths


def _score_rows(centrality) -> list[tuple[str, str, str]]:
    """``(code, score, flagged)`` rows of ``sink.csv`` and ``conduit.csv``."""
    return [(c, _fmt(s), "1" if c in centrality.flagged else "0") for c, s in sorted(centrality.scores.items())]


def _records(rows) -> list[dict]:
    """``(code, count, percent)`` rows of ``hq_tables.json``, as objects."""
    return [{"code": c, "count": n, "percent": p} for c, n, p in rows]


def _stage_jurisdiction(config, outdir, state):
    """``reports/``: sink/conduit scores, tallies, chains, HQ tables, regressions.

    ``config.values`` (if set) switches flows to value mode; a bow-tie
    computed in the same run adds the bow-tie region tally.
    """
    view, report = _get_view(config, state), _get_report(config, state)
    profiles = jur.load_profiles(config.profiles)
    edge_values = jur.load_edge_values(config.values, view) if config.values else None
    reports_dir = outdir / "reports"
    paths = []
    (reports_dir / "tallies").mkdir(parents=True, exist_ok=True)
    (reports_dir / "chains").mkdir(exist_ok=True)

    def scores(centrality, *flows):
        try:
            return centrality(*flows, profiles)
        except ValueError:  # no cross-border or no pass-through flow: no score, a header-only table
            return jur.CentralityScores({}, [])

    v_in, v_out = jur.link_flows(view, edge_values)
    sink = scores(jur.sink_centrality, v_in, v_out)
    conduit = scores(jur.conduit_outward_centrality, v_in, v_out, jur.pass_flows(view, sink.flagged, edge_values))
    for name, centrality in (("sink.csv", sink), ("conduit.csv", conduit)):
        path = reports_dir / name
        write_csv_rows(path, ["code", "score", "flagged"], _score_rows(centrality))
        paths.append(path)

    tallies = {d: jur.tally_by_jurisdiction(report, d) for d in jur.TALLY_DIMENSIONS}
    for dimension, rows in tallies.items():
        path = reports_dir / "tallies" / f"{dimension}.csv"
        write_csv_rows(
            path, ["code", "count", "percent"],
            ((c, n, _fmt(p)) for c, n, p in rows),
        )
        paths.append(path)

    if "bowtie" in state:
        regions = jur.tally_by_bowtie(report, state["bowtie"])
        path = reports_dir / "tallies" / "bowtie_regions.csv"
        rows = [
            (category, region, count)
            for category, buckets in sorted(regions.items())
            for region, count in sorted(buckets.items())
        ]
        write_csv_rows(path, ["category", "region", "count"], rows)
        paths.append(path)

    for tag, role in jur.ROLE_TAGS.items():
        for code, _, _ in tallies[tag][:3]:
            table = jur.chain_tables(report, view, role, code)
            path = reports_dir / "chains" / f"{tag}_{code}.csv"
            rows = [("subsidiary", c, n, _fmt(p)) for c, n, p in table.subsidiaries]
            rows += [("shareholder", c, n, _fmt(p)) for c, n, p in table.shareholders]
            write_csv_rows(path, ["side", "code", "count", "percent"], rows)
            paths.append(path)

    hq_t = jur.hq_tables(report)
    path = reports_dir / "hq_tables.json"
    write_json(path, {"by_role": {role: _records(rows) for role, rows in hq_t.by_role.items()},
                      "locations": {f"{hq}/{role}": _records(rows) for (hq, role), rows in hq_t.locations.items()}})
    paths.append(path)

    # withholding-tax regressions per role
    regressions = {}
    wtc = {code: p.wtc for code, p in sorted(profiles.items()) if p.wtc is not None}  # by code
    for tag in jur.ROLE_TAGS:
        counts = {c: n for c, n, _ in tallies[tag]}
        try:
            regressions[tag] = asdict(jur.ols_regression(list(wtc.values()), [counts.get(c, 0) for c in wtc]))
        except ValueError as exc:
            regressions[tag] = {"error": str(exc)}
    path = reports_dir / "regression.json"
    write_json(path, regressions)
    paths.append(path)
    return paths


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "bowtie": _stage_bowtie,
    "stats": _stage_stats,
    "communities": _stage_communities,
    "extract": _stage_extract,
    "identify": _stage_identify,
    "jurisdiction": _stage_jurisdiction,
}


def verify_manifest(manifest_path) -> dict:
    """Load a manifest and re-hash every artifact; raises on mismatch."""
    manifest_path = Path(manifest_path)
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise PipelineError(f"bad manifest: {manifest_path}: {exc}") from exc
    if not (isinstance(data, dict) and isinstance(data.get("stages"), dict) and "status" in data):
        raise PipelineError(f"bad manifest: {manifest_path}: not a JSON object with 'stages' and 'status'")
    outdir = manifest_path.parent
    for stage, entry in data["stages"].items():
        artifacts = entry.get("artifacts") if isinstance(entry, dict) else None
        if not (isinstance(artifacts, dict) and all(isinstance(digest, str) for digest in artifacts.values())):
            raise PipelineError(f"bad manifest: {manifest_path}: stage {stage!r} has no 'artifacts' mapping of paths to digests")
        for rel, digest in artifacts.items():
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                raise PipelineError(f"bad manifest: {manifest_path}: artifact {rel!r} is outside the manifest's directory")
            target = outdir / rel
            if not target.exists():
                raise PipelineError(f"manifest artifact missing: {rel}")
            if _sha256(target) != digest:
                raise PipelineError(f"manifest hash mismatch: {rel}")
    return data


def write_report(manifest_path, report_dir=None) -> Path:
    """Human-readable summary composed from the manifest's artifacts."""
    manifest_path = Path(manifest_path)
    data = verify_manifest(manifest_path)
    outdir = manifest_path.parent
    report_dir = Path(report_dir) if report_dir else outdir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    lines: list[str] = ["ownership-network analysis report", ""]

    def table(title: str, path: Path) -> None:
        """``title``, then the rows of the CSV at ``path`` without its header, indented."""
        lines.extend([title, *("  " + row for row in path.read_text(encoding="utf-8").splitlines()[1:]), ""])

    ingest = outdir / "ingest_summary.json"
    if ingest.exists():
        info = json.loads(ingest.read_text(encoding="utf-8"))
        lines.append(f"graph: {info['nodes']} nodes, {info['edges']} edges")
        lines.append(f"ingest counters: {info['counters']}")
        lines.append("")

    summary = outdir / "bowtie_summary.csv"
    if summary.exists():
        table("bow-tie structure (component, companies, ratio %):", summary)
        for direction in ("in", "out"):
            dist = outdir / f"distances_{direction}.csv"
            if dist.exists():
                label = "IN -> GSCC" if direction == "in" else "GSCC -> OUT"
                table(f"shortest distances {label} (distance, count, ratio):", dist)

    identify = outdir / "identify_summary.json"
    if identify.exists():
        info = json.loads(identify.read_text(encoding="utf-8"))
        lines.append(f"affiliates classified: {info['affiliates']}")
        lines.append(f"key-company tallies: {info['tallies']}")
        if info["failures"]:
            lines.append(f"failures: {info['failures']}")
        lines.append("")

    mnc_summary = outdir / "mnc_summary.csv"
    if mnc_summary.exists():
        table("per-MNC key companies (mnc, hq, affiliates, holding, h&c, conduit):", mnc_summary)

    regression = outdir / "reports" / "regression.json"
    if regression.exists():
        info = json.loads(regression.read_text(encoding="utf-8"))
        lines.append("withholding-tax regressions (count ~ wtc):")
        for tag, res in sorted(info.items()):
            if "error" in res:
                lines.append(f"  {tag}: {res['error']}")
            else:
                lines.append(
                    f"  {tag}: y = {res['intercept']:.3f} + {res['slope']:.3f} x"
                    f" (adj R^2 = {res['adj_r_squared']:.4f}, n = {res['n']})"
                )
        lines.append("")

    lines.append(f"pipeline status: {data['status']}")
    target = report_dir / "summary.txt"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target
