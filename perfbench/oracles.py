"""Correctness checks on one pipeline run's outputs.

Each check reads the artifacts the run wrote and compares them with
something the program did not compute: the planted truth of the synthetic
corpus, the node count of the input, an independent component labelling,
or a codelength recomputed from the written partition.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class CheckFailed(Exception):
    """An output of the run is wrong."""


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        return list(reader)


def check_manifest(manifest_path: Path) -> str:
    """Re-hash every artifact and require status ``ok``; returns the digest."""
    from ownet.errors import OwnetError
    from ownet.pipeline import verify_manifest

    try:
        data = verify_manifest(manifest_path)
    except (OwnetError, OSError, ValueError) as exc:
        raise CheckFailed(f"manifest does not verify: {exc}") from exc
    if data["status"] != "ok":
        raise CheckFailed(f"manifest status {data['status']!r}")
    blob = json.dumps(data["stages"], sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def failed_mncs(outdir: Path, truth: dict[str, dict[str, str]]) -> set[str]:
    """MNCs the run reports as failed, or whose roles differ from planted truth."""
    with open(outdir / "identify_summary.json", encoding="utf-8") as handle:
        failed = {name for name, _ in json.load(handle)["failures"]}
    summarised = {row[0] for row in _rows(outdir / "mnc_summary.csv")}
    failed.update(set(truth) - summarised)
    got: dict[str, dict[str, str]] = {name: {} for name in truth}
    for mnc, affiliate, *_, role in _rows(outdir / "keyfirms.csv"):
        if role != "None":
            got.setdefault(mnc, {})[affiliate] = role
    failed.update(name for name, roles in got.items() if roles != truth.get(name))
    return failed


def check_bowtie(outdir: Path, n_nodes: int, truth: dict[str, dict[str, str]]) -> None:
    """Regions cover every node once, match the summary, and hold key firms in IN."""
    key_firms = {node for roles in truth.values() for node in roles}
    rows = _rows(outdir / "bowtie.csv")
    if len(rows) != n_nodes or len({node for node, _ in rows}) != n_nodes:
        raise CheckFailed(f"bowtie.csv labels {len(rows)} rows for {n_nodes} nodes")
    counts = Counter(region for _, region in rows)
    summary = {name: int(count) for name, count, _ in _rows(outdir / "bowtie_summary.csv")}
    gwcc = summary.pop("Total")
    if any(counts[name] != count for name, count in summary.items()):
        raise CheckFailed(f"bowtie summary {summary} disagrees with bowtie.csv {dict(counts)}")
    if sum(summary.values()) != gwcc or gwcc + counts["REST"] != n_nodes:
        raise CheckFailed(f"bowtie regions {summary} do not sum to {gwcc} / {n_nodes} nodes")
    outside = sorted(node for node, region in rows if node in key_firms and region != "IN")
    if outside:
        raise CheckFailed(f"{len(outside)} key firms outside IN, e.g. {outside[0]}")


def check_communities(outdir: Path, nodes: Path, edges: Path, damping: float) -> float:
    """Every GWCC node is labelled and the reported codelength recomputes.

    The GWCC comes from scipy over the input edges; the codelength is
    recomputed with ``ownet.community.map_equation`` from the written labels.
    Returns the codelength in bits.
    """
    from ownet.community import map_equation, stationary_flow
    from ownet.graph import induced_subgraph, load_graph

    graph = load_graph(nodes, edges)
    n = graph.n_nodes
    adjacency = coo_matrix((np.ones(graph.n_edges), (graph.src, graph.dst)), shape=(n, n))
    _, labels = connected_components(adjacency, directed=True, connection="weak")
    gwcc = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    scope_ids = [graph.ids[i] for i in gwcc]

    written = dict(_rows(outdir / "communities.csv"))
    if set(written) != set(scope_ids):
        raise CheckFailed(f"{len(written)} nodes labelled, GWCC has {len(scope_ids)}")
    with open(outdir / "communities_summary.json", encoding="utf-8") as handle:
        reported = json.load(handle)["codelength"]

    scope = induced_subgraph(graph, scope_ids)
    assignment = np.array([int(written[node]) for node in scope.ids], dtype=np.int64)
    flow = stationary_flow(scope, damping=damping)
    recomputed = map_equation(assignment, flow)
    if abs(recomputed - reported) > 1e-9:
        raise CheckFailed(f"codelength {reported} recomputes to {recomputed}")
    one_module = map_equation(np.zeros(scope.n_nodes, dtype=np.int64), flow)
    if reported > one_module + 1e-9:
        raise CheckFailed(f"codelength {reported} exceeds the one-module {one_module}")
    return reported
