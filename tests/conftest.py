import dataclasses

import numpy as np
import pytest

from ownet.graph import NodeRecord, OwnershipEdge, build_graph, substantial_view, write_json
from ownet.mnc import subtree_table
from ownet.pipeline import RunConfig, run_stage
from ownet.synth import toy_m1_template


def make_graph(n, edges, jurisdictions=None, pct=50.0):
    """Tiny graph builder: ids n0..n{n-1}, edges as (src, dst[, pct]) index pairs."""
    jurisdictions = jurisdictions or {}
    nodes = [NodeRecord(f"n{i}", jurisdictions.get(i, "US")) for i in range(n)]
    rows = []
    for e in edges:
        p = e[2] if len(e) > 2 else pct
        rows.append(OwnershipEdge(f"n{e[0]}", f"n{e[1]}", p))
    return build_graph(nodes, rows)


def template_graph(template):
    """Standalone graph of one template (global ids)."""
    nodes = [
        NodeRecord(template.global_id(local), jur)
        for local, jur in sorted(template.jurisdictions.items())
    ]
    edges = [OwnershipEdge(template.global_id(c), template.global_id(p), pct) for c, p, pct in template.edges]
    return build_graph(nodes, edges)


def spec_to_json(spec, path):
    write_json(path, dataclasses.asdict(spec))


def run_report_stage(stage, report, outdir):
    """Run the pipeline's ``stage`` on a given key-firm report; returns the paths it wrote."""
    return run_stage(stage, RunConfig(nodes=None, edges=None, outdir=outdir), {"report": report})


def out_neighbors(adjacency, u):
    """Shareholders of node ``u``."""
    return adjacency.dst[adjacency.out_indptr[u]:adjacency.out_indptr[u + 1]]


def in_neighbors(adjacency, v):
    """Direct subsidiaries of node ``v``."""
    return adjacency.in_sources[adjacency.in_indptr[v]:adjacency.in_indptr[v + 1]]


def row_of(table, node, mnc=0):
    """The table row of affiliate ``node`` of MNC ``mnc``."""
    lo, hi = table.bounds[mnc], table.bounds[mnc + 1]
    row = lo + int(np.searchsorted(table.affiliates[lo:hi], node))
    assert row < hi and table.affiliates[row] == node, f"node {node} is not an affiliate of MNC {mnc}"
    return row


def random_digraph(rng, n, p=0.08):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = [(i, j) for i in range(n) for j in range(n) if mask[i, j]]
    return make_graph(n, edges), mask


@pytest.fixture(scope="session")
def m1_template():
    return toy_m1_template()


@pytest.fixture(scope="session")
def m1_graph(m1_template):
    return template_graph(m1_template)


@pytest.fixture(scope="session")
def m1_view(m1_graph):
    return substantial_view(m1_graph)


@pytest.fixture()
def m1_table(m1_graph, m1_view):
    return subtree_table(m1_view, [m1_graph.index_of("M1:HQ")])


def m1_index(graph, local):
    return graph.index_of(f"M1:{local}")
