"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the scale criterion (9) builds a million-node corpus and takes the
longest.
"""

import json
import resource
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_graph, random_digraph, row_of, template_graph
from test_components import brute_force_bowtie, region_names

from ownet import components as comp
from ownet.community import detect_communities, map_equation, stationary_flow
from ownet.graph import load_graph, substantial_view
from ownet.jurisdiction import ols_regression, tally_by_bowtie
from ownet.keyfirms import (
    ROLE_NAMES,
    Role,
    classify_all,
    conduit_centrality,
    hierarchical_identify,
    holding_centrality,
)
from ownet.mnc import subtree_table
from ownet.netstats import fit_power_law
from ownet.pipeline import RunConfig, run_pipeline, verify_manifest
from ownet.synth import (
    SynthSpec,
    build_corpus,
    random_mnc_template,
    sample_power_law,
    write_corpus,
)


def announce(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:>2} PASS  {description}", flush=True)


def test_01_worked_example_reproduction(m1_graph, m1_view):
    start = time.perf_counter()
    table = subtree_table(m1_view, [m1_graph.index_of("M1:HQ")])
    local = [m1_graph.ids[a].split(":")[1] for a in table.affiliates.tolist()]
    roles = {k: r for k, r in zip(local, hierarchical_identify(table)[3].tolist()) if r != Role.NONE}
    assert roles == {
        "a": Role.HOLDING,
        "b": Role.HOLDING_AND_CONDUIT,
        "e": Role.CONDUIT,
    }

    def aff(local):
        return m1_graph.index_of(f"M1:{local}")

    expected = {
        ("H", "a"): Fraction(7, 6),
        ("H", "b"): Fraction(7, 9),
        ("T", "b"): Fraction(14, 9),
        ("T", "e"): Fraction(7, 6),
        ("H", "e"): Fraction(0),
        ("H", "h"): Fraction(-7, 3),
    }
    centralities = {"H": holding_centrality(table), "T": conduit_centrality(table)}
    for (kind, local), value in expected.items():
        assert abs(centralities[kind][row_of(table, aff(local))] - float(value)) < 1e-12, (kind, local)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"toy worked example exact (six centralities @1e-12, roles match) in {elapsed:.3f}s")


def test_02_sign_law_over_random_subtrees():
    rng = np.random.default_rng(20_02)
    checked = 0
    violations = 0
    subtrees = 0
    while subtrees < 1000:
        template = random_mnc_template(rng, f"SL{subtrees}", n_affiliates=(3, 200))
        graph = template_graph(template)
        view = substantial_view(graph)
        table = subtree_table(view, [graph.index_of(template.global_id("HQ"))])
        subtrees += 1
        if table.mnc_sums(table.k_in)[0] <= 0:
            continue
        holding = holding_centrality(table)
        for pos in range(table.n_affiliates):
            k_in, k_out = int(table.k_in[pos]), int(table.k_out[pos])
            if k_in + k_out == 0:
                continue
            h = holding[pos]
            if (h > 0) != (k_in > k_out):
                violations += 1
            checked += 1
    assert violations == 0
    assert checked > 10_000
    announce(2, f"sign law H>0 <=> k_in>k_out: {checked} affiliates over 1000 subtrees, 0 violations")


def test_03_bowtie_oracle_equivalence():
    rng = np.random.default_rng(20_03)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        g, mask = random_digraph(rng, n, p=float(rng.uniform(0.02, 0.18)))
        got = region_names(comp.bowtie_decompose(g))
        if got != brute_force_bowtie(mask):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0
    announce(3, f"bow-tie equals brute-force closure on 500 digraphs in {elapsed:.2f}s")


def test_04_region_ratio_arithmetic():
    total = 2239 + 1_161_655 + 15_514 + 5_647_891
    got = [
        comp.ratio_percent_3dp(2239, total),
        comp.ratio_percent_3dp(1_161_655, total),
        comp.ratio_percent_3dp(15_514, total),
        comp.ratio_percent_3dp(5_647_891, total),
    ]
    assert got == ["0.033", "17.015", "0.227", "82.725"]
    announce(4, "region ratios format to 0.033 / 17.015 / 0.227 / 82.725 after 3-dp rounding")


def test_05_power_law_recovery():
    targets = (2.44, 3.00, 2.60, 3.16)
    worst_trial = 0.0
    summary = []
    for gamma in targets:
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(hash((gamma, trial)) % (2**63))
            t0 = time.perf_counter()
            samples = sample_power_law(rng, gamma, 1_000_000)
            fit = fit_power_law(samples, x_min=1)
            worst_trial = max(worst_trial, time.perf_counter() - t0)
            if abs(fit.gamma - gamma) <= 0.05:
                hits += 1
        summary.append(f"{gamma}:{hits}/100")
        assert hits >= 95, f"gamma={gamma} recovered only {hits}/100"
    assert worst_trial < 60.0
    announce(5, f"exponent recovery within +-0.05 ({', '.join(summary)}; slowest trial {worst_trial:.2f}s)")


def _two_cliques(size=10):
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(size):
                if i != j:
                    edges.append((base + i, base + j))
    edges.append((0, size))
    return make_graph(2 * size, edges)


def test_06_community_planted_partition():
    g = _two_cliques()
    hits = 0
    for seed in range(100):
        partition = detect_communities(g, seed=seed)
        labels = partition.labels
        ok = (
            partition.n_communities == 2
            and len(set(labels[:10].tolist())) == 1
            and len(set(labels[10:].tolist())) == 1
        )
        hits += ok
    assert hits >= 95

    corpus_graphs = [_two_cliques(6), _two_cliques(10)]
    corpus_graphs.append(make_graph(9, [(i, (i + 1) % 9) for i in range(9)]))
    rng = np.random.default_rng(20_06)
    for _ in range(4):
        corpus_graphs.append(random_digraph(rng, 25, p=0.1)[0])
    for g2 in corpus_graphs:
        partition = detect_communities(g2, seed=1)
        flow = stationary_flow(g2)
        trivial = map_equation(np.zeros(g2.n_nodes, dtype=np.int64), flow)
        assert partition.codelength <= trivial + 1e-9
    announce(6, f"two 10-cliques recovered in {hits}/100 seeds; detected <= trivial on every corpus graph")


def test_07_regression_correctness():
    x = np.arange(10, dtype=float)
    res = ols_regression(x, 2 + 3 * x)
    assert res.r_squared == 1.0
    assert res.intercept == pytest.approx(2.0, abs=1e-12)
    assert res.slope == pytest.approx(3.0, abs=1e-12)

    x = np.array([0.2, 1.1, 1.9, 3.2, 4.1, 5.3, 6.0, 7.7])
    y = np.array([1.1, 0.7, 2.4, 2.0, 3.9, 3.1, 4.8, 5.2])
    res = ols_regression(x, y)
    n = 8
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    resid = y - intercept - slope * x
    s2 = (resid**2).sum() / (n - 2)
    se_slope = np.sqrt(s2 * n / (n * sxx - sx * sx))
    se_int = np.sqrt(s2 * sxx / (n * sxx - sx * sx))
    sst = ((y - y.mean()) ** 2).sum()
    r2 = 1 - (resid**2).sum() / sst
    adj = 1 - (1 - r2) * (n - 1) / (n - 2)
    assert abs(res.slope - slope) < 1e-10
    assert abs(res.intercept - intercept) < 1e-10
    assert abs(res.t_slope - slope / se_slope) < 1e-10
    assert abs(res.t_intercept - intercept / se_int) < 1e-10
    assert abs(res.adj_r_squared - adj) < 1e-10
    announce(7, "perfect-line R^2 = 1; 8-point dataset matches normal-equations oracle @1e-10")


def test_08_planted_corpus_end_to_end(tmp_path):
    spec = SynthSpec(
        seed=20_08, n_noise=4000, noise_edges=5000, n_mncs=50,
        core_size=100, out_chain=15, affiliates_range=(5, 40),
    )
    bundle = build_corpus(spec)
    paths = write_corpus(bundle, tmp_path)
    graph = load_graph(paths["nodes"], paths["edges"])
    view = substantial_view(graph)
    report = classify_all(view, bundle.hq_rows)
    assert report.failures == []
    assert len(report.mncs) == 50

    planted = {"Holding": 0, "HoldingAndConduit": 0, "Conduit": 0}
    for roles in bundle.truth.values():
        for role in roles.values():
            planted[role] += 1
    assert report.tallies == planted
    for name, lo, hi in zip(report.mncs, report.bounds, report.bounds[1:]):
        got = {graph.ids[a]: ROLE_NAMES[r] for a, r in zip(report.affiliates[lo:hi].tolist(),
                                                           report.roles[lo:hi].tolist()) if r != Role.NONE}
        assert got == bundle.truth[name], name

    bowtie = comp.bowtie_decompose(graph)
    regions = tally_by_bowtie(report, bowtie)
    key_total = 0
    for category in ("Holding", "HoldingAndConduit", "Conduit"):
        buckets = regions.get(category, {})
        assert set(buckets) <= {"IN"}, (category, buckets)
        key_total += sum(buckets.values())
    assert key_total == sum(planted.values())
    announce(8, f"50-MNC corpus: tallies equal planted truth {planted}; 100% of key firms in IN")


def test_09_scale_smoke(tmp_path):
    spec = SynthSpec(
        seed=20_09, n_noise=997_000, noise_edges=995_000, n_mncs=50,
        core_size=2000, out_chain=20, affiliates_range=(5, 30),
    )
    bundle = build_corpus(spec)
    paths = write_corpus(bundle, tmp_path / "data")
    n_nodes = len(bundle.node_rows)
    n_edges = len(bundle.edge_rows)
    del bundle

    config = RunConfig(
        nodes=paths["nodes"], edges=paths["edges"], outdir=tmp_path / "out",
        hqs=paths["hqs"], profiles=paths["profiles"],
        stages=("ingest", "bowtie", "stats", "extract", "identify", "jurisdiction"),
    )
    start = time.perf_counter()
    manifest_path = run_pipeline(config)
    elapsed = time.perf_counter() - start

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    data = verify_manifest(manifest_path)
    assert data["status"] == "ok"
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
    announce(
        9,
        f"pipeline (no communities) on {n_nodes:,} nodes / {n_edges:,} edges: "
        f"{elapsed:.1f}s, peak {peak_gb:.2f} GB",
    )


def test_10_pipeline_determinism(tmp_path):
    spec = SynthSpec(seed=20_10, n_noise=800, noise_edges=1000, n_mncs=8, core_size=40, out_chain=8)
    bundle = build_corpus(spec)
    paths = write_corpus(bundle, tmp_path / "data")

    manifests = []
    for sub in ("run1", "run2"):
        config = RunConfig(
            nodes=paths["nodes"], edges=paths["edges"], outdir=tmp_path / sub,
            hqs=paths["hqs"], profiles=paths["profiles"], seed=7,
        )
        manifest_path = run_pipeline(config)
        with open(manifest_path, encoding="utf-8") as handle:
            manifests.append(json.load(handle))
    assert manifests[0] == manifests[1]
    assert manifests[0]["stages"] == manifests[1]["stages"]
    announce(10, "two identical pipeline runs produce byte-identical artifact hashes")
