import hashlib

import numpy as np
import pytest
from scipy.special import zeta

from conftest import spec_to_json, template_graph
from ownet.errors import GraphError, LoadError
from ownet.graph import load_graph, substantial_view
from ownet.keyfirms import ROLE_NAMES, Role, classify_all, hierarchical_identify
from ownet.mnc import subtree_table
from ownet.netstats import fit_power_law
from ownet.synth import (
    SynthSpec,
    build_corpus,
    evaluate_template_roles,
    generate_scale_free,
    random_mnc_template,
    sample_power_law,
    toy_m1_template,
    write_corpus,
)


class TestSampler:
    def test_matches_zeta_masses(self):
        rng = np.random.default_rng(0)
        gamma = 2.5
        samples = sample_power_law(rng, gamma, 400_000)
        z = zeta(gamma, 1)
        for x in (1, 2, 5):
            expect = x ** (-gamma) / z
            got = float((samples == x).mean())
            assert got == pytest.approx(expect, rel=0.02)

    def test_min_value(self):
        rng = np.random.default_rng(1)
        samples = sample_power_law(rng, 3.0, 10_000, x_min=4)
        assert samples.min() >= 4

    def test_invalid_gamma(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sample_power_law(rng, 1.0, 10)


class TestScaleFree:
    def test_single_node_empty(self):
        src, dst = generate_scale_free(1, 2.5, 3.0, target_edges=5, seed=0)
        assert src.size == 0 and dst.size == 0

    def test_no_self_loops_or_duplicates(self):
        src, dst = generate_scale_free(5_000, 2.5, 3.0, seed=1, target_edges=6_000)
        assert (src != dst).all()
        keys = src.astype(np.int64) * 5_000 + dst
        assert np.unique(keys).size == keys.size

    def test_exponent_recovery_quick(self):
        src, dst = generate_scale_free(200_000, 2.44, 3.0, seed=2, target_edges=250_000)
        k_in = np.bincount(dst, minlength=200_000)
        fit = fit_power_law(k_in, x_min=1)
        assert abs(fit.gamma - 2.44) < 0.05

    def test_deterministic(self):
        a = generate_scale_free(2_000, 2.6, 3.1, seed=7, target_edges=2_500)
        b = generate_scale_free(2_000, 2.6, 3.1, seed=7, target_edges=2_500)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTemplates:
    def test_builtin_truth(self):
        template = toy_m1_template()
        assert template.roles == {"a": "Holding", "b": "HoldingAndConduit", "e": "Conduit"}

    def test_single_jurisdiction_truth_empty(self):
        template = toy_m1_template()
        template.jurisdictions = {k: "JP" for k in template.jurisdictions}
        assert evaluate_template_roles(template) == {}

    def test_disconnected_template_rejected(self):
        template = toy_m1_template()
        template.jurisdictions["zz"] = "US"  # node with no path to HQ
        with pytest.raises(GraphError, match="reach HQ"):
            evaluate_template_roles(template)

    def test_hundred_random_templates_match_identify(self):
        rng = np.random.default_rng(3)
        for i in range(100):
            template = random_mnc_template(rng, f"R{i}")
            graph = template_graph(template)
            view = substantial_view(graph)
            table = subtree_table(view, [graph.index_of(template.global_id("HQ"))])
            got = {
                graph.ids[a].split(":", 1)[1]: ROLE_NAMES[r]
                for a, r in zip(table.affiliates.tolist(), hierarchical_identify(table)[3].tolist())
                if r != Role.NONE
            }
            assert got == template.roles, f"template {i} diverged"


class TestCorpus:
    def spec(self, **kw):
        base = dict(seed=5, n_noise=500, noise_edges=600, n_mncs=6, core_size=30, out_chain=6)
        base.update(kw)
        return SynthSpec(**base)

    # sha256 of every file write_corpus writes for self.spec() in each target region. Any change in
    # the order or the number of random draws moves them; a declared corpus change updates them.
    PINNED_CORPORA = {
        "IN": {
            "nodes": "ae1b37863f9039de70e155ea93f22e44a59eab140a9aa24fbcc586347ca96b3b",
            "edges": "35e37574fdeba544c056394d27181d31569fa65ab587a358d6e71a7fcf99d9e3",
            "hqs": "cd28dde4c413370070765c01dcdac10af20db5b746419b85e9c08be6fec67a9a",
            "profiles": "6222f4f3043ed9b772b6907fa3a9002a57ebf0fd49f27fc5d9263e91ffca665a",
            "truth": "e5d2fdaadacfe401afe29699f97c25643b2420655c2b23e0cb01cafe71788fc9",
        },
        "TE": {
            "nodes": "ae1b37863f9039de70e155ea93f22e44a59eab140a9aa24fbcc586347ca96b3b",
            "edges": "3ff77396965be0cc5e49024c29519d9e3222154a2542e64ebf3daa9b1914c577",
            "hqs": "cd28dde4c413370070765c01dcdac10af20db5b746419b85e9c08be6fec67a9a",
            "profiles": "6222f4f3043ed9b772b6907fa3a9002a57ebf0fd49f27fc5d9263e91ffca665a",
            "truth": "b592f2934bcb6375261a36694028ccbc4c3012bda5a791985e1c684df3923bcd",
        },
    }

    @pytest.mark.parametrize("region", sorted(PINNED_CORPORA))
    def test_pinned_corpus_digests(self, tmp_path, region):
        paths = write_corpus(build_corpus(self.spec(target_region=region)), tmp_path)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert digests == self.PINNED_CORPORA[region]

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            write_corpus(build_corpus(self.spec()), tmp_path / sub)
        for name in ("nodes.csv", "edges.csv", "hqs.csv", "profiles.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_ingests_without_warnings(self, tmp_path):
        paths = write_corpus(build_corpus(self.spec()), tmp_path)
        graph = load_graph(paths["nodes"], paths["edges"])
        assert graph.ingest_counters == {"self_loops_dropped": 0, "blank_pct": 0}

    def test_classification_matches_truth(self, tmp_path):
        bundle = build_corpus(self.spec(n_mncs=12))
        paths = write_corpus(bundle, tmp_path)
        graph = load_graph(paths["nodes"], paths["edges"])
        view = substantial_view(graph)
        report = classify_all(view, bundle.hq_rows)
        assert report.failures == []
        for name, lo, hi in zip(report.mncs, report.bounds, report.bounds[1:]):
            got = {graph.ids[a]: ROLE_NAMES[r] for a, r in zip(report.affiliates[lo:hi].tolist(),
                                                               report.roles[lo:hi].tolist()) if r != Role.NONE}
            assert got == bundle.truth[name]

    def test_te_targeting(self, tmp_path):
        from ownet import components as comp
        from ownet.jurisdiction import tally_by_bowtie

        bundle = build_corpus(self.spec(target_region="TE"))
        paths = write_corpus(bundle, tmp_path)
        graph = load_graph(paths["nodes"], paths["edges"])
        view = substantial_view(graph)
        report = classify_all(view, bundle.hq_rows)
        bowtie = comp.bowtie_decompose(graph)
        regions = tally_by_bowtie(report, bowtie)
        for category, buckets in regions.items():
            assert set(buckets) == {"TE"}, (category, buckets)

    def test_spec_json_roundtrip(self, tmp_path):
        spec = self.spec(target_region="IN")
        path = tmp_path / "spec.json"
        spec_to_json(spec, path)
        back = SynthSpec.from_json(path)
        assert back == spec

    def test_bad_region_rejected(self, tmp_path):
        spec = self.spec()
        spec.target_region = "GSCC"
        path = tmp_path / "spec.json"
        spec_to_json(spec, path)
        with pytest.raises(LoadError, match="target_region must be IN or TE"):
            SynthSpec.from_json(path)
