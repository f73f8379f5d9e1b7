import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ownet
from conftest import spec_to_json
from ownet.cli import main
from ownet.errors import LoadError, PipelineError
from ownet.graph import CACHE_VERSION, load_cache, load_graph, substantial_view
from ownet.pipeline import STAGES, RunConfig, run_pipeline, verify_manifest, write_report
from ownet.synth import SynthSpec, build_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(seed=9, n_noise=400, noise_edges=500, n_mncs=5, core_size=25, out_chain=5)
    bundle = build_corpus(spec)
    paths = write_corpus(bundle, outdir)
    return bundle, paths, outdir


def config_for(paths, outdir, **kw):
    base = dict(
        nodes=paths["nodes"], edges=paths["edges"], outdir=outdir,
        hqs=paths["hqs"], profiles=paths["profiles"],
    )
    base.update(kw)
    return RunConfig(**base)


def lonely_node(paths):
    """A node with no substantial subsidiary: an HQ without affiliates."""
    graph = load_graph(paths["nodes"], paths["edges"])
    return graph.ids[int(np.flatnonzero(np.diff(substantial_view(graph).in_indptr) == 0)[0])]


def csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class TestPipeline:
    def test_full_run_manifest(self, corpus, tmp_path):
        _, paths, _ = corpus
        manifest_path = run_pipeline(config_for(paths, tmp_path / "out"))
        data = verify_manifest(manifest_path)
        assert data["status"] == "ok"
        assert sorted(data["stages"]) == sorted(
            ["ingest", "bowtie", "stats", "communities", "extract", "identify", "jurisdiction"]
        )

    def test_missing_profiles_fails_fast(self, corpus, tmp_path):
        _, paths, _ = corpus
        config = config_for(paths, tmp_path / "out", profiles=tmp_path / "absent.csv")
        with pytest.raises(PipelineError, match="absent.csv"):
            run_pipeline(config)

    def test_stage_subset(self, corpus, tmp_path):
        _, paths, _ = corpus
        config = config_for(paths, tmp_path / "out", stages=("ingest", "bowtie"))
        data = verify_manifest(run_pipeline(config))
        assert sorted(data["stages"]) == ["bowtie", "ingest"]

    def test_deterministic_hashes(self, corpus, tmp_path):
        _, paths, _ = corpus
        a = verify_manifest(run_pipeline(config_for(paths, tmp_path / "a")))
        b = verify_manifest(run_pipeline(config_for(paths, tmp_path / "b")))
        assert a["stages"] == b["stages"]

    def test_report_summary(self, corpus, tmp_path):
        _, paths, _ = corpus
        manifest_path = run_pipeline(config_for(paths, tmp_path / "out"))
        summary = write_report(manifest_path)
        text = summary.read_text()
        assert "bow-tie structure" in text
        assert "key-company tallies" in text

    def test_report_detects_tampering(self, corpus, tmp_path):
        _, paths, _ = corpus
        manifest_path = run_pipeline(config_for(paths, tmp_path / "out"))
        target = tmp_path / "out" / "bowtie_summary.csv"
        target.write_text("tampered\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="hash mismatch"):
            write_report(manifest_path)

    def test_config_json(self, corpus, tmp_path):
        _, paths, _ = corpus
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "nodes": str(paths["nodes"]), "edges": str(paths["edges"]),
                    "hqs": str(paths["hqs"]), "profiles": str(paths["profiles"]),
                    "outdir": str(tmp_path / "out"), "stages": ["ingest", "identify"],
                    "seed": 3,
                }
            ),
            encoding="utf-8",
        )
        config = RunConfig.from_json(config_path)
        assert config.seed == 3
        data = verify_manifest(run_pipeline(config))
        assert "identify" in data["stages"]
        assert data["config"] == {"seed": 3, "stages": ["ingest", "identify"]}

    def test_mnc_without_affiliates(self, corpus, tmp_path):
        _, paths, _ = corpus
        rows = paths["hqs"].read_text(encoding="utf-8").splitlines()
        middle = len(rows) // 2
        lonely = lonely_node(paths)
        rows.insert(middle + 1, f"{lonely},Lonely")
        hqs = tmp_path / "hqs.csv"
        hqs.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        run_pipeline(config_for(paths, out, hqs=hqs, stages=("extract", "identify")))
        graph = load_graph(paths["nodes"], paths["edges"])
        summary = (out / "mnc_summary.csv").read_text(encoding="utf-8").splitlines()
        assert len(summary) == len(rows)
        assert summary[middle + 1] == f"Lonely,{graph.jurisdiction_of(graph.index_of(lonely))},0,0,0,0"
        assert "Lonely" not in {row[0] for row in csv_rows(out / "affiliates.csv")}

    def test_one_subtree_per_mnc(self, corpus, tmp_path, monkeypatch):
        import ownet.mnc

        bundle, paths, _ = corpus
        real = ownet.mnc.subtree_table
        calls = []

        def counted(view, hqs, *args, **kwargs):
            calls.append(list(hqs))
            return real(view, hqs, *args, **kwargs)

        # wrap every binding, so a call through any module is counted once
        for module in list(sys.modules.values()):
            if module.__name__.startswith("ownet") and getattr(module, "subtree_table", None) is real:
                monkeypatch.setattr(module, "subtree_table", counted)
        config = config_for(paths, tmp_path / "out", stages=("extract", "identify"))
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        # one table for both stages, one subtree in it per MNC
        assert len(calls) == 1
        assert len(calls[0]) == len(bundle.hq_rows)
        assert len(set(calls[0])) == len(calls[0])

    def test_one_csr_and_one_weak_labeling(self, corpus, tmp_path, monkeypatch):
        import ownet.components
        import ownet.netstats

        _, paths, _ = corpus
        calls = []
        for owner, name in ((ownet.netstats, "undirected_simple_csr"), (ownet.components, "weak_components")):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            # wrap every binding, so a call through any module is counted once
            for module in list(sys.modules.values()):
                if module.__name__.startswith("ownet") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        config = config_for(paths, tmp_path / "out", stages=("ingest", "bowtie", "stats"))
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        assert sorted(calls) == ["undirected_simple_csr", "weak_components"]
        # the communities stage takes its GWCC from the bow-tie's labelling
        calls.clear()
        config = config_for(paths, tmp_path / "both", stages=("ingest", "bowtie", "communities"))
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        assert calls == ["weak_components"]


    def test_stale_cache_rebuilt(self, corpus, tmp_path, monkeypatch):
        import ownet.pipeline

        _, paths, _ = corpus
        inputs = drop_edge_rows_copy(paths, tmp_path / "data", 0)
        config = config_for(inputs, tmp_path / "out", stages=("ingest",))
        run_pipeline(config)
        before = json.loads((tmp_path / "out" / "ingest_summary.json").read_text(encoding="utf-8"))

        drop_edge_rows_copy(paths, tmp_path / "data", 10)
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        after = json.loads((tmp_path / "out" / "ingest_summary.json").read_text(encoding="utf-8"))
        assert after["edges"] == load_graph(inputs["nodes"], inputs["edges"]).n_edges
        assert after["edges"] == before["edges"] - 10

        # unchanged inputs: the cache is read and not written again
        saves = []
        monkeypatch.setattr(ownet.pipeline, "save_cache", lambda *args: saves.append(args))
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        assert saves == []

    def test_older_cache_version_rebuilt(self, corpus, tmp_path, monkeypatch):
        import ownet.graph

        _, paths, _ = corpus
        config = config_for(paths, tmp_path / "out", stages=("ingest",))
        run_pipeline(config)
        cache = tmp_path / "out" / "graph.npz"
        with np.load(cache) as saved:
            data = dict(saved)
            digests = (saved["nodes_sha256"].item(), saved["edges_sha256"].item())
        data["version"] = np.int64(2)  # an older format, saved from the same inputs
        np.savez(cache, **data)
        old = tmp_path / "old.npz"
        old.write_bytes(cache.read_bytes())

        with pytest.raises(LoadError, match="cache version 2 unsupported"):
            load_cache(old)
        result = CliRunner().invoke(main, ["bowtie", "--graph", str(old), "--out", str(tmp_path / "b")])
        assert result.exit_code == 1
        assert result.stderr == f"bowtie failed: {old}: cache version 2 unsupported (expected 3)\n"
        assert "Traceback" not in result.output

        parses = []
        real = ownet.graph.load_graph
        monkeypatch.setattr(ownet.graph, "load_graph", lambda *args: parses.append(args) or real(*args))
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        assert parses == [(paths["nodes"], paths["edges"])]
        with np.load(cache) as saved:
            assert int(saved["version"]) == CACHE_VERSION == 3
            assert (saved["nodes_sha256"].item(), saved["edges_sha256"].item()) == digests
        assert load_cache(cache).n_edges == load_graph(paths["nodes"], paths["edges"]).n_edges

    def test_failed_stage_leaves_failed_manifest(self, corpus, tmp_path):
        _, paths, _ = corpus
        rows = paths["hqs"].read_text(encoding="utf-8").splitlines()
        hqs = tmp_path / "hqs.csv"
        hqs.write_text("\n".join([*rows, rows[1]]) + "\n", encoding="utf-8")  # the first MNC's name again
        out = tmp_path / "out"
        with pytest.raises(LoadError, match="duplicate mnc_name"):
            run_pipeline(config_for(paths, out, hqs=hqs, stages=("ingest", "bowtie", "extract", "identify")))
        data = verify_manifest(out / "manifest.json")
        assert data["status"] == "failed"
        assert sorted(data["stages"]) == ["bowtie", "ingest"]

    def test_unexpected_error_is_stage_failure(self, corpus, tmp_path, monkeypatch):
        import ownet.pipeline

        _, paths, _ = corpus

        def broken(config, outdir, state):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(ownet.pipeline._STAGE_FUNCS, "bowtie", broken)
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match="^stage failure: disk on fire$") as info:
            run_pipeline(config_for(paths, out, stages=("ingest", "bowtie", "stats")))
        assert isinstance(info.value.__cause__, RuntimeError)
        data = verify_manifest(out / "manifest.json")
        assert data["status"] == "failed"
        assert list(data["stages"]) == ["ingest"]

    def test_rebuild_cache_option_rejected(self, corpus, tmp_path):
        _, paths, _ = corpus
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"nodes": str(paths["nodes"]), "edges": str(paths["edges"]),
                        "outdir": str(tmp_path / "out"), "rebuild_cache": True}),
            encoding="utf-8",
        )
        with pytest.raises(PipelineError, match="bad config"):
            RunConfig.from_json(config_path)


def drop_edge_rows_copy(paths, outdir, n_dropped):
    """Copy the node and edge CSVs into ``outdir``, without the last ``n_dropped`` edge rows."""
    outdir.mkdir(exist_ok=True)
    lines = paths["edges"].read_text(encoding="utf-8").splitlines(keepends=True)
    (outdir / "edges.csv").write_text("".join(lines[: len(lines) - n_dropped]), encoding="utf-8")
    (outdir / "nodes.csv").write_text(paths["nodes"].read_text(encoding="utf-8"), encoding="utf-8")
    return dict(paths, nodes=outdir / "nodes.csv", edges=outdir / "edges.csv")


class TestCli:
    def test_synth_and_run(self, tmp_path):
        runner = CliRunner()
        spec = SynthSpec(seed=2, n_noise=200, noise_edges=250, n_mncs=3, core_size=20, out_chain=4)
        spec_path = tmp_path / "spec.json"
        spec_to_json(spec, spec_path)
        result = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output

        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "nodes": str(tmp_path / "data" / "nodes.csv"),
                    "edges": str(tmp_path / "data" / "edges.csv"),
                    "hqs": str(tmp_path / "data" / "hqs.csv"),
                    "profiles": str(tmp_path / "data" / "profiles.csv"),
                    "outdir": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "manifest.json").exists()

        result = runner.invoke(main, ["report", "--manifest", str(tmp_path / "out" / "manifest.json")])
        assert result.exit_code == 0, result.output
        assert "pipeline status: ok" in result.output

    def test_ingest_out_defaults_to_working_directory(self, tmp_path, monkeypatch):
        runner = CliRunner()
        spec = SynthSpec(seed=3, n_noise=100, noise_edges=120, n_mncs=2, core_size=10, out_chain=2)
        bundle = build_corpus(spec)
        paths = write_corpus(bundle, tmp_path / "data")
        monkeypatch.chdir(tmp_path)
        args = ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"])]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "graph.npz").exists() and (tmp_path / "ingest_summary.json").exists()
        # a second call from the same inputs leaves the cache alone
        result = runner.invoke(main, args)
        assert "cache exists: graph.npz" in result.output
        # --graph names the one file it reads: from another directory graph.npz is missing, and no
        # directory named in the environment (as OWNET_CACHE_DIR once was) is searched for it
        monkeypatch.chdir(tmp_path / "data")
        monkeypatch.setenv("OWNET_CACHE_DIR", str(tmp_path))
        result = runner.invoke(main, ["bowtie", "--graph", "graph.npz", "--out", "bt"])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("bowtie failed: graph.npz: "), result.stderr
        assert not (tmp_path / "data" / "bt").exists()

    def test_ingest_rebuilds_stale_cache(self, corpus, tmp_path):
        _, paths, _ = corpus
        runner = CliRunner()
        inputs = drop_edge_rows_copy(paths, tmp_path / "data", 0)
        args = ["ingest", "--nodes", str(inputs["nodes"]), "--edges", str(inputs["edges"]),
                "--out", str(tmp_path / "graph.npz")]
        assert runner.invoke(main, args).exit_code == 0
        drop_edge_rows_copy(paths, tmp_path / "data", 10)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        edges = load_graph(inputs["nodes"], inputs["edges"]).n_edges
        assert f"edges={edges} " in result.output
        assert "cache written" in result.output
        assert load_cache(tmp_path / "graph.npz").n_edges == edges

    def test_suffixless_cache_is_the_named_file(self, corpus, tmp_path, monkeypatch):
        # np.savez appends ".npz" to a path without it: the cache must still land under the name given
        import ownet.pipeline

        _, paths, _ = corpus
        runner = CliRunner()
        cache = tmp_path / "g.cache"
        args = ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]), "--out", str(cache)]
        assert f"cache written: {cache}\n" in runner.invoke(main, args).output
        assert runner.invoke(main, args).output.startswith(f"cache exists: {cache}")
        result = runner.invoke(main, ["bowtie", "--graph", str(cache), "--out", str(tmp_path / "bt")])
        assert result.exit_code == 0, result.output

        config = config_for(paths, tmp_path / "o", cache=tmp_path / "o" / "g.cache", stages=("ingest",))
        assert "g.cache" in verify_manifest(run_pipeline(config))["stages"]["ingest"]["artifacts"]
        saves = []
        monkeypatch.setattr(ownet.pipeline, "save_cache", lambda *args: saves.append(args))
        assert verify_manifest(run_pipeline(config))["status"] == "ok" and saves == []  # the cache was reused
        assert not list(tmp_path.glob("**/*.npz"))

    def test_run_missing_input_nonzero_exit(self, tmp_path):
        runner = CliRunner()
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "nodes": str(tmp_path / "nope.csv"), "edges": str(tmp_path / "nope2.csv"),
                    "outdir": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "nope.csv" in result.output

    def test_bowtie_and_distances_commands(self, tmp_path):
        runner = CliRunner()
        spec = SynthSpec(seed=4, n_noise=150, noise_edges=200, n_mncs=2, core_size=15, out_chain=3)
        bundle = build_corpus(spec)
        paths = write_corpus(bundle, tmp_path / "data")
        result = runner.invoke(
            main,
            ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
             "--out", str(tmp_path / "g.npz")],
        )
        assert result.exit_code == 0, result.output

        bowtie = tmp_path / "bowtie"
        result = runner.invoke(main, ["bowtie", "--graph", str(tmp_path / "g.npz"), "--out", str(bowtie)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in bowtie.iterdir()) == [
            "bowtie.csv", "bowtie_summary.csv", "component_sizes.csv", "distances_in.csv", "distances_out.csv",
        ]
        header = (bowtie / "bowtie.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "node_id,region"
        for direction in ("in", "out"):
            header = (bowtie / f"distances_{direction}.csv").read_text(encoding="utf-8").splitlines()[0]
            assert header == "distance,count,ratio"

    def test_subcommands_are_stages(self):
        # every subcommand but synth, run and report runs one pipeline stage
        assert set(main.commands) == set(STAGES) | {"synth", "run", "report"}
        result = CliRunner().invoke(main, ["distances", "--graph", "g.npz", "--direction", "in"])
        assert result.exit_code == 2
        assert "No such command" in result.output

    def test_empty_hq_list_emits_zero_row_tables(self, tmp_path):
        runner = CliRunner()
        spec = SynthSpec(seed=8, n_noise=120, noise_edges=150, n_mncs=2, core_size=12, out_chain=3)
        bundle = build_corpus(spec)
        paths = write_corpus(bundle, tmp_path / "data")
        runner.invoke(
            main,
            ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
             "--out", str(tmp_path / "g.npz")],
        )
        empty = tmp_path / "hqs.csv"
        empty.write_text("hq_node_id,mnc_name\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["jurisdiction", "--graph", str(tmp_path / "g.npz"), "--hqs", str(empty),
             "--profiles", str(paths["profiles"]), "--out", str(tmp_path / "rep")],
        )
        assert result.exit_code == 0, result.output
        for tally in ("hq", "holding", "affiliates"):
            rows = (tmp_path / "rep" / "reports" / "tallies" / f"{tally}.csv").read_text(encoding="utf-8")
            assert rows.splitlines() == ["code,count,percent"], tally
        hq_tables = json.loads((tmp_path / "rep" / "reports" / "hq_tables.json").read_text(encoding="utf-8"))
        assert hq_tables == {"by_role": {}, "locations": {}}

    def test_identify_then_jurisdiction(self, tmp_path):
        runner = CliRunner()
        spec = SynthSpec(seed=6, n_noise=150, noise_edges=200, n_mncs=4, core_size=15, out_chain=3)
        bundle = build_corpus(spec)
        paths = write_corpus(bundle, tmp_path / "data")
        runner.invoke(
            main,
            ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
             "--out", str(tmp_path / "g.npz")],
        )
        result = runner.invoke(
            main,
            ["identify", "--graph", str(tmp_path / "g.npz"), "--hqs", str(paths["hqs"]),
             "--out", str(tmp_path / "id")],
        )
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (tmp_path / "id").iterdir()) == [
            "identify_summary.json", "keyfirms.csv", "mnc_summary.csv",
        ]
        result = runner.invoke(
            main,
            ["jurisdiction", "--graph", str(tmp_path / "g.npz"),
             "--profiles", str(paths["profiles"]), "--hqs", str(paths["hqs"]),
             "--out", str(tmp_path / "rep")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rep" / "reports" / "sink.csv").exists()
        assert (tmp_path / "rep" / "reports" / "regression.json").exists()

        # value mode: a value of 1 on every substantial edge gives the link-count scores, other values do not
        view = substantial_view(load_graph(paths["nodes"], paths["edges"]))
        ids, edges = view.graph.ids, list(zip(view.src.tolist(), view.dst.tolist()))
        for weights, same in ((lambda i: 1, True), (lambda i: 1 + 2 * (i % 2), False)):
            values = tmp_path / "values.csv"
            values.write_text("subsidiary_id,shareholder_id,value\n" + "".join(
                f"{ids[s]},{ids[d]},{weights(i)}\n" for i, (s, d) in enumerate(edges)), encoding="utf-8")
            result = runner.invoke(
                main,
                ["jurisdiction", "--graph", str(tmp_path / "g.npz"),
                 "--hqs", str(paths["hqs"]), "--profiles", str(paths["profiles"]),
                 "--values", str(values), "--out", str(tmp_path / "valued")],
            )
            assert result.exit_code == 0, result.output
            valued = (tmp_path / "valued" / "reports" / "sink.csv").read_bytes()
            assert (valued == (tmp_path / "rep" / "reports" / "sink.csv").read_bytes()) is same


    def test_global_degrees_flag_removed(self, corpus, tmp_path):
        _, paths, _ = corpus
        runner = CliRunner()
        graph = str(tmp_path / "g.npz")
        assert runner.invoke(main, ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
                                    "--out", graph]).exit_code == 0
        args = ["identify", "--graph", graph, "--hqs", str(paths["hqs"]), "--out", str(tmp_path / "k")]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, args + ["--global-degrees"])
        assert result.exit_code == 2
        assert "No such option '--global-degrees'" in result.output

    def test_keyfirms_option_removed(self, corpus, tmp_path):
        # the jurisdiction stage classifies from --hqs; it reads no keyfirms.csv
        _, paths, _ = corpus
        keyfirms = tmp_path / "keyfirms.csv"
        keyfirms.write_text("mnc,affiliate_id,layer,k_in,k_out,H,T,third_country,role\n", encoding="utf-8")
        result = CliRunner().invoke(main, [
            "jurisdiction", "--graph", str(tmp_path / "g.npz"), "--keyfirms", str(keyfirms),
            "--hqs", str(paths["hqs"]), "--profiles", str(paths["profiles"]), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert "No such option '--keyfirms'" in result.output
        assert not (tmp_path / "rep").exists()

    def test_stage_options_are_config_inputs(self):
        # a stage subcommand takes the cache, its output directory and RunConfig
        # fields only: it has no input that `ownet run` lacks
        allowed = {field.name for field in dataclasses.fields(RunConfig)} | {"graph_path", "outdir"}
        for stage in STAGES:
            names = {param.name for param in main.commands[stage].params}
            assert names <= allowed, (stage, sorted(names - allowed))


class TestCliMatchesPipeline:
    def test_artifacts_byte_identical(self, corpus, tmp_path):
        bundle, paths, _ = corpus
        # one unknown HQ: the pipeline and the CLI must skip the same MNC;
        # one MNC with no affiliates: both must count its HQ
        hqs = tmp_path / "hqs.csv"
        hqs.write_text(paths["hqs"].read_text(encoding="utf-8") + f"{lonely_node(paths)},Lonely\nghost,Ghost\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        data = verify_manifest(run_pipeline(config_for(paths, out, hqs=hqs)))
        assert list(data["stages"]["extract"]["artifacts"]) == ["affiliates.csv"]

        runner = CliRunner()
        graph = ["--graph", str(out / "graph.npz")]
        # each subcommand writes into a fresh directory
        options = {
            "ingest": ["--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
                       "--out", str(tmp_path / "ingest" / "graph.npz")],
            "bowtie": graph,
            "stats": graph,
            "communities": graph,
            "extract": [*graph, "--hqs", str(hqs)],
            "identify": [*graph, "--hqs", str(hqs)],
            "jurisdiction": [*graph, "--hqs", str(hqs), "--profiles", str(paths["profiles"])],
        }
        assert list(options) == list(STAGES)
        skipped = {"extract": "skipping Ghost: ", "identify": "failed Ghost: ", "jurisdiction": "failed Ghost: "}
        for stage, args in options.items():
            cli = tmp_path / stage
            if stage != "ingest":  # ingest's --out names the cache file
                args = [*args, "--out", str(cli)]
            result = runner.invoke(main, [stage, *args])
            assert result.exit_code == 0, result.output
            assert skipped.get(stage, "") in result.stderr
            written = sorted(str(p.relative_to(cli)) for p in cli.rglob("*") if p.is_file())
            expected = sorted(data["stages"][stage]["artifacts"])
            if stage == "jurisdiction":
                # the stage tallies bow-tie regions only over a bow-tie computed in the same run
                expected.remove("reports/tallies/bowtie_regions.csv")
            assert written == expected, stage
            for rel in written:
                assert (cli / rel).read_bytes() == (out / rel).read_bytes(), rel

        # affiliates.csv is the first five columns of keyfirms.csv, row for row; the unknown
        # Ghost gets no row, and neither does Lonely, which has no affiliates
        affiliates, keyfirms = csv_rows(out / "affiliates.csv"), csv_rows(out / "keyfirms.csv")
        assert affiliates == [row[:5] for row in keyfirms]
        assert affiliates[0] == ["mnc", "affiliate_id", "layer", "k_in", "k_out"]
        assert {row[0] for row in affiliates[1:]} == {name for _, name in bundle.hq_rows}

    def test_value_mode_reports_byte_identical(self, corpus, tmp_path):
        # the value file is a run input: `ownet run` with `values` in its config (a path
        # relative to the config file) writes the reports of `ownet jurisdiction --values`
        _, paths, _ = corpus
        view = substantial_view(load_graph(paths["nodes"], paths["edges"]))
        ids, edges = view.graph.ids, list(zip(view.src.tolist(), view.dst.tolist()))
        config_dir = tmp_path / "config"
        config_dir.mkdir()
        (config_dir / "values.csv").write_text("subsidiary_id,shareholder_id,value\n" + "".join(
            f"{ids[s]},{ids[d]},{1 + 2 * (i % 3)}\n" for i, (s, d) in enumerate(edges)), encoding="utf-8")
        out = tmp_path / "out"
        config_path = config_dir / "config.json"
        config_path.write_text(json.dumps({
            "nodes": str(paths["nodes"]), "edges": str(paths["edges"]), "hqs": str(paths["hqs"]),
            "profiles": str(paths["profiles"]), "values": "values.csv", "outdir": str(out),
            "stages": ["ingest", "jurisdiction"],
        }), encoding="utf-8")
        assert RunConfig.from_json(config_path).values == config_dir / "values.csv"

        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
        data = verify_manifest(out / "manifest.json")
        assert data["config"] == {"seed": 0, "stages": ["ingest", "jurisdiction"]}
        modes = {}
        for mode, extra in (("valued", ["--values", str(config_dir / "values.csv")]), ("links", [])):
            result = runner.invoke(main, [
                "jurisdiction", "--graph", str(out / "graph.npz"), "--hqs", str(paths["hqs"]),
                "--profiles", str(paths["profiles"]), *extra, "--out", str(tmp_path / mode)])
            assert result.exit_code == 0, result.output
            reports = tmp_path / mode / "reports"
            modes[mode] = {str(p.relative_to(reports)): p.read_bytes() for p in reports.rglob("*") if p.is_file()}
        run_reports = {rel.removeprefix("reports/"): (out / rel).read_bytes()
                       for rel in data["stages"]["jurisdiction"]["artifacts"]}
        assert run_reports == modes["valued"]
        assert run_reports["sink.csv"] != modes["links"]["sink.csv"]


class TestBadInputs:
    @pytest.mark.parametrize("command, text, reason", [
        ("run", '{"nodes": "n.csv",', "bad config: "),
        ("run", '["nodes.csv"]', "bad config: .*expected a JSON object, got list"),
        ("run", '{"nodes": "n.csv", "edges": "e.csv", "outdir": "out", "communities_scope": "gwcc"}',
         "bad config: .*unexpected keyword argument 'communities_scope'"),
        # the substantial-link threshold, the bin ratio and the damping are constants, not parameters
        ("run", '{"nodes": "n.csv", "edges": "e.csv", "outdir": "out", "threshold": 10.0}',
         "bad config: .*unexpected keyword argument 'threshold'"),
        ("run", '{"nodes": "n.csv", "edges": "e.csv", "outdir": "out", "bin_ratio": 2.0}',
         "bad config: .*unexpected keyword argument 'bin_ratio'"),
        ("run", '{"nodes": "n.csv", "edges": "e.csv", "outdir": "out", "damping": 0.85}',
         "bad config: .*unexpected keyword argument 'damping'"),
        ("synth", '{"seed": 1, "n_nodes": 5}', "bad spec: .*n_nodes"),
        ("synth", '{"target_region": "XX"}', "bad spec: target_region must be IN or TE, got 'XX'"),
        ("synth", '{"target_region": "TE", "out_chain": 0}', "bad spec: out_chain must be >= 1 for a TE target, got 0"),
        ("synth", '{"n_noise": 1.5}', "bad spec: n_noise must be an int, got 1.5"),
        ("synth", '{"seed": true}', "bad spec: seed must be an int, got True"),
        ("synth", '{"seed": -1}', "bad spec: seed must be >= 0, got -1"),
        ("synth", '{"n_noise": -5}', "bad spec: n_noise must be >= 0, got -5"),
        ("synth", '{"noise_edges": -1}', "bad spec: noise_edges must be >= 0, got -1"),
        ("synth", '{"out_chain": -1}', "bad spec: out_chain must be >= 0, got -1"),
        ("synth", '{"core_size": 0}', "bad spec: core_size must be >= 2, got 0"),
        ("synth", '{"n_mncs": 0}', "bad spec: n_mncs must be >= 1, got 0"),
        ("synth", '{"affiliates_range": [5]}', r"bad spec: affiliates_range must be two ints, got \[5\]"),
        ("synth", '{"affiliates_range": [30, 5]}',
         r"bad spec: affiliates_range must be \[lo, hi\] with 0 <= lo <= hi, got \[30, 5\]"),
        ("synth", '{"affiliates_range": [-1, 5]}', "bad spec: affiliates_range must be .* 0 <= lo"),
        # more noise edges than the noise block can wire: a hub takes the shortfall, or edges go missing
        ("synth", '{"n_noise": 2000, "noise_edges": 20000}', "bad spec: noise_edges must be <= 3336 for n_noise 2000, got 20000"),
        ("synth", '{"n_noise": 100, "noise_edges": 1000}', "bad spec: noise_edges must be <= 166 for n_noise 100, got 1000"),
        ("synth", '{"n_noise": 10, "noise_edges": 100}', "bad spec: noise_edges must be <= 16 for n_noise 10, got 100"),
        ("synth", '{"n_noise": 1, "noise_edges": 1}', "bad spec: noise_edges must be <= 0 for n_noise 1, got 1"),
        # the generator's exponents, attachment share, wiring pct range, jurisdiction pool and toy template are fixed
        *(("synth", f'{{"{key}": 1}}', f"bad spec: .*unexpected keyword argument '{key}'")
          for key in ("gamma_in", "gamma_out", "attach_fraction", "include_toy", "noise_pct", "seed_jurisdictions")),
        ("report", '{"stages": {', "bad manifest: .*input.json: Expecting"),
        ("report", '[]', "bad manifest: .*input.json: not a JSON object with 'stages' and 'status'"),
        ("report", '{"stages": ["ingest"], "status": "ok"}', "bad manifest: .*not a JSON object with 'stages'"),
        ("report", '{"stages": {}}', "bad manifest: .*not a JSON object with 'stages' and 'status'"),
        ("report", '{"stages": {"ingest": 1}, "status": "ok"}',
         "bad manifest: .*stage 'ingest' has no 'artifacts' mapping of paths to digests"),
        ("report", '{"stages": {"ingest": {"artifacts": {"graph.npz": 1}}}, "status": "ok"}',
         "bad manifest: .*stage 'ingest' has no 'artifacts' mapping"),
        ("report", '{"stages": {"ingest": {"artifacts": {"/etc/hostname": "x"}}}, "status": "ok"}',
         "bad manifest: .*artifact '/etc/hostname' is outside the manifest's directory"),
        ("report", '{"stages": {"ingest": {"artifacts": {"reports/../../input.json": "x"}}}, "status": "ok"}',
         "bad manifest: .*artifact 'reports/../../input.json' is outside"),
    ])
    def test_bad_json_one_line(self, tmp_path, monkeypatch, command, text, reason):
        monkeypatch.chdir(tmp_path)  # a default output directory, should one be made, lands here
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        option = {"run": "--config", "synth": "--spec", "report": "--manifest"}[command]
        result = CliRunner().invoke(main, [command, option, str(path)])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{command} failed: "), result.stderr
        assert re.search(reason, lines[0]), lines[0]
        assert [p.name for p in tmp_path.iterdir()] == ["input.json"]

    def test_unreadable_cache_one_line(self, corpus, tmp_path):
        _, paths, _ = corpus
        graph = tmp_path / "partial.npz"
        assert CliRunner().invoke(main, ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
                                         "--out", str(graph)]).exit_code == 0
        graph.write_bytes(graph.read_bytes()[:1000])  # a copy cut short
        result = CliRunner().invoke(main, ["bowtie", "--graph", str(graph), "--out", str(tmp_path / "bt")])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert result.stderr == f"bowtie failed: {graph}: not a readable npz archive\n"

    def test_missing_values_file_checked_before_any_stage(self, corpus, tmp_path):
        _, paths, _ = corpus
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "nodes": str(paths["nodes"]), "edges": str(paths["edges"]), "hqs": str(paths["hqs"]),
            "profiles": str(paths["profiles"]), "values": "absent.csv", "outdir": str(out),
        }), encoding="utf-8")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert result.stderr == f"run failed: missing input file: values ({tmp_path / 'absent.csv'})\n"
        assert not out.exists()
        # a run without the jurisdiction stage reads no value file
        config = RunConfig.from_json(config_path)
        config.stages = ("ingest",)
        assert verify_manifest(run_pipeline(config))["status"] == "ok"

    @pytest.mark.parametrize("args", [
        ["identify", "--threshold", "10"], ["stats", "--bin-ratio", "2"], ["communities", "--damping", "0.85"],
    ], ids=lambda args: args[1])
    def test_constant_options_removed(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, [*args, "--graph", "g.npz", "--out", "out"])
        assert result.exit_code == 2
        assert f"No such option '{args[1]}'" in result.output
        assert list(tmp_path.iterdir()) == []

    # the explicit ids keep these rows' test names stable as rows come and go
    @pytest.mark.parametrize("key, value, rule, subcommand", [
        pytest.param("seed", -1, ">= 0", ["communities", "--seed", "-1"], id="seed--1->= 0-subcommand4"),
        # the subcommands' option types reject these before a config is built
        ("seed", "x", "an int", None),
        ("seed", True, "an int", None),
        ("stages", "ingest", "a list of stage names", None),
        pytest.param("stages", ["ingest", 3], "a list of stage names", None,
                     id="stages-value8-a list of stage names-None"),
    ])
    def test_parameters_checked_before_any_stage(self, corpus, tmp_path, key, value, rule, subcommand):
        _, paths, _ = corpus
        runner = CliRunner()
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "nodes": str(paths["nodes"]), "edges": str(paths["edges"]), "hqs": str(paths["hqs"]),
            "profiles": str(paths["profiles"]), "outdir": str(out), key: value,
        }), encoding="utf-8")
        runs = [(["run", "--config", str(config_path)], out)]
        if subcommand is not None:
            graph = str(tmp_path / "g.npz")
            assert runner.invoke(main, ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
                                        "--out", graph]).exit_code == 0
            hqs = ["--hqs", str(paths["hqs"])] if subcommand[0] in ("extract", "identify") else []
            runs.append(([*subcommand, "--graph", graph, *hqs, "--out", str(tmp_path / "cli")], tmp_path / "cli"))
        for args, outdir in runs:
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert result.stderr == f"{args[0]} failed: bad parameter: {key} must be {rule}, got {value!r}\n"
            assert not outdir.exists()

    @pytest.mark.parametrize("change, reason", [
        ({"stages": ["ingest", "pagerank"]}, "unknown stages: ['pagerank']"),
        ({"hqs": None}, "stage inputs incomplete: hqs file not configured"),
        ({"profiles": None, "stages": ["jurisdiction"]}, "stage inputs incomplete: profiles file not configured"),
    ])
    def test_stages_checked_before_any_stage(self, corpus, tmp_path, change, reason):
        _, paths, _ = corpus
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "nodes": str(paths["nodes"]), "edges": str(paths["edges"]), "hqs": str(paths["hqs"]),
            "profiles": str(paths["profiles"]), "outdir": str(out), **change,
        }), encoding="utf-8")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert result.stderr == f"run failed: {reason}\n"
        assert not out.exists()


def test_report_under_ascii_locale(corpus, tmp_path):
    """`ownet report` reads and prints UTF-8 artifacts whatever the locale's encoding."""
    _, paths, _ = corpus
    rows = paths["hqs"].read_text(encoding="utf-8").splitlines()
    hqs = tmp_path / "hqs.csv"
    hqs.write_text("\n".join([rows[0], rows[1].split(",")[0] + ",Zürich", *rows[2:]]) + "\n", encoding="utf-8")
    manifest = run_pipeline(config_for(paths, tmp_path / "out", hqs=hqs, stages=("bowtie", "extract", "identify")))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(ownet.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "ownet.cli", "report", "--manifest", str(manifest)],
                            env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert "Zürich" in (tmp_path / "out" / "report" / "summary.txt").read_text(encoding="utf-8")


_IMPORT_BUDGET = """
import sys
from pathlib import Path


def heavy():
    return sorted(name for name in ("scipy.stats", "scipy.optimize") if name in sys.modules)


import ownet.cli
assert heavy() == [], f"import ownet.cli loads {heavy()}"
from ownet.pipeline import STAGES, RunConfig, run_pipeline
nodes, edges, hqs, profiles, out = map(Path, sys.argv[1:])
inputs = dict(nodes=nodes, edges=edges, hqs=hqs, profiles=profiles)
run_pipeline(RunConfig(outdir=out / "no_stats", stages=tuple(s for s in STAGES if s != "stats"), **inputs))
assert heavy() == [], f"a run without the stats stage loads {heavy()}"
run_pipeline(RunConfig(outdir=out / "all", **inputs))
assert heavy() == ["scipy.optimize"], f"a run with the stats stage loads {heavy()}"
"""


def test_import_budget(corpus, tmp_path):
    """scipy.stats is never loaded, and scipy.optimize only by the stats stage's power-law fit.

    A fresh interpreter is needed: other tests have already imported both in this one.
    """
    _, paths, _ = corpus
    env = dict(os.environ, PYTHONPATH=str(Path(ownet.__file__).parents[1]))
    args = [str(paths[key]) for key in ("nodes", "edges", "hqs", "profiles")] + [str(tmp_path)]
    result = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, *args],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


# sha256 of every artifact of the test-10 corpus run (seed 7), taken with numpy 2.4.6
# and scipy 1.17.1. A declared behaviour change updates these and says so in CHANGES.md.
PINNED_DIGESTS = {
    "affiliates.csv": "047db8324369774dbb70c638a4107a39f88ebba06bf67bc6b21f6672345b7873",
    "bowtie.csv": "a0a78bb0afd7e578f1f45f826488c4ff1c669a89d7ff072e85259bd24b8a3854",
    "bowtie_summary.csv": "3a4843d241e64e521a7ee946143d639f92b8c7a67cc22beaea87774df23e011a",
    "communities.csv": "e105ce47682f137f63a57705ce2f6869057c10674c1b7d9be7e4ce6532ff8ceb",
    "communities_summary.json": "b1490037af96eb7b9dc4c18fb8c871eb88d5375ef5890e619324ae115119f067",
    "component_sizes.csv": "5aaa253e5454eab45e566dcf8849b2b12111162602adb73179d9ea758bf81514",
    "distances_in.csv": "f83538d2c65f83033189b3601baf58d7a259f050b24a0bd179ec0a386be22d3c",
    "distances_out.csv": "50978c97e89b344421a603c34db54bca113c3490a34b8bfc10685a2fc4774328",
    "dsizes.csv": "c1e477ff9848b097952da6dbb84c504799b2b552edd1cb74ff2726596b707ce3",
    "graph.npz": "6bad101e286b0284b9c07bb89d9d1813c1f8d9ee7e4336622d1a2a9bb9c940cd",
    "identify_summary.json": "6c38717c6520c1b12201738f520d34870effd33ab3f7d81cd733b1b1c6ebc2a1",
    "ingest_summary.json": "1dd5304970c5915d3ab63bc682cfe0bbffce57f425c29c764421945b440f271d",
    "keyfirms.csv": "9d892366b402702a603ef6807827987fdcb1acc856442ae8415d860bb6fc522c",
    "mnc_summary.csv": "313453cb8e7a3bbcbff0851e7aeea9851ea749df27e9402ee664f5fb12541051",
    "reports/chains/conduit_CH.csv": "9ae831f2bbc2ea9dc9287c1ee0577062ff4ffdac1b73f8a852822c76e220a6c2",
    "reports/chains/conduit_CN.csv": "3758f9c50da3a0d02bcda121ea37538fa491b9ceb48fd1a66c2eed0bd9ed3a86",
    "reports/chains/conduit_FR.csv": "19b9b0b1a4410dd80df58b66db8852947aebf4ff9ae95828e890697d372f8fc0",
    "reports/chains/hc_AU.csv": "d174293a8c68156a23ff28477974f83c1d88634e6dd84bf1db1640de6139f78a",
    "reports/chains/hc_CA.csv": "0be8d9e2360785186c9b89f7b79929d429709d5c2816b5b7a7713be0e7f2510f",
    "reports/chains/hc_ES.csv": "34ef0119fb0bb461b1ea669b97dd98f8a02e91489ccc7c642004c3aa01b6651d",
    "reports/chains/holding_BM.csv": "07d93e031f173c76194af18902b8abab8cd11cde2df160740780926138057eaf",
    "reports/chains/holding_IE.csv": "b81d948a27c5daaad1f837909b65f9826661b930b036e1650ce825333811c8b5",
    "reports/chains/holding_NL.csv": "da790a46f2860ec12acc812519004d60862c05281f86fb5125cdd3bc8d2023bb",
    "reports/conduit.csv": "f12d9405553c2c8b32eebe10c199699ec08c2ff1b5148ed56f84a7ad13ba3f8e",
    "reports/hq_tables.json": "f9d6dd92bd8bd8a46d4afbaaf7cb4c09665a1160c144eb52910a0c15e6888f1f",
    "reports/regression.json": "8cdd8df155a80f0e9381ea6d757cb358232172fbf8d6b2e8fea9cbee0d6158a0",
    "reports/sink.csv": "027df75507b9006c6ed4065a01ba00f73e9c1f87ddaf5daa241a4e9724375158",
    "reports/tallies/affiliates.csv": "f2a30446c0871485ec508d7c5c59b1250161b6b347501489ba8610201146b68b",
    "reports/tallies/bowtie_regions.csv": "39649e2c2a27a39fdec6f8e6c9bbb0db231540dd3b78e67165420c1b612415f1",
    "reports/tallies/conduit.csv": "7888c1d99ad988c602be6255c930ea8721fceeddf3eaabd408440e2fdb4df9f2",
    "reports/tallies/hc.csv": "41d515c7306ed69f127604cfbeb22bb99acb2276a1a8856df7c6e6853a69a3da",
    "reports/tallies/holding.csv": "71407be166a48790ba84c220bed7bce7fcaa8f66c98f8c6a491e29f2303c675b",
    "reports/tallies/hq.csv": "a351a1cc5ece5644d28b574d2dc9c570f1bee93a90b7112dca2ef2f97d2c491d",
    "stats/ck.csv": "b5dca410224f9cd9a493821c82e3d65a4ba2e122960f719afc802793f1fd464e",
    "stats/fits.json": "dc56774f332f0c1ab1ff7b422705714fb3f1a42312fcefc766bac1568a8e1fd5",
    "stats/knn.csv": "46342dfa057c5cb488e345fe4191a0040ed9d4923f6049bcd7de4d4d16b0f647",
    "stats/pk_in.csv": "2b5a1879f9d4bda7774009ab1fb1c39dad8a4fdfde47c2f65741c193d4be8abc",
    "stats/pk_out.csv": "95071b6efa7e3322b5e31c1846de6fac98a07b8a23004df1557d235a9a471b3c",
}


class TestPinnedDigests:
    def test_determinism_corpus_digests(self, tmp_path):
        spec = SynthSpec(seed=20_10, n_noise=800, noise_edges=1000, n_mncs=8, core_size=40, out_chain=8)
        paths = write_corpus(build_corpus(spec), tmp_path / "data")
        data = verify_manifest(run_pipeline(config_for(paths, tmp_path / "out", seed=7)))
        digests = {rel: digest for entry in data["stages"].values() for rel, digest in entry["artifacts"].items()}
        assert sorted(digests) == sorted(PINNED_DIGESTS)
        changed = sorted(rel for rel, digest in digests.items() if PINNED_DIGESTS[rel] != digest)
        assert changed == []
