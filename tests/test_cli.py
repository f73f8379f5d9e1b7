import json
import sys

import pytest
from click.testing import CliRunner

from ownet.cli import main
from ownet.errors import PipelineError
from ownet.graph import load_cache, load_graph
from ownet.pipeline import RunConfig, run_pipeline, verify_manifest, write_report
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

    def test_one_subtree_per_mnc(self, corpus, tmp_path, monkeypatch):
        import ownet.mnc

        bundle, paths, _ = corpus
        real = ownet.mnc.build_subtree
        hqs = []

        def counted(view, hq, *args, **kwargs):
            hqs.append(hq)
            return real(view, hq, *args, **kwargs)

        # wrap every binding, so a call through any module is counted once
        for module in list(sys.modules.values()):
            if module.__name__.startswith("ownet") and getattr(module, "build_subtree", None) is real:
                monkeypatch.setattr(module, "build_subtree", counted)
        config = config_for(paths, tmp_path / "out", stages=("extract", "identify"))
        assert verify_manifest(run_pipeline(config))["status"] == "ok"
        assert len(hqs) == len(bundle.hq_rows)
        assert len(set(hqs)) == len(hqs)

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
        spec.to_json(spec_path)
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

    def test_cache_dir_env_default(self, tmp_path, monkeypatch):
        runner = CliRunner()
        spec = SynthSpec(seed=3, n_noise=100, noise_edges=120, n_mncs=2, core_size=10, out_chain=2)
        bundle = build_corpus(spec)
        paths = write_corpus(bundle, tmp_path / "data")
        monkeypatch.setenv("OWNET_CACHE_DIR", str(tmp_path / "cache"))
        (tmp_path / "cache").mkdir()
        result = runner.invoke(
            main, ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"])]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "cache" / "graph.npz").exists()
        # second call without --rebuild leaves the cache alone
        result = runner.invoke(
            main, ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"])]
        )
        assert "cache exists" in result.output

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

        result = runner.invoke(
            main,
            ["bowtie", "--graph", str(tmp_path / "g.npz"), "--out", str(tmp_path / "bowtie.csv"),
             "--summary", str(tmp_path / "summary.csv")],
        )
        assert result.exit_code == 0, result.output
        header = (tmp_path / "bowtie.csv").read_text().splitlines()[0]
        assert header == "node_id,region"

        result = runner.invoke(
            main,
            ["distances", "--graph", str(tmp_path / "g.npz"), "--direction", "in",
             "--out", str(tmp_path / "din.csv")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "din.csv").read_text().splitlines()[0] == "distance,count,ratio"

    def test_empty_keyfirms_emits_zero_row_tables(self, tmp_path):
        runner = CliRunner()
        spec = SynthSpec(seed=8, n_noise=120, noise_edges=150, n_mncs=2, core_size=12, out_chain=3)
        bundle = build_corpus(spec)
        paths = write_corpus(bundle, tmp_path / "data")
        runner.invoke(
            main,
            ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
             "--out", str(tmp_path / "g.npz")],
        )
        empty = tmp_path / "keyfirms.csv"
        empty.write_text("mnc,affiliate_id,layer,k_in,k_out,H,T,third_country,role\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["jurisdiction", "--graph", str(tmp_path / "g.npz"), "--keyfirms", str(empty),
             "--profiles", str(paths["profiles"]), "--out", str(tmp_path / "rep")],
        )
        assert result.exit_code == 0, result.output
        holding = (tmp_path / "rep" / "reports" / "tallies" / "holding.csv").read_text()
        assert holding.splitlines() == ["code,count,percent"]

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
             "--out", str(tmp_path / "keyfirms.csv")],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            ["jurisdiction", "--graph", str(tmp_path / "g.npz"),
             "--keyfirms", str(tmp_path / "keyfirms.csv"),
             "--profiles", str(paths["profiles"]), "--hqs", str(paths["hqs"]),
             "--out", str(tmp_path / "rep")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rep" / "reports" / "sink.csv").exists()
        assert (tmp_path / "rep" / "reports" / "regression.json").exists()


    def test_global_degrees_flag_removed(self, corpus, tmp_path):
        _, paths, _ = corpus
        runner = CliRunner()
        graph = str(tmp_path / "g.npz")
        assert runner.invoke(main, ["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
                                    "--out", graph]).exit_code == 0
        args = ["identify", "--graph", graph, "--hqs", str(paths["hqs"]), "--out", str(tmp_path / "k.csv")]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, args + ["--global-degrees"])
        assert result.exit_code == 2
        assert "No such option '--global-degrees'" in result.output


class TestCliMatchesPipeline:
    def test_artifacts_byte_identical(self, corpus, tmp_path):
        bundle, paths, _ = corpus
        # one unknown HQ: the pipeline and the CLI must skip the same MNC
        hqs = tmp_path / "hqs.csv"
        hqs.write_text(paths["hqs"].read_text(encoding="utf-8") + "ghost,Ghost\n", encoding="utf-8")
        out = tmp_path / "out"
        config = config_for(paths, out, hqs=hqs,
                            stages=("ingest", "bowtie", "stats", "communities", "extract", "identify"))
        data = verify_manifest(run_pipeline(config))
        assert len(data["stages"]["extract"]["artifacts"]) == len(bundle.hq_rows)

        runner = CliRunner()
        graph = str(out / "graph.npz")
        cli = tmp_path / "cli"
        commands = [
            ["extract", "--graph", graph, "--hqs", str(hqs), "--out", str(cli / "mnc")],
            ["identify", "--graph", graph, "--hqs", str(hqs), "--out", str(cli / "keyfirms.csv")],
            ["bowtie", "--graph", graph, "--out", str(cli / "bowtie.csv"),
             "--summary", str(cli / "bowtie_summary.csv")],
            ["distances", "--graph", graph, "--direction", "in", "--out", str(cli / "distances_in.csv")],
            ["communities", "--graph", graph, "--out", str(cli / "communities.csv")],
            ["stats", "--graph", graph, "--out", str(cli)],
        ]
        skipped = {"extract": "skipping Ghost: ", "identify": "failed Ghost: "}
        cli.mkdir()
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert skipped.get(args[0], "") in result.stderr

        names = sorted(p.name for p in (out / "mnc").iterdir())
        assert names == sorted(p.name for p in (cli / "mnc").iterdir())
        assert len(names) == len(bundle.hq_rows)
        compared = [f"mnc/{name}" for name in names] + [
            "keyfirms.csv", "bowtie.csv", "bowtie_summary.csv", "distances_in.csv",
            "communities.csv", "dsizes.csv",
        ] + [f"stats/{name}" for name in ("pk_in.csv", "pk_out.csv", "ck.csv", "knn.csv", "fits.json")]
        for rel in compared:
            assert (cli / rel).read_bytes() == (out / rel).read_bytes(), rel
