"""Command-line front end: `ownet <subcommand>`."""

from __future__ import annotations

from pathlib import Path

import click

from . import pipeline as pl
from .errors import OwnetError
from .graph import load_cache
from .synth import SynthSpec, build_corpus, write_corpus


class _Group(click.Group):
    """Ends a subcommand that raises :class:`OwnetError` with one ``<command> failed: <reason>`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OwnetError as exc:
            click.echo(f"{ctx.invoked_subcommand} failed: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Group)
def main():
    """Ownership-network analytics pipeline."""


@main.command()
@click.option("--nodes", required=True, type=click.Path(exists=True))
@click.option("--edges", required=True, type=click.Path(exists=True))
@click.option("--out", "cache", default="graph.npz", show_default=True,
              help="Cache path; ingest_summary.json is written beside it.")
def ingest(nodes, edges, cache):
    """Parse CSVs and write the binary graph cache, unless it is current, and the ingest summary."""
    cache = Path(cache)
    config = pl.RunConfig(nodes=Path(nodes), edges=Path(edges), outdir=cache.parent, cache=cache)
    state = {}
    pl.run_stage("ingest", config, state)
    if state["digests"] is None:
        click.echo(f"cache exists: {cache} (built from these inputs)")
        return
    graph = state["graph"]
    click.echo(f"nodes={graph.n_nodes} edges={graph.n_edges} counters={graph.ingest_counters}")
    click.echo(f"cache written: {cache}")


def _stage_inputs(graph_path: str, outdir: str, **params):
    """The config and state of one stage subcommand: its options, and ``--graph`` loaded as the graph."""
    config = pl.RunConfig(nodes=None, edges=None, outdir=Path(outdir), **params)
    return config, {"graph": load_cache(graph_path)}


_OUT = click.option("--out", "outdir", default=".", show_default=True,
                    help="Directory that receives the stage's files, as `ownet run` writes them.")


@main.command()
@click.option("--graph", "graph_path", required=True)
@_OUT
def bowtie(graph_path, outdir):
    """Bow-tie decomposition of the giant weakly connected component."""
    config, state = _stage_inputs(graph_path, outdir)
    pl.run_stage("bowtie", config, state)
    for name, count, ratio in state["bowtie"].summary_rows():
        click.echo(f"{name:>5}  {count:>12}  {ratio}")


@main.command()
@click.option("--graph", "graph_path", required=True)
@_OUT
def stats(graph_path, outdir):
    """Degree distributions, exponent fits, clustering, and k_nn curves."""
    config, state = _stage_inputs(graph_path, outdir)
    pl.run_stage("stats", config, state)
    click.echo(f"stats written under {Path(outdir) / 'stats'}")


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_OUT
def communities(graph_path, seed, outdir):
    """Two-level map-equation communities of the GWCC, and their size distribution."""
    config, state = _stage_inputs(graph_path, outdir, seed=seed)
    pl.run_stage("communities", config, state)
    partition = state["partition"]
    click.echo(f"{partition.n_communities} communities, codelength {partition.codelength:.6f} bits")


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--hqs", required=True, type=click.Path(exists=True))
@_OUT
def extract(graph_path, hqs, outdir):
    """Affiliates of every listed MNC (layer, within-MNC degrees) in one CSV."""
    config, state = _stage_inputs(graph_path, outdir, hqs=hqs)
    [path] = pl.run_stage("extract", config, state)
    report = state["report"]
    for name, reason in report.failures:
        click.echo(f"skipping {name}: {reason}", err=True)
    click.echo(f"{path}: {report.n_affiliates} affiliates of {len(report.mncs)} MNCs")


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--hqs", required=True, type=click.Path(exists=True))
@_OUT
def identify(graph_path, hqs, outdir):
    """Hierarchical key-company identification for every listed MNC."""
    config, state = _stage_inputs(graph_path, outdir, hqs=hqs)
    pl.run_stage("identify", config, state)
    report = state["report"]
    click.echo(f"tallies: {report.tallies}")
    for name, reason in report.failures:
        click.echo(f"failed {name}: {reason}", err=True)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--hqs", required=True, type=click.Path(exists=True))
@click.option("--profiles", required=True, type=click.Path(exists=True))
@click.option("--values", default=None, type=click.Path(exists=True),
              help="Per-edge value CSV; switches flows from link counts to value mode.")
@_OUT
def jurisdiction(graph_path, hqs, profiles, values, outdir):
    """Jurisdiction centralities, tallies, chains, and regressions of every listed MNC's key firms."""
    config, state = _stage_inputs(graph_path, outdir, hqs=hqs, profiles=profiles, values=values)
    pl.run_stage("jurisdiction", config, state)
    for name, reason in state["report"].failures:
        click.echo(f"failed {name}: {reason}", err=True)
    click.echo(f"jurisdiction reports under {Path(outdir) / 'reports'}")


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", "outdir", default="data", show_default=True)
def synth(spec_path, outdir):
    """Generate a synthetic corpus from a JSON spec."""
    spec = SynthSpec.from_json(spec_path)
    bundle = build_corpus(spec)
    paths = write_corpus(bundle, outdir)
    click.echo(
        f"nodes={len(bundle.node_rows)} edges={len(bundle.edge_rows)} "
        f"mncs={len(bundle.hq_rows)} region={bundle.target_region}"
    )
    for name, path in paths.items():
        click.echo(f"{name}: {path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def run(config_path):
    """Run the full pipeline from a JSON config."""
    manifest = pl.run_pipeline(pl.RunConfig.from_json(config_path))
    click.echo(f"manifest: {manifest}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "outdir", default=None, help="Report directory (default: <outdir>/report).")
def report(manifest_path, outdir):
    """Verify artifact hashes and write the human-readable summary."""
    target = pl.write_report(manifest_path, outdir)
    click.echo(target.read_text(encoding="utf-8"), nl=False)
    click.echo(f"summary: {target}")


if __name__ == "__main__":
    main()
