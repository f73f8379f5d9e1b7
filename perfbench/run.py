"""Benchmark of the ownet pipeline: end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold_1m_50 --seed 2009 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all

A run generates its corpus from ``--seed`` with ``ownet.synth``, then runs
``ownet.pipeline.run_pipeline`` in fresh child processes, one at a time,
until ``--seconds`` of pipeline wall time are measured, and checks every
run's outputs (see ``oracles.py``). With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics (medians over the
timed runs); with ``--trace 1`` one more, traced, child follows and the JSON
holds the per-layer metrics (see ``tracer.py``). The line before it holds
the context: machine facts, corpus seeds, the manifest digest, the fail
ratio and every timed run. The program is imported from the checkout's
``src``; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402

MIN_SETUP_SAMPLES = 3
RUN_BUDGET_S = 140.0  # no new child starts once a run could pass this
SEED_STRIDE = 1_000_003  # corpus seeds of one run's fresh corpora: seed, seed + stride, ...

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "input_rows_per_s": "rows/s",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # SynthSpec fields other than the seed
    stages: tuple[str, ...]

    @property
    def cached(self) -> bool:
        """Timed runs read graph.npz, which set-up writes with an ingest-only run."""
        return "ingest" not in self.stages

    @property
    def partition(self) -> bool:
        """The operation is one partition, not one MNC each.

        Every timed run then draws its own corpus, because the move loop's
        work varies by a sixth from one graph to the next.
        """
        return "communities" in self.stages


# Sizes keep one run of each workload within about 45 s on 2 cores, corpus
# generation included: the cold corpus is the acceptance test 9 spec (one
# ~25 s pipeline run), the warm and communities corpora are small enough for
# several timed runs each.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_1m_50",
            "1M-node CSV corpus through ingest, bow-tie, stats and 50 MNCs; "
            "CSV parse, graph build, cache write, bow-tie and stats dominate",
            dict(n_noise=997_000, noise_edges=995_000, n_mncs=50, core_size=2000,
                 out_chain=20, affiliates_range=(5, 30)),
            ("ingest", "bowtie", "stats", "extract", "identify", "jurisdiction"),
        ),
        Workload(
            "warm_250k_2000",
            "2000 MNCs over a cached 290k-node graph; per-MNC extract/identify "
            "and the cache read dominate, ingest and stats are bypassed",
            dict(n_noise=250_000, noise_edges=250_000, n_mncs=2000, core_size=500,
                 out_chain=20, affiliates_range=(5, 30)),
            ("extract", "identify", "jurisdiction"),
        ),
        Workload(
            "communities_30k",
            "map-equation communities on the 22k-node GWCC of a fresh 31k-node corpus "
            "per timed run; the community move loop dominates",
            dict(n_noise=30_000, noise_edges=30_000, n_mncs=50, core_size=200, out_chain=20),
            ("ingest", "communities"),
        ),
    )
}


@dataclass
class Corpus:
    """A generated corpus: input paths, sizes and planted truth."""

    seed: int
    paths: dict[str, str]
    n_nodes: int
    n_rows: int
    truth: dict[str, dict[str, str]]  # MNC name -> {affiliate id: planted role}


def run_child(corpus: Corpus, stages, outdir: Path, cache: Path | None = None,
              mode: str = "timed") -> dict:
    """One ``child.py`` process over ``corpus``; returns its result object."""
    config = dict(corpus.paths, outdir=str(outdir), stages=list(stages), seed=corpus.seed,
                  cache=str(cache) if cache else None)
    config_path = outdir.with_name(outdir.name + ".config.json")
    result_path = outdir.with_name(outdir.name + ".result.json")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(config_path), str(result_path), mode],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child run failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def import_program() -> None:
    """Import ``ownet`` from this checkout's ``src`` only."""
    if not (SRC / "ownet" / "__init__.py").is_file():
        raise SystemExit(f"no ownet sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ownet

    if Path(ownet.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"ownet imported from {ownet.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "platform": platform.platform(),
    }


def check_outputs(workload: Workload, outdir: Path, corpus: Corpus):
    """Run the workload's oracles on one run's artifacts.

    Returns the number of failed operations and, for a partition, its codelength.
    """
    if workload.partition:
        from ownet.pipeline import RunConfig

        codelength = oracles.check_communities(
            outdir, corpus.paths["nodes"], corpus.paths["edges"], RunConfig.damping)
        return 0, codelength
    if "bowtie" in workload.stages:
        oracles.check_bowtie(outdir, corpus.n_nodes, corpus.truth)
    return len(oracles.failed_mncs(outdir, corpus.truth)), None


def make_corpus(workload: Workload, seed: int, datadir: Path) -> Corpus:
    from ownet.synth import SynthSpec, build_corpus, write_corpus

    bundle = build_corpus(SynthSpec(seed=seed, **workload.spec))
    paths = write_corpus(bundle, datadir)
    return Corpus(
        seed=seed,
        paths={key: str(paths[key]) for key in ("nodes", "edges", "hqs", "profiles")},
        n_nodes=len(bundle.node_rows),
        n_rows=len(bundle.node_rows) + len(bundle.edge_rows),
        truth=bundle.truth,
    )


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, set up, measure and check one workload; returns the result object."""
    import_program()
    started = time.perf_counter()
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    attempted = failed = 0
    errors: list[str] = []
    digests: dict[int, str] = {}  # corpus seed -> manifest digest of its first run
    verdicts: dict[str, tuple] = {}  # manifest digest -> check_outputs result

    def operations(corpus: Corpus) -> int:
        return 1 if workload.partition else len(corpus.truth)

    def measured(corpus: Corpus, outdir: Path, result: dict) -> None:
        nonlocal attempted, failed
        attempted += operations(corpus)
        try:
            digest = oracles.check_manifest(Path(result["manifest"]))
            if digests.setdefault(corpus.seed, digest) != digest:
                errors.append(f"two runs on corpus {corpus.seed} wrote different outputs")
            # byte-identical artifacts need checking only once
            if digest not in verdicts:
                verdicts[digest] = check_outputs(workload, outdir, corpus)
            failed += verdicts[digest][0]
        except (oracles.CheckFailed, OSError, KeyError, ValueError) as exc:
            errors.append(str(exc))
            failed += operations(corpus)
        shutil.rmtree(outdir, ignore_errors=True)

    try:
        corpora = [make_corpus(workload, seed, workdir / "data0")]
        setup_samples: list[float] = []
        cache_build_s = 0.0
        cache = None
        if workload.cached:
            ingest = run_child(corpora[0], ("ingest",), workdir / "ingest")
            try:
                oracles.check_manifest(Path(ingest["manifest"]))
            except oracles.CheckFailed as exc:
                errors.append(f"ingest set-up: {exc}")
            setup_samples.append(ingest["setup_s"])
            cache_build_s = ingest["wall_s"]
            cache = workdir / "ingest" / "graph.npz"

        reps: list[dict] = []
        while True:
            index = len(reps)
            if workload.partition and index:
                corpora.append(make_corpus(workload, seed + index * SEED_STRIDE,
                                           workdir / f"data{index}"))
            outdir = workdir / f"out{index}"
            result = run_child(corpora[-1], workload.stages, outdir, cache=cache)
            result["corpus_seed"] = corpora[-1].seed
            result["rows_per_s"] = corpora[-1].n_rows / result["wall_s"]
            measured(corpora[-1], outdir, result)
            reps.append(result)
            setup_samples.append(result["setup_s"])
            elapsed = time.perf_counter() - started
            slowest = max(r["wall_s"] + r["setup_s"] for r in reps)
            if (sum(r["wall_s"] for r in reps) >= seconds
                    or elapsed + slowest * (3 if trace else 2) > RUN_BUDGET_S):
                break
        while len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(run_child(corpora[0], workload.stages, workdir / "setup",
                                           cache=cache, mode="setup")["setup_s"])

        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "input_rows_per_s": statistics.median(r["rows_per_s"] for r in reps),
            "setup_s": statistics.median(setup_samples) + cache_build_s,
        }
        layers = None
        if trace:
            outdir = workdir / "traced"
            result = run_child(corpora[0], workload.stages, outdir, cache=cache, mode="traced")
            measured(corpora[0], outdir, result)
            layers = result["layers"]
            untraced = [r["wall_s"] for r in reps if r["corpus_seed"] == corpora[0].seed]
            layers["trace.overhead_s"] = result["wall_s"] - statistics.median(untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": workload.name,
        "seed": seed,
        "corpus_seeds": [c.seed for c in corpora],
        "spec": workload.spec,
        "stages": list(workload.stages),
        "runs": len(reps),
        "wall_s_runs": [r["wall_s"] for r in reps],
        "setup_s_samples": setup_samples,
        "cache_build_s": cache_build_s,
        "input_rows": [c.n_rows for c in corpora],
        "manifest_digest": digests.get(seed),
        "fail_ratio": failed / attempted,
        "errors": errors,
        "machine": machine_facts(),
        "total_s": time.perf_counter() - started,
    }
    if workload.partition and seed in digests:
        context["codelength_bits"] = verdicts[digests[seed]][1]
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
        "per_layer": layers and {name: {"value": layers[name], "unit": unit}
                                 for name, (unit, _) in tracing.PER_LAYER.items()},
        "context": context,
    }


def report(result: dict, trace: bool) -> None:
    """Print the metrics by name and unit, the context line, then the result line."""
    ctx = result["context"]
    metrics = result["per_layer" if trace else "end_to_end"]
    print(f"# {ctx['workload']} seed={ctx['seed']} runs={ctx['runs']} "
          f"correct={result['correct']} fail_ratio={ctx['fail_ratio']} "
          f"digest={ctx['manifest_digest']}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>18.6g} {metric['unit']}")
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=20_09)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(result, bool(args.trace))
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
