"""Fast self-check of the benchmark on tiny corpora.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
Each workload's code path runs once, traced, on a tiny spec; the check
asserts that every metric ``BENCHMARK.json`` names is emitted with its unit,
that the outputs pass every oracle, and that the traced self times add up to
the traced wall time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "cold_1m_50": dict(n_noise=800, noise_edges=1000, n_mncs=8, core_size=40, out_chain=8),
    "warm_250k_2000": dict(n_noise=800, noise_edges=1000, n_mncs=20, core_size=40, out_chain=8),
    "communities_30k": dict(n_noise=600, noise_edges=700, n_mncs=5, core_size=30, out_chain=5),
}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == tracer.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_every_metric(name):
    workload = dataclasses.replace(run.WORKLOADS[name], spec=TINY[name])
    result = run.run_workload(workload, seed=7, seconds=0.1, trace=True)

    assert result["correct"], result["context"]["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for group in ("end_to_end", "per_layer"):
        emitted = {key: metric["unit"] for key, metric in result[group].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert all(math.isfinite(metric["value"]) for metric in result[group].values())
    assert all(result["end_to_end"][m]["value"] > 0 for m in run.END_TO_END)

    layers = {key: metric["value"] for key, metric in result["per_layer"].items()}
    self_total = sum(layers[key] for key in tracer.SELF_TIMES)
    assert self_total == pytest.approx(layers["trace.wall_s"], rel=1e-3, abs=1e-3)
    for stage in workload.stages:
        assert layers[f"pipeline.{stage}.s"] > 0
    assert layers["pipeline.artifacts"] > 0
