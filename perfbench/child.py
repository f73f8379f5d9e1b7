"""One pipeline run in a fresh process.

Usage: ``python child.py CONFIG.json RESULT.json MODE`` with ``ownet`` on
``PYTHONPATH``. CONFIG is read with ``ownet.pipeline.RunConfig.from_json``.
MODE is ``setup`` (import and validate only), ``timed`` or ``traced``. The
result holds the set-up time and, unless MODE is ``setup``, the wall and CPU
time of ``run_pipeline``, the process's peak RSS, the manifest path and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(config_path: str, result_path: str, mode: str) -> None:
    start = time.perf_counter()
    import ownet.pipeline as pl

    config = pl.RunConfig.from_json(config_path)
    config.validate()
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return

    outdir = Path(config.outdir)
    if outdir.exists() and any(outdir.iterdir()):
        # run_pipeline would silently reuse an existing outdir/graph.npz
        raise SystemExit(f"outdir {outdir} is not empty before the timed run")

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    manifest = pl.run_pipeline(config)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        manifest=str(manifest),
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        data = json.loads(Path(manifest).read_text(encoding="utf-8"))
        artifacts = [rel for entry in data["stages"].values() for rel in entry["artifacts"]]
        layers["pipeline.artifacts"] = len(artifacts)
        layers["pipeline.artifact_bytes"] = sum((outdir / rel).stat().st_size for rel in artifacts)
        layers["trace.wall_s"] = wall
        result["layers"] = layers
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:4])
