"""Per-layer tracing of one pipeline run, from outside the program.

Every public function of the traced ``ownet`` modules is replaced by a
timing wrapper in every namespace that binds it (``ownet.pipeline.load_graph``
as well as ``ownet.graph.load_graph``), and so are the pipeline's stage
functions. One wrapper serves all bindings of a function, so each real call
opens exactly one span. A span's self time is its duration minus the time
its direct child spans cover; the self times of all spans under the root
therefore add up to the root's duration.

Functions not named in ``PER_LAYER`` are folded into ``<layer>.other.s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# layer name -> ownet module; a layer name must start with a letter
LAYERS = {
    "graph": "ownet.graph",
    "components": "ownet.components",
    "csr": "ownet._csr",
    "netstats": "ownet.netstats",
    "community": "ownet.community",
    "mnc": "ownet.mnc",
    "keyfirms": "ownet.keyfirms",
    "jurisdiction": "ownet.jurisdiction",
    "pipeline": "ownet.pipeline",
}

STAGES = ("ingest", "bowtie", "stats", "communities", "extract", "identify", "jurisdiction")

_NAMED = {
    "graph": ["load_nodes.s", "load_edges.s", "build_graph.s", "save_cache.s", "load_cache.s",
              "substantial_view.s", "induced_subgraph.s", "write_csv_rows.s"],
    "components": ["bowtie_decompose.s", "weak_components.s", "distance_distribution.s"],
    "csr": ["multi_source_bfs.s"],
    "netstats": ["degree_histogram.s", "fit_power_law.s", "undirected_simple_csr.s",
                 "triangle_counts.s", "clustering_by_degree.s", "knn_by_degree.s"],
    "community": ["stationary_flow.s", "detect_communities.s"],
    "mnc": ["extract_mnc.s", "mnc_degrees.s"],
    "keyfirms": ["classify_all.s", "hierarchical_identify.s", "third_country.s"],
    "jurisdiction": ["link_flows.s", "with_pass_flows.s", "tally_by_jurisdiction.s",
                     "chain_tables.s", "hq_tables.s", "ols_regression.s"],
    "pipeline": ["run_pipeline.s"] + [f"{stage}.s" for stage in STAGES],
}

# self times, in seconds; together with the "other" buckets they cover the root span
SELF_TIMES = [f"{layer}.{name}" for layer, names in _NAMED.items() for name in names]
SELF_TIMES += [f"{layer}.other.s" for layer in LAYERS]

CALLS = [
    "components.weak_components.calls",
    "csr.multi_source_bfs.calls",
    "netstats.undirected_simple_csr.calls",
    "mnc.build_subtree.calls",
    "keyfirms.third_country.calls",
]

# name -> (unit, better)
COUNTS = {
    "graph.rows_in": ("count", "higher"),
    "graph.write_csv_rows.rows": ("count", "higher"),
    "netstats.triangles": ("count", "higher"),
    "community.flow_iterations": ("count", "lower"),
    "community.n_communities": ("count", "higher"),
    "community.codelength_bits": ("bits", "lower"),
    "mnc.affiliates": ("count", "higher"),
    "mnc.useful_ratio": ("1", "higher"),
    "keyfirms.failures": ("count", "lower"),
    "pipeline.artifacts": ("count", "higher"),
    "pipeline.artifact_bytes": ("bytes", "lower"),
}

OVERALL = {"trace.wall_s": ("s", "lower"), "trace.overhead_s": ("s", "lower")}

PER_LAYER = {name: ("s", "lower") for name in SELF_TIMES}
PER_LAYER.update({name: ("count", "lower") for name in CALLS})
PER_LAYER.update(COUNTS)
PER_LAYER.update(OVERALL)


class Tracer:
    """In-memory spans: self time and calls per name, plus named counts."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, before=None, after=None):
        """Time ``fn`` as span ``name``; hooks see the arguments and result."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
            if after is not None:
                after(self, args, result)
            return result

        return span


def _count_rows(tracer: Tracer, args):
    if len(args) != 3:
        raise TypeError("write_csv_rows is traced only when called as (path, header, rows)")
    path, header, rows = args
    if isinstance(rows, (list, tuple)):
        tracer.counts["graph.write_csv_rows.rows"] += len(rows)
        return args

    def counted():
        for row in rows:
            tracer.counts["graph.write_csv_rows.rows"] += 1
            yield row

    return path, header, counted()


def _nodes_in(tracer, args, nodes):
    tracer.counts["graph.rows_in"] += len(nodes)


def _edges_in(tracer, args, result):
    tracer.counts["graph.rows_in"] += len(result.edges) + result.self_loops_dropped


def _triangles(tracer, args, tri):
    tracer.counts["netstats.triangles"] += int(tri.sum()) // 3


def _flow(tracer, args, flow):
    tracer.counts["community.flow_iterations"] += flow.iterations


def _partition(tracer, args, partition):
    tracer.counts["community.n_communities"] = partition.n_communities
    tracer.counts["community.codelength_bits"] = partition.codelength


def _subtree_nodes(tracer, args, subtree):
    tracer.counts["mnc.node_scans"] += subtree.view.n_nodes


def _report(tracer, args, report):
    tracer.counts["mnc.affiliates"] += report.n_affiliates
    tracer.counts["keyfirms.failures"] += len(report.failures)


_HOOKS = {
    "graph.write_csv_rows": (_count_rows, None),
    "graph.load_nodes": (None, _nodes_in),
    "graph.load_edges": (None, _edges_in),
    "netstats.triangle_counts": (None, _triangles),
    "community.stationary_flow": (None, _flow),
    "community.detect_communities": (None, _partition),
    "mnc.build_subtree": (None, _subtree_nodes),
    "keyfirms.classify_all": (None, _report),
}


def install(tracer: Tracer) -> None:
    """Patch every binding of every traced function; call before the run."""
    wrappers = {}
    for layer, module_name in LAYERS.items():
        module = importlib.import_module(module_name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module_name:
                continue
            name = f"{layer}.{attr}"
            before, after = _HOOKS.get(name, (None, None))
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, before, after))

    namespaces = [m for key, m in sys.modules.items() if key == "ownet" or key.startswith("ownet.")]
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])

    pipeline = importlib.import_module("ownet.pipeline")
    for stage, fn in list(pipeline._STAGE_FUNCS.items()):
        pipeline._STAGE_FUNCS[stage] = tracer.wrap(f"pipeline.{stage}", fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans into the ``PER_LAYER`` names (minus ``OVERALL``)."""
    named = set(SELF_TIMES)
    out: dict[str, float] = {name: 0.0 for name in SELF_TIMES}
    for span, seconds in tracer.self_s.items():
        key = f"{span}.s"
        if key not in named:
            key = f"{span.split('.', 1)[0]}.other.s"
        out[key] += seconds
    for name in CALLS:
        out[name] = tracer.calls[name.removesuffix(".calls")]
    for name in COUNTS:
        out[name] = tracer.counts[name]
    # computed, not measured: affiliates found per node the subtree BFS set up
    scans = tracer.counts["mnc.node_scans"]
    out["mnc.useful_ratio"] = tracer.counts["mnc.affiliates"] / scans if scans else 0.0
    return out
