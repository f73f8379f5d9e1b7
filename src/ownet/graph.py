"""Ownership-graph core: ingest, immutable bidirectional adjacency, views.

Edges are stored in capital-flow orientation: a record "company u is owned
by shareholder v" becomes the directed edge u -> v, so dividends travel
along edge direction and a node's in-degree counts the subsidiaries it
owns. All node ids are opaque strings mapped to dense integer indexes at
build time; every analysis module works on the indexes and joins back
through ``ids``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csr import build_indptr, canonical_edge_order, freeze
from .errors import GraphError, LoadError

NA_JURISDICTION = "n.a."
NA_INDUSTRY = "V"

NODE_HEADER = ["node_id", "jurisdiction", "nace_section", "name", "is_hq"]
EDGE_HEADER = ["subsidiary_id", "shareholder_id", "pct"]

CACHE_VERSION = 1

_TRUE = {"1", "true", "t", "yes", "y"}
_FALSE = {"0", "false", "f", "no", "n", ""}


@dataclass(frozen=True, slots=True)
class NodeRecord:
    node_id: str
    jurisdiction: str = NA_JURISDICTION
    nace_section: str = NA_INDUSTRY
    name: str = ""
    is_hq: bool = False


@dataclass(frozen=True, slots=True)
class OwnershipEdge:
    subsidiary: str
    shareholder: str
    pct: float


@dataclass(frozen=True, slots=True)
class DegreeRecord:
    node_id: str
    k_in: int
    k_out: int


@dataclass(frozen=True)
class EdgeLoadResult:
    """Edges plus ingest counters (dropped self-loops, blank percentages)."""

    edges: list[OwnershipEdge]
    self_loops_dropped: int = 0
    blank_pct: int = 0


def _parse_bool(raw: str, path, line) -> bool:
    token = raw.strip().lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise LoadError(f"cannot parse boolean field {raw!r}", path, line)


def load_nodes(path) -> list[NodeRecord]:
    """Read a node CSV (``node_id,jurisdiction,nace_section,name,is_hq``).

    Duplicate node ids and malformed rows are rejected with the line number.
    """
    path = Path(path)
    records: list[NodeRecord] = []
    seen: set[str] = set()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise LoadError(str(exc), path) from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != NODE_HEADER:
            raise LoadError(f"expected header {','.join(NODE_HEADER)}", path, 1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(NODE_HEADER):
                raise LoadError(f"expected {len(NODE_HEADER)} fields, got {len(row)}", path, line)
            node_id = row[0].strip()
            if not node_id:
                raise LoadError("empty node_id", path, line)
            if node_id in seen:
                raise LoadError(f"duplicate node_id {node_id!r}", path, line)
            seen.add(node_id)
            jurisdiction = row[1].strip() or NA_JURISDICTION
            nace = row[2].strip() or NA_INDUSTRY
            records.append(
                NodeRecord(
                    node_id=node_id,
                    jurisdiction=jurisdiction,
                    nace_section=nace,
                    name=row[3],
                    is_hq=_parse_bool(row[4], path, line),
                )
            )
    return records


def load_edges(path, known_ids=None) -> EdgeLoadResult:
    """Read an edge CSV (``subsidiary_id,shareholder_id,pct``).

    Self-loops are dropped and counted rather than rejected. A blank pct is
    ingested as 0.0 (never substantial) and counted. When ``known_ids`` is
    given, unknown endpoints are rejected immediately; otherwise validation
    is deferred to ``build_graph``.
    """
    path = Path(path)
    edges: list[OwnershipEdge] = []
    self_loops = 0
    blank_pct = 0
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise LoadError(str(exc), path) from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != EDGE_HEADER:
            raise LoadError(f"expected header {','.join(EDGE_HEADER)}", path, 1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(EDGE_HEADER):
                raise LoadError(f"expected {len(EDGE_HEADER)} fields, got {len(row)}", path, line)
            sub, sh = row[0].strip(), row[1].strip()
            if not sub or not sh:
                raise LoadError("empty endpoint id", path, line)
            if known_ids is not None:
                if sub not in known_ids:
                    raise LoadError(f"unknown node_id {sub!r}", path, line)
                if sh not in known_ids:
                    raise LoadError(f"unknown node_id {sh!r}", path, line)
            raw_pct = row[2].strip()
            if raw_pct == "":
                pct = 0.0
                blank_pct += 1
            else:
                try:
                    pct = float(raw_pct)
                except ValueError as exc:
                    raise LoadError(f"cannot parse pct {raw_pct!r}", path, line) from exc
            if not 0.0 <= pct <= 100.0:
                raise LoadError(f"pct {pct} outside [0, 100]", path, line)
            if sub == sh:
                self_loops += 1
                continue
            edges.append(OwnershipEdge(sub, sh, pct))
    return EdgeLoadResult(edges=edges, self_loops_dropped=self_loops, blank_pct=blank_pct)


class _Adjacency:
    """Shared read API over canonical edge arrays.

    ``src``/``dst``/``pct`` are sorted by (src, dst). ``in_order`` permutes
    edge positions into (dst, src) order so both directions can be walked
    from the same arrays.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    pct: np.ndarray
    out_indptr: np.ndarray
    in_indptr: np.ndarray
    in_order: np.ndarray
    in_sources: np.ndarray

    def _index_edges(self, n: int, src: np.ndarray, dst: np.ndarray, pct: np.ndarray) -> None:
        order = canonical_edge_order(src, dst)
        self.n_nodes = n
        self.src = freeze(src[order])
        self.dst = freeze(dst[order])
        self.pct = freeze(pct[order])
        self.out_indptr = freeze(build_indptr(self.src, n))
        self.in_order = freeze(np.lexsort((self.src, self.dst)))
        self.in_indptr = freeze(build_indptr(self.dst[self.in_order], n))
        self.in_sources = freeze(self.src[self.in_order])

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])

    def out_degrees(self) -> np.ndarray:
        """Per-node number of shareholders (capital leaving)."""
        return np.diff(self.out_indptr).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """Per-node number of subsidiaries owned (capital entering)."""
        return np.diff(self.in_indptr).astype(np.int64)

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.dst[self.out_indptr[u] : self.out_indptr[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_sources[self.in_indptr[v] : self.in_indptr[v + 1]]


class OwnershipGraph(_Adjacency):
    """Immutable directed shareholding graph with node metadata.

    Construction happens once through :func:`build_graph` (or the cache
    loader); afterwards every array is write-protected and the object is
    safe for unrestricted concurrent reads.
    """

    def __init__(self, ids, jurisdictions, nace, names, is_hq, src, dst, pct, counters=None):
        n = len(ids)
        self.ids: list[str] = list(ids)
        self.id_index: dict[str, int] = {node_id: i for i, node_id in enumerate(self.ids)}
        if len(self.id_index) != n:
            raise GraphError("duplicate node ids")
        labels = sorted(set(jurisdictions))
        self.jurisdiction_labels: list[str] = labels
        label_index = {code: i for i, code in enumerate(labels)}
        self.jurisdiction_index = freeze(
            np.fromiter((label_index[j] for j in jurisdictions), dtype=np.int32, count=n)
        )
        self.na_jurisdiction = label_index.get(NA_JURISDICTION, -1)
        self.nace = freeze(np.asarray(nace, dtype="U1"))
        self.names: list[str] = list(names)
        self.is_hq = freeze(np.asarray(is_hq, dtype=bool))
        self.ingest_counters: dict[str, int] = dict(counters or {})
        self._index_edges(n, src, dst, pct)

    # -- metadata access -------------------------------------------------
    def index_of(self, node_id: str) -> int:
        try:
            return self.id_index[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id!r}") from None

    def jurisdiction_of(self, i: int) -> str:
        return self.jurisdiction_labels[self.jurisdiction_index[i]]

    def node_record(self, i: int) -> NodeRecord:
        return NodeRecord(
            node_id=self.ids[i],
            jurisdiction=self.jurisdiction_of(i),
            nace_section=str(self.nace[i]),
            name=self.names[i],
            is_hq=bool(self.is_hq[i]),
        )

    @property
    def graph(self) -> "OwnershipGraph":
        # views expose .graph for metadata; self-reference keeps callers generic
        return self


class SubstantialView(_Adjacency):
    """Edge-filtered view keeping only shareholdings at or above a threshold.

    Shares node indexes and metadata with the parent graph; only the edge
    arrays are filtered (and re-indexed). Immutable like the parent.
    """

    def __init__(self, graph: OwnershipGraph, threshold: float):
        if not 0.0 < threshold <= 100.0:
            raise GraphError(f"threshold must be in (0, 100], got {threshold}")
        self.graph = graph
        self.threshold = float(threshold)
        keep = graph.pct >= threshold
        self._index_edges(graph.n_nodes, graph.src[keep], graph.dst[keep], graph.pct[keep])

    @property
    def n_excluded(self) -> int:
        return self.graph.n_edges - self.n_edges


def build_graph(nodes, edges) -> OwnershipGraph:
    """Assemble the immutable graph from parsed records.

    ``edges`` may be a plain sequence of :class:`OwnershipEdge` or an
    :class:`EdgeLoadResult` (its counters are then carried onto the graph).
    Edges referencing unknown nodes are rejected.
    """
    counters = {"self_loops_dropped": 0, "blank_pct": 0}
    if isinstance(edges, EdgeLoadResult):
        counters = {
            "self_loops_dropped": edges.self_loops_dropped,
            "blank_pct": edges.blank_pct,
        }
        edge_seq = edges.edges
    else:
        edge_seq = list(edges)

    ids = [rec.node_id for rec in nodes]
    index = {node_id: i for i, node_id in enumerate(ids)}
    if len(index) != len(ids):
        raise GraphError("duplicate node ids")

    m = len(edge_seq)
    src = np.empty(m, dtype=np.int32)
    dst = np.empty(m, dtype=np.int32)
    pct = np.empty(m, dtype=np.float64)
    for k, edge in enumerate(edge_seq):
        try:
            src[k] = index[edge.subsidiary]
            dst[k] = index[edge.shareholder]
        except KeyError as exc:
            raise GraphError(f"edge references unknown node {exc.args[0]!r}") from None
        pct[k] = edge.pct

    return OwnershipGraph(
        ids=ids,
        jurisdictions=[rec.jurisdiction for rec in nodes],
        nace=[rec.nace_section for rec in nodes],
        names=[rec.name for rec in nodes],
        is_hq=[rec.is_hq for rec in nodes],
        src=src,
        dst=dst,
        pct=pct,
        counters=counters,
    )


def load_graph(nodes_path, edges_path, strict: bool = True) -> OwnershipGraph:
    """Convenience: parse both CSVs and build the graph."""
    nodes = load_nodes(nodes_path)
    known = {rec.node_id for rec in nodes} if strict else None
    result = load_edges(edges_path, known_ids=known)
    return build_graph(nodes, result)


def substantial_view(graph: OwnershipGraph, threshold: float = 10.0) -> SubstantialView:
    """Edges with pct >= threshold (default: the 10% substantial-link rule)."""
    return SubstantialView(graph, threshold)


def degree_arrays(g: _Adjacency) -> tuple[np.ndarray, np.ndarray]:
    """(k_in, k_out) arrays over the given graph or view."""
    return g.in_degrees(), g.out_degrees()


def degrees(g: _Adjacency) -> list[DegreeRecord]:
    """Per-node degree records in capital-flow orientation."""
    k_in, k_out = degree_arrays(g)
    ids = g.graph.ids
    return [DegreeRecord(ids[i], int(k_in[i]), int(k_out[i])) for i in range(g.n_nodes)]


def reciprocal_link_ratio(g: _Adjacency) -> float:
    """Fraction of edges (u, v) whose reverse (v, u) is also present."""
    m = g.n_edges
    if m == 0:
        return 0.0
    n = np.int64(g.n_nodes)
    keys = g.src.astype(np.int64) * n + g.dst.astype(np.int64)
    rev = g.dst.astype(np.int64) * n + g.src.astype(np.int64)
    return float(np.isin(keys, rev).sum() / m)


def induced_subgraph(graph: OwnershipGraph, node_ids) -> OwnershipGraph:
    """Subgraph on the given node ids with exactly the internal edges.

    Metadata is preserved; kept nodes retain their relative order. Unknown
    ids are rejected.
    """
    indexes = sorted({graph.index_of(node_id) for node_id in node_ids})
    keep = np.zeros(graph.n_nodes, dtype=bool)
    keep[indexes] = True
    remap = np.full(graph.n_nodes, -1, dtype=np.int64)
    remap[indexes] = np.arange(len(indexes))

    mask = keep[graph.src] & keep[graph.dst]
    return OwnershipGraph(
        ids=[graph.ids[i] for i in indexes],
        jurisdictions=[graph.jurisdiction_of(i) for i in indexes],
        nace=[str(graph.nace[i]) for i in indexes],
        names=[graph.names[i] for i in indexes],
        is_hq=[bool(graph.is_hq[i]) for i in indexes],
        src=remap[graph.src[mask]].astype(np.int32),
        dst=remap[graph.dst[mask]].astype(np.int32),
        pct=graph.pct[mask].copy(),
        counters=graph.ingest_counters,
    )


# -- canonical CSV emit ----------------------------------------------------

def write_csv_rows(path, header, rows) -> None:
    """Write rows with deterministic quoting and unix line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def node_csv_row(record: NodeRecord) -> tuple[str, str, str, str, str]:
    return (
        record.node_id,
        record.jurisdiction,
        record.nace_section,
        record.name,
        "1" if record.is_hq else "0",
    )


# -- binary cache --------------------------------------------------------

def _pack_strings(strings) -> tuple[np.ndarray, np.ndarray]:
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter((len(b) for b in encoded), dtype=np.int64, count=len(encoded))
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = blob.tobytes()
    return [raw[offsets[i] : offsets[i + 1]].decode("utf-8") for i in range(len(offsets) - 1)]


def save_cache(graph: OwnershipGraph, path) -> None:
    """Persist the built graph to a versioned npz cache."""
    ids_blob, ids_off = _pack_strings(graph.ids)
    names_blob, names_off = _pack_strings(graph.names)
    jur_blob, jur_off = _pack_strings(graph.jurisdiction_labels)
    np.savez(
        path,
        version=np.int64(CACHE_VERSION),
        ids_blob=ids_blob,
        ids_off=ids_off,
        names_blob=names_blob,
        names_off=names_off,
        jur_blob=jur_blob,
        jur_off=jur_off,
        jur_index=graph.jurisdiction_index,
        nace=graph.nace,
        is_hq=graph.is_hq,
        src=graph.src,
        dst=graph.dst,
        pct=graph.pct,
        self_loops_dropped=np.int64(graph.ingest_counters.get("self_loops_dropped", 0)),
        blank_pct=np.int64(graph.ingest_counters.get("blank_pct", 0)),
    )


def load_cache(path) -> OwnershipGraph:
    """Load a graph cache written by :func:`save_cache`."""
    try:
        data = np.load(path)
    except OSError as exc:
        raise LoadError(str(exc), path) from exc
    version = int(data["version"])
    if version != CACHE_VERSION:
        raise LoadError(f"cache version {version} unsupported (expected {CACHE_VERSION})", path)
    labels = _unpack_strings(data["jur_blob"], data["jur_off"])
    jurisdictions = [labels[i] for i in data["jur_index"]]
    return OwnershipGraph(
        ids=_unpack_strings(data["ids_blob"], data["ids_off"]),
        jurisdictions=jurisdictions,
        nace=list(data["nace"]),
        names=_unpack_strings(data["names_blob"], data["names_off"]),
        is_hq=data["is_hq"],
        src=data["src"].astype(np.int32),
        dst=data["dst"].astype(np.int32),
        pct=data["pct"].astype(np.float64),
        counters={
            "self_loops_dropped": int(data["self_loops_dropped"]),
            "blank_pct": int(data["blank_pct"]),
        },
    )
