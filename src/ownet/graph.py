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
import hashlib
import json
import math
import zipfile
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csr import build_indptr, canonical_edge_order, dense_relabel, freeze
from .errors import GraphError, LoadError

NA_JURISDICTION = "n.a."

NODE_HEADER = ["node_id", "jurisdiction", "nace_section", "name", "is_hq"]
EDGE_HEADER = ["subsidiary_id", "shareholder_id", "pct"]

# 2: the sha256 digests of the two input CSVs; 3: no name, NACE or HQ-flag column
CACHE_VERSION = 3

_TRUE = {"1", "true", "t", "yes", "y"}
_FALSE = {"0", "false", "f", "no", "n", ""}


@dataclass(frozen=True, slots=True)
class NodeRecord:
    node_id: str
    jurisdiction: str = NA_JURISDICTION


@dataclass(frozen=True, slots=True)
class OwnershipEdge:
    subsidiary: str
    shareholder: str
    pct: float


@dataclass(frozen=True)
class NodeColumns:
    """Node ids and jurisdictions as parallel columns; ``id_index`` maps each
    id to its position and ``jurisdiction_index`` points into the sorted labels."""

    ids: list[str]
    id_index: dict[str, int]
    jurisdiction_labels: list[str]
    jurisdiction_index: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class EdgeColumns:
    """Edges as parallel columns: int32 node indexes ``src``/``dst``, float64 ``pct``."""

    src: np.ndarray
    dst: np.ndarray
    pct: np.ndarray

    def __len__(self) -> int:
        return len(self.src)


@dataclass(frozen=True)
class EdgeLoadResult:
    """Edges plus ingest counters (dropped self-loops, blank percentages)."""

    edges: EdgeColumns
    self_loops_dropped: int
    blank_pct: int


def _parse_bool(raw: str, path, line) -> bool:
    token = raw.strip().lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise LoadError(f"cannot parse boolean field {raw!r}", path, line)


def parse_number(raw: str, kind, name: str, path, line):
    """Field ``name`` read as ``kind`` (``int`` or ``float``); text that does
    not parse, and a float that is not finite, fail with the line."""
    try:
        value = kind(raw.strip())
    except ValueError:
        raise LoadError(f"cannot parse {name} {raw!r}", path, line) from None
    if kind is float and not math.isfinite(value):
        raise LoadError(f"{name} must be finite, got {raw!r}", path, line)
    return value


def data_rows(path: Path, header: list[str]):
    """``(line, row)`` per non-blank row after ``header`` (line = row index + 2);
    rejects a missing file, a wrong header and a wrong field count."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise LoadError(str(exc), path) from exc
    with handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise LoadError(f"expected header {','.join(header)}", path, 1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise LoadError(f"expected {len(header)} fields, got {len(row)}", path, line)
            yield line, row


def _jurisdiction(raw: str) -> str:
    """A jurisdiction field: stripped, and ``NA_JURISDICTION`` if blank."""
    return raw.strip() or NA_JURISDICTION


def _row_nodes(path: Path) -> NodeColumns:
    """:func:`load_nodes` one ``csv.reader`` row at a time: the definition of a
    valid node file, and the path that reports the first bad line."""
    ids = []
    id_index: dict[str, int] = {}
    first_seen: dict[str, int] = {}  # jurisdiction -> code, numbered in order of first use
    codes = array("i")
    for line, row in data_rows(path, NODE_HEADER):
        node_id = row[0].strip()
        if not node_id:
            raise LoadError("empty node_id", path, line)
        if node_id in id_index:
            raise LoadError(f"duplicate node_id {node_id!r}", path, line)
        id_index[node_id] = len(ids)
        ids.append(node_id)
        codes.append(first_seen.setdefault(_jurisdiction(row[1]), len(first_seen)))
        _parse_bool(row[4], path, line)  # validated, not kept
    return _node_columns(ids, id_index, first_seen, np.asarray(codes))


def _node_columns(ids, id_index, first_seen, codes) -> NodeColumns:
    """Node columns with jurisdictions renumbered from order of first use to sorted order."""
    labels = sorted(first_seen)
    rank = np.empty(len(labels), dtype=np.int32)
    rank[[first_seen[label] for label in labels]] = np.arange(len(labels))
    return NodeColumns(ids, id_index, labels, rank[codes])


def _row_edges(path: Path, id_index: dict[str, int]) -> EdgeLoadResult:
    """:func:`load_edges` one ``csv.reader`` row at a time: the definition of a
    valid edge file, and the path that reports the first bad line."""
    src, dst, pct = array("i"), array("i"), array("d")
    self_loops = blank_pct = 0
    for line, row in data_rows(path, EDGE_HEADER):
        sub, sh = row[0].strip(), row[1].strip()
        if not sub or not sh:
            raise LoadError("empty endpoint id", path, line)
        s = id_index.get(sub)
        if s is None:
            raise LoadError(f"unknown node_id {sub!r}", path, line)
        d = id_index.get(sh)
        if d is None:
            raise LoadError(f"unknown node_id {sh!r}", path, line)
        raw_pct = row[2].strip()
        if raw_pct == "":
            value = 0.0
            blank_pct += 1
        else:
            try:
                value = float(raw_pct)
            except ValueError as exc:
                raise LoadError(f"cannot parse pct {raw_pct!r}", path, line) from exc
        if not 0.0 <= value <= 100.0:
            raise LoadError(f"pct {value} outside [0, 100]", path, line)
        if s == d:
            self_loops += 1
            continue
        src.append(s)
        dst.append(d)
        pct.append(value)
    edges = EdgeColumns(np.asarray(src), np.asarray(dst), np.asarray(pct))
    return EdgeLoadResult(edges=edges, self_loops_dropped=self_loops, blank_pct=blank_pct)


# -- bulk parse: the same files as the row loops, a block of rows at a time ----

BLOCK_BYTES = 1 << 22  # newline-aligned read size of the bulk parse


class _Irregular(Exception):
    """The bulk parse cannot take this file, or it fails a check; the row
    loop re-reads it, so errors keep their message and line."""


def _split_block(block: bytes, width: int) -> list[str]:
    """The fields of every line of ``block`` (newline-terminated), row after row.

    Only plain lines are split: no quote, CR or NUL byte, exactly
    ``width - 1`` commas each (so no blank line), and no field longer than
    the csv module accepts. ``csv.reader`` splits such a line at its commas
    alone, so both parses agree; anything else raises :class:`_Irregular`.
    """
    if b'"' in block or b"\r" in block or b"\0" in block:
        raise _Irregular
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    if commas.shape[0] != ends.shape[0] * (width - 1):
        raise _Irregular
    # row i's separators in position order: its line start, width - 1 commas, its newline
    bounds = np.column_stack((np.concatenate(([-1], ends[:-1])), commas.reshape(-1, width - 1), ends))
    gaps = np.diff(bounds, axis=1)
    if gaps.size and (gaps.min() < 1 or gaps.max() > csv.field_size_limit() + 1):
        raise _Irregular
    try:
        fields = block.decode("utf-8").replace(",", "\n").split("\n")
    except UnicodeDecodeError:
        raise _Irregular from None
    fields.pop()  # the empty string after the last newline
    return fields


def _bulk_blocks(path: Path, header: list[str]):
    """Per block of data rows, their fields as one flat row-major list.

    The file must be plain throughout (see :func:`_split_block`) and start
    with ``header``; otherwise, and if it cannot be read, this raises
    :class:`_Irregular`.
    """
    width = len(header)
    try:
        handle = open(path, "rb")
    except OSError:
        raise _Irregular from None
    with handle:
        tail, first = b"", True
        while True:
            try:
                chunk = handle.read(BLOCK_BYTES)
            except OSError:
                raise _Irregular from None
            block = tail + chunk
            if chunk:
                cut = block.rfind(b"\n") + 1
                block, tail = block[:cut], block[cut:]
            elif block:
                block += b"\n"  # the last line, which has no newline
            if block:
                fields = _split_block(block, width)
                if first:
                    if [name.strip() for name in fields[:width]] != header:
                        raise _Irregular
                    del fields[:width]
                    first = False
                if fields:
                    yield fields
                    fields.clear()  # free this block's strings before the next block makes its own
            if not chunk:
                break
        if first:  # an empty file: no header
            raise _Irregular


def _mapped(column: list[str], table: dict, value_of):
    """``table[raw]`` for every raw field, lazily; ``value_of`` adds the
    values not yet in ``table``, one call per distinct raw field."""
    for raw in set(column).difference(table):
        table[raw] = value_of(raw)
    return map(table.__getitem__, column)


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _fresh_copies(strings) -> list[str]:
    """New objects equal to ``strings`` (at least one; none holds a newline).

    The strings a node block keeps are copied, together, out of the block's
    split, so the allocator pools that held the whole split empty out once
    the block is done with, rather than staying pinned by the kept ones.
    """
    return "\n".join(strings).split("\n")


def _bulk_nodes(path: Path) -> NodeColumns:
    width = len(NODE_HEADER)
    ids = []
    id_index: dict[str, int] = {}
    first_seen: dict[str, int] = {}  # jurisdiction -> code, numbered in order of first use
    codes = array("i")

    def jurisdiction_code(raw: str) -> int:
        return first_seen.setdefault(_jurisdiction(raw), len(first_seen))

    code_of: dict[str, int] = {}  # raw jurisdiction field -> code
    valid_flags: set[str] = set()  # raw is_hq fields that parse
    for fields in _bulk_blocks(path, NODE_HEADER):
        block_ids = _fresh_copies(map(str.strip, fields[0::width]))
        id_index.update(zip(block_ids, range(len(ids), len(ids) + len(block_ids))))
        ids += block_ids
        if len(id_index) != len(ids) or "" in id_index:
            raise _Irregular
        codes.extend(_mapped(fields[1::width], code_of, jurisdiction_code))
        for raw in set(fields[4::width]).difference(valid_flags):  # validated, not kept
            _parse_bool(raw, path, None)
            valid_flags.add(raw)
    return _node_columns(ids, id_index, first_seen, np.asarray(codes))


def _bulk_edges(path: Path, id_index: dict[str, int]) -> EdgeLoadResult:
    width = len(EDGE_HEADER)
    src, dst, pct = [], [], []
    self_loops = blank_pct = 0
    for fields in _bulk_blocks(path, EDGE_HEADER):
        rows = len(fields) // width
        try:
            s = np.fromiter(map(id_index.__getitem__, map(str.strip, fields[0::width])), np.int32, rows)
            d = np.fromiter(map(id_index.__getitem__, map(str.strip, fields[1::width])), np.int32, rows)
        except KeyError:
            raise _Irregular from None
        raw = list(map(str.strip, fields[2::width]))
        blank_pct += raw.count("")
        try:  # a blank pct reads as 0.0: {"": "0"}.get(x, x) is "0" for "" and x otherwise
            value = np.fromiter(map(float, map({"": "0"}.get, raw, raw)), np.float64, rows)
        except ValueError:
            raise _Irregular from None
        if not ((value >= 0.0) & (value <= 100.0)).all():
            raise _Irregular
        keep = s != d
        self_loops += rows - int(keep.sum())
        src.append(s[keep])
        dst.append(d[keep])
        pct.append(value[keep])
    edges = EdgeColumns(_joined(src, np.int32), _joined(dst, np.int32), _joined(pct, np.float64))
    return EdgeLoadResult(edges=edges, self_loops_dropped=self_loops, blank_pct=blank_pct)


def load_nodes(path) -> NodeColumns:
    """Read a node CSV (``node_id,jurisdiction,nace_section,name,is_hq``) into
    id and jurisdiction columns; the last three fields are validated, not kept.

    Empty and duplicate node ids and malformed rows, a bad ``is_hq`` too, are
    rejected with the line number. A plain file (no quoting, LF line ends) is
    parsed a block at a time; any other file, or one that fails a check, is
    read row by row.
    """
    path = Path(path)
    try:
        return _bulk_nodes(path)
    except (_Irregular, LoadError):  # a bad bool: the row loop reports it with its line
        return _row_nodes(path)


def load_edges(path, id_index: dict[str, int]) -> EdgeLoadResult:
    """Read an edge CSV (``subsidiary_id,shareholder_id,pct``) into index columns.

    Endpoints are mapped through ``id_index`` (see :func:`load_nodes`); an
    unknown id is rejected with the line number. Self-loops are dropped and
    counted rather than rejected. A blank pct is ingested as 0.0 (never
    substantial) and counted. Plain files take the bulk parse, as in
    :func:`load_nodes`.
    """
    path = Path(path)
    try:
        if "" in id_index:  # the row loop rejects an empty endpoint before the lookup
            raise _Irregular
        return _bulk_edges(path, id_index)
    except _Irregular:
        return _row_edges(path, id_index)


class _Adjacency:
    """Shared read API over canonical edge arrays.

    ``src``/``dst`` and the per-edge values (``pct`` on graphs and views)
    are sorted by (src, dst). ``in_order`` permutes edge positions into
    (dst, src) order so both directions can be walked from the same arrays.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    out_indptr: np.ndarray
    in_indptr: np.ndarray
    in_order: np.ndarray
    in_sources: np.ndarray

    def _index_edges(self, n: int, src: np.ndarray, dst: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Store and index the edges; returns ``values`` in the same order."""
        order = canonical_edge_order(src, dst, n)
        self.n_nodes = n
        self.src = freeze(src[order])
        self.dst = freeze(dst[order])
        self.out_indptr = freeze(build_indptr(self.src, n))
        self.in_order = freeze(canonical_edge_order(self.dst, self.src, n))
        self.in_indptr = freeze(build_indptr(self.dst[self.in_order], n))
        self.in_sources = freeze(self.src[self.in_order])
        return freeze(values[order])

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])

    def out_degrees(self) -> np.ndarray:
        """Per-node number of shareholders (capital leaving)."""
        return np.diff(self.out_indptr).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """Per-node number of subsidiaries owned (capital entering)."""
        return np.diff(self.in_indptr).astype(np.int64)


class OwnershipGraph(_Adjacency):
    """Immutable directed shareholding graph with node metadata.

    Built once from node and edge columns (by :func:`load_graph`,
    :func:`build_graph`, :func:`load_cache` or :func:`induced_subgraph`);
    afterwards every array is write-protected and the object is safe for
    unrestricted concurrent reads.
    """

    def __init__(self, nodes: NodeColumns, edges: EdgeColumns, counters: dict[str, int]):
        self.ids: list[str] = nodes.ids
        self.id_index: dict[str, int] = nodes.id_index
        labels = nodes.jurisdiction_labels
        self.jurisdiction_labels: list[str] = labels
        self.jurisdiction_index = freeze(np.asarray(nodes.jurisdiction_index, dtype=np.int32))
        self.na_jurisdiction = labels.index(NA_JURISDICTION) if NA_JURISDICTION in labels else -1
        self.ingest_counters: dict[str, int] = dict(counters)
        self.pct = self._index_edges(len(nodes), edges.src, edges.dst, edges.pct)

    # -- metadata access -------------------------------------------------
    def index_of(self, node_id: str) -> int:
        try:
            return self.id_index[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id!r}") from None

    def jurisdiction_of(self, i: int) -> str:
        return self.jurisdiction_labels[self.jurisdiction_index[i]]


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
        self.pct = self._index_edges(graph.n_nodes, graph.src[keep], graph.dst[keep], graph.pct[keep])


def build_graph(nodes, edges) -> OwnershipGraph:
    """Assemble the immutable graph from in-memory :class:`NodeRecord` and
    :class:`OwnershipEdge` records.

    Duplicate node ids and edges referencing unknown nodes are rejected.
    """
    ids = [node.node_id for node in nodes]
    id_index = {node_id: i for i, node_id in enumerate(ids)}
    if len(id_index) != len(ids):
        raise GraphError("duplicate node ids")
    labels = sorted({node.jurisdiction for node in nodes})
    code = {label: i for i, label in enumerate(labels)}
    columns = NodeColumns(ids, id_index, labels, [code[node.jurisdiction] for node in nodes])
    try:
        rows = [(id_index[edge.subsidiary], id_index[edge.shareholder], edge.pct) for edge in edges]
    except KeyError as exc:
        raise GraphError(f"edge references unknown node {exc.args[0]!r}") from None
    table = np.array(rows, dtype=np.float64).reshape(-1, 3)
    edge_columns = EdgeColumns(table[:, 0].astype(np.int32), table[:, 1].astype(np.int32), table[:, 2])
    return OwnershipGraph(columns, edge_columns, {"self_loops_dropped": 0, "blank_pct": 0})


def load_graph(nodes_path, edges_path) -> OwnershipGraph:
    """Parse both CSVs and build the graph."""
    nodes = load_nodes(nodes_path)
    result = load_edges(edges_path, nodes.id_index)
    counters = {"self_loops_dropped": result.self_loops_dropped, "blank_pct": result.blank_pct}
    return OwnershipGraph(nodes, result.edges, counters)


def substantial_view(graph: OwnershipGraph, threshold: float = 10.0) -> SubstantialView:
    """Edges with pct >= threshold (default: the 10% substantial-link rule)."""
    return SubstantialView(graph, threshold)


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

    Kept nodes retain their ids, jurisdictions and relative order; only the
    jurisdiction labels they use are kept. Unknown ids are rejected.
    """
    indexes = np.array(sorted({graph.index_of(node_id) for node_id in node_ids}), dtype=np.int64)
    keep = np.zeros(graph.n_nodes, dtype=bool)
    keep[indexes] = True
    remap = np.full(graph.n_nodes, -1, dtype=np.int64)
    remap[indexes] = np.arange(len(indexes))

    ids = [graph.ids[i] for i in indexes]
    labels = graph.jurisdiction_labels
    used, jurisdiction_index = dense_relabel(graph.jurisdiction_index[indexes], len(labels))
    nodes = NodeColumns(ids, {node_id: i for i, node_id in enumerate(ids)},
                        [labels[u] for u in used], jurisdiction_index)
    mask = keep[graph.src] & keep[graph.dst]
    edges = EdgeColumns(remap[graph.src[mask]].astype(np.int32), remap[graph.dst[mask]].astype(np.int32),
                        graph.pct[mask])
    return OwnershipGraph(nodes, edges, graph.ingest_counters)


# -- canonical CSV and JSON emit -------------------------------------------

def write_csv_rows(path, header, rows) -> None:
    """Write rows with deterministic quoting and unix line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


EMIT_ROWS = 1 << 16  # rows per formatted chunk of write_id_value_csv


def write_id_value_csv(path, header, ids: list, values: list) -> None:
    """Rows ``(ids[i], values[i])`` of str or int fields, byte for byte as
    :func:`write_csv_rows` writes them. Each chunk of rows is formatted as
    one string, and handed to ``csv.writer`` only if a field needs quoting."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(ids), EMIT_ROWS):
            chunk_ids, chunk_values = ids[start:start + EMIT_ROWS], values[start:start + EMIT_ROWS]
            text = "".join(map("{},{}\n".format, chunk_ids, chunk_values))
            rows = len(chunk_ids)
            if text.count(",") == rows and text.count("\n") == rows and not ('"' in text or "\r" in text):
                handle.write(text)
            else:
                writer.writerows(zip(chunk_ids, chunk_values))


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- binary cache --------------------------------------------------------

def _pack_strings(strings) -> tuple[np.ndarray, np.ndarray]:
    """The utf-8 bytes of all ``strings`` back to back, and the offsets of each."""
    joined = "".join(strings)
    if joined.isascii():  # one byte per character: lengths and bytes in bulk
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
        data = joined.encode("ascii")
    else:
        encoded = [s.encode("utf-8") for s in strings]
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        data = b"".join(encoded)
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return np.frombuffer(data, dtype=np.uint8).copy(), offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray, field: str, path) -> list[str]:
    """The strings :func:`_pack_strings` packed for cache field ``field``;
    ``offsets`` must run from 0 to the blob's end without decreasing."""
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != blob.size \
            or (offsets[1:] < offsets[:-1]).any():
        raise LoadError(f"cache field {field!r} has offsets that do not delimit its {blob.size}-byte blob",
                        path)
    raw = blob.tobytes()
    if len(offsets) > 1 and raw.isascii() and b"\n" not in raw:
        # one newline between strings, then one decode and one split
        return np.insert(blob, offsets[1:-1], ord("\n")).tobytes().decode("ascii").split("\n")
    bounds = offsets.tolist()
    return [raw[start:end].decode("utf-8") for start, end in zip(bounds, bounds[1:])]


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_cache(graph: OwnershipGraph, path, digests: tuple[str, str] = ("", "")) -> None:
    """Persist the built graph to a versioned npz cache, keyed on ``digests``:
    the sha256 of the node and edge CSVs it was parsed from (default: none)."""
    ids_blob, ids_off = _pack_strings(graph.ids)
    jur_blob, jur_off = _pack_strings(graph.jurisdiction_labels)
    np.savez(
        path,
        version=np.int64(CACHE_VERSION),
        nodes_sha256=np.array(digests[0]),
        edges_sha256=np.array(digests[1]),
        ids_blob=ids_blob,
        ids_off=ids_off,
        jur_blob=jur_blob,
        jur_off=jur_off,
        jur_index=graph.jurisdiction_index,
        src=graph.src,
        dst=graph.dst,
        pct=graph.pct,
        self_loops_dropped=np.int64(graph.ingest_counters.get("self_loops_dropped", 0)),
        blank_pct=np.int64(graph.ingest_counters.get("blank_pct", 0)),
    )


def load_cache(path) -> OwnershipGraph:
    """Load a graph cache written by :func:`save_cache`.

    Field lengths, node and label index ranges and pct values are checked;
    a violation raises a :class:`LoadError` naming the field.
    """
    try:
        data = np.load(path)
    except OSError as exc:
        raise LoadError(str(exc), path) from exc
    with data:
        version = int(data["version"])
        if version != CACHE_VERSION:
            raise LoadError(f"cache version {version} unsupported (expected {CACHE_VERSION})", path)
        ids = _unpack_strings(data["ids_blob"], data["ids_off"], "ids", path)
        labels = _unpack_strings(data["jur_blob"], data["jur_off"], "jur", path)
        fields = {key: data[key] for key in ("jur_index", "src", "dst", "pct")}
        counters = {key: int(data[key]) for key in ("self_loops_dropped", "blank_pct")}

    n, m = len(ids), len(fields["src"])
    for field in ("jur_index", "dst", "pct"):
        expected = m if field in ("dst", "pct") else n
        if len(fields[field]) != expected:
            raise LoadError(f"cache field {field!r} has {len(fields[field])} entries, not {expected}", path)
    for field, bound in (("src", n), ("dst", n), ("jur_index", len(labels))):
        values = fields[field]
        if values.size and (values.min() < 0 or values.max() >= bound):
            raise LoadError(f"cache field {field!r} holds values outside [0, {bound})", path)
    if not np.all((fields["pct"] >= 0.0) & (fields["pct"] <= 100.0)):
        raise LoadError("cache field 'pct' holds values outside [0, 100]", path)
    id_index = dict(zip(ids, range(n)))
    if len(id_index) != n:
        raise LoadError("cache field 'ids' holds duplicate node ids", path)

    nodes = NodeColumns(ids, id_index, labels, fields["jur_index"])
    src, dst = fields["src"].astype(np.int32, copy=False), fields["dst"].astype(np.int32, copy=False)
    edges = EdgeColumns(src, dst, fields["pct"].astype(np.float64, copy=False))
    return OwnershipGraph(nodes, edges, counters)


def load_or_build(nodes_path, edges_path, cache_path) -> tuple[OwnershipGraph, tuple[str, str] | None]:
    """The graph of the two CSVs, from ``cache_path`` only if that cache has this
    ``CACHE_VERSION`` and was saved with the inputs' sha256 digests.

    Otherwise (absent, older, stale or unreadable cache) the CSVs are parsed,
    and their digests are returned for :func:`save_cache`; else None.
    """
    digests = (_sha256(nodes_path), _sha256(edges_path))
    try:
        with np.load(cache_path) as data:
            current = (int(data["version"]) == CACHE_VERSION
                       and (data["nodes_sha256"].item(), data["edges_sha256"].item()) == digests)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        current = False
    if current:
        return load_cache(cache_path), None
    return load_graph(nodes_path, edges_path), digests
