"""Ownership-graph core: ingest, immutable bidirectional adjacency, views.

Edges are stored in capital-flow orientation: a record "company u is owned
by shareholder v" becomes the directed edge u -> v, so dividends travel
along edge direction and a node's in-degree counts the subsidiaries it
owns. All node ids are opaque strings mapped to dense integer indexes at
build time; every analysis module works on the indexes and joins back
through ``ids``, one packed :class:`IdColumn`: the graph holds no Python
object per node.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import zipfile
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from ._csr import build_indptr, canonical_edge_order, dense_relabel, freeze
from .errors import GraphError, LoadError

NA_JURISDICTION = "n.a."
SUBSTANTIAL_PCT = 10.0  # the paper's substantial-link rule: a stake that can give significant influence

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


# -- node ids: one packed column with a sorted 64-bit key index ----------------

EMIT_ROWS = 1 << 16  # ids per chunk of IdColumn work: key mixing, gathering, decoding and writing

_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)  # the low r bytes of a word


def _padded(data) -> np.ndarray:
    """The bytes of ``data`` (bytes or a uint8 array) and 8 zero bytes, as a uint8 array."""
    out = np.zeros(len(data) + 8, dtype=np.uint8)
    out[:len(data)] = np.frombuffer(data, dtype=np.uint8)
    return out


def _word_reader(padded: np.ndarray) -> np.ndarray:
    """``reader[p]``: bytes ``p`` to ``p + 8`` of ``padded`` (see :func:`_padded`)
    as one little-endian uint64, for every ``p`` up to the end of its data."""
    return np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))


def _n_words(lengths: np.ndarray) -> int:
    return (int(lengths.max()) + 7) // 8 if lengths.size else 0


def _word(reader: np.ndarray, starts: np.ndarray, lengths: np.ndarray, w: int) -> np.ndarray:
    """Word ``w`` of every id (``lengths[i]`` bytes from ``starts[i]``), zero-padded; 0 past its end."""
    rest = np.clip(lengths - 8 * w, 0, 8)
    return reader[np.minimum(starts + 8 * w, len(reader) - 1)] & _LOW_BYTES[rest]


def _mix(reader: np.ndarray, starts: np.ndarray, lengths: np.ndarray, multiplier: np.uint64) -> np.ndarray:
    """One uint64 key per id: its words mixed in order, then its length.

    Equal ids get equal keys under every multiplier; two different ids share
    a key only by chance, which a different multiplier undoes.
    """
    key = np.zeros(len(starts), dtype=np.uint64)
    for w in range(_n_words(lengths)):
        step = (key ^ _word(reader, starts, lengths, w)) * multiplier
        step ^= step >> np.uint64(29)
        key = np.where(lengths > 8 * w, step, key)
    return (key ^ lengths.astype(np.uint64)) * multiplier


def _multiplier(attempt: int) -> np.uint64:
    """The odd multiplier of key-mixing attempt ``attempt`` (0, 1, ...)."""
    return np.uint64(0x9E3779B97F4A7C15 * (2 * attempt + 1) % (1 << 64))


def _keys(reader: np.ndarray, starts: np.ndarray, lengths: np.ndarray, multiplier: np.uint64) -> np.ndarray:
    """:func:`_mix` over ``EMIT_ROWS`` ids at a time, so its temporaries stay small."""
    parts = [_mix(reader, starts[i:i + EMIT_ROWS], lengths[i:i + EMIT_ROWS], multiplier)
             for i in range(0, len(starts), EMIT_ROWS)]
    return _joined(parts, np.uint64)


def _same_bytes(reader_a: np.ndarray, starts_a: np.ndarray, reader_b: np.ndarray, starts_b: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """Whether ``lengths[i]`` bytes from ``starts_a[i]`` of ``reader_a`` equal as many
    from ``starts_b[i]`` of ``reader_b`` (two :func:`_word_reader` arrays), word by word."""
    same = np.ones(len(lengths), dtype=bool)
    for w in range(_n_words(lengths)):
        same &= _word(reader_a, starts_a, lengths, w) == _word(reader_b, starts_b, lengths, w)
    return same


def _spans(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``data[starts[i]:starts[i] + lengths[i]]`` for every i, back to back."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return data[np.arange(total) + np.repeat(starts - (ends - lengths), lengths)]


def _offsets(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


class IdColumn(Sequence):
    """Node ids as one read-only column of str, with no Python object per id.

    The ids' UTF-8 bytes lie back to back in ``blob``; id ``i`` is
    ``blob[offsets[i]:offsets[i + 1]]``, as :func:`save_cache` stores it.
    Lookups search a sorted array of one uint64 key per id (:func:`_mix`),
    and every hit is confirmed by comparing lengths and words. When two ids
    share a key, all keys are mixed again with the next multiplier.
    Duplicate ids raise :class:`GraphError`.
    """

    def __init__(self, blob: np.ndarray, offsets: np.ndarray, keys: np.ndarray | None = None):
        """``keys``, if given, are the ids' keys under the first multiplier."""
        self._bytes = _padded(blob)
        self._reader = _word_reader(self._bytes)
        self.blob = freeze(self._bytes[:-8])
        self.offsets = freeze(np.asarray(offsets, dtype=np.int64))
        starts, lengths = self.offsets[:-1], np.diff(self.offsets)
        attempt = 0
        while True:
            self._multiplier = _multiplier(attempt)
            if keys is None:
                keys = _keys(self._reader, starts, lengths, self._multiplier)
            order = np.argsort(keys)
            sorted_keys = keys[order]
            tied = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
            if tied.size == 0:
                break
            second = order[tied + 1]
            if self._matches(order[tied], self._reader, starts[second], lengths[second]).any():
                raise GraphError("duplicate node ids")
            attempt, keys = attempt + 1, None  # only key collisions: mix again
        self._sorted_keys = freeze(sorted_keys)
        self._order = freeze(order)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> str:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("node index out of range")
        return self.blob[self.offsets[i]:self.offsets[i + 1]].tobytes().decode("utf-8")

    def __iter__(self):
        for start in range(0, len(self), EMIT_ROWS):
            yield from self.take(np.arange(start, min(start + EMIT_ROWS, len(self))))

    def take(self, indexes) -> list[str]:
        """The ids at ``indexes`` (a chunk of them), in that order: one gather,
        one decode and one split."""
        indexes = np.asarray(indexes, dtype=np.int64)
        if indexes.size and (indexes.min() < 0 or indexes.max() >= len(self)):
            raise IndexError("node index out of range")
        starts = self.offsets[indexes]
        lengths = self.offsets[indexes + 1] - starts + 1  # each id and the byte after it, made a newline
        joined = _spans(self._bytes, starts, lengths)
        joined[np.cumsum(lengths) - 1] = ord("\n")
        parts = joined.tobytes().decode("utf-8").split("\n")
        parts.pop()
        if len(parts) != len(indexes):  # some id holds a newline
            return [self[i] for i in indexes.tolist()]
        return parts

    def subset(self, indexes: np.ndarray) -> IdColumn:
        """The column of the (distinct) ids at ``indexes``, in that order."""
        starts = self.offsets[indexes]
        lengths = self.offsets[indexes + 1] - starts
        parts = [_spans(self._bytes, starts[i:i + EMIT_ROWS], lengths[i:i + EMIT_ROWS])
                 for i in range(0, len(starts), EMIT_ROWS)]
        return IdColumn(_joined(parts, np.uint8), _offsets(lengths))

    def indexes_of(self, ids) -> np.ndarray:
        """The index of every id in ``ids`` (an iterable of str); -1 for one that is no node id."""
        blob, offsets = _pack_strings(list(ids))
        return self._find(_word_reader(_padded(blob)), offsets[:-1], np.diff(offsets))

    def _find(self, reader: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The index of every query id (``lengths[i]`` bytes from ``starts[i]`` of
        ``reader``), -1 where there is none: the keys are sorted, searched with
        one ``searchsorted``, and every hit confirmed."""
        found = np.full(len(starts), -1, dtype=np.int64)
        if len(self) == 0 or len(starts) == 0:
            return found
        keys = _keys(reader, starts, lengths, self._multiplier)
        by_key = np.argsort(keys)
        keys = keys[by_key]
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self) - 1)
        index = self._order[pos]
        hit = self._sorted_keys[pos] == keys
        hit &= self._matches(index, reader, starts[by_key], lengths[by_key])
        found[by_key[hit]] = index[hit]
        return found

    def _matches(self, index: np.ndarray, reader: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Whether id ``index[i]`` has the bytes of query ``i`` (as in :meth:`_find`)."""
        own = self.offsets[index]
        return (self.offsets[index + 1] - own == lengths) & _same_bytes(self._reader, own, reader, starts, lengths)


@dataclass(frozen=True)
class NodeColumns:
    """Node ids and jurisdictions as parallel columns; ``jurisdiction_index``
    points into the sorted labels."""

    ids: IdColumn
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


def id_pair_rows(path: Path, header: list[str], ids: IdColumn):
    """``(line, row, i, j)`` per row of :func:`data_rows`: ``i`` and ``j`` index its
    first two fields, stripped, in ``ids`` (-1 if unknown), one ``indexes_of`` call
    per ``EMIT_ROWS`` rows. A malformed row fails after the rows before it."""
    rows = data_rows(path, header)
    while True:
        lines, fields, failure = [], [], None
        try:
            for line, row in islice(rows, EMIT_ROWS):
                lines.append(line)
                fields.append(row)
        except LoadError as exc:
            failure = exc
        found = ids.indexes_of([row[k].strip() for row in fields for k in (0, 1)])
        yield from zip(lines, fields, found[0::2].tolist(), found[1::2].tolist())
        if failure is not None:
            raise failure
        if len(lines) < EMIT_ROWS:
            return


def _jurisdiction(raw: str) -> str:
    """A jurisdiction field: stripped, and ``NA_JURISDICTION`` if blank."""
    return raw.strip() or NA_JURISDICTION


def _row_nodes(path: Path) -> NodeColumns:
    """:func:`load_nodes` one ``csv.reader`` row at a time: the definition of a
    valid node file, and the path that reports the first bad line."""
    ids = []
    seen: set[str] = set()
    first_seen: dict[str, int] = {}  # jurisdiction -> code, numbered in order of first use
    codes = array("i")
    for line, row in data_rows(path, NODE_HEADER):
        node_id = row[0].strip()
        if not node_id:
            raise LoadError("empty node_id", path, line)
        if node_id in seen:
            raise LoadError(f"duplicate node_id {node_id!r}", path, line)
        seen.add(node_id)
        ids.append(node_id)
        codes.append(first_seen.setdefault(_jurisdiction(row[1]), len(first_seen)))
        _parse_bool(row[4], path, line)  # validated, not kept
    return _node_columns(IdColumn(*_pack_strings(ids)), first_seen, np.asarray(codes))


def _node_columns(ids: IdColumn, first_seen, codes) -> NodeColumns:
    """Node columns with jurisdictions renumbered from order of first use to sorted order."""
    labels = sorted(first_seen)
    rank = np.empty(len(labels), dtype=np.int32)
    rank[[first_seen[label] for label in labels]] = np.arange(len(labels))
    return NodeColumns(ids, labels, rank[codes])


def _row_edges(path: Path, ids: IdColumn) -> EdgeLoadResult:
    """:func:`load_edges` one ``csv.reader`` row at a time: the definition of a
    valid edge file, and the path that reports the first bad line."""
    src, dst, pct = array("i"), array("i"), array("d")
    self_loops = blank_pct = 0
    for line, row, s, d in id_pair_rows(path, EDGE_HEADER, ids):
        sub, sh = row[0].strip(), row[1].strip()
        if not sub or not sh:
            raise LoadError("empty endpoint id", path, line)
        if s < 0:
            raise LoadError(f"unknown node_id {sub!r}", path, line)
        if d < 0:
            raise LoadError(f"unknown node_id {sh!r}", path, line)
        raw_pct = row[2].strip()
        blank_pct += raw_pct == ""
        try:
            value = float(raw_pct or "0")  # a blank pct reads as 0.0
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


def _split_block(block: bytes, width: int) -> np.ndarray:
    """The field bounds of every line of ``block`` (newline-terminated): field
    ``j`` of row ``i`` is ``block[bounds[i, j] + 1:bounds[i, j + 1]]``.

    Only plain lines are split: no quote, CR or NUL byte, exactly
    ``width - 1`` commas each (so no blank line), and no field longer than
    the csv module accepts. ``csv.reader`` splits such a line at its commas
    alone, so both parses agree; anything else, and a block that is not
    UTF-8, raises :class:`_Irregular`.
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
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            raise _Irregular from None
    return bounds


def _bulk_blocks(path: Path, header: list[str]):
    """Per block of data rows, its bytes (:func:`_padded`) and field bounds
    (:func:`_split_block`).

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
                bounds = _split_block(block, width)
                if first:
                    names = [block[bounds[0, j] + 1:bounds[0, j + 1]].decode("utf-8").strip() for j in range(width)]
                    if names != header:
                        raise _Irregular
                    bounds = bounds[1:]
                    first = False
                if bounds.size:
                    yield _padded(block), bounds
            if not chunk:
                break
        if first:  # an empty file: no header
            raise _Irregular


_ASCII_SPACE = np.array([b < 128 and chr(b).isspace() for b in range(256)])  # bytes that str.strip removes
# the UTF-8 of every other character that str.strip removes; U+3000 is the last
_WIDE_SPACES = tuple(c.encode("utf-8") for c in map(chr, range(128, 0x3001)) if c.isspace())


def _id_spans(buf: np.ndarray, bounds: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of field ``j`` of every row, as ``str.strip`` leaves it.

    An id left empty, or with non-ASCII white space at either end, raises
    :class:`_Irregular`: the row loop reads such a file.
    """
    lo, hi = bounds[:, j] + 1, bounds[:, j + 1].copy()
    moving = np.flatnonzero(_ASCII_SPACE[buf[lo]] & (lo < hi))
    while moving.size:
        lo[moving] += 1
        moving = moving[_ASCII_SPACE[buf[lo[moving]]] & (lo[moving] < hi[moving])]
    moving = np.flatnonzero(_ASCII_SPACE[buf[hi - 1]] & (lo < hi))
    while moving.size:
        hi[moving] -= 1
        moving = moving[_ASCII_SPACE[buf[hi[moving] - 1]] & (lo[moving] < hi[moving])]
    if (lo == hi).any():
        raise _Irregular
    for i in np.flatnonzero((buf[lo] >= 0x80) | (buf[hi - 1] >= 0x80)).tolist():
        field = buf[lo[i]:hi[i]].tobytes()
        if field.startswith(_WIDE_SPACES) or field.endswith(_WIDE_SPACES):
            raise _Irregular
    return lo, hi - lo


def _distinct_fields(buf: np.ndarray, reader: np.ndarray, bounds: np.ndarray, j: int) -> tuple[list[str], np.ndarray]:
    """Field ``j`` of every row, unstripped, factorised: the distinct raw fields
    as str and one inverse per row, so that row ``i`` holds ``raws[inverse[i]]``.

    Rows are grouped by :func:`_keys` (``reader`` is ``buf``'s :func:`_word_reader`),
    and every row's bytes are checked against its group's representative. If
    two different fields share a key, all keys are mixed again with the next
    multiplier, as in :class:`IdColumn`.
    """
    starts = bounds[:, j] + 1
    lengths = bounds[:, j + 1] - starts
    attempt = 0
    while True:
        distinct, inverse = np.unique(_keys(reader, starts, lengths, _multiplier(attempt)), return_inverse=True)
        sample = np.empty(len(distinct), dtype=np.int64)
        sample[inverse] = np.arange(len(inverse))  # any row of each group serves as its representative
        rep = sample[inverse]
        if ((lengths[rep] == lengths) & _same_bytes(reader, starts[rep], reader, starts, lengths)).all():
            break
        attempt += 1
    raws = [buf[start:start + length].tobytes().decode("utf-8")
            for start, length in zip(starts[sample].tolist(), lengths[sample].tolist())]
    return raws, inverse


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _bulk_nodes(path: Path) -> NodeColumns:
    # jurisdiction -> code in any order: _node_columns renumbers codes to sorted-label order
    first_seen: dict[str, int] = {}
    blobs, lengths, keys, codes = [], [], [], []
    for buf, bounds in _bulk_blocks(path, NODE_HEADER):
        reader = _word_reader(buf)
        starts, length = _id_spans(buf, bounds, 0)
        blobs.append(_spans(buf, starts, length))
        lengths.append(length)
        keys.append(_keys(reader, starts, length, _multiplier(0)))
        raws, inverse = _distinct_fields(buf, reader, bounds, 1)
        code = [first_seen.setdefault(_jurisdiction(raw), len(first_seen)) for raw in raws]
        codes.append(np.array(code, dtype=np.int32)[inverse])
        for raw in _distinct_fields(buf, reader, bounds, 4)[0]:  # validated, not kept
            _parse_bool(raw, path, None)
    try:
        ids = IdColumn(_joined(blobs, np.uint8), _offsets(_joined(lengths, np.int64)), _joined(keys, np.uint64))
    except GraphError:  # a duplicate id: the row loop reports its line
        raise _Irregular from None
    return _node_columns(ids, first_seen, _joined(codes, np.int32))


def _bulk_edges(path: Path, ids: IdColumn) -> EdgeLoadResult:
    src, dst, pct = [], [], []
    self_loops = blank_pct = 0
    for buf, bounds in _bulk_blocks(path, EDGE_HEADER):
        rows = len(bounds)
        reader = _word_reader(buf)
        sub, sub_length = _id_spans(buf, bounds, 0)
        sh, sh_length = _id_spans(buf, bounds, 1)
        found = ids._find(reader, np.concatenate((sub, sh)), np.concatenate((sub_length, sh_length)))
        if (found < 0).any():  # an unknown id: the row loop reports its line
            raise _Irregular
        s, d = found[:rows].astype(np.int32), found[rows:].astype(np.int32)
        raws, inverse = _distinct_fields(buf, reader, bounds, 2)
        stripped = [raw.strip() for raw in raws]
        try:
            values = np.array([float(raw or "0") for raw in stripped], dtype=np.float64)  # a blank pct reads as 0.0
        except ValueError:
            raise _Irregular from None
        if not ((values >= 0.0) & (values <= 100.0)).all():
            raise _Irregular
        blank_pct += int(np.count_nonzero(np.array([raw == "" for raw in stripped], dtype=bool)[inverse]))
        value = values[inverse]
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
    parsed a block at a time, with no str made for an id; any other file, or
    one that fails a check, is read row by row.
    """
    path = Path(path)
    try:
        return _bulk_nodes(path)
    except (_Irregular, LoadError):  # a bad bool: the row loop reports it with its line
        return _row_nodes(path)


def load_edges(path, ids: IdColumn) -> EdgeLoadResult:
    """Read an edge CSV (``subsidiary_id,shareholder_id,pct``) into index columns.

    Endpoints are looked up in ``ids`` (see :func:`load_nodes`); an unknown
    id is rejected with the line number. Self-loops are dropped and counted
    rather than rejected. A blank pct is ingested as 0.0 (never substantial)
    and counted. Plain files take the bulk parse, as in :func:`load_nodes`.
    """
    path = Path(path)
    try:
        return _bulk_edges(path, ids)
    except _Irregular:
        return _row_edges(path, ids)


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

    def _index_edges(self, n: int, src: np.ndarray, dst: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Store and index the edges; returns ``values`` in the same order. The
        reverse index is built on its first read: a warm run never walks the
        full graph backwards."""
        order = canonical_edge_order(src, dst, n)
        self.n_nodes = n
        self.src = freeze(src[order])
        self.dst = freeze(dst[order])
        self.out_indptr = freeze(build_indptr(self.src, n))
        return freeze(values[order])

    @cached_property
    def in_order(self) -> np.ndarray:
        return freeze(canonical_edge_order(self.dst, self.src, self.n_nodes))

    @cached_property
    def in_indptr(self) -> np.ndarray:
        return freeze(build_indptr(self.dst, self.n_nodes))  # counts per node: the edge order does not matter

    @cached_property
    def in_sources(self) -> np.ndarray:
        return freeze(self.src[self.in_order])

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
        self.ids: IdColumn = nodes.ids
        labels = nodes.jurisdiction_labels
        self.jurisdiction_labels: list[str] = labels
        self.jurisdiction_index = freeze(np.asarray(nodes.jurisdiction_index, dtype=np.int32))
        self.na_jurisdiction = labels.index(NA_JURISDICTION) if NA_JURISDICTION in labels else -1
        self.ingest_counters: dict[str, int] = dict(counters)
        self.pct = self._index_edges(len(nodes), edges.src, edges.dst, edges.pct)

    # -- metadata access -------------------------------------------------
    def index_of(self, node_id: str) -> int:
        index = int(self.ids.indexes_of([node_id])[0])
        if index < 0:
            raise GraphError(f"unknown node id {node_id!r}")
        return index

    def jurisdiction_of(self, i: int) -> str:
        return self.jurisdiction_labels[self.jurisdiction_index[i]]


class SubstantialView(_Adjacency):
    """Edge-filtered view keeping only shareholdings of at least ``SUBSTANTIAL_PCT``.

    Shares node indexes and metadata with the parent graph; only the edge
    arrays are filtered (and re-indexed). Immutable like the parent.
    """

    def __init__(self, graph: OwnershipGraph):
        self.graph = graph
        keep = graph.pct >= SUBSTANTIAL_PCT
        self.pct = self._index_edges(graph.n_nodes, graph.src[keep], graph.dst[keep], graph.pct[keep])


def build_graph(nodes, edges) -> OwnershipGraph:
    """Assemble the immutable graph from in-memory :class:`NodeRecord` and
    :class:`OwnershipEdge` records.

    Duplicate node ids, edges referencing unknown nodes and a pct that is not
    a number in [0, 100] are rejected, as ingest rejects them.
    """
    ids = IdColumn(*_pack_strings([node.node_id for node in nodes]))
    labels = sorted({node.jurisdiction for node in nodes})
    code = {label: i for i, label in enumerate(labels)}
    columns = NodeColumns(ids, labels, np.array([code[node.jurisdiction] for node in nodes], dtype=np.int32))
    edges = list(edges)
    names = [name for edge in edges for name in (edge.subsidiary, edge.shareholder)]
    ends = ids.indexes_of(names)
    unknown = np.flatnonzero(ends < 0)
    if unknown.size:
        raise GraphError(f"edge references unknown node {names[unknown[0]]!r}")
    ends = ends.astype(np.int32).reshape(-1, 2)
    pct = np.array([edge.pct for edge in edges], dtype=np.float64)
    bad = np.flatnonzero(~((pct >= 0.0) & (pct <= 100.0)))  # NaN fails both comparisons
    if bad.size:
        raise GraphError(f"edge pct {pct[bad[0]]} outside [0, 100]")
    edge_columns = EdgeColumns(ends[:, 0].copy(), ends[:, 1].copy(), pct)
    return OwnershipGraph(columns, edge_columns, {"self_loops_dropped": 0, "blank_pct": 0})


def load_graph(nodes_path, edges_path) -> OwnershipGraph:
    """Parse both CSVs and build the graph."""
    nodes = load_nodes(nodes_path)
    result = load_edges(edges_path, nodes.ids)
    counters = {"self_loops_dropped": result.self_loops_dropped, "blank_pct": result.blank_pct}
    return OwnershipGraph(nodes, result.edges, counters)


def substantial_view(graph: OwnershipGraph) -> SubstantialView:
    """Edges with pct >= ``SUBSTANTIAL_PCT``: the 10% substantial-link rule."""
    return SubstantialView(graph)


def induced_subgraph(graph: OwnershipGraph, nodes) -> OwnershipGraph:
    """Subgraph on ``nodes`` with exactly the internal edges: node ids, or an
    integer array of node indexes.

    Kept nodes retain their ids, jurisdictions and relative order; only the
    jurisdiction labels they use are kept. Unknown ids are rejected.
    """
    if not (isinstance(nodes, np.ndarray) and nodes.dtype.kind in "iu"):
        node_ids = list(nodes)
        nodes = graph.ids.indexes_of(node_ids)
        unknown = np.flatnonzero(nodes < 0)
        if unknown.size:
            raise GraphError(f"unknown node id {node_ids[unknown[0]]!r}")
    keep = np.zeros(graph.n_nodes, dtype=bool)
    keep[nodes] = True
    indexes = np.flatnonzero(keep)
    remap = np.full(graph.n_nodes, -1, dtype=np.int64)
    remap[indexes] = np.arange(len(indexes))

    labels = graph.jurisdiction_labels
    used, jurisdiction_index = dense_relabel(graph.jurisdiction_index[indexes], len(labels))
    columns = NodeColumns(graph.ids.subset(indexes), [labels[u] for u in used], jurisdiction_index)
    mask = keep[graph.src] & keep[graph.dst]
    edges = EdgeColumns(remap[graph.src[mask]].astype(np.int32), remap[graph.dst[mask]].astype(np.int32),
                        graph.pct[mask])
    return OwnershipGraph(columns, edges, graph.ingest_counters)


# -- canonical CSV and JSON emit -------------------------------------------

def write_csv_rows(path, header, rows) -> None:
    """Write rows with deterministic quoting and unix line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_id_value_csv(path, header, ids: IdColumn, codes: np.ndarray, labels: Sequence[str]) -> None:
    """Rows ``(ids[i], labels[codes[i]])``, byte for byte as :func:`write_csv_rows`
    writes them; ``labels`` is indexed by code (region names, community ids).

    Each chunk of ``EMIT_ROWS`` rows is assembled as bytes with one gather: every
    id from the column's blob, then ``,``, its label and a newline. A chunk with
    a ``"`` or CR, or with more commas or newlines than rows, holds a field that
    needs quoting, and goes through ``csv.writer`` instead.
    """
    tails, tail_offsets = _pack_strings([f",{label}\n" for label in labels])
    tail_lengths = np.diff(tail_offsets)
    source = np.concatenate((ids.blob, tails))  # every id, then the tails
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(ids), EMIT_ROWS):
            stop = min(start + EMIT_ROWS, len(ids))
            offsets, chunk = ids.offsets[start:stop + 1], codes[start:stop]
            starts = np.column_stack((offsets[:-1], len(ids.blob) + tail_offsets[chunk]))
            lengths = np.column_stack((np.diff(offsets), tail_lengths[chunk]))
            text = _spans(source, starts.ravel(), lengths.ravel()).tobytes()
            rows = stop - start
            if text.count(b",") == rows and text.count(b"\n") == rows and not (b'"' in text or b"\r" in text):
                handle.write(text.decode("utf-8"))
            else:
                writer.writerows(zip(ids.take(np.arange(start, stop)), [labels[c] for c in chunk.tolist()]))


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
    return np.frombuffer(data, dtype=np.uint8).copy(), _offsets(lengths)


def _check_packed(blob: np.ndarray, offsets: np.ndarray, field: str, path) -> None:
    """Cache field ``field`` as :func:`_pack_strings` packs it: ``offsets`` run
    from 0 to the blob's end without decreasing, and cut UTF-8 between characters."""
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != blob.size \
            or (offsets[1:] < offsets[:-1]).any():
        raise LoadError(f"cache field {field!r} has offsets that do not delimit its {blob.size}-byte blob",
                        path)
    raw = blob.tobytes()
    if not raw.isascii():
        try:
            raw.decode("utf-8")  # checked, not kept
        except UnicodeDecodeError:
            raise LoadError(f"cache field {field!r} is not UTF-8", path) from None
        cuts = offsets[1:-1]
        if ((blob[cuts[cuts < blob.size]] & 0xC0) == 0x80).any():  # a string starts mid-character
            raise LoadError(f"cache field {field!r} is not UTF-8", path)


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray, field: str, path) -> list[str]:
    """The strings :func:`_pack_strings` packed for cache field ``field`` (see :func:`_check_packed`)."""
    _check_packed(blob, offsets, field, path)
    raw, bounds = blob.tobytes(), offsets.tolist()
    return [raw[start:end].decode("utf-8") for start, end in zip(bounds, bounds[1:])]


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_cache(graph: OwnershipGraph, path, digests: tuple[str, str] = ("", "")) -> None:
    """Persist the built graph to a versioned npz cache at exactly ``path``, keyed
    on ``digests``: the sha256 of the node and edge CSVs it was parsed from
    (default: none)."""
    ids_blob, ids_off = graph.ids.blob, graph.ids.offsets
    jur_blob, jur_off = _pack_strings(graph.jurisdiction_labels)
    with open(path, "wb") as handle:  # np.savez appends ".npz" to a path that lacks it, not to a handle
        np.savez(
            handle,
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

    A file that is no readable npz archive, a missing field, and a bad field
    length, index range, label order or pct raise a :class:`LoadError`.
    """
    try:  # the file is opened here: np.load leaks its own handle on a damaged zip
        with open(path, "rb") as handle, np.load(handle) as data:
            fields = {key: data[key] for key in data.files}
    except OSError as exc:
        raise LoadError(str(exc), path) from exc
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:  # no npz archive, or a damaged one
        raise LoadError("not a readable npz archive", path) from exc
    for key in ("version", "ids_blob", "ids_off", "jur_blob", "jur_off", "jur_index", "src", "dst", "pct",
                "self_loops_dropped", "blank_pct"):  # every older version wrote these too
        if key not in fields:
            raise LoadError(f"cache field {key!r} is missing", path)
    version = int(fields["version"])
    if version != CACHE_VERSION:
        raise LoadError(f"cache version {version} unsupported (expected {CACHE_VERSION})", path)
    ids_blob, ids_off = fields["ids_blob"], fields["ids_off"]
    _check_packed(ids_blob, ids_off, "ids", path)
    labels = _unpack_strings(fields["jur_blob"], fields["jur_off"], "jur", path)
    if any(a >= b for a, b in zip(labels, labels[1:])):  # save_cache writes them sorted and unique
        raise LoadError("cache field 'jur' holds labels that are not strictly ascending", path)
    counters = {key: int(fields[key]) for key in ("self_loops_dropped", "blank_pct")}

    n, m = len(ids_off) - 1, len(fields["src"])
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
    try:
        ids = IdColumn(ids_blob, ids_off)
    except GraphError:
        raise LoadError("cache field 'ids' holds duplicate node ids", path) from None

    nodes = NodeColumns(ids, labels, fields["jur_index"])
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
        with open(cache_path, "rb") as handle, np.load(handle) as data:
            current = (int(data["version"]) == CACHE_VERSION
                       and (data["nodes_sha256"].item(), data["edges_sha256"].item()) == digests)
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        current = False
    if current:
        return load_cache(cache_path), None
    return load_graph(nodes_path, edges_path), digests
