import csv
import dataclasses
import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ownet.graph as graph_module
from conftest import in_neighbors, make_graph, out_neighbors
from ownet.errors import GraphError, LoadError
from ownet.graph import (
    IdColumn,
    NodeRecord,
    OwnershipEdge,
    build_graph,
    induced_subgraph,
    load_cache,
    load_edges,
    load_graph,
    load_nodes,
    save_cache,
    substantial_view,
    write_csv_rows,
    write_id_value_csv,
    EDGE_HEADER,
    NODE_HEADER,
    SUBSTANTIAL_PCT,
    _pack_strings,
    _parse_bool,
    _unpack_strings,
)
from ownet.synth import SynthSpec, build_corpus, write_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def id_column(*ids):
    return IdColumn(*_pack_strings(list(ids)))


NODES_2 = "node_id,jurisdiction,nace_section,name,is_hq\nn1,US,C,Acme,0\nn2,NL,K,Holdco,1\n"
IDS_2 = id_column("n1", "n2")


def node_records(columns):
    """The node columns from ``load_nodes`` as one record per row."""
    return [
        NodeRecord(node_id, columns.jurisdiction_labels[code])
        for node_id, code in zip(columns.ids, columns.jurisdiction_index)
    ]


def edge_records(edges, ids):
    """The edge columns from ``load_edges`` as one record per kept row."""
    return [
        OwnershipEdge(ids[s], ids[d], p)
        for s, d, p in zip(edges.src.tolist(), edges.dst.tolist(), edges.pct.tolist())
    ]


class TestLoadNodes:
    def test_two_rows(self, tmp_path):
        recs = node_records(load_nodes(write(tmp_path, "n.csv", NODES_2)))
        assert recs == [NodeRecord("n1", "US"), NodeRecord("n2", "NL")]

    def test_unkept_fields_validated_not_stored(self, tmp_path):
        """Names and NACE sections leave no trace in the columns; a bad
        ``is_hq`` in a plain file still fails with its line."""
        header = "node_id,jurisdiction,nace_section,name,is_hq\n"
        full = write(tmp_path, "full.csv", header + "n1,US,AB,Société Générale,1\nn2,NL,K,株式会社,no\n")
        blank = write(tmp_path, "blank.csv", header + "n1,US,,,0\nn2,NL,,,0\n")
        assert node_records(load_nodes(full)) == node_records(load_nodes(blank))
        bad = write(tmp_path, "bad.csv", header + "n1,US,C,,0\nn2,NL,K,,maybe\n")
        with pytest.raises(LoadError, match="cannot parse boolean field 'maybe'") as err:
            load_nodes(bad)
        assert err.value.line == 3

    def test_duplicate_id_rejected(self, tmp_path):
        text = "node_id,jurisdiction,nace_section,name,is_hq\nn1,US,C,,0\nn1,NL,K,,0\n"
        with pytest.raises(LoadError, match="duplicate") as err:
            load_nodes(write(tmp_path, "n.csv", text))
        assert err.value.line == 3

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "n.csv", "node_id,jurisdiction,nace_section,name,is_hq\n")
        assert node_records(load_nodes(path)) == []

    def test_bad_header(self, tmp_path):
        with pytest.raises(LoadError, match="header"):
            load_nodes(write(tmp_path, "n.csv", "id,jur\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_nodes(tmp_path / "absent.csv")

    def test_blank_jurisdiction_gets_sentinel(self, tmp_path):
        text = "node_id,jurisdiction,nace_section,name,is_hq\nn1,,,,0\n"
        rec = node_records(load_nodes(write(tmp_path, "n.csv", text)))[0]
        assert rec.jurisdiction == "n.a."


class TestLoadEdges:
    def test_parse(self, tmp_path):
        res = load_edges(write(tmp_path, "e.csv", "subsidiary_id,shareholder_id,pct\nn1,n2,55.0\n"), IDS_2)
        assert edge_records(res.edges, ["n1", "n2"]) == [OwnershipEdge("n1", "n2", 55.0)]
        assert res.self_loops_dropped == 0

    def test_self_loop_dropped_and_counted(self, tmp_path):
        res = load_edges(
            write(tmp_path, "e.csv", "subsidiary_id,shareholder_id,pct\nn1,n1,30.0\nn1,n2,20\n"), IDS_2
        )
        assert len(res.edges) == 1
        assert res.self_loops_dropped == 1

    def test_out_of_range_pct(self, tmp_path):
        with pytest.raises(LoadError, match=r"\[0, 100\]"):
            load_edges(write(tmp_path, "e.csv", "subsidiary_id,shareholder_id,pct\nn1,n2,130.0\n"), IDS_2)

    def test_blank_pct_counted(self, tmp_path):
        res = load_edges(write(tmp_path, "e.csv", "subsidiary_id,shareholder_id,pct\nn1,n2,\n"), IDS_2)
        assert res.edges.pct[0] == 0.0
        assert res.blank_pct == 1

    def test_unknown_id_strict(self, tmp_path):
        path = write(tmp_path, "e.csv", "subsidiary_id,shareholder_id,pct\nn1,zz,10\n")
        with pytest.raises(LoadError, match="unknown"):
            load_edges(path, id_column("n1"))


class TestBuildGraph:
    def test_counts(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert (g.n_nodes, g.n_edges) == (3, 2)

    def test_toy_m1_counts(self, m1_graph):
        assert (m1_graph.n_nodes, m1_graph.n_edges) == (9, 8)

    def test_edge_to_missing_node(self):
        with pytest.raises(GraphError, match="unknown node"):
            build_graph([NodeRecord("a")], [OwnershipEdge("a", "b", 10)])

    @pytest.mark.parametrize("pct", [-0.5, 100.5, 150.0, float("nan"), float("inf")])
    def test_pct_outside_range_rejected(self, pct):
        # ingest and load_cache reject such a pct, so a graph holding one could not be saved and read back
        nodes = [NodeRecord("a"), NodeRecord("b")]
        with pytest.raises(GraphError, match=r"pct .* outside \[0, 100\]"):
            build_graph(nodes, [OwnershipEdge("a", "b", 50.0), OwnershipEdge("b", "a", pct)])
        assert build_graph(nodes, [OwnershipEdge("a", "b", 0.0), OwnershipEdge("b", "a", 100.0)]).n_edges == 2

    def test_adjacency_indexes_consistent(self):
        g = make_graph(4, [(0, 1), (2, 1), (1, 3)])
        for u in range(4):
            for v in out_neighbors(g, u):
                assert u in in_neighbors(g, int(v))
        assert g.in_degrees().sum() == g.out_degrees().sum() == g.n_edges

    def test_immutable(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.src[0] = 1

    def test_reverse_index_built_on_first_read(self):
        """A graph that is never walked backwards never sorts its edges by (dst, src)."""
        g = make_graph(3, [(0, 2), (1, 2), (2, 0)])
        assert "in_order" not in vars(g) and g.in_degrees().tolist() == [1, 0, 2]
        assert in_neighbors(g, 2).tolist() == [0, 1] and "in_order" in vars(g)
        with pytest.raises(ValueError):
            g.in_sources[0] = 1


class TestSubstantialView:
    def test_filter(self):
        g = make_graph(2, [(0, 1, 5.0), (0, 1, 10.0), (0, 1, 60.0)])
        assert substantial_view(g).n_edges == 2

    def test_boundary_100(self):
        g = make_graph(2, [(0, 1, 99.9), (0, 1, 100.0)])
        assert substantial_view(g).n_edges == 2

    def test_boundary_at_substantial_pct(self):
        below = float(np.nextafter(SUBSTANTIAL_PCT, 0))
        g = make_graph(2, [(0, 1, below), (0, 1, SUBSTANTIAL_PCT)])
        assert SUBSTANTIAL_PCT == 10.0
        assert substantial_view(g).pct.tolist() == [10.0]

    def test_excluded_counter(self):
        g = make_graph(2, [(0, 1, 5.0), (0, 1, 50.0)])
        assert g.n_edges - substantial_view(g).n_edges == 1

    pcts = st.floats(min_value=0, max_value=100) | st.sampled_from([SUBSTANTIAL_PCT, np.nextafter(SUBSTANTIAL_PCT, 0)])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), pcts), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_keeps_exactly_substantial_edges(self, edges):
        """The kept (src, dst, pct) rows, in (src, dst) order with parallel edges in input order."""
        view = substantial_view(make_graph(4, edges))
        expect = sorted((e for e in edges if e[2] >= 10.0), key=lambda e: e[:2])
        assert list(zip(view.src.tolist(), view.dst.tolist(), view.pct.tolist())) == expect


class TestDegrees:
    def test_toy_affiliate_a(self, m1_view, m1_graph):
        a = m1_graph.index_of("M1:a")
        assert (m1_view.in_degrees()[a], m1_view.out_degrees()[a]) == (3, 1)

    def test_isolated(self):
        g = make_graph(3, [(0, 1)])
        n2 = g.index_of("n2")
        assert (g.in_degrees()[n2], g.out_degrees()[n2]) == (0, 0)

    def test_mean_degree_identity(self):
        rng = np.random.default_rng(5)
        from conftest import random_digraph

        g, _ = random_digraph(rng, 40)
        k_in, k_out = g.in_degrees(), g.out_degrees()
        assert k_in.sum() == k_out.sum() == g.n_edges
        assert k_in.mean() == pytest.approx(g.n_edges / g.n_nodes)

    def test_row_order_invariance(self):
        edges = [(0, 1, 20.0), (2, 1, 30.0), (1, 3, 40.0), (3, 0, 50.0)]
        g1 = make_graph(4, edges)
        g2 = make_graph(4, list(reversed(edges)))
        assert np.array_equal(g1.src, g2.src)
        assert np.array_equal(g1.dst, g2.dst)
        assert np.array_equal(g1.pct, g2.pct)

    def test_node_order_invariance(self):
        from ownet.graph import NodeRecord, OwnershipEdge, build_graph

        nodes = [NodeRecord(f"n{i}") for i in range(4)]
        rows = [OwnershipEdge("n0", "n1", 20.0), OwnershipEdge("n2", "n1", 30.0),
                OwnershipEdge("n1", "n3", 40.0)]
        def by_id(g):
            return {node_id: (int(k_in), int(k_out))
                    for node_id, k_in, k_out in zip(g.ids, g.in_degrees(), g.out_degrees())}

        assert by_id(build_graph(nodes, rows)) == by_id(build_graph(list(reversed(nodes)), rows))


class TestInducedSubgraph:
    def test_triangle_subset(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        sub = induced_subgraph(g, ["n0", "n1"])
        assert (sub.n_nodes, sub.n_edges) == (2, 1)

    def test_identity(self):
        g = make_graph(4, [(0, 1), (1, 2), (3, 1)])
        sub = induced_subgraph(g, g.ids)
        assert (sub.n_nodes, sub.n_edges) == (g.n_nodes, g.n_edges)
        assert np.array_equal(sub.pct, g.pct)

    def test_toy_restriction(self, m1_graph):
        sub = induced_subgraph(m1_graph, ["M1:HQ", "M1:a", "M1:b"])
        pairs = {(sub.ids[s], sub.ids[d]) for s, d in zip(sub.src, sub.dst)}
        assert pairs == {("M1:a", "M1:HQ"), ("M1:b", "M1:a")}

    def test_unknown_node(self, m1_graph):
        with pytest.raises(GraphError):
            induced_subgraph(m1_graph, ["M1:HQ", "ghost"])

    def test_metadata_preserved(self, m1_graph):
        sub = induced_subgraph(m1_graph, ["M1:HQ", "M1:a"])
        assert sub.jurisdiction_of(sub.index_of("M1:a")) == "NL"
        kept = {m1_graph.jurisdiction_of(m1_graph.index_of(node_id)) for node_id in sub.ids}
        assert sub.jurisdiction_labels == sorted(kept)


class TestCache:
    def test_roundtrip(self, tmp_path, m1_graph):
        path = tmp_path / "g.npz"
        save_cache(m1_graph, path)
        back = load_cache(path)
        assert list(back.ids) == list(m1_graph.ids)
        assert np.array_equal(back.src, m1_graph.src)
        assert np.array_equal(back.pct, m1_graph.pct)
        assert [back.jurisdiction_of(i) for i in range(back.n_nodes)] == [
            m1_graph.jurisdiction_of(i) for i in range(m1_graph.n_nodes)
        ]
        assert back.ingest_counters == m1_graph.ingest_counters

    def test_version_check(self, tmp_path, m1_graph):
        path = tmp_path / "g.npz"
        save_cache(m1_graph, path)
        import numpy as np_

        data = dict(np_.load(path))
        data["version"] = np_.int64(99)
        np_.savez(path, **data)
        with pytest.raises(LoadError, match="version"):
            load_cache(path)


class TestPackedStrings:
    IDS = ["Zürich-1", "株式会社", "n3", "", "Ω"]
    NAMES = ["Société Générale", "", "Acme", "名前", "x"]

    def test_non_ascii_cache_roundtrip(self, tmp_path):
        nodes = [NodeRecord(node_id, "CH") for node_id in self.IDS]
        g = build_graph(nodes, [OwnershipEdge("Zürich-1", "株式会社", 50.0)])
        save_cache(g, tmp_path / "g.npz")
        back = load_cache(tmp_path / "g.npz")
        assert list(back.ids) == self.IDS
        assert [back.index_of(node_id) for node_id in self.IDS] == list(range(len(self.IDS)))

    @given(st.lists(st.text(max_size=6), max_size=20))
    @example(IDS)
    @example(NAMES)
    @example(["n0", "n1", ""])
    def test_blob_is_the_utf8_of_each_string(self, strings):
        blob, offsets = _pack_strings(strings)
        encoded = [text.encode("utf-8") for text in strings]
        assert blob.dtype == np.uint8 and blob.tobytes() == b"".join(encoded)
        assert offsets.dtype == np.int64
        assert offsets.tolist() == [0, *np.cumsum([len(b) for b in encoded], dtype=np.int64).tolist()]
        assert _unpack_strings(blob, offsets, "ids", None) == strings


@st.composite
def id_label_rows(draw):
    """``(ids, codes, labels)``: distinct ids, and one code per id into a small label table."""
    labels = draw(st.lists(st.text(max_size=3) | st.integers(0, 10**6).map(str), min_size=1, max_size=4))
    ids = draw(st.lists(st.text(max_size=5), max_size=12, unique=True))
    codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=len(ids), max_size=len(ids)))
    return ids, codes, labels


class TestIdValueCsv:
    REGIONS = ["GSCC", "IN", "OUT", "TE", "REST"]

    @given(id_label_rows())
    # ids that need quoting (comma, quote, CR, LF) among plain ones, so some chunks of three go
    # through csv.writer and the rest are assembled; 10 rows end in a short chunk
    @example((["n1", "n,2", "n3", "n4", "n5", "n6", 'q"7', "n8", "n9", "cr\r10"],
              [0, 1, 2, 3, 4, 0, 1, 2, 3, 4], REGIONS))
    @example((["n1", "n2", "n3", "a\nb", "n5", "n6", "é7", "", "n9"], [0, 1, 1, 0, 2, 2, 1, 0, 2], ["0", "1", "12"]))
    @example((["n1", "n2", "n3", "n4"], [1, 0, 1, 1], ["Zürich", "株式会社"]))  # non-ASCII labels
    @example((["n1", "n2", "n3"], [0, 1, 0], ["a,b", 'q"']))  # labels that need quoting
    @example(([], [], REGIONS))
    @settings(deadline=None)
    def test_bytes_equal_write_csv_rows(self, tmp_path_factory, rows):
        ids, codes, labels = rows
        tmp = tmp_path_factory.mktemp("emit")
        write_csv_rows(tmp / "want.csv", ["node_id", "value"], [(i, labels[c]) for i, c in zip(ids, codes)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "EMIT_ROWS", 3)  # several chunks, quoted and plain
            write_id_value_csv(tmp / "got.csv", ["node_id", "value"], id_column(*ids),
                               np.array(codes, dtype=np.int8), labels)
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


class TestCsvRoundTrip:
    def test_graph_load_convenience(self, tmp_path):
        write(tmp_path, "nodes.csv", NODES_2)
        write(tmp_path, "edges.csv", "subsidiary_id,shareholder_id,pct\nn1,n2,55.00\n")
        g = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        assert (g.n_nodes, g.n_edges) == (2, 1)


def _load_values(path, g):
    from ownet.jurisdiction import load_edge_values

    return load_edge_values(path, substantial_view(g)).tolist()


def _small_loaders():
    from ownet.jurisdiction import PROFILE_HEADER, VALUE_HEADER, load_profiles
    from ownet.mnc import HQ_HEADER, load_hq_list

    return {
        "hqs": (lambda path, g: load_hq_list(path), HQ_HEADER, []),
        "profiles": (lambda path, g: load_profiles(path), PROFILE_HEADER, {}),
        "values": (_load_values, VALUE_HEADER, [0.0]),
    }


class TestDataRows:
    """The HQ, profile and edge-value loaders read rows through ``data_rows``:
    one set of file, header, blank-row and field-count checks."""

    @pytest.mark.parametrize("kind", ["hqs", "profiles", "values"])
    def test_shared_row_checks(self, tmp_path, kind):
        load, header, empty = _small_loaders()[kind]
        g = make_graph(2, [(1, 0)])
        with pytest.raises(LoadError) as info:
            load(tmp_path / "absent.csv", g)
        assert info.value.path == tmp_path / "absent.csv"

        bad_header = write(tmp_path, "header.csv", "x,y\n")
        with pytest.raises(LoadError) as info:
            load(bad_header, g)
        assert info.value.line == 1

        too_wide = write(tmp_path, "wide.csv", ",".join(header) + "\n\n" + ",".join("x" * 10) + "\n")
        with pytest.raises(LoadError, match=f"expected {len(header)} fields, got 10") as info:
            load(too_wide, g)
        assert info.value.line == 3

        assert load(write(tmp_path, "blank.csv", ",".join(header) + "\n\n"), g) == empty


def npy_bytes(array):
    """The bytes ``np.save`` writes for ``array``: one array, not an npz archive."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestCacheValidation:
    @pytest.mark.parametrize(
        "field, corrupt",
        [
            pytest.param("pct", lambda d: d["pct"].__setitem__(0, 150.0), id="pct-150"),
            pytest.param("pct", lambda d: d["pct"].__setitem__(0, np.nan), id="pct-nan"),
            pytest.param("jur_index", lambda d: d.update(jur_index=d["jur_index"][1:]), id="jur_index-short"),
            pytest.param("dst", lambda d: d.update(dst=d["dst"][:-1]), id="dst-short"),
            pytest.param("pct", lambda d: d.update(pct=d["pct"][:-1]), id="pct-short"),
            pytest.param("src", lambda d: d["src"].__setitem__(0, 9), id="src-past-n"),
            pytest.param("dst", lambda d: d["dst"].__setitem__(0, -1), id="dst-negative"),
            pytest.param("jur_index", lambda d: d["jur_index"].__setitem__(0, 99), id="jur_index-past-end"),
            # string offsets that do not tile their blob
            pytest.param("ids", lambda d: d["ids_off"].__setitem__(-1, d["ids_off"][-1] + 1), id="ids_off-past-blob"),
            pytest.param("ids", lambda d: d["ids_off"].__setitem__(0, 1), id="ids_off-start"),
            pytest.param("ids", lambda d: d["ids_off"].__setitem__(1, d["ids_off"][-1] + 5),
                         id="ids_off-decreasing"),
            pytest.param("jur", lambda d: d.update(jur_blob=d["jur_blob"][:-1]), id="jur_blob-short"),
            pytest.param("ids", lambda d: d["ids_blob"].__setitem__(0, 0xFF), id="ids_blob-not-utf8"),
            # IE relabelled as a second GB: a link between the two GB indexes would count as cross-border
            pytest.param("jur", lambda d: d.update(zip(("jur_blob", "jur_off"),
                                                       _pack_strings(["FR", "GB", "GB", "JP", "NL", "US"]))),
                         id="jur-repeated-label"),
        ],
    )
    def test_corrupt_field_named(self, tmp_path, m1_graph, field, corrupt):
        path = tmp_path / "g.npz"
        save_cache(m1_graph, path)
        data = {key: value.copy() for key, value in np.load(path).items()}
        corrupt(data)
        np.savez(path, **data)
        with pytest.raises(LoadError, match=f"cache field '{field}'"):
            load_cache(path)

    @pytest.mark.parametrize("damage, reason", [
        pytest.param(lambda path: path.write_text("node_id\nn1\n", encoding="utf-8"), "not a readable npz archive",
                     id="not-npz"),
        pytest.param(lambda path: path.write_bytes(b""), "not a readable npz archive", id="empty"),
        pytest.param(lambda path: path.write_bytes(path.read_bytes()[:200]), "not a readable npz archive",
                     id="truncated"),
        pytest.param(lambda path: path.write_bytes(npy_bytes(np.arange(3))), "not a readable npz archive", id="npy"),
        pytest.param(lambda path: np.savez(path, **{k: v for k, v in np.load(path).items() if k != "src"}),
                     "cache field 'src' is missing", id="missing-field"),
    ])
    def test_unreadable_archive_named(self, tmp_path, m1_graph, damage, reason):
        path = tmp_path / "g.npz"
        save_cache(m1_graph, path)
        damage(path)
        with pytest.raises(LoadError, match=reason) as info:
            load_cache(path)
        assert info.value.path == path


# -- loader oracle ---------------------------------------------------------
# The row-by-row loader that preceded the columnar one: one record per row,
# endpoints checked against the set of node ids. Kept as the reference.

def reference_load_nodes(path):
    records, seen = [], set()
    with open(path, newline="", encoding="utf-8") as handle:
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
            _parse_bool(row[4], path, line)
            records.append(NodeRecord(node_id, row[1].strip() or "n.a."))
    return records


def reference_load_edges(path, known_ids):
    edges, self_loops, blank_pct = [], 0, 0
    with open(path, newline="", encoding="utf-8") as handle:
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
    return edges, {"self_loops_dropped": self_loops, "blank_pct": blank_pct}


def reference_load_graph(nodes_path, edges_path):
    nodes = reference_load_nodes(nodes_path)
    edges, counters = reference_load_edges(edges_path, {rec.node_id for rec in nodes})
    return build_graph(nodes, edges), counters


def outcome(load):
    """``("error", type, message, line)`` if ``load`` raises a LoadError, else ``("ok", result)``."""
    try:
        return ("ok", load())
    except LoadError as exc:
        return ("error", type(exc), str(exc), exc.line)


@dataclasses.dataclass(frozen=True)
class Layout:
    """How :func:`write_rows` lays rows out in a file."""

    raw: bool = False  # fields joined by bare commas, with no csv quoting
    eol: str = "\n"
    blank_after: frozenset = frozenset()  # row positions followed by a blank line
    final_newline: bool = True
    header: str = "as is"  # or "padded" (spaces around each name), or "renamed" (a wrong name)


PLAIN = Layout()


def write_rows(path, header, rows, layout):
    """Write ``header`` and ``rows`` as ``layout`` says."""
    if layout.header == "padded":
        header = [f" {name} " for name in header]
    elif layout.header == "renamed":
        header = [header[0].upper(), *header[1:]]
    lines = []
    for position, row in enumerate([header, *rows]):
        if layout.raw:
            lines.append(",".join(row))
        else:
            text = io.StringIO()
            csv.writer(text, lineterminator="").writerow(row)
            lines.append(text.getvalue())
        if position in layout.blank_after:
            lines.append("")
    text = layout.eol.join(lines) + (layout.eol if layout.final_newline else "")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


@st.composite
def csv_inputs(draw):
    """Node and edge rows over ids n0..n{k}, with every anomaly the loader
    checks, and the file layout both files are written in.

    About one row in ten is broken, and a broken row breaks each of its
    checks with even odds: most files load, and a failing row often fails
    several checks at once, which pins down the order of the checks. Fields
    may carry tabs and spaces around ids and pcts, NUL bytes, non-ASCII
    text and quotes; files may be written with bare fields (so quotes are
    stray), CRLF line ends, blank lines mid-file and no final newline. The
    ids of one file share a shape (see ``ID_SHAPES``).
    """

    def field(common, faults, broken):
        return draw(st.sampled_from(faults)) if broken and draw(st.booleans()) else common

    def shaped(row, broken):
        if draw(st.integers(0, 63)) == 0:  # a blank line; Layout.blank_after adds more
            return []
        if broken and draw(st.integers(0, 3)) == 0:
            return row[:-1] if draw(st.booleans()) else row + ["extra"]
        return row

    def padded(text):
        return draw(PADDING) + text + draw(PADDING)

    def rarely(value, otherwise, odds=4):  # most files are plain, as real dumps are
        return value if draw(st.integers(1, odds)) == 1 else otherwise

    shape = ID_SHAPES[draw(st.integers(0, len(ID_SHAPES) - 1))]
    ids = [shape(k) for k in range(draw(st.integers(0, 8)))]
    node_rows = []
    for node_id in ids:
        broken = draw(st.integers(0, 9)) == 0
        row = [
            field(padded(node_id), [f" {node_id} ", ids[0], ""], broken),
            draw(st.sampled_from(["US", "NL", "", " KY ", "n.a.", "ÅX"])),
            draw(st.sampled_from(["C", "K", "", "AB", "\tC"])),
            # a name that needs csv quoting or is irregular in a bare file, about once in 32 rows
            rarely(draw(st.sampled_from(["Acme, Inc.", 'He said "hi"', "x\ny", '"Acme', "a\x00b", "cr\rlf"])),
                   draw(st.sampled_from(["", "Acme", "Société Générale", "株式会社", "line\u2028sep"])), odds=32),
            field(draw(st.sampled_from(["0", "1", "true", " No ", "", "y"])), ["maybe"], broken),
        ]
        node_rows.append(shaped(row, broken))
    endpoint = st.sampled_from(ids or [shape(0)])
    pct = (st.sampled_from(["", " ", "100", "1e2", " 50 ", "0", "12.5", "\t12.5 "])
           | st.floats(0, 100).map(repr))
    edge_rows = []
    for _ in range(draw(st.integers(0, 10))):
        broken = draw(st.integers(0, 9)) == 0
        row = [
            field(padded(draw(endpoint)), ["zz", "", f" {shape(1)}", shape(8)], broken),
            field(padded(draw(endpoint)), ["zz", "", shape(9)], broken),
            field(padded(draw(pct)), ["abc", "nan", "inf", "-1", "100.5", "1e3"], broken),
        ]
        edge_rows.append(shaped(row, broken))
    layout = Layout(
        raw=rarely(True, False),
        eol=rarely("\r\n", "\n", odds=8),
        blank_after=rarely(frozenset(draw(st.sets(st.integers(0, 10), max_size=2))), frozenset(), odds=8),
        final_newline=rarely(False, True),
        header=rarely(draw(st.sampled_from(["padded", "renamed"])), "as is"),
    )
    return node_rows, edge_rows, layout


PADDING = st.sampled_from(["", "", "", " ", "\t", " \t", "\x1f", "\u3000"])

# id k of a file: short ids; ids sharing their first 8 or 16 bytes (so a
# duplicate differs from other ids only after byte 16); ids of 17 to 38 bytes;
# non-ASCII ids, ending in a multi-byte character or made of them
ID_SHAPES = [
    lambda k: f"n{k}",
    lambda k: f"prefix08{k}",
    lambda k: f"prefix16prefix16{k}",
    lambda k: f"company-{k:02d}-" + "x" * (3 * k + 6),
    lambda k: f"Zürich-{k}-株",
    lambda k: "é" * (k + 1),
]


def assert_same_graph(got, want, want_counters):
    assert list(got.ids) == list(want.ids)
    assert [got.index_of(node_id) for node_id in want.ids] == list(range(want.n_nodes))
    assert got.jurisdiction_labels == want.jurisdiction_labels
    assert got.na_jurisdiction == want.na_jurisdiction
    for name in ("jurisdiction_index", "src", "dst", "pct", "out_indptr", "in_indptr", "in_order"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.ingest_counters == want_counters


def loads_like_reference(tmp_path_factory, rows):
    """Write the drawn files, then load them with both loaders: the same error
    (type, message and line), or equal graphs and counters. ``EMIT_ROWS`` is 2,
    so the row loop's id lookups split the rows into many chunks."""
    node_rows, edge_rows, layout = rows
    tmp = tmp_path_factory.mktemp("oracle")
    nodes, edges = tmp / "nodes.csv", tmp / "edges.csv"
    write_rows(nodes, NODE_HEADER, node_rows, layout)
    write_rows(edges, EDGE_HEADER, edge_rows, layout)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "EMIT_ROWS", 2)  # the row loop looks ids up two rows at a time
        got = outcome(lambda: load_graph(nodes, edges))
    want = outcome(lambda: reference_load_graph(nodes, edges))
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok", got
        assert_same_graph(got[1], *want[1])


class TestLoaderOracle:
    @given(csv_inputs())
    # rows that fail two checks at once: the earlier check must win
    @example(([["n0", "US", "C", "", "0"], ["n0", "NL", "K", "", "maybe"]], [], PLAIN))
    @example(([["n0", "US", "C", "", "0"]], [["zz", "yy", "abc"]], PLAIN))
    @example(([["n0", "US", "C", "", "0"]], [["n0", "zz", "150"]], PLAIN))
    # an unknown id, then a row of the same id-lookup chunk that has too few fields
    @example(([["n0", "US", "C", "", "0"]], [["n0", "zz", "5"], ["n0", "n0"]], PLAIN))
    # plain files but for one anomaly each
    @example(([["n0", "US", "C", "", "0"], ["n1", "US", "C", "", "1"]], [["n0", "n1", "5"]],
              Layout(eol="\r\n", final_newline=False)))
    @example(([["n0", "US", "C", "", "0"], ["n1", "US", "C", "", "1"]], [["n0", "n1", "5"]],
              Layout(final_newline=False)))
    @example(([["n0", "US", "C", "", "0"]], [], Layout(header="renamed")))
    @example(([["n0", "US", "C", "", "0", "extra"], ["n1", "US", "C", ""]], [], PLAIN))
    @example(([["n0", "US", "C", "", "0"], ["", "US", "C", "", "0"]], [], PLAIN))
    @example(([["n0", "US", "C", "cr\rlf", "0"]], [], PLAIN))
    @example(([["n0", "US", "AB", "", "0"], ["n1", " KY ", " Cx ", "Acme", "y"]], [["n0", "n1", "50"]], PLAIN))
    # names and NACE sections that load to the graph of blank ones
    @example(([["n0", "ÅX", "AB", "Société Générale", "1"], ["n1", "US", "K", "株式会社", "no"]],
              [["n1", "n0", "50"]], PLAIN))
    # fields the bulk parse converts once per distinct raw value: longer than 8 bytes, padded,
    # spelled as only float reads them, blank and non-ASCII, with "GB" and " GB " in one block
    @example(([["n0", "LONG-JURISDICTION", "C", "", "1"], ["n1", " Zürich-Kanton ", "K", "", " No "],
               ["n2", "株式会社の国", "C", "", "y"], ["n3", " GB ", "C", "", "0"], ["n4", "GB", "C", "", "0"]],
              [["n0", "n1", "12.5000000000"], ["n1", "n2", " 5.5 "], ["n2", "n0", "5.5"], ["n2", "n3", "1_0"],
               ["n3", "n0", "1e1"], ["n1", "n0", "+5"], ["n2", "n1", ""], ["n0", "n0", " "], ["n3", "n4", "٥"],
               ["n4", "n3", "\u30007\u3000"]], PLAIN))
    # a pct that float reads but the range check rejects: the row loop's message and line
    @example(([["n0", "US", "C", "", "0"], ["n1", "US", "C", "", "0"]],
              [["n0", "n1", "5"], ["n1", "n0", "nan"], ["n1", "n0", "abc"]], PLAIN))
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_reference(self, tmp_path_factory, rows):
        loads_like_reference(tmp_path_factory, rows)

    @given(csv_inputs())
    @example(([["n0", "US", "C", "", "0"], ["n1", "US", "C", "", "0"], ["n0", "US", "C", "", "0"]], [], PLAIN))
    @example(([["n0", "US", "C", "", "0"], ["n1", "US", "C", "", "0"]],
              [["n0", "n1", "5"], ["n1", "n0", "5"], ["n1", "n2", "5"]], PLAIN))
    # "GB" and " GB " in different blocks load as one jurisdiction; so do " 5.5 " and "5.5" as one pct
    @example(([["n0", "GB", "C", "", "0"], ["n1", " GB ", "C", "", "1"], ["n2", "GB ", "C", "", " y "]],
              [["n0", "n1", " 5.5 "], ["n1", "n2", "5.5"], ["n2", "n0", ""]], PLAIN))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_in_small_blocks(self, tmp_path_factory, rows):
        """The same oracle with blocks of a few bytes: rows straddle blocks, and
        a duplicate or unknown id can first appear in a later block."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "BLOCK_BYTES", 5)
            loads_like_reference(tmp_path_factory, rows)

    @given(csv_inputs(), st.sampled_from([graph_module.BLOCK_BYTES, 5]))
    @example(([["n0", "US", "AB", "", "0"], ["n1", "", "", "", "1"], ["n2", "US", " Cx ", "", "y"]], [], PLAIN),
             graph_module.BLOCK_BYTES)
    @example(([["n0", "GB", "C", "", "0"], ["n1", " GB ", "C", "", "1"], ["n2", "LONG-JURISDICTION", "C", "", "no"],
               ["n3", "株式会社の国", "C", "", "y"], ["n4", "GB", "C", "", "0"]], [], PLAIN), 5)
    @settings(max_examples=200, deadline=None)
    def test_node_columns_equal_row_loop(self, tmp_path_factory, rows, block_bytes):
        """``load_nodes`` returns the row loop's columns, values and types alike,
        whichever parse reads the file."""
        node_rows, _, layout = rows
        path = tmp_path_factory.mktemp("nodes") / "nodes.csv"
        write_rows(path, NODE_HEADER, node_rows, layout)
        want = outcome(lambda: graph_module._row_nodes(path))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "BLOCK_BYTES", block_bytes)
            patch.setattr(graph_module, "EMIT_ROWS", 2)
            got = outcome(lambda: load_nodes(path))
        if want[0] == "error":
            assert got == want
            return
        assert got[0] == "ok", got
        for column in dataclasses.fields(want[1]):
            a, b = getattr(got[1], column.name), getattr(want[1], column.name)
            assert type(a) is type(b), column.name
            if isinstance(b, IdColumn):
                a, b = list(a), list(b)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), column.name
            else:
                assert [type(x) for x in a] == [type(x) for x in b] and a == b, column.name

    @pytest.mark.parametrize("block_bytes, final_newline", [(graph_module.BLOCK_BYTES, True), (512, False)])
    def test_clean_corpus_never_reads_row_by_row(self, tmp_path, monkeypatch, block_bytes, final_newline):
        """A plain synth corpus loads through the bulk parse alone, also without
        its final newlines: a silent fallback to the row loop would hide a slowdown."""
        spec = SynthSpec(seed=9, n_noise=400, noise_edges=500, n_mncs=5, core_size=25, out_chain=5)
        paths = write_corpus(build_corpus(spec), tmp_path)
        if not final_newline:
            for path in (paths["nodes"], paths["edges"]):
                path.write_bytes(path.read_bytes().removesuffix(b"\n"))
        want = reference_load_graph(paths["nodes"], paths["edges"])

        def row_loop(*args):
            raise AssertionError("the row loop ran on a plain file")

        monkeypatch.setattr(graph_module, "_row_nodes", row_loop)
        monkeypatch.setattr(graph_module, "_row_edges", row_loop)
        monkeypatch.setattr(graph_module, "BLOCK_BYTES", block_bytes)
        assert_same_graph(load_graph(paths["nodes"], paths["edges"]), *want)

    def test_first_bad_line_wins(self, tmp_path):
        text = ("node_id,jurisdiction,nace_section,name,is_hq\n"
                "n1,US,C,,0\nn1,NL,K,,0\nn2,NL,K,,0\nn3,NL,K,0\n")
        nodes = write(tmp_path, "nodes.csv", text)
        edges = write(tmp_path, "edges.csv", "subsidiary_id,shareholder_id,pct\n")
        with pytest.raises(LoadError, match="duplicate") as err:
            load_graph(nodes, edges)
        assert err.value.line == 3
        assert outcome(lambda: load_graph(nodes, edges)) == outcome(
            lambda: reference_load_graph(nodes, edges))

    def test_graph_keeps_the_parsed_id_column(self, tmp_path, monkeypatch):
        import ownet.graph as graph_module

        parsed = []

        def recording_load_nodes(path):
            parsed.append(load_nodes(path))
            return parsed[-1]

        monkeypatch.setattr(graph_module, "load_nodes", recording_load_nodes)
        write(tmp_path, "nodes.csv", NODES_2)
        write(tmp_path, "edges.csv", "subsidiary_id,shareholder_id,pct\nn1,n2,55.00\n")
        g = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        assert g.ids is parsed[0].ids
        assert list(g.ids) == ["n1", "n2"]
        assert [g.index_of(node_id) for node_id in ("n1", "n2")] == [0, 1]



def synth_paths(tmp_path, **sizes):
    spec = SynthSpec(seed=9, n_mncs=5, core_size=25, out_chain=5, **sizes)
    return write_corpus(build_corpus(spec), tmp_path)


class TestIdColumn:
    @given(st.lists(st.text(max_size=40), unique=True, max_size=30),
           st.lists(st.text(max_size=40), max_size=10))
    @example(["a", "a\x00", "prefix16prefix16a", "prefix16prefix16b", "Zürich-株", "x\ny"], ["a\x00\x00", "prefix16prefix16"])
    @settings(deadline=None)
    def test_lookups_and_decodes_equal_a_list(self, ids, queries):
        column = id_column(*ids)
        assert len(column) == len(ids)
        assert list(column) == ids and [column[i] for i in range(len(ids))] == ids
        assert column.take(list(reversed(range(len(ids)))) * 2) == list(reversed(ids)) * 2
        want = [ids.index(q) if q in ids else -1 for q in ids + queries]
        assert column.indexes_of(ids + queries).tolist() == want

    def test_sequence_protocol(self, monkeypatch):
        monkeypatch.setattr(graph_module, "EMIT_ROWS", 2)  # iteration crosses chunks
        column = id_column("n0", "n1", "n2", "Ω")
        assert list(column) == ["n0", "n1", "n2", "Ω"]
        assert (column[-1], column[np.int64(1)]) == ("Ω", "n1")
        for bad in (4, -5):
            with pytest.raises(IndexError):
                column[bad]
        with pytest.raises(IndexError):
            column.take([0, 4])
        assert "n2" in column and "n9" not in column
        with pytest.raises(GraphError, match="duplicate"):
            id_column("a", "b", "a")

    def test_key_collision_mixes_again(self, tmp_path, monkeypatch):
        """When the first multiplier's keys collide, every key is mixed again
        with the next; the bulk parse, the cache and build_graph give the same indexes."""
        paths = synth_paths(tmp_path, n_noise=400, noise_edges=500)
        want = load_graph(paths["nodes"], paths["edges"])
        real_mix = graph_module._mix

        def colliding_mix(reader, starts, lengths, multiplier):
            keys = real_mix(reader, starts, lengths, multiplier)
            return keys % np.uint64(7) if multiplier == graph_module._multiplier(0) else keys

        def row_loop(*args):
            raise AssertionError("the row loop ran on a plain file")

        monkeypatch.setattr(graph_module, "_mix", colliding_mix)
        monkeypatch.setattr(graph_module, "_row_nodes", row_loop)
        monkeypatch.setattr(graph_module, "_row_edges", row_loop)
        got = load_graph(paths["nodes"], paths["edges"])
        save_cache(want, tmp_path / "g.npz")
        cached = load_cache(tmp_path / "g.npz")
        built = build_graph(node_records(load_nodes(paths["nodes"])), edge_records(want, want.ids))
        for graph in (got, cached, built):
            assert graph.ids._multiplier == graph_module._multiplier(1)
            assert_same_graph(graph, want, want.ingest_counters)
        with pytest.raises(GraphError, match="duplicate"):
            id_column("n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n1")


class TestMemory:
    @pytest.mark.parametrize("source", ["csv", "cache"])
    def test_loaded_graph_holds_no_object_per_node(self, tmp_path, source):
        """A loaded graph holds under 100 traced bytes per node, edge arrays
        included: one Python object per node (a str in a list, a dict entry)
        costs more than that alone."""
        paths = synth_paths(tmp_path, n_noise=50_000, noise_edges=50_000)
        save_cache(load_graph(paths["nodes"], paths["edges"]), tmp_path / "g.npz")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if source == "csv":
                g = load_graph(paths["nodes"], paths["edges"])
            else:
                g = load_cache(tmp_path / "g.npz")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.n_nodes > 50_000 and g.n_edges > 50_000
        assert held / g.n_nodes < 100, f"{held / g.n_nodes:.1f} traced bytes per node"
