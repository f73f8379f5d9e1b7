import csv

import numpy as np
import pytest
from hypothesis import given, settings

import ownet.mnc
from conftest import make_graph, out_neighbors, run_report_stage, template_graph
from ownet.errors import GraphError, InvariantError, LoadError
from ownet.graph import substantial_view
from ownet.keyfirms import classify_all
from ownet.mnc import HQ_HEADER, load_hq_list, subtree_table
from ownet.synth import random_mnc_template
from test_keyfirms import ownership_views


def view_of(n, edges, jurisdictions=None):
    return substantial_view(make_graph(n, edges, jurisdictions))


def table_of(view, hq):
    return subtree_table(view, [view.graph.index_of(hq)])


def layer_of(table):
    """{affiliate: layer} of a one-MNC table."""
    return dict(zip(table.affiliates.tolist(), table.layers.tolist()))


def mnc_sums(table):
    """(sum k_in, sum k_in + k_out, sum k_in * k_out) of the first MNC."""
    k_in, k_out = table.k_in, table.k_out
    return tuple(int(table.mnc_sums(v)[0]) for v in (k_in, k_in + k_out, k_in * k_out))


class TestExtract:
    def test_toy_affiliates(self, m1_table, m1_graph):
        names = sorted(m1_graph.ids[a].split(":")[1] for a in m1_table.affiliates)
        assert names == list("abcdefgh")
        assert m1_table.n_affiliates == 8
        assert m1_table.bounds.tolist() == [0, 8]

    def test_hq_without_subsidiaries(self):
        table = table_of(view_of(3, [(0, 1)]), "n2")
        assert table.n_affiliates == 0
        assert table.bounds.tolist() == [0, 0]

    def test_unknown_hq(self, m1_view):
        with pytest.raises(GraphError):
            subtree_table(m1_view, [m1_view.n_nodes])
        with pytest.raises(GraphError):
            subtree_table(m1_view, [-1])

    def test_only_substantial_paths_count(self):
        # n1 owned at 5% only: not an affiliate
        table = table_of(view_of(3, [(1, 0, 5.0), (2, 0, 60.0)]), "n0")
        assert table.affiliates.tolist() == [2]

    def test_cycle_safe(self):
        table = table_of(view_of(3, [(1, 0), (2, 1), (1, 2)]), "n0")
        assert table.affiliates.tolist() == [1, 2]

    def test_overlapping_and_repeated_hqs(self):
        # n2 and n3 reach both HQs n0 and n4; n0 is listed twice
        view = view_of(5, [(1, 0), (2, 1), (3, 2), (2, 4), (3, 4)])
        table = subtree_table(view, [0, 4, 0])
        assert table.bounds.tolist() == [0, 3, 5, 8]
        assert table.affiliates.tolist() == [1, 2, 3, 2, 3, 1, 2, 3]
        assert table.layers.tolist() == [1, 2, 3, 1, 1, 1, 2, 3]
        assert table.row_mnc.tolist() == [0, 0, 0, 1, 1, 2, 2, 2]


class TestLayers:
    def test_toy_layers(self, m1_table, m1_graph):
        layers = {m1_graph.ids[a].split(":")[1]: layer for a, layer in layer_of(m1_table).items()}
        assert layers == {"a": 1, "h": 1, "b": 2, "c": 2, "d": 2, "e": 3, "f": 3, "g": 4}

    def test_direct_affiliate(self):
        assert layer_of(table_of(view_of(2, [(1, 0)]), "n0")) == {1: 1}

    def test_cross_share_cycle_min_layer(self):
        # HQ=0 <- 1 <- 2; {3,4} form a 2-cycle, both owned by 2
        layers = layer_of(table_of(view_of(5, [(1, 0), (2, 1), (3, 2), (4, 2), (3, 4), (4, 3)]), "n0"))
        assert layers[3] == layers[4] == 3

    def test_stable_under_non_shortening_insertion(self):
        base = [(1, 0), (2, 1), (3, 2)]
        l1 = layer_of(table_of(view_of(5, base + [(4, 3)]), "n0"))
        l2 = layer_of(table_of(view_of(5, base + [(4, 3), (4, 2)]), "n0"))
        # inserting an edge that does not shorten paths of 1..3 leaves them unchanged
        for node in (1, 2, 3):
            assert l1[node] == l2[node]


class TestDegrees:
    def test_toy_sums(self, m1_table):
        assert mnc_sums(m1_table) == (6, 14, 6)

    def test_single_direct_affiliate(self):
        table = subtree_table(view_of(2, [(1, 0)]), [0])
        assert table.k_in.tolist() == [0]
        assert table.k_out.tolist() == [1]
        assert mnc_sums(table)[0] == 0

    def test_two_independent_affiliates(self):
        table = subtree_table(view_of(3, [(1, 0), (2, 0)]), [0])
        assert mnc_sums(table)[1] == 2
        assert table.k_in.tolist() == [0, 0]

    def test_degrees_ignore_external_edges(self):
        # n3 owns n1 substantially but is not in n0's subtree (no path to HQ)
        table = subtree_table(view_of(4, [(1, 0), (2, 1), (1, 3)]), [0])
        pos = table.affiliates.tolist().index(1)
        # edge n1 -> n3 leaves the member set: not counted
        assert table.k_out[pos] == 1
        assert table.k_in[pos] == 1

    def test_recount_identity(self, m1_view, m1_graph):
        hqs = [m1_graph.index_of(f"M1:{local}") for local in ("HQ", "a", "b", "g")]
        table = subtree_table(m1_view, hqs)
        k_in, k_out, bounds = table.k_in, table.k_out, table.bounds
        for values in (k_in, k_in + k_out, k_in * k_out):
            assert table.mnc_sums(values).tolist() == [
                int(values[lo:hi].sum()) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def test_unsorted_affiliates_rejected(self, m1_table, monkeypatch):
        # a real check, not an assert: it must survive python -O
        real = ownet.mnc._affiliate_pairs
        monkeypatch.setattr(ownet.mnc, "_affiliate_pairs",
                            lambda view, hqs: tuple(a[::-1].copy() for a in real(view, hqs)))
        with pytest.raises(InvariantError):
            subtree_table(m1_table.view, m1_table.hqs)

    def test_sum_k_in_bounded_by_internal_edges(self):
        rng = np.random.default_rng(12)
        for i in range(20):
            template = random_mnc_template(rng, f"B{i}")
            view = substantial_view(template_graph(template))
            hq = view.graph.index_of(template.global_id("HQ"))
            table = subtree_table(view, [hq])
            members = set(table.affiliates.tolist()) | {hq}
            # every internal edge owned by an affiliate adds one to its k_in
            internal = sum(
                1 for s, d in zip(view.src, view.dst)
                if int(s) in members and int(d) in members and int(d) != hq
            )
            assert mnc_sums(table)[0] == internal

    def test_subsidiary_outside_subtree_rejected(self, m1_table, monkeypatch):
        # every affiliate is a direct subsidiary of a member, so dropping one
        # leaves an internal edge whose subsidiary is not in the subtree
        real = ownet.mnc._affiliate_pairs
        monkeypatch.setattr(ownet.mnc, "_affiliate_pairs",
                            lambda view, hqs: tuple(a[1:] for a in real(view, hqs)))
        with pytest.raises(InvariantError, match=f"node {m1_table.affiliates[0]} "):
            subtree_table(m1_table.view, m1_table.hqs)


class TestSubsidiaryTableOracle:
    """The table's internal edges against brute-force counts over the view
    edges whose two ends are members of the same MNC."""

    @given(ownership_views())
    @settings(max_examples=300, deadline=None)
    def test_table_equals_internal_edges(self, case):
        g, hqs = case
        view = substantial_view(g)
        edges = list(zip(view.src.tolist(), view.dst.tolist()))
        table = subtree_table(view, hqs)
        n_aff = table.n_affiliates
        rows = table.affiliates.tolist() + list(hqs)  # node of each row, the HQs last
        ptr = table.sub_indptr.tolist()
        assert len(ptr) == len(rows) + 1
        for m, hq in enumerate(hqs):
            lo, hi = table.bounds[m], table.bounds[m + 1]
            own_rows = list(range(lo, hi)) + [n_aff + m]
            affiliates = rows[lo:hi]
            members = affiliates + [hq]
            internal = [(s, d) for s, d in edges if s in members and d in members]
            assert table.k_in[lo:hi].tolist() == [sum(d == a for _, d in internal) for a in affiliates]
            assert table.k_out[lo:hi].tolist() == [sum(s == a for s, _ in internal) for a in affiliates]
            for r in own_rows:
                subs = table.subsidiaries[ptr[r]:ptr[r + 1]].tolist()
                assert set(subs) <= set(own_rows)
                assert sorted(rows[q] for q in subs) == sorted(s for s, d in internal if d == rows[r])


class TestClosure:
    def test_affiliate_set_closed_downward(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            template = random_mnc_template(rng, f"T{i}")
            graph = template_graph(template)
            view = substantial_view(graph)
            hq = graph.index_of(template.global_id("HQ"))
            table = subtree_table(view, [hq])
            members = set(table.affiliates.tolist()) | {hq}
            # every affiliate's first hop toward HQ stays inside the member set
            for a in table.affiliates:
                assert any(int(t) in members for t in out_neighbors(view, int(a)))


class TestHqList:
    def test_load(self, tmp_path):
        path = tmp_path / "hqs.csv"
        path.write_text("hq_node_id,mnc_name\nn1,Acme\nn2,Globex\n", encoding="utf-8")
        assert load_hq_list(path) == [("n1", "Acme"), ("n2", "Globex")]

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "hqs.csv"
        path.write_text("hq_node_id,mnc_name\nn1,Acme\nn2,Acme\n", encoding="utf-8")
        with pytest.raises(LoadError, match="duplicate"):
            load_hq_list(path)

    def test_names_kept_whole(self, tmp_path):
        # no artifact is named after an MNC: "a/b" and "a_b" stay apart, "," and '"' are quoted
        names = ["a/b", "a_b", 'x,"y"']
        path = tmp_path / "hqs.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([HQ_HEADER] + [[f"n{i}", name] for i, name in enumerate(names)])
        hqs = load_hq_list(path)
        assert hqs == [(f"n{i}", name) for i, name in enumerate(names)]

        report = classify_all(view_of(6, [(3, 0), (4, 1), (5, 2)]), hqs)
        for stage in ("extract", "identify"):
            path = run_report_stage(stage, report, tmp_path)[0]
            with open(path, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            assert [row[:2] for row in rows] == [[name, f"n{i + 3}"] for i, name in enumerate(names)], path.name
