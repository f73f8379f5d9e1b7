import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_graph
from ownet.errors import GraphError, InvariantError, LoadError
from ownet.graph import substantial_view
from ownet.mnc import MncSubtree, build_subtree, extract_mnc, load_hq_list, mnc_degrees
from test_keyfirms import ownership_views


def view_of(n, edges, jurisdictions=None):
    return substantial_view(make_graph(n, edges, jurisdictions), 10.0)


class TestExtract:
    def test_toy_affiliates(self, m1_view, m1_graph):
        subtree = extract_mnc(m1_view, "M1:HQ")
        names = sorted(m1_graph.ids[a].split(":")[1] for a in subtree.affiliates)
        assert names == list("abcdefgh")
        assert subtree.n_affiliates == 8

    def test_hq_without_subsidiaries(self):
        view = view_of(3, [(0, 1)])
        subtree = extract_mnc(view, "n2")
        assert subtree.n_affiliates == 0

    def test_unknown_hq(self, m1_view):
        with pytest.raises(GraphError):
            extract_mnc(m1_view, "ghost")

    def test_only_substantial_paths_count(self):
        # n1 owned at 5% only: not an affiliate
        view = view_of(3, [(1, 0, 5.0), (2, 0, 60.0)])
        subtree = extract_mnc(view, "n0")
        assert [int(a) for a in subtree.affiliates] == [2]

    def test_cycle_safe(self):
        view = view_of(3, [(1, 0), (2, 1), (1, 2)])
        subtree = extract_mnc(view, "n0")
        assert sorted(int(a) for a in subtree.affiliates) == [1, 2]


class TestLayers:
    def test_toy_layers(self, m1_subtree, m1_graph):
        layers = {
            m1_graph.ids[a].split(":")[1]: int(l) for a, l in zip(m1_subtree.affiliates, m1_subtree.layers)
        }
        assert layers == {"a": 1, "h": 1, "b": 2, "c": 2, "d": 2, "e": 3, "f": 3, "g": 4}

    def test_direct_affiliate(self):
        view = view_of(2, [(1, 0)])
        subtree = extract_mnc(view, "n0")
        assert subtree.layers[subtree.position(1)] == 1

    def test_cross_share_cycle_min_layer(self):
        # HQ=0 <- 1 <- 2; {3,4} form a 2-cycle, both owned by 2
        view = view_of(5, [(1, 0), (2, 1), (3, 2), (4, 2), (3, 4), (4, 3)])
        subtree = extract_mnc(view, "n0")
        assert subtree.layers[subtree.position(3)] == 3
        assert subtree.layers[subtree.position(4)] == 3

    def test_stable_under_non_shortening_insertion(self):
        base = [(1, 0), (2, 1), (3, 2)]
        v1 = view_of(5, base + [(4, 3)])
        v2 = view_of(5, base + [(4, 3), (4, 2)])  # second path, same length min 3? (4->2->1->0)=3 < (4->3->2->1->0)=4
        s1 = extract_mnc(v1, "n0")
        s2 = extract_mnc(v2, "n0")
        # inserting an edge that does not shorten paths of 1..3 leaves them unchanged
        for node in (1, 2, 3):
            assert s1.layers[s1.position(node)] == s2.layers[s2.position(node)]


class TestPosition:
    def test_scalar_and_array(self, m1_subtree):
        affiliates = m1_subtree.affiliates
        assert m1_subtree.position(int(affiliates[2])) == 2
        assert m1_subtree.position(affiliates[::-1]).tolist() == list(range(len(affiliates)))[::-1]

    def test_non_affiliate_rejected(self, m1_subtree):
        with pytest.raises(GraphError, match=f"node {m1_subtree.hq} "):
            m1_subtree.position(m1_subtree.hq)
        with pytest.raises(GraphError, match=f"node {m1_subtree.hq} "):
            m1_subtree.position(np.append(m1_subtree.affiliates, m1_subtree.hq))

    def test_empty_subtree(self):
        subtree = extract_mnc(view_of(3, [(0, 1)]), "n2")
        assert subtree.position(np.empty(0, dtype=np.int64)).tolist() == []
        with pytest.raises(GraphError):
            subtree.position(0)


class TestDegrees:
    def test_toy_sums(self, m1_subtree):
        mnc_degrees(m1_subtree)
        assert m1_subtree.sum_k_in == 6
        assert m1_subtree.sum_k_total == 14
        assert m1_subtree.sum_k_product == 6

    def test_single_direct_affiliate(self):
        view = view_of(2, [(1, 0)])
        subtree = build_subtree(view, 0)
        assert subtree.k_in.tolist() == [0]
        assert subtree.k_out.tolist() == [1]
        assert subtree.sum_k_in == 0

    def test_two_independent_affiliates(self):
        view = view_of(3, [(1, 0), (2, 0)])
        subtree = build_subtree(view, 0)
        assert subtree.sum_k_total == 2
        assert subtree.k_in.tolist() == [0, 0]

    def test_degrees_ignore_external_edges(self):
        # n3 owns n1 substantially but is not in n0's subtree (no path to HQ)
        view = view_of(4, [(1, 0), (2, 1), (1, 3)])
        subtree = build_subtree(view, 0)
        pos = subtree.position(1)
        # edge n1 -> n3 leaves the member set: not counted
        assert subtree.k_out[pos] == 1
        assert subtree.k_in[pos] == 1

    def test_recount_identity(self, m1_subtree):
        k_in, k_out = mnc_degrees(m1_subtree)
        assert m1_subtree.sum_k_in == int(k_in.sum())
        assert m1_subtree.sum_k_total == int((k_in + k_out).sum())
        assert m1_subtree.sum_k_product == int((k_in * k_out).sum())

    def test_unsorted_affiliates_rejected(self, m1_subtree):
        # a real check, not an assert: it must survive python -O
        broken = MncSubtree(view=m1_subtree.view, hq=m1_subtree.hq,
                            affiliates=m1_subtree.affiliates[::-1].copy(), layers=m1_subtree.layers)
        with pytest.raises(InvariantError):
            mnc_degrees(broken)

    def test_sum_k_in_bounded_by_internal_edges(self):
        rng = np.random.default_rng(12)
        from ownet.synth import random_mnc_template, template_graph

        for i in range(20):
            template = random_mnc_template(rng, f"B{i}")
            view = substantial_view(template_graph(template), 10.0)
            subtree = build_subtree(view, view.graph.index_of(template.global_id("HQ")))
            members = set(int(a) for a in subtree.affiliates) | {subtree.hq}
            # every internal edge owned by an affiliate adds one to its k_in
            internal = sum(
                1 for s, d in zip(view.src, view.dst)
                if int(s) in members and int(d) in members and int(d) != subtree.hq
            )
            assert subtree.sum_k_in == internal

    def test_subsidiary_outside_subtree_rejected(self, m1_subtree):
        # every affiliate is a direct subsidiary of a member, so dropping one
        # leaves an internal edge whose subsidiary is not in the subtree
        keep = np.arange(m1_subtree.n_affiliates) != 0
        broken = MncSubtree(view=m1_subtree.view, hq=m1_subtree.hq,
                            affiliates=m1_subtree.affiliates[keep], layers=m1_subtree.layers[keep])
        with pytest.raises(InvariantError, match=f"node {m1_subtree.affiliates[0]} "):
            mnc_degrees(broken)


class TestSubsidiaryTableOracle:
    """The subtree's internal-edge table against brute-force counts over the
    view edges whose two ends are members."""

    @given(ownership_views())
    @settings(max_examples=300, deadline=None)
    def test_table_equals_internal_edges(self, case):
        g, hqs = case
        view = substantial_view(g, 10.0)
        edges = list(zip(view.src.tolist(), view.dst.tolist()))
        for hq in hqs:
            subtree = build_subtree(view, hq)
            members = subtree.affiliates.tolist() + [subtree.hq]  # by local position
            internal = [(s, d) for s, d in edges if s in members and d in members]
            affiliates = members[:-1]
            assert subtree.k_in.tolist() == [sum(d == a for _, d in internal) for a in affiliates]
            assert subtree.k_out.tolist() == [sum(s == a for s, _ in internal) for a in affiliates]
            ptr = subtree.sub_indptr.tolist()
            assert len(ptr) == len(members) + 1
            for p, owner in enumerate(members):
                subs = [members[q] for q in subtree.subsidiaries[ptr[p]:ptr[p + 1]].tolist()]
                assert sorted(subs) == sorted(s for s, d in internal if d == owner)


class TestClosure:
    def test_affiliate_set_closed_downward(self):
        rng = np.random.default_rng(0)
        from ownet.synth import random_mnc_template, template_graph

        for i in range(20):
            template = random_mnc_template(rng, f"T{i}")
            graph = template_graph(template)
            view = substantial_view(graph, 10.0)
            hq = graph.index_of(template.global_id("HQ"))
            subtree = extract_mnc(view, hq)
            members = set(int(a) for a in subtree.affiliates) | {hq}
            # every affiliate's first hop toward HQ stays inside the member set
            for a in subtree.affiliates:
                out = view.out_neighbors(int(a))
                assert any(int(t) in members for t in out)


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

    def test_names_sharing_a_file_name(self, tmp_path):
        # "a/b" and "a_b" would both be written to mnc/a_b.csv
        path = tmp_path / "hqs.csv"
        path.write_text("hq_node_id,mnc_name\nn1,a/b\nn2,a_b\n", encoding="utf-8")
        with pytest.raises(LoadError, match="share the file name") as info:
            load_hq_list(path)
        assert info.value.line == 3
