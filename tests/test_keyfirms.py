from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import in_neighbors, make_graph, out_neighbors, row_of, run_report_stage, template_graph
from mnc_reference import ref_classify_all, ref_subtree
from ownet.graph import substantial_view
from ownet.keyfirms import (
    Role,
    classify_all,
    conduit_centrality,
    hierarchical_identify,
    holding_centrality,
    third_country,
)
from ownet.mnc import subtree_table
from ownet.synth import random_mnc_template, toy_m1_template


def idx(graph, local, mnc="M1"):
    return graph.index_of(f"{mnc}:{local}")


def by_id(table, values):
    """{affiliate id: value} for an array aligned with the table's affiliates."""
    ids = table.view.graph.ids
    return {ids[a]: v for a, v in zip(table.affiliates.tolist(), values.tolist())}


def template_table(template):
    g = template_graph(template)
    return subtree_table(substantial_view(g), [g.index_of(template.global_id("HQ"))])


class TestCentralities:
    @pytest.mark.parametrize(
        "local,expect",
        [("a", Fraction(7, 6)), ("b", Fraction(7, 9)), ("e", Fraction(0)), ("h", Fraction(-7, 3))],
    )
    def test_holding_exact(self, m1_table, m1_graph, local, expect):
        got = holding_centrality(m1_table)[row_of(m1_table, idx(m1_graph, local))]
        assert abs(got - float(expect)) < 1e-12

    @pytest.mark.parametrize(
        "local,expect",
        [("b", Fraction(14, 9)), ("e", Fraction(7, 6)), ("c", Fraction(0))],
    )
    def test_conduit_exact(self, m1_table, m1_graph, local, expect):
        got = conduit_centrality(m1_table)[row_of(m1_table, idx(m1_graph, local))]
        assert abs(got - float(expect)) < 1e-12

    def test_degenerate_subtree_signaled(self, m1_view, m1_graph):
        # sum k_in = 0 under HQ n0: NaN there, while M1 in the same table is scored
        g = make_graph(2, [(1, 0)])
        table = subtree_table(substantial_view(g), [0])
        assert np.isnan(holding_centrality(table)).all()
        assert np.isnan(conduit_centrality(table)).all()
        table = subtree_table(m1_view, [idx(m1_graph, "HQ"), idx(m1_graph, "g")])
        assert table.bounds.tolist() == [0, 8, 8]
        assert not np.isnan(holding_centrality(table)).any()

    def test_sign_matches_degree_balance(self, m1_table):
        h = holding_centrality(m1_table)
        assert ((h > 0) == (m1_table.k_in > m1_table.k_out)).all()
        assert ((h == 0) == (m1_table.k_in == m1_table.k_out)).all()

    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, k_in, k_out, sum_in, sum_tot, c):
        # replicating every degree pair c-fold scales all sums by c
        if k_in + k_out == 0:
            return
        h1 = (k_in - k_out) / sum_in * (sum_tot / (k_in + k_out))
        h2 = (c * k_in - c * k_out) / (c * sum_in) * ((c * sum_tot) / (c * (k_in + k_out)))
        assert (h1 > 0) == (h2 > 0) and (h1 < 0) == (h2 < 0)
        t1 = k_in / max(sum_in, 1) * (sum_tot / (k_in + k_out))
        t2 = (c * k_in) / max(c * sum_in, 1) * ((c * sum_tot) / (c * (k_in + k_out)))
        assert (t1 > 0) == (t2 > 0)


def third_country_of(n, edges, juris, affiliate):
    table = subtree_table(substantial_view(make_graph(n, edges, jurisdictions=juris)), [0])
    return third_country(table)[row_of(table, affiliate)]


class TestThirdCountry:
    def test_toy_a_true(self, m1_table, m1_graph):
        assert third_country(m1_table)[row_of(m1_table, idx(m1_graph, "a"))]

    def test_home_jurisdiction_false(self):
        # affiliate in HQ's jurisdiction fails the first clause
        assert not third_country_of(3, [(1, 0), (2, 1)], {0: "JP", 1: "JP", 2: "GB"}, 1)

    def test_no_subsidiaries_false(self, m1_table, m1_graph):
        assert not third_country(m1_table)[row_of(m1_table, idx(m1_graph, "g"))]

    def test_sentinel_never_equal(self):
        # n.a. differs from everything, including itself
        assert third_country_of(3, [(1, 0), (2, 1)], {0: "JP", 1: "n.a.", 2: "n.a."}, 1)

    def test_subsidiary_outside_subtree_ignored(self):
        # n1's only foreign subsidiary has no path to HQ (edge direction)
        assert not third_country_of(4, [(1, 0), (2, 1), (1, 3)], {0: "JP", 1: "NL", 2: "NL", 3: "GB"}, 1)


class TestHierarchicalIdentify:
    def test_toy_roles(self, m1_table):
        roles = by_id(m1_table, hierarchical_identify(m1_table)[3])
        roles = {aff.split(":")[1]: r for aff, r in roles.items()}
        assert roles["a"] == Role.HOLDING
        assert roles["b"] == Role.HOLDING_AND_CONDUIT
        assert roles["e"] == Role.CONDUIT
        for other in "cdfgh":
            assert roles[other] == Role.NONE

    def test_records_carry_diagnostics(self, m1_table):
        holding, conduit, _, _ = hierarchical_identify(m1_table)
        holding, conduit = by_id(m1_table, holding), by_id(m1_table, conduit)
        # layer-1 conduit centralities are recorded even without a role
        assert not np.isnan(conduit["M1:h"])
        assert not np.isnan(holding["M1:h"])
        assert np.isnan(holding["M1:g"])

    def test_single_jurisdiction_no_keys(self):
        template = toy_m1_template()
        template.jurisdictions = {k: "JP" for k in template.jurisdictions}
        roles = hierarchical_identify(template_table(template))[3]
        assert all(r == Role.NONE for r in roles.tolist())

    def test_no_conduit_without_holding_parent(self):
        rng = np.random.default_rng(3)
        for i in range(50):
            table = template_table(random_mnc_template(rng, f"P{i}"))
            roles = dict(zip(table.affiliates.tolist(), hierarchical_identify(table)[3].tolist()))
            holders = {
                i for i, r in roles.items() if r in (Role.HOLDING, Role.HOLDING_AND_CONDUIT)
            }
            for i, role in roles.items():
                if role in (Role.CONDUIT, Role.HOLDING_AND_CONDUIT):
                    parents = {int(p) for p in out_neighbors(table.view, i)}
                    assert parents & holders

    def test_every_key_firm_is_third_country(self):
        rng = np.random.default_rng(4)
        for i in range(50):
            _, _, tc, roles = hierarchical_identify(template_table(random_mnc_template(rng, f"Q{i}")))
            for third, role in zip(tc.tolist(), roles.tolist()):
                if role != Role.NONE:
                    assert third

    def test_sibling_order_independence(self, m1_template):
        rng = np.random.default_rng(5)
        base = None
        for _ in range(5):
            template = toy_m1_template()
            shuffled = list(template.edges)
            rng.shuffle(shuffled)
            template.edges = shuffled
            table = template_table(template)
            roles = by_id(table, hierarchical_identify(table)[3])
            if base is None:
                base = roles
            assert roles == base

    def test_empty_subtree(self):
        g = make_graph(2, [(0, 1)])
        view = substantial_view(g)
        assert subtree_table(view, [1]).n_affiliates == 1  # n0 owned by n1
        assert [a.shape for a in hierarchical_identify(subtree_table(view, [0]))] == [(0,)] * 4
        assert [a.shape for a in hierarchical_identify(subtree_table(view, []))] == [(0,)] * 4


class TestSignLaw:
    def test_over_random_subtrees(self):
        rng = np.random.default_rng(6)
        checked = 0
        for i in range(100):
            table = template_table(random_mnc_template(rng, f"S{i}", n_affiliates=(3, 40)))
            if table.mnc_sums(table.k_in)[0] <= 0:
                continue
            h = holding_centrality(table)
            for pos in range(table.n_affiliates):
                assert (h[pos] > 0) == (table.k_in[pos] > table.k_out[pos])
                checked += 1
        assert checked > 500


class TestClassifyAll:
    def _two_copies_view(self):
        t1 = toy_m1_template()
        t2 = toy_m1_template()
        t2.name = "M2"
        from ownet.graph import NodeRecord, OwnershipEdge, build_graph

        nodes, edges = [], []
        for t in (t1, t2):
            for local, jur in sorted(t.jurisdictions.items()):
                nodes.append(NodeRecord(t.global_id(local), jur))
            for c, p, pct in t.edges:
                edges.append(OwnershipEdge(t.global_id(c), t.global_id(p), pct))
        return substantial_view(build_graph(nodes, edges))

    def test_disjoint_copies_double_tallies(self):
        view = self._two_copies_view()
        report = classify_all(view, [("M1:HQ", "M1"), ("M2:HQ", "M2")])
        assert report.tallies == {"Holding": 2, "HoldingAndConduit": 2, "Conduit": 2}

    def test_empty_hq_list(self, m1_view):
        report = classify_all(m1_view, [])
        assert report.tallies == {"Holding": 0, "HoldingAndConduit": 0, "Conduit": 0}
        assert report.mncs == []

    def test_failures_collected_run_continues(self, m1_view):
        report = classify_all(m1_view, [("ghost", "Ghost"), ("M1:HQ", "M1")])
        assert [name for name, _ in report.failures] == ["Ghost"]
        assert len(report.mncs) == 1

    def test_identify_stage_blanks_unevaluated_cells(self, tmp_path):
        view = self._two_copies_view()
        report = classify_all(view, [("M1:HQ", "M1"), ("M2:HQ", "M2"), ("M1:a", "A")])
        path = run_report_stage("identify", report, tmp_path)[0]
        assert path == tmp_path / "keyfirms.csv"
        header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        assert header[5:7] == ["H", "T"]
        # an H or T cell is blank exactly where the role search left the value NaN, in both copies
        assert [row[5] == "" for row in rows] == np.isnan(report.holding).tolist()
        assert [row[6] == "" for row in rows] == np.isnan(report.conduit).tolist()
        bounds = report.bounds.tolist()
        assert all(np.isnan(report.holding[lo:hi]).any() and np.isnan(report.conduit[lo:hi]).any()
                   for lo, hi in zip(bounds[:2], bounds[1:3]))


# -- reference: the scalar, one-affiliate-at-a-time identification ----------

def _ref_holding(subtree, affiliate):
    pos = subtree.position(affiliate)
    k_in, k_out = int(subtree.k_in[pos]), int(subtree.k_out[pos])
    return (k_in - k_out) / subtree.sum_k_in * (subtree.sum_k_total / (k_in + k_out))


def _ref_conduit(subtree, affiliate):
    pos = subtree.position(affiliate)
    k_in, k_out = int(subtree.k_in[pos]), int(subtree.k_out[pos])
    return k_in / subtree.sum_k_product * (subtree.sum_k_total / (k_in + k_out))


def _ref_jurisdictions_differ(g, a, b):
    na = g.na_jurisdiction
    ja, jb = int(g.jurisdiction_index[a]), int(g.jurisdiction_index[b])
    if ja == na or jb == na:
        return True
    return ja != jb


def _ref_direct_subsidiaries(subtree, affiliate):
    members = subtree.affiliates
    out = []
    for s in np.unique(in_neighbors(subtree.view, affiliate)):
        pos = int(np.searchsorted(members, s))
        if pos < members.shape[0] and members[pos] == s:
            out.append(int(s))
    return out


def ref_third_country(subtree, affiliate):
    g = subtree.view.graph
    if not _ref_jurisdictions_differ(g, affiliate, subtree.hq):
        return False
    member_set = {int(a) for a in subtree.affiliates} | {subtree.hq}
    for s in in_neighbors(subtree.view, affiliate):
        if int(s) in member_set and _ref_jurisdictions_differ(g, int(s), affiliate):
            return True
    return False


def ref_hierarchical_identify(subtree):
    """Record fields per affiliate: (id, index, layer, k_in, k_out, H, T, third country, role)."""
    g = subtree.view.graph
    if subtree.n_affiliates == 0:
        return []
    degenerate_h = subtree.sum_k_in <= 0
    degenerate_t = subtree.sum_k_product <= 0
    h_val, t_val, roles, tc_cache = {}, {}, {}, {}

    def tc(node):
        if node not in tc_cache:
            tc_cache[node] = ref_third_country(subtree, node)
        return tc_cache[node]

    layer1 = [int(a) for a, l in zip(subtree.affiliates, subtree.layers) if l == 1]
    pending = deque(sorted(layer1))
    expanded = set()
    while pending and not degenerate_h:
        x = pending.popleft()
        if x in expanded:
            continue
        expanded.add(x)
        if x not in h_val:
            h_val[x] = _ref_holding(subtree, x)
        if not (h_val[x] > 0.0 and tc(x)):
            continue
        if degenerate_t:
            continue
        found_conduit = False
        for s in _ref_direct_subsidiaries(subtree, x):
            if s not in t_val:
                t_val[s] = _ref_conduit(subtree, s)
            if t_val[s] > 0.0 and tc(s):
                found_conduit = True
                roles[s] = roles.get(s, Role.NONE) | Role.CONDUIT
                if s not in h_val:
                    h_val[s] = _ref_holding(subtree, s)
                if h_val[s] > 0.0 and tc(s):
                    roles[s] = roles.get(s, Role.NONE) | Role.HOLDING
                    pending.append(s)
        if found_conduit:
            roles[x] = roles.get(x, Role.NONE) | Role.HOLDING
    if not degenerate_t:
        for x in layer1:
            t_val.setdefault(x, _ref_conduit(subtree, x))
    return [
        (g.ids[int(aff)], int(aff), int(subtree.layers[pos]), int(subtree.k_in[pos]), int(subtree.k_out[pos]),
         h_val.get(int(aff)), t_val.get(int(aff)), tc(int(aff)), roles.get(int(aff), Role.NONE))
        for pos, aff in enumerate(subtree.affiliates)
    ]


JURISDICTIONS = ["US", "NL", "GB", "n.a."]


@st.composite
def ownership_views(draw):
    """Small digraphs with cycles, self-loops, parallel and sub-threshold edges,
    "n.a." jurisdictions, and one or two HQs that may share affiliates."""
    n = draw(st.integers(min_value=2, max_value=12))
    jurisdictions = draw(st.lists(st.sampled_from(JURISDICTIONS), min_size=n, max_size=n))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.sampled_from([5.0, 20.0, 60.0])), max_size=3 * n))
    hqs = draw(st.lists(node, min_size=1, max_size=2, unique=True))
    return make_graph(n, edges, dict(enumerate(jurisdictions))), hqs


def _fields(table, m, identified):
    """The reference's per-affiliate fields of MNC ``m``, read from the table and the identification arrays."""
    assert tuple(a.dtype for a in identified) == (np.float64, np.float64, bool, np.int8)
    rows = slice(table.bounds[m], table.bounds[m + 1])
    ids = table.view.graph.ids
    return [
        (ids[a], a, layer, k_in, k_out, None if np.isnan(h) else h, None if np.isnan(t) else t, third, Role(role))
        for a, layer, k_in, k_out, h, t, third, role in zip(
            *(column[rows].tolist() for column in (table.affiliates, table.layers, table.k_in, table.k_out)),
            *(column[rows].tolist() for column in identified))
    ]


class TestArrayIdentificationOracle:
    """The batched identification against the scalar reference above."""

    @given(ownership_views())
    @settings(max_examples=300, deadline=None)
    # a cross-shareholding 2-cycle {2, 3} under a foreign holding 1
    @example((make_graph(4, [(1, 0), (2, 1), (3, 1), (2, 3), (3, 2)],
                         {0: "US", 1: "NL", 2: "GB", 3: "NL"}), [0]))
    # a cycle through the HQ: HQ 0 is a subsidiary of its holding candidate 1
    @example((make_graph(4, [(1, 0), (2, 1), (3, 1), (0, 1)],
                         {0: "US", 1: "NL", 2: "GB", 3: "US"}), [0]))
    # affiliates 2 and 3 shared by the MNCs of HQs 0 and 4, "n.a." jurisdictions
    @example((make_graph(5, [(1, 0), (2, 1), (3, 2), (1, 4), (3, 4)],
                         {0: "US", 1: "n.a.", 2: "n.a.", 3: "GB", 4: "n.a."}), [0, 4]))
    # sum k_in == 0 == sum k_product: a star of direct affiliates
    @example((make_graph(4, [(1, 0), (2, 0), (3, 0)], {0: "US", 1: "NL", 2: "GB", 3: "n.a."}), [0]))
    def test_records_equal_reference(self, case):
        g, hqs = case
        view = substantial_view(g)
        table = subtree_table(view, hqs)
        identified = hierarchical_identify(table)
        columns = {"holding": holding_centrality(table), "conduit": conduit_centrality(table),
                   "third_country": third_country(table)}
        assert columns["third_country"].dtype == bool
        for m, hq in enumerate(hqs):
            subtree = ref_subtree(view, hq)
            # repr tells a Python float from a numpy one and compares floats exactly
            assert repr(_fields(table, m, identified)) == repr(ref_hierarchical_identify(subtree))

            rows = slice(table.bounds[m], table.bounds[m + 1])
            affiliates = subtree.affiliates.tolist()
            assert columns["third_country"][rows].tolist() == [ref_third_country(subtree, a) for a in affiliates]
            for name, ref in (("holding", _ref_holding), ("conduit", _ref_conduit)):
                values = columns[name][rows].tolist()
                if subtree.sum_k_in > 0:
                    assert values == [ref(subtree, a) for a in affiliates]
                else:
                    assert np.isnan(values).all()

    @given(ownership_views())
    @settings(max_examples=300, deadline=None)
    def test_every_affiliate_has_an_out_edge(self, case):
        # each affiliate owns a share of its BFS parent inside the subtree, so
        # k_out >= 1, and a positive k_in sum makes the k_in * k_out sum positive:
        # "sum k_in == 0" is the only degenerate denominator
        g, hqs = case
        table = subtree_table(substantial_view(g), hqs)
        assert (table.k_out >= 1).all()
        positive_in = table.mnc_sums(table.k_in) > 0
        assert (table.mnc_sums(table.k_in * table.k_out)[positive_in] > 0).all()


_COLUMNS = ("affiliates", "layers", "k_in", "k_out", "holding", "conduit", "third_country", "roles")


@st.composite
def hq_lists(draw):
    """An ownership view's graph and an HQ list that may repeat an HQ, hold an
    unknown id, nest one HQ inside another's subtree, or be empty."""
    g, _ = draw(ownership_views())
    hq_ids = draw(st.lists(st.sampled_from(list(g.ids) + ["ghost"]), max_size=4))
    return g, [(hq, f"M{k}") for k, hq in enumerate(hq_ids)]


_NESTED = make_graph(4, [(1, 0), (2, 1), (3, 1)], {0: "US", 1: "NL", 2: "GB", 3: "NL"})


class TestBatchedClassifyOracle:
    """``classify_all`` over one table against the per-MNC reference."""

    @given(hq_lists())
    @settings(max_examples=300, deadline=None)
    # overlapping subtrees: affiliates 2 and 3 under HQs 0 and 4
    @example((make_graph(5, [(1, 0), (2, 1), (3, 2), (1, 4), (3, 4)],
                         {0: "US", 1: "NL", 2: "n.a.", 3: "GB", 4: "NL"}), [("n0", "A"), ("n4", "B")]))
    # the same HQ id under two names
    @example((_NESTED, [("n0", "A"), ("n0", "B")]))
    # HQ n1 inside the subtree of HQ n0
    @example((_NESTED, [("n0", "A"), ("n1", "B")]))
    # a cycle through the HQ
    @example((make_graph(4, [(1, 0), (2, 1), (3, 1), (0, 1)],
                         {0: "US", 1: "NL", 2: "GB", 3: "US"}), [("n0", "A"), ("n1", "B")]))
    # an unknown HQ, an empty list, an all-unknown list
    @example((_NESTED, [("ghost", "G"), ("n0", "A")]))
    @example((_NESTED, []))
    @example((_NESTED, [("ghost", "G"), ("spook", "S")]))
    def test_equals_per_mnc_reference(self, case):
        g, hq_list = case
        view = substantial_view(g)
        got, want = classify_all(view, hq_list), ref_classify_all(view, hq_list)
        assert got.failures == want.failures
        assert got.mncs == want.mncs
        for column in ("hqs", "bounds") + _COLUMNS:
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype, column
            assert repr(a.tolist()) == repr(b.tolist()), column
