import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_digraph
from ownet import components as comp
from ownet._csr import canonical_edge_order, dense_relabel, sorted_unique
from ownet.errors import GraphError


def closure(mask):
    """Boolean transitive closure by repeated squaring (oracle)."""
    n = mask.shape[0]
    reach = mask.copy()
    np.fill_diagonal(reach, True)
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def brute_force_bowtie(mask):
    """Node regions straight from the definitions, via full reachability."""
    n = mask.shape[0]
    reach = closure(mask)
    und = closure(mask | mask.T)
    comp_sizes = und.sum(axis=1)
    # GWCC: largest undirected class, ties to the smallest member
    best_size = comp_sizes.max()
    gwcc_rep = min(i for i in range(n) if comp_sizes[i] == best_size)
    gwcc = set(np.flatnonzero(und[gwcc_rep]))

    mutual = reach & reach.T
    # SCC classes within the GWCC; largest, ties to smallest member
    seen, sccs = set(), []
    for i in sorted(gwcc):
        if i not in seen:
            members = set(np.flatnonzero(mutual[i])) & gwcc
            seen |= members
            sccs.append(sorted(members))
    gscc = set(max(sccs, key=lambda s: (len(s), -s[0])))

    regions = {}
    for v in range(n):
        if v not in gwcc:
            regions[v] = "REST"
        elif v in gscc:
            regions[v] = "GSCC"
        elif any(reach[v, w] for w in gscc):
            regions[v] = "IN"
        elif any(reach[w, v] for w in gscc):
            regions[v] = "OUT"
        else:
            regions[v] = "TE"
    return regions


def region_names(bowtie):
    return {i: comp.REGION_NAMES[int(r)] for i, r in enumerate(bowtie.region)}


class TestWeakComponents:
    def test_two_disjoint_edges(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        labeling = comp.weak_components(g)
        assert labeling.n_components == 2
        assert sorted(labeling.sizes.tolist()) == [2, 2]

    def test_union_find_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g, mask = random_digraph(rng, 50, p=0.05)
            labeling = comp.weak_components(g)
            und = closure(mask | mask.T)
            for i in range(50):
                for j in range(50):
                    same = labeling.labels[i] == labeling.labels[j]
                    assert same == bool(und[i, j])

    def test_labels_partition(self):
        rng = np.random.default_rng(2)
        g, _ = random_digraph(rng, 30)
        labeling = comp.weak_components(g)
        assert labeling.sizes.sum() == g.n_nodes

    def test_deterministic_label_order(self):
        g = make_graph(4, [(2, 3), (0, 1)])
        labeling = comp.weak_components(g)
        assert labeling.labels[0] == 0  # component of the smallest node first


class TestStrongComponents:
    def test_cycle_plus_pendant(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        labeling = comp.strong_components(g)
        assert labeling.n_components == 2
        assert labeling.labels[0] == labeling.labels[1] == labeling.labels[2]
        assert labeling.labels[3] != labeling.labels[0]

    def test_dag_singletons(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert comp.strong_components(g).n_components == 5

    def test_reachability_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g, mask = random_digraph(rng, 40, p=0.06)
            labeling = comp.strong_components(g)
            reach = closure(mask)
            mutual = reach & reach.T
            for i in range(40):
                for j in range(40):
                    assert (labeling.labels[i] == labeling.labels[j]) == bool(mutual[i, j])

    def test_scc_contraction_is_dag(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g, _ = random_digraph(rng, 35, p=0.08)
            labeling = comp.strong_components(g)
            k = labeling.n_components
            cmask = np.zeros((k, k), dtype=bool)
            for s, d in zip(g.src, g.dst):
                a, b = labeling.labels[s], labeling.labels[d]
                if a != b:
                    cmask[a, b] = True
            reach = closure(cmask)
            np.fill_diagonal(reach, False)
            assert not np.any(reach & reach.T)


class TestBowTie:
    def test_spec_example(self):
        g = make_graph(8, [(1, 2), (2, 3), (3, 1), (0, 1), (3, 4), (0, 7)])
        names = region_names(comp.bowtie_decompose(g))
        assert names[1] == names[2] == names[3] == "GSCC"
        assert names[0] == "IN"
        assert names[4] == "OUT"
        assert names[7] == "TE"

    def test_fully_strongly_connected(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        bowtie = comp.bowtie_decompose(g)
        assert bowtie.sizes[comp.GSCC] == 4
        assert bowtie.sizes[comp.IN] == bowtie.sizes[comp.OUT] == bowtie.sizes[comp.TE] == 0

    def test_empty_graph(self):
        g = make_graph(0, [])
        with pytest.raises(GraphError):
            comp.bowtie_decompose(g)

    def test_regions_partition_gwcc(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g, _ = random_digraph(rng, 40, p=0.06)
            bowtie = comp.bowtie_decompose(g)
            assert sum(bowtie.sizes.values()) == bowtie.gwcc_size

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            g, mask = random_digraph(rng, n, p=float(rng.uniform(0.02, 0.15)))
            got = region_names(comp.bowtie_decompose(g))
            assert got == brute_force_bowtie(mask)


class TestRatioFormatting:
    def test_table_values(self):
        total = 6_827_299
        assert comp.ratio_percent_3dp(2239, total) == "0.033"
        assert comp.ratio_percent_3dp(1_161_655, total) == "17.015"
        assert comp.ratio_percent_3dp(15_514, total) == "0.227"
        assert comp.ratio_percent_3dp(5_647_891, total) == "82.725"

    def test_half_up(self):
        assert comp.ratio_percent_3dp(5, 10000) == "0.050"
        assert comp.ratio_percent_3dp(25, 1000000) == "0.003"  # 0.0025 rounds up

    def test_summary_rows(self):
        g = make_graph(8, [(1, 2), (2, 3), (3, 1), (0, 1), (3, 4), (0, 7)])
        rows = comp.bowtie_decompose(g).summary_rows()
        assert rows[0] == ("GSCC", 3, "50.000")
        assert rows[-1] == ("Total", 6, "100")


class TestSizeHistogram:
    def test_example(self):
        g = make_graph(9, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8)])
        hist = comp.component_size_histogram(comp.weak_components(g))
        assert hist == {2: 2, 5: 1}

    def test_singletons(self):
        g = make_graph(4, [])
        hist = comp.component_size_histogram(comp.weak_components(g))
        assert hist == {1: 4}

    def test_exclude_largest(self):
        # the giant component is one entry of the histogram; the rest remain
        g = make_graph(9, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8)])
        labeling = comp.weak_components(g)
        hist = comp.component_size_histogram(labeling)
        assert int(labeling.sizes[labeling.largest]) == 5
        assert hist == {2: 2, 5: 1}


class TestDistances:
    def graph_with_chain(self):
        # a(0) -> b(1) -> c(2) -> G(3) <-> X(4); G -> o(5)
        return make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 3), (3, 5)])

    def test_chain_distances(self):
        bowtie = comp.bowtie_decompose(self.graph_with_chain())
        assert comp.distance_distribution(bowtie, "in") == {1: 1, 2: 1, 3: 1}
        assert bowtie.size(comp.IN) == 3

    def test_direct_out_distance(self):
        bowtie = comp.bowtie_decompose(self.graph_with_chain())
        assert comp.distance_distribution(bowtie, "out") == {1: 1}

    def test_counts_sum_to_region(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g, _ = random_digraph(rng, 40, p=0.08)
            bowtie = comp.bowtie_decompose(g)
            for direction, region in (("in", comp.IN), ("out", comp.OUT)):
                counts = comp.distance_distribution(bowtie, direction)
                # every IN node reaches the GSCC, and the GSCC reaches every OUT node
                assert sum(counts.values()) == bowtie.sizes[region]
                assert all(d >= 1 for d in counts)

    def test_invalid_direction(self):
        bowtie = comp.bowtie_decompose(self.graph_with_chain())
        with pytest.raises(ValueError):
            comp.distance_distribution(bowtie, "sideways")


def unique_rank_by_first_member(raw):
    """The np.unique form of the first-member relabel (oracle)."""
    uniq, first = np.unique(raw, return_index=True)
    rank = np.empty(uniq.shape[0], dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.shape[0])
    return rank[np.searchsorted(uniq, raw)]


@given(st.lists(st.integers(min_value=-3, max_value=2**40), max_size=60),
       st.sampled_from([np.int32, np.int64]))
@settings(max_examples=200, deadline=None)
def test_rank_by_first_member_matches_unique(values, dtype):
    raw = np.array(values, dtype=np.int64).astype(dtype)
    got = comp.rank_by_first_member(raw)
    want = unique_rank_by_first_member(raw)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_rank_by_first_member_rejects_overflowing_keys():
    with pytest.raises(ValueError, match="too wide a range"):
        comp.rank_by_first_member(np.array([2**62, -2**62, 5], dtype=np.int64))


@given(st.lists(st.integers(min_value=-3, max_value=2**40), max_size=60),
       st.sampled_from([np.int32, np.int64]))
@example([], np.int64)
@example([5, 5, 5], np.int32)
@settings(max_examples=200, deadline=None)
def test_sorted_unique_matches_unique(values, dtype):
    raw = np.array(values, dtype=np.int64).astype(dtype)
    got, got_counts = sorted_unique(raw, return_counts=True)
    want, want_counts = np.unique(raw, return_counts=True)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_counts.dtype == want_counts.dtype and got_counts.tolist() == want_counts.tolist()
    assert sorted_unique(raw).tolist() == want.tolist()


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=40))),
       st.sampled_from([np.int32, np.int64]))
@example((0, []), np.int32)
@example((6, [5, 0, 5, 2]), np.int32)
@settings(max_examples=200, deadline=None)
def test_dense_relabel_matches_unique_inverse(bounded, dtype):
    n, values = bounded
    raw = np.array(values, dtype=dtype)
    used, codes = dense_relabel(raw, n)
    want_used, want_codes = np.unique(raw, return_inverse=True)
    assert used.tolist() == want_used.tolist()
    assert codes.dtype == want_codes.dtype and codes.tolist() == want_codes.tolist()


@st.composite
def edge_lists(draw):
    """``(src, dst, n)`` with repeated pairs likely, sorted input sometimes."""
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    if draw(st.booleans()):
        pairs.sort()
    src = np.array([p[0] for p in pairs], dtype=np.int32)
    dst = np.array([p[1] for p in pairs], dtype=np.int32)
    return src, dst, n


@given(edge_lists())
@example((np.zeros(0, np.int32), np.zeros(0, np.int32), 1))
@example((np.array([1, 0, 1, 0], np.int32), np.array([2, 2, 2, 2], np.int32), 3))
@settings(max_examples=300, deadline=None)
def test_canonical_edge_order_matches_lexsort(edges):
    src, dst, n = edges
    for a, b in ((src, dst), (dst, src)):
        got = canonical_edge_order(a, b, n)
        want = np.lexsort((b, a))
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
