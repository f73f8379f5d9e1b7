import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from conftest import make_graph, random_digraph
from ownet import netstats
from ownet.errors import FitError
from ownet.synth import sample_power_law


def curve_dict(curve):
    """A per-degree curve as ``{degree: value}``."""
    return {int(k): float(v) for k, v in zip(curve.degrees, curve.values)}


class TestDegreeHistogram:
    def test_hand_binning(self):
        # positive in-degrees {1,1,2,4}
        g = make_graph(8, [(4, 0), (5, 1), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3), (7, 3)])
        hist = netstats.degree_histogram(g, "in")
        degs = g.in_degrees()
        assert sorted(degs[degs > 0].tolist()) == [1, 1, 2, 4]
        assert hist.bin_edges.tolist() == [1.0, 2.0, 4.0, 8.0]
        assert hist.counts.tolist() == [2, 1, 1]
        assert hist.densities.tolist() == [2 / 4, 1 / 8, 1 / 16]

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        g, _ = random_digraph(rng, 60, p=0.1)
        for direction in ("in", "out"):
            hist = netstats.degree_histogram(g, direction)
            widths = np.diff(hist.bin_edges)
            assert abs(float((hist.densities * widths).sum()) - 1.0) < 1e-9

    def test_all_zero_degrees(self):
        g = make_graph(5, [])
        hist = netstats.degree_histogram(g, "in")
        assert hist.counts.size == 0
        assert hist.rows() == []

    def test_regular_graph_single_bin(self):
        g = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        hist = netstats.degree_histogram(g, "in")
        assert (hist.counts > 0).sum() == 1


def rescan_fit_power_law(samples):
    """Reference: the KS cutoff search with every candidate's tail rescanned from all the data."""
    data = np.asarray(samples)
    data = data[data > 0].astype(np.int64)
    best = None
    for cand in np.unique(data)[: netstats._MAX_XMIN_CANDIDATES]:
        tail = data[data >= cand]
        if tail.size < netstats._MIN_TAIL:
            break
        if int(tail.min()) == int(tail.max()):
            continue
        gamma, loglik = netstats._mle_gamma(tail, int(cand))
        ks = netstats._ks_statistic(tail, gamma, int(cand))
        if best is None or ks < best.ks:
            best = netstats.PowerLawFit(gamma, int(cand), int(tail.size), loglik, ks)
    if best is None:
        raise FitError("no viable x_min candidate (too few or degenerate samples)")
    return best


class TestPowerLawFit:
    def test_recovery(self):
        rng = np.random.default_rng(1)
        samples = sample_power_law(rng, 2.44, 300_000)
        fit = netstats.fit_power_law(samples, x_min=1)
        assert abs(fit.gamma - 2.44) < 0.03
        assert fit.n_tail == 300_000

    def test_degenerate_all_equal(self):
        with pytest.raises(FitError, match="degenerate"):
            netstats.fit_power_law(np.full(100, 5), x_min=5)

    def test_insufficient_samples(self):
        with pytest.raises(FitError, match="50"):
            netstats.fit_power_law(np.arange(1, 20), x_min=1)

    def test_duplicate_samples_leave_estimate_unchanged(self):
        rng = np.random.default_rng(2)
        samples = sample_power_law(rng, 2.6, 5_000)
        a = netstats.fit_power_law(samples, x_min=1).gamma
        b = netstats.fit_power_law(np.concatenate([samples, samples]), x_min=1).gamma
        assert a == pytest.approx(b, abs=1e-9)

    def test_variance_shrinks_with_n(self):
        rng = np.random.default_rng(3)
        small = [netstats.fit_power_law(sample_power_law(rng, 2.5, 500), x_min=1).gamma for _ in range(100)]
        large = [netstats.fit_power_law(sample_power_law(rng, 2.5, 8_000), x_min=1).gamma for _ in range(100)]
        ratio = np.var(small) / np.var(large)
        assert ratio > 4  # 16x the data, ~16x less variance; allow wide slack

    def test_ks_selection_finds_cutoff(self):
        rng = np.random.default_rng(4)
        tail = sample_power_law(rng, 2.5, 100_000, x_min=8)
        noise = rng.integers(1, 8, size=40_000)
        fit = netstats.fit_power_law(np.concatenate([tail, noise]), x_min=None)
        assert fit.x_min >= 4
        assert abs(fit.gamma - 2.5) < 0.15

    @given(st.lists(st.integers(0, 12), max_size=400), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    @example([1] * 30 + [2] * 30 + [5] * 30, 0)  # a degenerate tail is skipped, not fitted
    def test_cutoff_scan_matches_rescan(self, samples, spread):
        samples = np.array(samples, dtype=np.int64) ** (spread + 1)
        try:
            got = netstats.fit_power_law(samples, x_min=None)
        except FitError as exc:
            with pytest.raises(FitError, match=re.escape(str(exc))):
                rescan_fit_power_law(samples)
        else:
            assert got == rescan_fit_power_law(samples)

    def test_binned_slope_tracks_exponent(self):
        rng = np.random.default_rng(5)
        samples = sample_power_law(rng, 2.5, 400_000)
        slope = netstats.binned_fit_slope(netstats.log_binned_histogram(samples))
        assert abs(-slope - 2.5) < 0.3


def brute_clustering(mask):
    und = mask | mask.T
    np.fill_diagonal(und, False)
    n = und.shape[0]
    out = np.zeros(n)
    for v in range(n):
        nbrs = np.flatnonzero(und[v])
        k = nbrs.size
        if k < 2:
            continue
        links = sum(und[a, b] for i, a in enumerate(nbrs) for b in nbrs[i + 1:])
        out[v] = 2 * links / (k * (k - 1))
    return out


@st.composite
def messy_digraphs(draw):
    """Digraphs with reciprocal pairs, parallel edges, a hub star and isolated nodes."""
    n = draw(st.integers(min_value=1, max_value=25))
    node = st.integers(min_value=0, max_value=n - 1)
    edge = st.tuples(node, node, st.booleans(), st.integers(min_value=1, max_value=3))
    edges = []
    for u, v, reciprocal, copies in draw(st.lists(edge, max_size=60)):
        if u == v:
            continue
        edges += [(u, v)] * copies
        if reciprocal:
            edges.append((v, u))
    # node n owns a star over the first `leaves` nodes; the nodes past it are isolated
    leaves = draw(st.integers(min_value=0, max_value=n))
    edges += [(i, n) for i in range(leaves)]
    isolated = draw(st.integers(min_value=0, max_value=3))
    return make_graph(n + 1 + isolated, edges)


class TestClustering:
    def test_triangle(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        curve = netstats.clustering_by_degree(*netstats.undirected_simple_csr(g))
        assert curve_dict(curve) == {2: 1.0}

    def test_star_no_triangles(self):
        g = make_graph(6, [(i, 0) for i in range(1, 6)])
        curve = netstats.clustering_by_degree(*netstats.undirected_simple_csr(g))
        assert curve_dict(curve) == {1: 0.0, 5: 0.0}

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            g, mask = random_digraph(rng, 30, p=0.12)
            got = netstats.local_clustering(*netstats.undirected_simple_csr(g))
            assert np.allclose(got, brute_clustering(mask))

    def test_direction_reversal_invariance(self):
        rng = np.random.default_rng(7)
        g, mask = random_digraph(rng, 25, p=0.12)
        edges = [(j, i) for i, j in zip(g.src, g.dst)]
        rev = make_graph(25, edges)
        assert np.allclose(
            netstats.local_clustering(*netstats.undirected_simple_csr(g)),
            netstats.local_clustering(*netstats.undirected_simple_csr(rev)),
        )

    @settings(max_examples=150, deadline=None)
    @given(messy_digraphs())
    # 256 copies of one pair: summed as a narrow integer type they would wrap to 0
    @example(make_graph(4, [(0, 1)] * 256 + [(1, 2), (2, 0), (3, 0)]))
    def test_kernel_matches_networkx(self, g):
        und = nx.Graph()
        und.add_nodes_from(range(g.n_nodes))
        und.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))

        indptr, nbrs = netstats.undirected_simple_csr(g)
        assert indptr.dtype == np.int64 and nbrs.dtype == np.int64
        assert indptr.shape[0] == g.n_nodes + 1
        for v in range(g.n_nodes):
            assert nbrs[indptr[v]:indptr[v + 1]].tolist() == sorted(und[v])

        tri = netstats.triangle_counts(indptr, nbrs)
        assert tri.dtype == np.int64
        assert tri.tolist() == [nx.triangles(und, v) for v in range(g.n_nodes)]

    @staticmethod
    def networkx_triangles(g):
        und = nx.Graph()
        und.add_nodes_from(range(g.n_nodes))
        und.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
        return [nx.triangles(und, v) for v in range(g.n_nodes)]

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_wedge_chunks_match_networkx(self, monkeypatch, chunk):
        """Wedges taken a few at a time: batches end between the wedges of one
        node, and one edge's wedges can outnumber a whole batch."""
        g, _ = random_digraph(np.random.default_rng(11), 40, p=0.15)
        indptr, nbrs = netstats.undirected_simple_csr(g)
        monkeypatch.setattr(netstats, "WEDGE_CHUNK", chunk)
        tri = netstats.triangle_counts(indptr, nbrs)
        assert tri.sum() // 3 > 20  # enough triangles that many batches find some
        assert tri.tolist() == self.networkx_triangles(g)

    def test_hub_plus_clique(self):
        """Node 0 owns 6 clique members and 30 leaves: the hub ranks last, so every
        triangle through it is found from the wedges of the clique members."""
        clique = range(1, 7)
        g = make_graph(37, [(u, v) for u in clique for v in clique if u < v] + [(k, 0) for k in range(1, 37)])
        tri = netstats.triangle_counts(*netstats.undirected_simple_csr(g))
        assert tri.tolist() == self.networkx_triangles(g)
        assert tri[0] == 15 and tri[1:7].tolist() == [15] * 6 and not tri[7:].any()


class TestKnn:
    def test_star(self):
        g = make_graph(5, [(i, 0) for i in range(1, 5)])
        curve = netstats.knn_by_degree(*netstats.undirected_simple_csr(g))
        assert curve_dict(curve) == {1: 4.0, 4: 1.0}

    def test_regular_ring(self):
        g = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        curve = netstats.knn_by_degree(*netstats.undirected_simple_csr(g))
        assert curve_dict(curve) == {2: 2.0}

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            g, mask = random_digraph(rng, 30, p=0.12)
            und = mask | mask.T
            np.fill_diagonal(und, False)
            deg = und.sum(axis=1)
            curve = netstats.knn_by_degree(*netstats.undirected_simple_csr(g))
            expect = {}
            for v in range(30):
                if deg[v] == 0:
                    continue
                knn = deg[np.flatnonzero(und[v])].mean()
                expect.setdefault(int(deg[v]), []).append(knn)
            expect = {k: float(np.mean(v)) for k, v in expect.items()}
            got = curve_dict(curve)
            assert set(got) == set(expect)
            for k in expect:
                assert got[k] == pytest.approx(expect[k])

    def test_disassortative_tail(self):
        # hubs own only leaves; a sprinkle of leaf-leaf pairs keeps low-k knn high
        edges = []
        nid = 40
        for hub in range(40):
            size = 5 + (hub % 20)
            for _ in range(size):
                edges.append((nid, hub))
                nid += 1
        g = make_graph(nid, edges)
        curve = netstats.knn_by_degree(*netstats.undirected_simple_csr(g))
        rho = spearmanr(curve.degrees, curve.values).statistic
        assert rho < 0
