import numpy as np
import pytest

from conftest import make_graph, random_digraph
from ownet.community import (
    community_size_histogram,
    detect_communities,
    map_equation,
    stationary_flow,
)
from ownet.errors import ConvergenceError, GraphError


def two_cliques(size=10):
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(size):
                if i != j:
                    edges.append((base + i, base + j))
    edges.append((0, size))
    return make_graph(2 * size, edges)


class TestStationaryFlow:
    def test_symmetric_two_cycle(self):
        g = make_graph(2, [(0, 1), (1, 0)])
        flow = stationary_flow(g, damping=0.85)
        assert np.allclose(flow.rates, [0.5, 0.5])

    def test_directed_three_cycle(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        flow = stationary_flow(g)
        assert np.allclose(flow.rates, 1 / 3)

    def test_dense_eigen_oracle(self):
        rng = np.random.default_rng(42)
        g, mask = random_digraph(rng, 10, p=0.3)
        flow = stationary_flow(g, tolerance=1e-14)
        n = 10
        P = np.zeros((n, n))
        for i in range(n):
            outs = np.flatnonzero(mask[i])
            if outs.size:
                P[i, outs] = 1.0 / outs.size
            else:
                P[i, :] = 1.0 / n
        M = 0.85 * P + 0.15 / n
        w, v = np.linalg.eig(M.T)
        stat = np.real(v[:, np.argmax(np.real(w))])
        stat /= stat.sum()
        assert np.abs(stat - flow.rates).max() < 1e-8

    def test_rates_sum_to_one(self):
        rng = np.random.default_rng(1)
        g, _ = random_digraph(rng, 30, p=0.05)
        flow = stationary_flow(g)
        assert abs(flow.rates.sum() - 1.0) < 1e-10
        assert (flow.rates >= 0).all()

    def test_conservation_identity(self):
        # stationarity: rate = teleport inflow + link inflow, per node
        rng = np.random.default_rng(2)
        g, _ = random_digraph(rng, 20, p=0.1)
        flow = stationary_flow(g, tolerance=1e-14)
        n = g.n_nodes
        inflow = np.full(n, flow.teleport.sum() / n)
        np.add.at(inflow, g.dst, flow.edge_flows)
        assert np.abs(inflow - flow.rates).max() < 1e-10

    def test_parameter_validation(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            stationary_flow(g, damping=1.0)
        with pytest.raises(ValueError):
            stationary_flow(g, tolerance=0.0)

    def test_non_convergence(self):
        rng = np.random.default_rng(11)
        g, _ = random_digraph(rng, 20, p=0.1)
        with pytest.raises(ConvergenceError):
            stationary_flow(g, tolerance=1e-15, max_iter=2)


class TestMapEquation:
    def test_one_community_equals_entropy(self):
        rng = np.random.default_rng(3)
        g, _ = random_digraph(rng, 15, p=0.15)
        flow = stationary_flow(g, tolerance=1e-14)
        entropy = float(-(flow.rates * np.log2(flow.rates)).sum())
        assert map_equation(np.zeros(15, dtype=int), flow) == pytest.approx(entropy, abs=1e-12)

    def test_singletons_exceed_one_community_on_cycle(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        flow = stationary_flow(g)
        assert map_equation([0, 1, 2], flow) >= map_equation([0, 0, 0], flow)

    def test_planted_partition_beats_trivial(self):
        g = two_cliques()
        flow = stationary_flow(g)
        planted = np.array([0] * 10 + [1] * 10)
        assert map_equation(planted, flow) < map_equation(np.zeros(20, dtype=int), flow)

    def test_inconsistent_partition(self):
        g = make_graph(3, [(0, 1)])
        flow = stationary_flow(g)
        with pytest.raises(GraphError):
            map_equation([0, 1], flow)


class TestDetect:
    def test_two_cliques_recovered(self):
        g = two_cliques()
        hits = 0
        for seed in range(20):
            partition = detect_communities(g, seed=seed)
            labels = partition.labels
            ok = (
                partition.n_communities == 2
                and len(set(labels[:10].tolist())) == 1
                and len(set(labels[10:].tolist())) == 1
            )
            hits += ok
        assert hits == 20

    def test_single_cycle_one_community(self):
        g = make_graph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert detect_communities(g, seed=1).n_communities == 1

    def test_empty_graph(self):
        g = make_graph(0, [])
        partition = detect_communities(g)
        assert partition.labels.size == 0
        assert partition.codelength == 0.0

    def test_deterministic_per_seed(self):
        g = two_cliques(6)
        a = detect_communities(g, seed=5)
        b = detect_communities(g, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert a.codelength == b.codelength

    def test_monotone_move_trace(self):
        g = two_cliques()
        trace: list[float] = []
        detect_communities(g, seed=0, trace=trace)
        assert len(trace) > 0
        diffs = np.diff(np.array(trace))
        assert (diffs < 0).all()

    def test_detected_no_worse_than_trivial(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            g, _ = random_digraph(rng, 25, p=0.1)
            partition = detect_communities(g, seed=seed)
            flow = stationary_flow(g)
            assert partition.codelength <= map_equation(np.zeros(25, dtype=int), flow) + 1e-9

    def test_codelength_matches_map_equation(self):
        g = two_cliques()
        partition = detect_communities(g, seed=0)
        flow = stationary_flow(g)
        assert partition.codelength == pytest.approx(map_equation(partition.labels, flow), abs=1e-9)

    def test_codelength_above_walk_entropy_rate(self):
        # per-step entropy of the teleporting walk bounds any two-level code
        def entropy_rate(g, damping=0.85):
            n = g.n_nodes
            flow = stationary_flow(g, tolerance=1e-14)
            out_deg = g.out_degrees()
            total = 0.0
            for a in range(n):
                probs = np.full(n, (1 - damping) / n)
                if out_deg[a] == 0:
                    probs += damping / n
                else:
                    for b in g.out_neighbors(a):
                        probs[b] += damping / out_deg[a]
                total += flow.rates[a] * float(-(probs * np.log2(probs)).sum())
            return total

        rng = np.random.default_rng(7)
        graphs = [two_cliques(), make_graph(7, [(i, (i + 1) % 7) for i in range(7)])]
        graphs += [random_digraph(rng, 20, p=0.12)[0] for _ in range(3)]
        for g in graphs:
            partition = detect_communities(g, seed=1)
            assert partition.codelength >= entropy_rate(g) - 1e-9


class TestSizeHistogram:
    def _partition_of_sizes(self, sizes):
        labels = np.concatenate([[i] * s for i, s in enumerate(sizes)])
        n = labels.size
        g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        partition = detect_communities(g, seed=0)
        object.__setattr__(partition, "labels", labels.astype(np.int64))
        return partition

    def test_counts(self):
        hist = community_size_histogram(self._partition_of_sizes([3, 3, 4]))
        assert hist.raw == {3: 2, 4: 1}

    def test_single_community(self):
        hist = community_size_histogram(self._partition_of_sizes([12]))
        assert hist.raw == {12: 1}

    def test_fit_recovers_exponent(self):
        from ownet.netstats import fit_power_law
        from ownet.synth import sample_power_law

        rng = np.random.default_rng(5)
        sizes = sample_power_law(rng, 2.60, 60_000)
        labels = np.concatenate([[i] * int(s) for i, s in enumerate(sizes)])
        n = labels.size
        g = make_graph(2, [(0, 1)])
        partition = detect_communities(g, seed=0)
        object.__setattr__(partition, "labels", labels.astype(np.int64))
        fit = fit_power_law(partition.sizes(), x_min=1)
        assert abs(fit.gamma - 2.60) < 0.1
