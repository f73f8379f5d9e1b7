import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_graph, out_neighbors, random_digraph
from ownet.community import (
    _MIN_MOVE_GAIN,
    MIN_CODELENGTH_GAIN,
    _aggregate,
    _Level,
    _Optimizer,
    _plogp,
    _plogp_arr,
    _run_levels,
    community_size_histogram,
    detect_communities,
    map_equation,
    stationary_flow,
)
from ownet.components import rank_by_first_member
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


@st.composite
def block_digraphs(draw):
    """Digraphs of up to four blocks with no edge between blocks.

    Blocks give several weak components; unpicked nodes stay isolated or
    dangling, and mirrored pairs add 2-cycles.
    """
    n = draw(st.integers(min_value=1, max_value=60))
    blocks = draw(st.integers(min_value=1, max_value=4))
    block = draw(st.lists(st.integers(min_value=0, max_value=blocks - 1), min_size=n, max_size=n))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node, st.booleans()), max_size=4 * n))
    edges = set()
    for a, b, mirror in pairs:
        if a != b and block[a] == block[b]:
            edges.add((a, b))
            if mirror:
                edges.add((b, a))
    return make_graph(n, sorted(edges))


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

    @given(block_digraphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @example(two_cliques(6), 5)
    @settings(max_examples=50, deadline=None)
    def test_deterministic_per_seed(self, g, seed):
        a = detect_communities(g, seed=seed)
        b = detect_communities(g, seed=seed)
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
                    for b in out_neighbors(g, a):
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
        assert hist.rows() == [(1.0, 2.0, 0, 0.0), (2.0, 4.0, 2, 2 / 6), (4.0, 8.0, 1, 1 / 12)]

    def test_single_community(self):
        hist = community_size_histogram(self._partition_of_sizes([12]))
        assert hist.counts.tolist() == [0, 0, 0, 1]
        assert hist.bin_edges.tolist() == [1.0, 2.0, 4.0, 8.0, 16.0]

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


# -- reference optimizer ---------------------------------------------------
# A plain scalar move loop, aggregation and level cycle: module sums built by
# loops over nodes and edges, numpy scalar reads, dict accumulators, every
# node active at the start of a level, every _plogp term evaluated per
# candidate and np.unique merging module links. _Optimizer and _aggregate
# must match it bit for bit.

class RefOptimizer:
    def __init__(self, level, n_orig, const_term, trace=None, mod=None):
        self.lv = level
        self.n_orig = n_orig
        self.const = const_term
        self.trace = trace
        n = level.n
        self.mod = np.arange(n, dtype=np.int64) if mod is None else np.array(mod, dtype=np.int64)
        self.m_s = np.zeros(n)
        self.m_t = np.zeros(n)
        self.m_size = np.zeros(n)
        self.m_e = np.zeros(n)
        for v in range(n):
            c = int(self.mod[v])
            self.m_s[c] += float(level.s[v])
            self.m_t[c] += float(level.t[v])
            self.m_size[c] += float(level.size[v])
        for a, b, w in zip(level.src.tolist(), level.dst.tolist(), level.w.tolist()):
            if self.mod[a] != self.mod[b]:
                self.m_e[int(self.mod[a])] += w
        self.m_q = self._exit(self.m_t, self.m_size, self.m_e)
        self.qtot = float(self.m_q.sum())
        self.sum_plogp_q = _plogp_arr(self.m_q)
        self.sum_plogp_qs = _plogp_arr(self.m_q + self.m_s)

    def _exit(self, t, size, e):
        return t * (self.n_orig - size) / self.n_orig + e

    def codelength(self):
        return _plogp(self.qtot) - 2.0 * self.sum_plogp_q + self.sum_plogp_qs - self.const

    def _try_move(self, v):
        lv = self.lv
        i = int(self.mod[v])
        lo, hi = lv.out_indptr[v], lv.out_indptr[v + 1]
        out_nb, out_w = lv.dst[lo:hi], lv.w[lo:hi]
        lo, hi = lv.in_indptr[v], lv.in_indptr[v + 1]
        in_nb, in_w = lv.in_sources[lo:hi], lv.in_w[lo:hi]
        flow_to = {}
        flow_from = {}
        for nb, w in zip(out_nb, out_w):
            c = int(self.mod[nb])
            flow_to[c] = flow_to.get(c, 0.0) + float(w)
        for nb, w in zip(in_nb, in_w):
            c = int(self.mod[nb])
            flow_from[c] = flow_from.get(c, 0.0) + float(w)

        fout_v = float(lv.total_out[v])
        s_v, t_v, size_v = float(lv.s[v]), float(lv.t[v]), float(lv.size[v])

        s_i = self.m_s[i] - s_v
        t_i = self.m_t[i] - t_v
        size_i = self.m_size[i] - size_v
        e_i = self.m_e[i] - (fout_v - flow_to.get(i, 0.0)) + flow_from.get(i, 0.0)
        q_i_new = t_i * (self.n_orig - size_i) / self.n_orig + e_i

        q_i_old = self.m_q[i]

        candidates = sorted(set(flow_to) | set(flow_from))
        best_j = -1
        best_gain = -_MIN_MOVE_GAIN
        best_state = None
        for j in candidates:
            if j == i:
                continue
            s_j = self.m_s[j] + s_v
            t_j = self.m_t[j] + t_v
            size_j = self.m_size[j] + size_v
            e_j = self.m_e[j] + (fout_v - flow_to.get(j, 0.0)) - flow_from.get(j, 0.0)
            q_j_new = t_j * (self.n_orig - size_j) / self.n_orig + e_j
            q_j_old = self.m_q[j]

            qtot_new = self.qtot - q_i_old - q_j_old + q_i_new + q_j_new
            delta = (
                _plogp(qtot_new)
                - _plogp(self.qtot)
                - 2.0 * (_plogp(q_i_new) + _plogp(q_j_new) - _plogp(q_i_old) - _plogp(q_j_old))
                + _plogp(q_i_new + s_i)
                + _plogp(q_j_new + s_j)
                - _plogp(q_i_old + self.m_s[i])
                - _plogp(q_j_old + self.m_s[j])
            )
            if delta < best_gain:
                best_gain = delta
                best_j = j
                best_state = (s_i, t_i, size_i, e_i, q_i_new, s_j, t_j, size_j, e_j, q_j_new, qtot_new)

        if best_j < 0:
            return False

        j = best_j
        s_i, t_i, size_i, e_i, q_i_new, s_j, t_j, size_j, e_j, q_j_new, qtot_new = best_state
        self.sum_plogp_q += (
            _plogp(q_i_new) + _plogp(q_j_new) - _plogp(self.m_q[i]) - _plogp(self.m_q[j])
        )
        self.sum_plogp_qs += (
            _plogp(q_i_new + s_i)
            + _plogp(q_j_new + s_j)
            - _plogp(self.m_q[i] + self.m_s[i])
            - _plogp(self.m_q[j] + self.m_s[j])
        )
        self.m_s[i], self.m_t[i], self.m_size[i], self.m_e[i], self.m_q[i] = s_i, t_i, size_i, e_i, q_i_new
        self.m_s[j], self.m_t[j], self.m_size[j], self.m_e[j], self.m_q[j] = s_j, t_j, size_j, e_j, q_j_new
        self.qtot = qtot_new
        self.mod[v] = j
        if self.trace is not None:
            self.trace.append(self.codelength())
        return True

    def run_passes(self, rng):
        lv = self.lv
        active = [True] * lv.n
        moved_total = 0
        while True:
            moved = 0
            for v in rng.permutation(lv.n):
                v = int(v)
                if not active[v]:
                    continue
                active[v] = False
                if not self._try_move(v):
                    continue
                moved += 1
                j = int(self.mod[v])
                neighbours = np.concatenate([
                    lv.dst[lv.out_indptr[v]:lv.out_indptr[v + 1]],
                    lv.in_sources[lv.in_indptr[v]:lv.in_indptr[v + 1]],
                ])
                for nb in neighbours:
                    if int(self.mod[nb]) != j:
                        active[int(nb)] = True
            moved_total += moved
            if moved == 0:
                return moved_total

    def sweep_passes(self, rng):
        """The full-sweep schedule the active set replaced: every node in every pass."""
        moved_total = 0
        while True:
            moved = 0
            for v in rng.permutation(self.lv.n):
                if self._try_move(int(v)):
                    moved += 1
            moved_total += moved
            if moved == 0:
                return moved_total


def ref_aggregate(level, mod):
    comms = np.unique(mod)
    remap = np.full(int(mod.max()) + 1, -1, dtype=np.int64)
    remap[comms] = np.arange(comms.shape[0])
    dense = remap[mod]

    s = np.bincount(dense, weights=level.s, minlength=comms.shape[0])
    t = np.bincount(dense, weights=level.t, minlength=comms.shape[0])
    size = np.bincount(dense, weights=level.size, minlength=comms.shape[0])

    cs = dense[level.src]
    cd = dense[level.dst]
    ext = cs != cd
    cs, cd, w = cs[ext], cd[ext], level.w[ext]
    if cs.size:
        key = cs * comms.shape[0] + cd
        uniq, inv = np.unique(key, return_inverse=True)
        agg_w = np.bincount(inv, weights=w)
        e_src = (uniq // comms.shape[0]).astype(np.int64)
        e_dst = (uniq % comms.shape[0]).astype(np.int64)
    else:
        e_src = np.zeros(0, dtype=np.int64)
        e_dst = np.zeros(0, dtype=np.int64)
        agg_w = np.zeros(0)
    return _Level(s, t, size, e_src, e_dst, agg_w), dense


def flow_level(g):
    """The flow, the codelength's constant term and level 0, as detect_communities builds them."""
    flow = stationary_flow(g)
    level0 = _Level(
        flow.rates.astype(np.float64),
        flow.teleport.astype(np.float64),
        np.ones(g.n_nodes, dtype=np.float64),
        g.src.astype(np.int64),
        g.dst.astype(np.int64),
        flow.edge_flows.astype(np.float64),
    )
    return flow, _plogp_arr(flow.rates), level0


def ref_trial(level, n, const_term, rng, moves, sweep=False):
    """Move passes and aggregation from singletons; returns node -> module."""
    assign = np.arange(n, dtype=np.int64)
    current_len = None
    while True:
        opt = RefOptimizer(level, n, const_term, trace=moves)
        if current_len is None:
            current_len = opt.codelength()
        moved = opt.sweep_passes(rng) if sweep else opt.run_passes(rng)
        new_len = opt.codelength()
        if moved == 0 or current_len - new_len < MIN_CODELENGTH_GAIN:
            return assign
        current_len = new_len
        level, dense = ref_aggregate(level, opt.mod)
        assign = dense[assign]
        if level.n <= 1:
            return assign


def ref_detect_communities(g, seed, trace=None, sweep=False, best_of_two=False):
    """One active-set trial, then move passes over the original nodes from
    its partition. ``best_of_two`` runs the schedule the fine-tune replaced:
    two active-set trials, the better kept; ``sweep`` runs the one before
    that: one trial of full sweeps."""
    n = g.n_nodes
    flow, const_term, level0 = flow_level(g)
    rng = np.random.default_rng(seed)
    if sweep or best_of_two:
        trials = []
        for _ in range(2 if best_of_two else 1):
            moves = []
            labels = rank_by_first_member(ref_trial(level0, n, const_term, rng, moves, sweep))
            trials.append((map_equation(labels, flow), labels, moves))
        codelength, labels, moves = min(trials, key=lambda trial: trial[0])  # ties: the first
    else:
        moves = []
        coarse = rank_by_first_member(ref_trial(level0, n, const_term, rng, moves))
        fine = RefOptimizer(level0, n, const_term, trace=moves, mod=coarse)
        fine.run_passes(rng)
        labels = rank_by_first_member(fine.mod)
        codelength = map_equation(labels, flow)
    if trace is not None:
        trace.extend(moves)
    if map_equation(np.zeros(n, dtype=np.int64), flow) < codelength:
        labels = np.zeros(n, dtype=np.int64)
    return labels, map_equation(labels, flow)


def disjoint_cliques(size, count):
    return make_graph(size * count, [
        (base + i, base + j)
        for base in range(0, size * count, size)
        for i in range(size) for j in range(size) if i != j
    ])


class TestMoveLoopOracle:
    """The optimizer reproduces the scalar reference exactly, tie breaks included."""

    @staticmethod
    def assert_same_run(g, seed):
        trace: list[float] = []
        ref_trace: list[float] = []
        partition = detect_communities(g, seed=seed, trace=trace)
        ref_labels, ref_codelength = ref_detect_communities(g, seed, ref_trace)
        assert partition.labels.tolist() == ref_labels.tolist()
        assert partition.codelength == ref_codelength
        assert trace == ref_trace

    @given(block_digraphs(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_digraphs(self, g, seed):
        self.assert_same_run(g, seed)

    @pytest.mark.parametrize("g", [
        disjoint_cliques(5, 2),
        disjoint_cliques(3, 4),
        two_cliques(6),
        make_graph(9, [(i, (i + 1) % 9) for i in range(9)]),
        make_graph(8, [(0, leaf) for leaf in range(1, 8)]),
        make_graph(8, [(leaf, 0) for leaf in range(1, 8)]),
        make_graph(7, [(0, leaf) for leaf in range(1, 7)] + [(leaf, 0) for leaf in range(1, 7)]),
    ], ids=["two-5-cliques", "four-triangles", "bridged-cliques", "cycle", "out-star",
            "in-star", "two-way-star"])
    @pytest.mark.parametrize("seed", range(8))
    def test_tied_candidates(self, g, seed):
        self.assert_same_run(g, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_determinism_gwcc(self, determinism_gwcc, seed):
        g = determinism_gwcc
        self.assert_same_run(g, seed)
        # the fine-tune moves nodes here, so the case covers its start partition
        _, const_term, level0 = flow_level(g)
        trial_moves: list[float] = []
        _run_levels(level0, g.n_nodes, const_term, np.random.default_rng(seed), trial_moves)
        trace: list[float] = []
        detect_communities(g, seed=seed, trace=trace)
        assert len(trace) > len(trial_moves)

    @given(block_digraphs())
    @settings(max_examples=100, deadline=None)
    def test_singleton_start_matches_copies(self, g):
        # the bincount start equals the per-node copies it replaced, bit for bit,
        # on level 0 and on an aggregated level
        n = g.n_nodes
        _, const_term, level0 = flow_level(g)
        for level in (level0, _aggregate(level0, detect_communities(g).labels)[0]):
            opt = _Optimizer(level, n, const_term)
            m_s, m_t = level.s.astype(np.float64), level.t.astype(np.float64)
            m_size, m_e = level.size.astype(np.float64), level.total_out.astype(np.float64)
            m_q = m_t * (n - m_size) / n + m_e
            for got, want in ((opt.m_s, m_s), (opt.m_t, m_t), (opt.m_size, m_size), (opt.m_e, m_e),
                              (opt.m_q, m_q)):
                assert got.tobytes() == want.tobytes()
            assert opt.mod.tolist() == list(range(level.n))
            assert opt.qtot == float(m_q.sum())
            assert opt.sum_plogp_q == _plogp_arr(m_q)
            assert opt.sum_plogp_qs == _plogp_arr(m_q + m_s)
            assert opt.p_qtot == _plogp(opt.qtot)
            assert opt.p_q.tolist() == [_plogp(x) for x in m_q.tolist()]
            assert opt.p_qs.tolist() == [_plogp(x) for x in (m_q + m_s).tolist()]

    @pytest.mark.parametrize("seed", range(3))
    def test_aggregate_many_parallel_links(self, seed):
        # thousands of edges between a few modules: each merged flow is a long
        # sum whose value depends on the order of its terms
        rng = np.random.default_rng(seed)
        n, m = 400, 5000
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        keep = src != dst
        w = 10.0 ** rng.uniform(-12, 0, m)
        level = _Level(rng.random(n), rng.random(n), np.ones(n), src[keep], dst[keep], w[keep])
        mod = rng.integers(0, 6, n) * 7
        got, dense = _aggregate(level, mod)
        want, want_dense = ref_aggregate(level, mod)
        assert dense.tolist() == want_dense.tolist()
        for name in ("s", "t", "size", "src", "dst", "w"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()


@pytest.fixture(scope="module")
def determinism_gwcc(tmp_path_factory):
    """The GWCC of the acceptance test 10 corpus (838 nodes)."""
    from ownet.components import weak_components
    from ownet.graph import load_graph
    from ownet.pipeline import community_scope
    from ownet.synth import SynthSpec, build_corpus, write_corpus

    spec = SynthSpec(seed=20_10, n_noise=800, noise_edges=1000, n_mncs=8, core_size=40, out_chain=8)
    paths = write_corpus(build_corpus(spec), tmp_path_factory.mktemp("corpus10"))
    graph = load_graph(paths["nodes"], paths["edges"])
    return community_scope(graph, weak_components(graph))


def counting_try_move(monkeypatch, cls):
    """Wrap ``cls._try_move`` to count calls; returns the one-element counter."""
    calls = [0]
    original = cls._try_move

    def counted(self, v):
        calls[0] += 1
        return original(self, v)

    monkeypatch.setattr(cls, "_try_move", counted)
    return calls


def test_schedule_beats_full_sweep(determinism_gwcc, monkeypatch):
    # two active-set trials: no worse on average than one trial of full
    # sweeps, and fewer move attempts at every seed
    from ownet.community import _Optimizer

    g = determinism_gwcc
    assert g.n_nodes == 838
    opt_calls = counting_try_move(monkeypatch, _Optimizer)
    ref_calls = counting_try_move(monkeypatch, RefOptimizer)
    lengths, sweep_lengths = [], []
    for seed in range(16):
        opt_calls[0] = ref_calls[0] = 0
        lengths.append(detect_communities(g, seed=seed).codelength)
        sweep_lengths.append(ref_detect_communities(g, seed, sweep=True)[1])
        assert opt_calls[0] < ref_calls[0], seed
    assert np.mean(lengths) <= np.mean(sweep_lengths)


def test_schedule_beats_best_of_two(determinism_gwcc, monkeypatch):
    # one trial plus the fine-tune: no worse on average than the better of
    # two trials, and fewer move attempts at every seed
    g = determinism_gwcc
    opt_calls = counting_try_move(monkeypatch, _Optimizer)
    ref_calls = counting_try_move(monkeypatch, RefOptimizer)
    lengths, best_of_two = [], []
    for seed in range(16):
        opt_calls[0] = ref_calls[0] = 0
        lengths.append(detect_communities(g, seed=seed).codelength)
        best_of_two.append(ref_detect_communities(g, seed, best_of_two=True)[1])
        assert opt_calls[0] < ref_calls[0], seed
    assert np.mean(lengths) <= np.mean(best_of_two)
