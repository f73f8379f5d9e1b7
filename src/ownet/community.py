"""Flow-based community detection with the two-level map equation.

A teleporting random walk supplies node visit rates and per-edge flows; the
map equation scores a partition in bits and a seeded greedy optimizer
(local node moves plus community aggregation, Louvain-style) minimises it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from ._csr import dense_relabel
from .components import rank_by_first_member
from .errors import ConvergenceError, GraphError
from .graph import _Adjacency
from .netstats import LogBinnedHistogram, log_binned_histogram

DEFAULT_DAMPING = 0.85
MIN_CODELENGTH_GAIN = 1e-10  # stop when a full level cycle improves less
_MIN_MOVE_GAIN = 1e-12       # guard against float-noise "improvements"


@dataclass(frozen=True)
class FlowDistribution:
    """Visit rates and transition flows of the teleporting walk."""

    graph: object = field(repr=False)
    rates: np.ndarray = field(repr=False)
    edge_flows: np.ndarray = field(repr=False)
    teleport: np.ndarray = field(repr=False)
    iterations: int


def stationary_flow(g, damping: float = DEFAULT_DAMPING, tolerance: float = 1e-12,
                    max_iter: int = 10_000) -> FlowDistribution:
    """Power-iterate the teleporting walk to its stationary distribution.

    Dangling nodes redistribute their mass uniformly. Raises
    :class:`ConvergenceError` when ``max_iter`` sweeps do not reach the
    requested L1 tolerance.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    n = g.n_nodes
    if n == 0:
        z = np.zeros(0)
        return FlowDistribution(g, z, z, z, 0)

    out_deg = g.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    inv_deg = np.zeros(n)
    inv_deg[~dangling] = 1.0 / out_deg[~dangling]
    # transition weights enter the target node: row v collects from sources
    trans = csr_matrix(
        (inv_deg[g.src], (g.dst, g.src)), shape=(n, n)
    )

    p = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        spread = (1.0 - damping) / n + damping * float(p[dangling].sum()) / n
        p_next = damping * trans.dot(p) + spread
        delta = float(np.abs(p_next - p).sum())
        p = p_next
        if delta < tolerance:
            p = p / p.sum()
            edge_flows = damping * p[g.src] * inv_deg[g.src]
            tele = p * ((1.0 - damping) + damping * dangling)
            return FlowDistribution(g, p, edge_flows, tele, it)
    raise ConvergenceError(f"stationary flow did not converge in {max_iter} iterations")


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _plogp_arr(x: np.ndarray) -> float:
    pos = x[x > 0.0]
    return float((pos * np.log2(pos)).sum())


def map_equation(assignment, flow: FlowDistribution) -> float:
    """Two-level codelength (bits) of the given node -> community mapping."""
    g = flow.graph
    labels = np.asarray(assignment, dtype=np.int64)
    if labels.shape[0] != g.n_nodes:
        raise GraphError("partition does not cover the graph's node set")
    if g.n_nodes == 0:
        return 0.0
    if labels.min() < 0:
        raise GraphError("partition contains unassigned nodes")

    n = g.n_nodes
    n_mod = int(labels.max()) + 1
    s = np.bincount(labels, weights=flow.rates, minlength=n_mod)
    t = np.bincount(labels, weights=flow.teleport, minlength=n_mod)
    size = np.bincount(labels, minlength=n_mod).astype(np.float64)

    ext = labels[g.src] != labels[g.dst]
    e = np.bincount(labels[g.src[ext]], weights=flow.edge_flows[ext], minlength=n_mod)
    q = t * (n - size) / n + e

    return (
        _plogp(float(q.sum()))
        - 2.0 * _plogp_arr(q)
        + _plogp_arr(q + s)
        - _plogp_arr(flow.rates)
    )


@dataclass(frozen=True)
class Partition:
    """Final community assignment and its map-equation codelength."""

    labels: np.ndarray
    codelength: float

    @property
    def n_communities(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_communities).astype(np.int64)


class _Level(_Adjacency):
    """One aggregation level: super-nodes with inter-node flow edges."""

    def __init__(self, s, t, size, src, dst, w):
        n = s.shape[0]
        self.n = n
        self.s = s
        self.t = t
        self.size = size
        self.w = self._index_edges(n, src, dst, w)
        self.in_w = self.w[self.in_order]
        self.total_out = np.bincount(self.src, weights=self.w, minlength=n)


class _Optimizer:
    """Greedy map-equation minimisation over one level.

    ``mod`` is the start partition (node -> module id below ``level.n``);
    the default is one module per node. The move loop reads and writes plain
    Python scalars through memoryviews of the module and level arrays; the
    views copy nothing, so ``mod`` stays the numpy array that
    :func:`_aggregate` reads. ``p_q`` and ``p_qs`` cache each module's
    ``plogp(q)`` and ``plogp(q + s)``, and ``p_qtot`` caches ``plogp(qtot)``,
    all from the scalar :func:`_plogp` that the move deltas use.
    """

    def __init__(self, level: _Level, n_orig: int, const_term: float, trace=None, mod=None):
        self.lv = level
        self.n_orig = n_orig
        self.const = const_term
        self.trace = trace
        n = level.n
        self.mod = np.arange(n, dtype=np.int64) if mod is None else np.array(mod, dtype=np.int64)
        self.m_s = np.bincount(self.mod, weights=level.s, minlength=n)
        self.m_t = np.bincount(self.mod, weights=level.t, minlength=n)
        self.m_size = np.bincount(self.mod, weights=level.size, minlength=n)
        ext = self.mod[level.src] != self.mod[level.dst]
        self.m_e = np.bincount(self.mod[level.src[ext]], weights=level.w[ext], minlength=n)
        self.m_q = self._exit(self.m_t, self.m_size, self.m_e)
        self.qtot = float(self.m_q.sum())
        self.sum_plogp_q = _plogp_arr(self.m_q)
        self.sum_plogp_qs = _plogp_arr(self.m_q + self.m_s)
        self.p_qtot = _plogp(self.qtot)
        self.p_q = np.fromiter(map(_plogp, self.m_q.tolist()), np.float64, n)
        self.p_qs = np.fromiter(map(_plogp, (self.m_q + self.m_s).tolist()), np.float64, n)
        self._views = tuple(memoryview(a) for a in (
            self.mod, self.m_s, self.m_t, self.m_size, self.m_e, self.m_q, self.p_q, self.p_qs,
            level.out_indptr, level.dst, level.w, level.in_indptr, level.in_sources, level.in_w,
            level.total_out, level.s, level.t, level.size,
        ))

    def _exit(self, t, size, e):
        return t * (self.n_orig - size) / self.n_orig + e

    def codelength(self) -> float:
        return self.p_qtot - 2.0 * self.sum_plogp_q + self.sum_plogp_qs - self.const

    def _try_move(self, v: int) -> bool:
        """Move node ``v`` to the neighbouring module that lowers the codelength most.

        Candidates run in ascending module id and only a strictly better
        delta replaces the best, so ties go to the lowest id.
        """
        (mod, m_s, m_t, m_size, m_e, m_q, p_q, p_qs, out_indptr, dst, w,
         in_indptr, in_sources, in_w, total_out, s, t, size) = self._views
        i = mod[v]
        flow_to: dict[int, float] = {}
        flow_from: dict[int, float] = {}
        lo, hi = out_indptr[v], out_indptr[v + 1]
        for nb, f in zip(dst[lo:hi], w[lo:hi]):
            c = mod[nb]
            flow_to[c] = flow_to.get(c, 0.0) + f
        lo, hi = in_indptr[v], in_indptr[v + 1]
        for nb, f in zip(in_sources[lo:hi], in_w[lo:hi]):
            c = mod[nb]
            flow_from[c] = flow_from.get(c, 0.0) + f
        candidates = flow_to.keys() | flow_from.keys()
        candidates.discard(i)
        if not candidates:
            return False

        n_orig = self.n_orig
        log2 = math.log2
        fout_v = total_out[v]
        s_v, t_v, size_v = s[v], t[v], size[v]

        # state of module i after v leaves
        s_i = m_s[i] - s_v
        t_i = m_t[i] - t_v
        size_i = m_size[i] - size_v
        e_i = m_e[i] - (fout_v - flow_to.get(i, 0.0)) + flow_from.get(i, 0.0)
        q_i_new = t_i * (n_orig - size_i) / n_orig + e_i
        q_i_old = m_q[i]
        qtot = self.qtot

        # delta terms that do not depend on the candidate module j
        p_qtot = self.p_qtot
        p_i_old = p_q[i]
        pqs_i_old = p_qs[i]
        p_i_new = _plogp(q_i_new)
        pqs_i_new = _plogp(q_i_new + s_i)

        best_j = -1
        best_gain = -_MIN_MOVE_GAIN
        best_state = None
        for j in sorted(candidates):
            s_j = m_s[j] + s_v
            t_j = m_t[j] + t_v
            size_j = m_size[j] + size_v
            e_j = m_e[j] + (fout_v - flow_to.get(j, 0.0)) - flow_from.get(j, 0.0)
            q_j_new = t_j * (n_orig - size_j) / n_orig + e_j
            qs_j_new = q_j_new + s_j
            qtot_new = qtot - q_i_old - m_q[j] + q_i_new + q_j_new

            # _plogp inlined: this loop runs once per candidate of every attempt
            p_qtot_new = qtot_new * log2(qtot_new) if qtot_new > 0.0 else 0.0
            p_j_new = q_j_new * log2(q_j_new) if q_j_new > 0.0 else 0.0
            pqs_j_new = qs_j_new * log2(qs_j_new) if qs_j_new > 0.0 else 0.0
            delta = (
                p_qtot_new
                - p_qtot
                - 2.0 * (p_i_new + p_j_new - p_i_old - p_q[j])
                + pqs_i_new
                + pqs_j_new
                - pqs_i_old
                - p_qs[j]
            )
            if delta < best_gain:
                best_gain = delta
                best_j = j
                best_state = (s_j, t_j, size_j, e_j, q_j_new, qtot_new, p_qtot_new, p_j_new, pqs_j_new)

        if best_j < 0:
            return False

        j = best_j
        s_j, t_j, size_j, e_j, q_j_new, qtot_new, p_qtot_new, p_j_new, pqs_j_new = best_state
        self.sum_plogp_q += p_i_new + p_j_new - p_i_old - p_q[j]
        self.sum_plogp_qs += pqs_i_new + pqs_j_new - pqs_i_old - p_qs[j]
        m_s[i], m_t[i], m_size[i], m_e[i], m_q[i] = s_i, t_i, size_i, e_i, q_i_new
        m_s[j], m_t[j], m_size[j], m_e[j], m_q[j] = s_j, t_j, size_j, e_j, q_j_new
        p_q[i], p_qs[i], p_q[j], p_qs[j] = p_i_new, pqs_i_new, p_j_new, pqs_j_new
        self.qtot, self.p_qtot = qtot_new, p_qtot_new
        mod[v] = j
        if self.trace is not None:
            self.trace.append(self.codelength())
        return True

    def run_passes(self, rng: np.random.Generator) -> int:
        """Move passes over seeded permutations until a pass moves nothing.

        Only active nodes are tried. The boundary nodes, those with an edge
        to another module, start active: any other node has no candidate
        module. Trying a node deactivates it, and a move of ``v`` to module
        ``j`` re-activates each in- and out-neighbour of ``v`` outside ``j``:
        the nodes whose neighbourhood changed (Ozaki, Tezuka & Inaba 2016).
        """
        lv = self.lv
        mod = self._views[0]
        out_indptr, dst, _, in_indptr, in_sources = self._views[8:13]
        boundary = np.zeros(lv.n, dtype=np.uint8)
        ext = self.mod[lv.src] != self.mod[lv.dst]
        boundary[lv.src[ext]] = 1
        boundary[lv.dst[ext]] = 1
        active = bytearray(boundary)
        moved_total = 0
        while True:
            moved = 0
            for v in memoryview(rng.permutation(lv.n)):
                if not active[v]:
                    continue
                active[v] = 0
                if self._try_move(v):
                    moved += 1
                    j = mod[v]
                    for nb in dst[out_indptr[v]:out_indptr[v + 1]]:
                        if mod[nb] != j:
                            active[nb] = 1
                    for nb in in_sources[in_indptr[v]:in_indptr[v + 1]]:
                        if mod[nb] != j:
                            active[nb] = 1
            moved_total += moved
            if moved == 0:
                return moved_total


def _aggregate(level: _Level, mod: np.ndarray) -> tuple[_Level, np.ndarray]:
    modules, dense = dense_relabel(mod, level.n)
    n_comm = len(modules)

    s = np.bincount(dense, weights=level.s, minlength=n_comm)
    t = np.bincount(dense, weights=level.t, minlength=n_comm)
    size = np.bincount(dense, weights=level.size, minlength=n_comm)

    # merge parallel module links; the stable sort sums each pair's flows in edge order
    ext = dense[level.src] != dense[level.dst]
    key = dense[level.src[ext]] * n_comm + dense[level.dst[ext]]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.shape[0], dtype=bool)
    first[1:] = key[1:] != key[:-1]
    pairs = key[first]
    agg_w = np.bincount(np.cumsum(first) - 1, weights=level.w[ext][order], minlength=pairs.shape[0])
    return _Level(s, t, size, pairs // n_comm, pairs % n_comm, agg_w), dense


def _run_levels(level: _Level, n: int, const_term: float, rng: np.random.Generator,
                trace: list | None) -> np.ndarray:
    """One trial: move passes and aggregation from singletons; returns node -> module."""
    assign = np.arange(n, dtype=np.int64)
    current_len = None
    while True:
        opt = _Optimizer(level, n, const_term, trace=trace)
        if current_len is None:
            current_len = opt.codelength()
        moved = opt.run_passes(rng)
        new_len = opt.codelength()
        if moved == 0 or current_len - new_len < MIN_CODELENGTH_GAIN:
            return assign
        current_len = new_len
        level, dense = _aggregate(level, opt.mod)
        assign = dense[assign]
        if level.n <= 1:
            return assign


def detect_communities(g, seed: int = 0, trace: list | None = None) -> Partition:
    """Greedy two-level map-equation partition, reproducible per seed.

    One trial alternates node-move passes with community aggregation until
    a full cycle improves the codelength by less than
    ``MIN_CODELENGTH_GAIN``. Single-node fine-tuning (Rosvall, Axelsson &
    Bergstrom 2009) then runs move passes over the original nodes from the
    trial's partition, drawing from the same seeded stream; each of its
    moves strictly lowers the codelength. ``trace`` receives the trial's
    moves, then the fine-tune's.
    """
    n = g.n_nodes
    if n == 0:
        return Partition(np.zeros(0, dtype=np.int64), 0.0)

    flow = stationary_flow(g)
    const_term = _plogp_arr(flow.rates)
    rng = np.random.default_rng(seed)

    level = _Level(
        flow.rates.astype(np.float64),
        flow.teleport.astype(np.float64),
        np.ones(n, dtype=np.float64),
        g.src.astype(np.int64),
        g.dst.astype(np.int64),
        flow.edge_flows.astype(np.float64),
    )
    coarse = rank_by_first_member(_run_levels(level, n, const_term, rng, trace))
    fine = _Optimizer(level, n, const_term, trace, mod=coarse)
    fine.run_passes(rng)
    # deterministic final ids: order communities by smallest member node
    labels = rank_by_first_member(fine.mod)
    codelength = map_equation(labels, flow)

    # greedy moves start from singletons and can miss the all-in-one optimum
    one_module = np.zeros(n, dtype=np.int64)
    one_length = map_equation(one_module, flow)
    if one_length < codelength:
        labels, codelength = one_module, one_length

    return Partition(labels=labels, codelength=codelength)


def community_size_histogram(partition: Partition) -> LogBinnedHistogram:
    """Log-binned density of the community sizes."""
    return log_binned_histogram(partition.sizes())
