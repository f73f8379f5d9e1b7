"""Deterministic synthetic corpora: scale-free noise plus planted MNCs.

Every structure is derived from a single seeded generator, so identical
specs produce byte-identical files. Planted corporate templates carry
their own ground-truth role assignment, computed here by a direct
evaluation over plain dictionaries that is intentionally separate from the
production identification code; generation asserts the two built-in
expectations (the canonical template's role pattern) before emitting.

Corpus geometry: a designated directed core (cycle plus chords) forms the
largest strongly connected region; a slice of noise nodes points into it,
an out-chain hangs off it, and every planted HQ is wired to it with a
sub-substantial link so planted firms land in the targeted bow-tie region
(IN by default, TE via the out-chain) without touching the substantial
subtrees.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import zeta

from .errors import GraphError, LoadError
from .graph import (
    NA_JURISDICTION,
    EDGE_HEADER,
    NODE_HEADER,
    write_csv_rows,
    write_json,
)
from .jurisdiction import PROFILE_HEADER
from .mnc import HQ_HEADER

JURISDICTION_POOL = [
    "US", "GB", "NL", "JP", "DE", "FR", "IE", "HK", "CN", "ES",
    "LU", "SG", "KY", "VG", "BM", "CH", "CA", "AU", "BR", "IN",
]
NACE_POOL = list("CKGJMHBF")

_SURVIVAL_TABLE_SIZE = 1 << 20
_RETRY_FACTOR = 100  # stub swaps allowed per edge before the wiring is re-drawn
_P_HOME = 0.35  # chance that a template affiliate sits in the HQ's jurisdiction
_P_EXTRA_PARENT = 0.15  # chance that it gets a second owner
_P_CYCLE = 0.1  # chance that a link between two affiliates is also reversed
_GAMMA_IN = 2.44  # noise in-degree exponent
_GAMMA_OUT = 3.0  # noise out-degree exponent
_ATTACH_FRACTION = 0.3  # share of noise nodes that also point into the core
_NOISE_PCT = (1.0, 9.5)  # pct range of every edge outside the templates: below the 10% rule
_table_cache: dict[tuple[float, int], np.ndarray] = {}


def sample_power_law(rng: np.random.Generator, gamma: float, size: int, x_min: int = 1) -> np.ndarray:
    """Exact draws from the discrete power law P(x) ~ x^-gamma, x >= x_min.

    Inverse-CDF lookup against a precomputed table; the vanishing tail mass
    beyond the table is resolved per sample by bisection on the survival
    function.
    """
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    key = (float(gamma), int(x_min))
    if key not in _table_cache:
        xs = np.arange(x_min, x_min + _SURVIVAL_TABLE_SIZE, dtype=np.float64)
        z0 = zeta(gamma, x_min)
        _table_cache[key] = 1.0 - zeta(gamma, xs + 1.0) / z0  # P(X <= x)
    cdf = _table_cache[key]
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="left")
    out = (x_min + idx).astype(np.int64)

    beyond = np.flatnonzero(idx >= cdf.shape[0])
    if beyond.size:
        z0 = zeta(gamma, x_min)
        for pos in beyond:
            target = 1.0 - u[pos]  # survival P(X > x) must drop below this
            lo = x_min + cdf.shape[0]
            hi = lo * 2
            while zeta(gamma, hi + 1.0) / z0 > target:
                lo, hi = hi, hi * 2
            while lo < hi:
                mid = (lo + hi) // 2
                if zeta(gamma, mid + 1.0) / z0 > target:
                    lo = mid + 1
                else:
                    hi = mid
            out[pos] = lo
    return out


def _mean_power_law(gamma: float, x_min: int = 1) -> float:
    if gamma <= 2.0:
        raise ValueError(f"finite mean needs gamma > 2, got {gamma}")
    return float(zeta(gamma - 1.0, x_min) / zeta(gamma, x_min))


def _degree_sequence(rng, n: int, gamma: float, target_sum: int) -> np.ndarray:
    k = np.zeros(n, dtype=np.int64)
    n_active = min(n, max(1, int(round(target_sum / _mean_power_law(gamma)))))
    active = rng.choice(n, size=n_active, replace=False)
    k[active] = sample_power_law(rng, gamma, n_active)
    return k


def _wire_stubs(rng, k_out: np.ndarray, k_in: np.ndarray):
    n = k_out.shape[0]
    m = int(k_out.sum())
    src = np.repeat(np.arange(n, dtype=np.int64), k_out)
    dst = np.repeat(np.arange(n, dtype=np.int64), k_in)
    rng.shuffle(dst)
    budget = _RETRY_FACTOR * max(m, 1)
    spent = 0
    n64 = np.int64(n)
    while True:
        bad = src == dst
        keys = src * n64 + dst
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        dup = np.zeros(m, dtype=bool)
        dup[1:] = sk[1:] == sk[:-1]
        bad[order[dup]] = True
        bad_idx = np.flatnonzero(bad)
        if bad_idx.size == 0:
            return src.astype(np.int32), dst.astype(np.int32)
        spent += bad_idx.size
        if spent > budget:
            return None
        # swap each colliding in-stub with a uniformly chosen partner
        swap = rng.integers(0, m, size=bad_idx.size)
        dst[bad_idx], dst[swap] = dst[swap], dst[bad_idx].copy()


def generate_scale_free(n: int, gamma_in: float, gamma_out: float, target_edges: int, seed: int = 0):
    """Directed configuration-model graph with power-law in/out degrees.

    Returns (src, dst) index arrays. Each side draws power-law degrees for
    about ``target_edges`` / (mean degree) nodes, the rest getting none, so
    both sums land near ``target_edges``. They are balanced by topping up
    one random node on the lighter side; colliding stubs (self-loops,
    duplicate pairs) are re-paired, and the sequence is re-drawn when the
    retry budget (100x edges) is exhausted.
    """
    rng = np.random.default_rng(seed)
    if n <= 1:
        return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    for _ in range(3):
        k_in = _degree_sequence(rng, n, gamma_in, target_edges)
        k_out = _degree_sequence(rng, n, gamma_out, target_edges)
        diff = int(k_in.sum() - k_out.sum())
        if diff > 0:
            k_out[rng.integers(0, n)] += diff
        elif diff < 0:
            k_in[rng.integers(0, n)] += -diff
        wired = _wire_stubs(rng, k_out, k_in)
        if wired is not None:
            return wired
    raise GraphError("infeasible degree sequence: stub pairing failed repeatedly")


# -- planted MNC templates -------------------------------------------------

@dataclass
class MncTemplate:
    """One corporation: local node ids, jurisdictions, ownership edges.

    ``edges`` hold (subsidiary, parent, pct) triples in capital-flow
    orientation; ``roles`` is the ground-truth key-company assignment
    produced by :func:`evaluate_template_roles`.
    """

    name: str
    jurisdictions: dict[str, str]
    edges: list[tuple[str, str, float]]
    roles: dict[str, str] = field(default_factory=dict)

    hq = "HQ"  # not a field: the local id of every template's head

    def global_id(self, local: str) -> str:
        return f"{self.name}:{local}"


def toy_m1_template() -> MncTemplate:
    """Canonical nine-node example: one holding, one holding-and-conduit,
    one conduit, everything else unlabeled."""
    template = MncTemplate(
        name="M1",
        jurisdictions={
            "HQ": "JP",
            "a": "NL", "b": "GB", "c": "FR", "d": "FR",
            "e": "IE", "f": "GB", "g": "US", "h": "US",
        },
        edges=[
            ("a", "HQ", 60.0),
            ("h", "HQ", 100.0),
            ("b", "a", 55.0),
            ("c", "a", 70.0),
            ("d", "a", 80.0),
            ("e", "b", 65.0),
            ("f", "b", 90.0),
            ("g", "e", 75.0),
        ],
    )
    template.roles = evaluate_template_roles(template)
    expected = {"a": "Holding", "b": "HoldingAndConduit", "e": "Conduit"}
    if template.roles != expected:
        raise AssertionError(f"built-in template roles drifted: {template.roles}")
    return template


def evaluate_template_roles(template: MncTemplate) -> dict[str, str]:
    """Ground-truth roles by direct evaluation on the template dictionaries.

    Standalone reimplementation of the centrality definitions and the
    hierarchical walk, kept independent of the production modules so
    generated corpora carry an externally derived answer key.
    """
    hq = template.hq
    children: dict[str, list[str]] = {k: [] for k in template.jurisdictions}
    parents: dict[str, list[str]] = {k: [] for k in template.jurisdictions}
    for child, parent, _ in template.edges:
        children[parent].append(child)
        parents[child].append(parent)

    # layer = hops up to HQ; every template node must reach it
    layer = {hq: 0}
    frontier = deque([hq])
    while frontier:
        node = frontier.popleft()
        for c in children[node]:
            if c not in layer:
                layer[c] = layer[node] + 1
                frontier.append(c)
    missing = set(template.jurisdictions) - set(layer)
    if missing:
        raise GraphError(f"template {template.name}: nodes cannot reach HQ: {sorted(missing)}")

    k_in = {x: len(children[x]) for x in template.jurisdictions}
    k_out = {x: len(parents[x]) for x in template.jurisdictions}
    affiliates = [x for x in template.jurisdictions if x != hq]
    sum_in = sum(k_in[a] for a in affiliates)
    sum_tot = sum(k_in[a] + k_out[a] for a in affiliates)
    sum_prod = sum(k_in[a] * k_out[a] for a in affiliates)

    def differs(a: str, b: str) -> bool:
        ja, jb = template.jurisdictions[a], template.jurisdictions[b]
        if ja == NA_JURISDICTION or jb == NA_JURISDICTION:
            return True
        return ja != jb

    def tc(x: str) -> bool:
        if not differs(x, hq):
            return False
        return any(differs(c, x) for c in children[x])

    def h_of(x: str) -> float:
        return (k_in[x] - k_out[x]) / sum_in * (sum_tot / (k_in[x] + k_out[x]))

    def t_of(x: str) -> float:
        return k_in[x] / sum_prod * (sum_tot / (k_in[x] + k_out[x]))

    marks: dict[str, set[str]] = {}
    if sum_in <= 0:
        return {}
    pending = deque(sorted(a for a in affiliates if layer[a] == 1))
    expanded: set[str] = set()
    while pending:
        x = pending.popleft()
        if x in expanded:
            continue
        expanded.add(x)
        if not (h_of(x) > 0 and tc(x)):
            continue
        if sum_prod <= 0:
            continue
        found = False
        for s in sorted(children[x]):
            if s == hq:
                continue
            if t_of(s) > 0 and tc(s):
                found = True
                marks.setdefault(s, set()).add("C")
                if h_of(s) > 0 and tc(s):
                    marks.setdefault(s, set()).add("H")
                    pending.append(s)
        if found:
            marks.setdefault(x, set()).add("H")

    names = {frozenset({"H"}): "Holding", frozenset({"C"}): "Conduit",
             frozenset({"H", "C"}): "HoldingAndConduit"}
    return {x: names[frozenset(m)] for x, m in sorted(marks.items())}


def random_mnc_template(rng: np.random.Generator, name: str,
                        n_affiliates: tuple[int, int] = (5, 30)) -> MncTemplate:
    """Random layered ownership tree plus optional multi-parent/cycle edges."""
    count = int(rng.integers(n_affiliates[0], n_affiliates[1] + 1))
    hq_jur = JURISDICTION_POOL[int(rng.integers(0, len(JURISDICTION_POOL)))]
    jurisdictions = {"HQ": hq_jur}
    locals_: list[str] = []
    prev_layer = ["HQ"]
    made = 0
    edges: list[tuple[str, str, float]] = []
    while made < count:
        width = int(rng.integers(1, max(2, min(6, count - made) + 1)))
        current = []
        for _ in range(width):
            if made >= count:
                break
            local = f"n{made:03d}"
            made += 1
            parent = prev_layer[int(rng.integers(0, len(prev_layer)))]
            pct = round(float(rng.uniform(20.0, 100.0)), 2)
            edges.append((local, parent, pct))
            if rng.random() < _P_HOME:
                jurisdictions[local] = hq_jur
            else:
                jurisdictions[local] = JURISDICTION_POOL[int(rng.integers(0, len(JURISDICTION_POOL)))]
            current.append(local)
            locals_.append(local)
        prev_layer = current

    edge_set = {(c, p) for c, p, _ in edges}
    # multi-parent affiliates: an extra owner drawn from anywhere in the tree
    for local in locals_:
        if rng.random() < _P_EXTRA_PARENT:
            other = (["HQ"] + locals_)[int(rng.integers(0, len(locals_) + 1))]
            if other != local and (local, other) not in edge_set:
                pct = round(float(rng.uniform(20.0, 100.0)), 2)
                edges.append((local, other, pct))
                edge_set.add((local, other))
    # cross-shareholding: reverse an existing link between affiliates
    for child, parent, _ in list(edges):
        if parent != "HQ" and child != "HQ" and rng.random() < _P_CYCLE:
            if (parent, child) not in edge_set:
                pct = round(float(rng.uniform(20.0, 100.0)), 2)
                edges.append((parent, child, pct))
                edge_set.add((parent, child))

    template = MncTemplate(name=name, jurisdictions=jurisdictions, edges=edges)
    template.roles = evaluate_template_roles(template)
    return template


# -- corpus assembly -------------------------------------------------------

@dataclass
class SynthSpec:
    """Declarative recipe for a synthetic corpus (JSON-serialisable)."""

    seed: int = 0
    n_noise: int = 2000
    noise_edges: int = 2500
    core_size: int = 60
    out_chain: int = 12
    n_mncs: int = 10  # the canonical template M1 plus n_mncs - 1 random ones
    affiliates_range: tuple[int, int] = (5, 30)
    target_region: str = "IN"

    def __post_init__(self):
        """Reject a value the generator cannot honour, so no corpus is written from it.

        Types are checked first, so a range rule only ever compares numbers.
        """
        def whole(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        sizes = ("seed", "n_noise", "noise_edges", "core_size", "out_chain", "n_mncs")
        rules = [
            *((name, whole, "an int") for name in sizes),
            ("affiliates_range", lambda r: isinstance(r, (list, tuple)) and len(r) == 2 and all(map(whole, r)),
             "two ints"),
            ("target_region", lambda region: region in ("IN", "TE"), "IN or TE"),
            *((name, lambda value: value >= 0, ">= 0") for name in ("seed", "n_noise", "noise_edges", "out_chain")),
            # a one-node core is a self-loop, which ingest drops
            ("core_size", lambda value: value >= 2, ">= 2"),
            ("n_mncs", lambda value: value >= 1, ">= 1"),
            ("affiliates_range", lambda r: 0 <= r[0] <= r[1], "[lo, hi] with 0 <= lo <= hi"),
            ("out_chain", lambda value: value >= 1 or self.target_region == "IN", ">= 1 for a TE target"),
        ]
        # the noise block wires its own edges (past the core attachments) on at most n_noise nodes of
        # mean out-degree _mean_power_law(_GAMMA_OUT): any more would pile onto one hub, or go missing
        n_noise = self.n_noise if whole(self.n_noise) and self.n_noise > 1 else 0
        limit = int(_ATTACH_FRACTION * n_noise) + int(n_noise * _mean_power_law(_GAMMA_OUT))
        rules.append(("noise_edges", lambda value: value <= limit, f"<= {limit} for n_noise {self.n_noise}"))
        for name, ok, rule in rules:
            if not ok(getattr(self, name)):
                raise LoadError(f"bad spec: {name} must be {rule}, got {getattr(self, name)!r}")
        self.affiliates_range = tuple(self.affiliates_range)

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise LoadError(f"bad spec: {exc}", path) from exc
        try:
            return cls(**raw)
        except TypeError as exc:  # an unknown key or a non-object
            raise LoadError(f"bad spec: {exc}", path) from exc


@dataclass
class CorpusBundle:
    node_rows: list[tuple[str, str, str, str, str]]
    edge_rows: list[tuple[str, str, str]]
    hq_rows: list[tuple[str, str]]
    profile_rows: list[tuple[str, str, str, str, str]]
    truth: dict[str, dict[str, str]]
    target_region: str


def build_corpus(spec: SynthSpec) -> CorpusBundle:
    """Assemble noise, core, out-chain, and planted MNCs into CSV rows."""
    rng = np.random.default_rng(spec.seed)
    node_rows: list[tuple[str, str, str, str, str]] = []
    edge_rows: list[tuple[str, str, str]] = []

    def jur() -> str:
        # a sprinkle of unknown jurisdictions, like real registries
        if rng.random() < 0.02:
            return NA_JURISDICTION
        return JURISDICTION_POOL[int(rng.integers(0, len(JURISDICTION_POOL)))]

    def nace() -> str:
        return NACE_POOL[int(rng.integers(0, len(NACE_POOL)))]

    pct_texts: dict[str, str] = {}  # one object per distinct pct: under 2,000 of them in a 1M-edge corpus

    def low_pct() -> str:
        text = f"{rng.uniform(*_NOISE_PCT):.2f}"
        return pct_texts.setdefault(text, text)

    # core: directed cycle plus chords, the designated largest SCC
    core_ids = [f"core{i:05d}" for i in range(spec.core_size)]
    for cid in core_ids:
        node_rows.append((cid, jur(), nace(), "", "0"))
    for i in range(spec.core_size):
        edge_rows.append((core_ids[i], core_ids[(i + 1) % spec.core_size], low_pct()))
    for _ in range(max(1, spec.core_size // 4)):
        a, b = rng.integers(0, spec.core_size, size=2)
        if a != b and (a + 1) % spec.core_size != b:
            edge_rows.append((core_ids[int(a)], core_ids[int(b)], low_pct()))

    # out-chain: reachable from the core, never pointing back
    out_ids = [f"out{i:05d}" for i in range(spec.out_chain)]
    for oid in out_ids:
        node_rows.append((oid, jur(), nace(), "", "0"))
    if spec.out_chain:
        edge_rows.append((core_ids[0], out_ids[0], low_pct()))
        for i in range(spec.out_chain - 1):
            edge_rows.append((out_ids[i], out_ids[i + 1], low_pct()))

    # noise block with scale-free degrees
    noise_ids = [f"noise{i:07d}" for i in range(spec.n_noise)]
    for nid in noise_ids:
        node_rows.append((nid, jur(), nace(), "", "0"))
    n_attach = int(_ATTACH_FRACTION * spec.n_noise)
    internal_target = max(spec.noise_edges - n_attach, 0)
    if internal_target > 0:  # never with n_noise <= 1: SynthSpec rejects that
        src, dst = generate_scale_free(
            spec.n_noise, _GAMMA_IN, _GAMMA_OUT, internal_target, seed=int(rng.integers(0, 2**63 - 1)),
        )
        for s, d in zip(src, dst):
            edge_rows.append((noise_ids[int(s)], noise_ids[int(d)], low_pct()))
    if n_attach:
        attach_nodes = rng.choice(spec.n_noise, size=n_attach, replace=False)
        attach_nodes.sort()
        targets = rng.integers(0, spec.core_size, size=attach_nodes.shape[0])
        for node, tgt in zip(attach_nodes, targets):
            edge_rows.append((noise_ids[int(node)], core_ids[int(tgt)], low_pct()))

    # planted corporations
    templates = [toy_m1_template()]
    for i in range(spec.n_mncs - 1):
        templates.append(random_mnc_template(rng, f"MNC{i:03d}", n_affiliates=spec.affiliates_range))

    hq_rows: list[tuple[str, str]] = []
    truth: dict[str, dict[str, str]] = {}
    for template in templates:
        for local in sorted(template.jurisdictions):
            gid = template.global_id(local)
            is_hq = "1" if local == template.hq else "0"
            node_rows.append((gid, template.jurisdictions[local], nace(), "", is_hq))
        for child, parent, pct in template.edges:
            edge_rows.append((template.global_id(child), template.global_id(parent), f"{pct:.2f}"))
        hq_gid = template.global_id(template.hq)
        hq_rows.append((hq_gid, template.name))
        truth[template.name] = {template.global_id(k): v for k, v in template.roles.items()}
        # region wiring stays below the substantial threshold
        if spec.target_region == "IN":
            anchor = core_ids[int(rng.integers(0, spec.core_size))]
        else:
            anchor = out_ids[int(rng.integers(0, spec.out_chain))]
        edge_rows.append((hq_gid, anchor, low_pct()))

    profile_rows = [
        (
            code,
            f"{rng.uniform(0.5, 20.0):.3f}",
            "2015",
            f"{rng.uniform(0.10, 0.35):.3f}",
            f"{rng.uniform(0.0, 0.10):.5f}",
        )
        for code in JURISDICTION_POOL
    ]

    return CorpusBundle(
        node_rows=node_rows,
        edge_rows=edge_rows,
        hq_rows=hq_rows,
        profile_rows=profile_rows,
        truth=truth,
        target_region=spec.target_region,
    )


def write_corpus(bundle: CorpusBundle, outdir) -> dict[str, Path]:
    """Write nodes/edges/hqs/profiles/truth files; returns their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "nodes": outdir / "nodes.csv",
        "edges": outdir / "edges.csv",
        "hqs": outdir / "hqs.csv",
        "profiles": outdir / "profiles.csv",
        "truth": outdir / "truth.json",
    }
    write_csv_rows(paths["nodes"], NODE_HEADER, bundle.node_rows)
    write_csv_rows(paths["edges"], EDGE_HEADER, bundle.edge_rows)
    write_csv_rows(paths["hqs"], HQ_HEADER, bundle.hq_rows)
    write_csv_rows(paths["profiles"], PROFILE_HEADER, bundle.profile_rows)
    write_json(paths["truth"], {"target_region": bundle.target_region, "roles": bundle.truth})
    return paths
