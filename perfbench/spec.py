"""Workload definitions and the seeded inputs of the benchmark.

Every input a run uses is a pure function of ``(workload, seed)``:

* the edge list (:func:`edge_array`): one fixed Chung–Lu draw per graph
  shape, relabelled and reordered by the run seed;
* the read schedule (:func:`read_schedule`): Poisson arrival times, an op
  mix and Zipf popularity draws;
* the batch lookups (:func:`point_schedule`): one fixed set, like the
  graph, in an order the seed shuffles;
* the mutation sequence (:func:`mutation_plan`): which cheap and which
  hub-adjacent edges the traced ``serve-read`` run toggles through the
  maintenance layer.

Schedules and mutation plans are *abstract* (uniform draws, ranks); they are
resolved against the artifact the program built (:class:`Resolver`), so the
bytes of every input depend on the seed alone and stay testable without
running the pipeline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Chung–Lu seed of the fixed base draw.  The run seed relabels it; the
#: graph's shape (degree sequence, butterflies, φ histogram) never changes.
BASE_SEED = 7
NUM_EDGES = 200_000

#: Graph shape → power-law exponent of both layers' expected degrees.
GRAPHS = {"sparse": 2.5, "hub": 2.2}

#: (graph shape, edge count) → sha256 of φ listed in the base draw's edge
#: order (:func:`phi_digest`).  Relabelling yields an isomorphic graph, so
#: every seed must reproduce it: a wrong φ at any level, on any edge, fails
#: the run.  Pinned from ``bit-bu-csr`` and cross-checked against the
#: reference ``bit-bu++`` (README.md, "Correctness checks").
PHI_DIGESTS: Dict[Tuple[str, int], str] = {
    ("sparse", 200_000): "9ef04724cf2f4de3abffc250473581215715a91c56a36130d19ff04eda08a652",
    ("hub", 200_000): "bf25841ae1a249b46c088d497b1656291905e22f3984021cfa40ccdd96100e4c",
    ("sparse", 6000): "ccc1e6e8c550a078a48790513d8aee11e96d288046ce26ec6b50cf69d5f21d5e",
    ("hub", 6000): "c7e20bac7ad4992dc75757a783b9543ba3a52c4c2b07358d308dedfb4a0aba15",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" | "serve-read"
    graph: str


#: Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("batch-sparse", "batch", "sparse"),
        Workload("batch-hub", "batch", "hub"),
        Workload("serve-read", "serve-read", "sparse"),
    )
}

# ------------------------------------------------------------------ reads

#: (kind, share) of the read mix.  ``community`` asks for the vertex's own
#: max k; ``community_low`` asks for k = 1 around one of the LOW_K_VERTICES
#: most popular vertices, whose giant component makes the largest answers
#: (~570 KB on the sparse graph).  The shares and ZIPF_S are assumptions,
#: not measured traffic (README.md, "Workloads").
READ_MIX: Tuple[Tuple[str, float], ...] = (
    ("max_k", 0.46),
    ("hierarchy_path", 0.46),
    ("community", 0.06),
    ("community_low", 0.02),
)
READ_KINDS = tuple(kind for kind, _ in READ_MIX)
LOW_K_VERTICES = 4
#: Zipf exponent of vertex popularity.
ZIPF_S = 1.1

#: Fixed arrival rate, calibrated once on a 2-core host at the seed commit
#: (see README.md): well below capacity.
SERVE_READ_RPS = 35.0
#: Reads a p99 needs: ten samples beyond it.  Traced serve-read runs read
#: at least this many; untraced ones report only the median.
P99_REQUESTS = 1000
#: Unmeasured requests that warm the server before serve-read measures.
WARMUP_REQUESTS = 40
#: ``read_max_rps`` search (traced runs): rates SERVE_READ_RPS *
#: STEP_FACTOR**i, STEP_REQUESTS requests each, stopping at the first
#: failing step.
STEP_FACTOR = 2.0
STEP_COUNT = 3
STEP_REQUESTS = 1000
#: The server's own ``--slow-query-ms`` default: the p99 a rate must keep.
READ_P99_LIMIT_S = 0.25

# -------------------------------------------------------------- mutations

#: The traced serve-read run toggles, in process, one cheap (φ = 0) edge
#: (its repair region is empty, so its patches are incremental) and a burst
#: of RW_BURST_OPS hub-adjacent edges led by the graph's top-φ edge (a
#: certain fallback, so the burst folds into one rebuild): all deleted,
#: then all re-inserted, which returns the graph to its base state.
RW_BURST_OPS = 50
#: Top-degree vertices whose edges form the hub pool.
RW_HUB_VERTICES = 32


def _rng(seed: int, stream: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng([seed, stream])


# ------------------------------------------------------------- edge lists


def base_edges(graph: str, num_edges: int = NUM_EDGES) -> np.ndarray:
    """The fixed Chung–Lu draw of one graph shape, ``(m, 2)`` int64."""
    from repro.graph.generators import chung_lu_edge_chunks

    exponent = GRAPHS[graph]
    side = num_edges // 2
    return np.concatenate(
        list(
            chung_lu_edge_chunks(
                side,
                side,
                num_edges,
                exponent_upper=exponent,
                exponent_lower=exponent,
                seed=BASE_SEED,
            )
        )
    )


def _relabelling(seed: int, num_edges: int):
    """(rng, upper permutation, lower permutation) of one run seed."""
    side = num_edges // 2
    rng = _rng(seed, 1)
    return rng, rng.permutation(side), rng.permutation(side)


def edge_array(graph: str, seed: int, num_edges: int = NUM_EDGES) -> np.ndarray:
    """The run's edge list: the base draw, relabelled and shuffled by seed."""
    base = base_edges(graph, num_edges)
    rng, perm_u, perm_l = _relabelling(seed, num_edges)
    order = rng.permutation(len(base))
    return np.column_stack((perm_u[base[order, 0]], perm_l[base[order, 1]]))


def phi_digest(graph, phi: np.ndarray, seed: int, num_edges: int = NUM_EDGES) -> str:
    """sha256 of φ listed in the base draw's edge order.

    Undoes the seed's relabelling on the built graph's endpoints and sorts
    by the base endpoints, so the digest is the same for every seed.
    """
    _, perm_u, perm_l = _relabelling(seed, num_edges)
    base_u = np.argsort(perm_u)[np.asarray(graph.edge_upper)]
    base_l = np.argsort(perm_l)[np.asarray(graph.edge_lower)]
    order = np.lexsort((base_l, base_u))
    ordered = np.ascontiguousarray(np.asarray(phi, dtype=np.int64)[order])
    return hashlib.sha256(ordered.tobytes()).hexdigest()


def write_edge_list(
    path: str, graph: str, seed: int, num_edges: int = NUM_EDGES
) -> int:
    from repro.graph.io import write_edge_chunks

    return write_edge_chunks(path, [edge_array(graph, seed, num_edges)])


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------- schedules


@dataclass
class Schedule:
    """Abstract open-loop read stream: due offsets, kinds, two uniforms."""

    due: np.ndarray
    kind: np.ndarray
    draw: np.ndarray  # (n, 2) uniforms in [0, 1)

    def to_bytes(self) -> bytes:
        return self.due.tobytes() + self.kind.tobytes() + self.draw.tobytes()

    def kind_names(self) -> List[str]:
        return [READ_KINDS[int(k)] for k in self.kind]


def read_schedule(
    seed: int, rate: float, count: int, *, stream: int = 0, start: float = 0.0
) -> Schedule:
    """``count`` Poisson arrivals at ``rate``/s from ``start``.

    Stratified: each kind gets its share of ``count`` exactly (largest
    remainder), in seeded order, and each kind's popularity draws take one
    uniform from each of its equal-probability strata, so a run's head/tail
    mix follows the Zipf law rather than a binomial around it.
    """
    rng = _rng(seed, 100 + stream)
    gaps = rng.exponential(1.0 / rate, count)
    due = start + np.cumsum(gaps) - gaps[0]
    exact = np.array([share for _, share in READ_MIX]) * count
    quota = np.floor(exact).astype(np.int64)
    rest = np.argsort(quota - exact, kind="stable")[: count - int(quota.sum())]
    quota[rest] += 1
    kind = rng.permutation(np.repeat(np.arange(len(READ_MIX)), quota))
    draw = rng.random((count, 2))
    for k in range(len(READ_MIX)):
        idx = np.nonzero(kind == k)[0]
        draw[idx, 0] = (rng.permutation(len(idx)) + draw[idx, 0]) / len(idx)
    return Schedule(due, kind.astype(np.int8), draw)


def point_schedule(seed: int, count: int) -> Schedule:
    """The batch path's first reads after opening: the first ``count``
    ``hierarchy_path`` lookups of the read stream of :data:`BASE_SEED`,
    in an order the run seed shuffles.

    One op, because ``max_k`` (~10 µs) and ``hierarchy_path`` (~19 µs) are
    near-equal shares of the stream, which would put the median on the edge
    between them.  One fixed set, like the graph: the :class:`Resolver`
    ranks in base-draw ids, so every seed asks the same lookups of the same
    base graph under its own labels.  A seeded set would move the median:
    hierarchy paths run from 1 to over 1000 levels on the hub graph, the
    median lookup sits where few lookups fall, and its path length moved
    by 0.1 of itself from seed to seed.
    """
    kind = READ_KINDS.index("hierarchy_path")
    stream = read_schedule(BASE_SEED, 1.0, int(count / 0.4) + 64)
    idx = np.nonzero(stream.kind == kind)[0][:count]
    idx = idx[_rng(seed, 300).permutation(len(idx))]
    return Schedule(stream.due[idx], stream.kind[idx], stream.draw[idx])


@dataclass
class MutationPlan:
    """Abstract toggles: a cheap-edge draw and the hub-edge draws."""

    cheap: float
    hub: np.ndarray  # (RW_BURST_OPS - 1,) uniforms (the leader is fixed)

    def to_bytes(self) -> bytes:
        return np.float64(self.cheap).tobytes() + self.hub.tobytes()


def mutation_plan(seed: int) -> MutationPlan:
    rng = _rng(seed, 200)
    return MutationPlan(float(rng.random()), rng.random(RW_BURST_OPS - 1))


@dataclass
class Toggle:
    op: str  # "insert" | "delete"
    edge: Tuple[int, int]
    phase: str  # "cheap" | "burst"


def toggle_sequence(cheap: Tuple[int, int], burst: Sequence[Tuple[int, int]]) -> List[Toggle]:
    """Delete the cheap edge, then the burst; re-insert both the same way."""
    return [
        toggle
        for op in ("delete", "insert")
        for toggle in [Toggle(op, cheap, "cheap")] + [Toggle(op, e, "burst") for e in burst]
    ]


# -------------------------------------------------------------- resolution


class Resolver:
    """Turns abstract draws into concrete queries on one built artifact.

    The candidate pool is every vertex with max k ≥ 1, most popular first:
    by degree, then by its id in the base draw.  Popularity is
    Zipf(:data:`ZIPF_S`) over that order, so hubs draw most reads.  Ties and
    incident edges are ranked by base-draw ids, not by the seed's labels, so
    a draw lands on the same vertex and edge of the base graph under every
    relabelling: the seed moves the draws, not what a rank means.
    """

    def __init__(self, graph, phi: np.ndarray, seed: int, num_edges: int) -> None:
        self.graph = graph
        self.phi = np.asarray(phi)
        _, perm_u, perm_l = _relabelling(seed, num_edges)
        self.base_u = np.argsort(perm_u)
        self.base_l = np.argsort(perm_l)
        eu = np.asarray(graph.edge_upper)
        el = np.asarray(graph.edge_lower)
        self.mk_u = np.zeros(graph.num_upper, dtype=np.int64)
        self.mk_l = np.zeros(graph.num_lower, dtype=np.int64)
        np.maximum.at(self.mk_u, eu, self.phi)
        np.maximum.at(self.mk_l, el, self.phi)
        self.deg_u = np.bincount(eu, minlength=graph.num_upper)
        self.deg_l = np.bincount(el, minlength=graph.num_lower)
        ups = np.nonzero(self.mk_u >= 1)[0]
        lows = np.nonzero(self.mk_l >= 1)[0]
        if not len(ups) + len(lows):
            raise ValueError("graph has no vertex with max k >= 1")
        degree = np.concatenate((self.deg_u[ups], self.deg_l[lows]))
        base_id = np.concatenate((self.base_u[ups], self.base_l[lows]))
        order = np.lexsort((base_id, -degree))
        pool = [("upper", int(u)) for u in ups] + [("lower", int(v)) for v in lows]
        self.pool = [pool[i] for i in order]
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights) / weights.sum()

    def vertex(self, u: float) -> Tuple[str, int]:
        """The vertex of the Zipf draw ``u``."""
        rank = min(int(np.searchsorted(self.cdf, u, side="right")), len(self.pool) - 1)
        return self.pool[rank]

    def max_k_of(self, side: str, vid: int) -> int:
        return int((self.mk_u if side == "upper" else self.mk_l)[vid])

    def incident_edge(self, side: str, vid: int, u: float) -> Tuple[int, int]:
        """The incident edge at rank ``u``, neighbours in base-draw order."""
        upper = side == "upper"
        indptr, nbrs, _ = self.graph.csr_upper() if upper else self.graph.csr_lower()
        around = np.asarray(nbrs[int(indptr[vid]) : int(indptr[vid + 1])])
        ranked = around[np.argsort((self.base_l if upper else self.base_u)[around])]
        other = int(ranked[min(int(u * len(ranked)), len(ranked) - 1)])
        return (vid, other) if side == "upper" else (other, vid)

    def query(self, kind: str, draw: Sequence[float]) -> Dict[str, object]:
        if kind == "community_low":
            side, vid = self.pool[min(int(draw[0] * LOW_K_VERTICES), len(self.pool) - 1)]
            return {"op": "community", "k": 1, side: vid}
        side, vid = self.vertex(float(draw[0]))
        if kind == "hierarchy_path":
            edge = self.incident_edge(side, vid, float(draw[1]))
            return {"op": "hierarchy_path", "edge": [edge[0], edge[1]]}
        if kind == "max_k":
            return {"op": "max_k", side: vid}
        return {"op": "community", "k": self.max_k_of(side, vid), side: vid}

    def queries(self, schedule: Schedule) -> List[Dict[str, object]]:
        return [
            self.query(READ_KINDS[int(kind)], draw)
            for kind, draw in zip(schedule.kind, schedule.draw)
        ]

    def mutation_edges(
        self, plan: MutationPlan
    ) -> Tuple[Tuple[int, int], List[Tuple[int, int]]]:
        """(the cheap edge, burst edges with the fallback leader first)."""
        g, phi = self.graph, self.phi
        eu = np.asarray(g.edge_upper)
        el = np.asarray(g.edge_lower)
        deg_u, deg_l = self.deg_u, self.deg_l
        # The top-φ edge (lowest id on ties) lies in the densest core; its
        # repair region always exceeds the incremental budget.
        leader = int(np.argmax(phi))
        top_u = np.argsort(-deg_u, kind="stable")[:RW_HUB_VERTICES]
        top_l = np.argsort(-deg_l, kind="stable")[:RW_HUB_VERTICES]
        hub_mask = (np.isin(eu, top_u) | np.isin(el, top_l)) & (phi >= 1)
        hub_mask[leader] = False
        hub_pool = np.nonzero(hub_mask)[0]
        picks = [leader]
        taken = {leader}
        for u in plan.hub:
            start = min(int(u * len(hub_pool)), len(hub_pool) - 1)
            for step in range(len(hub_pool)):
                eid = int(hub_pool[(start + step) % len(hub_pool)])
                if eid not in taken:
                    break
            taken.add(eid)
            picks.append(eid)
        # The cheap edge is in no butterfly (φ = 0): its repair region is
        # empty, so its patch is always incremental.
        cheap_pool = np.nonzero(phi == 0)[0]
        cheap = int(cheap_pool[min(int(plan.cheap * len(cheap_pool)), len(cheap_pool) - 1)])

        def endpoints(eid: int) -> Tuple[int, int]:
            return int(eu[eid]), int(el[eid])

        return endpoints(cheap), [endpoints(e) for e in picks]


# ------------------------------------------------------------ HTTP shapes


def http_path(dataset: str, query: Dict[str, object]) -> str:
    op = query["op"]
    if op == "hierarchy_path":
        u, v = query["edge"]  # type: ignore[misc]
        return f"/{dataset}/hierarchy_path?u={u}&v={v}"
    side = "upper" if "upper" in query else "lower"
    params = f"{side}={query[side]}"
    if op == "community":
        params = f"k={query['k']}&{params}"
    return f"/{dataset}/{op}?{params}"


def canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; raises unless ten samples lie beyond it."""
    n = len(values)
    beyond = int(n * min(q, 100.0 - q) / 100.0)
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {n} samples has only {beyond} beyond it (need 10)"
        )
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * n)))
    return float(ordered[rank - 1])
