"""The library's one wedge kernel: a sort-based priority-obeyed wedge pass.

Butterfly counting (:func:`count_per_edge_vectorized`), the flat-array
BE-Index build (:meth:`repro.core.peeling_engine.CSRPeelingEngine.build`)
and the shared-memory runtime's range tasks all run the same array pass
over a start-vertex range, phrased after ParButterfly's sort-based wedge
aggregation (Shi & Shun):

1. **Cuts.** Rows arrive sorted by neighbour priority
   (:meth:`repro.graph.bipartite.BipartiteGraph.csr_gid_sorted_with_prios`),
   so every CSR slot gets the globally sorted key
   ``row * span + row_prio``.  One ``np.searchsorted`` then gives each
   start's "priority < p(start)" prefix (its middles) and another gives
   the end prefix of every (start, middle) slot.
2. **Expand.** ``np.repeat``/``arange`` turn the (start, middle) slots
   into wedges ``(start, middle, end)``, a start-range chunk at a time;
   a chunk holds at most :data:`_WEDGE_CHUNK` wedges unless a single
   start owns more, which then gets a chunk of its own.
3. **Group.** A stable ``argsort`` on ``start * n + end`` groups each
   chunk's wedges.  A run of ``k >= 2`` wedges sharing (start, end) is one
   maximal priority-obeyed bloom (Algorithm 3): it holds ``C(k, 2)``
   butterflies (Lemma 1) and each of its wedges adds ``k - 1`` to the
   support of both of its edges (Lemma 2).

No Python loop runs per start or per middle vertex, so the pass is fast on
sparse rows as well as dense frontiers.  Blooms come out ordered by
(start, end) and a bloom's wedges by middle slot — the discovery order of
a per-start scalar walk — and supports are accumulated in exact int64.

>>> from repro.graph.generators import planted_bloom
>>> g = planted_bloom(3)
>>> indptr, neighbors, edge_ids, row_prios = g.csr_gid_sorted_with_prios()
>>> support, pair_e1, pair_e2, pair_bloom, bloom_k = build_shard_on_arrays(
...     indptr, neighbors, edge_ids, row_prios, g.priorities(),
...     g.num_edges, 0, g.num_vertices)
>>> bloom_k.tolist()             # one bloom with k = 3 wedges
[3]
>>> int((bloom_k * (bloom_k - 1) // 2).sum())   # C(3, 2) butterflies
3
>>> support.tolist()             # every edge sits in k - 1 = 2 of them
[2, 2, 2, 2, 2, 2]
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs import phases as obs_phases

#: Upper bound on the wedges one chunk of the pass materializes.  Chunks
#: this small run as fast as larger ones while keeping the transient arrays
#: a few MB.
_WEDGE_CHUNK = 1 << 16

#: One shard of the flat-array BE-Index: the partial per-edge supports
#: contributed by a contiguous start-vertex range plus the wedge pairs
#: discovered there (bloom ids numbered locally from 0).
BuildShard = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)


def _bloom_chunks(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    prio: np.ndarray,
    start_lo: int,
    start_hi: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blooms of the starts in ``[start_lo, start_hi)``, chunk by chunk.

    Yields ``(pair_e1, pair_e2, bloom_k)`` per non-empty chunk: the wedge
    pairs of its blooms grouped bloom by bloom (``pair_e1`` the edge
    (start, middle), ``pair_e2`` the edge (middle, end)) and each bloom's
    wedge count, all in discovery order.
    """
    n = len(indptr) - 1
    if start_hi <= start_lo or len(neighbors) == 0:
        return
    indptr = np.asarray(indptr, dtype=np.int64)
    prio = np.asarray(prio, dtype=np.int64)

    # 1. Cuts.  Keys are sorted: rows ascend, and each row is sorted by
    # neighbour priority; `span` keeps a start's own priority (which may
    # exceed every neighbour's) inside its row's key interval.
    p_min = int(prio.min())
    span = int(prio.max()) - p_min + 2
    row_base = np.arange(n, dtype=np.int64) * span - p_min
    keys = np.repeat(row_base, np.diff(indptr)) + row_prios
    starts = np.arange(start_lo, start_hi, dtype=np.int64)
    p_start = prio[starts]
    mid_cut = np.searchsorted(keys, row_base[starts] + p_start)
    mid_count = mid_cut - indptr[starts]
    mid_offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(mid_count, out=mid_offsets[1:])
    mid_slot = np.arange(mid_offsets[-1], dtype=np.int64) + np.repeat(
        indptr[starts] - mid_offsets[:-1], mid_count
    )
    mid_start = np.repeat(starts, mid_count)
    middles = neighbors[mid_slot]
    end_lo = indptr[middles]
    end_count = (
        np.searchsorted(keys, row_base[middles] + prio[mid_start]) - end_lo
    )
    wedge_offsets = np.zeros(len(mid_slot) + 1, dtype=np.int64)
    np.cumsum(end_count, out=wedge_offsets[1:])
    wedges_before = wedge_offsets[mid_offsets]  # per start, plus the total

    first = 0
    while first < len(starts):
        # 2. Expand the largest start range whose wedges fit in one chunk.
        last = int(
            np.searchsorted(
                wedges_before, wedges_before[first] + _WEDGE_CHUNK, "right"
            )
        ) - 1
        last = min(max(last, first + 1), len(starts))
        m_lo, m_hi = mid_offsets[first], mid_offsets[last]
        first = last
        w_lo = wedge_offsets[m_lo]
        total = int(wedge_offsets[m_hi] - w_lo)
        if total == 0:
            continue
        counts = end_count[m_lo:m_hi]
        end_slot = np.arange(total, dtype=np.int64) + np.repeat(
            end_lo[m_lo:m_hi] - (wedge_offsets[m_lo:m_hi] - w_lo), counts
        )
        wedge_key = np.repeat(mid_start[m_lo:m_hi] * n, counts)
        wedge_key += neighbors[end_slot]

        # 3. Group by (start, end); runs of length k >= 2 are blooms.
        order = np.argsort(wedge_key, kind="stable")
        sorted_key = wedge_key[order]
        boundary = np.empty(total, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
        run_starts = np.flatnonzero(boundary)
        run_lengths = np.diff(np.append(run_starts, total))
        is_bloom = run_lengths >= 2
        if not is_bloom.any():
            continue
        in_bloom = np.repeat(is_bloom, run_lengths)
        pair_wedge = order[in_bloom]
        pair_mid = np.repeat(mid_slot[m_lo:m_hi], counts)[pair_wedge]
        yield (
            edge_ids[pair_mid].astype(np.int64, copy=False),
            edge_ids[end_slot[pair_wedge]].astype(np.int64, copy=False),
            run_lengths[is_bloom],
        )


def _add_bloom_support(
    support: np.ndarray,
    pair_e1: np.ndarray,
    pair_e2: np.ndarray,
    bloom_k: np.ndarray,
) -> None:
    """Charge both edges of every wedge pair its bloom's ``k - 1``."""
    contrib = np.repeat(bloom_k - 1, bloom_k)
    np.add.at(support, pair_e1, contrib)
    np.add.at(support, pair_e2, contrib)


def count_range_on_arrays(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    prio: np.ndarray,
    num_edges: int,
    start_lo: int,
    start_hi: int,
) -> np.ndarray:
    """Partial per-edge supports from start vertices in ``[start_lo, start_hi)``.

    The supports of :func:`build_shard_on_arrays`' pass, without keeping
    its wedge pairs.  Phrased over raw priority-sorted gid-CSR arrays
    instead of a graph object so that shared-memory workers
    (:mod:`repro.runtime`) can run it against attached views.  Summing the
    partial arrays of a disjoint start-range partition reproduces the full
    supports exactly (integer contributions are per start vertex).
    """
    support = np.zeros(num_edges, dtype=np.int64)
    for pair_e1, pair_e2, bloom_k in _bloom_chunks(
        indptr, neighbors, edge_ids, row_prios, prio, start_lo, start_hi
    ):
        _add_bloom_support(support, pair_e1, pair_e2, bloom_k)
    return support


def build_shard_on_arrays(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    edge_ids: np.ndarray,
    row_prios: np.ndarray,
    prio: np.ndarray,
    num_edges: int,
    start_lo: int,
    start_hi: int,
) -> BuildShard:
    """Algorithm 3 over one start-vertex range, on raw gid-CSR arrays.

    The construction kernel underneath
    :meth:`~repro.core.peeling_engine.CSRPeelingEngine.build`, phrased over
    arrays (not a graph object) so shared-memory workers can run it against
    attached views.  Returns
    ``(support, pair_e1, pair_e2, pair_bloom, bloom_k)`` where ``support``
    is the full-length partial support array and ``pair_bloom`` numbers
    blooms locally from 0 in discovery order.  Because maximal
    priority-obeyed blooms are anchored at exactly one start vertex,
    shards over a disjoint range partition compose losslessly: summing
    supports and concatenating pair/bloom arrays in ascending range order
    (with bloom-id offsets) reproduces the sequential build bit for bit.
    """
    support = np.zeros(num_edges, dtype=np.int64)
    chunks = list(
        _bloom_chunks(
            indptr, neighbors, edge_ids, row_prios, prio, start_lo, start_hi
        )
    )
    if not chunks:
        return support, _EMPTY, _EMPTY, _EMPTY, _EMPTY
    pair_e1, pair_e2, bloom_k = (np.concatenate(part) for part in zip(*chunks))
    _add_bloom_support(support, pair_e1, pair_e2, bloom_k)
    pair_bloom = np.repeat(np.arange(len(bloom_k), dtype=np.int64), bloom_k)
    return support, pair_e1, pair_e2, pair_bloom, bloom_k


def count_per_edge_vectorized(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Butterfly support of every edge (vectorized vertex-priority).

    Exactly equivalent to :func:`repro.butterfly.counting.count_per_edge`.
    """
    n = graph.num_vertices
    if n == 0 or graph.num_edges == 0:
        return np.zeros(graph.num_edges, dtype=np.int64)
    prio = (
        np.asarray(priorities) if priorities is not None else graph.priorities()
    )
    indptr, neighbors, edge_ids, row_prios = graph.csr_gid_sorted_with_prios(
        priorities
    )
    with obs_phases.phase("butterfly counting"):
        return count_range_on_arrays(
            indptr, neighbors, edge_ids, row_prios, prio, graph.num_edges, 0, n
        )


def count_total_vectorized(
    graph: BipartiteGraph,
    *,
    priorities: Optional[np.ndarray] = None,
) -> int:
    """Total butterfly count via the vectorized traversal."""
    support = count_per_edge_vectorized(graph, priorities=priorities)
    return int(support.sum()) // 4
