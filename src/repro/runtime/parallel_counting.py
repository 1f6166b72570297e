"""Shard-parallel butterfly counting and BE-Index construction.

Both operations shard the same way: the start-vertex space is split into
contiguous ranges (several per worker, so a hub-heavy range cannot straggle
the pool), each range runs the one wedge pass of
:mod:`repro.butterfly.vectorized` against the worker's zero-copy view of the
published CSR arrays, and the parent merges the shard results
deterministically in ascending range order:

* **counting** — partial support arrays sum (integer contributions are per
  start vertex, so any summation order is exact);
* **BE-Index build** — supports sum and the wedge-pair/bloom fragments
  concatenate with bloom-id offsets via
  :meth:`~repro.core.peeling_engine.CSRPeelingEngine.from_shards`, which
  reproduces the sequential engine **bit for bit** (every maximal
  priority-obeyed bloom is anchored at exactly one start vertex, so shards
  never split or duplicate a bloom).

The task functions live at module level (picklable) and carry the arena
manifest with them — the pool needs no per-operation initialization.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.butterfly.vectorized import (
    BuildShard,
    build_shard_on_arrays,
    count_range_on_arrays,
)
from repro.core.peeling_engine import CSRPeelingEngine
from repro.runtime.pool import ParallelRuntime, attached_views
from repro.runtime.shm import ArenaManifest

# ------------------------------------------------------------ worker tasks


def _task_count_range(
    manifest: ArenaManifest, start_lo: int, start_hi: int
) -> np.ndarray:
    """Partial per-edge supports of one start range (runs in a worker)."""
    views = attached_views(manifest)
    return count_range_on_arrays(
        views["indptr"],
        views["indices"],
        views["edge_ids"],
        views["row_prios"],
        views["prio"],
        manifest.meta["num_edges"],
        start_lo,
        start_hi,
    )


def _task_build_shard(
    manifest: ArenaManifest, start_lo: int, start_hi: int
) -> BuildShard:
    """One BE-Index construction shard (runs in a worker)."""
    views = attached_views(manifest)
    return build_shard_on_arrays(
        views["indptr"],
        views["indices"],
        views["edge_ids"],
        views["row_prios"],
        views["prio"],
        manifest.meta["num_edges"],
        start_lo,
        start_hi,
    )


# ------------------------------------------------------------ parent side


def count_per_edge_shards(
    runtime: ParallelRuntime, *, chunks_per_worker: Optional[int] = None
) -> np.ndarray:
    """Butterfly support of every edge, sharded across the runtime's pool.

    Exactly equivalent to
    :func:`repro.butterfly.counting.count_per_edge` — the partial sums are
    merged in ascending shard order, and each contribution is an exact
    int64, so the result is bitwise identical to the scalar path.
    """
    graph = runtime.graph
    total = np.zeros(graph.num_edges, dtype=np.int64)
    ranges = runtime.shard_ranges(
        graph.num_vertices, chunks_per_worker=chunks_per_worker
    )
    manifest = runtime.graph_manifest
    tasks = [(manifest, lo, hi) for lo, hi in ranges]
    for partial in runtime.map_tasks(_task_count_range, tasks):
        total += partial
    return total


def build_engine_shards(
    runtime: ParallelRuntime, *, chunks_per_worker: Optional[int] = None
) -> CSRPeelingEngine:
    """Parallel BE-Index construction over the runtime's pool.

    Returns a :class:`~repro.core.peeling_engine.CSRPeelingEngine` whose
    arrays (supports, wedge pairs, bloom numbering, CSR links) are bitwise
    identical to ``CSRPeelingEngine.build(runtime.graph)``.
    """
    graph = runtime.graph
    ranges = runtime.shard_ranges(
        graph.num_vertices, chunks_per_worker=chunks_per_worker
    )
    manifest = runtime.graph_manifest
    tasks = [(manifest, lo, hi) for lo, hi in ranges]
    shards: List[BuildShard] = runtime.map_tasks(_task_build_shard, tasks)
    return CSRPeelingEngine.from_shards(graph.num_edges, shards)
