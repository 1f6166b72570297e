"""Differential tests of the sort-based wedge pass (Algorithm 3).

The oracle below is the per-start loop the pass replaced: for each start
vertex, gather its priority-obeyed wedges middle by middle, group them by
end vertex with a stable sort, and emit one bloom per group of ``k >= 2``.
The pass must reproduce its five arrays bit for bit — values, dtypes, and
the order of pairs and blooms.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly import vectorized
from repro.butterfly.counting import count_butterflies_total
from repro.butterfly.vectorized import build_shard_on_arrays, count_range_on_arrays
from repro.core.peeling_engine import CSRPeelingEngine
from repro.datasets import dataset_names, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import complete_biclique
from tests.conftest import bipartite_graphs


def oracle_shard(indptr, neighbors, edge_ids, row_prios, prio, num_edges, lo, hi):
    """The per-start loop: ``(support, pair_e1, pair_e2, pair_bloom, bloom_k)``."""
    support = np.zeros(num_edges, dtype=np.int64)
    parts: List[List[np.ndarray]] = [[], [], [], []]
    next_bloom = 0
    for start in range(lo, hi):
        # The start's priority-obeyed two-hop frontier, middle by middle.
        s_lo, s_hi = int(indptr[start]), int(indptr[start + 1])
        cut = int(np.searchsorted(row_prios[s_lo:s_hi], prio[start]))
        ends, end_edges, mid_edges = [], [], []
        for slot in range(s_lo, s_lo + cut):
            v = neighbors[slot]
            v_lo, v_hi = int(indptr[v]), int(indptr[v + 1])
            c = int(np.searchsorted(row_prios[v_lo:v_hi], prio[start]))
            ends.append(neighbors[v_lo : v_lo + c])
            end_edges.append(edge_ids[v_lo : v_lo + c])
            mid_edges.append(np.full(c, edge_ids[slot], dtype=np.int64))
        if not ends or sum(map(len, ends)) == 0:
            continue
        ends, end_edges, mid_edges = map(np.concatenate, (ends, end_edges, mid_edges))

        # Group by end vertex: each group of size k >= 2 is one bloom.
        order = np.argsort(ends, kind="stable")
        sorted_ends = ends[order]
        boundary = np.ones(len(order), dtype=bool)
        np.not_equal(sorted_ends[1:], sorted_ends[:-1], out=boundary[1:])
        run_ids = np.cumsum(boundary) - 1
        run_lengths = np.diff(np.append(np.nonzero(boundary)[0], len(order)))
        k_per_wedge = run_lengths[run_ids]
        active = k_per_wedge >= 2
        if not active.any():
            continue
        np.add.at(support, end_edges[order][active], k_per_wedge[active] - 1)
        np.add.at(support, mid_edges[order][active], k_per_wedge[active] - 1)
        bloom_of_run = np.cumsum(run_lengths >= 2) - 1 + next_bloom
        next_bloom += int((run_lengths >= 2).sum())
        parts[0].append(mid_edges[order][active])
        parts[1].append(end_edges[order][active].astype(np.int64))
        parts[2].append(bloom_of_run[run_ids[active]])
        parts[3].append(run_lengths[run_lengths >= 2])
    return (support, *(
        np.concatenate(part) if part else np.empty(0, dtype=np.int64)
        for part in parts
    ))


def _arrays(graph: BipartiteGraph, priorities=None):
    prio = graph.priorities() if priorities is None else np.asarray(priorities)
    return (
        *graph.csr_gid_sorted_with_prios(priorities),
        prio,
        graph.num_edges,
    )


def assert_shards_equal(got, want) -> None:
    names = ("support", "pair_e1", "pair_e2", "pair_bloom", "bloom_k")
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype == np.int64, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def check_against_oracle(graph: BipartiteGraph, priorities=None) -> None:
    args = _arrays(graph, priorities)
    n = graph.num_vertices
    want = oracle_shard(*args, 0, n)
    assert_shards_equal(build_shard_on_arrays(*args, 0, n), want)
    np.testing.assert_array_equal(count_range_on_arrays(*args, 0, n), want[0])


def _gapped_priorities(draw, n: int) -> np.ndarray:
    """A strict ranking of ``n`` vertices with random gaps and offset."""
    order = draw(st.permutations(range(n)))
    gaps = draw(
        st.lists(st.integers(1, 10**6), min_size=n, max_size=n)
    )
    offset = draw(st.integers(-(10**6), 10**6))
    prio = np.empty(n, dtype=np.int64)
    prio[np.asarray(order, dtype=np.int64)] = offset + np.cumsum(gaps)
    return prio


class TestShapes:
    def test_empty_graph(self):
        check_against_oracle(BipartiteGraph(3, 4, []))

    def test_no_vertices(self):
        check_against_oracle(BipartiteGraph(0, 0, []))

    def test_matching_is_wedge_free(self):
        graph = BipartiteGraph(4, 4, [(i, i) for i in range(4)])
        check_against_oracle(graph)
        assert len(CSRPeelingEngine.build(graph).bloom_k) == 0

    @pytest.mark.parametrize("leaves", [1, 2, 7])
    def test_stars_have_wedges_but_no_bloom(self, leaves):
        for graph in (complete_biclique(1, leaves), complete_biclique(leaves, 1)):
            check_against_oracle(graph)
            assert len(CSRPeelingEngine.build(graph).bloom_k) == 0

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 5), (3, 4), (6, 6)])
    def test_complete_bicliques(self, a, b):
        graph = complete_biclique(a, b)
        check_against_oracle(graph)
        bloom_k = CSRPeelingEngine.build(graph).bloom_k
        butterflies = (a * (a - 1) // 2) * (b * (b - 1) // 2)
        assert int((bloom_k * (bloom_k - 1) // 2).sum()) == butterflies


@settings(max_examples=80, deadline=None)
@given(bipartite_graphs(max_upper=12, max_lower=12, max_edges=70))
def test_matches_oracle(graph):
    check_against_oracle(graph)


@settings(max_examples=60, deadline=None)
@given(st.data(), bipartite_graphs(max_upper=10, max_lower=10, max_edges=50))
def test_matches_oracle_with_gapped_priorities(data, graph):
    check_against_oracle(graph, _gapped_priorities(data.draw, graph.num_vertices))


@settings(max_examples=60, deadline=None)
@given(st.data(), bipartite_graphs(max_upper=10, max_lower=10, max_edges=50))
def test_disjoint_ranges_compose_through_from_shards(data, graph):
    n = graph.num_vertices
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
    bounds = [0] + cuts + [n]
    ranges = list(zip(bounds, bounds[1:]))
    args = _arrays(graph)
    shards = [build_shard_on_arrays(*args, lo, hi) for lo, hi in ranges]
    for (lo, hi), shard in zip(ranges, shards):
        assert_shards_equal(shard, oracle_shard(*args, lo, hi))
    composed = CSRPeelingEngine.from_shards(graph.num_edges, shards)
    whole = CSRPeelingEngine.build(graph)
    for name in ("support", "pair_e1", "pair_e2", "pair_bloom", "bloom_k",
                 "e_indptr", "e_pair", "b_indptr", "b_pair"):
        np.testing.assert_array_equal(
            getattr(composed, name), getattr(whole, name), err_msg=name
        )


@settings(max_examples=40, deadline=None)
@given(bipartite_graphs(max_upper=10, max_lower=10, max_edges=60))
def test_one_wedge_per_chunk(graph):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vectorized, "_WEDGE_CHUNK", 1)
        check_against_oracle(graph)


@pytest.mark.parametrize("name", dataset_names())
def test_lemma1_blooms_hold_every_butterfly(name):
    """Σ C(k_B, 2) over the maximal priority-obeyed blooms is ⋈G (Lemma 1)."""
    graph = load_dataset(name)
    bloom_k = CSRPeelingEngine.build(graph).bloom_k
    assert int((bloom_k * (bloom_k - 1) // 2).sum()) == count_butterflies_total(graph)
