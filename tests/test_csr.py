"""CSR layer tests: zero-copy slices, legacy-view agreement, batch peeling.

Covers the two contracts of the CSR refactor:

* the CSR arrays, the zero-copy neighbour slices and the legacy list views
  all describe the same graph (checked against an independently built
  adjacency on random graphs);
* the array-native batch-peeling engine produces bitwise-identical bitruss
  numbers to scalar BiT-BU and to the definition-level oracle, on fixtures,
  random graphs and degenerate shapes, and repeats the parent
  implementation's support-update counts on every bundled dataset.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.bit_bu import bit_bu
from repro.core.bit_bu_batch import bit_bu_csr
from repro.core.peeling_engine import CSRPeelingEngine
from repro.core.verification import reference_decomposition
from repro.datasets import dataset_names, load_dataset
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    affiliation_bipartite,
    chung_lu_bipartite,
    complete_biclique,
    erdos_renyi_bipartite,
    nested_communities,
)
from repro.index.be_index import BEIndex
from repro.utils.stats import UpdateCounter
from tests.conftest import bipartite_graphs


def reference_adjacency(graph):
    """Layer adjacency rebuilt edge by edge, independent of the CSR."""
    adj_u = [[] for _ in range(graph.num_upper)]
    eids_u = [[] for _ in range(graph.num_upper)]
    adj_l = [[] for _ in range(graph.num_lower)]
    eids_l = [[] for _ in range(graph.num_lower)]
    for eid, (u, v) in enumerate(graph.edges()):
        adj_u[u].append(v)
        eids_u[u].append(eid)
        adj_l[v].append(u)
        eids_l[v].append(eid)
    return adj_u, eids_u, adj_l, eids_l


RANDOM_GRAPHS = [
    erdos_renyi_bipartite(30, 25, 220, seed=99),
    erdos_renyi_bipartite(1, 40, 40, seed=3),
    chung_lu_bipartite(60, 60, 400, seed=7),
    affiliation_bipartite(40, 40, 8, community_upper=6, community_lower=6, seed=2),
    BipartiteGraph(3, 3, []),
]


class TestCSRAgreesWithLegacyAccessors:
    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_neighbor_slices_match_reference(self, graph):
        adj_u, eids_u, adj_l, eids_l = reference_adjacency(graph)
        for u in range(graph.num_upper):
            assert graph.neighbors_of_upper(u).tolist() == adj_u[u]
            assert graph.edges_of_upper(u).tolist() == eids_u[u]
            assert graph.degree_upper(u) == len(adj_u[u])
        for v in range(graph.num_lower):
            assert graph.neighbors_of_lower(v).tolist() == adj_l[v]
            assert graph.edges_of_lower(v).tolist() == eids_l[v]
            assert graph.degree_lower(v) == len(adj_l[v])

    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_gid_csr_matches_layer_csr(self, graph):
        indptr, indices, eids = graph.csr_gid()
        n_l = graph.num_lower
        for v in range(n_l):
            row = slice(indptr[v], indptr[v + 1])
            assert (indices[row] - n_l).tolist() == graph.neighbors_of_lower(v).tolist()
            assert eids[row].tolist() == graph.edges_of_lower(v).tolist()
        for u in range(graph.num_upper):
            g = n_l + u
            row = slice(indptr[g], indptr[g + 1])
            assert indices[row].tolist() == graph.neighbors_of_upper(u).tolist()
            assert eids[row].tolist() == graph.edges_of_upper(u).tolist()

    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_adjacency_by_gid_view_matches_csr(self, graph):
        adj, adj_eids = graph.adjacency_by_gid()
        indptr, indices, eids = graph.csr_gid()
        for g in range(graph.num_vertices):
            row = slice(indptr[g], indptr[g + 1])
            assert adj[g] == indices[row].tolist()
            assert adj_eids[g] == eids[row].tolist()

    @pytest.mark.parametrize("graph", RANDOM_GRAPHS, ids=range(len(RANDOM_GRAPHS)))
    def test_sorted_csr_is_priority_sorted_row_permutation(self, graph):
        prio = graph.priorities()
        indptr, indices, eids = graph.csr_gid_sorted()
        base_indptr, base_indices, base_eids = graph.csr_gid()
        assert indptr is base_indptr
        for g in range(graph.num_vertices):
            row = slice(indptr[g], indptr[g + 1])
            row_prios = prio[indices[row]]
            assert (np.diff(row_prios) >= 0).all()
            assert sorted(indices[row].tolist()) == sorted(base_indices[row].tolist())
            assert sorted(eids[row].tolist()) == sorted(base_eids[row].tolist())
            # indices and eids are permuted together
            for nbr, eid in zip(indices[row].tolist(), eids[row].tolist()):
                u, v = graph.edge_endpoints(eid)
                assert {graph.gid_of_upper(u), graph.gid_of_lower(v)} == {g, nbr}

    def test_shared_arrays_are_read_only(self, medium_random):
        g = medium_random
        for arr in (
            g.edge_upper,
            g.edge_lower,
            *g.csr_upper(),
            *g.csr_lower(),
            *g.csr_gid(),
        ):
            with pytest.raises(ValueError):
                arr[0] = 0

    @given(bipartite_graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_roundtrip_property(self, graph):
        graph.validate()
        indptr, indices, eids = graph.csr_gid()
        assert int(indptr[-1]) == 2 * graph.num_edges
        # every edge appears exactly once per endpoint
        assert np.bincount(eids, minlength=graph.num_edges).tolist() == [2] * graph.num_edges


class TestBatchPeelingExactness:
    def _assert_identical(self, graph):
        np.testing.assert_array_equal(bit_bu(graph).phi, bit_bu_csr(graph).phi)

    def test_identical_on_figure1(self, figure1):
        self._assert_identical(figure1)

    def test_identical_on_figure4(self, figure4):
        self._assert_identical(figure4)

    def test_identical_on_medium_random(self, medium_random):
        self._assert_identical(medium_random)

    def test_identical_on_dense_nested(self):
        graph = nested_communities(
            [(30, 40, 0.4), (12, 16, 0.7), (5, 7, 1.0)], noise_edges=60, seed=5
        )
        self._assert_identical(graph)

    def test_identical_on_skewed(self):
        self._assert_identical(chung_lu_bipartite(80, 80, 600, seed=13))

    def test_empty_graph(self):
        graph = BipartiteGraph(4, 4, [])
        assert bit_bu_csr(graph).phi.tolist() == []

    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_identical_property(self, graph):
        """Differential check against the definition-level oracle."""
        np.testing.assert_array_equal(
            reference_decomposition(graph), bit_bu_csr(graph).phi
        )


def _disjoint_union(*graphs):
    """Side-by-side union of bipartite graphs (edge ids in listing order)."""
    edges, n_u, n_l = [], 0, 0
    for graph in graphs:
        edges += [(u + n_u, v + n_l) for u, v in graph.edges()]
        n_u += graph.num_upper
        n_l += graph.num_lower
    return BipartiteGraph(n_u, n_l, edges)


class TestPeelDegenerateShapes:
    """Shapes that reach the selection loop's edge cases."""

    def _peel(self, graph):
        phi = bit_bu_csr(graph).phi
        np.testing.assert_array_equal(reference_decomposition(graph), phi)
        return phi.tolist()

    def test_empty_graphs(self):
        assert self._peel(BipartiteGraph(0, 0)) == []
        assert CSRPeelingEngine.build(BipartiteGraph(3, 2)).peel().tolist() == []

    def test_single_edge(self):
        assert self._peel(BipartiteGraph(1, 1, [(0, 0)])) == [0]

    def test_star(self):
        assert self._peel(BipartiteGraph(1, 7, [(0, v) for v in range(7)])) == [0] * 7

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 5), (3, 3), (4, 6)])
    def test_complete_biclique(self, a, b):
        # Every edge of K_{a,b} lies in (a - 1)(b - 1) butterflies.
        assert self._peel(complete_biclique(a, b)) == [(a - 1) * (b - 1)] * (a * b)

    def test_butterfly_free_path(self):
        path = [(i // 2, (i + 1) // 2) for i in range(9)]
        assert self._peel(BipartiteGraph(5, 5, path)) == [0] * 9

    def test_batches_that_detach_nothing_force_a_rescan(self):
        # Level 0 is a path whose edges own no wedge pair; level 1 is a
        # lone butterfly whose batch detaches only pairs internal to the
        # batch.  Both steps return an empty next batch, so levels 1 and 4
        # are each reached by a rescan.
        path = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])
        graph = _disjoint_union(path, complete_biclique(2, 2), complete_biclique(3, 3))
        engine = CSRPeelingEngine.build(graph)
        returned = []
        step = engine._peel_batch

        def recording_step(batch, mbs, counter, peeled):
            nxt = step(batch, mbs, counter, peeled)
            returned.append((mbs, len(batch), len(nxt)))
            return nxt

        phi = engine._peel_levels(recording_step, None)
        assert phi.tolist() == [0] * 4 + [1] * 4 + [4] * 9
        assert returned == [(0, 4, 0), (1, 4, 0), (4, 9, 0)]
        np.testing.assert_array_equal(phi, reference_decomposition(graph))

    def test_engine_peel_matches_reference_on_disjoint_levels(self):
        graph = _disjoint_union(
            complete_biclique(2, 3),
            BipartiteGraph(2, 2, [(0, 0), (1, 1)]),
            complete_biclique(3, 4),
            erdos_renyi_bipartite(8, 8, 30, seed=4),
        )
        self._peel(graph)


#: ``UpdateCounter.total`` of ``bit-bu-csr`` per bundled dataset — the
#: paper's Fig. 9/13 cost counter (one update per (edge, batch) support
#: change).  Captured from the queue-driven peel the array-native selection
#: replaced; a change here means the batches themselves changed.
CSR_SUPPORT_UPDATES = {
    "condmat": 401,
    "marvel": 23129,
    "dbpedia": 7059,
    "github": 41564,
    "twitter": 147154,
    "d-label": 183985,
    "d-style": 50349,
    "amazon": 103,
    "dblp": 94,
    "wiki-it": 139935,
    "wiki-fr": 196259,
    "delicious": 380446,
    "live-journal": 724774,
    "wiki-en": 375401,
    "tracker": 903806,
}


@pytest.mark.parametrize("name", dataset_names())
def test_support_updates_pinned_on_bundled_datasets(name):
    counter = UpdateCounter()
    bit_bu_csr(load_dataset(name), counter=counter)
    assert counter.total == CSR_SUPPORT_UPDATES[name]


class TestEngineInternals:
    def test_engine_supports_match_be_index(self, medium_random):
        engine = CSRPeelingEngine.build(medium_random)
        index = BEIndex.build(medium_random)
        np.testing.assert_array_equal(engine.support, index.support)

    def test_engine_size_components_match_be_index(self, medium_random):
        engine = CSRPeelingEngine.build(medium_random)
        index = BEIndex.build(medium_random)
        blooms_e, edges_e, links_e = engine.size_components()
        blooms_i, edges_i, links_i = index.size_components()
        assert blooms_e == blooms_i
        assert edges_e == edges_i
        assert links_e == links_i

    def test_stats_plumbing(self, figure4):
        from repro.utils.stats import UpdateCounter

        counter = UpdateCounter()
        result = bit_bu_csr(figure4, counter=counter)
        assert result.stats.algorithm == "BiT-BU-CSR"
        assert "index construction" in result.stats.timings
        assert "peeling" in result.stats.timings
        assert counter.total > 0
        assert result.stats.index_peak_bytes > 0

    def test_registered_in_api(self, figure4):
        from repro.core.api import ALGORITHMS, bitruss_decomposition

        assert ALGORITHMS["csr"] == "bit-bu-csr"
        result = bitruss_decomposition(figure4, algorithm="bu-csr")
        np.testing.assert_array_equal(result.phi, bit_bu(figure4).phi)
