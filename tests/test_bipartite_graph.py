"""Unit tests for the core BipartiteGraph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph, LabelMap, build_labeled_graph

from tests.conftest import bipartite_graphs


class TestConstruction:
    def test_empty_graph(self):
        g = BipartiteGraph(0, 0)
        assert g.num_edges == 0
        assert g.num_vertices == 0

    def test_basic_edges(self):
        g = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 1)])
        assert g.num_edges == 3
        assert g.num_upper == 2
        assert g.num_lower == 3
        assert g.edge_endpoints(1) == (0, 2)

    def test_edge_ids_follow_iteration_order(self):
        edges = [(1, 0), (0, 2), (0, 0)]
        g = BipartiteGraph(2, 3, edges)
        for eid, pair in enumerate(edges):
            assert g.edge_id(*pair) == eid

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BipartiteGraph(2, 2, [(0, 0), (0, 0)])

    def test_duplicate_edge_deduped(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 0), (1, 1)], dedup=True)
        assert g.num_edges == 2

    def test_out_of_range_upper(self):
        with pytest.raises(ValueError, match="upper endpoint"):
            BipartiteGraph(2, 2, [(2, 0)])

    def test_out_of_range_lower(self):
        with pytest.raises(ValueError, match="lower endpoint"):
            BipartiteGraph(2, 2, [(0, -1)])

    def test_negative_layer_size(self):
        with pytest.raises(ValueError):
            BipartiteGraph(-1, 2)


class TestAdjacency:
    @pytest.fixture
    def g(self):
        return BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (2, 2)])

    def test_neighbors(self, g):
        assert sorted(g.neighbors_of_upper(0)) == [0, 1]
        assert sorted(g.neighbors_of_lower(0)) == [0, 1]
        assert g.neighbors_of_upper(2) == [2]

    def test_degrees(self, g):
        assert g.degree_upper(0) == 2
        assert g.degree_lower(0) == 2
        assert g.degree_lower(1) == 1

    def test_degrees_array_by_gid(self, g):
        deg = g.degrees()
        # lower vertices first (gids 0..2), then upper (gids 3..5)
        assert deg.tolist() == [2, 1, 1, 2, 1, 1]

    def test_incident_edge_ids_parallel_to_neighbors(self, g):
        for u in range(g.num_upper):
            for v, eid in zip(g.neighbors_of_upper(u), g.edges_of_upper(u)):
                assert g.edge_endpoints(eid) == (u, v)
        for v in range(g.num_lower):
            for u, eid in zip(g.neighbors_of_lower(v), g.edges_of_lower(v)):
                assert g.edge_endpoints(eid) == (u, v)

    def test_has_edge(self, g):
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 1)

    def test_edge_id_missing_raises(self, g):
        with pytest.raises(KeyError):
            g.edge_id(1, 2)


class TestGlobalIds:
    def test_gid_scheme_upper_above_lower(self):
        g = BipartiteGraph(2, 3, [(0, 0)])
        # every upper gid exceeds every lower gid (the paper's convention)
        assert g.gid_of_upper(0) == 3
        assert g.gid_of_lower(2) == 2
        assert g.is_upper_gid(3)
        assert not g.is_upper_gid(2)
        assert g.upper_of_gid(4) == 1

    def test_adjacency_by_gid_roundtrip(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
        adj, adj_eids = g.adjacency_by_gid()
        # lower vertex 1 (gid 1) neighbours upper 0 and 1 (gids 2, 3)
        assert sorted(adj[1]) == [2, 3]
        for gid in range(g.num_vertices):
            for nbr, eid in zip(adj[gid], adj_eids[gid]):
                u, v = g.edge_endpoints(eid)
                pair = {g.gid_of_upper(u), g.gid_of_lower(v)}
                assert pair == {gid, nbr}


class TestSubgraphs:
    def test_edge_subgraph_keeps_vertex_space(self):
        g = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
        sub, orig = g.subgraph_from_edge_ids([2, 0])
        assert sub.num_upper == 3 and sub.num_lower == 3
        assert orig.tolist() == [0, 2]
        assert sub.has_edge(0, 0) and sub.has_edge(2, 2)
        assert not sub.has_edge(1, 1)

    def test_edge_subgraph_mapping(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        sub, orig = g.subgraph_from_edge_ids([3, 1])
        for new_eid, old_eid in enumerate(orig):
            assert sub.edge_endpoints(new_eid) == g.edge_endpoints(int(old_eid))

    def test_induced_subgraph_relabel(self):
        g = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2), (2, 0)])
        sub = g.induced_subgraph([0, 2], [0, 2])
        assert sub.num_upper == 2 and sub.num_lower == 2
        # vertices 0,2 -> 0,1 in each layer
        assert sorted(sub.edges()) == [(0, 0), (1, 0), (1, 1)]

    def test_induced_subgraph_no_relabel(self):
        g = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
        sub = g.induced_subgraph([0, 2], [0, 2], relabel=False)
        assert sub.num_upper == 3
        assert sorted(sub.edges()) == [(0, 0), (2, 2)]

    def test_copy_independent(self):
        g = BipartiteGraph(1, 1, [(0, 0)])
        h = g.copy()
        assert h.num_edges == 1
        assert h is not g


class TestEdgeLookup:
    """``edge_id``/``has_edge`` against a brute-force ``(u, v)`` map."""

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(max_upper=8, max_lower=8, max_edges=40), st.data())
    def test_matches_brute_force_map(self, graph, data):
        expected = {pair: eid for eid, pair in enumerate(graph.edges())}
        for pair, eid in expected.items():
            assert graph.edge_id(*pair) == eid
            assert graph.has_edge(*pair)
        # Absent pairs, in range and out of range on either side (an
        # out-of-range v must not alias the code of a real edge).
        probes = data.draw(
            st.lists(
                st.tuples(
                    st.integers(-2, graph.num_upper + 2),
                    st.integers(-2, graph.num_lower + 2),
                ),
                max_size=30,
            )
        )
        for pair in probes:
            if pair in expected:
                assert graph.edge_id(*pair) == expected[pair]
                continue
            assert not graph.has_edge(*pair)
            with pytest.raises(KeyError):
                graph.edge_id(*pair)
        graph.validate()

    def test_out_of_range_lower_does_not_alias(self):
        # (0, 3) would share the code 0 * 3 + 3 with edge (1, 0).
        g = BipartiteGraph(2, 3, [(1, 0)])
        assert g.edge_id(1, 0) == 0
        assert not g.has_edge(0, 3)
        assert not g.has_edge(1, -3)
        with pytest.raises(KeyError):
            g.edge_id(0, 3)

    def test_numpy_scalars_accepted(self):
        g = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
        assert g.edge_id(np.int64(1), np.int32(0)) == 1

    def test_lookup_arrays_are_read_only(self):
        g = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
        g.edge_id(0, 1)
        for arr in g._lookup():
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_validate_audits_the_lookup(self):
        g = BipartiteGraph(2, 2, [(0, 1), (1, 0), (1, 1)])
        sorted_codes, order = g._lookup()
        g._edge_lookup = (sorted_codes, order[::-1].copy())
        with pytest.raises(AssertionError, match="edge lookup"):
            g.validate()


def _csr_args(graph):
    return (
        graph.num_upper,
        graph.num_lower,
        graph.edge_upper,
        graph.edge_lower,
        graph.csr_upper(),
        graph.csr_lower(),
    )


class TestFromCsrChecks:
    """Each ``_validate_arrays`` failure raises under ``check=True``."""

    @pytest.fixture
    def g(self):
        return BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])

    def test_valid_arrays_pass(self, g):
        h = BipartiteGraph.from_csr(*_csr_args(g))
        assert h.to_edge_list() == g.to_edge_list()
        h.validate()

    def test_duplicate_edge(self):
        # A consistent array set that repeats (0, 1): only the code sort
        # can catch it, every CSR check passes.
        upper = np.array([0, 0])
        lower = np.array([1, 1])
        upper_csr = (np.array([0, 2]), np.array([1, 1]), np.array([0, 1]))
        lower_csr = (np.array([0, 0, 2]), np.array([0, 0]), np.array([0, 1]))
        with pytest.raises(AssertionError, match="duplicate edges"):
            BipartiteGraph.from_csr(1, 2, upper, lower, upper_csr, lower_csr)
        BipartiteGraph.from_csr(
            1, 2, upper, lower, upper_csr, lower_csr, check=False
        )

    def test_repeated_csr_edge_id_at_right_length(self, g):
        indptr, nbrs, eids = g.csr_upper()
        repeated = eids.copy()
        repeated[1] = repeated[0]
        args = list(_csr_args(g))
        args[4] = (indptr, nbrs, repeated)
        with pytest.raises(AssertionError, match="upper CSR edge ids"):
            BipartiteGraph.from_csr(*args)

    def test_wrong_length_edge_id_array(self, g):
        indptr, nbrs, eids = g.csr_lower()
        args = list(_csr_args(g))
        args[5] = (indptr, nbrs, np.concatenate((eids, eids[:1])))
        with pytest.raises(AssertionError, match="lower CSR edge ids"):
            BipartiteGraph.from_csr(*args)

    def test_endpoint_out_of_range(self, g):
        args = list(_csr_args(g))
        args[3] = np.array([0, 1, 1, 3])
        with pytest.raises(AssertionError, match="out of range"):
            BipartiteGraph.from_csr(*args)

    def test_csr_disagrees_with_endpoints(self, g):
        indptr, nbrs, eids = g.csr_upper()
        args = list(_csr_args(g))
        args[4] = (indptr, nbrs[::-1].copy(), eids)
        with pytest.raises(AssertionError, match="disagrees"):
            BipartiteGraph.from_csr(*args)


class TestValidation:
    def test_validate_ok(self, medium_random):
        medium_random.validate()

    def test_repr(self):
        g = BipartiteGraph(2, 3, [(0, 0)])
        assert "|U|=2" in repr(g) and "m=1" in repr(g)


class TestLabelMap:
    def test_intern_and_lookup(self):
        lm = LabelMap()
        assert lm.intern("a") == 0
        assert lm.intern("b") == 1
        assert lm.intern("a") == 0
        assert lm.label_of(1) == "b"
        assert lm.id_of("a") == 0
        assert "a" in lm and "c" not in lm
        assert len(lm) == 2
        assert lm.labels() == ["a", "b"]

    def test_build_labeled_graph(self):
        pairs = [("alice", "p1"), ("bob", "p1"), ("alice", "p2"), ("alice", "p1")]
        g, upper, lower = build_labeled_graph(pairs)
        assert g.num_edges == 3  # duplicate dropped
        assert g.num_upper == 2 and g.num_lower == 2
        assert g.has_edge(upper.id_of("bob"), lower.id_of("p1"))
