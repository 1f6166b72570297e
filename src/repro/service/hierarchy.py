"""The nested k-bitruss containment forest, in flat numpy storage.

The k-bitrusses of a graph nest (``H_0 ⊇ H_1 ⊇ ... ⊇ H_φmax``) and so do
their connected components: every component of ``H_k`` lies inside exactly
one component of ``H_{k-1}``.  That containment relation is a forest whose
nodes are *super-nodes* — maximal sets of edges that share a connected
k-bitruss component at the node's level but settle no deeper — and it is
the entire query index of the service layer: once built (one stable φ
sort, then one array-only connected-components round per occupied level),
every structural query is answered in time linear in its output.

Construction sweep
------------------
Edges are processed by *descending* φ, one occupied level at a time.  An
``int64`` parent array over global vertex ids holds the connected
components of the subgraph seen so far, which after finishing level ``k``
is exactly ``H_k``; every pointer goes to a smaller id and each root is its
component's smallest vertex.  A level finds its endpoints' roots by pointer
jumping, merges them by min-label hooking plus pointer jumping
(Shiloach–Vishkin), and creates one new super-node per component that
gained edges, numbered by the component's first level edge (a first-edge
stamp over vertex ids, no per-level sort).  The new node's children are
the super-nodes of the previously-existing components it swallowed; levels
at which a component is unchanged create no node, so the forest is
compressed (parent levels strictly decrease along every upward path).

Flat storage
------------
Nodes are renumbered in DFS preorder so that every subtree occupies a
contiguous id range ``[n, subtree_end[n])``, and edges are grouped by
settle node in the same order.  A component's edge set is then one slice
of one array — the trick that makes ``community()`` output-linear instead
of graph-linear.  The renumbering is array work too: subtree sizes settle
level by level (children are always deeper than their parent), and a
node's preorder id is its parent's id plus one plus the sizes of the
siblings created before it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph


class BitrussHierarchy:
    """Queryable containment forest over the k-bitruss components.

    Build with :func:`build_hierarchy`; all arrays are read-only.

    Attributes
    ----------
    node_level:
        ``node_level[n]`` — the level k of super-node ``n``; the node's
        own edges have φ == k exactly.  Nodes are in DFS preorder, so
        parents precede children and ancestor levels strictly decrease.
    node_parent:
        Parent node id, ``-1`` at forest roots.
    subtree_end:
        Exclusive end of node ``n``'s DFS range: the descendants of ``n``
        are exactly the ids ``n+1 .. subtree_end[n]-1``.
    edge_node:
        ``edge_node[e]`` — the super-node at which edge ``e`` settles (the
        component of ``H_{φ(e)}`` containing it).

    ``phi_order`` is ``np.argsort(phi, kind="stable")``, which the builder
    already holds; the k-bitruss queries read suffixes of it.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        phi: np.ndarray,
        node_level: np.ndarray,
        node_parent: np.ndarray,
        subtree_end: np.ndarray,
        edge_node: np.ndarray,
        node_edge_ptr: np.ndarray,
        node_edges: np.ndarray,
        vertex_best_edge: np.ndarray,
        *,
        phi_order: np.ndarray,
    ) -> None:
        self.graph = graph
        self.phi = phi
        self.node_level = node_level
        self.node_parent = node_parent
        self.subtree_end = subtree_end
        self.edge_node = edge_node
        self._node_edge_ptr = node_edge_ptr
        self._node_edges = node_edges
        self._vertex_best_edge = vertex_best_edge
        # φ ascending with edge-id tie-break (the builder's sweep order):
        # the k-bitruss is a suffix.
        self._phi_order = phi_order
        self._phi_sorted = phi[self._phi_order]
        for arr in (
            self.phi,
            self.node_level,
            self.node_parent,
            self.subtree_end,
            self.edge_node,
            self._node_edge_ptr,
            self._node_edges,
            self._vertex_best_edge,
            self._phi_order,
            self._phi_sorted,
        ):
            arr.flags.writeable = False

    # ------------------------------------------------------------- shape

    @property
    def num_nodes(self) -> int:
        """Number of super-nodes in the forest."""
        return len(self.node_level)

    @property
    def max_k(self) -> int:
        """Largest bitruss number present."""
        return int(self.phi.max()) if len(self.phi) else 0

    def roots(self) -> np.ndarray:
        """Ids of the forest roots (components of the sparsest level)."""
        return np.nonzero(self.node_parent == -1)[0]

    # ----------------------------------------------------------- queries

    def k_bitruss_edges(self, k: int) -> np.ndarray:
        """Edge ids of ``H_k`` in ascending order, output-linear time.

        The φ-sorted permutation makes edges with ``φ >= k`` one suffix;
        only that suffix is touched.
        """
        if k <= 0:
            return np.arange(len(self.phi), dtype=np.int64)
        start = int(np.searchsorted(self._phi_sorted, k, side="left"))
        return np.sort(self._phi_order[start:])

    def node_of_vertex(self, gid: int, k: int) -> int:
        """Super-node of the ``H_k`` component containing global vertex ``gid``.

        Returns ``-1`` when the vertex has no incident edge with
        ``φ >= k``.  All edges with ``φ >= k`` incident to one vertex lie
        in the same ``H_k`` component (they share the vertex), so it
        suffices to start from the vertex's best edge and walk up.
        """
        best = int(self._vertex_best_edge[gid])
        if best < 0 or self.phi[best] < k:
            return -1
        return self._ancestor_at_level(int(self.edge_node[best]), k)

    def node_of_edge(self, eid: int, k: int) -> int:
        """Super-node of the ``H_k`` component containing edge ``eid``.

        Returns ``-1`` when ``φ(eid) < k``.
        """
        if self.phi[eid] < k:
            return -1
        return self._ancestor_at_level(int(self.edge_node[eid]), k)

    def _ancestor_at_level(self, node: int, k: int) -> int:
        """Highest ancestor of ``node`` whose level is still ``>= k``."""
        parent = self.node_parent
        level = self.node_level
        while parent[node] >= 0 and level[parent[node]] >= k:
            node = int(parent[node])
        return node

    def component_edges(self, node: int) -> np.ndarray:
        """All edges of a super-node's component, ascending edge ids.

        The component of a node at level k consists of every edge settling
        in its subtree; DFS-contiguous numbering makes that one slice.
        """
        lo = self._node_edge_ptr[node]
        hi = self._node_edge_ptr[self.subtree_end[node]]
        return np.sort(self._node_edges[lo:hi])

    def community_edges(self, gid: int, k: int) -> np.ndarray:
        """Edges of the connected ``H_k`` component around a vertex.

        Empty when the vertex does not reach ``H_k``.  For ``k <= 0`` the
        component is taken at the sparsest occurring level (``H_0`` minus
        isolated parts equals the graph's own connected components
        restricted to edges, which is what level-0 nodes hold).
        """
        node = self.node_of_vertex(gid, max(k, 0))
        if node < 0:
            return np.empty(0, dtype=np.int64)
        return self.component_edges(node)

    def max_k_of_vertex(self, gid: int) -> int:
        """Deepest level any incident edge of ``gid`` reaches (0 if none)."""
        best = int(self._vertex_best_edge[gid])
        return int(self.phi[best]) if best >= 0 else 0

    def hierarchy_path(self, eid: int) -> List[Tuple[int, int]]:
        """The edge's chain of enclosing components, innermost first.

        Returns ``(level, node_id)`` pairs from the settle node of ``eid``
        up to its forest root — the node at level k is the component of
        ``H_k`` (and of every empty level above the next entry) containing
        the edge.
        """
        node = int(self.edge_node[eid])
        path: List[Tuple[int, int]] = []
        while node >= 0:
            path.append((int(self.node_level[node]), node))
            node = int(self.node_parent[node])
        return path

    def phi_histogram(self) -> np.ndarray:
        """``hist[k]`` — number of edges with φ exactly ``k``."""
        if not len(self.phi):
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.phi, minlength=self.max_k + 1)

    def level_sizes(self) -> Dict[int, int]:
        """``{k: |E(H_k)|}`` for k = 0..max_k (cumulative, nested)."""
        hist = self.phi_histogram()
        suffix = np.cumsum(hist[::-1])[::-1]
        return {k: int(suffix[k]) for k in range(len(suffix))}

    # -------------------------------------------------------------- debug

    def validate(self) -> None:
        """Structural self-check used by the test suite.

        Raises
        ------
        AssertionError
            If DFS ranges, parent levels, or edge grouping are broken.
        """
        n = self.num_nodes
        if n == 0:
            if len(self.phi):
                raise AssertionError("edges present but no hierarchy nodes")
            return
        for node in range(n):
            parent = int(self.node_parent[node])
            if parent >= 0:
                if self.node_level[parent] >= self.node_level[node]:
                    raise AssertionError("parent level must strictly decrease")
                if not (parent < node < self.subtree_end[parent]):
                    raise AssertionError("child outside parent's DFS range")
            if not (node < self.subtree_end[node] <= n):
                raise AssertionError("bad subtree range")
        grouped = self._node_edges[
            self._node_edge_ptr[0] : self._node_edge_ptr[-1]
        ]
        if len(grouped) != len(self.phi):
            raise AssertionError("edge grouping does not cover all edges")
        for eid in range(len(self.phi)):
            node = int(self.edge_node[eid])
            if self.node_level[node] != self.phi[eid]:
                raise AssertionError("edge settled at wrong level")


def _find_roots(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of the vertices ``x`` by pointer jumping; compresses their paths.

    Every pointer goes to a smaller-or-equal id (roots are component
    minima), so the walk ends; each round moves the still-unfinished
    entries two hops, and the queried vertices end pointing at their roots.
    """
    roots = parent[x]
    active = np.flatnonzero(parent[roots] != roots)
    while len(active):
        roots[active] = parent[parent[roots[active]]]
        active = active[parent[roots[active]] != roots[active]]
    parent[x] = roots
    return roots


def _hook_components(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the trees of root pairs ``(a[i], b[i])`` in place.

    Min-label hooking plus pointer jumping (Shiloach–Vishkin): each round
    hooks the larger root of every still-crossing pair under the smaller
    label, then jumps every touched pointer until it reaches a root.  On
    return each node of ``a``/``b`` points straight at its component's
    root, the smallest vertex id among the roots it merged.
    """
    nodes = np.concatenate((a, b))
    while True:
        la = parent[a]
        lb = parent[b]
        cross = la != lb
        if not cross.any():
            return
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        low = np.minimum(la, lb)
        np.minimum.at(parent, la, low)
        np.minimum.at(parent, lb, low)
        while True:
            up = parent[nodes]
            jumped = parent[up]
            if np.array_equal(up, jumped):
                break
            parent[nodes] = jumped


def build_hierarchy(graph: BipartiteGraph, phi: np.ndarray) -> BitrussHierarchy:
    """Build the containment forest from a finished decomposition.

    Parameters
    ----------
    graph : BipartiteGraph
        The decomposed graph.
    phi : numpy.ndarray
        Per-edge bitruss numbers.

    Returns
    -------
    BitrussHierarchy
        The flat-array forest; construction is one stable φ sort, a
        φ-descending sweep of array-only connected-components rounds (one
        per occupied level) and one DFS renumbering done level by level.
    """
    # Private copy: the hierarchy freezes its φ, which must not leak into
    # a caller-owned (possibly still writable) array.
    phi = np.array(phi, dtype=np.int64, copy=True)
    m = graph.num_edges
    if len(phi) != m:
        raise ValueError("phi must have one entry per edge")

    n = graph.num_vertices
    n_l = graph.num_lower
    # φ ascending with edge-id tie-break: each level is one slice, its
    # edges in ascending id order.
    order = np.argsort(phi, kind="stable")
    sorted_phi = phi[order]
    sorted_gu = graph.edge_upper[order] + n_l
    sorted_gv = graph.edge_lower[order]
    cuts = np.flatnonzero(np.diff(sorted_phi)) + 1
    level_lo = np.concatenate(([0], cuts)) if m else cuts
    level_hi = np.concatenate((cuts, [m])) if m else cuts

    parent = np.arange(n, dtype=np.int64)  # vertex forest, roots = minima
    root_node = np.full(n, -1, dtype=np.int64)  # root -> its newest node
    first_pos = np.full(n, m, dtype=np.int64)  # root -> first level slot
    node_level_raw = np.empty(m, dtype=np.int64)
    node_parent_raw = np.full(m, -1, dtype=np.int64)
    edge_node_raw = np.empty(m, dtype=np.int64)
    blocks: List[int] = [0]  # node-id range start of each level, deepest first

    # Occupied levels, descending; each creates the nodes of that level.
    for lo, hi in zip(level_lo[::-1].tolist(), level_hi[::-1].tolist()):
        gu = sorted_gu[lo:hi]
        gv = sorted_gv[lo:hi]
        # Components (from deeper levels) that this level's edges touch.
        root_u = _find_roots(parent, gu)
        root_v = _find_roots(parent, gv)
        touched = np.concatenate((root_u, root_v))
        old_nodes = root_node[touched]
        _hook_components(parent, root_u, root_v)
        label = parent[root_u]
        parent[gu] = label
        parent[gv] = label

        # One new node per component that gained edges, numbered by the
        # component's first level edge.
        slots = np.arange(hi - lo, dtype=np.int64)
        np.minimum.at(first_pos, label, slots)
        heads = label[first_pos[label] == slots]
        first_pos[heads] = m
        start = blocks[-1]
        root_node[touched] = -1
        root_node[heads] = np.arange(start, start + len(heads))
        node_level_raw[start : start + len(heads)] = sorted_phi[lo]
        edge_node_raw[order[lo:hi]] = root_node[label]
        # Swallowed components hang their old nodes under the new one.
        swallowed = old_nodes >= 0
        node_parent_raw[old_nodes[swallowed]] = root_node[
            parent[touched[swallowed]]
        ]
        blocks.append(start + len(heads))

    n_nodes = blocks[-1]
    node_level_raw = node_level_raw[:n_nodes]
    node_parent_raw = node_parent_raw[:n_nodes]
    level_ranges = list(zip(blocks[:-1], blocks[1:]))

    # DFS preorder renumbering: subtrees become contiguous id ranges.
    # Roots, and each node's children, are visited in creation order.
    # Children are always created at a deeper level than their parent, so
    # subtree sizes settle block by block, deepest level first.
    size = np.ones(n_nodes, dtype=np.int64)
    for a, b in level_ranges:
        up = node_parent_raw[a:b]
        has = up >= 0
        np.add.at(size, up[has], size[a:b][has])
    # A node's preorder offset among its siblings: the sizes of the
    # siblings created before it (roots count as siblings of each other).
    by_parent = np.argsort(node_parent_raw, kind="stable")
    sibling_size = size[by_parent]
    before = np.cumsum(sibling_size) - sibling_size
    grouped_parent = node_parent_raw[by_parent]
    group_start = np.ones(n_nodes, dtype=bool)
    group_start[1:] = grouped_parent[1:] != grouped_parent[:-1]
    head = np.maximum.accumulate(
        np.where(group_start, np.arange(n_nodes, dtype=np.int64), 0)
    )
    offset = np.empty(n_nodes, dtype=np.int64)
    offset[by_parent] = before - before[head]
    # Preorder id = parent's id + 1 + sibling offset, shallowest level first.
    new_id = np.zeros(n_nodes, dtype=np.int64)
    for a, b in reversed(level_ranges):
        up = node_parent_raw[a:b]
        new_id[a:b] = offset[a:b] + np.where(up >= 0, new_id[up] + 1, 0)

    dfs_level = np.empty(n_nodes, dtype=np.int64)
    dfs_level[new_id] = node_level_raw
    dfs_parent = np.full(n_nodes, -1, dtype=np.int64)
    has_parent = node_parent_raw >= 0
    dfs_parent[new_id[has_parent]] = new_id[node_parent_raw[has_parent]]
    subtree_end = np.empty(n_nodes, dtype=np.int64)
    subtree_end[new_id] = new_id + size
    edge_node = new_id[edge_node_raw]

    # Group edge ids by settle node (nodes already in DFS order).
    if m:
        grouping = np.argsort(edge_node, kind="stable")
        node_edges = grouping.astype(np.int64)
        node_edge_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(edge_node, minlength=n_nodes), out=node_edge_ptr[1:]
        )
    else:
        node_edges = np.empty(0, dtype=np.int64)
        node_edge_ptr = np.zeros(n_nodes + 1, dtype=np.int64)

    # Per-vertex best (max-φ) incident edge: ascending-φ writes, last wins.
    vertex_best = np.full(n, -1, dtype=np.int64)
    if m:
        vertex_best[graph.edge_lower[order]] = order
        vertex_best[graph.edge_upper[order] + n_l] = order

    return BitrussHierarchy(
        graph,
        phi,
        dfs_level,
        dfs_parent,
        subtree_end,
        edge_node,
        node_edge_ptr,
        node_edges,
        vertex_best,
        phi_order=order,
    )
