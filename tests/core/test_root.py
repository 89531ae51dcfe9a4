"""Root selection: Brandes vs networkx oracle, convex subgraphs, Fig. 5."""

import networkx as nx
import pytest

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.escape import EscapePaths
from repro.core.root import (
    betweenness_centrality,
    convex_subgraph,
    select_root,
)
from repro.network.topologies import (
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
)


def full_adjacency(net):
    nodes = list(range(net.n_nodes))
    adjacency = {v: net.neighbors(v) for v in nodes}
    return nodes, adjacency


class TestBetweenness:
    @pytest.mark.parametrize("build", [
        lambda: ring(7),
        lambda: paper_ring_with_shortcut(),
        lambda: torus([3, 3]),
        lambda: random_topology(12, 25, 0, seed=4),
    ])
    def test_matches_networkx(self, build):
        """Directed-symmetric Brandes equals networkx's (unnormalised)."""
        net = build()
        nodes, adjacency = full_adjacency(net)
        ours = betweenness_centrality(nodes, adjacency)
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        for v, outs in adjacency.items():
            for w in outs:
                g.add_edge(v, w)
        theirs = nx.betweenness_centrality(g, normalized=False)
        for v in nodes:
            assert ours[v] == pytest.approx(theirs[v], abs=1e-9)

    def test_path_graph_center(self):
        """On a path, the middle node is the most central."""
        from repro.network.graph import NetworkBuilder
        b = NetworkBuilder()
        s = [b.add_switch() for _ in range(5)]
        for i in range(4):
            b.add_link(s[i], s[i + 1])
        net = b.build()
        nodes, adjacency = full_adjacency(net)
        bc = betweenness_centrality(nodes, adjacency)
        assert max(nodes, key=lambda v: bc[v]) == s[2]

    def test_empty(self):
        assert betweenness_centrality([], {}) == {}


class TestConvexSubgraph:
    def test_contains_destinations(self):
        net = paper_ring_with_shortcut()
        nodes, _ = convex_subgraph(net, [0, 2])
        assert 0 in nodes and 2 in nodes

    def test_intermediate_on_shortest_path_included(self):
        net = ring(6)  # ring: shortest n0 -> n2 passes n1
        nodes, adjacency = convex_subgraph(net, [0, 2])
        assert 1 in nodes
        # nodes on the long way around are excluded
        assert 4 not in nodes

    def test_paper_fig5_subset(self):
        """N_d = {n1, n2, n3}: H spans only the n1-n2-n3 ring arc."""
        net = paper_ring_with_shortcut()
        dests = [net.node_names.index(f"n{i}") for i in (1, 2, 3)]
        nodes, adjacency = convex_subgraph(net, dests)
        n4 = net.node_names.index("n4")
        assert set(dests) <= set(nodes)
        assert n4 not in nodes

    def test_single_destination(self):
        net = ring(5)
        nodes, adjacency = convex_subgraph(net, [3])
        assert nodes == [3]
        assert adjacency[3] == []


class TestSelectRoot:
    def test_all_dests_runs_on_network(self):
        net = torus([3, 3], 1)
        root = select_root(net, net.terminals, all_dests=True)
        assert net.is_switch(root)  # terminals have zero betweenness

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_root(ring(4), [])

    def test_deterministic(self):
        net = random_topology(15, 40, 2, seed=8)
        a = select_root(net, net.terminals[:10])
        b = select_root(net, net.terminals[:10])
        assert a == b

    def test_fig5_central_root_gives_fewer_initial_dependencies(self):
        """Paper Fig. 5: for N_d = {n1, n2, n3}, rooting the tree at the
        subset-central n2 yields 4 initial dependencies vs 5 for the
        globally-central n5."""
        net = paper_ring_with_shortcut()
        dests = [net.node_names.index(f"n{i}") for i in (1, 2, 3)]
        n2 = net.node_names.index("n2")
        n5 = net.node_names.index("n5")

        def initial_deps(root):
            return EscapePaths(
                net, CompleteCDG(net), root, dests
            ).initial_dependencies

        assert initial_deps(n2) < initial_deps(n5)
        # and the selection lands exactly on the paper's n2 (maximal
        # betweenness w.r.t. the subset, ties broken toward short
        # escape paths)
        assert select_root(net, dests) == n2

    def test_central_root_tree_no_deeper_than_root_0(self):
        """§4.3's latency argument: the betweenness-central root's
        escape tree is at least as shallow as one rooted at node 0."""
        net = random_topology(60, 300, 4, seed=5)

        def max_depth(root):
            tree = EscapePaths(
                net, CompleteCDG(net), root, net.terminals
            ).tree

            def depth(v):
                d = 0
                while tree.parent[v] >= 0:
                    v = tree.parent[v]
                    d += 1
                return d

            return max(depth(v) for v in range(net.n_nodes))

        central = select_root(net, net.terminals, all_dests=True)
        assert max_depth(central) <= max_depth(0)
