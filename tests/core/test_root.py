"""Root selection: Brandes vs networkx oracle, convex subgraphs, Fig. 5,
and the array passes against the scalar implementation they replaced."""

import tracemalloc
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdg.complete_cdg import CompleteCDG
from repro.core import root as root_mod
from repro.core.escape import EscapePaths
from repro.core.nue import NueConfig, plan_layers
from repro.core.root import (
    betweenness_centrality,
    convex_subgraph,
    select_root,
)
from repro.network.faults import remove_switches
from repro.network.graph import Network, as_network
from repro.network.topologies import (
    k_ary_n_tree,
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
)


# -- scalar reference ---------------------------------------------------------
# The loops below are the implementation the array passes replaced,
# kept verbatim: the betweenness bits (and so the root among float
# ties) must match them exactly, not approximately.

def ref_convex_subgraph(
    net: Network, dest_subset: Sequence[int]
) -> Tuple[List[int], Dict[int, List[int]]]:
    dset = set(dest_subset)
    n = net.n_nodes
    member = np.zeros(n, dtype=bool)
    edge_marked: Set[Tuple[int, int]] = set()
    for d in dest_subset:
        dist = np.asarray(net.bfs_levels(d), dtype=np.int64)
        # backward sweep: mark nodes that can still reach another
        # destination along a shortest path from d
        marked = np.zeros(n, dtype=bool)
        for t in dset:
            if t != d:
                marked[t] = True
        order = np.argsort(-dist, kind="stable")
        for v in order:
            v = int(v)
            for c in net.out_channels[v]:
                w = net.channel_dst[c]
                if dist[w] == dist[v] + 1 and marked[w]:
                    marked[v] = True
                    edge_marked.add((min(v, w), max(v, w)))
        marked[d] = marked[d] or bool(dset - {d})
        member |= marked
    for d in dset:
        member[d] = True
    nodes = [int(v) for v in np.flatnonzero(member)]
    node_set = set(nodes)
    adjacency: Dict[int, List[int]] = {v: [] for v in nodes}
    for (u, v) in edge_marked:
        if u in node_set and v in node_set:
            adjacency[u].append(v)
            adjacency[v].append(u)
    # isolated members (e.g. a lone destination) keep empty adjacency
    return nodes, adjacency


def _ref_to_csr(
    nodes: Sequence[int], adjacency: Dict[int, List[int]]
) -> Tuple[np.ndarray, np.ndarray, Dict[int, int]]:
    """Compact CSR representation of the (directed) adjacency."""
    index = {v: i for i, v in enumerate(nodes)}
    counts = np.array([len(adjacency[v]) for v in nodes], dtype=np.int64)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for i, v in enumerate(nodes):
        indices[indptr[i]:indptr[i + 1]] = [index[w] for w in adjacency[v]]
    return indptr, indices, index


def _ref_ragged_gather(
    frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All (src, neighbor) pairs leaving ``frontier`` (vectorized)."""
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])),
                        lens)
    flat = offsets + np.arange(total)
    return np.repeat(frontier, lens), indices[flat]


def ref_betweenness_centrality(
    nodes: Sequence[int], adjacency: Dict[int, List[int]]
) -> Dict[int, float]:
    nodes = list(nodes)
    n = len(nodes)
    bc = np.zeros(n)
    if n == 0:
        return {}
    indptr, indices, index = _ref_to_csr(nodes, adjacency)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        level_edges: List[Tuple[np.ndarray, np.ndarray]] = []
        level = 0
        while frontier.size:
            src, nbr = _ref_ragged_gather(frontier, indptr, indices)
            if src.size == 0:
                break
            fresh = dist[nbr] == -1
            dist[nbr[fresh]] = level + 1
            onpath = dist[nbr] == level + 1
            src_sel, nbr_sel = src[onpath], nbr[onpath]
            np.add.at(sigma, nbr_sel, sigma[src_sel])
            level_edges.append((src_sel, nbr_sel))
            frontier = np.unique(nbr[fresh])
            level += 1
        delta = np.zeros(n)
        for src_sel, nbr_sel in reversed(level_edges):
            np.add.at(
                delta,
                src_sel,
                sigma[src_sel] / sigma[nbr_sel] * (1.0 + delta[nbr_sel]),
            )
        delta[s] = 0.0
        bc += delta
    return {v: float(bc[index[v]]) for v in nodes}


def ref_root(net: Network, dest_subset: Sequence[int], nodes: List[int],
             bc: Dict[int, float]) -> int:
    best_bc = max(bc[v] for v in nodes)
    ties = [v for v in nodes if bc[v] == best_bc]
    if len(ties) == 1:
        return ties[0]
    dset = set(dest_subset)

    def dist_sum(v: int) -> int:
        levels = net.bfs_levels(v)
        return sum(levels[d] for d in dset)

    return min(ties, key=lambda v: (dist_sum(v), v))


def full_adjacency(net):
    nodes = list(range(net.n_nodes))
    adjacency = {v: net.neighbors(v) for v in nodes}
    return nodes, adjacency


def assert_matches_reference(net, subset, all_dests, label):
    """Nodes, adjacency lists *in order*, bc bits and root all equal the
    scalar reference's."""
    nodes, adjacency = ref_convex_subgraph(net, subset)
    got_nodes, got_adjacency = convex_subgraph(net, subset)
    assert got_nodes == nodes, f"{label}: convex nodes differ"
    assert list(got_adjacency.items()) == list(adjacency.items()), (
        f"{label}: convex adjacency (or its order) differs")
    if all_dests:
        nodes, adjacency = full_adjacency(net)
    bc = ref_betweenness_centrality(nodes, adjacency)
    assert list(betweenness_centrality(nodes, adjacency).items()) == \
        list(bc.items()), f"{label}: betweenness bits differ"
    assert select_root(net, subset, all_dests=all_dests) == \
        ref_root(net, subset, nodes, bc), f"{label}: root differs"


def assert_layers_match_reference(net, k, seed, label):
    """Every layer subset Nue plans for ``(k, seed)``, as Nue calls it."""
    dests = list(net.terminals or range(net.n_nodes))
    parts, _ = plan_layers(net, dests, k, NueConfig(), seed)
    for i, subset in enumerate(parts):
        assert_matches_reference(net, subset, len(parts) == 1,
                                 f"{label} k={k} seed={seed} layer {i}")


#: the golden-digest fabrics (tests/integration/test_golden_digests.py)
GOLDEN_FABRICS = {
    "ring8": lambda: ring(8, 2),
    "torus443": lambda: torus([4, 4, 3], 2),
    "tree32": lambda: k_ary_n_tree(3, 2),
    "torus443_fault": lambda: as_network(
        remove_switches(torus([4, 4, 3], 2), [5])),
}


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


class TestScalarReference:
    """The array passes reproduce the scalar implementation bit for bit:
    sorted adjacency lists, or a set filled in sorted order, change the
    betweenness bits (torus443_fault at k=8, seed 2 moves its root)."""

    @pytest.mark.parametrize("fabric", sorted(GOLDEN_FABRICS))
    def test_golden_fabrics(self, fabric):
        net = GOLDEN_FABRICS[fabric]()
        for k in (1, 2, 3, 4, 8):
            for seed in (1, 2, 3, 7):
                assert_layers_match_reference(net, k, seed, fabric)

    @pytest.mark.parametrize("label,build,k", [
        ("6-ary 3-tree", lambda: k_ary_n_tree(6, 3), 4),
        ("torus 6x6x6", lambda: torus([6, 6, 6], 1), 2),
    ])
    def test_bench_subsets(self, label, build, k):
        assert_layers_match_reference(build(), k, 31, label)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_multigraphs(self, data):
        n_switches = data.draw(st.integers(2, 12))
        n_links = n_switches - 1 + data.draw(st.integers(0, 2 * n_switches))
        terminals = data.draw(st.integers(0, 2))
        net = random_topology(n_switches, n_links, terminals,
                              seed=data.draw(st.integers(0, 2**31)))
        pool = list(net.terminals or range(net.n_nodes))
        subset = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=len(pool) + 2))
        for all_dests in (False, True):
            assert_matches_reference(net, subset, all_dests, "random")

    def test_block_sizes_do_not_change_bits(self, monkeypatch):
        """Rows of a block are independent and summed in source order,
        so the block sizes are a memory knob, not a result knob."""
        net = torus([4, 4, 3], 2)
        parts, _ = plan_layers(net, list(net.terminals), 2, NueConfig(), 7)
        want = [betweenness_centrality(*convex_subgraph(net, s))
                for s in parts]
        monkeypatch.setattr(root_mod, "CONVEX_BLOCK", 3)
        monkeypatch.setattr(root_mod, "BRANDES_BLOCK", 5)
        got = [betweenness_centrality(*convex_subgraph(net, s))
               for s in parts]
        assert [list(b.items()) for b in got] == \
            [list(b.items()) for b in want]


class TestFloatTies:
    def test_torus443_root_is_decided_by_round_off(self):
        """On torus443 at k=1 many switches share the maximum
        betweenness up to round-off; only 5 share it exactly, and the
        root is the tie-break among those 5."""
        net = torus([4, 4, 3], 2)
        bc = betweenness_centrality(*full_adjacency(net))
        best = max(bc.values())
        exact = sum(1 for v in bc.values() if v == best)
        near = sum(1 for v in bc.values() if best - v <= 1e-9)
        why = (
            "the root is picked among the nodes whose betweenness equals "
            "the maximum *bit for bit*; the bits depend on the ordering "
            "contract in repro.core.root's docstring (delta summation in "
            "adjacency order, convex adjacency in first-marking set "
            "order).  An isclose() maximum or a canonical (sorted) "
            "adjacency order changes which nodes tie, and so the root "
            "and every golden digest."
        )
        assert (exact, near) == (5, 48), f"exact/near ties {exact}/{near}: {why}"
        root = select_root(net, net.terminals, all_dests=True)
        assert net.node_names[root] == "s3_0_2", (
            f"root {net.node_names[root]}, expected s3_0_2: {why}"
        )


def test_memory_is_blocked():
    """One layer of torus 8x8x8 at k=2 (1,024 nodes, 512 destinations):
    the passes work in row blocks, so the traced peak stays a few MB.
    Unblocked (every destination and source at once) it is ~84 MB;
    64/128-row blocks already reach ~19 MB."""
    net = torus([8, 8, 8], 1)
    parts, _ = plan_layers(net, list(net.terminals), 2, NueConfig(), 1)
    net.csr  # build the cached CSR view outside the traced window
    tracemalloc.start()
    try:
        select_root(net, parts[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"select_root peaked at {peak / 2**20:.1f} MiB"
