"""Escape paths (paper Section 4.2, Definition 7).

A spanning tree of the network, rooted at the layer's central node,
defines for every destination of the layer a guaranteed deadlock-free
fallback route.  Its channel dependencies are marked *used* in the
layer's complete CDG before any path search runs; they can never be
turned into routing restrictions, and Nue falls back to them when the
modified Dijkstra reaches an unsolvable impasse for a destination.

All dependencies are recorded in the *search orientation* (paths walked
from the destination outward), the mirror image of Def. 7's
traffic-direction formulation — see :mod:`repro.core.dijkstra` for why
the two are equivalent.  The marking is per destination of the layer,
walking tree paths outward, which reproduces the root-position
dependence of the initial dependency count (paper Fig. 5) exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdg.complete_cdg import CompleteCDG
from repro.network.graph import Network
from repro.obs import core as obs

__all__ = ["DisconnectedError", "SpanningTree", "EscapePaths"]


class DisconnectedError(ValueError):
    """The (surviving) fabric does not connect every node."""


class SpanningTree:
    """BFS spanning tree of the network, one concrete channel per hop.

    BFS minimizes depth and therefore the average escape-path length
    (the paper's stated goal).  On multigraphs the lowest-id channel of
    a link is chosen, deterministically.  ``retired`` (a per-channel
    truthy mask) excludes failed-in-place channels, so the tree spans
    only the surviving fabric; when the survivors no longer connect
    every node the constructor raises :class:`DisconnectedError` (a
    ``ValueError``), which the resilience engine turns into a
    reachability report.
    """

    def __init__(
        self,
        net: Network,
        root: int,
        retired: Optional[Sequence[int]] = None,
    ) -> None:
        self.net = net
        self.root = root
        self.parent: List[int] = [-1] * net.n_nodes
        #: channel root-ward node -> child used by the tree (per child)
        self.down_channel: List[int] = [-1] * net.n_nodes
        self.children: List[List[int]] = [[] for _ in range(net.n_nodes)]
        order = [root]
        seen = [False] * net.n_nodes
        seen[root] = True
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for c in sorted(net.out_channels[u]):
                if retired is not None and retired[c]:
                    continue
                v = net.channel_dst[c]
                if not seen[v]:
                    seen[v] = True
                    self.parent[v] = u
                    self.down_channel[v] = c  # channel (u -> v)
                    self.children[u].append(v)
                    order.append(v)
        if not all(seen):
            raise DisconnectedError("network is disconnected")
        self.bfs_order = order

    def channel_between(self, u: int, v: int) -> int:
        """The tree's channel from ``u`` to ``v`` (adjacent in tree)."""
        if self.parent[v] == u:
            return self.down_channel[v]
        if self.parent[u] == v:
            return self.net.channel_reverse[self.down_channel[u]]
        raise ValueError(f"{u} and {v} are not tree-adjacent")

    def neighbors(self, u: int) -> List[int]:
        """Tree-adjacent nodes of ``u``."""
        out = list(self.children[u])
        if self.parent[u] >= 0:
            out.append(self.parent[u])
        return out


class EscapePaths:
    """Escape-path state for one virtual layer.

    Marks the spanning tree's dependencies toward every destination of
    the layer in the complete CDG and serves fallback forwarding
    channels.
    """

    def __init__(
        self,
        net: Network,
        cdg: CompleteCDG,
        root: int,
        dest_subset: Sequence[int],
        traffic_orientation: bool = False,
    ) -> None:
        """``traffic_orientation=False`` (default) records the search-
        orientation mirror used by destination-based Nue; ``True``
        records the dependencies in traffic direction, which the
        source-routed variant needs (its path search runs source-
        outward, so its CDG holds traffic-direction dependencies — the
        two orientations must never be mixed in one CDG)."""
        self.net = net
        self.cdg = cdg
        # span only the surviving fabric: channels retired in the CDG
        # (fail-in-place faults) cannot carry escape paths
        self.tree = SpanningTree(net, root,
                                 retired=cdg.channel_retired_mask)
        self.dest_subset = list(dest_subset)
        self.traffic_orientation = traffic_orientation
        self.initial_dependencies = 0
        self._mark_all()
        if obs.enabled():
            obs.count("escape.trees_built", 1)

    def _mark_all(self) -> None:
        """Mark the union of tree-path dependencies of all destinations.

        A dependency ``(c(u->v), c(v->w))`` belongs to some
        destination's escape paths iff a destination lies in the
        component of ``u`` when node ``v`` is removed from the tree —
        computed for every neighbour pair with subtree destination
        counts and rerooting, in one O(Σ deg²) pass instead of one tree
        walk per destination.  The count (and the marked set) is
        identical to walking Def. 7 per destination, so the Fig.-5
        root-position dependence is preserved exactly.
        """
        net = self.net
        cdg = self.cdg
        tree = self.tree
        csr = net.csr
        state = cdg._state
        n = net.n_nodes
        total = len(self.dest_subset)
        sub = [0] * n
        for d in self.dest_subset:
            sub[d] += 1
        for v in reversed(tree.bfs_order):
            p = tree.parent[v]
            if p >= 0:
                sub[p] += sub[v]

        for v in range(n):
            nbrs = tree.neighbors(v)
            entries: List[Tuple[int, int]] = []  # (neighbour, in-channel)
            for u in nbrs:
                # destinations in u's component once v is removed
                cnt = sub[u] if tree.parent[u] == v else total - sub[v]
                if cnt > 0:
                    c_in = tree.channel_between(u, v)
                    cdg.mark_vertex_used(c_in)
                    entries.append((u, c_in))
            for u, c_in in entries:
                for w in nbrs:
                    if w == u:
                        continue
                    c_out = tree.channel_between(v, w)
                    if self.traffic_orientation:
                        # mirror pair: traffic flows w -> v -> u
                        cp = net.channel_reverse[c_out]
                        cq = net.channel_reverse[c_in]
                        cdg.mark_vertex_used(cp)
                    else:
                        cp, cq = c_in, c_out
                    # edge-id resolution doubles as the Def.-6
                    # existence check (eid < 0 <=> 180-degree turn)
                    eid = csr.edge_id(cp, cq)
                    if eid < 0:
                        continue
                    if state[eid] != 1:
                        self.initial_dependencies += 1
                        if not cdg.try_use_edge_id(eid, cp, cq):
                            raise AssertionError(
                                "spanning-tree escape paths induced a cycle"
                            )

    def fallback_channels(self, d: int) -> List[int]:
        """Search-orientation used channels for a full escape fallback.

        One tree-BFS from ``d``: entry ``v`` is the tree channel
        entering ``v`` on the tree path from ``d`` (-1 at ``d``).
        """
        if obs.enabled():
            obs.count("escape.fallback_walks", 1)
        chans = [-1] * self.net.n_nodes
        stack = [d]
        visited = [False] * self.net.n_nodes
        visited[d] = True
        while stack:
            u = stack.pop()
            for v in self.tree.neighbors(u):
                if not visited[v]:
                    visited[v] = True
                    chans[v] = self.tree.channel_between(u, v)
                    stack.append(v)
        return chans

    def fallback_channel(self, d: int, node: int) -> int:
        """Search-orientation used channel for ``node`` when the whole
        routing step for destination ``d`` falls back to the escape
        paths: the tree channel entering ``node`` on the tree path from
        ``d``.  (Traffic direction: ``node`` forwards on its reverse.)
        """
        # walk from node toward the tree root until reaching d's path:
        # equivalently, the first hop of the tree path node -> d,
        # reversed.  Compute the next tree hop from node toward d.
        nxt = self._next_tree_hop(node, d)
        return self.net.channel_reverse[self.tree.channel_between(node, nxt)]

    def _next_tree_hop(self, src: int, dst: int) -> int:
        """First node after ``src`` on the unique tree path to ``dst``."""
        if src == dst:
            raise ValueError("no hop needed")
        # ancestors of dst up to the root
        anc: Dict[int, int] = {}
        u, prev = dst, -1
        while u != -1:
            anc[u] = prev
            prev, u = u, self.tree.parent[u]
        # climb from src until hitting dst's ancestor chain
        v = src
        while v not in anc:
            v = self.tree.parent[v]
        if v == src:
            # src is an ancestor of dst: step down toward dst
            return anc[src]
        # otherwise first move root-ward
        return self.tree.parent[src]
