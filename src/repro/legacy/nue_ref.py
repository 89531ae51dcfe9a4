"""Frozen pre-CSR reference of the Nue hot path (PR 3 bit-identity oracle).

A verbatim copy of the dict/list-based ``CompleteCDG``,
``SpanningTree``/``EscapePaths``, Section-4.6.2/3 impasse resolution and
``NueLayerRouter`` exactly as they stood before the CSR array-core
migration.  The production modules (:mod:`repro.cdg.complete_cdg`,
:mod:`repro.core.dijkstra`, :mod:`repro.core.escape`,
:mod:`repro.core.backtrack`) now run on the shared
:class:`repro.network.csr.CSRView`; this module exists so that the engine equality tests can assert the
CSR implementation produces bit-identical forwarding tables
(``tests/engine``, ``tests/core/test_route_batch_oracle.py``).

Do not "fix" or optimise anything here: its value is being frozen.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.network.graph import Network
from repro.obs import core as obs
from repro.utils.unionfind import UnionFind

__all__ = [
    "LegacyCompleteCDG",
    "LegacyEscapePaths",
    "LegacyNueLayerRouter",
    "legacy_route_layer",
    "legacy_nue_route",
]

UNUSED = 0
USED = 1
BLOCKED = -1


class LegacyCompleteCDG:
    """Mutable per-virtual-layer view of the complete CDG.

    One instance per virtual layer: Nue creates a fresh ``CompleteCDG``
    for every layer (paper Alg. 2 line 6) because the states and
    routing restrictions of different layers are independent.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.n_channels = net.n_channels
        self._edge_state: Dict[int, int] = {}
        self._used_out: List[List[int]] = [[] for _ in range(self.n_channels)]
        self._used_in: List[List[int]] = [[] for _ in range(self.n_channels)]
        self._vertex_used = bytearray(self.n_channels)
        self._uf = UnionFind(self.n_channels)
        #: Pearce-Kelly dynamic topological order of the used subgraph;
        #: initialised arbitrarily (channel id) and repaired locally on
        #: order-violating insertions.
        self._ord: List[int] = list(range(self.n_channels))
        self.n_used_edges = 0
        self.n_blocked_edges = 0
        self.cycle_searches = 0  #: number of condition-(d) DFS runs
        self.pk_reorders = 0     #: order-violating insertions repaired
        self.pk_reorder_moved = 0  #: vertices moved by those repairs

    # -- structure -------------------------------------------------------------

    def _key(self, cp: int, cq: int) -> int:
        return cp * self.n_channels + cq

    def dependency_exists(self, cp: int, cq: int) -> bool:
        """True when ``(c_p, c_q)`` is an edge of the complete CDG."""
        net = self.net
        return (
            net.channel_dst[cp] == net.channel_src[cq]
            and net.channel_src[cp] != net.channel_dst[cq]
        )

    def out_dependencies(self, cp: int) -> Iterator[int]:
        """All successors ``c_q`` of ``c_p`` in the complete CDG."""
        net = self.net
        src_cp = net.channel_src[cp]
        for cq in net.out_channels[net.channel_dst[cp]]:
            if net.channel_dst[cq] != src_cp:
                yield cq

    def n_edges(self) -> int:
        """Total |Ē| of the complete CDG (counted, not stored)."""
        return sum(
            1 for cp in range(self.n_channels)
            for _ in self.out_dependencies(cp)
        )

    # -- states ----------------------------------------------------------------

    def edge_state(self, cp: int, cq: int) -> int:
        """State of edge ``(c_p, c_q)``: UNUSED, USED or BLOCKED."""
        return self._edge_state.get(self._key(cp, cq), UNUSED)

    def is_vertex_used(self, c: int) -> bool:
        """True when channel ``c`` is in the *used* state."""
        return bool(self._vertex_used[c])

    def mark_vertex_used(self, c: int) -> None:
        """Put channel ``c`` into the *used* state (idempotent)."""
        self._vertex_used[c] = 1

    def component(self, c: int) -> int:
        """ω subgraph representative of channel ``c``."""
        return self._uf.find(c)

    def used_out_edges(self, c: int) -> List[int]:
        """Successor channels of ``c`` along *used* edges."""
        return self._used_out[c]

    def used_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all used edges."""
        for cp in range(self.n_channels):
            for cq in self._used_out[cp]:
                yield (cp, cq)

    def blocked_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all blocked edges."""
        n = self.n_channels
        for key, st in self._edge_state.items():
            if st == BLOCKED:
                yield divmod(key, n)

    # -- mutation --------------------------------------------------------------

    def _mark_used(self, cp: int, cq: int) -> None:
        self._edge_state[self._key(cp, cq)] = USED
        self._used_out[cp].append(cq)
        self._used_in[cq].append(cp)
        self._vertex_used[cp] = 1
        self._vertex_used[cq] = 1
        self._uf.union(cp, cq)
        self.n_used_edges += 1

    def block_edge(self, cp: int, cq: int) -> None:
        """Put edge into the *blocked* state (a routing restriction)."""
        key = self._key(cp, cq)
        prev = self._edge_state.get(key, UNUSED)
        if prev == USED:
            raise ValueError("cannot block a used edge")
        if prev != BLOCKED:
            self._edge_state[key] = BLOCKED
            self.n_blocked_edges += 1

    def unblock_edge(self, cp: int, cq: int) -> None:
        """Revert a blocked edge to unused.

        Nue never does this (its restrictions are permanent within a
        layer); the LASH/DFSSSP layer-assignment machinery uses it to
        roll back a failed what-if path insertion exactly.
        """
        key = self._key(cp, cq)
        if self._edge_state.get(key, UNUSED) != BLOCKED:
            raise ValueError(f"edge ({cp}, {cq}) is not blocked")
        del self._edge_state[key]
        self.n_blocked_edges -= 1

    def unuse_edge(self, cp: int, cq: int) -> None:
        """Revert a used edge to unused (§4.6.3 shortcut reversal).

        The ω component merge is deliberately *not* reverted (safe,
        conservative — see module docstring).  Vertex states are left
        untouched; callers revert them explicitly when appropriate.
        """
        key = self._key(cp, cq)
        if self._edge_state.get(key, UNUSED) != USED:
            raise ValueError(f"edge ({cp}, {cq}) is not used")
        del self._edge_state[key]
        self._used_out[cp].remove(cq)
        self._used_in[cq].remove(cp)
        self.n_used_edges -= 1

    # -- cycle machinery (Algorithm 3 + Pearce-Kelly order) ----------------------

    def _forward_discover(
        self, start: int, ub: int, target: int
    ) -> Optional[List[int]]:
        """Bounded forward DFS from ``start`` over used edges.

        Visits only vertices with order <= ``ub``; returns None when
        ``target`` is reached (a cycle), otherwise the visited set.
        """
        self.cycle_searches += 1
        ordv = self._ord
        used_out = self._used_out
        visited = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for nxt in used_out[c]:
                if nxt == target:
                    return None
                if nxt not in visited and ordv[nxt] < ub:
                    visited.add(nxt)
                    stack.append(nxt)
        return list(visited)

    def _backward_discover(self, start: int, lb: int) -> List[int]:
        """Bounded backward DFS from ``start`` (order >= ``lb``)."""
        ordv = self._ord
        used_in = self._used_in
        visited = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for prv in used_in[c]:
                if prv not in visited and ordv[prv] > lb:
                    visited.add(prv)
                    stack.append(prv)
        return list(visited)

    def _pk_insert_check(self, cp: int, cq: int) -> bool:
        """Pearce-Kelly: check edge ``(cp, cq)`` and repair the order.

        Returns False when the edge would close a cycle (no state is
        changed); otherwise locally reorders the affected region so the
        topological order stays valid and returns True.
        """
        ordv = self._ord
        lb, ub = ordv[cq], ordv[cp]
        if ub < lb:
            return True  # order already consistent: no cycle possible
        d_forward = self._forward_discover(cq, ub, cp)
        if d_forward is None:
            return False  # cq reaches cp: the edge closes a cycle
        d_backward = self._backward_discover(cp, lb)
        self.pk_reorders += 1
        self.pk_reorder_moved += len(d_forward) + len(d_backward)
        # reorder: the backward region must precede the forward region;
        # both keep their internal relative order and together reuse
        # the union of their old order slots, smallest first
        slots = sorted(ordv[c] for c in d_backward + d_forward)
        merged = (
            sorted(d_backward, key=lambda c: ordv[c])
            + sorted(d_forward, key=lambda c: ordv[c])
        )
        for c, slot in zip(merged, slots):
            ordv[c] = slot
        return True

    def try_use_edge(self, cp: int, cq: int) -> bool:
        """Algorithm 3: use edge ``(c_p, c_q)`` unless it closes a cycle.

        Returns True and marks the edge (and its endpoints) used when
        the used subgraph stays acyclic; otherwise marks the edge
        blocked and returns False.  ``(c_p, c_q)`` must be an edge of
        the complete CDG.

        Conditions (a) and (b) of Section 4.6.1 are the two O(1) state
        checks below; conditions (c)/(d) — "does the edge connect two
        disjoint acyclic subgraphs or close a cycle inside one?" — are
        decided by a Pearce-Kelly dynamic topological order, which
        answers order-consistent insertions in O(1) and pays a DFS
        bounded to the affected region otherwise (a strict
        strengthening of the paper's ω memoization: same answers,
        smaller searches).
        """
        key = self._key(cp, cq)
        state = self._edge_state.get(key, UNUSED)
        if state == BLOCKED:                       # condition (a)
            return False
        if state == USED:                          # condition (b)
            return True
        if not self._pk_insert_check(cp, cq):      # conditions (c)+(d)
            self._edge_state[key] = BLOCKED
            self.n_blocked_edges += 1
            return False
        self._mark_used(cp, cq)
        return True

    def would_close_cycle(self, cp: int, cq: int) -> bool:
        """Non-mutating variant: would using ``(c_p, c_q)`` create a cycle?

        Blocked edges answer True, used edges False; otherwise the
        topological order answers O(1) when consistent, and a bounded
        DFS decides the rest (no state is updated).
        """
        state = self._edge_state.get(self._key(cp, cq), UNUSED)
        if state == BLOCKED:
            return True
        if state == USED:
            return False
        if self._ord[cp] < self._ord[cq]:
            return False
        return self._forward_discover(cq, self._ord[cp], cp) is None

    # -- observability ---------------------------------------------------------

    def counter_snapshot(self) -> Dict[str, int]:
        """This CDG's lifetime work tallies, keyed for :mod:`repro.obs`.

        Layers own fresh CDGs, so a caller flushing the snapshot once
        per finished layer accumulates per-run totals in the obs layer.
        """
        return {
            "cdg.blocked_deps": self.n_blocked_edges,
            "cdg.used_deps": self.n_used_edges,
            "cdg.cycle_searches": self.cycle_searches,
            "cdg.pk_reorders": self.pk_reorders,
            "cdg.pk_reorder_moved": self.pk_reorder_moved,
        }

    # -- verification ----------------------------------------------------------

    def assert_acyclic(self) -> None:
        """Kahn's algorithm over the used edges; raises on a cycle.

        Exact full check used by tests and the validation layer; the
        incremental machinery above never lets a cycle appear, so this
        should always pass.
        """
        indeg: Dict[int, int] = {}
        vertices: Set[int] = set()
        for cp, cq in self.used_edges():
            vertices.add(cp)
            vertices.add(cq)
            indeg[cq] = indeg.get(cq, 0) + 1
        queue = [v for v in vertices if indeg.get(v, 0) == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in self._used_out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != len(vertices):
            raise AssertionError(
                f"used CDG contains a cycle ({len(vertices) - seen} vertices"
                " on cycles)"
            )


class LegacySpanningTree:
    """BFS spanning tree of the network, one concrete channel per hop.

    BFS minimizes depth and therefore the average escape-path length
    (the paper's stated goal).  On multigraphs the lowest-id channel of
    a link is chosen, deterministically.
    """

    def __init__(self, net: Network, root: int) -> None:
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
                v = net.channel_dst[c]
                if not seen[v]:
                    seen[v] = True
                    self.parent[v] = u
                    self.down_channel[v] = c  # channel (u -> v)
                    self.children[u].append(v)
                    order.append(v)
        if not all(seen):
            raise ValueError("network is disconnected")
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


class LegacyEscapePaths:
    """Escape-path state for one virtual layer.

    Marks the spanning tree's dependencies toward every destination of
    the layer in the complete CDG and serves fallback forwarding
    channels.
    """

    def __init__(
        self,
        net: Network,
        cdg: LegacyCompleteCDG,
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
        self.tree = LegacySpanningTree(net, root)
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
                    if not cdg.dependency_exists(cp, cq):
                        continue
                    if cdg.edge_state(cp, cq) != 1:
                        self.initial_dependencies += 1
                        if not cdg.try_use_edge(cp, cq):
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


def _connect_through(
    router: "LegacyNueLayerRouter", c: int, a: int
) -> bool:
    """Try the detour ``island <-c- u <-a- w``; commit when legal.

    ``a == usedChannel[u]`` means no re-base — only the island
    dependency is new.  Returns True on success.
    """
    net = router.net
    used = router._used
    u = net.channel_src[c]
    edges: List[Tuple[int, int]] = []
    if a != used[u]:
        w = net.channel_src[a]
        edges.append((used[w], a))
        needed = router.child_rebase_dependencies(u, a)
        if needed is None:
            return False
        edges.extend(needed)
    edges.append((a, c))
    if not router.try_use_dependencies_atomic(edges):
        return False
    router.cdg.mark_vertex_used(a)
    if a != used[u]:
        used[u] = a
        router._dist_node[u] = router._dist_chan[a]
    return True


def resolve_islands(
    router: "LegacyNueLayerRouter", dest: int
) -> Tuple[bool, int]:
    """One round of Section-4.6.2 backtracking.

    Tries to connect each island node through its 2-hop neighbourhood.
    Returns ``(progressed, shortcuts_taken)``; the caller re-runs the
    main loop after progress so island clusters complete, and calls
    again until no islands remain or no progress is possible.
    """
    net = router.net
    cdg = router.cdg
    used = router._used
    weights = router.weights
    progressed = False
    shortcuts = 0
    islands_seen = 0
    candidates_tried = 0

    for v in router._unreached(dest):
        islands_seen += 1
        if used[v] >= 0:
            continue  # reached meanwhile by an earlier detour
        # rank candidates (cost, a, c): island channel c = (u, v) plus
        # an in-channel a of u (usedChannel[u] first: its dependency
        # into c may never have been attempted if u was re-based after
        # its heap pop)
        candidates: List[Tuple[float, int, int]] = []
        for c in net.in_channels[v]:
            u = net.channel_src[c]
            if used[u] < 0:
                continue
            cur = used[u]
            if not cdg.would_close_cycle(cur, c):
                cost = float(router._dist_chan[cur] + weights[c])
                candidates.append((cost, cur, c))
            for a in net.in_channels[u]:
                w = net.channel_src[a]
                if a == cur or used[w] < 0 or w == v:
                    continue
                if not cdg.dependency_exists(a, c):
                    continue
                if not cdg.dependency_exists(used[w], a):
                    continue  # w's own chain arrives through u
                cost = float(
                    router._dist_node[w] + weights[a] + weights[c]
                )
                candidates.append((cost, a, c))
        for cost, a, c in sorted(candidates):
            candidates_tried += 1
            u = net.channel_src[c]
            if a != used[u]:
                router._dist_chan[a] = router._dist_node[
                    net.channel_src[a]
                ] + weights[a]
            if not _connect_through(router, c, a):
                continue
            used[v] = c
            router._dist_node[v] = cost
            router._dist_chan[c] = cost
            router.heap_push(c, cost)
            progressed = True
            if router.enable_shortcuts:
                shortcuts += _try_shortcuts(router, v)
            break

    if obs.enabled():
        obs.count_many({
            "nue.islands_seen": islands_seen,
            "nue.backtrack_candidates": candidates_tried,
        }, layer=router.layer_index)
    return progressed, shortcuts


def _try_shortcuts(router: "LegacyNueLayerRouter", v: int) -> int:
    """Section 4.6.3: use the freshly connected island ``v`` to shorten
    already-reached neighbours, keeping local dependencies in place."""
    net = router.net
    cdg = router.cdg
    used = router._used
    taken = 0
    for c in net.out_channels[v]:
        t = net.channel_dst[c]
        if used[t] < 0 or used[t] == c:
            continue
        new_dist = router._dist_node[v] + router.weights[c]
        if new_dist >= router._dist_node[t]:
            continue
        if not cdg.dependency_exists(used[v], c):
            continue
        needed = router.child_rebase_dependencies(t, c)
        if needed is None:
            continue
        # feed + re-based child deps interact; atomic commit checks
        # them sequentially and rolls back on any cycle
        if not router.try_use_dependencies_atomic([(used[v], c)] + needed):
            continue
        old = used[t]
        # revert this step's dependencies of the superseded channel
        for _, cq in needed:
            router.unuse_step_dependency(old, cq)
        used[t] = c
        router._dist_node[t] = new_dist
        router._dist_chan[c] = new_dist
        router.heap_push(c, new_dist)
        taken += 1
    return taken


@dataclass
class LegacyRoutingStep:
    """Outcome of one Algorithm-1 routing step (one destination).

    ``used_channel[v]`` is the search-orientation channel entering
    ``v``; node ``v`` forwards toward the destination on its reverse.
    The work tallies (heap traffic, edge relaxations) are kept as plain
    local integers during the search and flushed to :mod:`repro.obs`
    in one batch when observation is enabled.
    """

    dest: int
    used_channel: List[int]
    dist_node: np.ndarray
    fell_back: bool = False
    islands_resolved: int = 0
    shortcuts_taken: int = 0
    backtrack_rounds: int = 0
    heap_pops: int = 0
    stale_pops: int = 0
    relaxations: int = 0
    heap_pushes: int = 0


class LegacyNueLayerRouter:
    """Routing state of one virtual layer: CDG, escape paths, weights.

    Destinations of the layer are routed one
    :meth:`route_step` at a time; blocked dependencies and channel
    weights accumulate across steps, which is what makes later steps
    respect the restrictions and balance of earlier ones.
    """

    def __init__(
        self,
        net: Network,
        cdg: LegacyCompleteCDG,
        escape: LegacyEscapePaths,
        enable_backtracking: bool = True,
        enable_shortcuts: bool = True,
        layer_index: int = 0,
    ) -> None:
        self.net = net
        self.cdg = cdg
        self.escape = escape
        self.enable_backtracking = enable_backtracking
        self.enable_shortcuts = enable_shortcuts
        #: search-orientation channel weights (DFSSSP-style balancing);
        #: consistently search-side: entry c reflects the accumulated
        #: load of traffic channel rev(c).  The initial weight exceeds
        #: any load the updates can accumulate, so balancing only
        #: breaks ties among minimal paths — like DFSSSP, Nue prefers
        #: shortest routes and detours only around CDG restrictions.
        n_dests = len(net.terminals) or net.n_nodes
        base = float((len(net.terminals) or net.n_nodes) * n_dests + 1)
        self.weights = np.full(net.n_channels, base)
        self.layer_index = layer_index
        # parallel-channel bundles (redundant links) and each channel's
        # copy index within its bundle — used to rotate the preferred
        # copy per destination, OpenSM's port-group balancing trick
        self._bundles: List[List[int]] = []
        self._copy_index = np.zeros(net.n_channels, dtype=np.int64)
        seen = set()
        for c in range(net.n_channels):
            if c in seen:
                continue
            bundle = sorted(net.find_channels(
                net.channel_src[c], net.channel_dst[c]
            ))
            seen.update(bundle)
            if len(bundle) > 1:
                self._bundles.append(bundle)
                for i, ch in enumerate(bundle):
                    self._copy_index[ch] = i
        # transient per-step state; the heap is a lazy-deletion binary
        # heap of (distance, channel) — stale entries are skipped on
        # pop, which profiling showed beats an addressable heap in
        # CPython by a wide margin on these workloads
        self._dist_node: np.ndarray = np.empty(0)
        self._dist_chan: np.ndarray = np.empty(0)
        self._used: List[int] = []
        self._heap: List[Tuple[float, int]] = []
        self._step_marked: Set[Tuple[int, int]] = set()
        # per-step work tallies (flushed to repro.obs once per step)
        self._pops = 0
        self._stale = 0
        self._relax = 0
        self._pushes = 0

    # -- public API --------------------------------------------------------------

    def route_step(self, dest: int) -> LegacyRoutingStep:
        """Algorithm 1 for one destination, with impasse resolution.

        Never fails: when the local backtracking cannot reconnect all
        islands, the entire step falls back to the escape paths
        (Section 4.6.2, option one), which Definition 7 guarantees to
        work.
        """
        net = self.net
        self._dist_node = np.full(net.n_nodes, np.inf)
        self._dist_chan = np.full(net.n_channels, np.inf)
        self._used = [-1] * net.n_nodes
        self._heap = []
        self._step_marked = set()
        self._pops = self._stale = self._relax = self._pushes = 0
        step = LegacyRoutingStep(
            dest=dest,
            used_channel=self._used,
            dist_node=self._dist_node,
        )

        # rotate which parallel copy this destination prefers (a
        # transient sub-unit epsilon; hop-count dominance and the
        # >=1-unit balancing updates are never overpowered) — the
        # destination-hash port-group rotation redundant fabrics need
        bias = self._apply_copy_rotation(dest)
        self._seed(dest)
        self._run_main_loop()
        while self.enable_backtracking and self._unreached(dest):
            progressed, shortcuts = resolve_islands(self, dest)
            step.shortcuts_taken += shortcuts
            step.backtrack_rounds += 1
            if not progressed:
                break
            step.islands_resolved += 1
            self._run_main_loop()

        if self._unreached(dest):
            self._fall_back(dest)
            step.fell_back = True

        self._remove_copy_rotation(bias)
        self._update_weights(dest)
        step.heap_pops = self._pops
        step.stale_pops = self._stale
        step.relaxations = self._relax
        step.heap_pushes = self._pushes
        if obs.enabled():
            obs.count_many({
                "nue.route_steps": 1,
                "nue.heap_pops": step.heap_pops,
                "nue.stale_pops": step.stale_pops,
                "nue.relaxations": step.relaxations,
                "nue.heap_pushes": step.heap_pushes,
                "nue.backtracks": step.islands_resolved,
                "nue.backtrack_rounds": step.backtrack_rounds,
                "nue.shortcuts": step.shortcuts_taken,
                "nue.escape_fallbacks": int(step.fell_back),
            }, layer=self.layer_index)
        return step

    def _apply_copy_rotation(self, dest: int):
        """Bias each bundle's copies so copy ``(i - dest) mod m`` is
        cheapest for this destination; returns the bias to remove."""
        if not self._bundles:
            return None
        eps = 1.0 / 1024.0
        bias = np.zeros(self.net.n_channels)
        for bundle in self._bundles:
            m = len(bundle)
            for i, ch in enumerate(bundle):
                bias[ch] = eps * ((i - dest) % m)
        self.weights += bias
        return bias

    def _remove_copy_rotation(self, bias) -> None:
        if bias is not None:
            self.weights -= bias

    # -- initialisation ------------------------------------------------------------

    def _seed(self, dest: int) -> None:
        """Algorithm 1 lines 6–9: source channel(s) of the search.

        A terminal destination seeds its unique channel at distance 0;
        a switch destination acts through the paper's fake channel
        ``(∅, n_0)``, realised by seeding every outgoing channel with
        its own weight (fake dependencies are never recorded — traffic
        *arriving* at the destination has no successor dependency).
        """
        net = self.net
        self._dist_node[dest] = 0.0
        if net.is_terminal(dest):
            c0 = net.out_channels[dest][0]
            s = net.channel_dst[c0]
            self._dist_chan[c0] = 0.0
            self._dist_node[s] = 0.0
            self._used[s] = c0
            self.cdg.mark_vertex_used(c0)
            self.heap_push(c0, 0.0)
        else:
            for cq in sorted(net.out_channels[dest]):
                y = net.channel_dst[cq]
                alt = self.weights[cq]
                if alt < self._dist_node[y]:
                    self.cdg.mark_vertex_used(cq)
                    self._dist_node[y] = alt
                    self._dist_chan[cq] = alt
                    self._used[y] = cq
                    self.heap_push(cq, alt)

    # -- main loop -------------------------------------------------------------------

    def heap_push(self, chan: int, dist: float) -> None:
        """Enqueue (or re-enqueue with a better key) a channel."""
        heapq.heappush(self._heap, (dist, chan))
        self._pushes += 1

    def _run_main_loop(self) -> None:
        """Algorithm 1 lines 10–23 under the expansion discipline."""
        net = self.net
        cdg = self.cdg
        heap = self._heap
        dist_node = self._dist_node
        dist_chan = self._dist_chan
        used = self._used
        weights = self.weights
        dst_of = net.channel_dst
        # plain local tallies: cheap enough to run unconditionally and
        # folded into the per-step obs flush (see route_step)
        pops = stale = relax = pushes = 0
        while heap:
            d_cp, cp = heapq.heappop(heap)
            pops += 1
            if d_cp > dist_chan[cp]:
                stale += 1
                continue  # stale key: the channel was re-queued cheaper
            x = dst_of[cp]
            if used[x] != cp:
                stale += 1
                continue  # stale: x was re-wired to a better channel
            for cq in cdg.out_dependencies(cp):
                y = dst_of[cq]
                alt = d_cp + weights[cq]
                relax += 1
                if alt < dist_node[y]:
                    if used[y] < 0:
                        if self.try_use_dependency(cp, cq):
                            used[y] = cq
                            dist_node[y] = alt
                            dist_chan[cq] = alt
                            heapq.heappush(heap, (alt, cq))
                            pushes += 1
                        # else: edge became a blocked routing restriction
                    elif used[y] != cq:
                        # y is being *re-wired*.  Under plain Dijkstra a
                        # node's channel is final once it pops, but the
                        # backtracking of §4.6.2 can open shorter routes
                        # afterwards; re-wiring a reached node is the
                        # lazy form of the §4.6.3 shortcut and shares
                        # its enable flag.  Any dependency already
                        # recorded toward y's current tree children must
                        # be re-validated on the new in-channel, exactly
                        # as a backtracking re-base would.
                        if not self.enable_shortcuts:
                            continue
                        needed = self.child_rebase_dependencies(y, cq)
                        if needed is None:
                            continue
                        old = used[y]
                        if self.try_use_dependencies_atomic(
                            [(cp, cq)] + needed
                        ):
                            for _, child in needed:
                                self.unuse_step_dependency(old, child)
                            used[y] = cq
                            dist_node[y] = alt
                            dist_chan[cq] = alt
                            heapq.heappush(heap, (alt, cq))
                            pushes += 1
                    else:
                        # same channel, better distance (new shorter way
                        # to feed it is impossible — cq's dependency from
                        # cp is what improved); just update the keys
                        if self.try_use_dependency(cp, cq):
                            dist_node[y] = alt
                            dist_chan[cq] = alt
                            heapq.heappush(heap, (alt, cq))
                            pushes += 1
        self._pops += pops
        self._stale += stale
        self._relax += relax
        self._pushes += pushes

    def child_rebase_dependencies(
        self, node: int, alt: int
    ) -> Optional[List[Tuple[int, int]]]:
        """Dependencies ``(alt, out)`` needed to re-base ``node`` onto
        in-channel ``alt`` — one per current tree child.

        Returns None when a child sits behind a 180-degree turn from
        ``alt``, in which case the re-base is impossible.
        """
        net = self.net
        cdg = self.cdg
        needed: List[Tuple[int, int]] = []
        for cq in net.out_channels[node]:
            if self._used[net.channel_dst[cq]] == cq:
                if not cdg.dependency_exists(alt, cq):
                    return None
                needed.append((alt, cq))
        return needed

    def try_use_dependency(self, cp: int, cq: int) -> bool:
        """Cycle-checked edge use with per-step bookkeeping.

        Wraps :meth:`LegacyCompleteCDG.try_use_edge`, remembering which edges
        *this* step marked so the shortcut optimisation can revert
        exactly those (Section 4.6.3) without touching dependencies
        owned by earlier destinations.
        """
        was_used = self.cdg.edge_state(cp, cq) == 1
        ok = self.cdg.try_use_edge(cp, cq)
        if ok and not was_used:
            self._step_marked.add((cp, cq))
        return ok

    def try_use_dependencies_atomic(
        self, edges: Sequence[Tuple[int, int]]
    ) -> bool:
        """Mark a set of edges used, all or nothing.

        Edges are checked sequentially (each cycle check sees the ones
        already added — they can interact); on failure everything this
        call added is reverted, including the fresh blocked marker, so
        the CDG returns to its exact prior state.
        """
        added: List[Tuple[int, int]] = []
        for cp, cq in edges:
            before = self.cdg.edge_state(cp, cq)
            if self.try_use_dependency(cp, cq):
                if before != 1:
                    added.append((cp, cq))
            else:
                for a, b in reversed(added):
                    self.cdg.unuse_edge(a, b)
                    self._step_marked.discard((a, b))
                if before == 0:
                    # try_use_edge just blocked it against a state we
                    # are rolling back — restore exactly
                    self.cdg.unblock_edge(cp, cq)
                return False
        return True

    def unuse_step_dependency(self, cp: int, cq: int) -> bool:
        """Revert an edge if (and only if) this step marked it."""
        if (cp, cq) in self._step_marked:
            self.cdg.unuse_edge(cp, cq)
            self._step_marked.discard((cp, cq))
            return True
        return False

    # -- impasse handling ----------------------------------------------------------

    def _unreached(self, dest: int) -> List[int]:
        return [
            v for v in range(self.net.n_nodes)
            if v != dest and self._used[v] < 0
        ]

    def _fall_back(self, dest: int) -> None:
        """Escape-path fallback for the entire routing step.

        Partial fallbacks would break the destination-based property
        (paper Section 4.6.2), so *every* node's used channel becomes
        its escape-path channel.  The corresponding dependencies were
        marked used when the layer was initialised.
        """
        chans = self.escape.fallback_channels(dest)
        for v in range(self.net.n_nodes):
            self._used[v] = chans[v] if v != dest else -1

    # -- balancing -------------------------------------------------------------------

    def _update_weights(self, dest: int) -> None:
        """DFSSSP-style positive weight update after a routing step.

        Adds, to every channel of the step's forwarding forest, the
        number of terminal routes crossing it (computed by subtree
        accumulation in O(|N|)).
        """
        net = self.net
        sources = net.terminals or list(range(net.n_nodes))
        total = np.zeros(net.n_nodes, dtype=np.int64)
        for s in sources:
            if s != dest:
                total[s] += 1
        # depth over the used-channel forest (distances can be
        # non-monotone after backtracking, so follow the tree itself)
        used = self._used
        depth = np.full(net.n_nodes, -1, dtype=np.int64)
        depth[dest] = 0
        for v in range(net.n_nodes):
            if depth[v] >= 0 or used[v] < 0:
                continue
            chain = []
            u = v
            while depth[u] < 0 and used[u] >= 0:
                chain.append(u)
                u = net.channel_src[used[u]]
            base = depth[u]
            if base < 0:
                continue
            for i, w in enumerate(reversed(chain), start=1):
                depth[w] = base + i
        order = np.argsort(-depth, kind="stable")
        for v in order:
            v = int(v)
            c = used[v]
            if c < 0 or v == dest or depth[v] <= 0:
                continue
            self.weights[c] += total[v]
            total[net.channel_src[c]] += total[v]
        # weights grow monotonically and stay positive (Lemma 1 relies
        # on strictly positive weights)


# -- reference harness ---------------------------------------------------------


def legacy_route_layer(net, subset, layer_idx, single_layer):
    """Serial pre-CSR equivalent of :func:`repro.core.nue._route_layer`.

    Returns the layer's next-channel column block (one column per
    member of ``subset``), built exactly as the frozen implementation
    built it.
    """
    from repro.core.root import select_root

    root = select_root(net, subset, all_dests=bool(single_layer))
    cdg = LegacyCompleteCDG(net)
    escape = LegacyEscapePaths(net, cdg, root, subset)
    router = LegacyNueLayerRouter(net, cdg, escape, layer_index=layer_idx)
    block = np.full((net.n_nodes, len(subset)), -1, dtype=np.int32)
    rev = net.channel_reverse
    for col, d in enumerate(subset):
        step = router.route_step(d)
        for v in range(net.n_nodes):
            c = step.used_channel[v]
            block[v, col] = rev[c] if c >= 0 else -1
        block[d, col] = -1
    cdg.assert_acyclic()
    return block


def legacy_nue_route(net, max_vls=1, dests=None, seed=None):
    """Serial pre-CSR Nue: ``(next_channel, vl, n_vls)`` tables.

    Mirrors ``NueRouting._route`` (kway partitioner, default config)
    with the frozen layer machinery, drawing the per-layer seed stream
    identically so partitions match the production algorithm.
    """
    from repro.partition import make_partitioner, partition_destinations
    from repro.utils.prng import make_rng, spawn_seed

    if dests is None:
        dests = net.terminals or list(range(net.n_nodes))
    dests = list(dests)
    rng = make_rng(seed)
    k = min(max_vls, len(dests))
    parts = partition_destinations(
        net, dests, k, make_partitioner("kway"), spawn_seed(rng)
    )
    nxt = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    vl = np.zeros((net.n_nodes, len(dests)), dtype=np.int8)
    dest_col = {d: j for j, d in enumerate(dests)}
    for layer_idx, subset in enumerate(parts):
        subset = list(subset)
        spawn_seed(rng)  # keep the seed stream aligned with NueRouting
        block = legacy_route_layer(
            net, subset, layer_idx, single_layer=len(parts) == 1
        )
        cols = [dest_col[d] for d in subset]
        nxt[:, cols] = block
        vl[:, cols] = layer_idx
    return nxt, vl, len(parts)
