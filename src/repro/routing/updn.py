"""Up*/Down* routing (Schroeder et al., Autonet) and its Down*/Up* dual.

A BFS tree from a root orders the nodes by ``(level, id)``; a hop is
*up* when it decreases that order and *down* when it increases it.
Legal paths take all their up hops before any down hop, which provably
leaves the induced CDG acyclic (up→down turns only), so one virtual
layer always suffices — at the price of concentrating traffic around
the root (the load imbalance the paper's Figs. 1 and 10 show).

Per destination the forwarding tree is built in two passes:

1. grow the *pure-down* region D (nodes whose entire path to the
   destination descends) backwards from the destination;
2. grow the rest via *up* hops into D or already-reached nodes.

Both passes are min-hop with MinHop-style port-load tie-breaking.
The root defaults to the node with the smallest BFS eccentricity
(lowest id among ties), mirroring OpenSM's auto-selected spanning-tree
root.

Parallel decomposition (PR 5): the two tree passes are independent per
destination while the port-load tie-breaking is independent per
*source node* (a node selects among, and increments, only its own
ports' counters — see :func:`repro.routing.sssp.select_balanced_rows`
for the bit-identity argument).  The route therefore runs as a
destination-sharded tree phase followed by a node-sharded selection
phase on the engine's shared-memory fabric, exact for any worker
count.  The ``(level, id)`` order tuple is flattened into one integer
``okey = level * n_nodes + id`` (a strictly order-preserving bijection
since ``id < n_nodes``), so hop direction is a single comparison.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import resolve_workers, run_layer_tasks, shard_destinations
from repro.network.graph import Network
from repro.obs import core as obs
from repro.routing.base import RoutingAlgorithm, RoutingError, RoutingResult
from repro.routing.sssp import select_balanced_rows
from repro.utils.prng import SeedLike

__all__ = ["UpDownConfig", "UpDownRouting", "DownUpRouting",
           "pick_tree_root"]


@dataclass(frozen=True)
class UpDownConfig:
    """Config of ``updn``/``dnup``: the (optional) explicit tree root.

    ``root=None`` auto-selects the minimum-eccentricity switch
    (:func:`pick_tree_root`), mirroring OpenSM.
    """

    root: Optional[int] = None

    def validate(self) -> None:
        if self.root is not None and (not isinstance(self.root, int)
                                      or self.root < 0):
            raise ValueError(
                f"updn root must be a non-negative node id, "
                f"got {self.root!r}")


def pick_tree_root(net: Network) -> int:
    """Switch with minimal eccentricity (center of the switch graph)."""
    best, best_key = 0, (np.inf, np.inf, 0)
    for s in net.switches or range(net.n_nodes):
        levels = net.bfs_levels(s)
        ecc = max(levels)
        total = sum(levels)
        key = (ecc, total, s)
        if key < best_key:
            best_key, best = key, s
    return best


def _tree_arrays(
    net: Network,
    dest: int,
    okey: Sequence[int],
    down_first: bool,
    name: str,
) -> Tuple[List[int], List[bool], int]:
    """Hop field + pure-down region for one destination (no ports yet).

    Returns ``(hops, in_down, d_switch)``; raises :class:`RoutingError`
    when a switch has no legal up*/down* path.  A hop ``v -> u`` is
    *down* exactly when ``(okey[u] > okey[v]) != down_first`` (keys are
    distinct, so the inverted rule is a strict ``<``).
    """
    n = net.n_nodes
    hops = [-1] * n
    # per-node switch predecessors, precomputed once on the CSR core
    # (in in_channel order, multiplicity preserved)
    switch_in = net.csr.switch_in_sources

    # The phase rule applies to the switch graph only: terminal hops
    # can never sit on a CDG cycle (Def. 6 excludes the only turn
    # through a terminal), so injection/ejection hops are phase-neutral
    # and handled structurally by the caller.
    d_switch = dest if net.is_switch(dest) else net.terminal_switch(dest)
    hops[d_switch] = 0

    # Pass 1: pure-down region D (traffic descends all the way to the
    # destination switch) — uniform BFS over down hops.
    down_nodes = [d_switch]
    frontier = [d_switch]
    while frontier:
        nxt_frontier: List[int] = []
        for u in frontier:
            oku = okey[u]
            hu1 = hops[u] + 1
            for v in switch_in[u]:
                if hops[v] >= 0:
                    continue
                if not ((oku > okey[v]) != down_first):
                    continue  # hop v -> u is not a down hop
                hops[v] = hu1
                nxt_frontier.append(v)
                down_nodes.append(v)
        frontier = nxt_frontier

    # Pass 2: everyone else joins via up hops (up* before down*).
    # Multi-source shortest path seeded by all of D at their depths
    # (a lazy-deletion heap, because the seeds sit at different hop
    # counts; stale pops only re-offer dominated distances, and the
    # later port-selection pass reads final hop counts only).
    # Nodes of D are frozen: lowering a pure-down node's hop count
    # through a mixed path would strand its port selection, which
    # must find a *descending* parent at hops-1.
    in_down = [False] * n
    for u in down_nodes:
        in_down[u] = True
    heap = [(hops[u], u) for u in down_nodes]
    heapq.heapify(heap)
    while heap:
        hu, u = heapq.heappop(heap)
        if hu > hops[u]:
            continue  # stale key: u was re-queued cheaper
        oku = okey[u]
        for v in switch_in[u]:
            if in_down[v]:
                continue
            if (oku > okey[v]) != down_first:
                continue  # only up hops may extend a path backwards
            alt = hu + 1
            if hops[v] < 0 or alt < hops[v]:
                hops[v] = alt
                heapq.heappush(heap, (alt, v))

    unreached = [s for s in net.switches if hops[s] < 0]
    if unreached:
        raise RoutingError(
            f"{name} cannot route {net.name}: no legal path from "
            f"{net.node_names[unreached[0]]} (+{len(unreached) - 1} "
            f"more) to {net.node_names[d_switch]}"
        )
    return hops, in_down, d_switch


def _trees_task(
    ctx: Tuple[Network, List[int], bool, str], dest_shard: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Worker: tree arrays for one destination shard (rows = dests)."""
    net, okey, down_first, name = ctx
    hops_rows: List[List[int]] = []
    down_rows: List[List[bool]] = []
    d_switches: List[int] = []
    for d in dest_shard:
        hops, in_down, d_switch = _tree_arrays(net, d, okey, down_first,
                                               name)
        hops_rows.append(hops)
        down_rows.append(in_down)
        d_switches.append(d_switch)
    return (np.array(hops_rows, dtype=np.int32),
            np.array(down_rows, dtype=bool), d_switches)


def _select_task(
    ctx: Tuple[Network, List[int], bool, np.ndarray, np.ndarray, List[int]],
    row_shard: Sequence[int],
) -> np.ndarray:
    """Worker: phase-constrained port selection for one switch shard."""
    net, okey, down_first, hops_mat, down_mat, d_switches = ctx
    return select_balanced_rows(net, row_shard, hops_mat, d_switches,
                                down_mat=down_mat, okey=okey,
                                down_first=down_first)


class UpDownRouting(RoutingAlgorithm):
    """Classic Up*/Down*; deadlock-free with a single virtual layer."""

    name = "updn"
    _down_first = False

    def __init__(self, max_vls: int = 8, root: Optional[int] = None,
                 workers: Optional[int] = None) -> None:
        super().__init__(max_vls, workers=workers)
        self.root = root

    def cache_config(self):
        return (self.max_vls, self.root)

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        with obs.span(f"{self.name}.pick_root"):
            root = (self.root if self.root is not None
                    else pick_tree_root(net))
        n = net.n_nodes
        levels = net.bfs_levels(root)
        okey = [levels[v] * n + v for v in range(n)]
        nxt, vl = self._empty_tables(net, dests)
        workers = resolve_workers(self.workers, len(dests))

        with obs.span(f"{self.name}.dest_trees", dests=len(dests)):
            shards = shard_destinations(dests, workers)
            parts = run_layer_tasks(
                _trees_task, (net, okey, self._down_first, self.name),
                shards, workers=workers,
            )
            hops_mat = np.concatenate([p[0] for p in parts], axis=0)
            down_mat = np.concatenate([p[1] for p in parts], axis=0)
            d_switches = [s for p in parts for s in p[2]]

        # Port selection: minimal under the phase constraint, balanced
        # per source node (switch rows only — terminals are plumbed
        # structurally below).
        with obs.span(f"{self.name}.port_select", dests=len(dests)):
            rows = list(net.switches)
            row_shards = shard_destinations(rows, workers)
            blocks = run_layer_tasks(
                _select_task,
                (net, okey, self._down_first, hops_mat, down_mat,
                 d_switches),
                row_shards, workers=workers,
            )
            for row_shard, block in zip(row_shards, blocks):
                nxt[row_shard, :] = block

        # Terminal plumbing: injection everywhere, ejection at the
        # destination switch, nothing at the destination itself.
        injection = net.csr.injection_channel
        for t in net.terminals:
            nxt[t, :] = injection[t]
        for j, d in enumerate(dests):
            d_switch = d_switches[j]
            if d != d_switch:
                nxt[d_switch, j] = net.csr.channels_between(d_switch, d)[0]
            nxt[d, j] = -1

        res = RoutingResult(
            net=net,
            dests=dests,
            next_channel=nxt,
            vl=vl,
            n_vls=1,
            algorithm=self.name,
        )
        res.stats["root"] = net.node_names[root]
        return res


class DownUpRouting(UpDownRouting):
    """Down*/Up* — OpenSM's ``dnup`` engine (inverted direction rule)."""

    name = "dnup"
    _down_first = True
