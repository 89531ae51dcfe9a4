"""LASH — LAyered SHortest path routing (Skeie et al., IPDPS'02).

Minimal paths between every switch pair, each pair assigned to a
virtual layer such that every layer's induced CDG is acyclic
(first-fit greedy, the published heuristic).  All terminals of a switch
pair share that pair's layer, matching InfiniBand's SL granularity.

LASH needs however many layers the greedy assignment ends up with; when
that exceeds the VC budget the algorithm is inapplicable
(:class:`RoutingError`), which is the failure mode Fig. 11 shows for
large tori.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cdg.complete_cdg import CompleteCDG
from repro.network.graph import Network
from repro.obs import core as obs
from repro.routing.base import RoutingAlgorithm, RoutingError, RoutingResult
from repro.routing.layering import path_dependencies
from repro.routing.sssp import bfs_tree_balanced
from repro.utils.prng import SeedLike

__all__ = ["LASHRouting", "LASHConfig", "GreedyLayerAssigner"]


@dataclass(frozen=True)
class LASHConfig:
    """``lash`` takes no extra configuration."""


class GreedyLayerAssigner:
    """First-fit layer assignment with exact acyclicity what-ifs (LASH).

    Each layer is backed by a :class:`CompleteCDG`, whose incremental
    machinery answers "does this path fit?" in near-linear time; failed
    insertions are rolled back exactly (including the blocked marker).
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.layers: List[CompleteCDG] = []

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def _fits(self, layer: CompleteCDG, deps: List[Tuple[int, int]]) -> bool:
        added: List[Tuple[int, int]] = []
        for cp, cq in deps:
            state_before = layer.edge_state(cp, cq)
            if layer.try_use_edge(cp, cq):
                if state_before != 1:  # newly used: remember for rollback
                    added.append((cp, cq))
            else:
                for a, b in reversed(added):
                    layer.unuse_edge(a, b)
                layer.unblock_edge(cp, cq)
                return False
        return True

    def assign(self, path: Sequence[int]) -> int:
        """Place ``path`` into a layer; returns the layer index.

        Opens a new layer when no existing one fits (a single path
        always fits an empty layer because its own dependency chain is
        acyclic — paths are cycle-free).
        """
        deps = path_dependencies(self.net, path)
        for i, layer in enumerate(self.layers):
            if self._fits(layer, deps):
                return i
        layer = CompleteCDG(self.net)
        self.layers.append(layer)
        if not self._fits(layer, deps):
            raise AssertionError("cycle-free path must fit an empty layer")
        return len(self.layers) - 1


class LASHRouting(RoutingAlgorithm):
    """Layered shortest-path routing over switch pairs."""

    name = "lash"

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        nxt, vl = self._empty_tables(net, dests)
        port_load = np.zeros(net.n_channels, dtype=np.int64)

        # one balanced min-hop tree per destination *switch* (all its
        # terminals share it — LASH routes switch pairs)
        dest_switches: List[int] = []
        for d in dests:
            ds = d if net.is_switch(d) else net.terminal_switch(d)
            if ds not in dest_switches:
                dest_switches.append(ds)
        with obs.span("lash.trees", dests=len(dest_switches)):
            trees: Dict[int, np.ndarray] = {
                ds: bfs_tree_balanced(net, ds, port_load)
                for ds in dest_switches
            }

        # layer per (src_switch, dest_switch), assigned greedily in
        # increasing path length (LASH processes shortest pairs first)
        assigner = GreedyLayerAssigner(net)
        pair_layer: Dict[Tuple[int, int], int] = {}
        switches = net.switches
        jobs: List[Tuple[int, int, List[int]]] = []
        for ds in dest_switches:
            fwd = trees[ds]
            for s in switches:
                if s == ds:
                    continue
                path = self._tree_path(net, fwd, s, ds)
                jobs.append((s, ds, path))
        jobs.sort(key=lambda job: (len(job[2]), job[0], job[1]))
        with obs.span("lash.assign", pairs=len(jobs)):
            for s, ds, path in jobs:
                pair_layer[(s, ds)] = assigner.assign(path)

        n_layers = max(assigner.n_layers, 1)
        if obs.enabled():
            obs.count_many({
                "lash.pairs": len(jobs),
                "lash.layers": n_layers,
            })
        if n_layers > self.max_vls:
            raise RoutingError(
                f"LASH needs {n_layers} virtual layers on {net.name}, "
                f"budget is {self.max_vls}"
            )

        for j, d in enumerate(dests):
            ds = d if net.is_switch(d) else net.terminal_switch(d)
            fwd = trees[ds]
            nxt[:, j] = fwd
            for t in net.terminals:
                nxt[t, j] = net.csr.injection_channel[t]
            if d != ds:
                chans = net.csr.channels_between(ds, d)
                nxt[ds, j] = chans[0]
            nxt[d, j] = -1
            for s in switches:
                if s != ds:
                    vl[s, j] = pair_layer[(s, ds)]
            for t in net.terminals:
                ts = net.terminal_switch(t)
                if ts != ds:
                    vl[t, j] = pair_layer[(ts, ds)]

        result = RoutingResult(
            net=net,
            dests=dests,
            next_channel=nxt,
            vl=vl,
            n_vls=n_layers,
            algorithm=self.name,
        )
        result.stats["layers"] = n_layers
        return result

    @staticmethod
    def _tree_path(
        net: Network, fwd: np.ndarray, src: int, dest: int
    ) -> List[int]:
        path: List[int] = []
        node = src
        while node != dest:
            c = int(fwd[node])
            if c < 0:
                raise RoutingError(
                    f"min-hop tree has no route {src} -> {dest}"
                )
            path.append(c)
            node = net.channel_dst[c]
        return path
