"""Fat-tree routing (Zahavi et al.) for generated k-ary n-trees.

The classic destination-based fat-tree scheme: the *down* path from any
common ancestor to a destination is unique in a k-ary n-tree, and the
*up* path spreads destinations over parallel up-links with the d-mod-k
rule (up-digit at level ``l`` = digit ``l`` of the destination index in
base ``k``), which makes shift-pattern all-to-alls contention-free on
non-oversubscribed trees.

Routes climb only as far as the nearest common ancestor level.  The
scheme is inherently cycle-free (up*/down* on a tree) so a single
virtual layer suffices, matching the hatched 1-VC bars of Fig. 10.
Applies only to networks produced by
:func:`repro.network.topologies.k_ary_n_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import resolve_workers, run_layer_tasks, shard_destinations
from repro.network.graph import Network
from repro.routing.base import (
    NotApplicableError,
    RoutingAlgorithm,
    RoutingResult,
)
from repro.utils.prng import SeedLike

__all__ = ["FatTreeRouting", "FatTreeConfig"]


@dataclass(frozen=True)
class FatTreeConfig:
    """``ftree`` takes no extra configuration."""


def _tree_info(net: Network) -> Tuple[int, int, Dict[int, Tuple[int, List[int]]]]:
    info = net.meta.get("topology")
    if not isinstance(info, dict) or info.get("type") != "k-ary-n-tree":
        raise NotApplicableError(
            f"{net.name} is not a generated k-ary n-tree"
        )
    k, n = int(info["k"]), int(info["n"])
    by_name = {name: i for i, name in enumerate(net.node_names)}
    position: Dict[int, Tuple[int, List[int]]] = {}
    for level, names in enumerate(info["levels"]):  # type: ignore[arg-type]
        for name in names:
            word = [int(ch) for ch in name.split("_", 1)[1]]
            position[by_name[name]] = (level, word)
    return k, n, position


def _ftree_columns(net: Network, dest_shard: Sequence[int]) -> np.ndarray:
    """Worker: d-mod-k forwarding columns for one destination shard.

    Pure per destination (the tree position map is re-derived from the
    network's ``meta``), so sharding is bit-identical to serial.
    """
    k, n, position = _tree_info(net)
    terminals = net.terminals
    first_terminal = min(terminals) if terminals else 0
    block = np.full((net.n_nodes, len(dest_shard)), -1, dtype=np.int32)
    for jj, d in enumerate(dest_shard):
        d_switch = d if net.is_switch(d) else net.terminal_switch(d)
        d_level, d_word = position[d_switch]
        # digits steering the d-mod-k up-path: the destination's
        # terminal sequence number (terminals have consecutive ids)
        d_index = (d - first_terminal if net.is_terminal(d) else d) % (k**n)
        up_digits = [(d_index // (k**lvl)) % k for lvl in range(n)]
        for node in range(net.n_nodes):
            if node == d:
                continue
            if net.is_terminal(node):
                block[node, jj] = net.csr.injection_channel[node]
                continue
            level, word = position[node]
            if node == d_switch:
                chans = net.csr.channels_between(node, d)
                block[node, jj] = chans[0] if chans else -1
                continue
            # descend when the destination leaf is below this switch:
            # words must agree on digits >= level (the part fixed on
            # the way down), and the level must be above the leaf's.
            if level > d_level and word[level:] == d_word[level:]:
                # go down: fix digit (level-1) toward the dest word
                target = list(word)
                target[level - 1] = d_word[level - 1]
                block[node, jj] = FatTreeRouting._link_to(
                    net, position, node, level - 1, target
                )
            else:
                # go up: free digit = level; d-mod-k selects it
                target = list(word)
                target[level] = up_digits[level]
                block[node, jj] = FatTreeRouting._link_to(
                    net, position, node, level + 1, target
                )
    return block


class FatTreeRouting(RoutingAlgorithm):
    """d-mod-k up / unique down routing on k-ary n-trees."""

    name = "ftree"

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        _tree_info(net)  # applicability check in the caller process
        nxt, vl = self._empty_tables(net, dests)
        workers = resolve_workers(self.workers, len(dests))
        shards = shard_destinations(dests, workers)
        blocks = run_layer_tasks(_ftree_columns, net, shards,
                                 workers=workers)
        col = 0
        for block in blocks:
            nxt[:, col:col + block.shape[1]] = block
            col += block.shape[1]
        return RoutingResult(
            net=net,
            dests=dests,
            next_channel=nxt,
            vl=vl,
            n_vls=1,
            algorithm=self.name,
        )

    @staticmethod
    def _link_to(
        net: Network,
        position: Dict[int, Tuple[int, List[int]]],
        node: int,
        level: int,
        word: List[int],
    ) -> int:
        for c in net.out_channels[node]:
            peer = net.channel_dst[c]
            if net.is_terminal(peer):
                continue
            plevel, pword = position[peer]
            if plevel == level and pword == word:
                return c
        raise NotApplicableError(
            f"missing tree link from {net.node_names[node]} to level "
            f"{level} word {''.join(map(str, word))} (degraded tree?)"
        )
