"""Dimension-order routing (DOR) for generated tori and meshes.

Plain DOR corrects coordinates dimension by dimension, taking the
shorter way around each ring (ties go to the positive direction).  On a
mesh this is deadlock-free; on a torus the wrap links close ring cycles
in the CDG — the "required VCs" metric of Fig. 1b exposes that, and
:mod:`repro.routing.torus2qos` fixes it with dateline virtual-layer
transitions.

DOR has no fault tolerance: a missing switch or link on the
dimension-ordered path raises :class:`RoutingError` (OpenSM's ``dor``
engine behaves the same on degraded tori).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import (
    resolve_workers,
    run_layer_tasks,
    shard_destinations,
    tablestore,
)
from repro.network.graph import Network
from repro.network.topologies.torus import torus_coordinates
from repro.routing.base import (
    NotApplicableError,
    RoutingAlgorithm,
    RoutingError,
    RoutingResult,
)
from repro.utils.prng import SeedLike

__all__ = ["DORRouting", "dor_direction", "TorusGeometry", "DORConfig"]


@dataclass(frozen=True)
class DORConfig:
    """``dor`` takes no extra configuration."""


def dor_direction(
    size: int, here: int, there: int, prefer_positive: bool = True
) -> int:
    """Ring direction (+1/-1) for the shorter way from ``here`` to ``there``."""
    fwd = (there - here) % size
    bwd = (here - there) % size
    if fwd == bwd:
        return 1 if prefer_positive else -1
    return 1 if fwd < bwd else -1


class TorusGeometry:
    """Coordinate bookkeeping shared by DOR and Torus-2QoS.

    Wraps a (possibly degraded) generated torus/mesh: coordinates per
    surviving switch, the coordinate grid, and which grid positions /
    grid links are missing (failed).
    """

    def __init__(self, net: Network) -> None:
        try:
            self.dims, coords = torus_coordinates(net)
        except ValueError as exc:
            raise NotApplicableError(str(exc)) from exc
        info = net.meta["topology"]
        self.wraparound = info["type"] == "torus"  # type: ignore[index]
        self.net = net
        self.coord_of: Dict[int, Tuple[int, ...]] = dict(coords)
        self.switch_at: Dict[Tuple[int, ...], int] = {
            c: s for s, c in coords.items()
        }
        self.n_dims = len(self.dims)

    def position_exists(self, coord: Tuple[int, ...]) -> bool:
        """True when the switch at ``coord`` survived."""
        return coord in self.switch_at

    def neighbor_coord(
        self, coord: Tuple[int, ...], dim: int, direction: int
    ) -> Optional[Tuple[int, ...]]:
        """Adjacent grid coordinate, or None when off a mesh edge."""
        size = self.dims[dim]
        nxt = list(coord)
        if self.wraparound:
            nxt[dim] = (coord[dim] + direction) % size
        else:
            nxt[dim] = coord[dim] + direction
            if not (0 <= nxt[dim] < size):
                return None
        return tuple(nxt)

    def step_channel(
        self, switch: int, dim: int, direction: int, select: int = 0
    ) -> int:
        """Channel id for one hop from ``switch`` along ``dim``.

        ``select`` spreads traffic over parallel (redundant) channels.
        Raises :class:`RoutingError` when the neighbor or link is gone.
        """
        coord = self.coord_of[switch]
        nxt = self.neighbor_coord(coord, dim, direction)
        if nxt is None or nxt not in self.switch_at:
            raise RoutingError(
                f"missing switch next to {self.net.node_names[switch]} "
                f"in dim {dim} direction {direction:+d}"
            )
        channels = self.net.csr.channels_between(switch, self.switch_at[nxt])
        if not channels:
            raise RoutingError(
                f"missing link from {self.net.node_names[switch]} "
                f"in dim {dim} direction {direction:+d}"
            )
        return channels[select % len(channels)]


def _dor_columns(
    ctx: Tuple[Network, Optional["tablestore.SegmentHandle"]],
    shard: Tuple[Sequence[int], int],
) -> Optional[np.ndarray]:
    """Worker: DOR forwarding columns for one destination shard.

    Each column is a pure function of ``(net, dest)`` — no state is
    shared across destinations — so shard boundaries cannot change the
    output and the merged table is bit-identical to the serial sweep.
    The block is written straight into the parent's shm table segment
    when one exists (returning ``None``); without a handle the array
    itself returns and the parent merges it.
    """
    net, handle = ctx
    dest_shard, col0 = shard
    geom = TorusGeometry(net)
    block = np.full((net.n_nodes, len(dest_shard)), -1, dtype=np.int32)
    for jj, d in enumerate(dest_shard):
        d_switch = d if net.is_switch(d) else net.terminal_switch(d)
        d_coord = geom.coord_of[d_switch]
        for node in range(net.n_nodes):
            if node == d:
                continue
            if net.is_terminal(node):
                block[node, jj] = net.csr.injection_channel[node]
                continue
            if node == d_switch:
                # eject to the terminal (or arrived, if dest is a switch)
                chans = net.csr.channels_between(node, d)
                block[node, jj] = chans[0] if chans else -1
                continue
            coord = geom.coord_of[node]
            dim = next(
                i for i in range(geom.n_dims) if coord[i] != d_coord[i]
            )
            if geom.wraparound:
                direction = dor_direction(
                    geom.dims[dim], coord[dim], d_coord[dim]
                )
            else:  # a mesh only ever walks straight at the target
                direction = 1 if d_coord[dim] > coord[dim] else -1
            block[node, jj] = geom.step_channel(
                node, dim, direction, select=d
            )
    cols = list(range(col0, col0 + len(dest_shard)))
    if tablestore.write_columns(handle, cols, block):
        return None  # landed in shm; VL stays at the zero-fill
    return block


class DORRouting(RoutingAlgorithm):
    """Deterministic dimension-order routing on tori/meshes."""

    name = "dor"

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        TorusGeometry(net)  # applicability check in the caller process
        workers = resolve_workers(self.workers, len(dests))
        raw_shards = shard_destinations(dests, workers)
        # column-offset shards so workers can scatter straight into the
        # request's table segment (handle None = no segment allocated)
        table = tablestore.create_table(net.n_nodes, len(dests), workers)
        shards: List[Tuple[Sequence[int], int]] = []
        col = 0
        for shard in raw_shards:
            shards.append((shard, col))
            col += len(shard)
        blocks = run_layer_tasks(_dor_columns, (net, table.handle),
                                 shards, workers=workers)
        for (shard, col0), block in zip(shards, blocks):
            if block is not None:  # not written in place: merge here
                table.next_channel[:, col0:col0 + block.shape[1]] = block
        result = RoutingResult(
            net=net,
            dests=dests,
            next_channel=table.next_channel,
            vl=table.vl,
            n_vls=1,
            algorithm=self.name,
        )
        result.attach_table(table)
        return result
