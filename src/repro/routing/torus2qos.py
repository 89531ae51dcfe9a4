"""Torus-2QoS: topology-aware, fault-tolerant torus routing (paper §5).

Reimplements the behaviour of OpenSM's ``torus-2QoS`` engine that the
paper evaluates: dimension-order routing with

* **dateline virtual-layer transition** (Dally's two-VC ring scheme):
  hops taken after the packet has passed ring position 0 of the current
  dimension use VL 1, everything else VL 0 — two data VLs total;
* **single-fault ring bypass**: when the dimension-ordered arc toward
  the destination is broken by a failed switch/link, the packet takes
  the other way around the ring (consistently per ``(node, dest)``, so
  the routing stays destination-based);
* **hard failure on a double fault**: two failures in one torus ring
  defeat the scheme — the paper calls this out as Torus-2QoS's limit
  ("will fail if a second switch failure occurs in the same torus
  ring") — and we raise :class:`RoutingError` exactly then.

Because the virtual layer changes *along* a path (InfiniBand realises
this with per-port SL2VL tables), :class:`TorusQoSResult` overrides
``path_vls`` to expose per-hop VLs; the deadlock checker and the flit
simulator both consume that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import resolve_workers, run_layer_tasks, shard_destinations
from repro.network.graph import Network
from repro.routing.base import (
    NotApplicableError,
    RoutingAlgorithm,
    RoutingError,
    RoutingResult,
)
from repro.routing.dor import TorusGeometry, dor_direction
from repro.routing.walk import switch_channel_mask
from repro.utils.prng import SeedLike

__all__ = ["Torus2QoSRouting", "TorusQoSResult", "Torus2QoSConfig"]


@dataclass(frozen=True)
class Torus2QoSConfig:
    """``torus-2qos`` takes no extra configuration."""


def _arc_passable(
    geom: TorusGeometry,
    coord: Tuple[int, ...],
    dim: int,
    direction: int,
    target_pos: int,
) -> bool:
    """Can a packet walk ``coord`` -> target along ``direction``?"""
    cur = coord
    for _ in range(geom.dims[dim]):
        if cur[dim] == target_pos:
            return True
        nxt = geom.neighbor_coord(cur, dim, direction)
        if nxt is None or nxt not in geom.switch_at:
            return False
        if not geom.net.csr.channels_between(
            geom.switch_at[cur], geom.switch_at[nxt]
        ):
            return False
        cur = nxt
    return cur[dim] == target_pos


def _choose_direction(
    geom: TorusGeometry,
    coord: Tuple[int, ...],
    dim: int,
    target_pos: int,
) -> Optional[int]:
    """Shortest passable ring direction (DOR preference first);
    None when the arc is blocked both ways (dead target cell)."""
    preferred = dor_direction(geom.dims[dim], coord[dim], target_pos)
    for direction in (preferred, -preferred):
        if _arc_passable(geom, coord, dim, direction, target_pos):
            return direction
    return None


def _detour_hop(
    geom: TorusGeometry,
    coord: Tuple[int, ...],
    dim: int,
    target_pos: int,
) -> Tuple[int, int]:
    """Route around a dead dimension-``dim`` target cell.

    OpenSM's Torus-2QoS survives a single failed switch by offsetting
    the packet one hop in a *later* dimension before finishing the
    current one; the later dimension is then corrected in its own DOR
    phase, so every dimension still sees one monotone segment and the
    detour stays consistent per ``(node, destination)``.  Returns
    ``(detour_dim, direction)``.
    """
    for j in range(dim + 1, geom.n_dims):
        for dj in (+1, -1):
            side = geom.neighbor_coord(coord, j, dj)
            if side is None or side not in geom.switch_at:
                continue
            if not geom.net.csr.channels_between(
                geom.switch_at[coord], geom.switch_at[side]
            ):
                continue
            if _choose_direction(geom, side, dim, target_pos) is not None:
                return j, dj
    raise RoutingError(
        f"no detour around dead cell: dim {dim} from {coord} to "
        f"position {target_pos}"
    )


def _t2qos_columns(net: Network, dest_shard: Sequence[int]) -> np.ndarray:
    """Worker: Torus-2QoS forwarding columns for one destination shard.

    Pure per destination (the fault-bypass decisions read only the
    static geometry), so sharding is bit-identical to serial.  The
    caller has already run the ring double-fault check.
    """
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
                chans = net.csr.channels_between(node, d)
                block[node, jj] = chans[0] if chans else -1
                continue
            coord = geom.coord_of[node]
            dim = next(
                i for i in range(geom.n_dims) if coord[i] != d_coord[i]
            )
            direction = _choose_direction(geom, coord, dim, d_coord[dim])
            if direction is not None:
                block[node, jj] = geom.step_channel(
                    node, dim, direction, select=d
                )
            else:
                # the dim's target cell is the failed switch: hop one
                # position in a later dimension, then continue
                jdim, jdir = _detour_hop(geom, coord, dim, d_coord[dim])
                block[node, jj] = geom.step_channel(
                    node, jdim, jdir, select=d
                )
    return block


class TorusQoSResult(RoutingResult):
    """Routing result with per-hop dateline VL transitions."""

    geometry: "TorusGeometry"

    def path_vls(self, src: int, dest: int) -> List[int]:
        """Virtual layer of each hop of the route ``src -> dest``.

        A hop uses VL 1 when the packet already visited ring position 0
        of the dimension it is currently traversing; terminal
        injection/ejection hops and inter-dimension turns reset to the
        new dimension's state.
        """
        geom = self.geometry
        net = self.net
        vls: List[int] = []
        passed_zero = [False] * geom.n_dims
        for c in self.path(src, dest):
            u, v = net.endpoints(c)
            if net.is_switch(u) and net.is_switch(v):
                cu, cv = geom.coord_of[u], geom.coord_of[v]
                dim = next(
                    i for i in range(geom.n_dims) if cu[i] != cv[i]
                )
                # VL1 once the packet has *arrived* at ring position 0
                # of this dimension (starting a dim at 0 is not a
                # crossing — the packet never wrapped).
                vls.append(1 if passed_zero[dim] else 0)
                if cv[dim] == 0:
                    passed_zero[dim] = True
            else:
                vls.append(0)  # terminal hop, never on a cycle
        return vls

    def _hop_vls(self, src: np.ndarray, col: np.ndarray,
                 ptr: np.ndarray, channel: np.ndarray) -> np.ndarray:
        """The dateline rule of :meth:`path_vls` over flat route arrays.

        "Already arrived at ring position 0 of this dimension" is a
        running count along each route, i.e. a cumulative sum taken
        relative to its value at the route's first hop.
        """
        vls = np.zeros(channel.size, dtype=np.int8)
        if channel.size == 0:
            return vls
        dim_of, lands_on_zero = self._datelines()
        hop_dim = dim_of[channel]
        first_hop = np.repeat(ptr[:-1], np.diff(ptr))
        for dim in range(self.geometry.n_dims):
            in_dim = hop_dim == dim
            arrival = in_dim & lands_on_zero[channel]
            # arrivals before each hop, counted from the array's start
            before = np.cumsum(arrival) - arrival
            vls[in_dim & (before > before[first_hop])] = 1
        return vls

    def _datelines(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per channel: torus dimension it moves along (-1 for terminal
        channels) and whether its head sits at ring position 0 there."""
        cached = getattr(self, "_dateline_arrays", None)
        if cached is None:
            geom, net = self.geometry, self.net
            dim_of = np.full(net.n_channels, -1, dtype=np.int8)
            lands_on_zero = np.zeros(net.n_channels, dtype=bool)
            for c in np.flatnonzero(switch_channel_mask(net)).tolist():
                u, v = net.endpoints(c)
                cu, cv = geom.coord_of[u], geom.coord_of[v]
                dim = next(i for i in range(geom.n_dims) if cu[i] != cv[i])
                dim_of[c] = dim
                lands_on_zero[c] = cv[dim] == 0
            cached = self._dateline_arrays = (dim_of, lands_on_zero)
        return cached


class Torus2QoSRouting(RoutingAlgorithm):
    """Fault-tolerant dateline DOR for generated tori (2 data VLs)."""

    name = "torus-2qos"

    def __init__(self, max_vls: int = 8,
                 workers: "int | None" = None) -> None:
        super().__init__(max_vls, workers=workers)
        if max_vls < 2:
            raise ValueError("Torus-2QoS needs at least 2 VLs")

    # -- fault analysis ---------------------------------------------------------

    @staticmethod
    def _ring_fault_check(geom: TorusGeometry) -> None:
        """Raise when any torus ring carries more than one failure."""
        from itertools import product

        dims = geom.dims
        for dim in range(len(dims)):
            other_axes = [
                range(size) for i, size in enumerate(dims) if i != dim
            ]
            for rest in product(*other_axes):
                faults = 0
                for pos in range(dims[dim]):
                    coord = list(rest)
                    coord.insert(dim, pos)
                    coord_t = tuple(coord)
                    if not geom.position_exists(coord_t):
                        faults += 1
                        continue
                    nxt = geom.neighbor_coord(coord_t, dim, +1)
                    if nxt is None:
                        continue
                    if nxt in geom.switch_at and not geom.net.csr.channels_between(
                        geom.switch_at[coord_t], geom.switch_at[nxt]
                    ):
                        faults += 1
                if faults > 1:
                    raise RoutingError(
                        f"Torus-2QoS cannot route: {faults} failures in one "
                        f"ring (dim {dim}, fixed coords {rest})"
                    )

    # -- routing ----------------------------------------------------------------

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        geom = TorusGeometry(net)
        if not geom.wraparound:
            raise NotApplicableError("Torus-2QoS requires a torus")
        self._ring_fault_check(geom)
        nxt, vl = self._empty_tables(net, dests)
        workers = resolve_workers(self.workers, len(dests))
        shards = shard_destinations(dests, workers)
        blocks = run_layer_tasks(_t2qos_columns, net, shards,
                                 workers=workers)
        col = 0
        for block in blocks:
            nxt[:, col:col + block.shape[1]] = block
            col += block.shape[1]
        result = TorusQoSResult(
            net=net,
            dests=dests,
            next_channel=nxt,
            vl=vl,
            n_vls=2,
            algorithm=self.name,
        )
        result.geometry = geom
        return result
