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
* **detour around a dead cell**: when both arcs are broken (the target
  position itself failed), the packet first steps one hop in a *later*
  dimension whose side switch still reaches the target position; that
  dimension is corrected in its own DOR phase;
* **hard failure on a double fault**: two failures in one torus ring
  defeat the scheme — the paper calls this out as Torus-2QoS's limit
  ("will fail if a second switch failure occurs in the same torus
  ring") — and we raise :class:`RoutingError` exactly then.

**One step table, another cell rule.**  At a switch, the next hop
depends only on the switch, the first differing dimension ``k`` and
the target position ``t`` along ``k`` — the same per-dimension cells
``cells[k][t, p]`` DOR's :class:`~repro.routing.dor._StepTable` holds.
:class:`_DetourSteps` fills them fault-aware, as array passes over the
step table's ``counts``: an arc is passable when no step on it has a
zero count (a prefix sum of blocked steps along each ring); the
DOR-preferred direction if its arc is passable, else the opposite one,
else the first ``(j > k, ±1)`` step whose side switch reaches ``t``.
On a ring with no fault those are DOR's cells, and the columns are
DOR's array pass.  A cell with no detour points at a step with no
channel (one exists, since both arcs are blocked), so it is flagged
exactly like DOR's missing steps: the error — ``no detour around dead
cell`` — is raised only when a column uses such a cell, for the first
failing ``(column, node)`` in destination-major, node-ascending
order.  ``workers`` is accepted and unused (no fan-out, as for
``dor``); ``tests/routing/test_torus2qos_oracle.py`` keeps the scalar
per-``(node, destination)`` walk as the oracle.

Because the virtual layer changes *along* a path (InfiniBand realises
this with per-port SL2VL tables), :class:`TorusQoSResult` overrides
``_hop_vls`` to expose per-hop VLs; the deadlock checker and the flit
simulator both consume that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.network.graph import Network
from repro.routing.base import (
    NotApplicableError,
    RoutingAlgorithm,
    RoutingError,
    RoutingResult,
)
from repro.routing.dor import TorusGeometry, _dor_columns, _StepTable
from repro.routing.walk import switch_channel_mask
from repro.utils.prng import SeedLike

__all__ = ["Torus2QoSRouting", "TorusQoSResult", "Torus2QoSConfig"]


@dataclass(frozen=True)
class Torus2QoSConfig:
    """``torus-2qos`` takes no extra configuration."""


class _DetourSteps(_StepTable):
    """DOR's step table with Torus-2QoS's fault-aware cell rule."""

    def _open_arcs(self, dim: int) -> Callable[
            [np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Passability along ``dim``: a function from switch coordinates
        ``[n, D]`` to ``(fwd, back)``, each ``bool[t, n]`` — is the
        ``+1`` / ``-1`` arc from there to ring position ``t`` free of
        blocked steps?"""
        dims = tuple(self.geom.dims)
        size = dims[dim]
        at = tuple(self.coords[self.switches].T)
        blocked = np.ones((2,) + dims, dtype=bool)  # missing switches too
        for bit in (0, 1):
            blocked[(bit,) + at] = self.counts[:, dim, bit] == 0
        # each ring (indexed by the other coordinates) along the last
        # axis, walked twice around so every arc is one contiguous run
        rings = np.moveaxis(blocked, dim + 1, -1)
        prefix = np.zeros(rings.shape[:-1] + (2 * size + 1,), dtype=np.int32)
        np.cumsum(np.concatenate([rings, rings], axis=-1), axis=-1,
                  out=prefix[..., 1:])
        other = [i for i in range(len(dims)) if i != dim]
        t = np.arange(size, dtype=np.int64)[:, None]

        def arcs(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            ring = tuple(coords[:, other].T)
            a = coords[:, dim]
            # +1 steps leave positions a .. t-1, -1 steps t+1 .. a
            fwd_end = a + (t - a) % size
            back_start = (t + 1) % size
            back_end = back_start + (a - t) % size
            fwd = prefix[(0, *ring, fwd_end)] == prefix[(0, *ring, a)]
            back = prefix[(1, *ring, back_end)] \
                == prefix[(1, *ring, back_start)]
            return fwd, back

        return arcs

    def _direction_cells(self) -> List[np.ndarray]:
        """Torus-2QoS's cell rule (see the module docstring)."""
        dims = self.geom.dims
        here = self.coords[self.switches].astype(np.int64)
        dead = np.flatnonzero(self.counts.ravel() == 0)
        cells = []
        for k in range(len(dims)):
            arcs = self._open_arcs(k)
            neg = self._dor_negative(k)
            fwd, back = arcs(here)
            preferred = np.where(neg, back, fwd)
            opposite = np.where(neg, fwd, back)
            cell = np.where(preferred, self._cell(k, neg),
                            np.where(opposite, self._cell(k, ~neg), -1))
            stuck = cell < 0
            for j in range(k + 1, len(dims)):
                for bit, step in enumerate((1, -1)):
                    if not stuck.any():
                        break
                    side = here.copy()
                    side[:, j] = (side[:, j] + step) % dims[j]
                    side_fwd, side_back = arcs(side)
                    take = stuck & (self.counts[:, j, bit] > 0) \
                        & (side_fwd | side_back)
                    cell = np.where(take, self._cell(j, bit), cell)
                    stuck &= ~take
            if stuck.any():  # no detour: a cell with no channel
                cell[stuck] = dead[0]
            cells.append(cell)
        return cells

    def raise_step_error(self, dest: int, node: int) -> None:
        """Raise the scalar walk's no-detour error for one dead cell."""
        coord = self.geom.coord_of[node]
        there = self.geom.coord_of[int(self.home[dest])]
        dim = next(i for i in range(len(coord)) if coord[i] != there[i])
        raise RoutingError(
            f"no detour around dead cell: dim {dim} from {coord} to "
            f"position {there[dim]}"
        )


def _ring_fault_check(steps: _StepTable) -> None:
    """Raise when any torus ring carries more than one failure.

    A failure is a missing switch, or a missing link from a surviving
    switch to its surviving ``+1`` neighbour.  Rings are checked by
    dimension, then by the other coordinates in lexicographic order.
    """
    dims = tuple(steps.geom.dims)
    at = tuple(steps.coords[steps.switches].T)
    exists = np.zeros(dims, dtype=bool)
    exists[at] = True
    for dim in range(len(dims)):
        cut = np.zeros(dims, dtype=bool)
        cut[at] = steps.counts[:, dim, 0] == 0
        cut &= np.roll(exists, -1, axis=dim)  # not a missing neighbour
        faults = (~exists | cut).sum(axis=dim)
        over = np.flatnonzero(faults.ravel() > 1)
        if len(over):
            rest = tuple(int(i) for i in
                         np.unravel_index(over[0], faults.shape))
            raise RoutingError(
                f"Torus-2QoS cannot route: {faults.ravel()[over[0]]} "
                f"failures in one ring (dim {dim}, fixed coords {rest})"
            )


def _datelines(net: Network, coords: np.ndarray) -> Tuple[np.ndarray,
                                                           np.ndarray]:
    """Per channel: torus dimension it moves along (-1 for terminal
    channels) and whether its head sits at ring position 0 there."""
    dim_of = np.full(net.n_channels, -1, dtype=np.int8)
    lands_on_zero = np.zeros(net.n_channels, dtype=bool)
    c = np.flatnonzero(switch_channel_mask(net))
    head = coords[net.csr.channel_dst[c]]
    dim = (coords[net.csr.channel_src[c]] != head).argmax(axis=1)
    dim_of[c] = dim
    lands_on_zero[c] = head[np.arange(len(c)), dim] == 0
    return dim_of, lands_on_zero


class TorusQoSResult(RoutingResult):
    """Routing result with per-hop dateline VL transitions."""

    #: :func:`_datelines` of the routed network
    datelines: Tuple[np.ndarray, np.ndarray]

    def _hop_vls(self, src: np.ndarray, col: np.ndarray,
                 ptr: np.ndarray, channel: np.ndarray) -> np.ndarray:
        """The dateline rule over flat route arrays.

        A hop uses VL 1 when the packet already *arrived* at ring
        position 0 of the dimension it is currently traversing
        (starting a dimension at 0 is not a crossing — the packet never
        wrapped); terminal injection/ejection hops use VL 0.  "Already
        arrived" is a running count along each route, i.e. a cumulative
        sum taken relative to its value at the route's first hop.
        """
        vls = np.zeros(channel.size, dtype=np.int8)
        if channel.size == 0:
            return vls
        dim_of, lands_on_zero = self.datelines
        hop_dim = dim_of[channel]
        first_hop = np.repeat(ptr[:-1], np.diff(ptr))
        for dim in range(int(dim_of.max(initial=-1)) + 1):
            in_dim = hop_dim == dim
            arrival = in_dim & lands_on_zero[channel]
            # arrivals before each hop, counted from the array's start
            before = np.cumsum(arrival) - arrival
            vls[in_dim & (before > before[first_hop])] = 1
        return vls


class Torus2QoSRouting(RoutingAlgorithm):
    """Fault-tolerant dateline DOR for generated tori (2 data VLs).

    ``workers`` is accepted for API uniformity and unused: the columns
    are DOR's array pass in this process (see the module docstring).
    """

    name = "torus-2qos"

    def __init__(self, max_vls: int = 8,
                 workers: "int | None" = None) -> None:
        super().__init__(max_vls, workers=workers)
        if max_vls < 2:
            raise ValueError("Torus-2QoS needs at least 2 VLs")

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        geom = TorusGeometry(net)
        if not geom.wraparound:
            raise NotApplicableError("Torus-2QoS requires a torus")
        steps = _DetourSteps(geom)
        _ring_fault_check(steps)
        next_channel = _dor_columns(steps, dests)
        result = TorusQoSResult(
            net=net,
            dests=dests,
            next_channel=next_channel,
            vl=np.zeros(next_channel.shape, dtype=np.int8),
            n_vls=2,
            algorithm=self.name,
        )
        result.datelines = _datelines(net, steps.coords)
        return result
