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

The columns are array passes, not a walk per (node, destination).
Once per network a :class:`_StepTable` holds every switch's grid
coordinate and, per dimension and direction, the parallel channels to
its grid neighbour (derived from ``net.csr`` with one sorted
``(src, dst)`` key).  Then, for up to :data:`_BLOCK_COLS` destinations
at a time and every switch at once: the first differing dimension, the
direction (the shorter way around a ring with ties ``+1``; on a mesh
straight at the target), and the channel
``chans[switch, dim, dir, dest % count]`` — exactly what
:meth:`TorusGeometry.step_channel` picks with ``select=dest``.
Terminal rows are their injection channel, the destination switch's
row its eject channel, the destination's own row ``-1``.

**One step table, two cell rules.**  The direction decision lives in
per-dimension cells ``cells[k][t, p]``: the step a switch ``p`` takes
when ``k`` is the first differing dimension and ``t`` the target
position along it.  :meth:`_StepTable._direction_cells` fills them
with DOR's rule; :mod:`repro.routing.torus2qos` subclasses the table
with its fault-aware rule (ring bypass, detour) and reuses
:func:`_dor_columns` unchanged, so both routings share one array pass.

**No fan-out.** One route is one call over all destinations in this
process, with one :class:`TorusGeometry` and one step table: at
Table-1 size the columns take less time than a process pool's
round trip, so ``workers`` is accepted and unused (as in the other
single-pass baselines) and the table is private memory.

**Error order.** When some step has no channel (``count == 0``: the
neighbour switch or every link to it is gone), the error raised is
the scalar walk's :class:`RoutingError` for the first failing
``(column, node)`` in destination-major, node-ascending order —
produced by calling :meth:`TorusGeometry.step_channel` on that cell.
``tests/routing/test_dor_oracle.py`` keeps the scalar walk as the
oracle for tables and errors alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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


#: destination columns per array pass: bounds the ``(columns x
#: switches x dims)`` temporaries to well under a megabyte at 10k
#: switches
_BLOCK_COLS = 16


class _StepTable:
    """Array form of :meth:`TorusGeometry.step_channel`, per network.

    Built once per route from ``net.csr``:

    * ``switches`` — switch node ids, ascending; rows of the step
      table below are in this order (a switch's *position*);
    * ``coords`` — ``int32[n_nodes, D]`` grid coordinate per switch
      (``-1`` rows at terminals);
    * ``chans`` / ``counts`` — the step table: ``chans[p, dim, dir, k]``
      is the ``k``-th (ascending) parallel channel from the switch at
      position ``p`` to its grid neighbour along ``dim`` (``dir`` 0 =
      ``+1``, 1 = ``-1``), ``counts[p, dim, dir]`` how many there are;
      0 means the neighbour switch or every link to it is missing;
    * ``home`` — per node, the switch a packet to it ejects from (the
      node itself for a switch), ``injection`` and ``eject`` — a
      terminal's injection channel and the first channel from its
      switch into it (``-1`` where none).

    Parallel channels come from one sorted ``(src, dst)`` key over
    every channel and ``searchsorted``, which reproduces
    ``channels_between``'s ascending order.
    """

    def __init__(self, geom: TorusGeometry) -> None:
        self.geom = geom
        net = geom.net
        csr = net.csr
        n = net.n_nodes
        dims = np.asarray(geom.dims, dtype=np.int32)
        n_dims = len(dims)
        flags = csr.switch_flags.astype(bool)
        self.switches = sw = np.flatnonzero(flags)
        self.terminals = np.flatnonzero(~flags)

        coords = np.full((n, n_dims), -1, dtype=np.int32)
        placed = np.fromiter(geom.coord_of, dtype=np.int64,
                             count=len(geom.coord_of))
        grid = np.full(int(np.prod(dims)), -1, dtype=np.int64)
        if len(placed):
            coords[placed] = np.array(list(geom.coord_of.values()),
                                      dtype=np.int32)
            grid[np.ravel_multi_index(coords[placed].T, dims)] = placed
        self.coords = coords

        key = (csr.channel_src.astype(np.int64) * n
               + csr.channel_dst.astype(np.int64))
        order = np.argsort(key, kind="stable").astype(np.int32)
        sorted_key = key[order]

        counts = np.zeros((len(sw), n_dims, 2), dtype=np.int32)
        first = np.zeros((len(sw), n_dims, 2), dtype=np.int64)
        for dim in range(n_dims):
            for bit, step in enumerate((1, -1)):
                pos = coords[sw].astype(np.int64)
                pos[:, dim] += step
                if geom.wraparound:
                    pos[:, dim] %= dims[dim]
                inside = (pos >= 0).all(axis=1) & (pos < dims).all(axis=1)
                nbr = np.full(len(sw), -1, dtype=np.int64)
                nbr[inside] = grid[np.ravel_multi_index(
                    pos[inside].T, dims)]
                q = sw * n + nbr
                lo = np.searchsorted(sorted_key, q, side="left")
                hi = np.searchsorted(sorted_key, q, side="right")
                counts[:, dim, bit] = np.where(nbr >= 0, hi - lo, 0)
                first[:, dim, bit] = lo
        width = max(1, int(counts.max(initial=0)))
        chans = np.full(counts.shape + (width,), -1, dtype=np.int32)
        for k in range(width):
            has = counts > k
            chans[has, k] = order[first[has] + k]
        self.chans = chans
        self.counts = counts
        self._cells = self._direction_cells()

        injection = np.asarray(csr.injection_channel, dtype=np.int64)
        term = self.terminals
        home = np.arange(n, dtype=np.int64)
        home[term] = csr.channel_dst[injection[term]]
        self.home = home
        self.injection = injection.astype(np.int32)
        eject = np.full(n, -1, dtype=np.int32)
        q = home[term] * n + term
        at = np.minimum(np.searchsorted(sorted_key, q), len(order) - 1)
        found = sorted_key[at] == q
        eject[term[found]] = order[at[found]]
        self.eject = eject

    def _cell(self, dim: int, negative) -> np.ndarray:
        """Flat index into :attr:`counts` of every switch's step along
        ``dim`` (``negative``: the ``-1`` side, scalar or per switch)."""
        n_dims = self.counts.shape[1]
        p = np.arange(len(self.switches), dtype=np.int64)
        return (p * n_dims + dim) * 2 + negative

    def _dor_negative(self, dim: int) -> np.ndarray:
        """``[t, p]``: does DOR step switch ``p`` the ``-1`` way towards
        target coordinate ``t`` along ``dim``?"""
        size = self.geom.dims[dim]
        here = self.coords[self.switches, dim].astype(np.int64)
        t = np.arange(size, dtype=np.int64)[:, None]
        if self.geom.wraparound:  # shorter way around, ties go +1
            return (t - here) % size > (here - t) % size
        return t <= here  # a mesh only ever walks straight at the target

    def _direction_cells(self) -> List[np.ndarray]:
        """The cell rule: per dimension ``k``, the step-table cell each
        switch takes towards target coordinate ``t`` along ``k``, as
        ``cells[k][t, p]`` — here DOR's direction rule, applied once.
        Subclasses swap the rule and keep everything else."""
        return [self._cell(k, self._dor_negative(k))
                for k in range(len(self.geom.dims))]

    def columns(self, dests: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Next channel of every switch towards each of ``dests``.

        Returns ``(chan, bad)``, both ``[len(dests), n_switches]`` in
        :attr:`switches` order: ``bad`` marks the cells whose
        dimension-order step has no channel (the destination's own
        switch never counts).  ``chan`` there, and at that switch, is
        meaningless.
        """
        sw = self.switches
        home = self.home[dests]
        here = self.coords[sw]
        there = self.coords[home]
        # the first differing dimension decides: fill from the last
        # dimension back, each overriding where its coordinate differs
        # (the destination's own switch keeps the last one's cell)
        last = len(self._cells) - 1
        cell = self._cells[last][there[:, last]]
        for k in range(last - 1, -1, -1):
            differs = here[None, :, k] != there[:, k, None]
            cell = np.where(differs, self._cells[k][there[:, k]], cell)
        count = self.counts.ravel()[cell]
        width = self.chans.shape[-1]
        if width > 1:  # spread over parallel channels by destination
            cell = cell * width + dests[:, None] % np.maximum(count, 1)
        chan = self.chans.ravel()[cell]
        bad = (count == 0) & (sw[None, :] != home[:, None])
        return chan, bad

    def raise_step_error(self, dest: int, node: int) -> None:
        """Raise the scalar walk's :class:`RoutingError` for one cell."""
        geom = self.geom
        there = self.coords[self.home[dest]]
        here = self.coords[node]
        dim = int((here != there).argmax())
        if geom.wraparound:
            direction = dor_direction(geom.dims[dim], int(here[dim]),
                                      int(there[dim]))
        else:
            direction = 1 if there[dim] > here[dim] else -1
        geom.step_channel(node, dim, direction, select=dest)
        raise AssertionError(  # pragma: no cover - step table drifted
            f"step table marks a missing step at node {node}, dest {dest}")


def _dor_columns(steps: _StepTable, dests: Sequence[int]) -> np.ndarray:
    """DOR forwarding columns of every node towards ``dests``.

    Each column is a pure function of ``(net, dest)``; they are
    computed :data:`_BLOCK_COLS` at a time over every switch at once
    (see the module docstring).  Raises the scalar walk's
    :class:`RoutingError` for the first failing ``(column, node)``.
    """
    n_nodes = len(steps.home)
    dests = np.asarray(dests, dtype=np.int64).reshape(-1)
    table = np.empty((n_nodes, len(dests)), dtype=np.int32)
    table[steps.terminals, :] = steps.injection[steps.terminals, None]
    sw = steps.switches
    for j0 in range(0, len(dests), _BLOCK_COLS):
        d = dests[j0:j0 + _BLOCK_COLS]
        chan, bad = steps.columns(d)
        if bad.any():  # first failing column, then lowest node id
            jj = int(bad.any(axis=1).argmax())
            steps.raise_step_error(int(d[jj]), int(sw[bad[jj].argmax()]))
        cols = np.arange(j0, j0 + len(d))
        table[sw, j0:j0 + len(d)] = chan.T
        home = steps.home[d]
        eject = home != d  # a terminal destination: its switch ejects
        table[home[eject], cols[eject]] = steps.eject[d[eject]]
        table[d, cols] = -1
    return table


class DORRouting(RoutingAlgorithm):
    """Deterministic dimension-order routing on tori/meshes.

    ``workers`` is accepted for API uniformity and unused: the columns
    are a few array passes in this process (see the module docstring).
    """

    name = "dor"

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        next_channel = _dor_columns(_StepTable(TorusGeometry(net)), dests)
        return RoutingResult(
            net=net,
            dests=dests,
            next_channel=next_channel,
            vl=np.zeros(next_channel.shape, dtype=np.int8),
            n_vls=1,
            algorithm=self.name,
        )
