"""Cycle-accurate flit-level network simulator (wormhole, credit/VL).

A compact stand-in for the paper's OMNeT++ InfiniBand model: input-
buffered switches with one buffer per (channel, virtual lane), wormhole
switching (a head flit allocates the downstream VC and the allocation
is held until the tail departs it), one flit per physical channel per
cycle, and back-pressure through buffer occupancy — the lossless
behaviour that makes routing-induced deadlock *observable*: with a
cyclic channel dependency graph and adversarial traffic the simulator
visibly wedges (no flit moves while packets remain in flight), and
with any deadlock-free routing it provably cannot.

The simulator is synchronous (two-phase per cycle: collect moves, then
apply) so results are independent of iteration order, and entirely
deterministic given the injection schedule.

State layout.  All state is flat integer arrays.

* Per slot: buffer ``slot = channel * n_vls + vl`` for the first
  ``n_slots``, then one slot per node for its NIC.  ``occ`` (flits held),
  ``owner`` (packet holding it, -1 when free), ``front`` (index within
  its packet of the flit at the head of the FIFO), ``next`` (the route
  entry that flit requests, -1 to eject) and ``rank`` (order of first
  touch, -1 while untouched).  A buffer holds one packet at a time —
  a head flit allocates it and the tail's departure frees it — so
  these describe its FIFO completely.  A NIC slot holds the NIC's
  current packet: ``front`` counts the flits sent, ``occ`` is 1 once
  the packet has arrived, and NICs rank after every buffer.
* Per packet: its route as a CSR (``ptr``) over per-entry channel,
  slot and next-entry arrays, and its arrival cycle.
* Per node: its packets in arrival order in one flat ``queue`` of
  packet ids, ``qpos`` at the current one and ``qend`` past the last.

Arbitration.  In a cycle the front flit of every occupied slot either
ejects (its packet's last hop) or requests the channel of its next
route entry.  A channel's candidates are ordered by rank: input
buffers in the order each was first touched, then its NIC (at most
one: the channel leaves the source node).  With ``start = rr[c] %
n_cands`` the winner is the first eligible candidate in rotation order
from ``start``, and then ``rr[c] = start + 1`` (not winner + 1).  A
candidate is eligible when its destination buffer has room and the VC
is free for it: a head needs the buffer unowned (or owned by its own
packet), a body flit needs it owned by its own packet.  A body flit
always finds its head's allocation, which only its packet's tail
frees, so the test is "unowned or owned by the packet".  A cycle is one
sort of the candidates by (channel, rank), one segmented minimum of
their rotated positions, and the winners' and ejections' moves applied
together; ejections are taken in rank order, which is the order of
``stats.latencies``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.traffic import Message, message_routes
from repro.routing.base import RoutingResult

__all__ = ["FlitSimConfig", "FlitSimStats", "FlitSimulator"]


@dataclass(frozen=True)
class FlitSimConfig:
    """Simulator parameters.

    ``flits_per_packet`` defaults to 8 (a 2 KiB message at 256-byte
    flits); ``buffer_flits`` per (channel, VL) buffer is deliberately
    smaller than a packet so wormhole dependencies span switches, as on
    real hardware.  ``deadlock_threshold`` idle cycles with packets in
    flight declare a deadlock.  Every field must be >= 1.
    """

    buffer_flits: int = 4
    flits_per_packet: int = 8
    max_cycles: int = 1_000_000
    deadlock_threshold: int = 2_000

    def __post_init__(self) -> None:
        for name in ("buffer_flits", "flits_per_packet", "max_cycles",
                     "deadlock_threshold"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1: {value}")


@dataclass
class FlitSimStats:
    """Outcome of a simulation run."""

    delivered_packets: int = 0
    injected_packets: int = 0
    cycles: int = 0
    deadlocked: bool = False
    stalled_packets: int = 0
    latencies: List[int] = field(default_factory=list)

    @property
    def avg_latency(self) -> float:
        return (
            sum(self.latencies) / len(self.latencies)
            if self.latencies else 0.0
        )

    @property
    def completed(self) -> bool:
        return (
            not self.deadlocked
            and self.delivered_packets == self.injected_packets
        )


#: ready cycles of a NIC with nothing left to send / mid-packet
_NEVER = np.iinfo(np.int64).max
_STARTED = np.iinfo(np.int64).min


def _ids(n: int = 0, fill: int = 0) -> np.ndarray:
    return np.full(n, fill, dtype=np.int64)


class FlitSimulator:
    """Wormhole simulator over a routing result's forwarding tables."""

    def __init__(
        self, result: RoutingResult, config: Optional[FlitSimConfig] = None
    ) -> None:
        self.result = result
        self.net = result.net
        self.config = config or FlitSimConfig()
        n_vls = max(1, result.n_vls)
        self.n_vls = n_vls
        #: buffer slots; the NIC of node ``v`` is slot ``n_slots + v``
        self.n_slots = self.net.n_channels * n_vls
        size = self.n_slots + self.net.n_nodes
        self._occ = _ids(size)
        self._owner = _ids(size, -1)
        self._front = _ids(size)
        self._next = _ids(size)  # route entry the front flit requests
        self._rank = _ids(size, -1)
        self._scan = _ids()  # ranked buffers in rank order, then NICs
        # round-robin arbitration pointer per physical channel
        self._rr = _ids(self.net.n_channels)
        # per packet: route CSR, arrival cycle, source node; per route
        # entry: channel, slot and the entry after it (-1: eject)
        self._ptr = _ids(1)
        self._hop_chan = np.empty(0, dtype=np.int32)
        self._hop_slot = np.empty(0, dtype=np.int32)
        self._hop_next = np.empty(0, dtype=np.int32)
        self._arrival = _ids()
        self._src = _ids()
        # per node: a flat queue of its packets grouped by node,
        # ``qpos`` at its current packet and ``qend`` past its last
        self._queue = _ids()
        self._qpos = _ids(self.net.n_nodes)
        self._qend = _ids(self.net.n_nodes)
        # per node: first cycle its NIC may send: the current packet's
        # arrival, -inf once that packet started, never when idle
        self._ready_at = _ids(self.net.n_nodes, _NEVER)
        self._inflight = 0  # packets with >= 1 flit in the network
        self.stats = FlitSimStats()

    # -- workload ------------------------------------------------------------

    def inject(self, messages: Sequence[Message]) -> None:
        """Queue messages for injection at cycle 0."""
        self.schedule((m, 0) for m in messages)

    def schedule(self, timed_messages: Iterable[Tuple[Message, int]]) -> None:
        """Queue ``(message, arrival_cycle)`` pairs (open-loop traffic).

        A packet becomes eligible for injection at its arrival cycle;
        latency is measured from arrival, so source queueing counts —
        the convention load/latency sweeps require.  Arrivals per
        source must be scheduled in non-decreasing time order.  The
        batch is all-or-nothing: an unroutable message or an arrival
        out of order raises and queues none of it."""
        batch = [(m.src, m.dst, int(arrival))
                 for m, arrival in timed_messages if m.src != m.dst]
        if not batch:
            return
        src, dst, arrival = np.array(batch, dtype=np.int64).T
        late = self._first_out_of_order(src, arrival)
        # errors go in message order, a message's missing route before
        # its own out-of-order arrival
        ptr, chan, vls = message_routes(
            self.result, src, dst,
            checked=None if late is None else late + 1)
        if late is not None:
            raise ValueError("per-source arrivals must be non-decreasing")
        if vls.size and not (0 <= vls.min() and vls.max() < self.n_vls):
            raise ValueError(f"route VLs must lie in [0, {self.n_vls})")

        # commit: routes, packets, new NICs, then the queues rebuilt as
        # each NIC's pending packets followed by the batch's
        base = self._ptr[-1]
        nxt = np.arange(base + 1, base + chan.size + 1, dtype=np.int32)
        nxt[ptr[1:] - 1] = -1
        self._ptr = np.concatenate((self._ptr, ptr[1:] + base))
        self._hop_chan = np.concatenate((self._hop_chan, chan))
        self._hop_slot = np.concatenate((
            self._hop_slot, chan * np.int32(self.n_vls) + vls))
        self._hop_next = np.concatenate((self._hop_next, nxt))
        pids = np.arange(self._arrival.size, self._arrival.size + src.size)
        self._arrival = np.concatenate((self._arrival, arrival))
        self._src = np.concatenate((self._src, src))
        # NICs rank after every buffer, in order of first use
        _, first = np.unique(src, return_index=True)
        nics = self.n_slots + src[np.sort(first)]
        fresh = nics[self._rank[nics] < 0]
        used = np.count_nonzero(self._rank[self.n_slots:] >= 0)
        self._rank[fresh] = self.n_slots + used + np.arange(fresh.size)
        self._scan = np.concatenate((
            self._scan[self._scan < self.n_slots],
            self.n_slots + np.flatnonzero(self._rank[self.n_slots:] >= 0)))
        kept = self._queue[np.arange(self._queue.size)
                           >= self._qpos[self._src[self._queue]]]
        queue = np.concatenate((kept, pids))
        queue = queue[np.argsort(self._src[queue], kind="stable")]
        per_node = np.bincount(self._src[queue], minlength=self.net.n_nodes)
        self._queue = queue
        self._qend = np.cumsum(per_node)
        self._qpos = self._qend - per_node
        # a NIC that is mid-packet keeps it; idle ones load their next
        self._load(np.flatnonzero(self._owner[self.n_slots:] < 0))
        self.stats.injected_packets += src.size

    def _first_out_of_order(
        self, src: np.ndarray, arrival: np.ndarray
    ) -> Optional[int]:
        """Index of the first message arriving before the previous
        packet of its source, if any: the one before it in the batch,
        else the last one queued and not yet started."""
        by_src = np.argsort(src, kind="stable")
        s, a = src[by_src], arrival[by_src]
        prev = np.empty_like(a)
        prev[1:] = a[:-1]
        first = np.ones(s.size, dtype=bool)
        first[1:] = s[1:] != s[:-1]
        nodes = s[first]
        tail = _ids(nodes.size, np.iinfo(np.int64).min)
        queued = np.flatnonzero(self._qpos[nodes] < self._qend[nodes])
        last = self._queue[self._qend[nodes[queued]] - 1]
        nic = self.n_slots + nodes[queued]
        waiting = (last != self._owner[nic]) | (self._front[nic] == 0)
        tail[queued[waiting]] = self._arrival[last[waiting]]
        prev[first] = tail
        late = by_src[prev > a]
        return int(late.min()) if late.size else None

    def _load(self, nodes: np.ndarray) -> None:
        """Make the packet at ``qpos`` current at the NICs of ``nodes``."""
        has = self._qpos[nodes] < self._qend[nodes]
        pids = self._queue[self._qpos[nodes[has]]]
        nics = self.n_slots + nodes
        self._owner[nics] = -1
        self._owner[nics[has]] = pids
        self._front[nics] = 0
        self._next[nics[has]] = self._ptr[pids]
        self._ready_at[nodes] = _NEVER
        self._ready_at[nodes[has]] = self._arrival[pids]

    # -- simulation ----------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> FlitSimStats:
        """Simulate until every injected packet is delivered, a deadlock
        is detected, or the cycle budget runs out."""
        cfg = self.config
        stats = self.stats
        budget = max_cycles if max_cycles is not None else cfg.max_cycles
        idle_cycles = 0
        cycle = 0
        while (cycle < budget
               and stats.delivered_packets < stats.injected_packets):
            moved = self._step(cycle)
            cycle += 1
            if moved or self._inflight == 0:
                # moving, or quiescent waiting for future arrivals
                idle_cycles = 0
            else:
                idle_cycles += 1
            if not moved:
                # a cycle without moves changed nothing, so the cycles
                # before the next packet arrives repeat it: skip them
                later = self._ready_at[self._ready_at >= cycle]
                quiet = min(int(later.min()) if later.size else _NEVER,
                            budget) - cycle
                if self._inflight:
                    quiet = min(quiet,
                                cfg.deadlock_threshold - idle_cycles)
                    idle_cycles += quiet
                cycle += quiet
            if idle_cycles >= cfg.deadlock_threshold:
                stats.deadlocked = True
                break
        stats.cycles = cycle
        stats.stalled_packets = (
            stats.injected_packets - stats.delivered_packets
        )
        return stats

    def _step(self, cycle: int) -> bool:
        """One synchronous cycle; returns True when any flit moved."""
        last_flit = self.config.flits_per_packet - 1
        occ, owner, front, nxt = self._occ, self._owner, self._front, self._next
        n_slots = self.n_slots

        # collect: the front flit of every non-empty buffer (rank order)
        # and the next flit of every NIC whose packet has arrived
        occ[n_slots:] = self._ready_at <= cycle
        live = self._scan[occ[self._scan] > 0]
        eject = nxt[live] < 0
        out, fwd = live[eject], live[~eject]
        if not fwd.size:
            return self._eject(out, cycle)
        c_pid = owner[fwd]
        c_pos = nxt[fwd]
        c_flit = front[fwd]
        c_chan = self._hop_chan[c_pos]
        c_slot = self._hop_slot[c_pos]
        o = owner[c_slot]
        ok = (occ[c_slot] < self.config.buffer_flits) & (
            (o == c_pid) | (o < 0))

        # arbitrate: round-robin per channel over its candidates in
        # rank order, as a segmented argmin of rotated positions
        order = np.argsort(c_chan * np.int64(occ.size) + self._rank[fwd])
        chan = c_chan[order]
        bounds = np.concatenate((
            [0], np.flatnonzero(chan[1:] != chan[:-1]) + 1, [order.size]))
        starts = bounds[:-1]
        n_cands = bounds[1:] - starts
        start = self._rr[chan[starts]] % n_cands
        rot = ((np.arange(order.size) - np.repeat(starts + start, n_cands))
               % np.repeat(n_cands, n_cands))
        best = np.minimum.reduceat(np.where(ok[order], rot, order.size),
                                   starts)
        g = np.flatnonzero(best < n_cands)
        win = order[starts[g] + (best[g] + start[g]) % n_cands[g]]
        self._rr[chan[starts[g]]] = start[g] + 1

        # apply: ejections, departures, arrivals
        ejected = self._eject(out, cycle)
        if not win.size:
            return ejected
        src = fwd[win]
        flit = c_flit[win]
        occ[src] -= 1
        front[src] += 1
        owner[src[flit == last_flit]] = -1
        sent = src >= n_slots
        if sent.any():
            started = src[sent & (flit == 0)] - n_slots
            self._ready_at[started] = _STARTED
            self._inflight += started.size
            done = src[sent & (flit == last_flit)] - n_slots
            if done.size:
                self._qpos[done] += 1
                self._load(done)
        dst = c_slot[win]
        occ[dst] += 1
        head = flit == 0
        if head.any():
            at = dst[head]
            owner[at] = c_pid[win[head]]
            front[at] = 0
            nxt[at] = self._hop_next[c_pos[win[head]]]
            # an untouched buffer is unowned and empty, so a head bound
            # for it won its channel: rank such buffers in the order of
            # their channels' first candidates, the order of first touch
            fresh = self._rank[at] < 0
            if fresh.any():
                new = at[fresh][np.argsort(self._rank[
                    fwd[order[starts[g[head][fresh]]]]])]
                ranked = self._scan[self._scan < n_slots]
                self._rank[new] = np.arange(ranked.size,
                                            ranked.size + new.size)
                self._scan = np.concatenate((
                    ranked, new, self._scan[ranked.size:]))
        return True

    def _eject(self, out: np.ndarray, cycle: int) -> bool:
        """Eject the front flits of buffers ``out``, in rank order: the
        order the tails' latencies are recorded in."""
        if not out.size:
            return False
        occ, owner, front = self._occ, self._owner, self._front
        done = out[front[out] == self.config.flits_per_packet - 1]
        occ[out] -= 1
        front[out] += 1
        if done.size:
            self.stats.delivered_packets += done.size
            self.stats.latencies.extend(
                (cycle - self._arrival[owner[done]]).tolist())
            owner[done] = -1
            self._inflight -= done.size
        return True
