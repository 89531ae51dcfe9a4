"""Flit-level simulator: delivery, wormhole semantics, real deadlock,
and equality with the per-object loop it replaced."""

import dataclasses
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import NueRouting
from repro.fabric.flit import FlitSimConfig, FlitSimStats, FlitSimulator
from repro.fabric.sweep import _bernoulli_schedule
from repro.fabric.traffic import Message, shift_phase
from repro.network.faults import inject_random_link_faults
from repro.network.topologies import k_ary_n_tree, ring, torus
from repro.routing import (
    DORRouting,
    MinHopRouting,
    Torus2QoSRouting,
    UpDownRouting,
)
from repro.routing.base import RoutingError, RoutingResult
from repro.utils.prng import make_rng


def small_config(**kw):
    defaults = dict(buffer_flits=2, flits_per_packet=8,
                    deadlock_threshold=300)
    defaults.update(kw)
    return FlitSimConfig(**defaults)


class TestDelivery:
    def test_single_message(self, ring6):
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        s, d = ring6.terminals[0], ring6.terminals[5]
        sim.inject([Message(s, d)])
        stats = sim.run()
        assert stats.completed
        assert stats.delivered_packets == 1
        # latency >= hops + flits - 1 (pipeline bound)
        hops = res.hop_count(s, d)
        assert stats.latencies[0] >= hops + 8 - 1

    def test_self_message_ignored(self, ring6):
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        t = ring6.terminals[0]
        sim.inject([Message(t, t)])
        stats = sim.run()
        assert stats.injected_packets == 0
        assert stats.completed

    def test_many_messages_all_arrive(self, ring6):
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        msgs = shift_phase(ring6.terminals, 3)
        sim.inject(msgs)
        stats = sim.run()
        assert stats.completed
        assert stats.delivered_packets == len(msgs)

    def test_back_to_back_packets_same_source(self, ring6):
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        s = ring6.terminals[0]
        msgs = [Message(s, d) for d in ring6.terminals[1:5]]
        sim.inject(msgs)
        stats = sim.run()
        assert stats.completed
        assert stats.delivered_packets == 4

    def test_cycle_budget_respected(self, ring6):
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        sim.inject(shift_phase(ring6.terminals, 1))
        stats = sim.run(max_cycles=3)
        assert stats.cycles <= 3
        assert not stats.completed


class TestDeadlockDynamics:
    def test_minhop_ring_deadlocks(self):
        """The headline dynamic check: cyclic CDG + lossless wormhole
        switching = an actual observed deadlock."""
        net = ring(6, 1)
        res = MinHopRouting().route(net)
        sim = FlitSimulator(res, small_config(flits_per_packet=16))
        msgs = shift_phase(net.terminals, 2) + shift_phase(net.terminals, 3)
        sim.inject(msgs)
        stats = sim.run()
        assert stats.deadlocked
        assert stats.stalled_packets > 0

    def test_nue_same_traffic_completes(self):
        net = ring(6, 1)
        res = NueRouting(1).route(net, seed=1)
        sim = FlitSimulator(res, small_config(flits_per_packet=16))
        msgs = shift_phase(net.terminals, 2) + shift_phase(net.terminals, 3)
        sim.inject(msgs)
        stats = sim.run()
        assert not stats.deadlocked
        assert stats.completed

    def test_updn_same_traffic_completes(self):
        net = ring(6, 1)
        res = UpDownRouting().route(net)
        sim = FlitSimulator(res, small_config(flits_per_packet=16))
        msgs = shift_phase(net.terminals, 2) + shift_phase(net.terminals, 3)
        sim.inject(msgs)
        stats = sim.run()
        assert stats.completed


class TestWormholeSemantics:
    def test_packets_never_interleave_on_a_vc(self, tree42):
        """Delivered flit counts are always complete packets — wormhole
        allocation forbids interleaving two packets on one VC."""
        res = UpDownRouting().route(tree42)
        sim = FlitSimulator(res, small_config())
        msgs = shift_phase(tree42.terminals, 1)
        sim.inject(msgs)
        stats = sim.run()
        assert stats.completed

    def test_stats_latency_helpers(self, ring6):
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        sim.inject([Message(ring6.terminals[0], ring6.terminals[1])])
        stats = sim.run()
        assert stats.avg_latency == stats.latencies[0]


class TestBackpressure:
    def test_buffer_occupancy_bounded(self, ring6):
        """No (channel, VL) buffer may ever exceed its configured
        capacity — the losslessness contract."""
        res = UpDownRouting().route(ring6)
        cfg = small_config(buffer_flits=2)
        sim = FlitSimulator(res, cfg)
        sim.inject(shift_phase(ring6.terminals, 4))
        for cycle in range(400):
            sim._step(cycle)
            assert sim._occ[:sim.n_slots].max() <= cfg.buffer_flits
            if sim.stats.delivered_packets == sim.stats.injected_packets:
                break
        assert sim.stats.delivered_packets == sim.stats.injected_packets

    def test_one_flit_per_channel_per_cycle(self, ring6):
        """Link bandwidth: a physical channel carries at most one flit
        per cycle, across all VLs."""
        res = UpDownRouting().route(ring6)
        sim = FlitSimulator(res, small_config())
        sim.inject(shift_phase(ring6.terminals, 2))
        for cycle in range(200):
            occupancy_before = sim._occ[:sim.n_slots].copy()
            sim._step(cycle)
            delta = sim._occ[:sim.n_slots] - occupancy_before
            # deliveries can drain buffers, so only count net growth
            arrivals = np.maximum(delta, 0).reshape(-1, sim.n_vls).sum(1)
            assert all(v <= 1 for v in arrivals)
            if sim.stats.delivered_packets == sim.stats.injected_packets:
                break


class TestValidation:
    @pytest.mark.parametrize("name", [
        "buffer_flits", "flits_per_packet", "deadlock_threshold",
        "max_cycles"])
    def test_config_fields_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            FlitSimConfig(**{name: 0})

    def test_out_of_order_batch_queues_nothing(self, ring6):
        res = UpDownRouting().route(ring6)
        t = ring6.terminals
        sim = FlitSimulator(res, small_config())
        with pytest.raises(ValueError,
                           match="per-source arrivals must be non-decreasing"):
            sim.schedule([(Message(t[0], t[3]), 5),
                          (Message(t[0], t[4]), 2)])
        assert sim.stats.injected_packets == 0
        # the simulator is as good as new
        sim.inject([Message(t[0], t[3])])
        fresh = FlitSimulator(res, small_config())
        fresh.inject([Message(t[0], t[3])])
        assert sim.run() == fresh.run()

    def test_out_of_order_against_the_queue(self, ring6):
        """A batch's first arrival is checked against the source's last
        queued, not yet started packet; a started one no longer counts."""
        res = UpDownRouting().route(ring6)
        t = ring6.terminals
        sim = FlitSimulator(res, small_config())
        sim.schedule([(Message(t[0], t[3]), 5)])
        with pytest.raises(ValueError):
            sim.schedule([(Message(t[1], t[3]), 0),
                          (Message(t[0], t[2]), 4)])
        assert sim.stats.injected_packets == 1
        sim.run(max_cycles=7)  # arrives at cycle 5 and starts sending
        sim.schedule([(Message(t[0], t[2]), 4)])
        assert sim.stats.injected_packets == 2

    def test_first_offending_message_decides_the_error(self, ring6):
        res = UpDownRouting().route(ring6)
        t = ring6.terminals
        broken = RoutingResult(ring6, res.dests, res.next_channel.copy(),
                               res.vl, res.n_vls, "broken")
        broken.next_channel[t[3], :] = -1  # t[3] reaches nobody
        with pytest.raises(RoutingError) as want:
            broken.path(t[3], t[1])
        unroutable_first = [(Message(t[3], t[1]), 5),
                            (Message(t[3], t[2]), 3)]
        out_of_order_first = [(Message(t[0], t[1]), 5),
                              (Message(t[0], t[2]), 3),
                              (Message(t[3], t[1]), 9)]
        sim = FlitSimulator(broken, small_config())
        with pytest.raises(RoutingError) as got:
            sim.schedule(unroutable_first)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError):
            sim.schedule(out_of_order_first)
        assert sim.stats.injected_packets == 0


class _ReferenceLoop:
    """The per-object simulator the array one replaced, kept as its
    oracle: a dict of flit deques per (channel, VL) in first-touch
    order, per-cycle request dicts, round-robin from ``rr % n``."""

    def __init__(self, result, cfg):
        self.result, self.cfg = result, cfg
        self.buffers, self.owner, self.rr = {}, {}, {}
        self.queue, self.sending = {}, {}
        self.inflight = 0
        self.stats = FlitSimStats()

    def schedule(self, timed_messages):
        for m, arrival in timed_messages:
            if m.src == m.dst:
                continue
            pkt = SimpleNamespace(
                src=m.src, path=self.result.path(m.src, m.dst),
                vls=self.result.path_vls(m.src, m.dst),
                arrival=int(arrival), sent=0)
            queue = self.queue.setdefault(m.src, deque())
            if queue and queue[-1].arrival > pkt.arrival:
                raise ValueError("per-source arrivals must be non-decreasing")
            queue.append(pkt)
            self.stats.injected_packets += 1

    def buffer(self, key):
        if key not in self.buffers:
            self.buffers[key], self.owner[key] = deque(), None
        return self.buffers[key]

    def run(self, budget):
        idle = cycle = 0
        while cycle < budget:
            if not (self.inflight or self.sending
                    or any(self.queue.values())):
                break
            moved = self.step(cycle)
            cycle += 1
            if moved or not (self.inflight or self.sending):
                idle = 0
            else:
                idle += 1
                if idle >= self.cfg.deadlock_threshold:
                    self.stats.deadlocked = True
                    break
        self.stats.cycles = cycle
        self.stats.stalled_packets = (self.stats.injected_packets
                                      - self.stats.delivered_packets)
        return self.stats

    def step(self, cycle):
        n_flits = self.cfg.flits_per_packet
        requests, moves, reserved = {}, [], {}
        for key, buf in self.buffers.items():  # a flit: [pkt, hop, head, tail]
            if buf and buf[0][1] + 1 == len(buf[0][0].path):
                moves.append((key, None, buf[0], -1))
            elif buf:
                chan = buf[0][0].path[buf[0][1] + 1]
                requests.setdefault(chan, []).append((key, buf[0]))
        nics = list(self.sending.values()) + [
            q[0] for src, q in self.queue.items()
            if src not in self.sending and q and q[0].arrival <= cycle]
        for pkt in nics:
            flit = [pkt, -1, pkt.sent == 0, pkt.sent == n_flits - 1]
            requests.setdefault(pkt.path[0], []).append((None, flit))
        ejections, moves = moves, []
        for chan, cands in requests.items():
            start = self.rr.get(chan, 0) % len(cands)
            for i in range(len(cands)):
                src_key, flit = cands[(start + i) % len(cands)]
                hop = flit[1] + 1
                dst_key = (chan, flit[0].vls[hop])
                if flit[2]:
                    self.buffer(dst_key)
                    if self.owner[dst_key] not in (None, flit[0]):
                        continue
                elif self.owner.get(dst_key) is not flit[0]:
                    continue
                if (len(self.buffer(dst_key)) + reserved.get(dst_key, 0)
                        >= self.cfg.buffer_flits):
                    continue
                reserved[dst_key] = reserved.get(dst_key, 0) + 1
                self.rr[chan] = start + 1
                moves.append((src_key, dst_key, flit, hop))
                break
        for src_key, dst_key, flit, hop in moves + ejections:
            pkt, _, head, tail = flit
            if src_key is not None:
                self.buffers[src_key].popleft()
                if tail:
                    self.owner[src_key] = None
            else:
                if pkt.sent == 0:
                    self.queue[pkt.src].popleft()
                    self.sending[pkt.src] = pkt
                    self.inflight += 1
                pkt.sent += 1
                if pkt.sent == n_flits:
                    del self.sending[pkt.src]
            if dst_key is None:
                if tail:
                    self.stats.delivered_packets += 1
                    self.stats.latencies.append(cycle - pkt.arrival)
                    self.inflight -= 1
            else:
                if head:
                    self.owner[dst_key] = pkt
                flit[1] = hop
                self.buffers[dst_key].append(flit)
        return bool(moves or ejections)


def _faulty_torus():
    return inject_random_link_faults(torus([4, 3, 3], 1), 0.05, seed=3).net


#: (network, routing) pairs of the equality sweep; MinHop on the ring
#: and DOR on the 4x4 torus have cyclic CDGs and wedge under shifts
SWEEP = {
    "ring-minhop": (lambda: ring(6, 1), lambda n: MinHopRouting().route(n)),
    "ring-nue1": (lambda: ring(6, 1), lambda n: NueRouting(1).route(n, seed=1)),
    "ftree-updn": (lambda: k_ary_n_tree(3, 2),
                   lambda n: UpDownRouting().route(n)),
    "ftree-nue2": (lambda: k_ary_n_tree(3, 2),
                   lambda n: NueRouting(2).route(n, seed=2)),
    "faulty-torus-nue2": (_faulty_torus,
                          lambda n: NueRouting(2).route(n, seed=2)),
    "faulty-torus-2qos": (_faulty_torus,
                          lambda n: Torus2QoSRouting().route(n)),
    "torus333-2qos": (lambda: torus([3, 3, 3], 1),
                      lambda n: Torus2QoSRouting().route(n)),
    "torus333-nue2": (lambda: torus([3, 3, 3], 1),
                      lambda n: NueRouting(2).route(n, seed=3)),
    "torus44-dor": (lambda: torus([4, 4], 1),
                    lambda n: DORRouting().route(n)),
}


@pytest.mark.parametrize("case", sorted(SWEEP))
def test_equal_to_the_reference_loop(case):
    """Every statistic, the latency order included, equals the loop's
    under buffer/packet sizes 1/1, 2/4 and 4/16, shift phases and
    Bernoulli loads 0.1, 0.5 and 1.0."""
    build, route = SWEEP[case]
    net = build()
    result = route(net)
    t = net.terminals
    schedules = [[(m, 0) for m in shift_phase(t, 1) + shift_phase(t, 2)
                  + shift_phase(t, 3)]]
    schedules += [_bernoulli_schedule(t, rate, 24, make_rng(5))
                  for rate in (0.1, 0.5, 1.0)]
    deadlocked = 0
    for buffer_flits, flits in ((1, 1), (2, 4), (4, 16)):
        cfg = FlitSimConfig(buffer_flits=buffer_flits, flits_per_packet=flits,
                            deadlock_threshold=60)
        for schedule in schedules:
            ref = _ReferenceLoop(result, cfg)
            ref.schedule(schedule)
            want = ref.run(5000)
            sim = FlitSimulator(result, cfg)
            sim.schedule(schedule)
            assert dataclasses.astuple(sim.run(5000)) == \
                dataclasses.astuple(want)
            deadlocked += want.deadlocked
    if case in ("ring-minhop", "torus44-dor"):
        assert deadlocked  # the sweep covers a wedged network


@pytest.mark.parametrize("cut", [3, 20, 55])
def test_resumed_runs_equal_the_reference_loop(ring6, cut):
    """``run`` stopped by its budget, more traffic scheduled, run again
    (each run counts cycles from 0): packets mid-injection go on."""
    res = UpDownRouting().route(ring6)
    t = ring6.terminals
    first = _bernoulli_schedule(t, 0.4, 15, make_rng(cut))
    later = [(m, c + 20) for m, c in
             _bernoulli_schedule(t, 0.4, 15, make_rng(cut + 1))]
    cfg = FlitSimConfig(buffer_flits=1, flits_per_packet=3)
    ref, sim = _ReferenceLoop(res, cfg), FlitSimulator(res, cfg)
    for budget, schedule in ((cut, first), (cut * 3, later), (5000, [])):
        ref.schedule(schedule)
        sim.schedule(schedule)
        assert dataclasses.astuple(sim.run(budget)) == \
            dataclasses.astuple(ref.run(budget))
