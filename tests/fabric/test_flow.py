"""Flow-level throughput model: loads, aggregation, ranking behaviour."""

import numpy as np
import pytest

from repro.core import NueRouting
from repro.fabric.flow import (
    QDR_LINK_BANDWIDTH,
    phase_channel_loads,
    simulate_all_to_all,
    simulate_uniform_random,
)
from repro.fabric.traffic import (
    Message,
    all_to_all_phases,
    shift_phase,
    uniform_random_pairs,
)
from repro.network.topologies import k_ary_n_tree, ring, torus
from repro.routing import MinHopRouting, Torus2QoSRouting, UpDownRouting
from repro.routing.base import RoutingError, RoutingResult
from repro.utils.prng import make_rng, spawn_seed


class TestPhaseLoads:
    def test_single_message_loads_its_path(self, ring6):
        res = MinHopRouting().route(ring6)
        s, d = ring6.terminals[0], ring6.terminals[4]
        loads = phase_channel_loads(res, [Message(s, d)])
        path = res.path(s, d)
        assert loads.sum() == len(path)
        assert all(loads[c] == 1 for c in path)

    def test_loads_accumulate(self, ring6):
        res = MinHopRouting().route(ring6)
        msgs = shift_phase(ring6.terminals, 1)
        loads = phase_channel_loads(res, msgs)
        total_hops = sum(len(res.path(m.src, m.dst)) for m in msgs)
        assert loads.sum() == total_hops


class TestSimulation:
    def test_result_arithmetic(self, ring6):
        res = MinHopRouting().route(ring6)
        sim = simulate_all_to_all(res)
        n = len(ring6.terminals)
        assert sim.total_bytes == n * (n - 1) * 2048
        assert sim.total_time_s > 0
        assert sim.throughput_bytes_per_s == pytest.approx(
            sim.total_bytes / sim.total_time_s
        )
        assert sim.throughput_gbyte_per_s == pytest.approx(
            sim.throughput_bytes_per_s / 1e9
        )
        assert sim.n_phases == n - 1

    def test_sampling_approximates_full(self, ring6):
        res = MinHopRouting().route(ring6)
        full = simulate_all_to_all(res)
        sampled = simulate_all_to_all(res, sample_phases=6, seed=1)
        assert sampled.n_phases == 6
        assert sampled.throughput_bytes_per_s == pytest.approx(
            full.throughput_bytes_per_s, rel=0.5
        )

    def test_balanced_routing_outranks_root_bound(self, ring6):
        """The metric must rank balanced minhop above Up*/Down* on a
        ring — the ordering all the throughput figures rely on."""
        t_minhop = simulate_all_to_all(
            MinHopRouting().route(ring6)
        ).throughput_bytes_per_s
        t_updn = simulate_all_to_all(
            UpDownRouting().route(ring6)
        ).throughput_bytes_per_s
        assert t_minhop > t_updn

    def test_contention_free_tree_hits_injection_bound(self):
        """On a non-oversubscribed tree, every shift phase is limited
        only by injection (max load 1), so aggregate throughput equals
        n_terminals * link bandwidth."""
        net = k_ary_n_tree(2, 2)
        from repro.routing import FatTreeRouting
        res = FatTreeRouting().route(net)
        sim = simulate_all_to_all(res)
        assert sim.max_phase_load >= 1
        n = len(net.terminals)
        bound = n * QDR_LINK_BANDWIDTH
        assert sim.throughput_bytes_per_s <= bound + 1e-6
        # within a factor of the ideal (d-mod-k is contention-free on
        # most shifts of a 2-ary 2-tree)
        assert sim.throughput_bytes_per_s >= bound / 3

    def test_needs_two_terminals(self):
        net = ring(3, 0)
        res = MinHopRouting().route(net)
        with pytest.raises(ValueError):
            simulate_all_to_all(res)


class TestUniformRandom:
    def test_ranks_like_all_to_all(self, ring6):
        """Footnote 7: uniform random injection yields the same
        routing ordering as the shift exchange."""
        from repro.fabric.flow import simulate_uniform_random
        t_minhop = simulate_uniform_random(
            MinHopRouting().route(ring6), rounds=24, seed=5
        ).throughput_bytes_per_s
        t_updn = simulate_uniform_random(
            UpDownRouting().route(ring6), rounds=24, seed=5
        ).throughput_bytes_per_s
        assert t_minhop > t_updn

    def test_deterministic(self, ring6):
        from repro.fabric.flow import simulate_uniform_random
        res = MinHopRouting().route(ring6)
        a = simulate_uniform_random(res, rounds=8, seed=9)
        b = simulate_uniform_random(res, rounds=8, seed=9)
        assert a.throughput_bytes_per_s == b.throughput_bytes_per_s

    def test_round_accounting(self, ring6):
        from repro.fabric.flow import simulate_uniform_random
        res = MinHopRouting().route(ring6)
        sim = simulate_uniform_random(res, rounds=8, seed=9)
        assert sim.n_phases == 8
        assert sim.total_bytes == 8 * len(ring6.terminals) * 2048


def _path_loads(result, messages):
    """Flows per channel, one ``path()`` call per message."""
    loads = np.zeros(result.net.n_channels, dtype=np.int64)
    for m in messages:
        for c in result.path(m.src, m.dst):
            loads[c] += 1
    return loads


def _peaks(result, phases):
    """Per-phase bottlenecks summed in order, as the model does."""
    total, worst = 0.0, 0
    for messages in phases:
        peak = int(_path_loads(result, messages).max())
        total += peak
        worst = max(worst, peak)
    return total, worst


@pytest.mark.parametrize("build", [
    lambda: MinHopRouting().route(ring(6, 2)),
    lambda: NueRouting(2).route(torus([3, 3], 2), seed=4),
    lambda: Torus2QoSRouting().route(torus([3, 3], 1)),
], ids=["ring-minhop", "torus-nue2", "torus-2qos"])
class TestEqualToPerMessagePaths:
    """The table walk reproduces the per-message ``path()`` sums."""

    def test_phase_loads(self, build):
        res = build()
        msgs = shift_phase(res.net.terminals, 3) + [
            Message(res.net.terminals[0], res.net.terminals[0])]
        assert (phase_channel_loads(res, msgs)
                == _path_loads(res, msgs)).all()

    @pytest.mark.parametrize("sample", [None, 3])
    def test_all_to_all(self, build, sample):
        res = build()
        terminals = res.net.terminals
        phases = [m for _, m in all_to_all_phases(
            terminals, sample=sample, seed=8)]
        total, worst = _peaks(res, phases)
        sim = simulate_all_to_all(res, sample_phases=sample, seed=8)
        n = len(terminals)
        time = total * ((n - 1) / len(phases)) * (2048 / QDR_LINK_BANDWIDTH)
        assert (sim.max_phase_load, sim.avg_phase_load, sim.total_time_s) \
            == (worst, total / len(phases), time)

    def test_uniform_random(self, build):
        res = build()
        terminals = res.net.terminals
        rng = make_rng(6)
        rounds = [uniform_random_pairs(terminals, len(terminals),
                                       seed=spawn_seed(rng))
                  for _ in range(5)]
        total, worst = _peaks(res, rounds)
        sim = simulate_uniform_random(res, rounds=5, seed=6)
        assert (sim.max_phase_load, sim.avg_phase_load) == (worst, total / 5)


class TestErrors:
    def test_first_unroutable_message_raises_its_path_error(self, ring6):
        res = UpDownRouting().route(ring6)
        t = ring6.terminals
        broken = RoutingResult(ring6, res.dests, res.next_channel.copy(),
                               res.vl, res.n_vls, "broken")
        # phase 1 reaches t[5] first from t[4]; later phases from others
        broken.next_channel[:, res.dest_index(t[5])] = -1
        with pytest.raises(RoutingError) as want:
            broken.path(t[4], t[5])
        with pytest.raises(RoutingError) as got:
            simulate_all_to_all(broken)
        assert str(got.value) == str(want.value)

    def test_sample_phases_below_one_rejected(self, ring6):
        res = MinHopRouting().route(ring6)
        with pytest.raises(ValueError, match="sample_phases"):
            simulate_all_to_all(res, sample_phases=0)

    def test_rounds_below_one_rejected(self, ring6):
        res = MinHopRouting().route(ring6)
        with pytest.raises(ValueError, match="rounds"):
            simulate_uniform_random(res, rounds=0)
