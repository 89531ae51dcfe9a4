"""Destination partitioners: balance, determinism, coverage."""

from collections import Counter

import pytest

from repro.core import NueConfig, NueRouting
from repro.metrics import gamma_summary, validate_routing
from repro.partition import (
    ClusterPartitioner,
    KWayPartitioner,
    RandomPartitioner,
    SpectralPartitioner,
    make_partitioner,
    partition_destinations,
)
from repro.network.topologies import random_topology, ring, torus

ALL = [KWayPartitioner(), RandomPartitioner(), ClusterPartitioner(),
       SpectralPartitioner()]


@pytest.mark.parametrize("part", ALL, ids=[p.name for p in ALL])
class TestCommonContract:
    def test_labels_cover_all_nodes(self, part):
        net = torus([3, 3], 2)
        labels = part.assign(net, 3, seed=1)
        assert len(labels) == net.n_nodes
        assert all(0 <= lab < 3 for lab in labels)

    def test_deterministic_with_seed(self, part):
        net = random_topology(20, 50, 3, seed=5)
        a = part.assign(net, 4, seed=9)
        b = part.assign(net, 4, seed=9)
        assert a == b

    def test_partition_destinations_disjoint_and_complete(self, part):
        net = torus([4, 4], 3)
        dests = net.terminals
        parts = partition_destinations(net, dests, 4, part, seed=2)
        flat = [d for sub in parts for d in sub]
        assert sorted(flat) == sorted(dests)
        assert len(parts) <= 4

    def test_every_part_nonempty(self, part):
        net = random_topology(15, 40, 4, seed=3)
        parts = partition_destinations(net, net.terminals, 6, part, seed=4)
        assert all(parts)


class TestKWay:
    def test_balance_on_paper_topology(self):
        net = random_topology(125, 1000, 8, seed=1)
        labels = KWayPartitioner().assign(net, 8, seed=42)
        sizes = Counter(labels[t] for t in net.terminals)
        assert len(sizes) == 8
        assert min(sizes.values()) >= 0.4 * max(sizes.values())

    def test_k1_trivial(self):
        net = ring(5, 1)
        assert set(KWayPartitioner().assign(net, 1)) == {0}

    def test_cut_quality_beats_random(self):
        """k-way should cut fewer links than a random split (its whole
        point; the paper keeps it as the default for balance)."""
        net = torus([4, 4, 4], 1)

        def cut(labels):
            return sum(
                1 for u, v in net.switch_to_switch_links()
                if labels[u] != labels[v]
            )

        kway = cut(KWayPartitioner().assign(net, 4, seed=7))
        rand = cut(RandomPartitioner().assign(net, 4, seed=7))
        assert kway < rand

    def test_nue_gamma_max_near_random_partitioning(self):
        """§4.5's partitioner choice at k = 8: k-way's Γ_max is not
        materially worse than random partitioning's (the paper found
        it better)."""
        net = random_topology(60, 300, 4, seed=9)
        gmax = {}
        for part in ("kway", "random"):
            result = NueRouting(8, NueConfig(partitioner=part)).route(
                net, seed=17)
            validate_routing(result, sources=net.terminals[:10],
                             check_deadlock=False)
            gmax[part] = gamma_summary(result).maximum
        assert gmax["kway"] <= 1.25 * gmax["random"]


class TestCluster:
    def test_terminals_follow_switch(self):
        net = torus([3, 3], 4)
        labels = ClusterPartitioner().assign(net, 3, seed=1)
        for t in net.terminals:
            assert labels[t] == labels[net.terminal_switch(t)]


class TestFactoryAndEdges:
    def test_make_partitioner(self):
        assert make_partitioner("kway").name == "kway"
        assert make_partitioner("random").name == "random"
        assert make_partitioner("cluster").name == "cluster"
        with pytest.raises(ValueError):
            make_partitioner("nope")

    def test_k_must_be_positive(self):
        net = ring(4, 1)
        with pytest.raises(ValueError):
            partition_destinations(net, net.terminals, 0, KWayPartitioner())

    def test_more_parts_than_dests(self):
        net = ring(4, 1)  # 4 terminals
        parts = partition_destinations(
            net, net.terminals[:2], 4, RandomPartitioner(), seed=1
        )
        flat = [d for sub in parts for d in sub]
        assert sorted(flat) == sorted(net.terminals[:2])
        assert all(parts)


class TestSpectral:
    def test_balanced_and_valid_for_nue(self):
        from repro.core import NueConfig, NueRouting
        from repro.metrics import validate_routing
        from repro.partition import SpectralPartitioner
        from repro.network.topologies import random_topology
        net = random_topology(20, 60, 3, seed=6)
        labels = SpectralPartitioner().assign(net, 4, seed=1)
        sizes = Counter(labels)
        assert len(sizes) == 4
        assert min(sizes.values()) >= 0.4 * max(sizes.values())
        cfg = NueConfig(partitioner="spectral")
        result = NueRouting(4, cfg).route(net, seed=2)
        validate_routing(result)

    def test_torus_cut_is_geometric(self):
        """Spectral bisection of a torus should find near-planar cuts
        (cut well below half the links)."""
        from repro.partition import SpectralPartitioner
        from repro.network.topologies import torus
        net = torus([4, 4, 4], 1)
        labels = SpectralPartitioner().assign(net, 2, seed=1)
        cut = sum(
            1 for u, v in net.switch_to_switch_links()
            if labels[u] != labels[v]
        )
        assert cut < 0.35 * len(net.switch_to_switch_links())

    def test_k1(self):
        from repro.partition import SpectralPartitioner
        from repro.network.topologies import ring
        assert set(SpectralPartitioner().assign(ring(5), 1)) == {0}

    def test_odd_k(self):
        from repro.partition import SpectralPartitioner
        from repro.network.topologies import random_topology
        net = random_topology(18, 50, 2, seed=4)
        labels = SpectralPartitioner().assign(net, 3, seed=1)
        assert set(labels) == {0, 1, 2}
