"""Algorithm 1: routing steps inside the complete CDG."""

import numpy as np
import pytest
from conftest import route_one

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.dijkstra import NueLayerRouter
from repro.core.escape import EscapePaths
from repro.network.topologies import (
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
)


def make_router(net, root=None, dests=None, **kw):
    cdg = CompleteCDG(net)
    dests = list(dests if dests is not None else range(net.n_nodes))
    esc = EscapePaths(net, cdg, root if root is not None else 0, dests)
    return NueLayerRouter(net, cdg, esc, **kw), dests


class TestRouteStep:
    def test_reaches_every_node(self):
        net = paper_ring_with_shortcut()
        router, dests = make_router(net)
        _, used_channel = route_one(router, 0)
        assert used_channel[0] == -1
        for v in range(1, net.n_nodes):
            assert used_channel[v] >= 0

    def test_used_channels_enter_their_node(self):
        net = torus([3, 3], 1)
        router, _ = make_router(net, dests=net.terminals)
        _, used_channel = route_one(router, net.terminals[0])
        for v in range(net.n_nodes):
            c = used_channel[v]
            if c >= 0:
                assert net.channel_dst[c] == v

    def test_terminal_destination_seeds_switch(self):
        net = ring(4, 1)
        router, _ = make_router(net, dests=net.terminals)
        d = net.terminals[0]
        s = net.terminal_switch(d)
        _, used_channel = route_one(router, d)
        # the destination's switch forwards straight to the terminal
        assert net.channel_src[used_channel[s]] == d

    def test_switch_destination_uses_fake_channel_seeding(self):
        net = ring(4)
        router, _ = make_router(net)
        _, used_channel = route_one(router, 2)
        for v in range(net.n_nodes):
            if v != 2:
                assert used_channel[v] >= 0

    def test_cdg_stays_acyclic_across_steps(self):
        net = torus([3, 3], 2)
        router, dests = make_router(net, dests=net.terminals)
        for d in dests:
            route_one(router, d)
            router.cdg.assert_acyclic()

    def test_chains_terminate_at_destination(self):
        net = random_topology(12, 30, 2, seed=2)
        router, dests = make_router(net, dests=net.terminals)
        for d in dests[:4]:
            _, used_channel = route_one(router, d)
            for v in range(net.n_nodes):
                if v == d:
                    continue
                node, hops = v, 0
                while node != d:
                    c = used_channel[node]
                    assert c >= 0
                    node = net.channel_src[c]
                    hops += 1
                    assert hops <= net.n_nodes, "cycle in used chains"

    def test_weights_grow_monotonically(self):
        net = ring(5, 1)
        router, dests = make_router(net, dests=net.terminals)
        w0 = np.array(router.weights)
        route_one(router, dests[0])
        assert (np.array(router.weights) >= w0).all()
        assert (np.array(router.weights) > 0).all()

    def test_weight_update_spreads_consecutive_trees(self):
        """After routing one destination, the loaded channels carry
        more weight, steering the next tree elsewhere when possible."""
        net = torus([3, 3], 1)
        router, dests = make_router(net, dests=net.terminals)
        route_one(router, dests[0])
        weights = np.array(router.weights)
        loaded = np.flatnonzero(weights > weights.min())
        assert loaded.size > 0

    def test_restrictions_accumulate(self):
        net = ring(6, 1)
        router, dests = make_router(net, dests=net.terminals)
        for d in dests:
            route_one(router, d)
        assert router.cdg.n_blocked_edges > 0


class TestBatchArguments:
    def test_empty_batch_routes_nothing(self):
        net = ring(4, 1)
        router, _ = make_router(net, dests=net.terminals)
        block = np.full((net.n_nodes, 0), -1, dtype=np.int32)
        used_before = router.cdg.n_used_edges
        assert router.route_batch([], block) == []
        assert router.cdg.n_used_edges == used_before

    def test_cols_length_mismatch_is_refused_before_routing(self):
        net = ring(4, 1)
        router, dests = make_router(net, dests=net.terminals)
        block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
        weights_before = list(router.weights)
        used_before = router.cdg.n_used_edges
        with pytest.raises(ValueError, match="2 destinations but 1 columns"):
            router.route_batch(dests[:2], block, cols=[0])
        # refused up front: the layer state is untouched
        assert router.weights == weights_before
        assert router.cdg.n_used_edges == used_before
        assert (block == -1).all()


class TestFallbackPath:
    def test_backtracking_disabled_forces_fallback(self):
        """With backtracking off, a torus's accumulated restrictions
        strand destinations and the whole step falls back to the escape
        paths (and stays acyclic)."""
        net = torus([5, 5, 5], 2)
        router, dests = make_router(
            net, enable_backtracking=False, dests=net.terminals
        )
        fallbacks = sum(
            route_one(router, d)[0].fell_back for d in dests
        )
        assert fallbacks > 0
        router.cdg.assert_acyclic()

    def test_backtracking_reduces_fallbacks(self):
        """Section 4.6.2's point: the local backtracking resolves most
        impasses that would otherwise overload the escape paths."""
        net = torus([5, 5, 5], 2)
        off_router, dests = make_router(
            net, enable_backtracking=False, dests=net.terminals
        )
        off = sum(route_one(off_router, d)[0].fell_back for d in dests)
        on_router, _ = make_router(
            net, enable_backtracking=True, dests=net.terminals
        )
        on = sum(route_one(on_router, d)[0].fell_back for d in dests)
        assert on < off

    def test_fallback_chains_match_escape(self):
        net = torus([5, 5, 5], 2)
        router, dests = make_router(
            net, enable_backtracking=False, dests=net.terminals
        )
        for d in dests:
            step, used_channel = route_one(router, d)
            if step.fell_back:
                expected = router.escape.fallback_channels(d)
                assert used_channel == [
                    expected[v] if v != d else -1
                    for v in range(net.n_nodes)
                ]
                break
        else:
            pytest.skip("no fallback occurred on this seed")


class TestAtomicCommit:
    def test_rollback_restores_state(self):
        net = ring(3)
        router, _ = make_router(net, dests=[0])
        cdg = router.cdg
        s = net.switches
        c01 = net.find_channels(s[0], s[1])[0]
        c12 = net.find_channels(s[1], s[2])[0]
        c20 = net.find_channels(s[2], s[0])[0]
        # the third edge closes a cycle: everything must roll back
        snapshot_used = cdg.n_used_edges
        ok = router.try_use_dependencies_atomic(
            [(c01, c12), (c12, c20), (c20, c01)]
        )
        assert not ok
        assert cdg.n_used_edges == snapshot_used
        assert cdg.edge_state(c01, c12) == 0
        assert cdg.edge_state(c20, c01) == 0  # fresh block reverted too

    def test_atomic_success_marks_all(self):
        net = ring(4)
        router, _ = make_router(net, dests=[0])
        s = net.switches
        c01 = net.find_channels(s[0], s[1])[0]
        c12 = net.find_channels(s[1], s[2])[0]
        c23 = net.find_channels(s[2], s[3])[0]
        assert router.try_use_dependencies_atomic(
            [(c01, c12), (c12, c23)]
        )
        assert router.cdg.edge_state(c01, c12) == 1
        assert router.cdg.edge_state(c12, c23) == 1
