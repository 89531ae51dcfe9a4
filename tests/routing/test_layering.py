"""Layer assignment machinery: greedy (LASH) and cycle-breaking (DFSSSP)."""


from repro.routing.lash import GreedyLayerAssigner
from repro.routing.layering import (
    _find_cycle,
    break_cycles_into_layers,
    path_dependencies,
)
from repro.network.topologies import ring, torus


def ring_paths(net, hops=2):
    """All length-``hops`` clockwise switch paths of a ring network."""
    s = net.switches
    n = len(s)
    paths = {}
    for i in range(n):
        path = []
        for h in range(hops):
            a, b = s[(i + h) % n], s[(i + h + 1) % n]
            path.append(net.find_channels(a, b)[0])
        paths[(s[i], s[(i + hops) % n])] = path
    return paths


class TestPathDependencies:
    def test_skips_terminal_channels(self):
        net = ring(4, 1)
        t0 = net.terminals[0]
        t2 = net.terminals[2]
        s0, s2 = net.terminal_switch(t0), net.terminal_switch(t2)
        s1 = [s for s in net.switches
              if s in net.neighbors(s0) and s in net.neighbors(s2)][0]
        path = (
            net.find_channels(t0, s0)
            + net.find_channels(s0, s1)
            + net.find_channels(s1, s2)
            + net.find_channels(s2, t2)
        )
        deps = path_dependencies(net, path)
        assert len(deps) == 1  # only the switch-switch pair

    def test_consecutive_pairs(self):
        net = ring(5)
        paths = ring_paths(net, hops=3)
        path = next(iter(paths.values()))
        deps = path_dependencies(net, path)
        assert deps == list(zip(path, path[1:]))


class TestGreedyAssigner:
    def test_ring_needs_two_layers(self):
        """2-hop clockwise paths around a ring close the CDG cycle, so
        the greedy assignment needs a second layer."""
        net = ring(5)
        assigner = GreedyLayerAssigner(net)
        layers = {
            pair: assigner.assign(path)
            for pair, path in ring_paths(net).items()
        }
        assert assigner.n_layers == 2
        assert set(layers.values()) == {0, 1}
        for layer_cdg in assigner.layers:
            layer_cdg.assert_acyclic()

    def test_failed_whatif_rolls_back(self):
        net = ring(3)
        assigner = GreedyLayerAssigner(net)
        paths = list(ring_paths(net, hops=1).values())
        # single-hop paths have no dependencies: all share layer 0
        for p in paths:
            assert assigner.assign(p) == 0
        assert assigner.n_layers == 1

    def test_tree_paths_single_layer(self):
        net = torus([3, 3], 1)
        assigner = GreedyLayerAssigner(net)
        # straight one-dimensional paths never conflict
        s = net.switches
        a = assigner.assign(net.find_channels(s[0], s[1])
                            + net.find_channels(s[1], s[2]))
        b = assigner.assign(net.find_channels(s[3], s[4])
                            + net.find_channels(s[4], s[5]))
        assert a == b == 0


class TestFindCycle:
    def test_no_cycle(self):
        adj = {1: {2}, 2: {3}, 3: set()}
        assert _find_cycle(adj) is None

    def test_self_loop_free_triangle(self):
        adj = {1: {2}, 2: {3}, 3: {1}}
        cycle = _find_cycle(adj)
        assert cycle is not None
        nodes = {e[0] for e in cycle}
        assert nodes == {1, 2, 3}
        # returned edges chain up
        for (a, b), (c, d) in zip(cycle, cycle[1:]):
            assert b == c
        assert cycle[-1][1] == cycle[0][0]

    def test_cycle_behind_a_tail(self):
        adj = {0: {1}, 1: {2}, 2: {3}, 3: {1}}
        cycle = _find_cycle(adj)
        assert cycle is not None
        assert {e[0] for e in cycle} == {1, 2, 3}


class TestBreakCycles:
    def test_ring_pairs_split_into_two_layers(self):
        net = ring(5)
        pair_layer, n_layers = break_cycles_into_layers(
            net, ring_paths(net)
        )
        assert n_layers == 2
        assert set(pair_layer.values()) == {0, 1}

    def test_acyclic_input_single_layer(self):
        net = torus([3, 3], 1)
        s = net.switches
        paths = {
            (s[0], s[2]): net.find_channels(s[0], s[1])
            + net.find_channels(s[1], s[2]),
        }
        pair_layer, n_layers = break_cycles_into_layers(net, paths)
        assert n_layers == 1
        assert pair_layer[(s[0], s[2])] == 0

    def test_empty_input(self):
        net = ring(4)
        pair_layer, n_layers = break_cycles_into_layers(net, {})
        assert pair_layer == {}
        assert n_layers == 1

    def test_every_pair_assigned(self):
        net = ring(7)
        paths = ring_paths(net, hops=3)
        pair_layer, n_layers = break_cycles_into_layers(net, paths)
        assert set(pair_layer) == set(paths)
