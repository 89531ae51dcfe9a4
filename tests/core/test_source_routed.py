"""Source-routed Nue: the §3 variant for explicit-path technologies."""

import pytest

from repro.core import NueRouting
from repro.core.source_routed import SourceRoutedNue
from repro.metrics import gamma_summary
from repro.metrics.deadlock import explicit_paths_deadlock_free
from repro.network.topologies import (
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
)


def check_paths(net, result):
    """Common contract: every pair routed, every path well-formed."""
    for (s, d), path in result.paths.items():
        assert path, f"empty path {s}->{d}"
        assert net.channel_src[path[0]] == s
        assert net.channel_dst[path[-1]] == d
        for a, b in zip(path, path[1:]):
            assert net.channel_dst[a] == net.channel_src[b]
        nodes = result.path_nodes(s, d)
        assert len(set(nodes)) == len(nodes), "path revisits a node"


@pytest.mark.parametrize("build", [
    paper_ring_with_shortcut,
    lambda: ring(6, 1),
    lambda: torus([3, 3, 3], 1),
    lambda: random_topology(12, 30, 2, seed=8),
])
@pytest.mark.parametrize("k", [1, 2])
def test_valid_and_deadlock_free(build, k):
    net = build()
    router = SourceRoutedNue(k)
    pairs = None
    if not net.terminals:
        nodes = list(range(net.n_nodes))
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
    result = router.route_pairs(net, pairs, seed=3)
    check_paths(net, result)
    assert result.n_vls <= k
    assert explicit_paths_deadlock_free(
        net,
        ((p, result.vls[pair]) for pair, p in result.paths.items()),
    )


def test_pair_subset():
    net = ring(6, 1)
    t = net.terminals
    pairs = [(t[0], t[3]), (t[2], t[5])]
    result = SourceRoutedNue(1).route_pairs(net, pairs, seed=1)
    assert set(result.paths) == set(pairs)


def test_pairs_may_diverge_at_a_node():
    """The defining freedom over destination-based routing: two pairs
    with the same destination may leave a shared node differently.
    (Just assert the mechanism runs and stays deadlock-free; divergence
    itself is workload-dependent.)"""
    net = torus([4, 4], 1)
    result = SourceRoutedNue(1).route_pairs(net, seed=5)
    check_paths(net, result)
    assert explicit_paths_deadlock_free(
        net,
        ((p, result.vls[pair]) for pair, p in result.paths.items()),
    )


def test_fallbacks_counted():
    net = torus([4, 4, 3], 1)
    result = SourceRoutedNue(1).route_pairs(net, seed=2)
    assert result.fallbacks >= 0
    assert result.stats["pairs"] == len(result.paths)


def test_deterministic():
    net = random_topology(10, 25, 2, seed=4)
    a = SourceRoutedNue(2).route_pairs(net, seed=9)
    b = SourceRoutedNue(2).route_pairs(net, seed=9)
    assert a.paths == b.paths
    assert a.vls == b.vls


def test_balance_vs_destination_based():
    """§3's trade-off at k = 1: explicit per-pair routes have strictly
    more freedom than one next hop per destination, so their Γ_max
    stays within 1.5x of destination-based Nue's (and deadlock-free)."""
    net = torus([4, 4], 2)
    g_dest = gamma_summary(NueRouting(1).route(net, seed=6)).maximum
    result = SourceRoutedNue(1).route_pairs(net, seed=6)
    assert explicit_paths_deadlock_free(
        net,
        ((p, result.vls[pair]) for pair, p in result.paths.items()),
    )
    loads = {}
    for path in result.paths.values():
        for c in path:
            if all(net.is_switch(v) for v in net.endpoints(c)):
                loads[c] = loads.get(c, 0) + 1
    assert max(loads.values()) <= 1.5 * g_dest


def test_bad_k():
    with pytest.raises(ValueError):
        SourceRoutedNue(0)
