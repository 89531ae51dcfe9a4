"""Section 4.6.2/4.6.3: engineered impasses, islands and shortcuts.

The deterministic scenario mirrors Fig. 7's mechanism: the destination
reaches a pocket's gateway through a shortcut channel whose dependency
into the pocket has become a routing restriction, so the pocket is an
island; only the 2-hop backtracking (re-basing the gateway onto its
tree in-channel) — or the escape fallback — can reach it.
"""

from conftest import route_one

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.dijkstra import NueLayerRouter
from repro.core.escape import EscapePaths
from repro.core.nue import NueConfig, NueRouting
from repro.metrics import validate_routing
from repro.network.graph import NetworkBuilder
from repro.network.topologies import torus


def island_network():
    """d -p- u -x pocket with a d-u shortcut.

    The search from ``d`` reaches ``u`` in one hop over the shortcut,
    so the only dependency the main loop can take into the pocket is
    (shortcut -> u-x); blocking it strands ``x``.
    """
    b = NetworkBuilder("island")
    d = b.add_switch("d")
    p = b.add_switch("p")
    u = b.add_switch("u")
    x = b.add_switch("x")
    b.add_link(d, p)
    b.add_link(p, u)
    b.add_link(u, x)
    b.add_link(d, u)  # the shortcut
    return b.build(), d, p, u, x


def shortcut_network():
    """island_network plus a far node y reachable two ways: 5 hops from
    d around the r-c1-t chain, or 4 hops through the pocket x — so
    resolving the island makes x a §4.6.3 shortcut toward y.

    The escape tree is rooted at r; BFS from r makes u's parent p, x's
    parent u and y's parent t, so both blocked dependencies involve a
    non-tree channel (the d-u shortcut; the y-x pocket entry) and are
    legitimate routing restrictions, never escape dependencies.
    """
    b = NetworkBuilder("shortcut")
    r = b.add_switch("r")
    p = b.add_switch("p")
    c1 = b.add_switch("c1")
    d = b.add_switch("d")
    u = b.add_switch("u")
    x = b.add_switch("x")
    y = b.add_switch("y")
    t = b.add_switch("t")
    b.add_link(r, p)
    b.add_link(r, c1)
    b.add_link(p, d)
    b.add_link(p, u)
    b.add_link(u, x)
    b.add_link(d, u)  # the shortcut into the pocket's gateway
    b.add_link(c1, t)
    b.add_link(t, y)
    b.add_link(y, x)
    return b.build(), r, p, d, u, x, y, t


def make_router(net, root, dests, **kw):
    cdg = CompleteCDG(net)
    esc = EscapePaths(net, cdg, root, list(dests))
    return NueLayerRouter(net, cdg, esc, **kw)


def chan(net, a, b):
    return net.find_channels(a, b)[0]


class TestEngineeredImpasse:
    def test_island_resolved_by_backtracking(self):
        net, d, p, u, x = island_network()
        router = make_router(net, p, range(net.n_nodes))
        # the restriction: shortcut channel cannot feed the pocket
        router.cdg.block_edge(chan(net, d, u), chan(net, u, x))
        step, used_channel = route_one(router, d)
        assert not step.fell_back
        assert step.islands_resolved >= 1
        # x is reached, and through the tree in-channel of u (the
        # re-based alternative), i.e. the chain runs x <- u <- p <- d
        assert used_channel[x] == chan(net, u, x)
        assert used_channel[u] == chan(net, p, u)
        router.cdg.assert_acyclic()

    def test_island_falls_back_without_backtracking(self):
        net, d, p, u, x = island_network()
        router = make_router(
            net, p, range(net.n_nodes), enable_backtracking=False
        )
        router.cdg.block_edge(chan(net, d, u), chan(net, u, x))
        step, used_channel = route_one(router, d)
        assert step.fell_back
        assert used_channel[x] >= 0  # escape chains still reach x
        router.cdg.assert_acyclic()

    def test_resolution_respects_existing_children(self):
        """Re-basing u must re-validate the dependency toward its tree
        child; here it is escape-used, so the re-base succeeds and the
        whole step stays acyclic for every destination."""
        net, d, p, u, x = island_network()
        router = make_router(net, p, range(net.n_nodes))
        router.cdg.block_edge(chan(net, d, u), chan(net, u, x))
        for dest in range(net.n_nodes):
            route_one(router, dest)
            router.cdg.assert_acyclic()


class TestShortcuts:
    def test_island_becomes_shortcut(self):
        net, r, p, d, u, x, y, t = shortcut_network()
        router = make_router(net, r, range(net.n_nodes))
        # strand x: block both ways the main loop could enter it
        router.cdg.block_edge(chan(net, d, u), chan(net, u, x))
        router.cdg.block_edge(chan(net, t, y), chan(net, y, x))
        step, used_channel = route_one(router, d)
        assert not step.fell_back
        assert step.islands_resolved >= 1
        assert step.shortcuts_taken >= 1
        # y now routes through the formerly-islanded x (4 hops instead
        # of its original 5 around the chain)
        assert used_channel[y] == chan(net, x, y)
        assert used_channel[x] == chan(net, u, x)
        router.cdg.assert_acyclic()

    def test_shortcuts_disabled_keeps_long_route(self):
        net, r, p, d, u, x, y, t = shortcut_network()
        router = make_router(
            net, r, range(net.n_nodes), enable_shortcuts=False
        )
        router.cdg.block_edge(chan(net, d, u), chan(net, u, x))
        router.cdg.block_edge(chan(net, t, y), chan(net, y, x))
        step, used_channel = route_one(router, d)
        assert step.shortcuts_taken == 0
        assert used_channel[y] == chan(net, t, y)
        assert used_channel[x] >= 0  # island itself still resolved
        router.cdg.assert_acyclic()

    def test_stats_accumulate_on_real_torus(self):
        """At k=1 a 4x4x3 torus routinely produces islands and
        shortcuts (the paper's motivating case)."""
        net = torus([4, 4, 3], 2)
        result = NueRouting(1).route(net, seed=1)
        assert result.stats["islands_resolved"] > 0
        assert result.stats["fallbacks"] == 0

    def test_backtracking_never_adds_fallbacks(self):
        """The §4.6.2 motivation on a 5x5x5 torus at k=1: without
        backtracking the impasses fall back to escape paths; with it
        they never fall back more often."""
        net = torus([5, 5, 5], 2)
        fallbacks = {}
        for label, cfg in {
            "on": NueConfig(),
            "off": NueConfig(enable_backtracking=False,
                             enable_shortcuts=False),
        }.items():
            result = NueRouting(1, cfg).route(net, seed=4)
            validate_routing(result, sources=net.terminals[:10],
                             check_deadlock=False)
            fallbacks[label] = result.stats["fallbacks"]
        assert fallbacks["off"] > 0
        assert fallbacks["on"] <= fallbacks["off"]
