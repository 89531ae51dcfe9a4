"""``route_batch`` against the frozen pre-CSR oracle, state for state.

``repro.legacy.nue_ref`` is the sole reference implementation of the
routing step.  Tables alone could mask divergence, so these tests pin
the *exact* end state one layer leaves behind — used/blocked CDG
edges, Pearce-Kelly order, union-find, weights and every work counter
— to what ``LegacyNueLayerRouter.route_step`` leaves, destination by
destination.

The legacy CDG knows nothing of fail-in-place retirement; routing with
channels retired in the CDG is instead pinned to the oracle routing the
*degraded* network (links removed, channel ids shifted monotonically),
compared through the fault's channel map.
"""

import numpy as np

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.dijkstra import NueLayerRouter
from repro.core.escape import EscapePaths
from repro.core.root import select_root
from repro.legacy import (
    LegacyCompleteCDG,
    LegacyEscapePaths,
    LegacyNueLayerRouter,
)
from repro.network.faults import remove_links
from repro.network.topologies import random_topology, torus

STEP_FIELDS = ("dest", "fell_back", "islands_resolved", "shortcuts_taken",
               "backtrack_rounds", "heap_pops", "stale_pops", "relaxations",
               "heap_pushes")
CDG_COUNTERS = ("n_used_edges", "n_blocked_edges", "cycle_searches",
                "pk_reorders", "pk_reorder_moved")


def _run_batch(net, dests, root, retire=()):
    cdg = CompleteCDG(net)
    for c in retire:
        cdg.retire_channel(c)
    router = NueLayerRouter(net, cdg, EscapePaths(net, cdg, root, dests))
    block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    return router, block, router.route_batch(dests, block)


def _run_legacy(net, dests, root):
    """The oracle: one ``route_step`` per destination."""
    cdg = LegacyCompleteCDG(net)
    router = LegacyNueLayerRouter(
        net, cdg, LegacyEscapePaths(net, cdg, root, dests))
    rev = net.channel_reverse
    block = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
    steps = []
    for col, d in enumerate(dests):
        step = router.route_step(d)
        for v in range(net.n_nodes):
            c = step.used_channel[v]
            block[v, col] = rev[c] if c >= 0 else -1
        block[d, col] = -1
        steps.append(step)
    return router, block, steps


def _assert_steps_identical(sa, sb, label, fields=STEP_FIELDS):
    assert len(sa) == len(sb), label
    for x, y in zip(sa, sb):
        for f in fields:
            assert getattr(x, f) == getattr(y, f), \
                f"{label} dest {x.dest}: step.{f}"


def _assert_layer_states_identical(new, legacy, label):
    """Full end-state equality on one id space."""
    ra, ba, sa = new
    rb, bb, sb = legacy
    np.testing.assert_array_equal(ba, bb, err_msg=label)
    ca, cb = ra.cdg, rb.cdg
    assert ca._used_out == cb._used_out, f"{label}: used-out adjacency"
    assert ca._used_in == cb._used_in, f"{label}: used-in adjacency"
    assert sorted(ca.blocked_edges()) == sorted(cb.blocked_edges()), \
        f"{label}: blocked edges"
    assert ca._ord == cb._ord, f"{label}: PK topological order"
    assert bytes(ca._vertex_used) == bytes(cb._vertex_used), label
    for attr in CDG_COUNTERS:
        assert getattr(ca, attr) == getattr(cb, attr), \
            f"{label}: cdg.{attr}"
    assert ca._uf._parent == cb._uf._parent, f"{label}: union-find"
    assert ca._uf._size == cb._uf._size, f"{label}: union-find sizes"
    assert ca._uf._count == cb._uf._count, f"{label}: union-find count"
    np.testing.assert_array_equal(ra.weights, rb.weights,
                                  err_msg=f"{label}: weights")
    _assert_steps_identical(sa, sb, label)


class TestBatchVsLegacyState:
    """Tentpole pin: ``route_batch`` leaves the *exact* oracle end state
    — CDG edges, PK order, union-find, weights and work counters, not
    just tables."""

    def test_torus(self):
        net = torus([3, 3], 1)
        dests = list(net.terminals)
        root = select_root(net, dests, all_dests=True)
        _assert_layer_states_identical(
            _run_batch(net, dests, root),
            _run_legacy(net, dests, root), "torus33")

    def test_impasses_on_a_bigger_torus(self):
        """4x4x3 at one layer resolves islands and takes shortcuts, so
        the cold path (backtracking, atomic commits, re-wires) is
        compared too."""
        net = torus([4, 4, 3], 2)
        dests = list(net.terminals)
        root = select_root(net, dests, all_dests=True)
        new = _run_batch(net, dests, root)
        assert sum(s.islands_resolved for s in new[2]) > 0
        assert sum(s.shortcuts_taken for s in new[2]) > 0
        _assert_layer_states_identical(
            new, _run_legacy(net, dests, root), "torus443")

    def test_random_multigraph(self):
        net = random_topology(10, 24, 2, seed=5)
        dests = list(net.terminals)
        root = select_root(net, dests, all_dests=True)
        _assert_layer_states_identical(
            _run_batch(net, dests, root),
            _run_legacy(net, dests, root), "random")

    def test_retired_channels(self):
        """Retired channels (the resilience repair path): the layer
        routes exactly as the oracle routes the degraded network —
        same trees, same restrictions, same work — only
        ``relaxations`` differs, since a retired channel's dead CDG
        edges are still scanned (and skipped) here."""
        net = torus([3, 3], 1)
        dests = list(net.terminals)
        root = select_root(net, dests, all_dests=True)
        s2s = [i for i, (u, v) in enumerate(net.links())
               if net.is_switch(u) and net.is_switch(v)]
        fault = remove_links(net, [s2s[0], s2s[7]])
        ra, ba, sa = _run_batch(net, dests, root,
                                retire=fault.failed_channels)
        rb, bb, sb = _run_legacy(fault.net, dests, root)

        cmap = np.array(fault.channel_map + [-1])  # [-1] keeps -1 -> -1
        assert not np.isin(ba, fault.failed_channels).any()
        np.testing.assert_array_equal(cmap[ba], bb)
        ca, cb = ra.cdg, rb.cdg
        assert sorted((cmap[p], cmap[q]) for p, q in ca.used_edges()) \
            == sorted(cb.used_edges())
        assert sorted((cmap[p], cmap[q]) for p, q in ca.blocked_edges()) \
            == sorted(cb.blocked_edges())
        for attr in CDG_COUNTERS:
            assert getattr(ca, attr) == getattr(cb, attr), f"cdg.{attr}"
        survivors = [c for c in range(net.n_channels) if cmap[c] >= 0]
        assert [cmap[c] for c in sorted(survivors, key=ca._ord.__getitem__)] \
            == sorted(range(fault.net.n_channels), key=cb._ord.__getitem__)
        np.testing.assert_array_equal(
            np.array(ra.weights)[survivors], rb.weights)
        _assert_steps_identical(
            sa, sb, "retired",
            fields=[f for f in STEP_FIELDS if f != "relaxations"])
