"""Engine bit-identity contract: ``workers=N`` equals ``workers=1``.

The engine's central guarantee (and the reason ``workers`` is excluded
from the route-cache key): fanning Nue's per-layer routing over a
process pool must produce the *same bits* as the serial loop — same
``next_channel`` table, same ``vl`` assignment, same stats counters.
"""

import numpy as np
import pytest

from repro.core import NueRouting
from repro.network.topologies import (
    k_ary_n_tree,
    paper_ring_with_shortcut,
    ring,
    torus,
)

TOPOLOGIES = [
    ("ring8", lambda: ring(8, 2)),
    ("torus33", lambda: torus([3, 3], 2)),
    ("tree32", lambda: k_ary_n_tree(3, 2)),
]


def assert_results_identical(a, b):
    assert np.array_equal(a.next_channel, b.next_channel)
    assert np.array_equal(a.vl, b.vl)
    assert a.n_vls == b.n_vls
    assert a.algorithm == b.algorithm
    assert a.stats == b.stats


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize(
    "builder", [b for _, b in TOPOLOGIES], ids=[n for n, _ in TOPOLOGIES]
)
def test_parallel_matches_serial(builder, k):
    net = builder()
    serial = NueRouting(k, workers=1).route(net, seed=11)
    parallel = NueRouting(k, workers=2).route(net, seed=11)
    assert_results_identical(serial, parallel)


def test_worker_count_does_not_matter():
    net = torus([3, 3], 2)
    results = [
        NueRouting(4, workers=w).route(net, seed=5) for w in (1, 2, 3, 4)
    ]
    for other in results[1:]:
        assert_results_identical(results[0], other)


def test_workers_zero_means_all_cores():
    net = ring(6, 1)
    serial = NueRouting(2, workers=1).route(net, seed=3)
    all_cores = NueRouting(2, workers=0).route(net, seed=3)
    assert_results_identical(serial, all_cores)


class TestFig2aSmoke:
    """Serial/parallel equality on the paper's Fig. 2a ring — the
    minimal end-to-end check the CI engine-smoke job runs."""

    def test_fig2a_parallel_equals_serial(self):
        net = paper_ring_with_shortcut()
        serial = NueRouting(2, workers=1).route(net, seed=1)
        parallel = NueRouting(2, workers=2).route(net, seed=1)
        assert_results_identical(serial, parallel)
        assert serial.n_vls >= 1


class TestLegacyCSREquality:
    """Bit-identity of the CSR hot path vs the frozen pre-CSR oracle.

    ``repro.legacy.nue_ref`` is the pre-refactor Nue implementation,
    frozen verbatim.  The CSR rebase (dense CDG state, array scratch,
    list-mirror hot loops) is pure representation work: every routing
    decision — distances, tie-breaks, PK reorders, backtracking —
    must come out identical, so the forwarding tables must match bit
    for bit on every reference topology, including a degraded one.
    """

    CASES = [
        ("ring8", lambda: ring(8, 2), 1),
        ("ring8_k2", lambda: ring(8, 2), 2),
        ("torus443", lambda: torus([4, 4, 3], 2), 1),
        ("torus443_k2", lambda: torus([4, 4, 3], 2), 2),
        ("tree32", lambda: k_ary_n_tree(3, 2), 1),
        ("tree32_k3", lambda: k_ary_n_tree(3, 2), 3),
        (
            "torus443_faulted",
            lambda: _faulted_torus(),
            2,
        ),
    ]

    @pytest.mark.parametrize(
        "builder,k",
        [(b, k) for _, b, k in CASES],
        ids=[n for n, _, _ in CASES],
    )
    def test_csr_matches_legacy(self, builder, k):
        from repro.legacy import legacy_nue_route

        net = builder()
        result = NueRouting(k, workers=1).route(net, seed=11)
        nxt, vl, n_vls = legacy_nue_route(net, max_vls=k, seed=11)
        assert np.array_equal(result.next_channel, nxt)
        assert np.array_equal(result.vl, vl)
        assert result.n_vls == n_vls


def _faulted_torus():
    from repro.network.faults import inject_random_link_faults

    return inject_random_link_faults(torus([4, 4, 3], 2), 0.05, seed=3)


class TestShardedBaselines:
    """Destination-sharded baseline kernels equal their serial runs.

    PR 5 moved every per-destination baseline onto the shared-memory
    fabric (``shard_destinations`` + the persistent pool); the engine
    contract extends to them: tables, VL assignment and stats must be
    bit-identical for any worker count — the speedup may never change
    a routing decision.
    """

    CASES = [
        ("updn", lambda: torus([4, 4, 3], 2)),
        ("dnup", lambda: torus([4, 4, 3], 2)),
        ("minhop", lambda: torus([4, 4, 3], 2)),
        ("dor", lambda: torus([4, 4, 3], 2)),
        ("torus-2qos", lambda: torus([4, 4, 3], 2)),
        ("dfsssp", lambda: torus([4, 4, 3], 2)),
        ("updn", lambda: k_ary_n_tree(3, 2)),
        ("ftree", lambda: k_ary_n_tree(3, 2)),
        ("dfsssp", lambda: k_ary_n_tree(3, 2)),
    ]

    @pytest.mark.parametrize(
        "alg,builder", CASES,
        ids=[f"{a}-{i}" for i, (a, _) in enumerate(CASES)],
    )
    def test_sharded_matches_serial(self, alg, builder):
        from repro.routing import make_algorithm

        net = builder()
        serial = make_algorithm(alg, 8, workers=1).route(net, seed=7)
        for w in (2, 3):
            sharded = make_algorithm(alg, 8, workers=w).route(net, seed=7)
            assert_results_identical(serial, sharded)


class TestShardedMetrics:
    """Per-destination metrics sweeps merge exactly across shards."""

    @pytest.fixture(scope="class")
    def routed(self):
        from repro.routing import make_algorithm

        net = torus([4, 4, 3], 2)
        return make_algorithm("updn", 8, workers=1).route(net, seed=7)

    def test_forwarding_index_identical(self, routed):
        from repro.metrics import edge_forwarding_indices, gamma_summary

        serial = edge_forwarding_indices(routed, workers=1)
        for w in (2, 3):
            assert np.array_equal(
                serial, edge_forwarding_indices(routed, workers=w))
        assert gamma_summary(routed, workers=1) == \
               gamma_summary(routed, workers=3)

    def test_path_length_stats_identical(self, routed):
        from repro.metrics import path_length_stats

        serial = path_length_stats(routed, workers=1)
        for w in (2, 3):
            assert path_length_stats(routed, workers=w) == serial

    def test_reachable_pairs_identical(self, routed):
        from repro.resilience.engine import _reachable_pairs

        serial = _reachable_pairs(routed, workers=1)
        assert _reachable_pairs(routed, workers=3) == serial
        assert serial[1] > 0

    @pytest.mark.parametrize("defect", ["hole", "loop"])
    def test_census_of_broken_tables_identical(self, routed, defect):
        """A ``-1`` hole or a forwarding loop in a late column and an
        early one: counts, first unrouted pair, every view and the
        validation error agree at ``workers`` 1 and 3."""
        import dataclasses

        from repro.metrics import (
            ValidationError,
            edge_forwarding_indices,
            path_length_stats,
            validate_routing,
        )
        from repro.resilience.engine import _reachable_pairs
        from repro.routing.walk import census

        net = routed.net
        broken = dataclasses.replace(
            routed, next_channel=routed.next_channel.copy())
        a, b = net.switches[0], net.switches[1]
        for j in (len(broken.dests) - 1, 2):
            if defect == "hole":
                broken.next_channel[a, j] = -1
            else:
                broken.next_channel[a, j] = net.find_channels(a, b)[0]
                broken.next_channel[b, j] = net.find_channels(b, a)[0]
        serial, sharded = (census(broken, net.terminals, workers=w)
                           for w in (1, 3))
        assert np.array_equal(serial.channel_routes, sharded.channel_routes)
        assert np.array_equal(serial.hops, sharded.hops)
        assert serial.unrouted == sharded.unrouted > 0
        assert serial.first_unrouted == sharded.first_unrouted
        assert broken.dests.index(serial.first_unrouted[1]) == 2
        routed_pairs = int(serial.hops.sum())
        for w in (1, 3):
            assert np.array_equal(
                edge_forwarding_indices(broken, workers=w),
                serial.channel_routes)
            assert path_length_stats(broken, workers=w).n_routes == \
                routed_pairs
            assert _reachable_pairs(broken, workers=w) == (
                routed_pairs, routed_pairs + serial.unrouted)
        with pytest.raises(ValidationError) as err:
            validate_routing(broken, check_deadlock=False)
        # validate walks every node as a source; its first failing
        # pair is in the early column too
        src, dest = census(broken, range(net.n_nodes)).first_unrouted
        assert dest == broken.dests[2]
        name = net.node_names
        assert str(err.value) == (
            f"no route from {name[src]} to {name[dest]} "
            f"(stuck at {name[a]})" if defect == "hole" else
            f"forwarding loop routing {name[src]} -> {name[dest]}")
