"""Micro-benchmarks of the routing core's hot kernels.

Not a paper figure — the engineering baseline that keeps the
experiment harnesses tractable: the Pearce–Kelly cycle machinery (the
§4.6.1 memoization), the modified Dijkstra, and the escape marking.
"""

import numpy as np
import pytest

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.dijkstra import NueLayerRouter
from repro.core.escape import EscapePaths
from repro.network.topologies import random_topology
from repro.utils.heap import PairingHeap


@pytest.fixture(scope="module")
def net():
    return random_topology(60, 300, 4, seed=21)


def test_bench_cdg_edge_inserts(benchmark, net):
    """Insert every complete-CDG edge once (worst case: full density)."""

    def insert_all():
        cdg = CompleteCDG(net)
        accepted = 0
        for cp in range(net.n_channels):
            for cq in cdg.out_dependencies(cp):
                accepted += cdg.try_use_edge(cp, cq)
        return cdg, accepted

    cdg, accepted = benchmark(insert_all)
    benchmark.extra_info["accepted"] = accepted
    benchmark.extra_info["blocked"] = cdg.n_blocked_edges
    cdg.assert_acyclic()


def test_bench_escape_marking(benchmark, net):
    def build():
        cdg = CompleteCDG(net)
        return EscapePaths(net, cdg, 0, net.terminals)

    esc = benchmark(build)
    benchmark.extra_info["initial_dependencies"] = esc.initial_dependencies


def test_bench_single_routing_step(benchmark, net):
    cdg = CompleteCDG(net)
    escape = EscapePaths(net, cdg, 0, net.terminals)
    router = NueLayerRouter(net, cdg, escape)
    dests = iter(net.terminals)
    block = np.full((net.n_nodes, 1), -1, dtype=np.int32)

    def step():
        return router.route_batch([next(dests)], block)

    benchmark.pedantic(step, rounds=10, iterations=1, warmup_rounds=0)


def test_bench_pairing_heap(benchmark):
    def churn():
        h = PairingHeap()
        for i in range(2000):
            h.push(i, float((i * 7919) % 104729))
        for i in range(0, 2000, 3):
            h.decrease_key(i, -float(i))
        drained = 0
        while h:
            h.pop()
            drained += 1
        return drained

    assert benchmark(churn) == 2000
