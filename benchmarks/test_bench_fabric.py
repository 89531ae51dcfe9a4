"""Shared-memory fabric speedup guards (the PR 5 performance claim).

The destination-sharded kernels must buy real wall-clock even at
``k=1`` — the regime where Nue's layer fan-out has nothing to
parallelise: Up*/Down* and MinHop routing on the 4x4x3 torus reference
and the per-destination metrics sweeps must run >= 2x faster on
4 workers than serially.  (The sweeps are array table walks that
finish the 4x4x3 reference in about a pool round trip, so their
fan-out is guarded on the 13x13x12 torus' 2.1 M pairs; on the small
reference a second guard bounds the serial sweep by the route it
measures.)  Every guard records ``serial_s`` /
``parallel_s`` / ``speedup`` in its ``extra_info`` (kept by
``--benchmark-json``).  The last guard is the layer fan-out's: Nue
k=4 on 4 workers >= 1.5x over serial.

Guards skip (not fail) below 4 cores — see ``conftest.needs_cores``.
"""

import time

import pytest

from conftest import needs_cores
from repro.core import NueRouting
from repro.engine import fabric
from repro.metrics import edge_forwarding_indices, path_length_stats
from repro.network.topologies import random_topology, torus
from repro.routing import make_algorithm
from repro.routing.dor import DORRouting

WORKERS = 4
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def net():
    # 16 terminals per switch: 768 destination columns, enough serial
    # wall-clock (~0.2s updn) that pool overhead cannot mask the signal
    return torus([4, 4, 3], 16)


@pytest.fixture(scope="module", autouse=True)
def _fresh_fabric():
    """Each module run starts and ends with a cold fabric."""
    fabric.shutdown()
    yield
    fabric.shutdown()


@pytest.fixture(scope="module")
def nets():
    # the largest network of the Prop. 1 scaling sweep
    return {128: random_topology(128, 128 * 3, 2, seed=3)}


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _record_speedup(benchmark, serial, parallel, label):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "serial_s": round(serial, 4),
        "parallel_s": round(parallel, 4),
        "speedup": round(serial / parallel, 2),
    })
    assert parallel > 0
    assert serial / parallel >= MIN_SPEEDUP, (
        f"{label} destination sharding too slow: {serial:.3f}s serial vs "
        f"{parallel:.3f}s on {WORKERS} workers "
        f"({serial / parallel:.2f}x < {MIN_SPEEDUP}x)"
    )


@needs_cores
def test_bench_fabric_updn_speedup(benchmark, net):
    """Up*/Down* at k=1: dest-sharded trees + port selection >= 2x."""
    make_algorithm("updn", 8, workers=WORKERS).route(net, seed=7)  # warm
    serial = _best_of(
        lambda: make_algorithm("updn", 8, workers=1).route(net, seed=7))
    parallel = _best_of(
        lambda: make_algorithm("updn", 8, workers=WORKERS).route(
            net, seed=7))
    _record_speedup(benchmark, serial, parallel, "updn")


@needs_cores
def test_bench_fabric_minhop_speedup(benchmark, net):
    """MinHop at k=1: dest-sharded BFS + port selection >= 2x."""
    make_algorithm("minhop", 8, workers=WORKERS).route(net, seed=7)
    serial = _best_of(
        lambda: make_algorithm("minhop", 8, workers=1).route(net, seed=7))
    parallel = _best_of(
        lambda: make_algorithm("minhop", 8, workers=WORKERS).route(
            net, seed=7))
    _record_speedup(benchmark, serial, parallel, "minhop")


@needs_cores
def test_bench_fabric_metrics_speedup(benchmark):
    """Per-destination metrics sweeps (gamma + path lengths) >= 2x.

    Reference: DOR tables toward 1024 terminals of the 13x13x12 torus,
    2.1 M terminal pairs (~0.8 s serial) — large enough that the
    column-sharded table walks, not the pool round trip and the table's
    scratch export, are what is timed.
    """
    big = torus([13, 13, 12], 1)
    routed = DORRouting(workers=1).route(
        big, seed=7, dests=list(big.terminals)[:1024])

    def sweep(workers):
        edge_forwarding_indices(routed, workers=workers)
        path_length_stats(routed, workers=workers)

    sweep(WORKERS)  # warm the pool and the shm export
    serial = _best_of(lambda: sweep(1))
    parallel = _best_of(lambda: sweep(WORKERS))
    _record_speedup(benchmark, serial, parallel, "metrics sweep")


@needs_cores
def test_bench_fabric_metrics_sweep_cheaper_than_route(benchmark, net):
    """Analysing finished tables costs less than routing them.

    The claim the array table walk was built for, on the 768-column
    reference: gamma + path lengths (serial) against the serial
    Up*/Down* route they measure.
    """
    algo = make_algorithm("updn", 8, workers=1)
    routed = algo.route(net, seed=7)

    def sweep():
        edge_forwarding_indices(routed, workers=1)
        path_length_stats(routed, workers=1)

    route = _best_of(lambda: algo.route(net, seed=7))
    serial = _best_of(sweep)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "sweep_s": round(serial, 4),
        "route_s": round(route, 4),
    })
    assert serial <= route, (
        f"metrics sweep {serial:.3f}s costs more than the updn route "
        f"it measures ({route:.3f}s)"
    )


@needs_cores
def test_bench_fabric_shm_export_amortised(benchmark, net):
    """The zero-copy claim in time: with the export warm, a repeat
    parallel route must not re-export (one segment per fingerprint for
    the whole run) and the second call must not be slower than the
    first by the cost of a network pickle."""
    from repro import obs

    fabric.shutdown()
    obs.enable(obs.MemorySink(keep_events=False))
    algo = make_algorithm("updn", 8, workers=WORKERS)
    t0 = time.perf_counter()
    algo.route(net, seed=7)
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    algo.route(net, seed=7)
    second = time.perf_counter() - t0
    counts = dict(obs.counters())
    obs.disable()
    obs.reset()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "first_s": round(first, 4),
        "second_s": round(second, 4),
        "shm_exports": counts.get("fabric.shm_exports", 0),
        "pool_spawns": counts.get("fabric.pool_spawns", 0),
    })
    assert counts.get("fabric.shm_exports") == 1
    assert counts.get("fabric.pool_spawns") == 1
    assert counts.get("fabric.net_pickle_fallbacks", 0) == 0


@needs_cores
def test_engine_parallel_speedup_nue_k4(nets):
    """The repro.engine pool must actually buy wall-clock: Nue k=4
    (4 independent layers) on 4 workers vs serial, >= 1.5x on a
    4-core runner.  Best-of-2 per mode smooths scheduler noise."""
    import time

    net = nets[128]
    NueRouting(4, workers=1).route(net, seed=3)  # warm caches/imports

    def best_of(workers, rounds=2):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            NueRouting(4, workers=workers).route(net, seed=3)
            best = min(best, time.perf_counter() - t0)
        return best

    serial = best_of(1)
    parallel = best_of(4)
    assert parallel > 0
    speedup = serial / parallel
    assert speedup >= 1.5, (
        f"parallel layer routing too slow: {serial:.3f}s serial vs "
        f"{parallel:.3f}s on 4 workers ({speedup:.2f}x < 1.5x)"
    )
