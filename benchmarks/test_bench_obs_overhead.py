"""Guards: obs overhead per routing step — disabled < 3 %, live bus < 10 %.

The instrumentation threaded through the routing core was designed so
that the *disabled* path (the default) costs almost nothing: hot loops
tally plain local integers and route_batch flushes them through a single
``obs.enabled()``-gated call, and ``obs.span`` hands back a shared
no-op object.  This benchmark turns that design claim into a regression
test: it prices the disabled-path primitives per call, multiplies by
how often a routing step actually touches them (taken from the live
counters of the same workload), and asserts the total stays below 3 %
of the measured median single-destination routing step on a
60-switch random topology.

The second guard prices the *live telemetry plane*'s worker-side path:
the same workload with every event streamed through a
``BusSink`` → bounded bus (what a streaming pool worker runs) must
keep the median routing step within 10 % of the disabled baseline,
with zero drops at the default buffer.
"""

import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.cdg.complete_cdg import CompleteCDG
from repro.core.dijkstra import NueLayerRouter
from repro.core.escape import EscapePaths
from repro.network.topologies import random_topology

OVERHEAD_BUDGET = 0.03  # disabled path, fraction of a routing step
LIVE_BUDGET = 0.10      # live-bus streaming path, same denominator


@pytest.fixture(scope="module")
def net():
    return random_topology(60, 300, 4, seed=21)


def _per_call_ns(fn, n=200_000):
    fn()  # warm up
    t0 = time.perf_counter_ns()
    for _ in range(n):
        fn()
    return (time.perf_counter_ns() - t0) / n


def _local_add_ns(n=200_000):
    """Cost of one ``x += 1`` — what the hot loops pay per tally."""
    def base():
        s = 0
        for _ in range(n):
            pass
        return s

    def adds():
        a = b = c = d = 0
        for _ in range(n):
            a += 1
            b += 1
            c += 1
            d += 1
        return a + b + c + d

    base()
    adds()
    t0 = time.perf_counter_ns()
    base()
    t_base = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    adds()
    t_adds = time.perf_counter_ns() - t0
    return max(0.0, (t_adds - t_base) / (4 * n))


def _median_step_ns_any(net, repeats=5):
    """Median single routing-step wall clock under the current obs state."""
    medians = []
    for _ in range(repeats):
        cdg = CompleteCDG(net)
        escape = EscapePaths(net, cdg, 0, net.terminals)
        router = NueLayerRouter(net, cdg, escape)
        samples = []
        block = np.full((net.n_nodes, 1), -1, dtype=np.int32)
        for dest in net.terminals[:10]:
            t0 = time.perf_counter_ns()
            router.route_batch([dest], block)
            samples.append(time.perf_counter_ns() - t0)
        medians.append(statistics.median(samples))
    return statistics.median(medians)


def _median_step_ns(net, repeats=5):
    """Median single routing-step wall clock, observability off."""
    assert not obs.enabled()
    return _median_step_ns_any(net, repeats)


def _per_step_touches(net):
    """How often one routing step touches the tallies, from live counters."""
    obs.reset()
    obs.enable(obs.MemorySink(keep_events=False))
    cdg = CompleteCDG(net)
    escape = EscapePaths(net, cdg, 0, net.terminals)
    router = NueLayerRouter(net, cdg, escape)
    block = np.full((net.n_nodes, 10), -1, dtype=np.int32)
    router.route_batch(net.terminals[:10], block)
    obs.disable()
    c = obs.counters()
    steps = c["nue.route_steps"]
    # pops tally twice (pop + possible stale branch), pushes and
    # relaxations once each; ~10 covers the fixed per-step bookkeeping
    adds = (2 * c["nue.heap_pops"] + c["nue.heap_pushes"]
            + c["nue.relaxations"]) / steps + 10
    enabled_checks = 2  # route_batch step flush + resolve_islands flush
    obs.reset()
    return adds, enabled_checks


def test_noop_obs_path_within_budget(net):
    enabled_ns = _per_call_ns(obs.enabled)
    span_ns = _per_call_ns(lambda: obs.span("x"))
    add_ns = _local_add_ns()
    adds_per_step, checks_per_step = _per_step_touches(net)

    step_ns = _median_step_ns(net)
    # worst case per step: every tally add, every enabled() gate, and
    # one disabled span for good measure (steps themselves have none)
    overhead_ns = (adds_per_step * add_ns
                   + checks_per_step * enabled_ns
                   + span_ns)
    ratio = overhead_ns / step_ns

    print(f"\nenabled()={enabled_ns:.1f}ns span()={span_ns:.1f}ns "
          f"add={add_ns:.2f}ns adds/step={adds_per_step:.0f} "
          f"step={step_ns / 1e6:.2f}ms overhead={ratio * 100:.3f}%")
    assert ratio < OVERHEAD_BUDGET, (
        f"disabled obs path costs {ratio * 100:.2f}% of a routing step "
        f"(budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )


def test_live_bus_streaming_within_budget(net):
    """Worker-side streaming (BusSink -> bounded bus) stays under 10 %."""
    from repro.obs import live

    assert not obs.enabled()
    baseline = _median_step_ns(net)

    bus = live.InProcBus()
    obs.reset()
    obs.enable(live.BusSink(bus.publish))
    try:
        streamed = _median_step_ns_any(net)
    finally:
        # pump only after disable(): with the BusSink still attached the
        # aggregator's streamed re-emit would feed the bus it drains
        obs.disable()
    folded = live.LiveAggregator(bus).pump()
    obs.reset()

    ratio = max(0.0, streamed - baseline) / baseline
    print(f"\nbaseline={baseline / 1e6:.2f}ms "
          f"streamed={streamed / 1e6:.2f}ms overhead={ratio * 100:.2f}% "
          f"folded={folded} dropped={bus.dropped}")
    assert folded > 0, "streaming produced no events to fold"
    assert bus.dropped == 0, "default buffer must absorb this workload"
    assert ratio < LIVE_BUDGET, (
        f"live-bus streaming costs {ratio * 100:.2f}% of a routing step "
        f"(budget {LIVE_BUDGET * 100:.0f}%)"
    )


def test_disabled_primitives_are_cheap():
    """Absolute sanity floor: each disabled primitive is sub-microsecond."""
    assert not obs.enabled()
    assert _per_call_ns(obs.enabled, n=50_000) < 1_000
    assert _per_call_ns(lambda: obs.count("x"), n=50_000) < 1_000
    assert _per_call_ns(lambda: obs.span("x"), n=50_000) < 1_000
