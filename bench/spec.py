"""The benchmark's contract: workload names, metric names, units, bounds.

One table each; ``BENCHMARK.json`` and ``bench/README.md`` repeat them
and ``bench/tests`` checks that ``BENCHMARK.json`` still agrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    ops: int        #: fixed op count of one ``bench run`` repeat
    why: str        #: one line, repeated in BENCHMARK.json


WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec(
        "route-ftree", 40,
        "Cold Nue route with zero impasses (6-ary 3-tree, k=4): root "
        "selection and the batch-kernel fast path; impasse code idle."),
    WorkloadSpec(
        "route-torus", 24,
        "Same call on torus 6x6x6, k=2: escape fallbacks, islands and "
        "thousands of CDG cycle searches per op; the cold impasse path."),
    WorkloadSpec(
        "rpc-small", 1200,
        "Seeded op mix over loopback tcp on five small fabrics, 2 "
        "connections: per-request service cost dominates, tables tiny."),
    WorkloadSpec(
        "rpc-table", 12,
        "DOR on torus 13x13x12 via daemon --workers 2 --no-cache: 272 KB "
        "in, 10 MB binary frame out; table store and framing, no core."),
    WorkloadSpec(
        "campaign-torus", 14,
        "3-event link-fault campaign on torus 4x4x3 t4, k=2: dirty set, "
        "incremental repair, exact fallback, per-event validation."),
    WorkloadSpec(
        "analyze-torus", 16,
        "validate + deadlock + required VCs + gamma + path stats on "
        "pre-routed torus 6x6x6 tables: metrics/layering only, no core."),
    WorkloadSpec(
        "simulate-torus", 6,
        "Flow-level all-to-all plus flit-level load point 0.3 on the "
        "same pre-routed tables: repro.fabric scalar simulators only."),
]

WORKLOAD_NAMES: List[str] = [w.name for w in WORKLOADS]

#: ``bench run`` measures every workload this many times (same seed,
#: same ops, minutes apart), so that a ledger file knows the spread
#: between its commit's own runs and ``bench diff`` can tell a
#: regression from the host's mood
REPEATS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 #: "lower" | "higher"
    #: regression bound of ``bench diff`` (ISSUE 11's): a share of the
    #: old value for ``rel`` metrics, 0.0 for the exact and absolute ones
    bound: float = 0.0
    #: "rel": worse by more than ``bound`` x old is a regression;
    #: "exact": must match to 1e-9 relative, a difference is reported
    #: with its direction; "none": any rise is a regression
    kind: str = "rel"
    #: absolute slack added to a ``rel`` bound (set-up: "25 % or 0.3 s")
    abs_slack: float = 0.0
    #: the bound under ``end_to_end`` in BENCHMARK.json, for the metrics
    #: every workload reports and that are never 0; ``None`` for the
    #: others, which ride in its ``per_layer`` list.  The PR driver
    #: accepts a benchmark only if the spread of ten ten-second runs on
    #: ten seeds stays inside this bound on every workload — on this box
    #: ``rpc-small`` (raw wall times) spreads by up to 0.19 — so the
    #: timing rows carry the 0.25 the driver allows at most
    driver_bound: Optional[float] = None


#: the ledger's end-to-end metrics.  The timing rows are reported by
#: every workload; quality rows only where tables or simulations exist.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, abs_slack=0.3, driver_bound=0.25),
    Metric("request_p50_s", "s", "lower", 0.10, driver_bound=0.25),
    Metric("request_p95_s", "s", "lower", 0.15),
    Metric("requests_per_s", "1/s", "higher", 0.10, driver_bound=0.25),
    Metric("failed_frac", "frac", "lower", kind="none"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, driver_bound=0.10),
    Metric("fallback_frac", "frac", "lower", kind="exact"),
    Metric("gamma_max", "count", "lower", kind="exact"),
    Metric("path_len_avg", "hops", "lower", kind="exact"),
    Metric("events_survived_frac", "frac", "higher", kind="exact"),
    Metric("a2a_throughput_gbs", "GB/s", "higher", kind="exact"),
    Metric("flit_accepted_load", "frac", "higher", kind="exact"),
]

END_TO_END_BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}

#: relative tolerance of the ``exact`` metrics
EXACT_RTOL = 1e-9

#: per-layer metrics of the traced run: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("network.build_s", "s", "lower"),
    ("network.csr_s", "s", "lower"),
    ("network.faults.remove_links_s", "s", "lower"),
    ("io.topofile.format_s", "s", "lower"),
    ("io.topofile.parse_s", "s", "lower"),
    ("io.topofile.bytes", "bytes", "lower"),
    ("partition.plan_layers_s", "s", "lower"),
    ("partition.imbalance", "ratio", "lower"),
    ("core.root.select_s", "s", "lower"),
    ("core.escape.mark_s", "s", "lower"),
    ("core.escape.initial_deps", "count", "lower"),
    ("core.kernels.route_batch_s", "s", "lower"),
    ("core.kernels.dests_per_s", "1/s", "higher"),
    ("core.backtrack.fallbacks", "count", "lower"),
    ("core.backtrack.islands_resolved", "count", "lower"),
    ("core.backtrack.shortcuts_taken", "count", "higher"),
    ("cdg.init_s", "s", "lower"),
    ("cdg.verify_acyclic_s", "s", "lower"),
    ("cdg.cycle_searches", "count", "lower"),
    ("routing.make_algorithm_s", "s", "lower"),
    ("routing.dor.route_s", "s", "lower"),
    ("engine.fingerprint_s", "s", "lower"),
    ("engine.export_network_s", "s", "lower"),
    ("engine.table.create_s", "s", "lower"),
    ("engine.table.scatter_s", "s", "lower"),
    ("engine.table.copy_out_s", "s", "lower"),
    ("engine.fanout_wait_s", "s", "lower"),
    ("engine.pool_spawns", "count", "lower"),
    ("engine.table_writes", "count", "lower"),
    ("engine.result_exports", "count", "lower"),
    ("engine.cache_hits", "count", "higher"),
    ("metrics.validate_s", "s", "lower"),
    ("metrics.deadlock_s", "s", "lower"),
    ("metrics.required_vcs_s", "s", "lower"),
    ("metrics.gamma_s", "s", "lower"),
    ("metrics.path_stats_s", "s", "lower"),
    ("fabric.flow.a2a_s", "s", "lower"),
    ("fabric.flit.schedule_s", "s", "lower"),
    ("fabric.flit.run_s", "s", "lower"),
    ("fabric.flit.cycles", "count", "lower"),
    ("fabric.flit.cycles_per_s", "1/s", "higher"),
    ("fabric.flit.delivered_packets", "count", "higher"),
    ("resilience.dirty_s", "s", "lower"),
    ("resilience.incremental_s", "s", "lower"),
    ("resilience.exact_s", "s", "lower"),
    ("resilience.incremental_refused", "count", "lower"),
    ("resilience.dests_recomputed_frac", "frac", "lower"),
    ("reconfig.transition_s", "s", "lower"),
    ("reconfig.n_swaps", "count", "higher"),
    ("reconfig.n_drains", "count", "lower"),
    ("reconfig.proofs", "count", "lower"),
    ("service.encode_request_s", "s", "lower"),
    ("service.decode_response_s", "s", "lower"),
    ("service.frame_bytes_in", "bytes", "lower"),
    ("service.frame_bytes_out", "bytes", "lower"),
    ("service.wire_mb_per_s", "MB/s", "higher"),
    ("service.ping_rtt_p50_s", "s", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.rpc.route.p50_s", "s", "lower"),
    ("service.rpc.analyze.p50_s", "s", "lower"),
    ("service.rpc.reroute.p50_s", "s", "lower"),
    ("service.rpc.transition.p50_s", "s", "lower"),
    ("service.hot_hit_p50_s", "s", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.networks_admitted", "count", "lower"),
    ("service.overloaded", "count", "lower"),
    ("trace.composed_vs_api_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

#: BENCHMARK.json requires every end-to-end metric on every workload
#: and never 0, so the workload-specific rows of END_TO_END ride in its
#: ``per_layer`` list (no bound there) under these names; ``bench diff``
#: still enforces their own bounds on ledger files
DRIVER_EXTRA_PREFIX = "e2e."


def driver_end_to_end() -> List[Metric]:
    return [m for m in END_TO_END if m.driver_bound is not None]


def driver_per_layer() -> List[Tuple[str, str, str]]:
    extra = [(DRIVER_EXTRA_PREFIX + m.name, m.unit, m.better)
             for m in END_TO_END if m.driver_bound is None]
    return PER_LAYER + extra


#: accounting-closure limits of the traced run, per workload: both
#: ``trace.unattributed_frac`` and ``trace.composed_vs_api_frac`` must
#: stay at or below this, else ``--trace`` fails
CLOSURE_LIMIT: Dict[str, float] = {
    "route-ftree": 0.10,
    "route-torus": 0.10,
    "analyze-torus": 0.10,
    "simulate-torus": 0.10,
    "campaign-torus": 0.20,
    "rpc-small": 0.20,
    "rpc-table": 0.20,
}

