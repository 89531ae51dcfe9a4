"""``route-ftree`` and ``route-torus``: one cold Nue route per op.

Both call ``api.route(RouteRequest(nue, workers=1))`` with a fresh seed
per op; they differ in what the fabric makes the router do.  The
6-ary 3-tree routes with zero impasses, so its time is root selection
plus the batch kernel's fast path; the 6x6x6 torus at k=2 forces
dozens of escape fallbacks and thousands of CDG cycle searches, which
is exactly the code the fat-tree never enters.

The traced op is the same request re-composed from the functions in
:mod:`bench.probes`, one span per layer; its tables must be
bit-identical to ``api.route``'s, else the trace describes another
program and the run fails.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from repro import api

from bench import stats
from bench.tracer import Tracer
from bench.workloads.base import (
    CheckFailed,
    Variant,
    Workload,
    combine_digests,
    derive_seed,
    engine_counts,
    table_digest,
    timed_median,
)

#: probes the composed Nue pipeline cannot run without
COMPOSED_PROBES = (
    "format_topology", "parse_topology", "build_csr",
    "network_fingerprint", "make_algorithm", "plan_layers",
    "resolve_kernel", "select_root", "CompleteCDG", "EscapePaths",
    "NueLayerRouter", "create_table", "RoutingResult",
)


def composed_nue_route(P: Dict[str, Any], tracer: Tracer, net: Any,
                       max_vls: int, seed: int,
                       counts: Dict[str, float]) -> Any:
    """``api.route(RouteRequest(net, "nue", max_vls, workers=1, seed))``
    spelled out layer by layer.  Returns the ``RouteResponse``;
    ``counts`` receives the per-op work tallies."""
    span = tracer.span
    with span("io.topofile.format_s"):
        text = P["format_topology"](net)
    with span("io.topofile.parse_s"):
        net = P["parse_topology"](text)
    with span("network.csr_s"):
        P["build_csr"](net)
    with span("engine.fingerprint_s"):
        fingerprint = P["network_fingerprint"](net)
    with span("routing.make_algorithm_s"):
        algo = P["make_algorithm"]("nue", max_vls=max_vls, workers=1)
    cfg = algo.config
    dests = list(net.terminals or range(net.n_nodes))
    with span("partition.plan_layers_s"):
        parts, _layer_seeds = P["plan_layers"](net, dests, max_vls, cfg, seed)
    kernel = P["resolve_kernel"](cfg.kernel)
    dest_col = {d: j for j, d in enumerate(dests)}
    with span("engine.table.create_s"):
        table = P["create_table"](net.n_nodes, len(dests))
        if table is not None:
            nxt, vl = table.next_channel, table.vl
        else:
            nxt = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
            vl = np.zeros((net.n_nodes, len(dests)), dtype=np.int8)
    tally = {"fallbacks": 0, "islands_resolved": 0, "shortcuts_taken": 0,
             "cycle_searches": 0, "initial_deps": 0}
    try:
        for idx, subset in enumerate(parts):
            with span("core.root.select_s"):
                root = P["select_root"](net, subset,
                                        all_dests=len(parts) == 1)
            with span("cdg.init_s"):
                cdg = P["CompleteCDG"](net)
            with span("core.escape.mark_s"):
                escape = P["EscapePaths"](net, cdg, root, subset)
            with span("core.kernels.route_batch_s"):
                router = P["NueLayerRouter"](
                    net, cdg, escape,
                    enable_backtracking=cfg.enable_backtracking,
                    enable_shortcuts=cfg.enable_shortcuts,
                    layer_index=idx, kernel=kernel)
                block = np.full((net.n_nodes, len(subset)), -1,
                                dtype=np.int32)
                steps = router.route_batch(subset, block)
            for step in steps:
                tally["fallbacks"] += int(step.fell_back)
                tally["islands_resolved"] += step.islands_resolved
                tally["shortcuts_taken"] += step.shortcuts_taken
            if cfg.verify_acyclic:
                with span("cdg.verify_acyclic_s"):
                    cdg.assert_acyclic()
            tally["cycle_searches"] += cdg.cycle_searches
            tally["initial_deps"] += escape.initial_dependencies
            with span("engine.table.scatter_s"):
                cols = [dest_col[d] for d in subset]
                nxt[:, cols] = block
                vl[:, cols] = idx
        result = P["RoutingResult"](
            net=net, dests=dests, next_channel=nxt, vl=vl,
            n_vls=len(parts), algorithm="nue")
        if table is not None:
            result.attach_table(table)
            table = None
        with span("engine.table.copy_out_s"):
            response = api.RouteResponse.from_result(result, fingerprint)
        result.release()
    finally:
        if table is not None:
            table.release()
    sizes = [len(p) for p in parts]
    counts.update(tally)
    counts["imbalance"] = max(sizes) / (sum(sizes) / len(sizes))
    counts["n_dests"] = len(dests)
    counts["topofile_bytes"] = len(text)
    return response


def counted_engine_op(obs: Any, op: Callable[[], Any]) -> Dict[str, float]:
    """Run ``op`` once with ``repro.obs`` counting and return the
    engine-layer counters it moved (a separate, untimed pass: counting
    must not sit inside any timed phase)."""
    obs.reset()
    obs.enable(obs.MemorySink(keep_events=False))
    try:
        op()
        return engine_counts(obs.counters())
    finally:
        obs.disable()
        obs.reset()


class RouteWorkload(Workload):
    """Shared body of the two cold-route workloads."""

    max_vls = 1

    def build(self) -> Any:
        raise NotImplementedError

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.net: Any = None
        self._quality: Dict[int, Dict[str, Any]] = {}

    def setup(self) -> None:
        self.net = self.build()
        self.net.csr  # set-up covers the CSR build

    def route_seed(self, i: int) -> int:
        return derive_seed(self.seed, self.name, i)

    def describe(self, i: int) -> Any:
        return {"algorithm": "nue", "max_vls": self.max_vls,
                "seed": self.route_seed(i)}

    def op(self, i: int, lane: int = 0) -> Any:
        return api.route(api.RouteRequest(
            topology=self.net, algorithm="nue", max_vls=self.max_vls,
            workers=1, seed=self.route_seed(i)))

    def check(self, i: int, kept: Any) -> None:
        if kept.n_vls > self.max_vls:
            raise CheckFailed(
                f"n_vls {kept.n_vls} > max_vls {self.max_vls}")
        result = kept.result(self.net)
        try:
            api.validate_routing(result)
        except api.ValidationError as exc:
            raise CheckFailed(f"validate_routing: {exc}") from exc
        if self.quality_ops is not None and i >= self.quality_ops:
            return
        self._quality[i] = {
            "fallback_frac": kept.stats["fallbacks"] / len(kept.dests),
            "gamma_max": float(api.gamma_summary(result).maximum),
            "path_len_avg": float(api.path_length_stats(result).average),
            "digest": table_digest(kept.next_channel_array(),
                                   kept.vl_array()),
        }

    def quality(self) -> Dict[str, Any]:
        rows = [self._quality[i] for i in sorted(self._quality)]
        if not rows:
            return {}
        out: Dict[str, Any] = {
            key: sum(r[key] for r in rows) / len(rows)
            for key in ("fallback_frac", "gamma_max", "path_len_avg")
        }
        out["digest"] = combine_digests(r["digest"] for r in rows)
        return out

    # -- traced run -------------------------------------------------------------

    def composed_op(self, i: int, tracer: Tracer,
                    counts: Dict[str, float]) -> Any:
        return composed_nue_route(self._probes, tracer, self.net,
                                  self.max_vls, self.route_seed(i), counts)

    def trace_variants(self, tracer: Tracer) -> List[Variant]:
        return self.composed_variants(tracer, COMPOSED_PROBES, ("obs",))

    def same_output(self, a: Any, b: Any) -> bool:
        return (a.n_vls == b.n_vls
                and np.array_equal(a.next_channel_array(),
                                   b.next_channel_array())
                and np.array_equal(a.vl_array(), b.vl_array()))

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        P = self._probes
        out: Dict[str, Any] = {
            "network.build_s": timed_median(self.build),
        }
        counts = self._trace_counts
        if counts:
            def mid(key: str) -> float:
                return stats.median([c[key] for c in counts])

            out.update({
                "io.topofile.bytes": mid("topofile_bytes"),
                "partition.imbalance": mid("imbalance"),
                "core.escape.initial_deps": mid("initial_deps"),
                "core.backtrack.fallbacks": mid("fallbacks"),
                "core.backtrack.islands_resolved": mid("islands_resolved"),
                "core.backtrack.shortcuts_taken": mid("shortcuts_taken"),
                "cdg.cycle_searches": mid("cycle_searches"),
                "core.kernels.dests_per_s":
                    mid("n_dests") / layers["core.kernels.route_batch_s"],
            })
        if "obs" in P:
            out.update(counted_engine_op(P["obs"], lambda: self.op(0)))
        return out


class RouteFtree(RouteWorkload):
    name = "route-ftree"
    max_vls = 4

    def build(self) -> Any:
        return api.topologies.k_ary_n_tree(6, 3)


class RouteTorus(RouteWorkload):
    name = "route-torus"
    max_vls = 2

    def build(self) -> Any:
        return api.topologies.torus([6, 6, 6], terminals_per_switch=1)
