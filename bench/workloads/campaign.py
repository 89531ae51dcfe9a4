"""``campaign-torus``: time-to-repair.

One op is ``api.campaign`` over a fresh 3-event link-fault schedule
(AFR model) on the 4x4x3 torus with 4 terminals per switch, k=2: an
initial Nue route, then per event the dirty set, an incremental repair
(with the from-scratch route as the fallback when the repair is
refused) and a validation of the repaired tables.  This is the cost a
subnet manager pays on every fault.

A refused incremental repair is a valid, typed answer inside the
campaign (the report lists it as a failed ``incremental`` attempt
followed by a successful from-scratch one); it is counted, not failed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro import api

from bench import stats
from bench.tracer import Tracer
from bench.workloads.base import (
    CheckFailed,
    Variant,
    Workload,
    combine_digests,
    derive_seed,
    timed_median,
)

MAX_VLS = 2
N_EVENTS = 3
#: 1 % link AFR on 144 switch links is ~1.4 faults a year; twenty years
#: always holds the three events an op needs
HORIZON_HOURS = 20 * 8766.0

COMPOSED_PROBES = ("format_topology", "parse_topology", "build_csr",
                   "network_fingerprint", "make_algorithm", "NueConfig")


def build_torus() -> Any:
    return api.topologies.torus([4, 4, 3], terminals_per_switch=4)


def _event_summary(report: Dict[str, Any]) -> List[Any]:
    """What must agree between two executions of one campaign."""
    return [[e["strategy"], e["dests_recomputed"], e["vc_budget"]["used"],
             e["ok"]] for e in report["events"]]


class CampaignTorus(Workload):
    name = "campaign-torus"
    min_ops = 4
    #: a traced run executes every op three times at ~1.3 s each
    trace_min_ops = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.net: Any = None
        self._quality: Dict[int, Dict[str, Any]] = {}

    def setup(self) -> None:
        self.net = build_torus()
        self.net.csr

    def schedule(self, i: int) -> Any:
        if self.net is None:  # describing requests needs no set-up
            self.net = build_torus()
        return api.afr_schedule(
            self.net, HORIZON_HOURS, link_afr=0.01,
            seed=derive_seed(self.seed, "faults", i), max_events=N_EVENTS)

    def route_seed(self, i: int) -> int:
        return derive_seed(self.seed, self.name, i)

    def describe(self, i: int) -> Any:
        return {"route_seed": self.route_seed(i),
                "schedule": json.loads(self.schedule(i).to_json())}

    def op(self, i: int, lane: int = 0) -> Any:
        return api.campaign(api.CampaignRequest(
            topology=self.net, schedule=self.schedule(i),
            max_vls=MAX_VLS, seed=self.route_seed(i)))

    def keep(self, i: int, out: Any) -> Any:
        if isinstance(out, dict):  # the composed op summarises itself
            return out
        return {"events_total": out.events_total,
                "events_survived": out.events_survived,
                "final_vls": out.final_vls,
                "events": _event_summary(out.report),
                "refused": sum(
                    1 for e in out.report["events"]
                    for a in e["attempts"]
                    if a["label"] == "incremental" and not a["ok"])}

    def check(self, i: int, kept: Any) -> None:
        if kept["events_total"] != N_EVENTS:
            raise CheckFailed(
                f"{kept['events_total']} events reported, sent {N_EVENTS}")
        if kept["final_vls"] > MAX_VLS:
            raise CheckFailed(
                f"final_vls {kept['final_vls']} > max_vls {MAX_VLS}")
        if kept["refused"]:
            self.typed_refusals["IncrementalNotApplicable"] = \
                self.typed_refusals.get("IncrementalNotApplicable", 0) \
                + kept["refused"]
        self._quality[i] = kept

    def quality(self) -> Dict[str, Any]:
        rows = [self._quality[i] for i in sorted(self._quality)]
        if not rows:
            return {}
        return {
            "events_survived_frac":
                sum(r["events_survived"] for r in rows)
                / sum(r["events_total"] for r in rows),
            "digest": combine_digests(
                json.dumps(r["events"]) for r in rows),
        }

    # -- traced run -------------------------------------------------------------

    def composed_op(self, i: int, tracer: Tracer,
                    counts: Dict[str, float]) -> Any:
        """``run_campaign`` re-composed from the public resilience API:
        initial route, then per event dirty set, incremental repair or
        from-scratch fallback, validation."""
        P, span = self._probes, tracer.span
        seed = self.route_seed(i)
        schedule = self.schedule(i)
        with span("io.topofile.format_s"):
            text = P["format_topology"](self.net)
        with span("io.topofile.parse_s"):
            base = P["parse_topology"](text)
        with span("network.csr_s"):
            P["build_csr"](base)
        with span("engine.fingerprint_s"):
            P["network_fingerprint"](base)
        cfg = P["NueConfig"]()
        with span("routing.make_algorithm_s"):
            algo = P["make_algorithm"]("nue", MAX_VLS,
                                       partitioner=cfg.partitioner)
        with span("resilience.initial_route_s"):
            current = algo.route(base, seed=seed)
        with span("metrics.validate_s"):
            api.validate_routing(current)
        retired: set = set()
        retired_links: set = set()
        events: List[Any] = []
        refused = recomputed = 0
        try:
            for event in schedule:
                link_idxs = event.resolve_links(base)
                with span("network.faults.remove_links_s"):
                    fault = api.remove_links(
                        base, sorted(retired_links | set(link_idxs)))
                channels = {c for li in link_idxs
                            for c in (2 * li, 2 * li + 1)}
                with span("resilience.dirty_s"):
                    api.dirty_destinations(current, sorted(channels))
                try:
                    with span("resilience.incremental_s"):
                        result, repair = api.incremental_reroute(
                            base, current, sorted(retired | channels),
                            config=cfg, max_vls=MAX_VLS, seed=seed)
                    with span("metrics.validate_s"):
                        api.validate_routing(result)
                    retired |= channels
                    retired_links |= set(link_idxs)
                    strategy = "incremental"
                    n_recomputed = int(repair["dests_recomputed"])
                except (api.IncrementalNotApplicable, api.RoutingError,
                        api.ValidationError):
                    refused += 1
                    with span("resilience.exact_s"):
                        result = api.exact_reroute(fault, algo, seed=seed)
                    with span("metrics.validate_s"):
                        api.validate_routing(result)
                    retired.clear()
                    retired_links.clear()
                    base = fault.net
                    strategy = f"nue/vls={MAX_VLS}"
                    n_recomputed = len(result.dests)
                if "reachable_pairs" in P:
                    with span("resilience.reachable_s"):
                        P["reachable_pairs"](result)
                recomputed += n_recomputed
                events.append([strategy, n_recomputed, result.n_vls, True])
                current.release()
                current = result
        finally:
            current.release()
        counts["refused"] = refused
        counts["recomputed_frac"] = recomputed / (
            len(events) * len(current.dests))
        return {"events_total": len(events), "events_survived": len(events),
                "final_vls": current.n_vls, "events": events,
                "refused": refused}

    def trace_variants(self, tracer: Tracer) -> List[Variant]:
        return self.composed_variants(tracer, COMPOSED_PROBES,
                                      ("reachable_pairs",))

    def same_output(self, a: Any, b: Any) -> bool:
        return a["events"] == b["events"] \
            and a["final_vls"] == b["final_vls"]

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        out: Dict[str, Any] = {"network.build_s": timed_median(build_torus)}
        if self._trace_counts:
            out["resilience.incremental_refused"] = stats.median(
                [c["refused"] for c in self._trace_counts])
            out["resilience.dests_recomputed_frac"] = stats.median(
                [c["recomputed_frac"] for c in self._trace_counts])
        return out
