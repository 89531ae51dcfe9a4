"""Fail-in-place campaign engine.

Drives a routed network through a :class:`~repro.resilience.events.
FaultSchedule`, rerouting after every event and emitting one
structured :class:`DegradationReport` per event through the
:mod:`repro.obs` span/counter layer.

Reroute strategy per event
--------------------------
``strategy="incremental"`` (default) tries fail-in-place repair first:
when the event killed no node, the network object is kept, the failed
channels join the campaign's cumulative retired set, and only dirty
destinations are recomputed (:func:`~repro.resilience.reroute.
incremental_reroute`).  When a node died — or repair declares itself
inapplicable — the engine falls back to a from-scratch route of the
rebuilt degraded network.  ``strategy="exact"`` always takes the
from-scratch path, whose tables are bit-identical to calling the
routing algorithm on the degraded network directly (the oracle the
resilience tests pin).

Retry / fallback chain
----------------------
Every from-scratch reroute runs a chain of attempts::

    nue @ max_vls  ->  nue @ max_vls-1  ->  updn (escape-only)

advancing on routing failure, validation failure, or an expired
per-event timeout (cooperative: checked between attempts — an attempt
is never preempted, but once the deadline passes the chain jumps
straight to its cheapest member).  The incremental repair, when
applicable, is simply the first link of the chain.

Events that would disconnect the fabric are *rejected* — recorded in
their report (``applied=False``, with the connectivity error) and
skipped, since every :class:`~repro.network.graph.Network` invariant
assumes a connected fabric.  The campaign then continues on the
pre-event state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.nue import NueConfig
from repro.metrics.validate import ValidationError, validate_routing
from repro.network.faults import (
    FaultInjectionError,
    FaultResult,
    remove_links,
    remove_switches,
)
from repro.network.graph import Network, as_network
from repro.obs import core as obs
from repro.obs import live
from repro.resilience.events import FaultEvent, FaultSchedule
from repro.resilience.reroute import (
    IncrementalNotApplicable,
    dirty_destinations,
    incremental_reroute,
)
from repro.routing.base import RoutingError, RoutingResult
from repro.routing.registry import make_algorithm
from repro.routing.walk import census
from repro.utils.prng import SeedLike

__all__ = [
    "AttemptRecord",
    "DegradationReport",
    "CampaignResult",
    "run_campaign",
]


@dataclass
class AttemptRecord:
    """One link of the retry/fallback chain, as it actually ran."""

    label: str            #: e.g. ``"incremental"``, ``"nue/vls=4"``
    ok: bool
    error: str = ""
    runtime_s: float = 0.0
    skipped: bool = False  #: True when the deadline expired before it


@dataclass
class DegradationReport:
    """Structured outcome of one campaign event.

    Everything a fail-in-place operator asks after a failure: did the
    fabric stay fully reachable, how much routing state was
    invalidated and recomputed, what VC budget the surviving routing
    needs, and whether the deadlock validator accepted it.
    """

    event: str
    event_index: int
    applied: bool
    strategy: str = ""                 #: winning strategy, "" if none
    attempts: List[AttemptRecord] = field(default_factory=list)
    failed_switches: List[str] = field(default_factory=list)
    failed_terminals: List[str] = field(default_factory=list)
    failed_links: List[Tuple[str, str]] = field(default_factory=list)
    dests_total: int = 0
    dests_recomputed: int = 0
    paths_invalidated: int = 0         #: (src, dest) pairs whose route died
    paths_recomputed: int = 0
    layers_repaired: int = 0
    reachable_pairs: int = 0
    total_pairs: int = 0
    n_vls: int = 0
    max_vls: int = 0
    deadlock_free: Optional[bool] = None
    validation_error: str = ""
    timed_out: bool = False
    runtime_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when some attempt produced a validated routing."""
        return self.applied and any(a.ok for a in self.attempts)

    @property
    def reachability(self) -> float:
        """Fraction of (source, destination) pairs with a route."""
        return (
            self.reachable_pairs / self.total_pairs
            if self.total_pairs else 1.0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "event": self.event,
            "event_index": self.event_index,
            "applied": self.applied,
            "ok": self.ok,
            "strategy": self.strategy,
            "attempts": [
                {
                    "label": a.label,
                    "ok": a.ok,
                    "error": a.error,
                    "runtime_s": a.runtime_s,
                    "skipped": a.skipped,
                }
                for a in self.attempts
            ],
            "failed_switches": list(self.failed_switches),
            "failed_terminals": list(self.failed_terminals),
            "failed_links": [list(p) for p in self.failed_links],
            "dests_total": self.dests_total,
            "dests_recomputed": self.dests_recomputed,
            "paths_invalidated": self.paths_invalidated,
            "paths_recomputed": self.paths_recomputed,
            "layers_repaired": self.layers_repaired,
            "reachability": self.reachability,
            "reachable_pairs": self.reachable_pairs,
            "total_pairs": self.total_pairs,
            "vc_budget": {"used": self.n_vls, "max": self.max_vls},
            "deadlock_free": self.deadlock_free,
            "validation_error": self.validation_error,
            "timed_out": self.timed_out,
            "runtime_s": self.runtime_s,
        }


@dataclass
class CampaignResult:
    """Final state of a campaign: per-event reports + surviving routing."""

    reports: List[DegradationReport]
    routing: RoutingResult
    net: Network
    initial_net: Network

    @property
    def events_survived(self) -> int:
        return sum(1 for r in self.reports if r.ok)

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": [r.to_dict() for r in self.reports],
            "events_total": len(self.reports),
            "events_survived": self.events_survived,
            "final_network": self.net.name,
            "final_vls": self.routing.n_vls,
        }


def _reachable_pairs(
    result: RoutingResult, workers: Optional[int] = None
) -> Tuple[int, int]:
    """``(routed, routed + unrouted)`` (terminal source, destination)
    pairs of the table's census (engine ``workers`` convention)."""
    net = result.net
    pairs = census(result, net.terminals or range(net.n_nodes), workers)
    routed = int(pairs.hops.sum())
    return routed, routed + pairs.unrouted


def _chain_attempts(max_vls: int) -> List[Tuple[str, str, int]]:
    """(label, algorithm, vls) links of the from-scratch retry chain."""
    chain = [(f"nue/vls={max_vls}", "nue", max_vls)]
    if max_vls > 1:
        chain.append((f"nue/vls={max_vls - 1}", "nue", max_vls - 1))
    chain.append(("updn/escape-only", "updn", 8))
    return chain


def _run_chain(
    net: Network,
    config: NueConfig,
    max_vls: int,
    seed: SeedLike,
    workers: Optional[int],
    report: DegradationReport,
    deadline: Optional[float],
    validate: bool,
) -> Optional[RoutingResult]:
    """From-scratch retry chain on ``net``; records every attempt."""
    chain = _chain_attempts(max_vls)
    for i, (label, alg, vls) in enumerate(chain):
        last = i == len(chain) - 1
        if deadline is not None and time.monotonic() > deadline and not last:
            report.timed_out = True
            report.attempts.append(
                AttemptRecord(label=label, ok=False, skipped=True,
                              error="per-event timeout expired")
            )
            continue
        started = time.monotonic()
        try:
            if alg == "nue":
                algo = make_algorithm(
                    "nue", vls, workers=workers,
                    partitioner=config.partitioner,
                )
            else:
                algo = make_algorithm(alg, vls, workers=workers)
            result = algo.route(net, seed=seed)
            if validate:
                validate_routing(result)
        except (RoutingError, ValidationError) as exc:
            report.attempts.append(AttemptRecord(
                label=label, ok=False, error=str(exc),
                runtime_s=time.monotonic() - started,
            ))
            continue
        report.attempts.append(AttemptRecord(
            label=label, ok=True, runtime_s=time.monotonic() - started,
        ))
        report.strategy = label
        return result
    return None


def run_campaign(
    net: Network,
    schedule: FaultSchedule,
    max_vls: int = 1,
    config: Optional[NueConfig] = None,
    seed: SeedLike = None,
    strategy: str = "incremental",
    timeout_s: Optional[float] = None,
    workers: Optional[int] = None,
    validate: bool = True,
) -> CampaignResult:
    """Run a fail-in-place campaign over ``schedule``.

    Routes ``net`` once, then applies events in time order, rerouting
    after each (see module docstring for the strategy and fallback
    semantics).  ``seed`` is the single routing seed used by the
    initial route and every reroute, so incremental repair can
    re-derive the layer plan of the routing it repairs.

    Returns a :class:`CampaignResult` with one
    :class:`DegradationReport` per event.
    """
    if strategy not in ("incremental", "exact"):
        raise ValueError(f"unknown strategy {strategy!r}")
    net = as_network(net)
    cfg = config or NueConfig()
    algo = make_algorithm(
        "nue", max_vls, workers=workers, partitioner=cfg.partitioner
    )
    with obs.span("resilience.initial_route", network=net.name):
        current = algo.route(net, seed=seed)
        if validate:
            validate_routing(current)

    base_net = net
    retired: Set[int] = set()     # cumulative failed channels, base ids
    retired_links: Set[int] = set()  # same, as base-net link indices
    reports: List[DegradationReport] = []
    n_events = len(schedule)
    if obs.enabled():
        obs.gauge("resilience.campaign.events_total", n_events)
        obs.gauge("resilience.campaign.events_done", 0)
        obs.gauge("resilience.campaign.progress", 0.0)
    live.pump()

    for idx, event in enumerate(schedule):
        report = _apply_event(
            base_net, current, event, idx,
            retired=retired, retired_links=retired_links,
            cfg=cfg, max_vls=max_vls, seed=seed,
            strategy=strategy, timeout_s=timeout_s,
            workers=workers, validate=validate,
        )
        reports.append(report)
        base_net = report._next_net          # type: ignore[attr-defined]
        current = report._next_routing       # type: ignore[attr-defined]
        del report._next_net, report._next_routing  # type: ignore[attr-defined]
        if obs.enabled():
            obs.count_many({
                "resilience.events": 1,
                "resilience.events_ok": int(report.ok),
                "resilience.dests_recomputed": report.dests_recomputed,
                "resilience.paths_invalidated": report.paths_invalidated,
                "resilience.layers_repaired": report.layers_repaired,
                "resilience.timeouts": int(report.timed_out),
            })
            obs.gauge("resilience.campaign.events_done", idx + 1)
            obs.gauge("resilience.campaign.progress",
                      (idx + 1) / n_events if n_events else 1.0)
        # fold any streamed worker events (and rewrite the status
        # file) between events, so a watcher sees the campaign move
        live.pump()

    return CampaignResult(
        reports=reports,
        routing=current,
        net=base_net,
        initial_net=net,
    )


def _apply_event(
    base_net: Network,
    current: RoutingResult,
    event: FaultEvent,
    idx: int,
    retired: Set[int],
    retired_links: Set[int],
    cfg: NueConfig,
    max_vls: int,
    seed: SeedLike,
    strategy: str,
    timeout_s: Optional[float],
    workers: Optional[int],
    validate: bool,
) -> DegradationReport:
    """Apply one event and reroute; returns its report.

    The successor state is attached to the report as the private
    ``_next_net`` / ``_next_routing`` attributes, which
    :func:`run_campaign` pops off before the report is surfaced.
    """
    started = time.monotonic()
    deadline = started + timeout_s if timeout_s is not None else None
    report = DegradationReport(
        event=event.label, event_index=idx, applied=False,
        dests_total=len(current.dests), max_vls=max_vls,
    )
    report._next_net = base_net          # type: ignore[attr-defined]
    report._next_routing = current       # type: ignore[attr-defined]

    with obs.span("resilience.event", index=idx, label=event.label):
        # -- resolve + bookkeeping fault application ----------------------
        try:
            link_idxs = event.resolve_links(base_net)
            switch_ids = event.resolve_switches(base_net)
            probe_links = sorted(retired_links | set(link_idxs))
            probe = remove_links(base_net, probe_links) if probe_links \
                else None
            if switch_ids:
                inner = probe.net if probe is not None else base_net
                by_name = {n: i for i, n in enumerate(inner.node_names)}
                probe = remove_switches(
                    inner,
                    [by_name[base_net.node_names[s]] for s in switch_ids],
                )
        except (KeyError, ValueError, FaultInjectionError) as exc:
            report.validation_error = str(exc)
            report.runtime_s = time.monotonic() - started
            reach, total = _reachable_pairs(current, workers=workers)
            report.reachable_pairs, report.total_pairs = reach, total
            report.n_vls = current.n_vls
            if obs.enabled():
                obs.observe("resilience.reachability",
                            report.reachability, kind="unit")
            return report  # event rejected; campaign continues as-is

        report.applied = True
        if probe is not None:
            report.failed_switches = list(probe.failed_switches)
            report.failed_terminals = list(probe.failed_terminals)
            report.failed_links = list(probe.failed_links)

        event_channels = {
            c for li in link_idxs for c in (2 * li, 2 * li + 1)
        }
        node_preserving = not switch_ids and (
            probe is None or probe.nodes_preserved
        )
        sources = len(base_net.terminals) or base_net.n_nodes
        result: Optional[RoutingResult] = None
        repair_stats: Dict[str, object] = {}

        # -- attempt 1: fail-in-place incremental repair -------------------
        if strategy == "incremental" and node_preserving:
            attempt_started = time.monotonic()
            try:
                candidate_retired = retired | event_channels
                result, repair_stats = incremental_reroute(
                    base_net, current, sorted(candidate_retired),
                    config=cfg, max_vls=max_vls, seed=seed,
                    workers=workers,
                )
                if validate:
                    validate_routing(result)
            except (IncrementalNotApplicable, RoutingError,
                    ValidationError) as exc:
                result = None
                report.attempts.append(AttemptRecord(
                    label="incremental", ok=False, error=str(exc),
                    runtime_s=time.monotonic() - attempt_started,
                ))
            else:
                report.attempts.append(AttemptRecord(
                    label="incremental", ok=True,
                    runtime_s=time.monotonic() - attempt_started,
                ))
                report.strategy = "incremental"
                retired.update(event_channels)
                retired_links.update(link_idxs)
                report.dests_recomputed = int(
                    repair_stats.get("dests_recomputed", 0)
                )
                report.layers_repaired = int(
                    repair_stats.get("layers_repaired", 0)
                )
                dirty = int(repair_stats.get("dests_dirty", 0))
                report.paths_invalidated = dirty * max(0, sources - 1)
                report.paths_recomputed = (
                    report.dests_recomputed * max(0, sources - 1)
                )

        # -- fallback: from-scratch chain on the rebuilt degraded net ------
        if result is None:
            degraded = probe.net if probe is not None else base_net
            dirty = len(dirty_destinations(
                current, sorted(event_channels)
            )) if node_preserving else len(current.dests)
            report.paths_invalidated = dirty * max(0, sources - 1)
            result = _run_chain(
                degraded, cfg, max_vls, seed, workers,
                report, deadline, validate,
            )
            if result is not None:
                report.dests_recomputed = len(result.dests)
                report.paths_recomputed = len(result.dests) * max(
                    0, (len(degraded.terminals) or degraded.n_nodes) - 1
                )
                retired.clear()
                retired_links.clear()
                report._next_net = degraded  # type: ignore[attr-defined]
                report._next_routing = result  # type: ignore[attr-defined]
        else:
            report._next_routing = result    # type: ignore[attr-defined]

        # -- verdicts ------------------------------------------------------
        final = result if result is not None else current
        report.n_vls = final.n_vls
        if result is not None and validate:
            report.deadlock_free = True  # validated in the attempt
        elif result is not None:
            try:
                validate_routing(result)
                report.deadlock_free = True
            except ValidationError as exc:
                report.deadlock_free = False
                report.validation_error = str(exc)
        reach, total = _reachable_pairs(final, workers=workers)
        report.reachable_pairs, report.total_pairs = reach, total
        if deadline is not None and time.monotonic() > deadline:
            report.timed_out = True
        report.runtime_s = time.monotonic() - started
        if obs.enabled():
            obs.observe_many(
                "resilience.attempt.dur_ns",
                [a.runtime_s * 1e9 for a in report.attempts
                 if not a.skipped],
            )
            if report.dests_total:
                sources_m1 = max(1, sources - 1)
                obs.observe(
                    "resilience.dirty_fraction",
                    report.paths_invalidated
                    / (report.dests_total * sources_m1),
                    kind="unit",
                )
            obs.observe("resilience.reachability", report.reachability,
                        kind="unit")
    return report
