"""Typed request/response surface shared by the facade and the wire.

One set of dataclasses serves both call paths: ``repro.api.route
(RouteRequest(...))`` executes in-process, ``ServiceClient.route
(RouteRequest(...))`` sends the same object over the RPC wire — and
both return the same :class:`RouteResponse`, bit-identical (the
executor functions here are the single implementation the daemon and
the facade share; :data:`OPS` is the one table naming them).

Every message carries ``schema_version`` (exactly
:data:`SCHEMA_VERSION`) and crosses the wire as a plain dict:
networks travel as :mod:`repro.io.topofile` text (the repo's canonical
diff-friendly wire format for fabrics), forwarding tables as
``int32``/``int8`` ndarrays (``to_dict(tables="binary")``, which the
frame layer ships as raw buffers) or as nested lists
(``to_dict(tables="json")``, for files and JSON-only peers).  One
declarative codec does all of it: each dataclass field names its wire
*kind*, and the inherited ``to_dict``/``from_dict`` walk that spec —
``from_dict`` type-checks every field of the outside dict and raises
:class:`~repro.service.protocol.ServiceBadRequest` naming
``<Class>.<field>`` on the first mismatch.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.network.graph import Network
from repro.service.wire import (
    BOOL,
    CONFIG,
    FLOAT,
    INT,
    INTS,
    LINKS,
    OBJECT,
    SCHEMA_VERSION,
    TEXT,
    TOPOLOGY,
    VERSION,
    WireMessage,
    message,
    optional,
    table,
    wire_field,
    wire_message,
)

__all__ = [
    "SCHEMA_VERSION",
    "OPS",
    "RouteRequest",
    "RouteResponse",
    "AnalyzeRequest",
    "AnalyzeResponse",
    "CampaignRequest",
    "CampaignResponse",
    "RerouteRequest",
    "RerouteResponse",
    "TransitionRequest",
    "TransitionResponse",
    "execute_route",
    "execute_analyze",
    "execute_campaign",
    "execute_reroute",
    "execute_transition",
    "route",
    "analyze",
    "campaign",
    "reroute",
    "transition",
]


def _topology_text(topology: Union[str, Network]) -> str:
    """Accept a Network or topofile text; store text (the wire form)."""
    if isinstance(topology, str):
        return topology
    from repro.io.topofile import format_topology

    return format_topology(topology)


def _config_key(config: Dict[str, Any]) -> Tuple:
    return tuple(sorted(config.items()))


class _FabricRequest(WireMessage):
    """A request anchored on one fabric: ``topology`` accepts a
    :class:`~repro.network.graph.Network` (converted to topofile text
    on construction) or the text itself."""

    topology: Union[str, Network]

    def __post_init__(self) -> None:
        self.topology = _topology_text(self.topology)

    def network(self) -> Network:
        from repro.io.topofile import parse_topology

        return parse_topology(self.topology)


# -- messages -----------------------------------------------------------------

@wire_message
class RouteRequest(_FabricRequest):
    """One routing computation: topology + algorithm + knobs.

    ``workers`` is deliberately *not* part of the coalescing/cache
    identity — parallelism must never change the routing tables.
    """

    topology: Union[str, Network] = wire_field(TOPOLOGY)
    algorithm: str = wire_field(TEXT, "nue")
    max_vls: int = wire_field(INT, 8)
    config: Dict[str, Any] = wire_field(CONFIG, default_factory=dict)
    dests: Optional[List[int]] = wire_field(optional(INTS), None)
    seed: Optional[int] = wire_field(optional(INT), None)
    workers: Optional[int] = wire_field(optional(INT), None)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def coalesce_key(self, fingerprint: str) -> Tuple:
        """Identity for request coalescing and the route memo cache:
        everything that determines the tables, nothing that does not
        (``workers`` excluded by the bit-identity contract)."""
        return (
            fingerprint, self.algorithm, self.max_vls,
            _config_key(self.config),
            tuple(self.dests) if self.dests is not None else None,
            self.seed,
        )


@wire_message
class RouteResponse(WireMessage):
    """The forwarding state of one :class:`RouteRequest`.

    ``next_channel``/``vl`` are int32/int8 ndarrays, exactly as the
    in-process :class:`~repro.routing.base.RoutingResult` carries them
    (:meth:`result` rebuilds one); :meth:`from_result` shares the
    result's arrays without copying.
    """

    algorithm: str = wire_field(TEXT)
    n_vls: int = wire_field(INT)
    dests: List[int] = wire_field(INTS)
    next_channel: np.ndarray = wire_field(table(np.int32))
    vl: np.ndarray = wire_field(table(np.int8))
    runtime_s: float = wire_field(FLOAT)
    stats: Dict[str, Any] = wire_field(OBJECT)
    network_fingerprint: str = wire_field(TEXT)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def __post_init__(self) -> None:
        self.next_channel = np.asarray(self.next_channel, dtype=np.int32)
        self.vl = np.asarray(self.vl, dtype=np.int8)

    @classmethod
    def from_result(cls, result: "Any",
                    fingerprint: str) -> "RouteResponse":
        return cls(
            algorithm=result.algorithm,
            n_vls=int(result.n_vls),
            dests=[int(d) for d in result.dests],
            next_channel=result.next_channel,
            vl=result.vl,
            runtime_s=float(result.runtime_s),
            stats=dict(result.stats),
            network_fingerprint=fingerprint,
        )

    def next_channel_array(self) -> np.ndarray:
        return self.next_channel

    def vl_array(self) -> np.ndarray:
        return self.vl

    def result(self, net: Network) -> "Any":
        """Rebuild a full :class:`RoutingResult` over ``net``."""
        from repro.routing.base import RoutingResult

        return RoutingResult(
            net=net,
            dests=list(self.dests),
            next_channel=self.next_channel,
            vl=self.vl,
            n_vls=self.n_vls,
            algorithm=self.algorithm,
            runtime_s=self.runtime_s,
            stats=dict(self.stats),
        )


@wire_message
class AnalyzeRequest(WireMessage):
    """Route (or reuse a coalesced route) and report table metrics."""

    route: RouteRequest = wire_field(message(RouteRequest))
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def network(self) -> Network:
        return self.route.network()

    def coalesce_key(self, fingerprint: str) -> Tuple:
        return self.route.coalesce_key(fingerprint)


@wire_message
class AnalyzeResponse(WireMessage):
    """Deadlock/balance report of one routing (cf. ``repro analyze``)."""

    algorithm: str = wire_field(TEXT)
    n_vls: int = wire_field(INT)
    deadlock_free: bool = wire_field(BOOL)
    required_vcs: int = wire_field(INT)
    gamma: Dict[str, float] = wire_field(OBJECT)
    path_length: Dict[str, float] = wire_field(OBJECT)
    network_fingerprint: str = wire_field(TEXT)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)


@wire_message
class CampaignRequest(_FabricRequest):
    """One fail-in-place campaign (cf. :func:`repro.api.run_campaign`).

    ``schedule`` is the JSON dict form of
    :class:`~repro.resilience.events.FaultSchedule` (``{"events":
    [...]}``); a ``FaultSchedule`` instance is converted on
    construction.
    """

    topology: Union[str, Network] = wire_field(TOPOLOGY)
    schedule: Union[Dict[str, Any], Any] = wire_field(OBJECT)
    max_vls: int = wire_field(INT, 1)
    config: Dict[str, Any] = wire_field(CONFIG, default_factory=dict)
    seed: Optional[int] = wire_field(optional(INT), None)
    strategy: str = wire_field(TEXT, "incremental")
    timeout_s: Optional[float] = wire_field(optional(FLOAT), None)
    workers: Optional[int] = wire_field(optional(INT), None)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.schedule, dict):
            import json

            self.schedule = json.loads(self.schedule.to_json())

    def fault_schedule(self) -> "Any":
        import json

        from repro.resilience.events import FaultSchedule

        return FaultSchedule.from_json(json.dumps(self.schedule))

    def coalesce_key(self, fingerprint: str) -> Tuple:
        import json

        return (
            fingerprint, "campaign", self.max_vls,
            _config_key(self.config), self.seed, self.strategy,
            self.timeout_s, json.dumps(self.schedule, sort_keys=True),
        )


@wire_message
class CampaignResponse(WireMessage):
    """Outcome of one campaign: per-event reports + final state."""

    events_total: int = wire_field(INT)
    events_survived: int = wire_field(INT)
    report: Dict[str, Any] = wire_field(OBJECT)
    final_vls: int = wire_field(INT)
    network_fingerprint: str = wire_field(TEXT)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)


@wire_message
class RerouteRequest(_FabricRequest):
    """One incremental fail-in-place repair (cf.
    :func:`repro.resilience.incremental_reroute`).

    ``failed_links`` is the cumulative set of failed links as endpoint
    *name* pairs — the wire-stable identity fault injection preserves.
    The prior routing is recomputed from ``(algorithm=nue, max_vls,
    config, seed)``, the contract ``incremental_reroute`` requires
    anyway, so the request stays small and bit-reproducible.
    """

    topology: Union[str, Network] = wire_field(TOPOLOGY)
    failed_links: List[Tuple[str, str]] = wire_field(
        LINKS, default_factory=list)
    max_vls: int = wire_field(INT, 1)
    config: Dict[str, Any] = wire_field(CONFIG, default_factory=dict)
    seed: Optional[int] = wire_field(optional(INT), None)
    workers: Optional[int] = wire_field(optional(INT), None)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.failed_links = [(str(u), str(v))
                             for u, v in self.failed_links]

    def failed_channels(self, net: Network) -> List[int]:
        """Directed-channel ids of ``failed_links`` in ``net``."""
        from repro.resilience.events import FaultEvent

        event = FaultEvent(time=0.0, links=tuple(self.failed_links))
        channels: List[int] = []
        for li in event.resolve_links(net):
            channels.extend((2 * li, 2 * li + 1))
        return channels

    def coalesce_key(self, fingerprint: str) -> Tuple:
        return (
            fingerprint, "reroute", tuple(self.failed_links),
            self.max_vls, _config_key(self.config), self.seed,
        )


@wire_message
class RerouteResponse(WireMessage):
    """Repaired forwarding state + the repair statistics."""

    route: RouteResponse = wire_field(message(RouteResponse))
    stats: Dict[str, Any] = wire_field(OBJECT)
    network_fingerprint: str = wire_field(TEXT)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)


@wire_message
class TransitionRequest(_FabricRequest):
    """One planned transition onto a target fabric/routing.

    ``topology``/``algorithm``/``max_vls``/``config``/``seed`` describe
    the *target* state; the ``from_*`` fields describe where the fabric
    is coming from and select the scenario (:meth:`scenario`):

    * ``from_tables`` set — **repair**: the surviving forwarding state
      travels as a :class:`RouteResponse` dict (fail-in-place tables in
      ``from_topology``'s id space, or the target's when
      ``from_topology`` is omitted);
    * ``from_topology`` set (no tables) — **grow**: the old fabric is
      routed with the ``from_*`` knobs and translated by node name;
    * neither — **algorithm**: a live routing switch on the unchanged
      target fabric.

    ``from_algorithm``/``from_max_vls``/``from_seed`` default to the
    target's values; ``from_config`` defaults to ``config`` only when
    the algorithms match.
    """

    topology: Union[str, Network] = wire_field(TOPOLOGY)
    algorithm: str = wire_field(TEXT, "nue")
    max_vls: int = wire_field(INT, 1)
    config: Dict[str, Any] = wire_field(CONFIG, default_factory=dict)
    seed: Optional[int] = wire_field(optional(INT), None)
    from_topology: Optional[Union[str, Network]] = wire_field(
        optional(TOPOLOGY), None)
    from_algorithm: Optional[str] = wire_field(optional(TEXT), None)
    from_max_vls: Optional[int] = wire_field(optional(INT), None)
    from_config: Optional[Dict[str, Any]] = wire_field(
        optional(CONFIG), None)
    from_seed: Optional[int] = wire_field(optional(INT), None)
    from_tables: Optional[Union[RouteResponse, Dict[str, Any]]] = wire_field(
        optional(message(RouteResponse)), None)
    strategy: str = wire_field(TEXT, "auto")
    workers: Optional[int] = wire_field(optional(INT), None)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.from_topology is not None:
            self.from_topology = _topology_text(self.from_topology)
        if isinstance(self.from_tables, dict):
            self.from_tables = RouteResponse.from_dict(self.from_tables)

    def scenario(self) -> str:
        if self.from_tables is not None:
            return "repair"
        if self.from_topology is not None:
            return "grow"
        return "algorithm"

    def from_network(self) -> Optional[Network]:
        if self.from_topology is None:
            return None
        from repro.io.topofile import parse_topology

        return parse_topology(self.from_topology)

    def resolved_from(self) -> Tuple[str, int, Dict[str, Any],
                                     Optional[int]]:
        """``(algorithm, max_vls, config, seed)`` of the old state."""
        algorithm = self.from_algorithm or self.algorithm
        max_vls = self.from_max_vls \
            if self.from_max_vls is not None else self.max_vls
        if self.from_config is not None:
            config = dict(self.from_config)
        else:
            config = dict(self.config) if algorithm == self.algorithm \
                else {}
        seed = self.from_seed if self.from_seed is not None else self.seed
        return algorithm, max_vls, config, seed

    def coalesce_key(self, fingerprint: str) -> Tuple:
        """Everything that determines the plan (``workers`` excluded).

        ``from_tables`` can be large, so it enters the key as a digest
        of its canonical JSON rather than the tables themselves.
        """
        import hashlib
        import json

        tables_digest = None
        if self.from_tables is not None:
            blob = json.dumps(self.from_tables.to_dict(), sort_keys=True)
            tables_digest = hashlib.blake2b(
                blob.encode(), digest_size=16).hexdigest()
        return (
            fingerprint, "transition", self.algorithm, self.max_vls,
            _config_key(self.config), self.seed,
            self.from_topology, self.from_algorithm, self.from_max_vls,
            _config_key(self.from_config)
            if self.from_config is not None else None,
            self.from_seed, tables_digest, self.strategy,
        )


@wire_message
class TransitionResponse(WireMessage):
    """The proven migration plan + the target forwarding state.

    ``plan`` is the full :class:`~repro.reconfig.MigrationPlan` wire
    dict (:meth:`migration_plan` rebuilds the object); ``route`` is the
    post-transition state, bit-identical to routing the target from
    scratch.
    """

    scenario: str = wire_field(TEXT)
    strategy: str = wire_field(TEXT)
    compatible: bool = wire_field(BOOL)
    n_steps: int = wire_field(INT)
    n_swaps: int = wire_field(INT)
    n_drains: int = wire_field(INT)
    proofs: int = wire_field(INT)
    blocked_candidates: int = wire_field(INT)
    plan: Dict[str, Any] = wire_field(OBJECT)
    route: RouteResponse = wire_field(message(RouteResponse))
    network_fingerprint: str = wire_field(TEXT)
    schema_version: int = wire_field(VERSION, SCHEMA_VERSION)

    def migration_plan(self) -> "Any":
        from repro.reconfig import MigrationPlan

        return MigrationPlan.from_dict(self.plan)


# -- shared executors ---------------------------------------------------------
#
# The single implementation both call paths use.  The daemon invokes
# these on its compute lane; the facade invokes them directly.

def execute_route(request: RouteRequest, *,
                  workers: Optional[int] = None,
                  net: Optional[Network] = None,
                  fingerprint: Optional[str] = None) -> RouteResponse:
    """Run one :class:`RouteRequest` in this process."""
    from repro.engine.fingerprint import network_fingerprint
    from repro.routing.registry import make_algorithm

    if net is None:
        net = request.network()
    fp = fingerprint or network_fingerprint(net)
    algo = make_algorithm(
        request.algorithm,
        max_vls=request.max_vls,
        workers=request.workers if request.workers is not None else workers,
        **request.config,
    )
    result = algo.route(net, dests=request.dests, seed=request.seed)
    return RouteResponse.from_result(result, fp)


def execute_analyze(request: AnalyzeRequest, *,
                    workers: Optional[int] = None,
                    net: Optional[Network] = None,
                    fingerprint: Optional[str] = None) -> AnalyzeResponse:
    """Route then report the ``repro analyze`` metric set."""
    from repro.metrics import gamma_summary, path_length_stats
    from repro.metrics.deadlock import DeadlockAnalysis

    if net is None:
        net = request.route.network()
    response = execute_route(request.route, workers=workers,
                             net=net, fingerprint=fingerprint)
    result = response.result(net)
    eff_workers = request.route.workers \
        if request.route.workers is not None else workers
    g = gamma_summary(result, workers=eff_workers)
    p = path_length_stats(result, workers=eff_workers)
    deadlock = DeadlockAnalysis(result)
    return AnalyzeResponse(
        algorithm=response.algorithm,
        n_vls=response.n_vls,
        deadlock_free=deadlock.deadlock_free,
        required_vcs=deadlock.required_vcs(),
        gamma={"minimum": float(g.minimum), "maximum": float(g.maximum),
               "average": float(g.average), "stddev": float(g.stddev)},
        path_length={"minimum": float(p.minimum),
                     "maximum": float(p.maximum),
                     "average": float(p.average),
                     "n_routes": int(p.n_routes)},
        network_fingerprint=response.network_fingerprint,
    )


def execute_campaign(request: CampaignRequest, *,
                     workers: Optional[int] = None,
                     net: Optional[Network] = None,
                     fingerprint: Optional[str] = None
                     ) -> CampaignResponse:
    """Run one fail-in-place campaign in this process."""
    from repro.core import NueConfig
    from repro.engine.fingerprint import network_fingerprint
    from repro.resilience import run_campaign

    if net is None:
        net = request.network()
    fp = fingerprint or network_fingerprint(net)
    config = NueConfig(**request.config) if request.config else None
    result = run_campaign(
        net,
        request.fault_schedule(),
        max_vls=request.max_vls,
        config=config,
        seed=request.seed,
        strategy=request.strategy,
        timeout_s=request.timeout_s,
        workers=request.workers if request.workers is not None else workers,
    )
    data = result.to_dict()
    return CampaignResponse(
        events_total=int(data["events_total"]),
        events_survived=int(data["events_survived"]),
        report=data,
        final_vls=int(result.routing.n_vls),
        network_fingerprint=fp,
    )


def execute_reroute(request: RerouteRequest, *,
                    workers: Optional[int] = None,
                    net: Optional[Network] = None,
                    fingerprint: Optional[str] = None
                    ) -> RerouteResponse:
    """Run one incremental fail-in-place repair in this process."""
    from repro.core import NueConfig
    from repro.engine.fingerprint import network_fingerprint
    from repro.resilience import incremental_reroute
    from repro.routing.registry import make_algorithm

    if net is None:
        net = request.network()
    fp = fingerprint or network_fingerprint(net)
    eff_workers = request.workers if request.workers is not None \
        else workers
    config = NueConfig(**request.config) if request.config else None
    prior = make_algorithm(
        "nue", max_vls=request.max_vls, workers=eff_workers,
        **request.config,
    ).route(net, seed=request.seed)
    repaired, stats = incremental_reroute(
        net, prior, request.failed_channels(net),
        config=config, max_vls=request.max_vls, seed=request.seed,
        workers=eff_workers,
    )
    return RerouteResponse(
        route=RouteResponse.from_result(repaired, fp),
        stats={k: v for k, v in stats.items()},
        network_fingerprint=fp,
    )


def execute_transition(request: TransitionRequest, *,
                       workers: Optional[int] = None,
                       net: Optional[Network] = None,
                       fingerprint: Optional[str] = None
                       ) -> TransitionResponse:
    """Plan one transition in this process (see
    :func:`repro.reconfig.transitions.drive_transition`)."""
    from repro.engine.fingerprint import network_fingerprint
    from repro.reconfig.transitions import _route_target, drive_transition

    if net is None:
        net = request.network()
    fp = fingerprint or network_fingerprint(net)
    eff_workers = request.workers if request.workers is not None \
        else workers
    scenario = request.scenario()
    from_algo, from_vls, from_cfg, from_seed = request.resolved_from()
    if scenario == "repair":
        old_net = request.from_network() or net
        old = request.from_tables.result(old_net)
    else:
        old_net = request.from_network() if scenario == "grow" else net
        old = _route_target(old_net, from_algo, from_vls, from_cfg,
                            from_seed, eff_workers)
    outcome = drive_transition(
        scenario, old, net, request.algorithm, request.max_vls,
        request.config, request.seed, eff_workers, request.strategy,
    )
    return TransitionResponse(
        scenario=outcome.scenario,
        strategy=outcome.plan.strategy,
        compatible=outcome.plan.compatible,
        n_steps=outcome.plan.n_steps,
        n_swaps=outcome.plan.n_swaps,
        n_drains=outcome.plan.n_drains,
        proofs=outcome.plan.proofs,
        blocked_candidates=outcome.plan.blocked_candidates,
        plan=outcome.plan.to_dict(),
        route=RouteResponse.from_result(outcome.new, fp),
        network_fingerprint=fp,
    )


#: op -> (request class, response class, executor): the one table the
#: daemon's dispatch, both clients' typed calls and the in-process
#: facade below read
OPS: Dict[str, Tuple[type, type, Callable[..., Any]]] = {
    "route": (RouteRequest, RouteResponse, execute_route),
    "analyze": (AnalyzeRequest, AnalyzeResponse, execute_analyze),
    "campaign": (CampaignRequest, CampaignResponse, execute_campaign),
    "reroute": (RerouteRequest, RerouteResponse, execute_reroute),
    "transition": (TransitionRequest, TransitionResponse,
                   execute_transition),
}


# -- in-process facade --------------------------------------------------------

def _execute(op: str, request: Any) -> Any:
    request_cls, _response_cls, executor = OPS[op]
    if not isinstance(request, request_cls):
        raise TypeError(
            f"{op}() takes a {request_cls.__name__}, got "
            f"{type(request).__name__}")
    return executor(request)


def route(request: RouteRequest, /) -> RouteResponse:
    """Route a topology and return a typed :class:`RouteResponse`.

    ``api.route(RouteRequest(topology=net, ...))`` — the same object a
    :class:`~repro.service.client.ServiceClient` sends, returning the
    same response.
    """
    return _execute("route", request)


def analyze(request: Union[AnalyzeRequest, RouteRequest], /
            ) -> AnalyzeResponse:
    """Route + metric report as a typed :class:`AnalyzeResponse`.

    ``api.analyze(AnalyzeRequest(route=RouteRequest(...)))``; a bare
    :class:`RouteRequest` is wrapped for convenience.
    """
    if isinstance(request, RouteRequest):
        request = AnalyzeRequest(route=request)
    return _execute("analyze", request)


def campaign(request: CampaignRequest, /) -> CampaignResponse:
    """Run a fail-in-place campaign as a typed :class:`CampaignResponse`.

    ``api.campaign(CampaignRequest(topology=net, schedule=sched))`` —
    the same object :meth:`ServiceClient.campaign` sends.
    """
    return _execute("campaign", request)


def reroute(request: RerouteRequest, /) -> RerouteResponse:
    """Incremental fail-in-place repair as a typed
    :class:`RerouteResponse`.

    ``api.reroute(RerouteRequest(topology=net, failed_links=[("s0",
    "s1")]))``.
    """
    return _execute("reroute", request)


def transition(request: TransitionRequest, /) -> TransitionResponse:
    """Plan a deadlock-free transition as a typed
    :class:`TransitionResponse`.

    ``api.transition(TransitionRequest(topology=target, ...))`` — the
    same object :meth:`ServiceClient.transition` sends, returning the
    same proven plan bit-for-bit.
    """
    return _execute("transition", request)
