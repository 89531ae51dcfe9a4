"""The stable public facade of the repro library.

Everything a typical user needs — building a topology, constructing a
routing algorithm, validating the result, injecting faults, running a
fail-in-place campaign — is importable from this one module:

>>> from repro import api
>>> net = api.topologies.ring(6, terminals_per_switch=1)
>>> algo = api.make_algorithm("nue", max_vls=2)
>>> result = algo.route(net, seed=0)
>>> api.validate_routing(result)
>>> sorted(api.available_algorithms())[:3]
['dfsssp', 'dnup', 'dor']

The same work as one typed request — the form the RPC service speaks
(``ServiceClient.route`` sends this object to a ``repro serve``
daemon and returns the identical response):

>>> response = api.route(api.RouteRequest(
...     topology=net, algorithm="nue", max_vls=2, seed=0))
>>> response.n_vls
2

Stability policy
----------------
Names exported here (the ``__all__`` of this module) are the
library's *stable surface*: they follow semantic versioning — removals
or signature breaks only with a major version bump, deprecations keep
a shimmed fallback for one minor release (``docs/api.md`` lists what
the current release removed).  Everything
else in the package — any ``repro.*`` submodule path not re-exported
here — is internal: importable, useful for advanced work, but free to
move between releases.  ``tests/test_public_api.py`` pins a snapshot
of this surface so accidental changes fail CI.

Surface map
-----------
===========================  =================================================
routing                      :func:`make_algorithm`,
                             :func:`build_config`,
                             :func:`available_algorithms`,
                             :func:`algorithm_descriptions`,
                             :class:`RoutingAlgorithm`,
                             :class:`RoutingResult`, :class:`NueConfig`
validation / metrics         :func:`validate_routing`,
                             :func:`is_deadlock_free`, :func:`required_vcs`,
                             :func:`gamma_summary`,
                             :func:`path_length_stats`
networks / topologies        :class:`Network`, :class:`NetworkBuilder`,
                             :func:`as_network`, :mod:`topologies`
fault injection              :class:`FaultResult`, :func:`remove_links`,
                             :func:`remove_switches`,
                             :func:`inject_random_link_faults`,
                             :func:`inject_random_switch_faults`
resilience campaigns         :class:`FaultEvent`, :class:`FaultSchedule`,
                             :func:`afr_schedule`, :func:`run_campaign`,
                             :func:`incremental_reroute`,
                             :func:`exact_reroute`,
                             :class:`DegradationReport`,
                             :class:`CampaignResult`
service (typed requests)     :class:`RouteRequest` /
                             :class:`RouteResponse`,
                             :class:`AnalyzeRequest` /
                             :class:`AnalyzeResponse`,
                             :class:`CampaignRequest` /
                             :class:`CampaignResponse`,
                             :class:`RerouteRequest` /
                             :class:`RerouteResponse`,
                             :class:`TransitionRequest` /
                             :class:`TransitionResponse`,
                             :func:`route`, :func:`analyze`,
                             :func:`campaign`, :func:`reroute`,
                             :func:`transition`,
                             :class:`ServiceClient`,
                             :class:`ServiceError`,
                             :class:`ServiceOverloaded` — one typed
                             surface for in-process calls and the
                             ``repro serve`` RPC daemon
                             (``docs/service.md``)
reconfiguration              :func:`check_compatibility`,
                             :func:`plan_transition`,
                             :func:`apply_plan`, :func:`verify_plan`,
                             :func:`repair_transition`,
                             :func:`grow_transition`,
                             :func:`algorithm_transition`,
                             :class:`MigrationPlan`,
                             :class:`TransitionStep`,
                             :class:`TransitionOutcome`,
                             :class:`TransitionIncompatible`,
                             :class:`TransitionNotApplicable` —
                             planned deadlock-free transitions
                             (UPR-style union-CDG proofs,
                             ``docs/reconfiguration.md``)
observability                the telemetry plane lives in
                             :mod:`repro.obs` (documented subsystem,
                             ``docs/observability.md``): the
                             ``--status FILE.json`` CLI flag and
                             ``repro obs watch``,
                             :func:`repro.obs.expo.snapshot` /
                             :func:`repro.obs.expo.expose`
                             (``"prom"``/``"json"``) /
                             :func:`repro.obs.expo.write_status`
                             exposition helpers, and
                             :func:`repro.obs.live.start` /
                             :func:`repro.obs.live.stop` for the live
                             bus
engine                       :func:`shutdown_fabric` — tear down the
                             persistent worker pool and unlink every
                             shared-memory network export; the fabric
                             respawns lazily on next parallel use
                             (an RPC daemon above it aborts in-flight
                             requests with ``ServiceAborted``)
===========================  =================================================
"""

from repro.core import NueConfig, NueRouting
from repro.engine import shutdown as shutdown_fabric
from repro.metrics import (
    gamma_summary,
    is_deadlock_free,
    path_length_stats,
    required_vcs,
    validate_routing,
)
from repro.metrics.validate import ValidationError
from repro.network import (
    FaultInjectionError,
    FaultResult,
    Network,
    NetworkBuilder,
    as_network,
    attach_terminals,
    inject_random_link_faults,
    inject_random_switch_faults,
    remove_links,
    remove_switches,
    topologies,
)
from repro.reconfig import (
    CompatibilityReport,
    MigrationPlan,
    TransitionIncompatible,
    TransitionNotApplicable,
    TransitionOutcome,
    TransitionStep,
    algorithm_transition,
    apply_plan,
    check_compatibility,
    grow_transition,
    plan_transition,
    repair_transition,
    verify_plan,
)
from repro.resilience import (
    CampaignResult,
    DegradationReport,
    FaultEvent,
    FaultSchedule,
    IncrementalNotApplicable,
    afr_schedule,
    dirty_destinations,
    exact_reroute,
    incremental_reroute,
    run_campaign,
)
from repro.routing import (
    NotApplicableError,
    RoutingAlgorithm,
    RoutingError,
    RoutingResult,
    algorithm_descriptions,
    available_algorithms,
    build_config,
    make_algorithm,
)
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError, ServiceOverloaded
from repro.service.requests import (
    AnalyzeRequest,
    AnalyzeResponse,
    CampaignRequest,
    CampaignResponse,
    RerouteRequest,
    RerouteResponse,
    RouteRequest,
    RouteResponse,
    TransitionRequest,
    TransitionResponse,
    analyze,
    campaign,
    reroute,
    route,
    transition,
)

__all__ = [
    # routing
    "make_algorithm",
    "build_config",
    "available_algorithms",
    "algorithm_descriptions",
    "RoutingAlgorithm",
    "RoutingResult",
    "RoutingError",
    "NotApplicableError",
    "NueConfig",
    "NueRouting",
    # validation / metrics
    "validate_routing",
    "ValidationError",
    "is_deadlock_free",
    "required_vcs",
    "gamma_summary",
    "path_length_stats",
    # networks / topologies
    "Network",
    "NetworkBuilder",
    "as_network",
    "attach_terminals",
    "topologies",
    # fault injection
    "FaultInjectionError",
    "FaultResult",
    "remove_links",
    "remove_switches",
    "inject_random_link_faults",
    "inject_random_switch_faults",
    # resilience campaigns
    "FaultEvent",
    "FaultSchedule",
    "afr_schedule",
    "run_campaign",
    "CampaignResult",
    "DegradationReport",
    "incremental_reroute",
    "exact_reroute",
    "dirty_destinations",
    "IncrementalNotApplicable",
    # service (typed requests; in-process and RPC)
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
    "route",
    "analyze",
    "campaign",
    "reroute",
    "transition",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    # reconfiguration (planned deadlock-free transitions)
    "CompatibilityReport",
    "MigrationPlan",
    "TransitionStep",
    "TransitionOutcome",
    "TransitionIncompatible",
    "TransitionNotApplicable",
    "check_compatibility",
    "plan_transition",
    "apply_plan",
    "verify_plan",
    "repair_transition",
    "grow_transition",
    "algorithm_transition",
    # engine
    "shutdown_fabric",
]
