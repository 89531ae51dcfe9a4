"""Unified algorithm registry — the one way to construct routings.

Experiments, the CLI and library users all build routing algorithms
through :func:`make_algorithm`::

    from repro.routing.registry import make_algorithm

    algo = make_algorithm("nue", max_vls=4, workers=4,
                          partitioner="spectral")
    result = algo.route(net, seed=7)

Every algorithm of the library registers itself here under its
canonical ``name`` (the same string :attr:`RoutingAlgorithm.name`
reports); :func:`available_algorithms` lists them.  Configuration
keywords are validated **eagerly**: an unknown algorithm, an unknown
config key, or an unknown Nue partitioner each raise a one-line
:class:`ValueError` naming the valid choices, instead of failing deep
inside the run.

``workers`` is forwarded to every algorithm (see
:class:`~repro.routing.base.RoutingAlgorithm`): Nue parallelises its
virtual layers over the :mod:`repro.engine` pool, the order-dependent
baselines accept-and-ignore it.

Every built-in algorithm exposes a frozen ``Config`` dataclass (e.g.
:class:`~repro.core.nue.NueConfig`,
:class:`~repro.routing.updn.UpDownConfig`) registered as the spec's
``config_cls`` — :func:`make_algorithm` validates the keyword names
against its fields, constructs it, and calls its ``validate()`` method
(when defined) before any routing work starts.
:func:`build_config` exposes the same validation standalone (the CLI
and ``RouteRequest.config`` round-trip tests use it).

Third-party algorithms can join via the :func:`register` decorator;
the factory receives the validated ``config_cls`` instance::

    @register("my-routing", description="...", config_cls=MyConfig)
    def _make(max_vls, workers, config):
        return MyRouting(max_vls, config, workers=workers)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.routing.base import RoutingAlgorithm

__all__ = [
    "register",
    "make_algorithm",
    "build_config",
    "available_algorithms",
    "algorithm_descriptions",
    "AlgorithmSpec",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: a named factory plus its constraints."""

    name: str
    factory: Callable[..., RoutingAlgorithm]
    #: frozen dataclass of the algorithm's config keywords
    config_cls: type
    description: str = ""
    #: hard floor on the VC budget (Torus-2QoS needs 2 data VLs)
    min_vls: int = 1


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(
    name: str,
    *,
    config_cls: type,
    description: str = "",
    min_vls: int = 1,
) -> Callable[[Callable[..., RoutingAlgorithm]],
              Callable[..., RoutingAlgorithm]]:
    """Decorator registering an algorithm factory.

    The factory is called as ``factory(max_vls, workers, config)``
    where ``config`` is the validated ``config_cls`` instance.
    """

    def deco(
        factory: Callable[..., RoutingAlgorithm]
    ) -> Callable[..., RoutingAlgorithm]:
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            factory=factory,
            description=description,
            min_vls=min_vls,
            config_cls=config_cls,
        )
        return factory

    return deco


def build_config(name: str, **config: object) -> Optional[object]:
    """Validate + construct algorithm ``name``'s config dataclass.

    The eager one-line validation of :func:`make_algorithm`, standalone:
    unknown keys raise a ``ValueError`` naming the valid choices, then
    the instance's own ``validate()`` runs (when defined).
    """
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown routing algorithm {name!r}; choose from "
            f"{available_algorithms()}"
        )
    valid = sorted(f.name for f in dataclasses.fields(spec.config_cls))
    unknown = sorted(set(config) - set(valid))
    if unknown:
        if valid:
            raise ValueError(
                f"unknown {name} option(s) {unknown}; valid: {valid}"
            )
        raise ValueError(
            f"unknown {name} option(s) {unknown}; "
            f"{name} takes no extra configuration"
        )
    cfg = spec.config_cls(**config)
    validate = getattr(cfg, "validate", None)
    if callable(validate):
        validate()
    return cfg


def available_algorithms() -> List[str]:
    """Sorted canonical names :func:`make_algorithm` accepts."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def algorithm_descriptions() -> Dict[str, str]:
    """Name -> one-line description, for ``--help`` style listings."""
    return {name: _REGISTRY[name].description
            for name in available_algorithms()}


def make_algorithm(
    name: str,
    max_vls: int = 8,
    workers: Optional[int] = None,
    **config: object,
) -> RoutingAlgorithm:
    """Instantiate routing algorithm ``name``, validated up front.

    Parameters
    ----------
    name:
        A canonical algorithm name (see :func:`available_algorithms`).
    max_vls:
        Virtual-channel budget; raised to the algorithm's floor where
        one exists (Torus-2QoS needs 2).
    workers:
        Engine parallelism: ``None`` = run-wide default, ``0`` = all
        cores, ``N`` = at most N pool workers.
    config:
        Algorithm-specific keywords (e.g. Nue's ``partitioner`` or
        ``enable_backtracking``); unknown keys raise immediately.
    """
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown routing algorithm {name!r}; choose from "
            f"{available_algorithms()}"
        )
    return spec.factory(
        max_vls=max(spec.min_vls, max_vls), workers=workers,
        config=build_config(name, **config),
    )


# -- built-in registrations ----------------------------------------------------


_builtins_registered = False


def _ensure_builtins() -> None:
    """Register the paper's algorithm set on first registry use.

    Deferred because the built-in factories import :mod:`repro.core`
    (Nue), which itself imports :mod:`repro.routing.base` — eager
    registration at module import would be a cycle.
    """
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True
    from repro.core.nue import NueConfig, NueRouting
    from repro.routing.dfsssp import DFSSSPConfig, DFSSSPRouting
    from repro.routing.dor import DORConfig, DORRouting
    from repro.routing.ftree import FatTreeConfig, FatTreeRouting
    from repro.routing.lash import LASHConfig, LASHRouting
    from repro.routing.minhop import MinHopConfig, MinHopRouting
    from repro.routing.torus2qos import Torus2QoSConfig, Torus2QoSRouting
    from repro.routing.updn import (
        DownUpRouting,
        UpDownConfig,
        UpDownRouting,
    )

    @register("nue", config_cls=NueConfig,
              description="this paper: complete-CDG Dijkstra, "
                          "deadlock-free at any k >= 1")
    def _make_nue(max_vls: int, workers: Optional[int],
                  config: NueConfig) -> RoutingAlgorithm:
        return NueRouting(max_vls, config, workers=workers)

    @register("dfsssp", config_cls=DFSSSPConfig,
              description="balanced SSSP + cycle-breaking "
                          "layer assignment")
    def _make_dfsssp(max_vls: int, workers: Optional[int],
                     config: DFSSSPConfig) -> RoutingAlgorithm:
        return DFSSSPRouting(max_vls, workers=workers,
                             spread_layers=config.spread_layers)

    @register("updn", config_cls=UpDownConfig,
              description="Up*/Down* BFS-tree turn restriction")
    def _make_updn(max_vls: int, workers: Optional[int],
                   config: UpDownConfig) -> RoutingAlgorithm:
        return UpDownRouting(max_vls, root=config.root, workers=workers)

    @register("dnup", config_cls=UpDownConfig,
              description="Down*/Up* (inverted rule)")
    def _make_dnup(max_vls: int, workers: Optional[int],
                   config: UpDownConfig) -> RoutingAlgorithm:
        return DownUpRouting(max_vls, root=config.root, workers=workers)

    simple = {
        "minhop": (MinHopRouting, MinHopConfig,
                   "balanced minimal paths, no deadlock avoidance"),
        "dor": (DORRouting, DORConfig,
                "dimension-order routing on tori/meshes"),
        "ftree": (FatTreeRouting, FatTreeConfig,
                  "d-mod-k fat-tree routing"),
        "lash": (LASHRouting, LASHConfig,
                 "minimal paths + greedy layer assignment"),
    }
    for algo_name, (cls, cfg_cls, desc) in simple.items():
        def _make_simple(max_vls: int, workers: Optional[int],
                         config: object, _cls=cls) -> RoutingAlgorithm:
            return _cls(max_vls, workers=workers)

        register(algo_name, description=desc,
                 config_cls=cfg_cls)(_make_simple)

    @register("torus-2qos", min_vls=2, config_cls=Torus2QoSConfig,
              description="fault-tolerant dateline DOR, 2 VLs, tori only")
    def _make_t2q(max_vls: int, workers: Optional[int],
                  config: Torus2QoSConfig) -> RoutingAlgorithm:
        return Torus2QoSRouting(max_vls, workers=workers)
