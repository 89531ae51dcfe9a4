"""repro.engine — parallel routing execution and result memoisation.

The engine is the layer between routing algorithms and the hardware:

* :func:`run_layer_tasks` — fan independent per-layer routing tasks
  out over a process pool, results merged back in layer order so
  parallel output is bit-identical to serial (``docs/engine.md``);
* :func:`set_default_workers` / :func:`get_default_workers` — the
  run-wide worker default behind ``--workers`` flags;
* :func:`enable_route_cache` / :class:`RouteCache` — opt-in memo cache
  for repeated identical routings, keyed by
  :func:`network_fingerprint` + algorithm identity + seed;
* :mod:`repro.engine.fabric` — the shared-memory fabric behind the
  pool: zero-copy network transport (:func:`export_network` /
  :func:`attach_network` / :class:`ShmNetworkHandle`), the persistent
  worker pool (:func:`shutdown` tears it down), and
  :func:`shard_destinations` for destination-sharded kernels.
"""

from repro.engine.cache import (
    RouteCache,
    active_route_cache,
    disable_route_cache,
    enable_route_cache,
    route_cache_key,
)
from repro.engine.core import (
    get_default_workers,
    resolve_workers,
    run_layer_tasks,
    set_default_workers,
    worker_budget,
)
from repro.engine.fabric import (
    ShmNetworkHandle,
    attach_network,
    export_network,
    release_network,
    shard_destinations,
    shutdown,
)
from repro.engine.fingerprint import network_fingerprint

__all__ = [
    "run_layer_tasks",
    "resolve_workers",
    "worker_budget",
    "set_default_workers",
    "get_default_workers",
    "RouteCache",
    "enable_route_cache",
    "disable_route_cache",
    "active_route_cache",
    "route_cache_key",
    "network_fingerprint",
    "ShmNetworkHandle",
    "export_network",
    "release_network",
    "attach_network",
    "shard_destinations",
    "shutdown",
]
