"""Every non-public ``repro`` name the traced run touches, in one table.

End-to-end runs import only ``repro.api``, the service client, the
``repro.fabric`` simulators and the ``repro`` CLI.  The traced run
re-composes the request path from the functions below so it can put a
span around each layer; those are internal names a later PR may move
or delete.  :func:`resolve` therefore never raises: a name that no
longer imports comes back in the ``missing`` map with the reason, the
metrics that needed it are reported as ``null``, and the run goes on.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable, Tuple

#: probe name -> ``"module:attribute"``
PROBES: Dict[str, str] = {
    # network / io
    "build_csr": "repro.network.csr:build_csr",
    "format_topology": "repro.io.topofile:format_topology",
    "parse_topology": "repro.io.topofile:parse_topology",
    # the Nue request path (core / cdg / partition / routing)
    "make_algorithm": "repro.routing.registry:make_algorithm",
    "NueConfig": "repro.core.nue:NueConfig",
    "plan_layers": "repro.core.nue:plan_layers",
    "resolve_kernel": "repro.core.kernels:resolve_kernel",
    "select_root": "repro.core.root:select_root",
    "CompleteCDG": "repro.cdg.complete_cdg:CompleteCDG",
    "EscapePaths": "repro.core.escape:EscapePaths",
    "NueLayerRouter": "repro.core.dijkstra:NueLayerRouter",
    "RoutingResult": "repro.routing.base:RoutingResult",
    # engine
    "network_fingerprint": "repro.engine.fingerprint:network_fingerprint",
    "export_network": "repro.engine.fabric:export_network",
    "release_network": "repro.engine.fabric:release_network",
    "create_table": "repro.engine.tablestore:create_table",
    "run_layer_tasks": "repro.engine.core:run_layer_tasks",
    # resilience
    "reachable_pairs": "repro.resilience.engine:_reachable_pairs",
    # fabric simulators
    "bernoulli_schedule": "repro.fabric.sweep:_bernoulli_schedule",
    "make_rng": "repro.utils.prng:make_rng",
    # service
    "encode_frame": "repro.service.protocol:encode_frame",
    "decode_frame": "repro.service.protocol:decode_frame",
    "get_codec": "repro.service.protocol:get_codec",
    "execute_route": "repro.service.requests:execute_route",
    "execute_analyze": "repro.service.requests:execute_analyze",
    "execute_reroute": "repro.service.requests:execute_reroute",
    "execute_transition": "repro.service.requests:execute_transition",
    # counters
    "obs": "repro:obs",
}


def _load(path: str) -> Any:
    module_name, _, attr = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def resolve(names: Iterable[str],
            table: Dict[str, str] = PROBES,
            ) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """Import the named probes.

    Returns ``(found, missing)``: ``found`` maps each importable name
    to its object, ``missing`` maps every other name to a one-line
    reason (unknown probe, module gone, attribute gone).
    """
    found: Dict[str, Any] = {}
    missing: Dict[str, str] = {}
    for name in names:
        path = table.get(name)
        if path is None:
            missing[name] = f"no probe named {name!r} in bench/probes.py"
            continue
        try:
            found[name] = _load(path)
        except (ImportError, AttributeError) as exc:
            missing[name] = f"{path}: {type(exc).__name__}: {exc}"
    return found, missing
