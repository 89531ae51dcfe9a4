"""The seven workloads, by name (see ``bench/README.md`` for why each
exists and which layers it is meant to stress or bypass)."""

from __future__ import annotations

from typing import Dict, Type

from bench.workloads.base import Workload


def registry() -> Dict[str, Type[Workload]]:
    """Workload name -> class.  Imports ``repro``; call after
    :func:`bench.runtime.bootstrap`."""
    from bench.workloads.analyze import AnalyzeTorus
    from bench.workloads.campaign import CampaignTorus
    from bench.workloads.route import RouteFtree, RouteTorus
    from bench.workloads.rpc import RpcSmall, RpcTable
    from bench.workloads.simulate import SimulateTorus

    classes = (RouteFtree, RouteTorus, RpcSmall, RpcTable,
               CampaignTorus, AnalyzeTorus, SimulateTorus)
    return {cls.name: cls for cls in classes}
