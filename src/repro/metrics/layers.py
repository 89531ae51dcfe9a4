"""Virtual-layer usage analysis.

The paper's conclusion motivates budgeting VLs between deadlock freedom
and QoS; operators doing that want to know how *evenly* a routing uses
the layers it was given — a severely skewed assignment wastes buffer
space on idle lanes.  :func:`layer_usage` reports per-layer route
counts and channel loads; :func:`layer_balance` condenses that into a
[0, 1] evenness score (1 = perfectly even).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.routing.base import RoutingResult
from repro.routing.walk import VL_BITS, vc_nodes, vl_field, walk

__all__ = ["LayerUsage", "layer_usage", "layer_balance"]


@dataclass(frozen=True)
class LayerUsage:
    """Per-virtual-layer accounting of a routing result."""

    n_vls: int
    routes_per_layer: Dict[int, int]
    hops_per_layer: Dict[int, int]

    @property
    def used_layers(self) -> List[int]:
        return sorted(
            layer for layer, n in self.routes_per_layer.items() if n
        )


def layer_usage(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
) -> LayerUsage:
    """Count routes and hop-volume per virtual layer.

    A route's layers come from its per-hop VLs, so VL-transitioning
    routings (Torus-2QoS) are accounted hop-exactly.
    """
    net = result.net
    if sources is None:
        sources = net.terminals
    routes = np.zeros(1 << VL_BITS, dtype=np.int64)
    hops = np.zeros(1 << VL_BITS, dtype=np.int64)
    for blk in walk(net, result.next_channel, result.dests, sources):
        blk.require_routed(result)
        ptr, chan = blk.paths()
        vls = result._hop_vls(blk.src, blk.col, ptr, chan)
        vls = vl_field(vls)
        hops += np.bincount(vls, minlength=hops.size)
        first_hop = ptr[:-1][blk.hops > 0]
        routes += np.bincount(vls[first_hop], minlength=routes.size)

    def per_layer(counts: np.ndarray) -> Dict[int, int]:
        used = np.flatnonzero(counts)
        layers = vc_nodes(used)[1]  # field byte -> signed VL
        return dict(zip(layers.tolist(), counts[used].tolist()))

    return LayerUsage(
        n_vls=result.n_vls,
        routes_per_layer=per_layer(routes),
        hops_per_layer=per_layer(hops),
    )


def layer_balance(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
) -> float:
    """Evenness of hop volume across the declared layers, in [0, 1].

    Defined as ``1 - normalized mean absolute deviation`` over the
    per-layer hop counts (all layers of ``result.n_vls`` counted, idle
    ones as zero); 1.0 means every layer carries the same volume.
    """
    usage = layer_usage(result, sources)
    counts = np.array(
        [usage.hops_per_layer.get(layer, 0)
         for layer in range(max(1, result.n_vls))],
        dtype=float,
    )
    total = counts.sum()
    if total == 0:
        return 1.0
    mean = total / counts.size
    mad = np.abs(counts - mean).mean()
    # maximum possible MAD: all volume on one layer
    worst = 2 * mean * (counts.size - 1) / counts.size
    return 1.0 if worst == 0 else float(1.0 - mad / worst)
