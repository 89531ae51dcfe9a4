"""Routing framework: algorithm interface and result container.

All routing algorithms in this library are *destination-based*
(Def. 3): the result is one next-channel per ``(node, destination)``
pair, exactly like an InfiniBand linear forwarding table, plus a
virtual-layer assignment per ``(source, destination)`` pair (the
InfiniBand SL→VL analogue).  Algorithms that cannot route a given
network within the virtual-channel budget raise
:class:`RoutingError`; algorithms that do not apply to a topology at
all (e.g. Torus-2QoS on a fat-tree) raise :class:`NotApplicableError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import cache as engine_cache
from repro.network.graph import Network, as_network
from repro.obs import core as obs
from repro.utils.prng import SeedLike

__all__ = [
    "RoutingError",
    "NotApplicableError",
    "RoutingResult",
    "RoutingAlgorithm",
]


class RoutingError(RuntimeError):
    """The algorithm failed on this network (e.g. exceeded the VC budget)."""


class NotApplicableError(RoutingError):
    """The algorithm does not support this topology class."""


@dataclass
class RoutingResult:
    """Destination-based forwarding state produced by a routing algorithm.

    Attributes
    ----------
    net:
        The routed network.
    dests:
        Destination node ids, in column order of the tables.
    next_channel:
        ``(n_nodes, n_dests)`` int32 array; entry ``[v, j]`` is the
        channel id node ``v`` forwards on toward ``dests[j]`` (-1 at
        the destination itself, or when no route exists).
    vl:
        ``(n_nodes, n_dests)`` int8 array; virtual layer used by
        traffic sourced at row-node toward ``dests[j]``.  Constant per
        column for destination-layered routings (Nue), per-pair for
        path-layered ones (DFSSSP, LASH).
    n_vls:
        Number of virtual layers actually used (``max(vl) + 1``).
    algorithm:
        Human-readable algorithm label.
    runtime_s:
        Wall-clock seconds spent inside :meth:`RoutingAlgorithm.route`.
    stats:
        Algorithm-specific diagnostics (e.g. Nue's escape-path
        fallback count).
    """

    net: Network
    dests: List[int]
    next_channel: np.ndarray
    vl: np.ndarray
    n_vls: int
    algorithm: str
    runtime_s: float = 0.0
    stats: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._dest_index = {d: j for j, d in enumerate(self.dests)}
        self._table = None

    def dest_index(self, dest: int) -> int:
        """Column index of destination node ``dest``."""
        return self._dest_index[dest]

    # -- backing table ---------------------------------------------------------

    def attach_table(self, table) -> None:
        """Hold the :class:`~repro.engine.tablestore.RouteTable` whose
        arrays ``next_channel``/``vl`` are; its segment, if any, is
        unlinked when the result goes."""
        self._table = table

    def release(self) -> None:
        """Unlink the backing segment now rather than when the result
        goes (optional, idempotent; the arrays stay valid)."""
        table, self._table = self._table, None
        if table is not None:
            table.release()

    def next_hop_channel(self, node: int, dest: int) -> int:
        """Forwarding channel at ``node`` toward ``dest`` (-1 if none/at dest)."""
        return int(self.next_channel[node, self._dest_index[dest]])

    def virtual_layer(self, src: int, dest: int) -> int:
        """Virtual layer of traffic from ``src`` to ``dest``."""
        return int(self.vl[src, self._dest_index[dest]])

    def path(self, src: int, dest: int) -> List[int]:
        """Channel sequence of the route ``src -> dest``.

        Returns ``[]`` for ``src == dest``.  Raises
        :class:`RoutingError` when the tables contain no route or a
        forwarding loop (more hops than nodes).
        """
        if src == dest:
            return []
        j = self._dest_index[dest]
        out: List[int] = []
        node = src
        nxt = self.next_channel
        dst_of = self.net.channel_dst
        for _ in range(self.net.n_nodes):
            c = int(nxt[node, j])
            if c < 0:
                raise RoutingError(
                    f"no route from {self.net.node_names[src]} to "
                    f"{self.net.node_names[dest]} (stuck at "
                    f"{self.net.node_names[node]})"
                )
            out.append(c)
            node = dst_of[c]
            if node == dest:
                return out
        raise RoutingError(
            f"forwarding loop routing {self.net.node_names[src]} -> "
            f"{self.net.node_names[dest]}"
        )

    def path_vls(self, src: int, dest: int) -> List[int]:
        """Virtual layer of each hop of the route ``src -> dest``.

        :meth:`_hop_vls` over this one route, so each result class has
        one per-hop VL rule: the InfiniBand SL model here (one layer
        for the whole path, ``vl[src, dest]``), Torus-2QoS's datelines
        in its override.
        """
        route = np.asarray(self.path(src, dest), dtype=np.int64)
        return self._hop_vls(np.array([src]),
                             np.array([self._dest_index[dest]]),
                             np.array([0, len(route)]), route).tolist()

    def _hop_vls(self, src: np.ndarray, col: np.ndarray,
                 ptr: np.ndarray, channel: np.ndarray) -> np.ndarray:
        """:meth:`path_vls` of many routes at once (table-walk hook).

        Route ``p`` runs from node ``src[p]`` toward table column
        ``col[p]`` over ``channel[ptr[p]:ptr[p + 1]]``; returns one VL
        per entry of ``channel``.  The base model repeats the pair's
        ``vl[src, dest]``; routings that transition VLs along a path
        (Torus-2QoS's datelines) override it.
        """
        return np.repeat(self.vl[src, col], np.diff(ptr))

    def path_nodes(self, src: int, dest: int) -> List[int]:
        """Node sequence of the route (including both endpoints)."""
        nodes = [src]
        for c in self.path(src, dest):
            nodes.append(self.net.channel_dst[c])
        return nodes

    def hop_count(self, src: int, dest: int) -> int:
        """Number of channels on the route ``src -> dest``."""
        return len(self.path(src, dest))


class RoutingAlgorithm:
    """Base class: a named, configurable routing function.

    Subclasses implement :meth:`_route`; the public :meth:`route`
    wrapper adds wall-clock accounting (which experiment Fig. 11's
    runtime comparison relies on) and, when a
    :mod:`repro.engine.cache` is active, serves/stores memoised
    results for repeated identical inputs.

    ``workers`` is the engine-level parallelism budget: algorithms
    whose work decomposes into independent virtual layers (Nue) fan
    out over a process pool; order-dependent algorithms (the greedy
    layer assigners of LASH/DFSSSP) accept the parameter for API
    uniformity and run in-process regardless.  ``None`` defers to
    :func:`repro.engine.get_default_workers`, ``0`` means all cores.
    """

    name = "abstract"

    def __init__(self, max_vls: int = 8,
                 workers: Optional[int] = None) -> None:
        if max_vls < 1:
            raise ValueError("max_vls must be >= 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0 (0 = all cores)")
        self.max_vls = max_vls
        self.workers = workers

    def cache_config(self) -> Hashable:
        """Hashable identity of every output-affecting knob.

        Part of the route-cache key; subclasses with extra
        configuration extend it.  ``workers`` is deliberately absent —
        the engine guarantees worker count never changes the output.
        """
        return (self.max_vls,)

    def route(
        self,
        net: Network,
        dests: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> RoutingResult:
        """Compute forwarding tables toward ``dests`` (default: terminals).

        Following the paper's evaluation methodology (Section 5),
        switches are excluded from the default destination set; pass
        ``dests=range(net.n_nodes)`` to route switch targets too.

        Accepts a bare :class:`Network` or anything
        :func:`~repro.network.graph.as_network` unwraps (e.g. a
        :class:`~repro.network.faults.FaultResult`).
        """
        net = as_network(net)
        if dests is None:
            dests = net.terminals or list(range(net.n_nodes))
        dests = list(dests)
        if not dests:
            raise ValueError("empty destination set")
        started = time.perf_counter()
        cache = engine_cache.active_route_cache()
        key: Optional[Hashable] = None
        if cache is not None:
            key = engine_cache.route_cache_key(
                net, self.name, self.cache_config(), tuple(dests), seed
            )
            if key is not None:
                hit = cache.lookup(key, net)
                if hit is not None:
                    hit.runtime_s = time.perf_counter() - started
                    return hit
        with obs.span(f"route.{self.name}", network=net.name,
                      dests=len(dests), max_vls=self.max_vls):
            result = self._route(net, dests, seed)
        result.runtime_s = time.perf_counter() - started
        if cache is not None and key is not None:
            cache.store(key, result)
        return result

    def _route(
        self,
        net: Network,
        dests: List[int],
        seed: SeedLike,
    ) -> RoutingResult:
        raise NotImplementedError

    def _empty_tables(
        self, net: Network, dests: List[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh (next_channel, vl) arrays filled with -1 / 0."""
        nxt = np.full((net.n_nodes, len(dests)), -1, dtype=np.int32)
        vl = np.zeros((net.n_nodes, len(dests)), dtype=np.int8)
        return nxt, vl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_vls={self.max_vls})"
