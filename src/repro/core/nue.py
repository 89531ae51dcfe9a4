"""Nue routing (paper Algorithm 2) — the library's primary contribution.

For a VC budget ``k >= 1``:

1. partition the destinations into ``k`` disjoint subsets (multilevel
   k-way by default);
2. per virtual layer: build the convex subgraph of its destinations,
   pick the betweenness-central root, create a fresh complete CDG, mark
   the escape-path dependencies of a BFS spanning tree;
3. route every destination of the layer with the modified Dijkstra
   inside the CDG (Algorithm 1), resolving impasses by local
   backtracking / island shortcuts and, as the last resort, the
   escape-path fallback;
4. update channel weights after each destination to balance load.

The result is deadlock-free for *any* ``k`` — including ``k = 1`` — on
*any* topology (Lemmas 1–3), which is Nue's distinguishing property
among the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.cdg.complete_cdg import CompleteCDG
from repro.core.dijkstra import NueLayerRouter
from repro.core.escape import EscapePaths
from repro.core.root import select_root
from repro.engine import resolve_workers, run_layer_tasks, tablestore
from repro.network.graph import Network
from repro.obs import core as obs
from repro.partition import make_partitioner, partition_destinations
from repro.routing.base import RoutingAlgorithm, RoutingResult
from repro.utils.prng import SeedLike, make_rng, spawn_seed

__all__ = ["NueConfig", "NueRouting", "plan_layers", "build_layer_state"]


@dataclass
class NueConfig:
    """Tunable knobs of Nue (defaults = the paper's configuration).

    Attributes
    ----------
    partitioner:
        ``"kway"`` (default), ``"random"``, ``"cluster"`` or
        ``"spectral"`` — Section 4.5 evaluates the first three (k-way
        wins on balance); spectral bisection implements the section's
        future-work direction of improved partitioning.
    enable_backtracking / enable_shortcuts:
        The Section 4.6.2 / 4.6.3 optimisations; switching them off
        (ablation benches) forces more escape-path fallbacks / longer
        paths respectively.
    verify_acyclic:
        Re-check every layer's CDG with an exact Kahn pass after
        routing (cheap insurance; on by default).
    """

    partitioner: str = "kway"
    enable_backtracking: bool = True
    enable_shortcuts: bool = True
    verify_acyclic: bool = True
    # inert, not a field: bench/workloads/route.py:67 reads cfg.kernel
    kernel: ClassVar[str] = "python"

    def validate(self) -> None:
        """Eager one-line validation (the registry calls this).

        An unknown partitioner fails here with the one-line error, not
        deep inside a layer worker.
        """
        from repro.partition import available_partitioners

        names = available_partitioners()
        if self.partitioner not in names:
            raise ValueError(
                f"unknown nue partitioner {self.partitioner!r}; "
                f"choose from {names}"
            )


@dataclass(frozen=True)
class _LayerConfig:
    """The slice of routing state a layer worker needs.

    Travels in the task context next to the network (which the engine
    swaps for a shared-memory handle — see
    :mod:`repro.engine.fabric`); a frozen few-field dataclass, so its
    pickle is tiny.  Carries the :class:`NueConfig` knobs the
    per-layer code reads plus ``single_layer`` — whether root
    selection may reuse the all-destination betweenness shortcut
    (``k == 1``), which in the serial code was derived from
    ``len(parts)`` that workers never see.
    """

    enable_backtracking: bool
    enable_shortcuts: bool
    verify_acyclic: bool
    single_layer: bool

    @classmethod
    def from_config(cls, cfg: NueConfig,
                    single_layer: bool) -> "_LayerConfig":
        return cls(
            enable_backtracking=cfg.enable_backtracking,
            enable_shortcuts=cfg.enable_shortcuts,
            verify_acyclic=cfg.verify_acyclic,
            single_layer=single_layer,
        )


def plan_layers(
    net: Network,
    dests: List[int],
    max_vls: int,
    cfg: NueConfig,
    seed: SeedLike,
) -> Tuple[List[List[int]], List[int]]:
    """Destination partition + per-layer child seeds for one Nue run.

    Factored out of :meth:`NueRouting._route` so the resilience engine
    can re-derive, deterministically, the exact layer plan a prior run
    used (same partitioner, same seed stream) when deciding which
    surviving layer state is reusable.  The child seeds are drawn in
    layer order so the stream is identical no matter how the layers
    are later scheduled.
    """
    rng = make_rng(seed)
    partitioner = make_partitioner(cfg.partitioner)
    k = min(max_vls, len(dests))
    with obs.span("nue.partition", k=k, method=cfg.partitioner):
        parts = partition_destinations(
            net, dests, k, partitioner, spawn_seed(rng)
        )
    layer_seeds = [spawn_seed(rng) for _ in parts]
    return parts, layer_seeds


def build_layer_state(
    net: Network,
    cfg: "_LayerConfig",
    layer_idx: int,
    subset: List[int],
    retire_channels: Optional[List[int]] = None,
) -> NueLayerRouter:
    """Construct one layer's routing state: root, CDG, escape, router.

    ``retire_channels`` (fail-in-place faults) are retired on the fresh
    CDG *before* the escape tree is marked, so the spanning tree and
    every later dependency avoid the failed channels.  Returns the
    layer router; the CDG and escape paths hang off it.
    """
    with obs.span("nue.select_root", layer=layer_idx):
        root = select_root(
            net,
            subset,
            all_dests=bool(cfg.single_layer),
        )
    cdg = CompleteCDG(net)
    if retire_channels:
        for c in retire_channels:
            cdg.retire_channel(c)
    with obs.span("nue.escape_mark", layer=layer_idx):
        escape = EscapePaths(net, cdg, root, subset)
    return NueLayerRouter(
        net,
        cdg,
        escape,
        enable_backtracking=cfg.enable_backtracking,
        enable_shortcuts=cfg.enable_shortcuts,
        layer_index=layer_idx,
    )


def _route_layer(
    ctx: Tuple[Network, "_LayerConfig"],
    task: Tuple[int, List[int], int, Optional[tablestore.SegmentHandle],
                List[int]],
) -> Tuple[int, Optional[np.ndarray], Dict[str, object]]:
    """Route one virtual layer: the :mod:`repro.engine` worker function.

    Layers are independent by construction — each gets a fresh complete
    CDG, root and escape tree, and the routing inside a layer is fully
    deterministic given ``(net, subset, layer_idx, config)`` — so this
    function runs identically in-process (``workers=1``) or in a pool
    worker.  It must stay module-level (picklable by reference) and
    must not touch global state other than :mod:`repro.obs` (whose
    worker-side events the engine captures and replays in the parent).

    When the task carries the table's :class:`~repro.engine.fabric.
    SegmentHandle`, the layer's column block is written **directly into
    the shm-resident table** at the full-table column indices ``cols``
    (``fabric.table_writes``) and the returned block is None — no
    table bytes ride the result pipe.  Without a handle (a one-worker
    route, or no segment could be allocated or attached) the block
    returns in the task result and the parent scatters it.  Either way
    the values are bit-identical: the block is staged
    and filled locally by the same ``route_batch`` call.  The spawned
    ``layer_seed`` is carried for forward compatibility — no current
    layer computation draws from it.
    """
    net, cfg = ctx
    layer_idx, subset, _layer_seed, handle, cols = task
    with obs.span("nue.layer", layer=layer_idx, dests=len(subset)):
        router = build_layer_state(net, cfg, layer_idx, subset)
        cdg = router.cdg
        escape = router.escape
        layer_stats: Dict[str, object] = {
            "root": net.node_names[escape.tree.root],
            "destinations": len(subset),
            "initial_dependencies": escape.initial_dependencies,
            "fallbacks": 0,
            "islands_resolved": 0,
            "shortcuts_taken": 0,
        }
        block = np.full((net.n_nodes, len(subset)), -1, dtype=np.int32)
        # one call per layer: all destinations advance on the shared
        # CDG/weight state in subset order
        for step in router.route_batch(subset, block):
            if step.fell_back:
                layer_stats["fallbacks"] += 1  # type: ignore[operator]
            layer_stats["islands_resolved"] += step.islands_resolved  # type: ignore[operator]
            layer_stats["shortcuts_taken"] += step.shortcuts_taken  # type: ignore[operator]
        if cfg.verify_acyclic:
            with obs.span("nue.verify_acyclic", layer=layer_idx):
                cdg.assert_acyclic()
        layer_stats["cycle_searches"] = cdg.cycle_searches
        if obs.enabled():
            obs.count_many(cdg.counter_snapshot(), layer=layer_idx)
            obs.count("escape.initial_deps",
                      escape.initial_dependencies,
                      layer=layer_idx)
    if tablestore.write_columns(handle, cols, block, vl_fill=layer_idx):
        return layer_idx, None, layer_stats
    return layer_idx, block, layer_stats


class NueRouting(RoutingAlgorithm):
    """Deadlock-free, oblivious, destination-based routing for any k >= 1.

    ``workers`` routes the independent virtual layers on a process
    pool (see :mod:`repro.engine`); the merged tables are bit-identical
    to the serial run for every worker count.
    """

    name = "nue"

    def __init__(
        self,
        max_vls: int = 1,
        config: Optional[NueConfig] = None,
        workers: Optional[int] = None,
    ) -> None:
        super().__init__(max_vls, workers=workers)
        self.config = config or NueConfig()

    def cache_config(self):
        cfg = self.config
        return (
            self.max_vls,
            cfg.partitioner,
            cfg.enable_backtracking,
            cfg.enable_shortcuts,
            cfg.verify_acyclic,
        )

    def _route(
        self, net: Network, dests: List[int], seed: SeedLike
    ) -> RoutingResult:
        cfg = self.config
        parts, layer_seeds = plan_layers(net, dests, self.max_vls, cfg, seed)
        layer_cfg = _LayerConfig.from_config(cfg, single_layer=len(parts) == 1)
        dest_col = {d: j for j, d in enumerate(dests)}
        # one writable table for the whole request: workers land their
        # layer's columns in place and the result is a zero-copy view
        # (handle None = no segment; workers then return their blocks)
        table = tablestore.create_table(
            net.n_nodes, len(dests), resolve_workers(self.workers, len(parts)))
        tasks = [
            (idx, list(subset), layer_seeds[idx], table.handle,
             [dest_col[d] for d in subset])
            for idx, subset in enumerate(parts)
        ]
        outcomes = run_layer_tasks(
            _route_layer, (net, layer_cfg), tasks, workers=self.workers
        )
        stats: Dict[str, object] = {
            "layers": [],
            "fallbacks": 0,
            "islands_resolved": 0,
            "shortcuts_taken": 0,
            "cycle_searches": 0,
        }

        # merge column blocks back in layer order: partitions are
        # disjoint, so the scatter is conflict-free and the result is
        # bit-identical to the serial in-place writes.  A None block
        # was already written into the shm table by its worker (the
        # zero-copy path)
        for layer_idx, block, layer_stats in outcomes:
            if block is not None:
                cols = [dest_col[d] for d in parts[layer_idx]]
                table.next_channel[:, cols] = block
                table.vl[:, cols] = layer_idx
            stats["layers"].append(layer_stats)  # type: ignore[union-attr]
            stats["fallbacks"] += layer_stats["fallbacks"]  # type: ignore[operator]
            stats["islands_resolved"] += layer_stats["islands_resolved"]  # type: ignore[operator]
            stats["shortcuts_taken"] += layer_stats["shortcuts_taken"]  # type: ignore[operator]
            stats["cycle_searches"] += layer_stats["cycle_searches"]  # type: ignore[operator]

        result = RoutingResult(
            net=net,
            dests=dests,
            next_channel=table.next_channel,
            vl=table.vl,
            n_vls=len(parts),
            algorithm=self.name,
        )
        result.attach_table(table)
        result.stats = stats
        result.stats["fallback_rate"] = (
            stats["fallbacks"] / len(dests) if dests else 0.0  # type: ignore[operator]
        )
        return result
