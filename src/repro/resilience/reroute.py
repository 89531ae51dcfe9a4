"""Incremental and from-scratch rerouting after fault events.

Two strategies with different guarantees:

:func:`exact_reroute`
    Routes the degraded network from scratch.  Bit-identical — by
    construction — to calling the algorithm on the degraded network
    directly, which is the oracle the resilience tests pin campaign
    bookkeeping against.  Cost: every destination is recomputed.

:func:`incremental_reroute`
    Fail-in-place repair on the *surviving* fabric: the network object
    is kept (stable node and channel ids — applicable exactly when the
    fault killed no node), failed channels are retired inside each
    affected layer's fresh complete CDG, and only the *dirty*
    destinations — those whose forwarding trees traverse a failed
    channel — are recomputed.  Surviving columns are adopted verbatim:
    their dependencies are re-marked used and their balancing weight
    updates replayed, so repair steps respect the retained trees
    exactly as later destinations respect earlier ones in a full run.
    Layers with no dirty destination are not touched at all.

    The repaired result is deadlock-free by construction (retained
    dependencies are a subset of a previously acyclic set; dependency
    removal preserves acyclicity; repair steps go through the same
    cycle-blocking search as any Nue step) and deterministic, but it is
    *not* bit-identical to a from-scratch route of the degraded
    network: Nue's weights and restrictions accumulate across the
    destinations of a layer, so recomputing a subset cannot reproduce
    the from-scratch sequence.  The campaign engine validates every
    repaired result and records the verdict in the
    :class:`~repro.resilience.engine.DegradationReport`.

Layer repair fans out over :func:`repro.engine.run_layer_tasks` —
layers are independent, so dirty layers repair in parallel with the
same bit-identical merge the full router uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dijkstra import RetainedColumnConflict
from repro.core.escape import DisconnectedError
from repro.core.nue import NueConfig, _LayerConfig, build_layer_state, plan_layers
from repro.engine import resolve_workers, run_layer_tasks, tablestore
from repro.network.faults import FaultResult
from repro.network.graph import Network, as_network
from repro.obs import core as obs
from repro.routing.base import RoutingAlgorithm, RoutingResult
from repro.utils.prng import SeedLike

__all__ = [
    "IncrementalNotApplicable",
    "REFUSAL_REASONS",
    "dirty_destinations",
    "exact_reroute",
    "incremental_reroute",
    "translate_to_degraded",
]


#: why :func:`incremental_reroute` refused, one word per precondition
REFUSAL_REASONS = (
    "algorithm",          # the prior routing is not a nue routing
    "injection_lost",     # a destination terminal lost its injection channel
    "disconnected",       # the surviving fabric no longer spans every node
    "retained_conflict",  # a retained column cannot be re-marked
)


class IncrementalNotApplicable(RuntimeError):
    """Incremental repair cannot preserve its guarantees for this event.

    Raised when the prior routing is not Nue's, a terminal lost its
    injection channel, the surviving fabric is disconnected, or retained
    state cannot be re-marked; ``reason`` names which, from
    :data:`REFUSAL_REASONS` (``None`` when rebuilt from a wire error).
    The campaign engine falls back to :func:`exact_reroute`.
    """

    def __init__(self, message: str = "",
                 reason: Optional[str] = None) -> None:
        super().__init__(message)
        self.reason = reason


def dirty_destinations(
    result: RoutingResult, failed_channels: Sequence[int]
) -> List[int]:
    """Destinations whose forwarding trees traverse a failed channel.

    A destination's column is its full forwarding tree (one entry per
    node), so one vectorised membership test per column decides
    dirtiness.
    """
    if not failed_channels:
        return []
    failed = np.asarray(sorted(set(failed_channels)), dtype=np.int64)
    hit = np.isin(result.next_channel, failed).any(axis=0)
    return [d for j, d in enumerate(result.dests) if hit[j]]


def exact_reroute(
    fault: FaultResult,
    algo: RoutingAlgorithm,
    seed: SeedLike = None,
    dests: Optional[Sequence[int]] = None,
) -> RoutingResult:
    """From-scratch route of the degraded network (the oracle anchor)."""
    return algo.route(fault.net, dests=dests, seed=seed)


def _repair_layer(
    ctx: Tuple[Network, "_LayerConfig", List[int]],
    task: Tuple[int, List[int], Optional[np.ndarray], List[bool],
                Optional[tablestore.SegmentHandle], List[int]],
) -> Tuple[int, Optional[np.ndarray], Dict[str, object]]:
    """Repair one virtual layer (engine worker function).

    Rebuilds the layer's CDG on the surviving fabric (failed channels
    retired before the escape tree is marked), adopts every clean
    retained column in subset order, then recomputes the dirty
    destinations in subset order.  Deterministic given the task, so it
    runs identically serial or pooled.

    With the table's :class:`~repro.engine.fabric.SegmentHandle` in the
    task, no table bytes travel either direction: the parent prefilled
    the new table with the prior's columns, so the worker *stages its
    prior block from the shm mapping itself* (``cols`` are the layer's
    full-table column indices), adopts the clean columns — which stay
    resident, an adoption is now an shm no-op — and writes only the
    recomputed dirty columns back (``fabric.table_writes``).  When
    the table has no segment (``handle is None``) the prior block
    rides the task and the repaired block the result, bit-identical.
    """
    net, cfg, failed = ctx
    layer_idx, subset, block, dirty_flags, handle, cols = task
    with obs.span("resilience.repair_layer", layer=layer_idx,
                  dests=len(subset), dirty=sum(dirty_flags)):
        if block is None:
            # shm path: the parent prefilled the table with the prior
            # columns; attach and stage this layer's block locally
            block = tablestore.read_columns(handle, cols)
        router = build_layer_state(
            net, cfg, layer_idx, subset, retire_channels=failed
        )
        new_block = np.array(block, copy=True)
        for col, d in enumerate(subset):
            if not dirty_flags[col]:
                router.adopt_column(d, block[:, col])
        stats: Dict[str, object] = {
            "recomputed": 0,
            "retained": len(subset) - sum(dirty_flags),
            "fallbacks": 0,
            "islands_resolved": 0,
            "shortcuts_taken": 0,
        }
        # recompute the dirty destinations in one call (subset order
        # preserved, so state evolution — weights, CDG bytes — is that
        # of routing them one after another)
        dirty_cols = [col for col, flag in enumerate(dirty_flags) if flag]
        dirty_dests = [subset[col] for col in dirty_cols]
        for step in router.route_batch(dirty_dests, new_block,
                                       cols=dirty_cols):
            stats["recomputed"] += 1  # type: ignore[operator]
            if step.fell_back:
                stats["fallbacks"] += 1  # type: ignore[operator]
            stats["islands_resolved"] += step.islands_resolved  # type: ignore[operator]
            stats["shortcuts_taken"] += step.shortcuts_taken  # type: ignore[operator]
        if cfg.verify_acyclic:
            router.cdg.assert_acyclic()
        if obs.enabled():
            obs.count_many(router.cdg.counter_snapshot(), layer=layer_idx)
    if dirty_dests and tablestore.write_columns(
            handle, [cols[c] for c in dirty_cols],
            new_block[:, dirty_cols]):
        return layer_idx, None, stats
    if handle is not None and not dirty_dests:
        # nothing recomputed: the prefilled columns are already final
        return layer_idx, None, stats
    return layer_idx, new_block, stats


def incremental_reroute(
    net: Network,
    prior: RoutingResult,
    failed_channels: Sequence[int],
    config: Optional[NueConfig] = None,
    max_vls: int = 1,
    seed: SeedLike = None,
    workers: Optional[int] = None,
) -> Tuple[RoutingResult, Dict[str, object]]:
    """Fail-in-place repair of a routed network after channel failures.

    ``net`` is the *original* network object (fail-in-place: its ids
    stay authoritative), ``prior`` the routing computed on it (same
    ``config``/``max_vls``/``seed``), and ``failed_channels`` the
    cumulative set of failed directed-channel ids in ``net``'s id
    space.  Returns ``(repaired result, repair stats)``; the result's
    tables are in ``net``'s id space and never use a failed channel.

    Raises :class:`IncrementalNotApplicable` when the preconditions for
    the fail-in-place guarantees do not hold (see class docstring).
    """
    net = as_network(net)
    cfg = config or NueConfig()
    if prior.algorithm != "nue":
        raise IncrementalNotApplicable(
            f"incremental repair supports nue routings, not "
            f"{prior.algorithm!r}", "algorithm"
        )
    failed: Set[int] = set(int(c) for c in failed_channels)
    for d in prior.dests:
        if net.is_terminal(d) and net.csr.injection_channel[d] in failed:
            raise IncrementalNotApplicable(
                f"terminal {net.node_names[d]} lost its injection channel",
                "injection_lost",
            )

    dirty = set(dirty_destinations(prior, sorted(failed)))
    stats: Dict[str, object] = {
        "dests_total": len(prior.dests),
        "dests_dirty": len(dirty),
        "dests_recomputed": 0,
        "layers_total": prior.n_vls,
        "layers_repaired": 0,
        "fallbacks": 0,
    }
    if not dirty:
        return prior, stats

    parts, _layer_seeds = plan_layers(
        net, list(prior.dests), max_vls, cfg, seed
    )
    layer_cfg = _LayerConfig.from_config(cfg, single_layer=len(parts) == 1)
    failed_list = sorted(failed)

    dirty_layers = []
    for idx, subset in enumerate(parts):
        flags = [d in dirty for d in subset]
        if any(flags):
            dirty_layers.append((idx, subset, flags))

    # the repaired tables get their own table, prefilled with the
    # prior columns: retained (adopted) columns are thereby already
    # final in place, and repair workers stage their prior block from
    # the shm mapping instead of receiving it in the task pickle
    # (which carries it only when the table has no segment to attach)
    table = tablestore.create_table(
        net.n_nodes, len(prior.dests), resolve_workers(workers, len(dirty_layers)))
    table.next_channel[...] = prior.next_channel
    table.vl[...] = prior.vl

    tasks = []
    for idx, subset, flags in dirty_layers:
        cols = [prior.dest_index(d) for d in subset]
        block = None if table.handle is not None else \
            np.ascontiguousarray(prior.next_channel[:, cols])
        tasks.append((idx, list(subset), block, flags, table.handle, cols))

    try:
        outcomes = run_layer_tasks(
            _repair_layer, (net, layer_cfg, failed_list), tasks,
            workers=workers,
        )
        for layer_idx, new_block, layer_stats in outcomes:
            if new_block is not None:
                cols = [prior.dest_index(d) for d in parts[layer_idx]]
                table.next_channel[:, cols] = new_block
            stats["layers_repaired"] += 1  # type: ignore[operator]
            stats["dests_recomputed"] += layer_stats["recomputed"]  # type: ignore[operator]
            stats["fallbacks"] += layer_stats["fallbacks"]  # type: ignore[operator]
    except DisconnectedError as exc:
        raise IncrementalNotApplicable(str(exc), "disconnected") from exc
    except RetainedColumnConflict as exc:
        # the escape tree moved under a retained column
        raise IncrementalNotApplicable(
            str(exc), "retained_conflict") from exc

    repaired = RoutingResult(
        net=net,
        dests=list(prior.dests),
        next_channel=table.next_channel,
        vl=table.vl,
        n_vls=prior.n_vls,
        algorithm=prior.algorithm,
    )
    repaired.attach_table(table)
    repaired.stats = {
        "repair": dict(stats),
        "parent_stats": prior.stats,
    }
    return repaired, stats


def translate_to_degraded(
    result: RoutingResult, fault: FaultResult
) -> RoutingResult:
    """Re-express a fail-in-place result in the degraded network's ids.

    Requires node-preserving faults (link-only): rows and destinations
    keep their ids, channel entries map through
    :attr:`FaultResult.channel_map`.  The translated tables are what an
    exporter (LFT dump, simulator) consuming the rebuilt degraded
    :class:`Network` expects.
    """
    if not fault.nodes_preserved:
        raise ValueError("translation requires node-preserving faults")
    cmap = np.asarray(fault.channel_map + [-1], dtype=np.int64)
    nxt = cmap[result.next_channel]  # -1 entries hit the appended -1
    if (nxt < 0).sum() > (result.next_channel < 0).sum():
        raise ValueError("tables still reference a failed channel")
    out = RoutingResult(
        net=fault.net,
        dests=list(result.dests),
        next_channel=nxt.astype(np.int32),
        vl=np.array(result.vl, copy=True),
        n_vls=result.n_vls,
        algorithm=result.algorithm,
    )
    out.stats = dict(result.stats)
    return out
