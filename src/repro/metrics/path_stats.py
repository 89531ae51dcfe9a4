"""Path-length statistics (paper Section 5.1).

The paper compares Nue's path lengths against the shortest-path
algorithms: maximum path length (Nue 7–10 at small k vs 6 for
DFSSSP/LASH on the random topologies) and averages.  Lengths are the
hop counts of the table walk (:mod:`repro.routing.walk`), counting
terminal-to-terminal hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.network.graph import Network
from repro.obs import core as obs
from repro.routing.base import RoutingResult
from repro.routing.walk import shard_walk, walk

__all__ = ["PathLengthStats", "path_length_stats", "tree_depths"]


def tree_depths(result: RoutingResult, j: int) -> np.ndarray:
    """Hop distance of every node to destination column ``j`` (-1: none)."""
    net = result.net
    (blk,) = walk(net, result.next_channel, result.dests,
                  range(net.n_nodes), [j])
    return np.maximum(blk.hops, -1).astype(np.int64)


def _lengths_task(
    ctx: Tuple[Network, np.ndarray, np.ndarray, np.ndarray],
    shard: Sequence[int],
) -> np.ndarray:
    """Worker: ``pairs[length]`` histogram over one shard of columns.

    Self-pairs and pairs without a route are dropped.  The integer
    histograms of any sharding sum to the serial one.
    """
    pairs = np.zeros(ctx[0].n_nodes + 1, dtype=np.int64)
    for blk in walk(*ctx, shard):
        pairs += np.bincount(blk.hops[blk.hops > 0], minlength=pairs.size)
    return pairs


@dataclass(frozen=True)
class PathLengthStats:
    """Aggregate hop-count statistics over a routing's terminal pairs."""

    minimum: int
    maximum: int
    average: float
    n_routes: int
    histogram: dict

    def as_tuple(self) -> tuple:
        return (self.minimum, self.maximum, self.average, self.n_routes)


def path_length_stats(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> PathLengthStats:
    """Hop-count stats for routes from ``sources`` (default terminals).

    The column walks shard over the engine's worker pool (engine
    ``workers`` convention); the integer length histograms of the
    shards sum to the serial one, and every statistic derives from it.
    """
    net = result.net
    if sources is None:
        sources = net.terminals
    pairs = np.sum(shard_walk(_lengths_task, result, sources, workers),
                   axis=0)
    used = np.flatnonzero(pairs)
    if used.size == 0:
        return PathLengthStats(0, 0, 0.0, 0, {})
    lengths = {int(v): int(pairs[v]) for v in used}
    if obs.enabled():
        # the sweep's exact {hops: pairs} map folds into the shared
        # metrics.path_length histogram in O(distinct lengths)
        obs.observe_counts("metrics.path_length", lengths)
    count = int(pairs.sum())
    return PathLengthStats(
        minimum=int(used[0]),
        maximum=int(used[-1]),
        average=int(pairs @ np.arange(pairs.size)) / count,
        n_routes=count,
        histogram=lengths,
    )
