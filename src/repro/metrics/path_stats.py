"""Path-length statistics (paper Section 5.1).

The paper compares Nue's path lengths against the shortest-path
algorithms: maximum path length (Nue 7–10 at small k vs 6 for
DFSSSP/LASH on the random topologies) and averages.  Lengths are the
hop counts of the table walk's census
(:func:`repro.routing.walk.census`), counting terminal-to-terminal
hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs import core as obs
from repro.routing.base import RoutingResult
from repro.routing.walk import census, walk

__all__ = ["PathLengthStats", "path_length_stats", "tree_depths"]


def tree_depths(result: RoutingResult, j: int) -> np.ndarray:
    """Hop distance of every node to destination column ``j`` (-1: none)."""
    net = result.net
    (blk,) = walk(net, result.next_channel, result.dests,
                  range(net.n_nodes), [j])
    return np.maximum(blk.hops, -1).astype(np.int64)


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

    A view of :func:`~repro.routing.walk.census` (engine ``workers``).
    """
    return summarise_path_lengths(census(result, sources, workers).hops)


def summarise_path_lengths(pairs: np.ndarray) -> PathLengthStats:
    """:class:`PathLengthStats` of a census ``hops`` histogram."""
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
