"""Edge forwarding index γ (paper Section 5.1; Heydemann et al. [15]).

γ of a directed channel is the number of routes crossing it.  The paper
reports, per topology/routing, the minimum, maximum, average and
standard deviation of γ over *inter-switch* channels, for routes
between all terminal pairs — "a high minimum γ and low maximum γ are
indicators for a well balanced routing algorithm".

Loads are accumulated from the table walk's per-hop channel records
(:mod:`repro.routing.walk`), one bincount per block of columns; pairs
the tables do not connect (post-fault dangling chains) contribute
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingResult
from repro.routing.walk import shard_walk, switch_channel_mask, walk

__all__ = ["edge_forwarding_indices", "GammaSummary", "gamma_summary"]


def _gamma_task(
    ctx: Tuple[Network, np.ndarray, np.ndarray, np.ndarray],
    shard: Sequence[int],
) -> np.ndarray:
    """Worker: per-channel route counts over one shard of columns.

    The full table arrives zero-copy (an shm table ticket or scratch
    view); the walk stages one block of columns at a time.
    """
    net = ctx[0]
    total = np.zeros(net.n_channels, dtype=np.int64)
    for blk in walk(*ctx, shard):
        total += np.bincount(blk.routed_channels(),
                             minlength=net.n_channels)
    return total


def edge_forwarding_indices(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Per-channel route counts for routes ``sources x dests``.

    ``sources`` defaults to the network's terminals (the paper's
    terminal-to-terminal traffic).  Self-pairs are excluded.  The
    column walks shard over the engine's worker pool (``workers``
    follows the engine convention: ``None`` = default, ``0`` = all
    cores); the integer column sums merge exactly, so the result is
    bit-identical for any worker count.
    """
    net = result.net
    if sources is None:
        sources = net.terminals
    total = np.zeros(net.n_channels, dtype=np.int64)
    for part in shard_walk(_gamma_task, result, sources, workers):
        total += part
    return total


@dataclass(frozen=True)
class GammaSummary:
    """min/max/avg/SD of γ over inter-switch channels (paper Fig. 9)."""

    minimum: float
    maximum: float
    average: float
    stddev: float

    def as_tuple(self) -> tuple:
        return (self.minimum, self.maximum, self.average, self.stddev)


def gamma_summary(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> GammaSummary:
    """Summarise γ over switch-to-switch channels only."""
    gamma = edge_forwarding_indices(result, sources, workers=workers)
    values = gamma[switch_channel_mask(result.net)].astype(float)
    if values.size == 0:
        return GammaSummary(0.0, 0.0, 0.0, 0.0)
    return GammaSummary(
        minimum=float(values.min()),
        maximum=float(values.max()),
        average=float(values.mean()),
        stddev=float(values.std()),
    )
