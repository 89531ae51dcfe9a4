"""Edge forwarding index γ (paper Section 5.1; Heydemann et al. [15]).

γ of a directed channel is the number of routes crossing it.  The paper
reports, per topology/routing, the minimum, maximum, average and
standard deviation of γ over *inter-switch* channels, for routes
between all terminal pairs — "a high minimum γ and low maximum γ are
indicators for a well balanced routing algorithm".

Loads are the census's per-channel route counts
(:func:`repro.routing.walk.census`); pairs the tables do not connect
(post-fault dangling chains) contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.network.graph import Network
from repro.routing.base import RoutingResult
from repro.routing.walk import census, switch_channel_mask

__all__ = ["edge_forwarding_indices", "GammaSummary", "gamma_summary"]


def edge_forwarding_indices(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Per-channel route counts for routes ``sources x dests``.

    ``sources`` defaults to the network's terminals (the paper's
    terminal-to-terminal traffic).  Self-pairs are excluded.  A view
    of :func:`~repro.routing.walk.census` (engine ``workers``).
    """
    return census(result, sources, workers).channel_routes


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
    return summarise_gamma(
        result.net, edge_forwarding_indices(result, sources, workers))


def summarise_gamma(net: Network, gamma: np.ndarray) -> GammaSummary:
    """:class:`GammaSummary` of per-channel route counts ``gamma``."""
    values = gamma[switch_channel_mask(net)].astype(float)
    if values.size == 0:
        return GammaSummary(0.0, 0.0, 0.0, 0.0)
    return GammaSummary(
        minimum=float(values.min()),
        maximum=float(values.max()),
        average=float(values.mean()),
        stddev=float(values.std()),
    )
