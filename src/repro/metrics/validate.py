"""Routing validation: the paper's three validity properties (Def. 3).

A routing function is *valid* iff it is cycle-free, destination-based
and deadlock-free.  :func:`validate_routing` checks all three plus full
connectivity (Lemma 3) and raises :class:`ValidationError` with a
precise message on the first violation — every routing result produced
in the test suite goes through this gate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.metrics.deadlock import DeadlockAnalysis
from repro.routing.base import RoutingError, RoutingResult
from repro.routing.walk import BLOCK_COLS, census, raise_no_route

__all__ = ["ValidationError", "validate_routing"]


class ValidationError(AssertionError):
    """A routing result violates one of the validity properties."""


def _check_entries_leave_their_node(result: RoutingResult) -> None:
    """Table sanity: a forwarding entry is an out-channel of its row's node."""
    net = result.net
    channel_src = net.csr.channel_src
    rows = np.arange(net.n_nodes)[:, None]
    for lo in range(0, len(result.dests), BLOCK_COLS):
        entries = result.next_channel[:, lo:lo + BLOCK_COLS]
        foreign = (entries >= 0) & (channel_src[entries] != rows)
        if foreign.any():
            k, v = np.argwhere(foreign.T)[0]
            raise ValidationError(
                f"{result.algorithm}: table entry at node "
                f"{net.node_names[v]} toward "
                f"{net.node_names[result.dests[lo + k]]} uses channel "
                f"{int(entries[v, k])} that does not originate there"
            )


def cycle_message(result: RoutingResult, cycle) -> str:
    """The Theorem-1 violation text for a witness ``cycle``."""
    net = result.net
    pretty = " -> ".join(
        f"({net.node_names[net.channel_src[c]]}->"
        f"{net.node_names[net.channel_dst[c]]}, VL{v})"
        for c, v in cycle
    )
    return f"{result.algorithm}: induced CDG has a cycle: {pretty}"


def validate_routing(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
    check_deadlock: bool = True,
) -> None:
    """Assert validity of a routing result.

    Checks, in order:

    1. **table sanity** — every forwarding entry leaves its own node;
    2. **connectivity & cycle-freedom** (Lemma 3 / Def. 2) — every
       ``(source, destination)`` pair has a route.  Destination-based
       tables hold one next-channel per (node, destination), so a route
       that revisited a node would repeat from there forever: a
       forwarding loop is the only way to fail cycle-freedom, and
       "loop-free for every pair" needs no separate revisit check;
    3. **deadlock-freedom** (Theorem 1) — the induced virtual-channel
       dependency graph is acyclic.

    ``sources`` defaults to all nodes.  The first violation — in
    destination-major, then source order — is reported.
    """
    net = result.net
    if sources is None:
        sources = range(net.n_nodes)

    _check_entries_leave_their_node(result)

    first = census(result, sources, workers=1).first_unrouted
    if first is not None:
        try:
            raise_no_route(result, *first)
        except RoutingError as exc:  # missing route / forwarding loop
            raise ValidationError(str(exc)) from exc

    if check_deadlock:
        cycle = DeadlockAnalysis(result).cycle()
        if cycle is not None:
            raise ValidationError(cycle_message(result, cycle))
