"""Flow-level all-to-all throughput model (substitute for the paper's
OMNeT++ flit-level toolchain at ~1,000-terminal scale — DESIGN.md §3).

The all-to-all exchange runs phase by phase; within a phase every
terminal sends one message and the phase completes when the most
congested channel has drained, i.e. phase time is proportional to the
maximum number of flows sharing a channel (uniform capacities).  The
aggregate throughput is then

    total_bytes / Σ_phases (max_load_phase * msg_bytes / link_bw)

This preserves exactly the quantity the paper's figures rank on — the
per-phase bottleneck congestion induced by the forwarding tables —
while staying tractable in pure Python.  Absolute numbers assume QDR
InfiniBand's 4 GB/s effective data rate per link, like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.fabric.traffic import (
    MESSAGE_BYTES_PAPER,
    Message,
    message_routes,
    phase_shifts,
    uniform_random_pairs,
)
from repro.routing.base import RoutingResult
from repro.routing.walk import walk
from repro.utils.prng import SeedLike, make_rng, spawn_seed

__all__ = [
    "FlowSimResult",
    "phase_channel_loads",
    "simulate_all_to_all",
    "simulate_uniform_random",
]

#: QDR InfiniBand 4x effective data bandwidth (bytes/second)
QDR_LINK_BANDWIDTH = 4.0e9


@dataclass(frozen=True)
class FlowSimResult:
    """Outcome of a flow-level all-to-all simulation."""

    throughput_bytes_per_s: float  #: aggregate all-to-all throughput
    total_bytes: int
    total_time_s: float
    n_phases: int
    max_phase_load: int  #: worst bottleneck over all phases
    avg_phase_load: float

    @property
    def throughput_gbyte_per_s(self) -> float:
        return self.throughput_bytes_per_s / 1e9


def phase_channel_loads(
    result: RoutingResult, messages: Sequence[Message]
) -> np.ndarray:
    """Flows per channel for one phase's message set."""
    return _round_channel_loads(result, [list(messages)])[0]


def _round_channel_loads(
    result: RoutingResult, rounds: Sequence[Sequence[Message]]
) -> np.ndarray:
    """``int64[n_rounds, n_channels]``: flows per channel of each round,
    the routes of all rounds read in one table walk."""
    n_channels = result.net.n_channels
    msgs = [(r, m.src, m.dst) for r, round_ in enumerate(rounds)
            for m in round_ if m.src != m.dst]
    row, src, dst = np.array(msgs, dtype=np.intp).reshape(-1, 3).T
    ptr, chan, _ = message_routes(result, src, dst)
    flat = np.repeat(row, np.diff(ptr)) * n_channels + chan
    return np.bincount(flat, minlength=len(rounds) * n_channels).reshape(
        len(rounds), n_channels)


def _all_to_all_loads(
    result: RoutingResult, shifts: Sequence[int]
) -> np.ndarray:
    """``int64[len(shifts), n_channels]``: flows per channel of each
    shift phase, folded from one walk of terminals x terminal columns.

    Raises ``result.path``'s error for the first message without a
    route, in phase order and then terminal order.
    """
    net = result.net
    terminals = np.asarray(net.terminals, dtype=np.intp)
    n = terminals.size
    row_of_shift = np.full(n, -1, dtype=np.intp)
    row_of_shift[np.asarray(shifts, dtype=np.intp)] = np.arange(len(shifts))
    term_of = np.full(net.n_nodes, -1, dtype=np.intp)
    term_of[terminals] = np.arange(n)
    loads = np.zeros(len(shifts) * net.n_channels, dtype=np.int64)
    # a terminal without a table column is every phase's problem
    unrouted = not np.isin(terminals, result.dests).all()
    for blk in walk(net, result.next_channel, result.dests, terminals):
        i, j = term_of[blk.src], term_of[blk.dest]
        row = np.where(j >= 0, row_of_shift[(j - i) % n], -1)
        unrouted |= bool(((blk.hops < 0) & (row >= 0)).any())
        if not blk.steps:
            continue
        pair = np.concatenate([p for p, _ in blk.steps])
        chan = np.concatenate([c for _, c in blk.steps])
        on = row[pair] >= 0
        loads += np.bincount(row[pair][on] * net.n_channels + chan[on],
                             minlength=loads.size)
    if unrouted:
        # the per-message routes raise the first failing message's error
        i = np.tile(np.arange(n), len(shifts))
        s = np.repeat(np.asarray(shifts, dtype=np.intp), n)
        message_routes(result, terminals[i], terminals[(i + s) % n])
    return loads.reshape(len(shifts), net.n_channels)


def simulate_all_to_all(
    result: RoutingResult,
    size_bytes: int = MESSAGE_BYTES_PAPER,
    link_bandwidth: float = QDR_LINK_BANDWIDTH,
    sample_phases: Optional[int] = None,
    seed: SeedLike = None,
) -> FlowSimResult:
    """All-to-all exchange over all terminals of the routed network.

    ``sample_phases`` simulates a uniform subset of the shift phases
    and extrapolates (phase loads are identically distributed across
    shifts for these patterns, so the estimate is unbiased).
    """
    net = result.net
    terminals = net.terminals
    if len(terminals) < 2:
        raise ValueError("all-to-all needs at least two terminals")
    if sample_phases is not None and sample_phases < 1:
        raise ValueError(f"sample_phases must be >= 1: {sample_phases}")
    n = len(terminals)
    total_phases = n - 1

    shifts = phase_shifts(n, sample_phases, seed)
    sum_max_load, worst, simulated = _fold_peaks(
        _all_to_all_loads(result, shifts))

    # extrapolate sampled phases to the full exchange
    scale = total_phases / simulated
    total_time = sum_max_load * scale * (size_bytes / link_bandwidth)
    total_bytes = n * total_phases * size_bytes
    return FlowSimResult(
        throughput_bytes_per_s=total_bytes / total_time,
        total_bytes=total_bytes,
        total_time_s=total_time,
        n_phases=simulated,
        max_phase_load=worst,
        avg_phase_load=sum_max_load / simulated,
    )


def _fold_peaks(loads: np.ndarray) -> Tuple[float, int, int]:
    """``(sum, max, count)`` of the per-phase bottleneck loads, summed
    phase by phase in order."""
    sum_max_load = 0.0
    worst = 0
    peaks = loads.max(axis=1).tolist()
    for peak in peaks:
        sum_max_load += peak
        worst = max(worst, peak)
    return sum_max_load, worst, len(peaks)


def simulate_uniform_random(
    result: RoutingResult,
    rounds: int = 64,
    size_bytes: int = MESSAGE_BYTES_PAPER,
    link_bandwidth: float = QDR_LINK_BANDWIDTH,
    seed: SeedLike = None,
) -> FlowSimResult:
    """Uniform random injection (the paper's footnote-7 pattern).

    Each round every terminal sends one message to an independently
    drawn random peer; round time is set by the bottleneck channel as
    in :func:`simulate_all_to_all`.  The paper notes this workload
    ranks routings like the shift exchange does — a property the test
    suite checks.
    """
    net = result.net
    terminals = net.terminals
    if len(terminals) < 2:
        raise ValueError("uniform random traffic needs two terminals")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1: {rounds}")
    rng = make_rng(seed)
    n = len(terminals)
    sum_max_load, worst, _ = _fold_peaks(_round_channel_loads(result, [
        uniform_random_pairs(terminals, n, size_bytes, seed=spawn_seed(rng))
        for _ in range(rounds)
    ]))
    total_time = sum_max_load * (size_bytes / link_bandwidth)
    total_bytes = n * rounds * size_bytes
    return FlowSimResult(
        throughput_bytes_per_s=total_bytes / total_time,
        total_bytes=total_bytes,
        total_time_s=total_time,
        n_phases=rounds,
        max_phase_load=worst,
        avg_phase_load=sum_max_load / rounds,
    )
