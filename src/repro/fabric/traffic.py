"""Traffic patterns (paper Section 5.2).

The paper's throughput workload is an all-to-all send operation with
2 KiB messages, realised as an *exchange pattern of varying shift
distances*: in phase ``s`` every terminal ``i`` sends one message to
terminal ``(i + s) mod N``.  Uniform random injection is provided as
well (the paper notes it behaves similarly).  :func:`message_routes`
reads the routes of a message set off the forwarding tables in one
table walk, for the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.base import RoutingResult
from repro.routing.walk import raise_no_route, walk
from repro.utils.prng import SeedLike, make_rng

__all__ = [
    "Message",
    "shift_phase",
    "all_to_all_phases",
    "uniform_random_pairs",
    "bit_complement_pairs",
    "message_routes",
    "phase_shifts",
    "MESSAGE_BYTES_PAPER",
]

#: the paper's all-to-all message size (2 KiB)
MESSAGE_BYTES_PAPER = 2048


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer."""

    src: int
    dst: int
    size_bytes: int = MESSAGE_BYTES_PAPER


def shift_phase(
    terminals: Sequence[int], shift: int, size_bytes: int = MESSAGE_BYTES_PAPER
) -> List[Message]:
    """Phase ``shift`` of the exchange pattern: ``i -> i + shift``."""
    n = len(terminals)
    if not 1 <= shift < n:
        raise ValueError(f"shift must be in [1, {n - 1}]")
    return [
        Message(terminals[i], terminals[(i + shift) % n], size_bytes)
        for i in range(n)
    ]


def all_to_all_phases(
    terminals: Sequence[int],
    size_bytes: int = MESSAGE_BYTES_PAPER,
    sample: Optional[int] = None,
    seed: SeedLike = None,
) -> Iterator[Tuple[int, List[Message]]]:
    """All ``N - 1`` shift phases of the all-to-all exchange.

    ``sample`` draws that many distinct phases uniformly instead (the
    quick-mode subsetting used by the benchmarks; results are scaled
    back by the caller via the phase count).
    """
    for s in phase_shifts(len(terminals), sample, seed):
        yield s, shift_phase(terminals, s, size_bytes)


def phase_shifts(
    n: int, sample: Optional[int] = None, seed: SeedLike = None
) -> Sequence[int]:
    """Shift distances of :func:`all_to_all_phases` over ``n`` terminals,
    ascending."""
    if sample is not None and sample < n - 1:
        rng = make_rng(seed)
        return sorted(
            int(s) for s in rng.choice(range(1, n), size=sample, replace=False)
        )
    return range(1, n)


def uniform_random_pairs(
    terminals: Sequence[int],
    n_messages: int,
    size_bytes: int = MESSAGE_BYTES_PAPER,
    seed: SeedLike = None,
) -> List[Message]:
    """Uniform random traffic: sources and destinations drawn i.i.d."""
    rng = make_rng(seed)
    out: List[Message] = []
    n = len(terminals)
    while len(out) < n_messages:
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j:
            out.append(Message(terminals[i], terminals[j], size_bytes))
    return out


def bit_complement_pairs(
    terminals: Sequence[int],
    size_bytes: int = MESSAGE_BYTES_PAPER,
) -> List[Message]:
    """Bit-complement permutation (a classic adversarial NoC pattern)."""
    n = len(terminals)
    return [
        Message(terminals[i], terminals[n - 1 - i], size_bytes)
        for i in range(n)
        if i != n - 1 - i
    ]


def _take_rows(
    ptr: np.ndarray, rows: np.ndarray, *arrays: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Rows ``rows`` of the CSR ``(ptr, arrays)`` as a CSR of their own."""
    lengths = ptr[rows + 1] - ptr[rows]
    out_ptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=out_ptr[1:])
    take = (np.repeat(ptr[rows] - out_ptr[:-1], lengths)
            + np.arange(out_ptr[-1]))
    return out_ptr, [a[take] for a in arrays]


def message_routes(
    result: RoutingResult,
    src: np.ndarray,
    dst: np.ndarray,
    checked: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Routes of the messages ``src[i] -> dst[i]`` (``src != dst``).

    Returns ``(ptr, channel, vl)``: message ``i`` crosses
    ``channel[ptr[i]:ptr[i + 1]]`` (int32), hop by hop on the VLs
    ``vl[ptr[i]:ptr[i + 1]]`` (int8) that ``result.path_vls`` gives.
    Routes come from one :func:`~repro.routing.walk.walk` of the
    distinct sources over the destination columns used, folded block
    by block, so only the messages' own hops are held.  Raises
    ``result.path``'s error for the first message without a route
    among the first ``checked`` (default: all); the others' entries
    are then undefined.
    """
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    n_msgs = src.size
    col_of = np.full(result.net.n_nodes, -1, dtype=np.intp)
    col_of[np.asarray(result.dests, dtype=np.intp)] = np.arange(
        len(result.dests))
    col = col_of[dst]
    sources, src_idx = np.unique(src, return_inverse=True)
    by_col = np.argsort(col, kind="stable")
    hops = np.full(n_msgs, -1, dtype=np.intp)
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    routed = col[by_col] >= 0
    if routed.any():
        first = int(np.argmax(routed))
        cols = range(int(col[by_col[first]]), int(col[by_col[-1]]) + 1)
        for blk in walk(result.net, result.next_channel, result.dests,
                        sources, cols):
            lo, hi = np.searchsorted(col[by_col],
                                     (blk.col[0], blk.col[-1] + 1))
            msgs = by_col[lo:hi]
            pair = (col[msgs] - blk.col[0]) * sources.size + src_idx[msgs]
            hops[msgs] = blk.hops[pair]
            ptr, chan = blk.paths()
            vls = result._hop_vls(blk.src, blk.col, ptr, chan)
            ptr, (chan, vls) = _take_rows(ptr, pair, chan, vls)
            parts.append((msgs, ptr, chan, vls))
    bad = np.flatnonzero(hops[:checked] < 0)
    if bad.size:
        raise_no_route(result, int(src[bad[0]]), int(dst[bad[0]]))
    # the blocks hold the messages column-major; rows of messages no
    # block holds (no table column) point past the end: empty routes
    msgs = np.concatenate([p[0] for p in parts] + [np.empty(0, np.intp)])
    row = np.full(n_msgs, msgs.size, dtype=np.intp)
    row[msgs] = np.arange(msgs.size)
    lengths = np.concatenate([np.diff(p[1]) for p in parts] + [[0]])
    ptr = np.zeros(msgs.size + 2, dtype=np.intp)
    np.cumsum(lengths, out=ptr[1:])
    ptr, (chan, vls) = _take_rows(
        ptr, row,
        np.concatenate([p[2] for p in parts] + [np.empty(0, np.int32)]),
        np.concatenate([p[3] for p in parts] + [np.empty(0, np.int8)]))
    return ptr, chan, vls
