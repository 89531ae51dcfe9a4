"""Host-speed correction for the in-process workloads: a reference
kernel timed right before and right after every op.

The box this benchmark runs on is a shared VM.  Each of its two vCPUs
switches, every few seconds and independently of the other, between a
quiet speed and one 1.35 to 2 times slower; ``time.process_time``
dilates exactly like the wall clock and ``/proc/stat`` shows no steal,
so no clock inside the guest is immune.  Ten runs of ``route-ftree``
(ten seconds each, same commit) gave median op times from 0.37 s to
0.53 s: raw seconds compare the host's mood, not commits.

An in-process workload computes on one thread, so a small piece of
single-threaded Python run on that thread immediately before and after
an op sees the speed the op saw.  :func:`kernel` is that piece — code
of this package, independent of ``repro``: a heap Dijkstra over a fixed
graph plus the column and table operations the router and the metrics
lean on.  An op's reported time is its wall time multiplied by
:data:`REF_NOMINAL_S` over the mean of the two samples around it, i.e.
*seconds on a host where the reference kernel takes 4 ms*, about what
this box does when quiet.  On the same ten runs the spread (quartile
distance over median) of the median op time fell from 0.30 to 0.04.

That pairing needs ops shorter than the host's speed changes.  The
3.5 s ops of ``simulate-torus`` are not: over 44 executions of one op
its time and the mean of its two samples correlated at -0.1 (0.5 on
``route-ftree``, 0.8 on ``analyze-torus``), so each op's own samples
only added their noise.  Such a workload (``Workload.host_whole_run``)
scales every op of a loop by the loop's *median* sample instead: it
still follows an hour's drift and leaves the ops' ratios as measured.

The RPC workloads are **not** corrected: their compute runs in the
daemon's processes on whichever vCPU the scheduler picks, and a sample
taken in the client says nothing about that one (measured: the
correction widened their spread).  They report raw wall times.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

from bench import stats

#: the reference kernel's time on the nominal host, seconds
REF_NOMINAL_S = 0.0040
#: kernel calls per sample; the sample is their median
REF_CALLS = 4

_N = 2600
_rng = random.Random(7)
_ADJ = [[(_rng.randrange(_N), _rng.random()) for _ in range(6)]
        for _ in range(_N)]
_TABLE = np.arange(400 * 200, dtype=np.int32).reshape(400, 200)


def kernel() -> float:
    """One reference-kernel call; returns its wall seconds."""
    t0 = time.perf_counter()
    dist = [float("inf")] * _N
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    for j in range(0, 200, 10):
        total = 0
        for x in np.ascontiguousarray(_TABLE[:, j]).tolist():
            total += x
    np.isin(_TABLE, _TABLE[0]).any(axis=0)
    return time.perf_counter() - t0


def sample() -> float:
    """The host's speed now: median seconds of a few kernel calls."""
    return stats.median([kernel() for _ in range(REF_CALLS)])


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between the samples ``before`` and
    ``after``, as seconds on the nominal host."""
    return seconds * REF_NOMINAL_S / ((before + after) / 2.0)
