"""Parallel layer-routing execution (the ``repro.engine`` tentpole).

Nue's virtual layers are independent by construction — each layer gets
its own convex subgraph, root, complete CDG and escape tree — so their
routing steps can run on separate cores.  :func:`run_layer_tasks` fans
a list of picklable per-layer tasks out over the persistent worker
pool of :mod:`repro.engine.fabric` and returns results in task order,
which keeps the merged forwarding tables **bit-identical** to the
serial path (see ``docs/engine.md`` for the determinism argument).

Worker model
------------
Networks in the shared, read-only context are swapped for
shared-memory handles (:func:`repro.engine.fabric.pack_ctx`) before
submission, so the structure crosses the process boundary zero-copy
exactly once per fingerprint; each task then carries only the packed
context plus its small per-layer payload (layer index, destination
subset, spawned seed).  The pool itself persists across calls —
``route()`` invocations and whole resilience campaigns reuse the same
worker processes.  Worker functions must be module-level callables
(picklable by reference).

Graceful degradation
--------------------
``workers=1`` — the default — never touches multiprocessing: tasks run
in-process through the exact same function, so platforms without a
working process pool (or pickling-hostile callables) lose nothing but
speed.  A pool that dies mid-run (``BrokenProcessPool``) is discarded
and respawned once; when the retry also fails — or the pool cannot be
created at all — the engine logs one warning and runs the tasks
serially in-process.

Observability
-------------
When the parent has :mod:`repro.obs` enabled, each worker records its
spans/counters into a private in-memory sink and returns the raw
events alongside its result; the parent replays them via
:func:`repro.obs.core.replay` under its current span, so ``--trace``
and ``--profile`` keep working with any worker count.  Replay happens
only after *every* task result has been collected, so a mid-run pool
respawn can never double-count worker events.
"""

from __future__ import annotations

import os
import pickle
import traceback
import warnings
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine import fabric
from repro.obs import core as obs
from repro.obs import live

__all__ = [
    "run_layer_tasks",
    "resolve_workers",
    "set_default_workers",
    "get_default_workers",
]

#: module-global default used when an algorithm is constructed with
#: ``workers=None`` — set by ``repro-experiments --workers N`` / the
#: CLI so one flag parallelises every routing of a run.
_default_workers: int = 1


def set_default_workers(n: int) -> None:
    """Set the run-wide default worker count (``workers=None`` callers)."""
    global _default_workers
    if n < 1:
        raise ValueError("workers must be >= 1")
    _default_workers = n


def get_default_workers() -> int:
    """The run-wide default worker count (1 unless configured)."""
    return _default_workers


def worker_budget(workers: Optional[int]) -> int:
    """The configured parallelism budget, before task-count clamping.

    ``None`` defers to :func:`get_default_workers`; ``0`` means "all
    cores".  This is the number the persistent fabric pool is sized by
    — deliberately *not* clamped to any task count, so stages with
    fewer tasks than workers (a 2-layer route under ``--workers 4``, a
    transition's small old state next to its larger target) reuse one
    pool instead of discarding and respawning it per stage.
    """
    if workers is None:
        workers = _default_workers
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = all cores)")
    return max(1, workers)


def resolve_workers(workers: Optional[int], n_tasks: int) -> int:
    """Effective worker count for ``n_tasks`` independent tasks.

    :func:`worker_budget` clamped to ``[1, n_tasks]`` — sharding work
    over more workers than tasks only adds overhead.  Use this for
    shard counts; pool sizing uses the unclamped budget.
    """
    return max(1, min(worker_budget(workers), n_tasks))


def run_layer_tasks(
    fn: Callable[[Any, Any], Any],
    ctx: Any,
    tasks: Sequence[Any],
    workers: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(ctx, task)`` for every task; results in task order.

    ``fn`` must be a module-level function and ``ctx``/``tasks``
    picklable when ``workers > 1`` (Network values in ``ctx`` travel
    via shared memory, not pickle).  Falls back to the in-process
    serial path (with a single warning) whenever the process pool
    cannot be used, so callers never need a platform check.
    """
    budget = worker_budget(workers)
    n = max(1, min(budget, len(tasks)))
    if n <= 1:
        return [fn(ctx, task) for task in tasks]
    try:
        return _run_pool(fn, ctx, tasks, n, budget)
    except (BrokenProcessPool, pickle.PicklingError, AttributeError,
            ImportError, OSError, ValueError) as exc:
        warnings.warn(
            f"repro.engine: process pool unavailable ({exc!r}); "
            "routing layers serially in-process",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(ctx, task) for task in tasks]


def _collect(fn: Callable[[Any, Any], Any], packed: Any,
             tasks: Sequence[Any], capture: bool, pool_workers: int,
             respawn: bool) -> List[Tuple[Any, List[dict]]]:
    """Submit every task to the persistent pool; one respawn retry.

    Nothing is replayed here: the caller folds worker obs events into
    the parent only after the full task list collected, so a retry
    after ``BrokenProcessPool`` cannot double-count.
    """
    pool = fabric.get_pool(pool_workers)
    try:
        futures = [
            pool.submit(fabric._run_fabric_task, fn, packed, task, capture)
            for task in tasks
        ]
        agg = live.active()
        if agg is None:
            return [fut.result() for fut in futures]
        # live telemetry: fold streamed worker events into the parent
        # aggregates *while* the fan-out is in flight, so counters and
        # histograms advance before the last task returns
        folded_before = agg.events_folded
        results: List[Tuple[Any, List[dict]]] = []
        for fut in futures:
            while True:
                try:
                    results.append(fut.result(timeout=0.05))
                    break
                except FutureTimeout:
                    agg.pump()
        # the bus can lag the results: keep folding (bounded) until
        # every event the workers reported forwarding has arrived
        forwarded = sum(
            int(ev["n"]) for _, summary in results for ev in summary
            if ev.get("name") == live.FORWARDED_COUNTER
        )
        agg.pump_until(folded_before + forwarded)
        return results
    except BrokenProcessPool:
        fabric.discard_pool(wait=False)
        if not respawn:
            raise
        return _collect(fn, packed, tasks, capture, pool_workers,
                        respawn=False)


def _run_pool(
    fn: Callable[[Any, Any], Any],
    ctx: Any,
    tasks: Sequence[Any],
    n: int,
    pool_workers: Optional[int] = None,
) -> List[Any]:
    capture = obs.enabled()
    packed, _pickled = fabric.pack_ctx(ctx)
    pool_n = pool_workers if pool_workers is not None else n
    try:
        with obs.span("engine.pool", workers=n, tasks=len(tasks)):
            collected = _collect(fn, packed, tasks, capture, pool_n,
                                 respawn=True)
            out: List[Any] = []
            for result, events in collected:
                if events:
                    obs.replay(events)
                out.append(result)
    except BaseException as exc:
        # a task's error raised from its future is referenced by the
        # future, and the future by the frames that collected it: a
        # cycle that would pin the route's frames — and its fan-out
        # table — until a gc pass.  Clearing the spent frames breaks it
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        # scratch segments are per call: unlink as soon as every task
        # has attached (workers keep their mapping until cache eviction)
        fabric.release_ctx(packed)
    if obs.enabled():
        obs.count("engine.pool_runs", 1)
        obs.count("engine.layer_tasks", len(tasks))
    return out
