"""Zero-copy shared-memory routing fabric (the PR 5 tentpole).

Three cooperating pieces turn the engine's per-call process pool into
a persistent, zero-copy execution fabric:

**Network transport.** :func:`export_network` copies a network's CSR
array core (:data:`repro.network.csr.EXPORTED_BUFFERS` plus a packed
node-name blob) into one ``multiprocessing.shared_memory`` segment and
returns a small picklable :class:`ShmNetworkHandle`.  Workers
:func:`attach_network` the handle and rehydrate a read-only
:class:`~repro.network.graph.Network` + :class:`~repro.network.csr.
CSRView` directly over the mapped buffers — no node/channel lists ever
cross the pipe.  Exports are keyed and reference-counted by
:func:`~repro.engine.fingerprint.network_fingerprint`; the owning
process unlinks segments on release, :func:`shutdown` or ``atexit``
(crashing workers cannot leak a segment: only the exporter unlinks,
and POSIX keeps live mappings valid after unlink).

**Persistent pool.** :func:`get_pool` lazily creates one module-level
``ProcessPoolExecutor`` and reuses it across ``route()`` calls and
resilience-campaign events.  A broken pool (``BrokenProcessPool``,
crashed worker) is discarded and respawned on the next call;
:func:`shutdown` — also exported as ``repro.api.shutdown_fabric`` —
closes the pool and unlinks every live export.

**Context packing.** :func:`pack_ctx` swaps :class:`Network` values in
an engine context (top-level or tuple member) for shm handles before
submission; :func:`unpack_ctx` reverses the swap inside the worker via
a per-process attach cache.  When an export fails (no shared memory on
the platform), the network is pickled as before and the
``fabric.net_pickle_fallbacks`` counter records it.  Large ndarray
context members (>= :data:`SCRATCH_MIN_BYTES`, e.g. the tree matrices
of Up*/Down*'s selection phase or a forwarding table under a metrics
sweep) travel the same way: packed into one per-call *scratch* segment
(:func:`export_arrays`) instead of being re-pickled for every task,
and unlinked by the engine right after the fan-out
(:func:`release_ctx`).

Results have one way back: the pool pickles a task's return value as
is.  Forwarding columns are not part of it — workers write them in
place into the request's table (:mod:`repro.engine.tablestore`) and
return a block only when that table has no segment to attach.

Destination sharding (:func:`shard_destinations`) is the companion
decomposition helper: routing baselines and metrics sweeps split their
per-destination work into ``~2 x workers`` contiguous shards executed
on this fabric, so speedup scales with cores even for single-layer
algorithms (see ``docs/engine.md``).
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.csr import CSRView, EXPORTED_BUFFERS
from repro.network.graph import Network, as_network
from repro.obs import core as obs
from repro.obs import live
from repro.obs.sinks import MemorySink

__all__ = [
    "ShmNetworkHandle",
    "export_network",
    "release_network",
    "attach_network",
    "active_exports",
    "get_pool",
    "discard_pool",
    "pool_stats",
    "shutdown",
    "on_shutdown",
    "shard_destinations",
    "pack_ctx",
    "unpack_ctx",
    "release_ctx",
    "export_arrays",
    "release_arrays",
    "attach_arrays",
]

#: every fabric segment name starts with this, so a CI job can assert
#: nothing named ``repro_fab_*`` survives in /dev/shm after a test run
SEGMENT_PREFIX = "repro_fab_"

_ALIGN = 16  # buffer offsets are 16-byte aligned inside a segment


class ShmNetworkHandle:
    """Picklable ticket for a shared-memory-exported network.

    Carries everything a worker needs to rehydrate the network without
    pickling its structure: the export's fingerprint, the segment
    name, the buffer layout (name, dtype, shape, byte offset), and the
    small non-array fields (network name, node count, ``meta``).
    """

    __slots__ = ("fingerprint", "segment", "layout", "name",
                 "n_nodes", "n_channels", "meta")

    def __init__(self, fingerprint: str, segment: str,
                 layout: Tuple[Tuple[str, str, Tuple[int, ...], int], ...],
                 name: str, n_nodes: int, n_channels: int,
                 meta: Dict[str, object]) -> None:
        self.fingerprint = fingerprint
        self.segment = segment
        self.layout = layout
        self.name = name
        self.n_nodes = n_nodes
        self.n_channels = n_channels
        self.meta = meta

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShmNetworkHandle({self.name!r}, "
                f"fingerprint={self.fingerprint[:12]}..., "
                f"segment={self.segment!r})")


class _Export:
    """Parent-side bookkeeping of one live segment."""

    __slots__ = ("shm", "handle", "refs")

    def __init__(self, shm, handle: ShmNetworkHandle) -> None:
        self.shm = shm
        self.handle = handle
        self.refs = 1


# -- parent-side export registry ----------------------------------------------

_exports: Dict[str, _Export] = {}
#: engine-owned exports (pack_ctx auto-exports), LRU-bounded so a long
#: fault campaign does not accumulate one segment per degraded network
_auto_exports: "OrderedDict[str, ShmNetworkHandle]" = OrderedDict()
_AUTO_CAPACITY = 4
_owner_pid: Optional[int] = None


def _register_cleanup() -> None:
    global _owner_pid
    if _owner_pid is None:
        _owner_pid = os.getpid()
        atexit.register(_atexit_cleanup)


def _atexit_cleanup() -> None:
    # forked pool workers inherit this handler together with the
    # export registry; only the exporting process may unlink
    if os.getpid() != _owner_pid:
        return
    shutdown(wait=False)


def _count(name: str, value: int = 1) -> None:
    if obs.enabled():
        obs.count(name, value)


def _alloc_raw(specs, seg_base: str):
    """Allocate one zero-initialised segment laid out for ``specs``
    (``(key, dtype, shape)`` per array) without copying anything in —
    the table store writes columns straight into the mapping, so there
    is never a private staging array of the full table.  Returns
    ``(shm, layout)`` where layout is ``(key, dtype, shape, offset)``
    per array, offsets 16-byte aligned."""
    from multiprocessing import shared_memory

    layout: List[Tuple[str, str, Tuple[int, ...], int]] = []
    offset = 0
    for key, dtype, shape in specs:
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        layout.append((key, dtype, tuple(shape), offset))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        offset += np.dtype(dtype).itemsize * count
    size = max(offset, 1)

    seg_name = f"{seg_base}_{os.getpid():x}"
    for attempt in range(16):
        try:
            shm = shared_memory.SharedMemory(
                name=seg_name if attempt == 0
                else f"{seg_name}_{attempt}", create=True, size=size,
            )
            break
        except FileExistsError:  # stale same-named segment (pid reuse)
            continue
    else:  # pragma: no cover - 16 collisions cannot happen in practice
        raise OSError(f"cannot allocate fabric segment {seg_name}")
    return shm, layout


def _alloc_segment(bufs, seg_base: str):
    """Allocate one segment holding every array of ``bufs``, copied in
    at 16-byte-aligned offsets.  Returns ``(shm, layout)`` where layout
    is ``(key, dtype, shape, offset)`` per array."""
    specs = [(key, arr.dtype.str, arr.shape) for key, arr in bufs.items()]
    shm, layout = _alloc_raw(specs, seg_base)
    for (key, dtype, shape, off), arr in zip(layout, bufs.values()):
        dst = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        dst[...] = arr
    return shm, layout


def _segment_buffers(net: Network) -> "OrderedDict[str, np.ndarray]":
    csr = net.csr
    bufs: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for key in EXPORTED_BUFFERS:
        bufs[key] = np.ascontiguousarray(getattr(csr, key))
    blob = "\x00".join(net.node_names).encode("utf-8")
    bufs["names_blob"] = np.frombuffer(blob, dtype=np.uint8)
    return bufs


def export_network(net: Network,
                   fingerprint: Optional[str] = None) -> ShmNetworkHandle:
    """Export ``net``'s CSR core into a shared-memory segment.

    Idempotent per structure: a second export of a network with the
    same :func:`~repro.engine.fingerprint.network_fingerprint` bumps
    the existing segment's reference count and returns the same
    handle (``fabric.shm_export_reuses``).  Pair every call with
    :func:`release_network`; :func:`shutdown`/``atexit`` unlink
    whatever is still live.
    """
    from repro.engine.fingerprint import network_fingerprint

    net = as_network(net)
    fp = fingerprint or network_fingerprint(net)
    ent = _exports.get(fp)
    if ent is not None:
        ent.refs += 1
        _count("fabric.shm_export_reuses")
        return ent.handle

    bufs = _segment_buffers(net)
    shm, layout = _alloc_segment(bufs, f"{SEGMENT_PREFIX}{fp[:16]}")

    handle = ShmNetworkHandle(
        fingerprint=fp, segment=shm.name, layout=tuple(layout),
        name=net.name, n_nodes=net.n_nodes, n_channels=net.n_channels,
        meta=dict(net.meta),
    )
    _exports[fp] = _Export(shm, handle)
    _register_cleanup()
    _count("fabric.shm_exports")
    return handle


def release_network(ref) -> bool:
    """Drop one reference to an export; unlink the segment at zero.

    ``ref`` is a fingerprint string or a :class:`ShmNetworkHandle`.
    Returns True when a live export was found.  Releasing an already
    unlinked export is a silent no-op (never a double unlink).
    """
    fp = ref.fingerprint if isinstance(ref, ShmNetworkHandle) else ref
    ent = _exports.get(fp)
    if ent is None:
        return False
    ent.refs -= 1
    if ent.refs <= 0:
        del _exports[fp]
        _unlink(ent.shm)
    return True


def _close(shm) -> None:
    """Unmap this process's view of a segment; the segment itself
    stays until its owner unlinks it."""
    try:
        shm.close()
    except (BufferError, OSError):
        pass


def _unlink(shm) -> None:
    # close and unlink independently so a close() failure can never
    # leave a /dev/shm entry behind.  close() unmaps this process's
    # view (on some stacks even while numpy views are alive — which is
    # why attach_network keeps its SharedMemory objects cached next to
    # the rehydrated networks); other processes' mappings stay valid
    # after unlink per POSIX.
    _close(shm)
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - races only
        pass


def _map_layout(layout, shm, writable: bool) -> Dict[str, np.ndarray]:
    """Views over a mapped segment, one per ``layout`` entry."""
    arrays: Dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in layout:
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        arr.flags.writeable = writable
        arrays[key] = arr
    return arrays


def active_exports() -> Dict[str, int]:
    """Live exports as ``{fingerprint: refcount}`` (diagnostics)."""
    return {fp: ent.refs for fp, ent in _exports.items()}


def _auto_export(net: Network) -> ShmNetworkHandle:
    """Engine-owned export used by :func:`pack_ctx` (LRU, capacity 4)."""
    from repro.engine.fingerprint import network_fingerprint

    fp = network_fingerprint(net)
    handle = _auto_exports.get(fp)
    if handle is not None:
        _auto_exports.move_to_end(fp)
        _count("fabric.shm_export_reuses")
        return handle
    handle = export_network(net, fingerprint=fp)
    _auto_exports[fp] = handle
    while len(_auto_exports) > _AUTO_CAPACITY:
        old_fp, _old = _auto_exports.popitem(last=False)
        release_network(old_fp)
    return handle


# -- worker-side attach cache -------------------------------------------------

_attached: Dict[str, Tuple[object, Network]] = {}
_ATTACH_CAPACITY = 8


def _open_segment(name: str):
    """Attach a segment without claiming ownership of its lifetime.

    On 3.13+ ``track=False`` keeps the resource tracker out entirely.
    On 3.10–3.12 ``register`` is no-opped for the duration of the
    attach instead of *unregistering* afterwards: forked workers share
    the parent's tracker process, so an unregister from a worker would
    silently drop the exporter's own registration (and a same-process
    attach would trigger a KeyError in the tracker at exit).
    """
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def _rehydrate(handle: ShmNetworkHandle, shm) -> Network:
    """Rebuild a read-only Network + CSRView over mapped buffers."""
    arrays = _map_layout(handle.layout, shm, writable=False)

    net = Network.__new__(Network)
    net.name = handle.name
    net.n_nodes = handle.n_nodes
    net.n_channels = handle.n_channels
    net.meta = dict(handle.meta)
    blob = bytes(arrays.pop("names_blob"))
    net.node_names = blob.decode("utf-8").split("\x00") if blob else []
    net._switch = [bool(f) for f in arrays["switch_flags"].tolist()]
    net.channel_src = arrays["channel_src"].tolist()
    net.channel_dst = arrays["channel_dst"].tolist()
    net.channel_reverse = arrays["channel_reverse"].tolist()
    out_ptr = arrays["out_ptr"].tolist()
    out_idx = arrays["out_idx"].tolist()
    net.out_channels = [
        out_idx[out_ptr[i]:out_ptr[i + 1]] for i in range(net.n_nodes)
    ]
    in_ptr = arrays["in_ptr"].tolist()
    in_idx = arrays["in_idx"].tolist()
    net.in_channels = [
        in_idx[in_ptr[i]:in_ptr[i + 1]] for i in range(net.n_nodes)
    ]
    net._csr_view = CSRView.from_buffers(net, arrays)
    return net


def attach_network(handle: ShmNetworkHandle) -> Network:
    """Materialise the network behind ``handle`` (cached per process)."""
    ent = _attached.get(handle.fingerprint)
    if ent is not None:
        return ent[1]
    shm = _open_segment(handle.segment)
    net = _rehydrate(handle, shm)
    while len(_attached) >= _ATTACH_CAPACITY:
        _fp, (old_shm, _old_net) = _attached.popitem()
        _close(old_shm)
    _attached[handle.fingerprint] = (shm, net)
    _count("fabric.shm_attaches")
    return net


# -- scratch array transport --------------------------------------------------

#: ndarray context members at or above this size travel via a scratch
#: shm segment instead of being re-pickled once per task
SCRATCH_MIN_BYTES = 256 * 1024


class ShmArraysHandle:
    """Picklable ticket for a scratch segment of named arrays.

    Unlike :class:`ShmNetworkHandle` a scratch export is per *call*,
    not per structure: no fingerprint, no refcount — the engine
    releases it right after the fan-out that packed it.
    """

    __slots__ = ("segment", "layout")

    def __init__(self, segment: str, layout) -> None:
        self.segment = segment
        self.layout = layout

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class _ScratchArray:
    """One packed ndarray: a scratch handle plus the array's key."""

    __slots__ = ("handle", "key")

    def __init__(self, handle: ShmArraysHandle, key: str) -> None:
        self.handle = handle
        self.key = key

    def __getstate__(self):
        return (self.handle, self.key)

    def __setstate__(self, state):
        self.handle, self.key = state


_scratch: Dict[str, Any] = {}           # parent: segment name -> shm
_scratch_seq = 0


def export_arrays(arrays: Dict[str, np.ndarray]) -> ShmArraysHandle:
    """Copy ``arrays`` into one scratch segment; pair with
    :func:`release_arrays` (or :func:`release_ctx` when packed)."""
    global _scratch_seq
    _scratch_seq += 1
    bufs = OrderedDict(
        (key, np.ascontiguousarray(arr)) for key, arr in arrays.items()
    )
    shm, layout = _alloc_segment(
        bufs, f"{SEGMENT_PREFIX}scr{_scratch_seq}")
    _scratch[shm.name] = shm
    _register_cleanup()
    _count("fabric.scratch_exports")
    return ShmArraysHandle(segment=shm.name, layout=tuple(layout))


def release_arrays(handle: ShmArraysHandle) -> bool:
    """Unlink a scratch segment (parent side; idempotent)."""
    shm = _scratch.pop(handle.segment, None)
    if shm is None:
        return False
    _unlink(shm)
    return True


#: worker-side scratch attach cache: tasks of one fan-out hitting the
#: same worker map the segment once; old entries are closed on eviction
_attached_scratch: "OrderedDict[str, Tuple[Any, Dict[str, np.ndarray]]]" \
    = OrderedDict()
_SCRATCH_ATTACH_CAPACITY = 4


def attach_arrays(handle: ShmArraysHandle) -> Dict[str, np.ndarray]:
    """Read-only views of a scratch export (cached per process)."""
    ent = _attached_scratch.get(handle.segment)
    if ent is not None:
        _attached_scratch.move_to_end(handle.segment)
        return ent[1]
    shm = _open_segment(handle.segment)
    arrays = _map_layout(handle.layout, shm, writable=False)
    while len(_attached_scratch) >= _SCRATCH_ATTACH_CAPACITY:
        _seg, (old_shm, _old) = _attached_scratch.popitem(last=False)
        _close(old_shm)
    _attached_scratch[handle.segment] = (shm, arrays)
    _count("fabric.scratch_attaches")
    return arrays


# -- context packing ----------------------------------------------------------

def pack_ctx(ctx: Any) -> Tuple[Any, int]:
    """Swap heavy engine-context members for shm tickets.

    Three kinds of member are intercepted, bare or as direct members of
    a tuple context (the shapes every engine caller uses):

    * :class:`Network` values — swapped for a refcounted
      :class:`ShmNetworkHandle` (engine-owned LRU export);
    * ndarrays that *are* a live shm table's views (a
      :class:`~repro.engine.tablestore.RouteTable` produced by a prior
      route) — swapped for a zero-copy table ticket: nothing is copied
      at all, workers attach the existing segment read-only;
    * other ndarrays of >= :data:`SCRATCH_MIN_BYTES` — packed together
      into one per-call scratch segment, so e.g. a forwarding table
      under a metrics sweep crosses the pipe once instead of once per
      task.

    Returns ``(packed ctx, number of networks still pickled)`` —
    non-zero only when an export failed and the engine fell back to
    pickling.  Pair with :func:`release_ctx` after the fan-out.
    """
    from repro.engine import tablestore

    items = list(ctx) if isinstance(ctx, tuple) else [ctx]
    packed: List[Any] = list(items)
    fallbacks = 0
    big = {}
    for i, item in enumerate(items):
        if not isinstance(item, np.ndarray) or \
                item.nbytes < SCRATCH_MIN_BYTES:
            continue
        ticket = tablestore.ticket_for(item)
        if ticket is not None:
            packed[i] = ticket
            _count("fabric.table_ctx_hits")
        else:
            big[i] = item
    for i, item in enumerate(items):
        if isinstance(item, Network):
            try:
                packed[i] = _auto_export(item)
            except (OSError, ValueError, ImportError):
                _count("fabric.net_pickle_fallbacks")
                fallbacks += 1
    if big:
        try:
            handle = export_arrays(
                {f"a{i}": arr for i, arr in big.items()})
        except (OSError, ValueError):  # no shm: arrays stay pickled
            handle = None
        if handle is not None:
            for i in big:
                packed[i] = _ScratchArray(handle, f"a{i}")
    if isinstance(ctx, tuple):
        return tuple(packed), fallbacks
    return packed[0], fallbacks


def unpack_ctx(ctx: Any) -> Any:
    """Reverse :func:`pack_ctx` inside a worker (attach-cache backed)."""
    from repro.engine.tablestore import TableTicket, attach_ticket

    def restore(item):
        if isinstance(item, ShmNetworkHandle):
            return attach_network(item)
        if isinstance(item, _ScratchArray):
            return attach_arrays(item.handle)[item.key]
        if isinstance(item, TableTicket):
            return attach_ticket(item)
        return item

    if isinstance(ctx, tuple) and any(
        isinstance(item, (ShmNetworkHandle, _ScratchArray, TableTicket))
        for item in ctx
    ):
        return tuple(restore(item) for item in ctx)
    return restore(ctx)


def release_ctx(packed: Any) -> None:
    """Unlink the scratch segments a :func:`pack_ctx` result refers to.

    Network exports are *not* released here — they are engine-owned and
    LRU-recycled across calls; scratch segments are strictly per call.
    """
    items = packed if isinstance(packed, tuple) else (packed,)
    seen = set()
    for item in items:
        if isinstance(item, _ScratchArray) and \
                item.handle.segment not in seen:
            seen.add(item.handle.segment)
            release_arrays(item.handle)


# -- persistent worker pool ---------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_spawns = 0
_pool_bus: Any = None  # live-bus handle the current pool was spawned with
#: get_pool/discard_pool may be entered from service executor threads
#: concurrently with the main thread; spawning must be single-flight
_pool_lock = threading.Lock()


def _init_fabric_worker(bus_handle: Any = None) -> None:
    """Pool initializer: silence inherited parent observability and —
    when the parent installed a live bus — adopt its handle so task
    telemetry streams instead of riding back with the results."""
    obs.disable()
    obs.reset()
    if bus_handle is not None:
        live.attach_worker(bus_handle)
    else:
        live.detach_worker()


def _run_fabric_task(fn, ctx: Any, task: Any,
                     capture_obs: bool) -> Tuple[Any, List[dict]]:
    """Execute one engine task in a pool worker.

    The context travels per task (it is a few handles and scalars once
    packed) and the obs capture flag too, because the pool outlives
    any single ``run_layer_tasks`` call.  With a live bus attached the
    events stream to the parent as they happen (plus heartbeats) and
    only a forwarded/dropped summary is returned; otherwise the raw
    event list rides back for replay.
    """
    if not capture_obs:
        return fn(unpack_ctx(ctx), task), []
    if live.worker_publisher() is not None:
        return live.run_streamed(fn, unpack_ctx(ctx), task)
    sink = MemorySink(keep_events=True)
    obs.reset()
    obs.enable(sink)
    try:
        result = fn(unpack_ctx(ctx), task)
    finally:
        obs.disable()
    return result, sink.events


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool, lazily (re)spawned with >= ``workers``.

    A healthy pool at least as large as requested is reused
    (``fabric.pool_reuses``); a broken or too-small one — or one whose
    workers were spawned with a different live-bus handle than the one
    currently installed — is discarded and a fresh pool spawned
    (``fabric.pool_spawns``).
    """
    global _pool, _pool_workers, _pool_spawns, _pool_bus
    with _pool_lock:
        bus = live.bus_handle()
        if _pool is not None and getattr(_pool, "_broken", False):
            _discard_pool_locked(wait=False)
        if _pool is not None and (_pool_workers < workers
                                  or _pool_bus is not bus):
            _discard_pool_locked()
        if _pool is None:
            _pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_init_fabric_worker,
                initargs=(bus,),
            )
            _pool_workers = workers
            _pool_bus = bus
            _pool_spawns += 1
            _register_cleanup()
            _count("fabric.pool_spawns")
        else:
            _count("fabric.pool_reuses")
        return _pool


def _discard_pool_locked(wait: bool = True) -> None:
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def discard_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (respawned lazily on next use)."""
    with _pool_lock:
        _discard_pool_locked(wait=wait)


def pool_stats() -> Dict[str, int]:
    """Lifetime pool diagnostics for this process."""
    return {
        "alive": int(_pool is not None),
        "workers": _pool_workers,
        "spawns": _pool_spawns,
    }


#: callbacks invoked at the *start* of :func:`shutdown`, before any
#: export is unlinked — lets a long-lived holder of exports (the RPC
#: service) abort in-flight work cleanly instead of crashing on a
#: vanished segment
_shutdown_listeners: List[Callable[[], None]] = []


def on_shutdown(callback: Callable[[], None]) -> Callable[[], None]:
    """Register ``callback`` to run when :func:`shutdown` begins.

    Returns an unsubscribe function.  Callbacks run synchronously in
    the shutting-down thread and must not raise (exceptions are
    swallowed) nor block; cross-thread hand-off is the callback's job.
    """
    _shutdown_listeners.append(callback)

    def unsubscribe() -> None:
        try:
            _shutdown_listeners.remove(callback)
        except ValueError:
            pass

    return unsubscribe


def shutdown(wait: bool = True) -> None:
    """Shut the fabric down: close the pool, unlink every export.

    Exposed on the stable facade as ``repro.api.shutdown_fabric``.
    Safe to call repeatedly; the fabric respawns lazily on next use.
    """
    for callback in list(_shutdown_listeners):
        try:
            callback()
        except Exception:  # pragma: no cover - listener bugs stay local
            pass
    discard_pool(wait=wait)
    tablestore = sys.modules.get("repro.engine.tablestore")
    if tablestore is not None:
        tablestore._shutdown_tables()
    while _auto_exports:
        fp, _handle = _auto_exports.popitem(last=False)
        release_network(fp)
    # manually exported segments still referenced: force-unlink so no
    # /dev/shm entry can outlive the process
    for fp in list(_exports):
        ent = _exports.pop(fp)
        _unlink(ent.shm)
    for fp in list(_attached):
        shm, _net = _attached.pop(fp)
        _close(shm)
    for name in list(_scratch):
        _unlink(_scratch.pop(name))
    for seg in list(_attached_scratch):
        shm, _arrays = _attached_scratch.pop(seg)
        _close(shm)


# -- destination sharding -----------------------------------------------------

def shard_destinations(items: Sequence[Any], workers: int,
                       factor: int = 2) -> List[List[Any]]:
    """Split ``items`` into ``~factor x workers`` contiguous shards.

    Contiguity keeps merged results in item order; the oversubscription
    factor smooths worker imbalance (a slow shard overlaps the others'
    tails).  With one worker (or one item) everything stays in a
    single shard, which is exactly the serial loop.
    """
    items = list(items)
    if not items:
        return []
    if workers <= 1:
        return [items]
    n_shards = min(len(items), max(1, factor * workers))
    quot, rem = divmod(len(items), n_shards)
    shards: List[List[Any]] = []
    start = 0
    for i in range(n_shards):
        size = quot + (1 if i < rem else 0)
        shards.append(items[start:start + size])
        start += size
    if obs.enabled():
        obs.observe_many("engine.shard_size", [len(s) for s in shards])
    return shards
