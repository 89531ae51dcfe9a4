"""Zero-copy shared-memory routing fabric.

**Segments.** Everything the fabric keeps in ``/dev/shm`` goes through
one mechanism (the "segments" section below): a picklable
:class:`SegmentHandle` (segment name + array layout), ``_create`` /
``_attach`` / ``_unlink``, one map of the segments this process *owns*,
one LRU of the segments it merely *attached*, one name sequence, one
pid-guarded ``atexit`` hook and one ``_drain``.  Only the creating
process ever unlinks (crashing workers cannot leak a segment, and
POSIX keeps live mappings valid after unlink).  Three ownership
policies sit on top:

* **networks** — :func:`export_network` copies a network's CSR array
  core (:data:`repro.network.csr.EXPORTED_BUFFERS` plus a packed
  node-name blob) into a segment and returns a small picklable
  :class:`ShmNetworkHandle`; workers :func:`attach_network` it and
  rehydrate a read-only :class:`~repro.network.graph.Network` +
  :class:`~repro.network.csr.CSRView` over the mapped buffers — no
  node/channel lists ever cross the pipe.  Exports are keyed and
  reference-counted by :func:`~repro.engine.fingerprint.
  network_fingerprint`; :func:`pack_ctx`'s own exports are
  additionally LRU-bounded.
* **scratch arrays** — large ndarray context members (>=
  :data:`SCRATCH_MIN_BYTES`, e.g. the tree matrices of Up*/Down*'s
  selection phase or a private forwarding table under a metrics sweep)
  are packed into one per-call segment (:func:`export_arrays`) instead
  of being re-pickled for every task, and unlinked by the engine right
  after the fan-out (:func:`release_ctx`).
* **route tables** — one writable segment per fan-out route request,
  unlinked when its one owner,
  :class:`repro.engine.tablestore.RouteTable`, goes.

**Persistent pool.** :func:`get_pool` lazily creates one module-level
``ProcessPoolExecutor`` and reuses it across ``route()`` calls and
resilience-campaign events.  A broken pool (``BrokenProcessPool``,
crashed worker) is discarded and respawned on the next call;
:func:`shutdown` — also exported as ``repro.api.shutdown_fabric`` —
closes the pool and unlinks every owned segment.

**Context packing.** :func:`pack_ctx` swaps :class:`Network` values in
an engine context (top-level or tuple member) for shm handles before
submission and large ndarrays for :class:`SegmentMember` tickets;
:func:`unpack_ctx` reverses the swap inside the worker via the attach
LRU.  When an export fails (no shared memory on the platform), the
network is pickled as before and the ``fabric.net_pickle_fallbacks``
counter records it.

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
import functools
import itertools
import mmap
import os
import sys
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.csr import CSRView, EXPORTED_BUFFERS
from repro.network.graph import Network, _fill_lists, as_network
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


def _count(name: str, value: int = 1) -> None:
    if obs.enabled():
        obs.count(name, value)


# -- segments: the one shm mechanism ------------------------------------------

#: every fabric segment name starts with this, so a CI job can assert
#: nothing named ``repro_fab_*`` survives in /dev/shm after a test run
SEGMENT_PREFIX = "repro_fab_"

_ALIGN = 16  # buffer offsets are 16-byte aligned inside a segment

Layout = Tuple[Tuple[str, str, Tuple[int, ...], int], ...]


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable ticket for one segment: its name plus the layout
    (``(key, dtype, shape, byte offset)`` per array) — all a worker
    needs to map the arrays without any of their bytes being shipped."""

    segment: str
    layout: Layout


@dataclass(frozen=True)
class SegmentMember:
    """One array of a segment as an engine-context member (see
    :func:`pack_ctx`); resolves to a read-only view in the worker."""

    handle: SegmentHandle
    key: str


class _Mapping:
    """This process's mapping of one segment: the ``SharedMemory``
    object (closed at once, kept only to unlink by name), writable
    views per layout key, the owning policy's ``kind`` (owner side
    only) and the network rehydrated over the views.

    The views map the segment through their own ``mmap``, which every
    view — and every slice derived from one — keeps alive: neither an
    unlink, a closed ``SharedMemory``, an evicted attach nor
    :func:`shutdown` can unmap memory under a live array.  The mapping
    goes when its last array does."""

    __slots__ = ("shm", "handle", "views", "kind", "net")

    def __init__(self, shm, handle: SegmentHandle,
                 kind: Optional[str] = None) -> None:
        buf = memoryview(mmap.mmap(shm._fd, shm.size))
        shm.close()
        self.shm = shm
        self.handle = handle
        self.views: Dict[str, np.ndarray] = {
            key: np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            for key, dtype, shape, offset in handle.layout
        }
        self.kind = kind
        self.net: Optional[Network] = None


#: segments this process created and must unlink: name -> mapping.
#: :func:`shutdown` (and atexit behind it) drains it, so no segment can
#: outlive the process — a network export whose release was forgotten
#: included.
_owned: Dict[str, _Mapping] = {}
#: segments another process owns, mapped here: a true LRU, so a long
#: campaign's workers hold at most ``_ATTACH_CAPACITY`` mappings (one
#: transition task already needs five: two networks, two tables and a
#: scratch segment).  Only networks outlive a task: pool workers drop
#: table and scratch mappings when it returns
#: (:func:`_detach_request_segments`)
_attached: "OrderedDict[str, _Mapping]" = OrderedDict()
_ATTACH_CAPACITY = 8
#: monotonic per-process sequence folded into every segment name so a
#: new segment can never reuse a released one's name — forked pool
#: workers inherit the parent's ``_owned`` map, and a name reuse would
#: let a stale inherited mapping swallow the new segment's writes
#: (``next()`` on it is atomic, so two threads allocating at once never
#: share a number: an in-process :class:`~repro.service.core.RoutingService`
#: allocates on its lane thread while the hosting program may route on
#: its own)
_seq = itertools.count(1)
_owner_pid: Optional[int] = None


def _register_cleanup() -> None:
    global _owner_pid
    if _owner_pid is None:
        _owner_pid = os.getpid()
        atexit.register(_atexit_cleanup)


def _is_owner() -> bool:
    # forked pool workers inherit the owner map, the atexit handler
    # and every table finalizer; only the creating process may unlink
    return os.getpid() == _owner_pid


def _atexit_cleanup() -> None:
    if _is_owner():
        shutdown(wait=False)


def _owner_unlink(handle: SegmentHandle) -> None:
    """:func:`_unlink` for finalizers: a no-op outside the creator."""
    if _is_owner():
        _unlink(handle)


def _alloc_raw(specs, seg_base: str):
    """Allocate one zero-initialised segment laid out for ``specs``
    (``(key, dtype, shape)`` per array) without copying anything in —
    the table store writes columns straight into the mapping, so there
    is never a private staging array of the full table.  Returns
    ``(shm, layout)``, offsets 16-byte aligned."""
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


def _create(kind: str, specs) -> _Mapping:
    """Create and own one zero-filled segment for ``specs``."""
    shm, layout = _alloc_raw(specs, f"{SEGMENT_PREFIX}{kind}{next(_seq)}")
    mapping = _owned[shm.name] = _Mapping(
        shm, SegmentHandle(shm.name, tuple(layout)), kind)
    _register_cleanup()
    return mapping


def _create_from(kind: str, bufs: Dict[str, np.ndarray]) -> SegmentHandle:
    """Create and own one segment holding a copy of every array."""
    mapping = _create(
        kind, [(key, arr.dtype.str, arr.shape) for key, arr in bufs.items()])
    for key, arr in bufs.items():
        mapping.views[key][...] = arr
    return mapping.handle


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


def _attach(handle: SegmentHandle) -> _Mapping:
    """This process's mapping of ``handle``'s segment.

    In the owning process (a fan-out that fell back to serial) that is
    the owner's mapping itself — callers write through the owner's
    views, no second mapping; elsewhere the attach LRU.  Raises
    ``OSError`` when the segment is gone."""
    mapping = _owned.get(handle.segment)
    if mapping is not None:
        return mapping
    mapping = _attached.get(handle.segment)
    if mapping is not None:
        _attached.move_to_end(handle.segment)
        return mapping
    mapping = _Mapping(_open_segment(handle.segment), handle)
    while len(_attached) >= _ATTACH_CAPACITY:
        _attached.popitem(last=False)
    _attached[handle.segment] = mapping
    _count("fabric.segment_attaches")
    return mapping


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _unlink(handle: SegmentHandle) -> bool:
    """Unlink an owned segment.  Returns False — never a double unlink
    — when this process does not (or no longer) own it."""
    mapping = _owned.pop(handle.segment, None)
    if mapping is None:
        return False
    # every mapping — this process's views included — stays valid
    # after unlink per POSIX, until its last array goes
    try:
        mapping.shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - races only
        pass
    return True


def _drain() -> None:
    """Unlink everything owned, drop everything attached."""
    for mapping in list(_owned.values()):
        _unlink(mapping.handle)
    _attached.clear()


def _member_for(arr: np.ndarray) -> Optional[SegmentMember]:
    """The zero-copy ticket for ``arr`` if it *is* an owned segment's
    view.  Identity-based: only the canonical views match (a slice or
    copy does not) — in practice the ``next_channel``/``vl`` of a live
    :class:`~repro.engine.tablestore.RouteTable`, the only owned views
    ever handed out, which is exactly what engine contexts carry."""
    for mapping in list(_owned.values()):
        for key, view in mapping.views.items():
            if arr is view:
                return SegmentMember(mapping.handle, key)
    return None


# -- networks: refcounted per fingerprint -------------------------------------

@dataclass
class ShmNetworkHandle:
    """Picklable ticket for a shared-memory-exported network: the
    export's fingerprint, its segment handle, and the small non-array
    fields a worker needs to rehydrate the network without pickling its
    structure."""

    fingerprint: str
    handle: SegmentHandle
    name: str
    n_nodes: int
    meta: Dict[str, object]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShmNetworkHandle({self.name!r}, "
                f"fingerprint={self.fingerprint[:12]}..., "
                f"segment={self.handle.segment!r})")


@dataclass
class _Export:
    handle: ShmNetworkHandle
    refs: int = 1


_exports: Dict[str, _Export] = {}
#: engine-owned exports (pack_ctx auto-exports), LRU-bounded so a long
#: fault campaign does not accumulate one segment per degraded network
_auto_exports: "OrderedDict[str, ShmNetworkHandle]" = OrderedDict()
_AUTO_CAPACITY = 4


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

    csr = net.csr
    bufs = {key: getattr(csr, key) for key in EXPORTED_BUFFERS}
    blob = "\x00".join(net.node_names).encode("utf-8")
    bufs["names_blob"] = np.frombuffer(blob, dtype=np.uint8)
    handle = ShmNetworkHandle(
        fingerprint=fp, handle=_create_from("net", bufs),
        name=net.name, n_nodes=net.n_nodes, meta=dict(net.meta),
    )
    _exports[fp] = _Export(handle)
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
        _unlink(ent.handle.handle)
    return True


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


def _rehydrate(handle: ShmNetworkHandle,
               views: Dict[str, np.ndarray]) -> Network:
    """Rebuild a read-only Network + CSRView over mapped buffers."""
    arrays = {key: _readonly(view) for key, view in views.items()}

    net = Network.__new__(Network)
    net.name = handle.name
    net.n_nodes = handle.n_nodes
    net.meta = dict(handle.meta)
    blob = bytes(arrays.pop("names_blob"))
    net.node_names = blob.decode("utf-8").split("\x00") if blob else []
    net._switch = [bool(f) for f in arrays["switch_flags"].tolist()]
    _fill_lists(net, arrays["channel_src"], arrays["channel_dst"],
                arrays["channel_reverse"], arrays["out_ptr"],
                arrays["out_idx"], arrays["in_ptr"], arrays["in_idx"])
    net._csr_view = CSRView.from_buffers(net, arrays)
    return net


def attach_network(handle: ShmNetworkHandle) -> Network:
    """Materialise the network behind ``handle`` (cached per mapping)."""
    mapping = _attach(handle.handle)
    if mapping.net is None:
        mapping.net = _rehydrate(handle, mapping.views)
    return mapping.net


# -- scratch arrays: one segment per call -------------------------------------

#: ndarray context members at or above this size travel via a scratch
#: shm segment instead of being re-pickled once per task
SCRATCH_MIN_BYTES = 256 * 1024


def export_arrays(arrays: Dict[str, np.ndarray]) -> SegmentHandle:
    """Copy ``arrays`` into one scratch segment; pair with
    :func:`release_arrays` (or :func:`release_ctx` when packed).

    Unlike a network export a scratch segment is per *call*, not per
    structure: no fingerprint, no refcount — the engine releases it
    right after the fan-out that packed it."""
    handle = _create_from("scr", arrays)
    _count("fabric.scratch_exports")
    return handle


def release_arrays(handle: SegmentHandle) -> bool:
    """Unlink a scratch segment (parent side; idempotent)."""
    return _unlink(handle)


def attach_arrays(handle: SegmentHandle) -> Dict[str, np.ndarray]:
    """Read-only views of a scratch export."""
    return {key: _readonly(view)
            for key, view in _attach(handle).views.items()}


# -- context packing ----------------------------------------------------------

def pack_ctx(ctx: Any) -> Tuple[Any, int]:
    """Swap heavy engine-context members for shm tickets.

    Three kinds of member are intercepted, bare or as direct members of
    a tuple context (the shapes every engine caller uses):

    * :class:`Network` values — swapped for a refcounted
      :class:`ShmNetworkHandle` (engine-owned LRU export);
    * ndarrays that *are* an owned segment's views (the tables of a
      live :class:`~repro.engine.tablestore.RouteTable` produced by a
      prior route) — swapped for a :class:`SegmentMember` of the
      existing segment: nothing is copied at all
      (``fabric.table_ctx_hits``);
    * other ndarrays of >= :data:`SCRATCH_MIN_BYTES` — packed together
      into one per-call scratch segment, so e.g. a forwarding table
      under a metrics sweep crosses the pipe once instead of once per
      task.

    Returns ``(packed ctx, number of networks still pickled)`` —
    non-zero only when an export failed and the engine fell back to
    pickling.  Pair with :func:`release_ctx` after the fan-out.
    """
    items = list(ctx) if isinstance(ctx, tuple) else [ctx]
    packed: List[Any] = list(items)
    fallbacks = 0
    big = {}
    for i, item in enumerate(items):
        if isinstance(item, Network):
            try:
                packed[i] = _auto_export(item)
            except (OSError, ValueError, ImportError):
                _count("fabric.net_pickle_fallbacks")
                fallbacks += 1
        elif isinstance(item, np.ndarray) and \
                item.nbytes >= SCRATCH_MIN_BYTES:
            member = _member_for(item)
            if member is not None:
                packed[i] = member
                _count("fabric.table_ctx_hits")
            else:
                big[i] = item
    if big:
        try:
            handle = export_arrays(
                {f"a{i}": arr for i, arr in big.items()})
        except (OSError, ValueError):  # no shm: arrays stay pickled
            pass
        else:
            for i in big:
                packed[i] = SegmentMember(handle, f"a{i}")
    if isinstance(ctx, tuple):
        return tuple(packed), fallbacks
    return packed[0], fallbacks


def unpack_ctx(ctx: Any) -> Any:
    """Reverse :func:`pack_ctx` inside a worker (attach-LRU backed)."""

    def restore(item):
        if isinstance(item, ShmNetworkHandle):
            return attach_network(item)
        if isinstance(item, SegmentMember):
            return _readonly(_attach(item.handle).views[item.key])
        return item

    if isinstance(ctx, tuple):
        return tuple(restore(item) for item in ctx)
    return restore(ctx)


def release_ctx(packed: Any) -> None:
    """Unlink the scratch segment a :func:`pack_ctx` result refers to.

    Network exports are *not* released here — they are engine-owned and
    LRU-recycled across calls — and neither is a route table a member
    points into (its ``RouteTable`` owns it); scratch segments are
    strictly per call.
    """
    for item in packed if isinstance(packed, tuple) else (packed,):
        if isinstance(item, SegmentMember):
            mapping = _owned.get(item.handle.segment)
            if mapping is not None and mapping.kind == "scr":
                _unlink(item.handle)


# -- persistent worker pool ---------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_spawns = 0
_pool_bus: Any = None  # live-bus handle the current pool was spawned with
#: spawn/discard stay single-flight against :func:`shutdown` on another
#: thread: ``shutdown_fabric()`` mid-route, the atexit hook
_pool_lock = threading.RLock()


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


class TaskFailure:
    """An exception ``fn`` raised in a worker, returned as its result so
    the parent can tell it from the pool's own failures (a dead worker,
    a result that does not pickle); the traceback travels as text."""

    def __init__(self, exc: Exception) -> None:
        self.exc, self.traceback = exc, traceback.format_exc()

    @classmethod
    def call(cls, fn, ctx: Any, task: Any) -> Any:
        """``fn(ctx, task)``, or a carrier of what it raised."""
        try:
            return fn(ctx, task)
        except Exception as exc:
            return cls(exc)

    def reraise(self) -> None:
        """Raise the exception as is, once."""
        exc, self.exc = self.exc, None  # no cycle through this carrier
        exc.__cause__ = RuntimeError(f"in an engine worker:\n{self.traceback}")
        try:
            raise exc
        finally:
            del exc


def _run_fabric_task(fn, ctx: Any, task: Any,
                     capture_obs: bool) -> Tuple[Any, List[dict]]:
    """Execute one engine task in a pool worker.

    The context travels per task (it is a few handles and scalars once
    packed) and the obs capture flag too, because the pool outlives
    any single ``run_layer_tasks`` call.  With a live bus attached the
    events stream to the parent as they happen (plus heartbeats) and
    only a forwarded/dropped summary is returned; otherwise the raw
    event list rides back for replay.  See :class:`TaskFailure`.
    """
    fn = functools.partial(TaskFailure.call, fn)
    try:
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
    finally:
        _detach_request_segments()


def _detach_request_segments() -> None:
    """Worker side, at task end: drop every attached segment but the
    networks.  Tables and scratch arrays belong to one request — a
    worker that kept them would hold up to :data:`_ATTACH_CAPACITY`
    unlinked tables mapped — while networks stay in the LRU for the
    next request of the same fabric (campaigns, transitions).  The
    memory goes once no array of the task still uses it."""
    for name in [name for name, mapping in _attached.items()
                 if mapping.net is None]:
        del _attached[name]


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
        broken = getattr(_pool, "_broken", False)
        if _pool is not None and (broken or _pool_workers < workers
                                  or _pool_bus is not bus):
            discard_pool(wait=not broken)
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


def discard_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (respawned lazily on next use)."""
    global _pool, _pool_workers
    with _pool_lock:  # re-entered from get_pool
        pool, _pool, _pool_workers = _pool, None, 0
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=True)
            except Exception:  # pragma: no cover - interpreter shutdown
                pass


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
    # whatever is still owned — forgotten tables, exports still
    # referenced — is force-unlinked: no /dev/shm entry may outlive
    # the process
    _drain()
    _exports.clear()
    _auto_exports.clear()


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
