"""Live metric bus: stream worker telemetry *during* a fan-out.

Until this module, fabric workers recorded their spans/counters into a
private :class:`~repro.obs.sinks.MemorySink` and the parent saw them
only after the whole fan-out returned (``obs.replay``) — a Table-1
sweep or a ten-event resilience campaign was a black box while it ran.
The live bus inverts that: workers publish every event to a **bounded
cross-process queue** as it happens, and the parent folds the stream
into the module-level aggregates incrementally
(:class:`LiveAggregator`), so ``obs.counters()`` / ``obs.histograms()``
— and everything built on them: :func:`repro.obs.expo.expose`, the
status file ``repro obs watch`` renders — update while the workload is
still in flight.

Design constraints, in order:

1. **Routing can never stall.**  Publishing uses ``put_nowait`` on a
   bounded queue; when the parent reads too slowly the event is
   *dropped* and counted (``obs.live.dropped``, shipped back with the
   task result so it survives even total bus congestion).  Under the
   default buffer no drops occur and the folded totals are
   bit-identical to a serial run — pinned by tests.
2. **No double counting.**  While streaming, workers do *not* return
   their events for replay; the stream is the single source, and
   every fold goes through :func:`repro.obs.core.fold_event`, the same
   rule replay uses.
3. **Liveness is observable.**  Each worker emits an
   ``obs.worker.<pid>.heartbeat`` gauge (unix seconds) at task start
   and end; the aggregator tracks the latest beat per worker so a
   status view can tell a busy fabric from a dead one.

Two transports share one interface (``publish`` / ``drain`` /
``handle``): :class:`MpBus` (a ``multiprocessing`` queue — the real
thing, attached to pool workers at spawn via the fabric initializer)
and :class:`InProcBus` (a deque — deterministic tests, and same-process
publishers like the campaign loop).  The parent-side singleton is
managed by :func:`start` / :func:`stop`; :func:`pump` is the one call
sprinkled through long-running loops (engine fan-out wait, campaign
event loop, experiment sweeps) that drains, folds and refreshes the
status file.
"""

from __future__ import annotations

import json
import os
import queue as _queue
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import core
from repro.obs.sinks import Sink

__all__ = [
    "DEFAULT_BUFFER",
    "InProcBus",
    "MpBus",
    "BusSink",
    "LiveAggregator",
    "start",
    "stop",
    "active",
    "pump",
    "bus_handle",
    "attach_worker",
    "detach_worker",
    "worker_publisher",
    "heartbeat_gauge_name",
    "DROP_COUNTER",
    "FORWARDED_COUNTER",
    "LATE_COUNTER",
]

#: default bounded-buffer capacity (events); sized so the reference
#: workloads never drop — the k=4 bit-identity test pins drops == 0
DEFAULT_BUFFER = 65536

#: counter name under which worker-side drops surface in the parent
DROP_COUNTER = "obs.live.dropped"

#: counter name under which a task reports how many events its worker
#: put on the bus (rides the task result, so the parent knows how many
#: streamed events to wait for)
FORWARDED_COUNTER = "obs.live.forwarded"

#: counter name for streamed events a fan-out gave up waiting for
LATE_COUNTER = "obs.live.late_events"


def heartbeat_gauge_name(pid: Optional[int] = None) -> str:
    """Gauge name carrying worker ``pid``'s last heartbeat (unix s)."""
    return f"obs.worker.{os.getpid() if pid is None else pid}.heartbeat"


class InProcBus:
    """Same-process bounded bus (deque transport).

    The deterministic test double — and the transport for publishers
    that already live in the parent process.  ``handle()`` returns the
    bus itself; it cannot cross a process boundary, so pool workers
    fall back to the replay path when an ``InProcBus`` is active
    (the aggregates still converge, just per fan-out instead of per
    event).
    """

    def __init__(self, buffer: int = DEFAULT_BUFFER) -> None:
        self.buffer = buffer
        self._events: Deque[Dict[str, object]] = deque()
        self.dropped = 0
        self.published = 0

    def publish(self, events: List[Dict[str, object]]) -> int:
        accepted = 0
        for ev in events:
            if len(self._events) >= self.buffer:
                self.dropped += 1
            else:
                self._events.append(ev)
                accepted += 1
        self.published += accepted
        return accepted

    def drain(self, max_events: Optional[int] = None) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        while self._events and (max_events is None or len(out) < max_events):
            out.append(self._events.popleft())
        return out

    def handle(self) -> Optional["InProcBus"]:
        return self


class _MpBusHandle:
    """Worker-side ticket for an :class:`MpBus` (the queue + capacity).

    Picklable only while a pool worker is being spawned (the
    ``multiprocessing`` inheritance rule), which is exactly when the
    fabric passes it through the pool initializer.
    """

    __slots__ = ("q", "buffer")

    def __init__(self, q, buffer: int) -> None:
        self.q = q
        self.buffer = buffer

    def publish(self, events: List[Dict[str, object]]) -> int:
        accepted = 0
        for ev in events:
            try:
                self.q.put_nowait(ev)
            except _queue.Full:
                continue
            accepted += 1
        return accepted


class MpBus:
    """Cross-process bounded bus over a ``multiprocessing`` queue."""

    def __init__(self, buffer: int = DEFAULT_BUFFER) -> None:
        import multiprocessing

        self.buffer = buffer
        self._q = multiprocessing.get_context().Queue(maxsize=buffer)
        self.dropped = 0  # parent-side publishes only in tests

    def publish(self, events: List[Dict[str, object]]) -> int:
        accepted = 0
        for ev in events:
            try:
                self._q.put_nowait(ev)
            except _queue.Full:
                self.dropped += 1
                continue
            accepted += 1
        return accepted

    def drain(self, max_events: Optional[int] = None) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        while max_events is None or len(out) < max_events:
            try:
                out.append(self._q.get_nowait())
            except _queue.Empty:
                break
            except (OSError, EOFError):  # pragma: no cover - queue died
                break
        return out

    def handle(self) -> _MpBusHandle:
        return _MpBusHandle(self._q, self.buffer)

    def close(self) -> None:
        try:
            self._q.close()
            self._q.join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass


class BusSink(Sink):
    """An obs sink that forwards every event to a live bus, lossy but
    never blocking: a full buffer drops the event and counts it."""

    def __init__(self, publish: Callable[[List[Dict[str, object]]], int]) -> None:
        self._publish = publish
        self.dropped = 0
        self.forwarded = 0

    def emit(self, event: Dict[str, object]) -> None:
        if self._publish([event]):
            self.forwarded += 1
        else:
            self.dropped += 1


class LiveAggregator:
    """Parent-side folder of the streamed worker events.

    Every :meth:`pump` drains the bus, folds each event through
    :func:`repro.obs.core.fold_event` (so the module aggregates update
    exactly as replay would), forwards it to the attached sinks tagged
    ``streamed=True``, tracks worker heartbeats and the recent event
    rate, and — when a ``status_path`` is configured — atomically
    rewrites the JSON status snapshot at most once per ``interval_s``.
    """

    def __init__(self, bus, status_path: Optional[str] = None,
                 interval_s: float = 0.5) -> None:
        self.bus = bus
        self.status_path = status_path
        self.interval_s = interval_s
        self.events_folded = 0
        self.pumps = 0
        #: pid -> last heartbeat value (unix seconds)
        self.workers: Dict[int, float] = {}
        self._rate: Deque[Tuple[float, int]] = deque(maxlen=64)
        self._last_status = 0.0

    # -- folding -------------------------------------------------------

    def pump(self, force_status: bool = False) -> int:
        """Drain + fold everything pending; returns events folded."""
        events = self.bus.drain()
        for ev in events:
            core.fold_event(ev)
            self._track(ev)
            if core.enabled():
                out = dict(ev)
                out["streamed"] = True
                core._emit(out)
        n = len(events)
        self.events_folded += n
        self.pumps += 1
        now = time.time()
        self._rate.append((now, n))
        if self.status_path and (
            force_status or now - self._last_status >= self.interval_s
        ):
            self.write_status(now)
        return n

    def pump_until(self, folded: int, timeout_s: float = 2.0) -> int:
        """Pump until :attr:`events_folded` reaches ``folded``.

        A worker's events ride its queue feeder thread, which can lag
        the task result; the fan-out therefore waits for the event
        count its workers reported before it returns.  Bounded: after
        ``timeout_s`` the shortfall is counted on
        :data:`LATE_COUNTER` and returned instead of waited for.
        """
        deadline = time.monotonic() + timeout_s
        self.pump()
        while self.events_folded < folded and time.monotonic() < deadline:
            time.sleep(0.002)
            self.pump()
        late = max(0, folded - self.events_folded)
        if late:
            core.count(LATE_COUNTER, late)
        return late

    def _track(self, ev: Dict[str, object]) -> None:
        if ev.get("type") != "gauge":
            return
        name = str(ev.get("name", ""))
        if name.startswith("obs.worker.") and name.endswith(".heartbeat"):
            try:
                pid = int(name.split(".")[2])
            except (IndexError, ValueError):
                return
            self.workers[pid] = float(ev.get("value", 0))  # type: ignore[arg-type]

    # -- diagnostics ---------------------------------------------------

    def rate_per_s(self, window_s: float = 5.0) -> float:
        """Folded events per second over the recent window."""
        now = time.time()
        pts = [(t, n) for t, n in self._rate if now - t <= window_s]
        if not pts:
            return 0.0
        span = max(now - pts[0][0], 1e-9)
        return sum(n for _, n in pts) / span

    def stats(self) -> Dict[str, object]:
        return {
            "events_folded": self.events_folded,
            "pumps": self.pumps,
            "rate_per_s": round(self.rate_per_s(), 3),
            "workers": dict(self.workers),
            "bus_dropped": getattr(self.bus, "dropped", 0),
        }

    def write_status(self, now: Optional[float] = None) -> None:
        """Atomically rewrite the JSON status snapshot (if configured)."""
        if not self.status_path:
            return
        from repro.obs.expo import write_status

        write_status(self.status_path, extra={"live": self.stats()})
        self._last_status = time.time() if now is None else now


# -- parent-side singleton -------------------------------------------------

_aggregator: Optional[LiveAggregator] = None


def start(bus=None, buffer: int = DEFAULT_BUFFER,
          status_path: Optional[str] = None,
          interval_s: float = 0.5) -> LiveAggregator:
    """Install the live telemetry plane for this process.

    Creates an :class:`MpBus` by default (pass an :class:`InProcBus`
    for deterministic in-process streaming), enables observation with
    a roll-up-only :class:`~repro.obs.sinks.MemorySink` when it is not
    already on, and returns the installed :class:`LiveAggregator`.
    The persistent fabric pool is respawned lazily with the bus
    attached — :func:`repro.engine.fabric.get_pool` notices the handle
    change on its next call.
    """
    global _aggregator
    if _aggregator is not None:
        stop()
    if not core.enabled():
        from repro.obs.sinks import MemorySink

        core.enable(MemorySink(keep_events=False))
    bus = bus if bus is not None else MpBus(buffer)
    _aggregator = LiveAggregator(bus, status_path=status_path,
                                 interval_s=interval_s)
    if status_path:
        # eager first write: an unwritable path fails at start() where
        # the caller can report it, not silently inside a later pump —
        # and a concurrent `repro obs watch` sees the file immediately
        try:
            _aggregator.write_status()
        except OSError:
            _aggregator = None
            raise
    return _aggregator


def stop() -> None:
    """Tear the live plane down (drains whatever is still buffered)."""
    global _aggregator
    agg = _aggregator
    if agg is None:
        return
    try:
        agg.pump(force_status=True)
    except Exception:  # pragma: no cover - interpreter shutdown
        pass
    _aggregator = None
    close = getattr(agg.bus, "close", None)
    if close is not None:
        close()


def active() -> Optional[LiveAggregator]:
    """The installed aggregator, or None."""
    return _aggregator


def pump(force_status: bool = False) -> int:
    """Drain + fold pending streamed events (no-op when inactive)."""
    if _aggregator is None:
        return 0
    return _aggregator.pump(force_status=force_status)


def bus_handle():
    """Picklable worker ticket for the active bus (None when inactive
    or when the bus cannot cross processes, e.g. :class:`InProcBus`
    — which only ever has same-process publishers)."""
    if _aggregator is None:
        return None
    handle = _aggregator.bus.handle()
    if isinstance(handle, InProcBus):
        return None
    return handle


# -- worker side -----------------------------------------------------------

_worker_handle = None


def attach_worker(handle) -> None:
    """Adopt a bus handle inside a pool worker (fabric initializer)."""
    global _worker_handle
    _worker_handle = handle


def detach_worker() -> None:
    global _worker_handle
    _worker_handle = None


def worker_publisher():
    """This process's bus publish callable, or None when not attached."""
    if _worker_handle is None:
        return None
    return _worker_handle.publish


def run_streamed(fn, ctx, task) -> Tuple[object, List[Dict[str, object]]]:
    """Execute one fabric task with events streamed to the bus.

    The worker-side counterpart of the replay path: observation is
    enabled onto a :class:`BusSink` (plus heartbeats around the task),
    and instead of the raw event list only a summary is returned —
    how many events were forwarded to the bus and, if any, how many
    were dropped; the parent folds the stream, so returning the events
    too would double-count.
    """
    publish = worker_publisher()
    assert publish is not None, "run_streamed requires an attached bus"
    sink = BusSink(publish)
    core.reset()
    core.enable(sink)
    core.gauge(heartbeat_gauge_name(), time.time())
    try:
        result = fn(ctx, task)
    finally:
        core.gauge(heartbeat_gauge_name(), time.time())
        core.disable()
    summary: List[Dict[str, object]] = [
        {"type": "counter", "name": FORWARDED_COUNTER, "n": sink.forwarded}
    ]
    if sink.dropped:
        summary.append({"type": "counter", "name": DROP_COUNTER,
                        "n": sink.dropped})
    return result, summary


def tail_events(path: str, last: int = 20) -> List[Dict[str, object]]:
    """The last ``last`` parseable events of a JSONL trace file.

    Tolerates a torn final line (a crash mid-write), which the
    flush-per-event :class:`~repro.obs.sinks.JsonlSink` makes the only
    possible corruption.
    """
    keep: Deque[Dict[str, object]] = deque(maxlen=last)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                keep.append(json.loads(line))
            except ValueError:
                continue
    return list(keep)
