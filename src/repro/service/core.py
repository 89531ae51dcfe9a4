"""The routing daemon: multi-tenant, coalescing, backpressured.

:class:`RoutingService` is the resident process the paper's deployment
story implies — the subnet manager's routing engine, invoked on every
fault and reconfiguration — built on the PR 5 shared-memory fabric and
the PR 6 telemetry plane:

* **multi-tenant network LRU** — each served topology is admitted into
  a bounded LRU keyed by ``network_fingerprint``; admission pins a
  refcounted shm export (workers attach zero-copy), eviction releases
  it (``service.networks_evicted``), so N tenants share one fabric
  without unbounded ``/dev/shm`` growth;
* **request coalescing** — concurrent requests with the same
  ``(fingerprint, op, algorithm, max_vls, config, dests, seed)`` fan
  in to a single in-flight computation and fan the result out
  (``service.coalesced``), the service-level analogue of the engine's
  route memo cache (which it also enables, so *sequential* repeats hit
  ``cache_hit`` as well);
* **bounded-queue backpressure** — at most ``max_pending`` distinct
  computations may be in flight; excess requests fail fast with the
  typed :class:`~repro.service.protocol.ServiceOverloaded` *before*
  admission, leaving in-flight work untouched;
* **clean teardown** — a :func:`repro.engine.fabric.on_shutdown` hook
  aborts every in-flight request with
  :class:`~repro.service.protocol.ServiceAborted` when something calls
  ``shutdown_fabric()`` under the daemon, instead of crashing it;
* **observability** — ``service.*`` counters/gauges (naming table in
  ``docs/observability.md``), a ``service.rpc.<op>`` span per request
  (fed through :func:`repro.obs.core.replay`, which also derives the
  ``.dur_ns`` histogram), and a ``status`` RPC returning the
  exposition snapshot so ``repro obs watch tcp://host:port`` renders a
  remote daemon exactly like a local status file.

**One compute lane.**  Exactly one computation — an
:data:`~repro.service.requests.OPS` executor body, preceded by its
network admission — runs at a time, on one thread.  The event loop
only frames, answers ``ping`` / ``status``, coalesces and applies
backpressure; parse + fingerprint (``_prepare``) runs on asyncio's
default executor, off the loop *and* off the lane, so a follower joins
its in-flight leader and overflow is refused while the lane computes.
Parallelism inside a request lives in the fabric's process pool
(``workers``), which the lane thread alone drives — every piece of
module-global engine state (route cache, fabric segment maps,
auto-exports, a cached ``Network``'s lazy CSR fields) has that one
writer.  A cache hit is a computation like any other and queues on
the lane.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.obs import core as obs
from repro.obs import live
from repro.obs.expo import snapshot as obs_snapshot
from repro.service import comm as comms
from repro.service.protocol import (
    ProtocolError,
    ServiceAborted,
    ServiceBadRequest,
    ServiceOverloaded,
    error_to_wire,
)
from repro.service.requests import OPS

__all__ = ["RoutingService", "serve_in_thread"]


#: how long ``stop`` lets aborted requests write their typed answer
#: before it closes the connections under them
_STOP_FLUSH_S = 5.0


def _count(name: str, value: float = 1) -> None:
    if obs.enabled():
        obs.count(name, value)


def _gauge(name: str, value: float) -> None:
    if obs.enabled():
        obs.gauge(name, value)


class _NetworkCache:
    """LRU of admitted networks; admission pins a shm export.

    Forwarding tables are never held here: a fan-out table's segment
    is unlinked when the executor's result goes, so ``/dev/shm`` usage
    is bounded by ``capacity`` network exports plus the table of the
    request on the lane.  Touched from the compute lane only
    (``__len__`` aside), so the fabric's export maps keep a single
    writer.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def admit(self, net: Any, fingerprint: str) -> Any:
        """Pin ``net``'s export; returns the resident ``Network`` of
        that fingerprint (the first one admitted), whose lazily built
        fields every later request of the tenant then shares."""
        from repro.engine import fabric

        cached = self._entries.get(fingerprint)
        if cached is not None:
            self._entries.move_to_end(fingerprint)
            _count("service.network_reuses")
            return cached
        fabric.export_network(net, fingerprint=fingerprint)
        self._entries[fingerprint] = net
        _count("service.networks_admitted")
        while len(self._entries) > self.capacity:
            old_fp, _net = self._entries.popitem(last=False)
            fabric.release_network(old_fp)
            _count("service.networks_evicted")
        return net

    def drop_all(self, release: bool = True) -> None:
        from repro.engine import fabric

        while self._entries:
            fp, _net = self._entries.popitem(last=False)
            if release:
                fabric.release_network(fp)

    def __len__(self) -> int:
        return len(self._entries)


class RoutingService:
    """The async RPC daemon serving
    route/analyze/campaign/reroute/transition.

    Parameters
    ----------
    max_networks:
        LRU capacity of admitted (shm-exported) networks.
    max_pending:
        Bound on distinct in-flight computations; beyond it new work
        fails with :class:`ServiceOverloaded`.
    workers:
        Default engine parallelism per request (request ``workers``
        wins; ``None`` = the run-wide default).
    cache:
        Install the engine route memo cache so repeated identical
        requests are served from memory even when not concurrent.
    """

    def __init__(self, max_networks: int = 8, max_pending: int = 32,
                 workers: Optional[int] = None,
                 cache: bool = True) -> None:
        self.max_pending = max_pending
        self.workers = workers
        self.cache = cache
        self._networks = _NetworkCache(max_networks)
        #: the compute lane: one thread, one computation at a time
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-lane")
        self._stopping = False
        self._inflight: Dict[Tuple, "asyncio.Future[Any]"] = {}
        self._listeners: List[comms.Listener] = []
        self._conns: Dict["asyncio.Task", comms.Comm] = {}
        self._req_tasks: "set[asyncio.Task]" = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._unsubscribe: Optional[Callable[[], None]] = None
        self._started = time.time()
        self._requests_served = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self, addresses: List[str]) -> List[str]:
        """Bind every address; returns the concrete bound addresses."""
        from repro.engine import fabric

        self._loop = asyncio.get_running_loop()
        if self.cache:
            from repro.engine import active_route_cache, enable_route_cache

            if active_route_cache() is None:
                enable_route_cache()
        self._unsubscribe = fabric.on_shutdown(self._on_fabric_shutdown)
        for address in addresses:
            listener = await comms.listen(address, self._handle_comm)
            self._listeners.append(listener)
        return [listener.address for listener in self._listeners]

    async def stop(self) -> None:
        """Stop listeners, fail in-flight work typed, release exports."""
        self._stopping = True
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        # stop accepting now; wait for the listeners last — a stream
        # server's wait_closed() outlasts every accepted connection
        # (CPython >= 3.12.1), and those close further down
        for listener in self._listeners:
            listener.close()
        self._abort_inflight("service stopping")
        # every aborted request answers its caller before the
        # connections go: a stop is a typed failure, not a bare close
        if self._req_tasks:
            await asyncio.wait(self._req_tasks, timeout=_STOP_FLUSH_S)
        for task in list(self._req_tasks):
            task.cancel()
        # closing a comm ends its handler at recv(); a *cancelled*
        # handler would make asyncio's stream server log a traceback
        for comm in list(self._conns.values()):
            await comm.close()
        for task in list(self._req_tasks) + list(self._conns):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        for listener in self._listeners:
            await listener.stop()
        self._listeners.clear()
        # a thread cannot be interrupted: the lane finishes the body it
        # is in (its late result is discarded), queued ones are dropped
        self._lane.shutdown(wait=True, cancel_futures=True)
        self._networks.drop_all(release=True)

    @property
    def addresses(self) -> List[str]:
        return [listener.address for listener in self._listeners]

    def stats(self) -> Dict[str, Any]:
        """The ``service`` block of the ``status`` RPC."""
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "requests_served": self._requests_served,
            "inflight": len(self._inflight),
            "max_pending": self.max_pending,
            "networks_cached": len(self._networks),
            "addresses": self.addresses,
        }

    # -- fabric teardown ------------------------------------------------------

    def _on_fabric_shutdown(self) -> None:
        """fabric.shutdown() fired (any thread): fail in-flight work
        cleanly before the exports vanish."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._abort_fabric_teardown()
        else:
            loop.call_soon_threadsafe(self._abort_fabric_teardown)

    def _abort_fabric_teardown(self) -> None:
        # the fabric force-unlinks every export itself; dropping the
        # handles without release avoids double-unlink bookkeeping.
        # Queued on the lane like every other touch of the LRU: the
        # jobs ahead of it are aborted first, so they skip admission
        # (``_on_lane``) and the drop precedes the next one that admits.
        self._abort_inflight("fabric teardown (shutdown_fabric) "
                             "while the request was in flight")
        if not self._stopping:
            self._lane.submit(self._networks.drop_all, release=False)

    def _abort_inflight(self, reason: str) -> None:
        for fut in list(self._inflight.values()):
            if not fut.done():
                fut.set_exception(ServiceAborted(reason))
                _count("service.aborted")
        self._inflight.clear()
        _gauge("service.inflight", 0)

    # -- connection handling --------------------------------------------------

    async def _handle_comm(self, comm: comms.Comm) -> None:
        _count("service.connections")
        task = asyncio.current_task()
        self._conns[task] = comm
        try:
            if self._stopping:
                # accepted just before ``stop`` closed the listeners,
                # first scheduled after it closed the comms
                return
            while True:
                try:
                    msg = await comm.recv()
                except comms.CommClosedError:
                    break
                except ProtocolError as exc:
                    # framing is lost with the bad frame: answer typed,
                    # then drop this connection and no other
                    _count("service.protocol_errors")
                    with contextlib.suppress(comms.CommClosedError):
                        await comm.send({"id": None, "ok": False,
                                         "error": error_to_wire(exc)})
                    break
                req_task = asyncio.ensure_future(
                    self._handle_request(comm, msg))
                self._req_tasks.add(req_task)
                req_task.add_done_callback(self._req_tasks.discard)
        finally:
            del self._conns[task]
            await comm.close()

    async def _handle_request(self, comm: comms.Comm, msg: Any) -> None:
        req_id = msg.get("id") if isinstance(msg, dict) else None
        started = time.perf_counter_ns()
        op = "?"
        try:
            if not isinstance(msg, dict):
                raise ServiceBadRequest("request must be an object")
            op = str(msg.get("op", ""))
            payload = msg.get("payload") or {}
            _count("service.requests")
            result = await self._dispatch(op, payload)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            _count("service.errors")
            response = {"id": req_id, "ok": False,
                        "error": error_to_wire(exc)}
        else:
            response = {"id": req_id, "ok": True, "result": result}
        self._requests_served += 1
        self._rpc_span(op, time.perf_counter_ns() - started)
        with contextlib.suppress(comms.CommClosedError):
            await comm.send(response)

    def _rpc_span(self, op: str, dur_ns: int) -> None:
        """Per-RPC span without touching the (non-async-safe) global
        span stack: feed one ready-made span event through replay,
        which folds the aggregate and derives the dur_ns histogram."""
        if not obs.enabled():
            return
        name = f"service.rpc.{op}"
        obs.replay([{"type": "span", "name": name, "path": name,
                     "dur_ns": int(dur_ns)}])

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, op: str, payload: Dict[str, Any]) -> Any:
        if op == "ping":
            return {"pong": True}
        if op == "status":
            return self._status()
        if op not in OPS:
            raise ServiceBadRequest(
                f"unknown op {op!r}; known: {', '.join(OPS)}, status, "
                f"ping")
        request_cls, _response_cls, executor = OPS[op]
        request = request_cls.from_dict(payload)
        response = await self._coalesced(
            op, request,
            lambda net, fp: executor(
                request, workers=self.workers, net=net, fingerprint=fp))
        return response.to_dict(tables="binary")

    def _status(self) -> Dict[str, Any]:
        snap = obs_snapshot()
        agg = live.active()
        if agg is not None:
            snap["live"] = agg.stats()
        snap["service"] = self.stats()
        return snap

    # -- coalesced compute ----------------------------------------------------

    def _prepare(self, request: Any) -> Tuple[Any, str]:
        """Parse the wire topology and fingerprint it.  Runs on
        asyncio's default executor: parsing a large fabric must not
        stall the event loop, and must not wait for the lane either —
        the fingerprint is what lets a request join its in-flight
        leader, or be refused, while the lane computes.  Touches
        nothing but the request's own fresh ``Network``."""
        from repro.engine.fingerprint import network_fingerprint

        net = request.network()
        return net, network_fingerprint(net)

    def _on_lane(self, fut: "asyncio.Future[Any]",
                 compute: Callable[[Any, str], Any],
                 net: Any, fp: str) -> Any:
        """One computation, admission to response, on the lane thread.
        A job aborted while it queued neither admits nor computes: its
        callers are answered already, and an admission after a fabric
        teardown would pin an export the queued ``drop_all`` forgets."""
        if fut.done():
            return None
        return compute(self._networks.admit(net, fp), fp)

    async def _coalesced(
        self, op: str, request: Any,
        compute: Callable[[Any, str], Any],
    ) -> Any:
        loop = asyncio.get_running_loop()
        net, fp = await loop.run_in_executor(None, self._prepare, request)
        if self._stopping:
            raise ServiceAborted("service stopping")

        key = (op,) + request.coalesce_key(fp)
        fut = self._inflight.get(key)
        if fut is not None:
            _count("service.coalesced")
            return await asyncio.shield(fut)

        if len(self._inflight) >= self.max_pending:
            _count("service.overloaded")
            raise ServiceOverloaded(
                f"{len(self._inflight)} computations in flight "
                f"(max_pending={self.max_pending}); retry later")

        # ``fut`` is what callers wait on and what an abort fails; the
        # lane's own future only ever completes with the body's outcome
        fut = loop.create_future()
        self._inflight[key] = fut
        _gauge("service.inflight", len(self._inflight))
        _count("service.computations")
        job = loop.run_in_executor(self._lane, self._on_lane,
                                   fut, compute, net, fp)
        job.add_done_callback(lambda done: self._settle(key, fut, done))
        return await asyncio.shield(fut)

    def _settle(self, key: Tuple, fut: "asyncio.Future[Any]",
                job: "asyncio.Future[Any]") -> None:
        """The lane finished (or ``stop`` dropped) ``key``'s body."""
        if self._inflight.get(key) is fut:
            del self._inflight[key]
            _gauge("service.inflight", len(self._inflight))
        if job.cancelled():
            return
        exc = job.exception()
        if fut.done():  # aborted meanwhile: the late outcome is dropped
            return
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(job.result())


# -- embedded serving ---------------------------------------------------------

@contextlib.contextmanager
def serve_in_thread(addresses: List[str], **service_kwargs: Any):
    """Run a :class:`RoutingService` on a background event loop.

    Yields ``(service, bound_addresses)``; stopping is handled on
    exit.  This is what tests, the example, and the benchmark use to
    stand up a daemon inside one process; ``repro serve`` runs the
    same service on a foreground loop instead.
    """
    service = RoutingService(**service_kwargs)
    bound: Dict[str, Any] = {}
    ready = threading.Event()
    stop_requested = threading.Event()

    async def main() -> None:
        try:
            bound["addresses"] = await service.start(addresses)
        except BaseException as exc:
            bound["error"] = exc
            ready.set()
            return
        bound["loop"] = asyncio.get_running_loop()
        ready.set()
        while not stop_requested.is_set():
            await asyncio.sleep(0.02)
        await service.stop()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()),
        name="repro-serve", daemon=True)
    thread.start()
    ready.wait(timeout=30.0)
    if "error" in bound:
        thread.join(timeout=5.0)
        raise bound["error"]
    if "addresses" not in bound:
        raise RuntimeError("service failed to start in time")
    try:
        yield service, bound["addresses"]
    finally:
        stop_requested.set()
        thread.join(timeout=30.0)


def _serve_forever(service: RoutingService,
                   addresses: List[str],
                   on_bound: Optional[Callable[[List[str]], None]] = None,
                   ) -> Awaitable[None]:
    """Coroutine for the CLI: start, report, serve until SIGINT or
    SIGTERM, then take the one clean path out (``service.stop()``)."""

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        signums = (signal.SIGINT, signal.SIGTERM)
        for signum in signums:
            loop.add_signal_handler(signum, stop.set)
        bound = await service.start(addresses)
        if on_bound is not None:
            on_bound(bound)
        try:
            await stop.wait()
        finally:
            # the first signal asked for the clean path; a second one
            # gets Python's default back (KeyboardInterrupt / death), so
            # a stop stuck behind a long lane body can still be ended
            for signum in signums:
                loop.remove_signal_handler(signum)
            await service.stop()

    return main()
