"""Async and sync clients for the routing service.

:class:`AsyncServiceClient` multiplexes requests over one comm: each
call gets a monotonically increasing id, a background reader task
resolves the matching future when the response frame arrives, so many
coroutines can share a single connection (which is also what makes
server-side coalescing observable from one client).

:class:`ServiceClient` is the blocking wrapper: it owns a private
event loop on a daemon thread and proxies every call with
``run_coroutine_threadsafe`` — the form scripts, the CLI, and
``repro obs watch`` against a remote daemon use.

Both return the same typed responses the in-process facade returns
(``api.route(req)`` == ``client.route(req)`` bit-for-bit), and both
re-raise server-side failures as the typed exceptions of
:mod:`repro.service.protocol`.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Any, Dict, Optional

from repro.service import comm as comms
from repro.service.protocol import (
    ProtocolError,
    ServiceClosed,
    wire_to_error,
)
from repro.service.requests import (
    OPS,
    AnalyzeRequest,
    AnalyzeResponse,
    CampaignRequest,
    CampaignResponse,
    RerouteRequest,
    RerouteResponse,
    RouteRequest,
    RouteResponse,
    TransitionRequest,
    TransitionResponse,
)

__all__ = ["AsyncServiceClient", "ServiceClient"]

DEFAULT_TIMEOUT_S = 300.0


class AsyncServiceClient:
    """One multiplexed connection to a routing daemon."""

    def __init__(self, address: str,
                 connect_timeout: float = 10.0) -> None:
        self.address = address
        self.connect_timeout = connect_timeout
        self._comm: Optional[comms.Comm] = None
        self._reader: Optional[asyncio.Task] = None
        self._pending: Dict[int, "asyncio.Future[Any]"] = {}
        self._ids = itertools.count(1)

    async def __aenter__(self) -> "AsyncServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        if self._comm is not None and not self._comm.closed:
            return
        self._comm = await comms.connect(
            self.address, timeout=self.connect_timeout)
        self._reader = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        comm, self._comm = self._comm, None
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except (asyncio.CancelledError, Exception):
                pass
            self._reader = None
        if comm is not None:
            await comm.close()
        self._fail_pending(ServiceClosed(
            f"connection to {self.address} closed"))

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(exc)

    async def _read_loop(self) -> None:
        comm = self._comm
        assert comm is not None
        try:
            while True:
                msg = await comm.recv()
                if not isinstance(msg, dict):
                    continue
                req_id = msg.get("id")
                error = msg.get("error")
                if req_id is None and isinstance(error, dict) \
                        and error.get("type") == "protocol":
                    # a connection-level refusal (the daemon could not
                    # frame what it was sent and is closing): no call
                    # will be answered.  An id-less ``bad_request`` is
                    # one stray message on a healthy connection.
                    self._fail_pending(wire_to_error(error))
                    continue
                fut = self._pending.pop(req_id, None) \
                    if isinstance(req_id, int) else None
                if fut is None or fut.done():
                    continue
                if msg.get("ok"):
                    fut.set_result(msg.get("result"))
                else:
                    fut.set_exception(wire_to_error(msg.get("error")))
        except comms.CommClosedError as exc:
            self._fail_pending(ServiceClosed(
                f"daemon at {self.address} closed the connection: {exc}"))
        except ProtocolError as exc:
            # framing is lost: every pending call fails now, typed,
            # rather than waiting out its timeout on a dead reader
            self._fail_pending(exc)
            await comm.close()

    async def call(self, op: str, payload: Optional[Dict[str, Any]] = None,
                   timeout: float = DEFAULT_TIMEOUT_S) -> Any:
        """Low-level RPC: send ``{id, op, payload}``, await the result."""
        await self.connect()
        assert self._comm is not None
        req_id = next(self._ids)
        fut: "asyncio.Future[Any]" = \
            asyncio.get_running_loop().create_future()
        self._pending[req_id] = fut
        try:
            await self._comm.send(
                {"id": req_id, "op": op, "payload": payload or {}})
            return await asyncio.wait_for(fut, timeout)
        finally:
            self._pending.pop(req_id, None)

    # -- typed ops ------------------------------------------------------------

    async def _typed_call(self, op: str, request: Any,
                          timeout: float) -> Any:
        """Send ``op``'s typed request, rebuild its typed response
        (:data:`~repro.service.requests.OPS` pairs the classes).
        Tables travel as binary buffers both ways."""
        _request_cls, response_cls, _executor = OPS[op]
        result = await self.call(
            op, request.to_dict(tables="binary"), timeout)
        return response_cls.from_dict(result)

    async def route(self, request: RouteRequest,
                    timeout: float = DEFAULT_TIMEOUT_S) -> RouteResponse:
        return await self._typed_call("route", request, timeout)

    async def analyze(self, request: AnalyzeRequest,
                      timeout: float = DEFAULT_TIMEOUT_S
                      ) -> AnalyzeResponse:
        if isinstance(request, RouteRequest):
            request = AnalyzeRequest(route=request)
        return await self._typed_call("analyze", request, timeout)

    async def campaign(self, request: CampaignRequest,
                       timeout: float = DEFAULT_TIMEOUT_S
                       ) -> CampaignResponse:
        return await self._typed_call("campaign", request, timeout)

    async def reroute(self, request: RerouteRequest,
                      timeout: float = DEFAULT_TIMEOUT_S
                      ) -> RerouteResponse:
        return await self._typed_call("reroute", request, timeout)

    async def transition(self, request: TransitionRequest,
                         timeout: float = DEFAULT_TIMEOUT_S
                         ) -> TransitionResponse:
        return await self._typed_call("transition", request, timeout)

    async def status(self, timeout: float = 30.0) -> Dict[str, Any]:
        return await self.call("status", timeout=timeout)

    async def ping(self, timeout: float = 30.0) -> bool:
        result = await self.call("ping", timeout=timeout)
        return bool(result.get("pong"))


class ServiceClient:
    """Blocking client: a private loop thread wrapping the async one.

    >>> with ServiceClient("tcp://127.0.0.1:7777") as client:   # doctest: +SKIP
    ...     response = client.route(RouteRequest(topology=net))
    """

    def __init__(self, address: str,
                 connect_timeout: float = 10.0) -> None:
        self.address = address
        self._async = AsyncServiceClient(
            address, connect_timeout=connect_timeout)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-client", daemon=True)
        self._thread.start()

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _run(self, coro: Any, timeout: float) -> Any:
        if not self._thread.is_alive():  # pragma: no cover - after close
            raise ServiceClosed("client already closed")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            # a margin over the RPC's own timeout so the in-loop
            # asyncio.wait_for is the one that fires first
            return future.result(timeout + 10.0)
        except (TimeoutError, _FuturesTimeout):
            future.cancel()
            raise

    def connect(self) -> None:
        self._run(self._async.connect(), 30.0)

    def close(self) -> None:
        if self._thread.is_alive():
            try:
                self._run(self._async.close(), 30.0)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=10.0)
                self._loop.close()

    def call(self, op: str, payload: Optional[Dict[str, Any]] = None,
             timeout: float = DEFAULT_TIMEOUT_S) -> Any:
        return self._run(self._async.call(op, payload, timeout), timeout)

    def route(self, request: RouteRequest,
              timeout: float = DEFAULT_TIMEOUT_S) -> RouteResponse:
        return self._run(self._async.route(request, timeout), timeout)

    def analyze(self, request: AnalyzeRequest,
                timeout: float = DEFAULT_TIMEOUT_S) -> AnalyzeResponse:
        return self._run(self._async.analyze(request, timeout), timeout)

    def campaign(self, request: CampaignRequest,
                 timeout: float = DEFAULT_TIMEOUT_S) -> CampaignResponse:
        return self._run(self._async.campaign(request, timeout), timeout)

    def reroute(self, request: RerouteRequest,
                timeout: float = DEFAULT_TIMEOUT_S) -> RerouteResponse:
        return self._run(self._async.reroute(request, timeout), timeout)

    def transition(self, request: TransitionRequest,
                   timeout: float = DEFAULT_TIMEOUT_S
                   ) -> TransitionResponse:
        return self._run(self._async.transition(request, timeout),
                         timeout)

    def status(self, timeout: float = 30.0) -> Dict[str, Any]:
        return self._run(self._async.status(timeout), timeout)

    def ping(self, timeout: float = 30.0) -> bool:
        return self._run(self._async.ping(timeout), timeout)


def watch_snapshot(address: str) -> Dict[str, Any]:
    """One status snapshot from a remote daemon (used by ``repro obs``
    when the status argument is a service address, not a file)."""
    with ServiceClient(address) as client:
        return client.status()


__all__.append("watch_snapshot")
