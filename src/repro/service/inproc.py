"""In-process transport: deterministic, loop-safe, codec-faithful.

The test transport in the style of ``distributed/comm/inproc.py``: a
process-global registry maps ``inproc://name`` addresses to listeners,
and a connect pairs two :class:`InProcComm` endpoints directly.

Two properties matter more than speed:

* **wire equivalence** — every message still round-trips through the
  frame codec (`encode_frame`/`decode_frame`), so anything that would
  not survive TCP (ndarrays, sets, tuples-vs-lists) fails identically
  here, and inproc tests prove the wire protocol, not a shortcut;
* **thread safety** — each endpoint owns an ``asyncio.Queue`` bound to
  *its own* event loop, and delivery crosses threads via the peer
  loop's ``call_soon_threadsafe``, so a sync client on a background
  loop can talk to a daemon loop in another thread.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Any, Dict, Optional

from repro.service.comm import Comm, CommClosedError, Handler, Listener
from repro.service.protocol import decode_frame, encode_frame

__all__ = ["InProcComm", "InProcListener"]

#: end-of-stream marker delivered into a comm's queue on peer close
_CLOSE = object()

_listeners: Dict[str, "InProcListener"] = {}
_conn_ids = itertools.count(1)


class InProcComm(Comm):
    """One endpoint of an in-process comm pair."""

    def __init__(self, peer_name: str) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._peer: Optional["InProcComm"] = None
        self._closed = False
        self.peer = peer_name

    def _deliver(self, item: Any) -> None:
        """Enqueue on *this* endpoint from any thread."""
        if self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._queue.put_nowait, item)

    async def send(self, msg: Any) -> None:
        peer = self._peer
        if self._closed or peer is None or peer._closed:
            raise CommClosedError(f"inproc comm to {self.peer} is closed")
        # encode/decode even in-process: the test transport must reject
        # exactly what the socket transports would
        peer._deliver(encode_frame(msg))

    async def recv(self) -> Any:
        if self._closed:
            raise CommClosedError(f"inproc comm to {self.peer} is closed")
        item = await self._queue.get()
        if item is _CLOSE:
            self._closed = True
            raise CommClosedError(f"inproc peer {self.peer} closed")
        return decode_frame(item)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        peer = self._peer
        if peer is not None and not peer._closed:
            peer._deliver(_CLOSE)
        # unblock a local recv() parked on the queue
        self._queue.put_nowait(_CLOSE)

    @property
    def closed(self) -> bool:
        return self._closed


class InProcListener(Listener):
    """Registry entry accepting in-process connections."""

    def __init__(self, address: str, handler: Handler) -> None:
        self.address = address
        self._handler = handler
        self._loop = asyncio.get_running_loop()
        self._stopped = False

    def _accept(self, client: InProcComm, conn_id: int) -> InProcComm:
        """Create the server endpoint and schedule the handler on the
        listener's loop; safe to call from any thread/loop."""
        if self._stopped:
            raise CommClosedError(f"listener {self.address} is stopped")
        server_box: Dict[str, Any] = {}
        ready = threading.Event()

        def make_server() -> None:
            try:
                server = InProcComm(f"{self.address}#client{conn_id}")
                server._peer = client
                client._peer = server
                server_box["comm"] = server
                self._loop.create_task(self._handler(server))
            except Exception as exc:  # pragma: no cover - loop teardown
                server_box["error"] = exc
            finally:
                ready.set()

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            make_server()
        else:
            self._loop.call_soon_threadsafe(make_server)
            ready.wait(timeout=10.0)
        if "error" in server_box:
            raise server_box["error"]
        if "comm" not in server_box:
            raise CommClosedError(
                f"listener {self.address} did not accept in time")
        return server_box["comm"]

    def close(self) -> None:
        self._stopped = True
        if _listeners.get(self.address) is self:
            del _listeners[self.address]

    async def stop(self) -> None:
        self.close()


async def listen_(scheme: str, rest: str,
                  handler: Handler) -> InProcListener:
    address = f"{scheme}://{rest}"
    if address in _listeners:
        raise OSError(f"inproc address {address} already in use")
    listener = InProcListener(address, handler)
    _listeners[address] = listener
    return listener


async def connect_(scheme: str, rest: str,
                   timeout: float) -> InProcComm:
    address = f"{scheme}://{rest}"
    listener = _listeners.get(address)
    if listener is None:
        raise ConnectionRefusedError(
            f"no inproc listener at {address}")
    conn_id = next(_conn_ids)
    client = InProcComm(address)
    loop = asyncio.get_running_loop()
    # the accept may hop threads; never block this loop on the Event
    await loop.run_in_executor(
        None, listener._accept, client, conn_id)
    return client
