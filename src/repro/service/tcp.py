"""Socket transports (``tcp://`` and ``unix://``) over asyncio streams.

Both schemes share one :class:`StreamComm`: frames from
:mod:`repro.service.protocol` written to a ``StreamWriter`` and read
back with ``readexactly``.  ``tcp://host:0`` binds an ephemeral port
and the listener's ``address`` reports the concrete one, which is how
the CLI/CI wire a daemon and its clients together without racing on a
fixed port.
"""

from __future__ import annotations

import asyncio
import os
from typing import Optional

from repro.service.comm import Comm, CommClosedError, Handler, Listener
from repro.service.protocol import (
    HEADER_SIZE,
    decode_header,
    encode_frame,
)

__all__ = ["StreamComm", "StreamListener", "SLICE_BYTES"]

#: the most bytes one ``write`` hands the transport, and one read takes
#: from the stream, while a large frame crosses
SLICE_BYTES = 1 << 20


class StreamComm(Comm):
    """One framed connection over an asyncio stream pair."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, peer_name: str) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False
        self._send_lock = asyncio.Lock()
        self.peer = peer_name

    async def send(self, msg) -> None:
        if self._closed:
            raise CommClosedError(f"comm to {self.peer} is closed")
        frame = memoryview(encode_frame(msg))
        # bounded slices: a transport copies whatever part of one write
        # the socket does not take at once into its own buffer.  The
        # lock keeps concurrent senders' frames from interleaving
        async with self._send_lock:
            sent = 0
            try:
                while sent < len(frame):
                    self._writer.write(frame[sent:sent + SLICE_BYTES])
                    sent += SLICE_BYTES
                    await self._writer.drain()
            except asyncio.CancelledError:
                # never leave half a frame on the wire: queue the rest
                self._writer.write(frame[sent:])
                raise
            except (ConnectionError, RuntimeError) as exc:
                self._closed = True
                raise CommClosedError(
                    f"comm to {self.peer} broke mid-send: {exc}") from exc

    async def recv(self):
        if self._closed:
            raise CommClosedError(f"comm to {self.peer} is closed")
        try:
            header = await self._reader.readexactly(HEADER_SIZE)
            codec, length = decode_header(header)
            payload = await self._read_payload(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self._closed = True
            raise CommClosedError(
                f"peer {self.peer} closed the connection") from exc
        return codec.loads(payload)

    async def _read_payload(self, length: int):
        """``length`` bytes; above :data:`SLICE_BYTES` read slice by
        slice into one preallocated buffer, so the payload is copied
        once out of the stream's buffer instead of accumulating there
        first."""
        if length <= SLICE_BYTES:
            return await self._reader.readexactly(length)
        payload = bytearray(length)
        view = memoryview(payload)
        for start in range(0, length, SLICE_BYTES):
            chunk = await self._reader.readexactly(
                min(SLICE_BYTES, length - start))
            view[start:start + len(chunk)] = chunk
        return payload

    async def close(self) -> None:
        # no early return on ``_closed``: a recv()/send() that met EOF
        # sets it without releasing the transport, which the server's
        # wait_closed() then waits for (both calls below are idempotent)
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - races
            pass

    @property
    def closed(self) -> bool:
        return self._closed


class StreamListener(Listener):
    """A bound asyncio server for one ``tcp://``/``unix://`` address."""

    def __init__(self, server: asyncio.AbstractServer, address: str,
                 unix_path: Optional[str] = None) -> None:
        self._server = server
        self.address = address
        self._unix_path = unix_path

    def close(self) -> None:
        self._server.close()

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass


def _split_host_port(rest: str) -> tuple:
    host, _, port = rest.rpartition(":")
    if not host or not port:
        raise ValueError(
            f"tcp address needs host:port, got {rest!r}")
    return host, int(port)


def _wrap_handler(handler: Handler, scheme: str):
    async def on_connect(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        comm = StreamComm(reader, writer,
                          f"{scheme}://{peer}" if peer else scheme)
        await handler(comm)

    return on_connect


async def listen_(scheme: str, rest: str,
                  handler: Handler) -> StreamListener:
    if scheme == "unix":
        path = "/" + rest.lstrip("/") if rest.startswith("/") else rest
        server = await asyncio.start_unix_server(
            _wrap_handler(handler, scheme), path=path)
        return StreamListener(server, f"unix://{path}", unix_path=path)
    host, port = _split_host_port(rest)
    server = await asyncio.start_server(
        _wrap_handler(handler, scheme), host=host, port=port)
    bound = server.sockets[0].getsockname()
    return StreamListener(server, f"tcp://{bound[0]}:{bound[1]}")


async def connect_(scheme: str, rest: str,
                   timeout: float) -> StreamComm:
    if scheme == "unix":
        path = "/" + rest.lstrip("/") if rest.startswith("/") else rest
        opener = asyncio.open_unix_connection(path)
        peer_name = f"unix://{path}"
    else:
        host, port = _split_host_port(rest)
        opener = asyncio.open_connection(host, port)
        peer_name = f"tcp://{host}:{port}"
    try:
        reader, writer = await asyncio.wait_for(opener, timeout)
    except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
        raise CommClosedError(
            f"cannot connect to {peer_name}: {exc}") from exc
    return StreamComm(reader, writer, peer_name)
