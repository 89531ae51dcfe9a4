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

__all__ = ["StreamComm", "StreamListener"]


class StreamComm(Comm):
    """One framed connection over an asyncio stream pair."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, peer_name: str) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False
        self.peer = peer_name

    async def send(self, msg) -> None:
        if self._closed:
            raise CommClosedError(f"comm to {self.peer} is closed")
        try:
            self._writer.write(encode_frame(msg))
            await self._writer.drain()
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
            payload = await self._reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self._closed = True
            raise CommClosedError(
                f"peer {self.peer} closed the connection") from exc
        return codec.loads(payload)

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
