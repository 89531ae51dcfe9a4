"""Pluggable transport abstraction: comms, listeners, address schemes.

The shape follows the comm layer of ``mrocklin__distributed``
(``distributed/comm/core.py``): a :class:`Comm` is one bidirectional
message stream, a :class:`Listener` accepts comms and hands each to an
async ``handler(comm)``, and module-level :func:`connect` /
:func:`listen` dispatch on the address scheme:

========================  ====================================================
``inproc://name``         same-process pair of queues (deterministic tests;
                          still round-trips every message through the wire
                          codec so it proves wire-equivalence)
``tcp://host:port``       TCP via asyncio streams (``port`` 0 = ephemeral,
                          the listener reports the concrete address)
``unix:///path.sock``     unix domain socket via asyncio streams
========================  ====================================================

Messages are dicts (see :mod:`repro.service.protocol`); a closed peer
surfaces as :class:`CommClosedError` from ``recv``/``send``.
"""

from __future__ import annotations

import importlib
from typing import Any, Awaitable, Callable, Dict, Tuple

from repro.service.protocol import ServiceClosed

__all__ = [
    "Comm",
    "Listener",
    "CommClosedError",
    "parse_address",
    "connect",
    "listen",
]

#: an async callable the listener invokes once per accepted connection
Handler = Callable[["Comm"], Awaitable[None]]


class CommClosedError(ServiceClosed):
    """The peer closed the connection (or never answered)."""


class Comm:
    """One bidirectional, message-oriented connection."""

    async def send(self, msg: Any) -> None:
        raise NotImplementedError

    async def recv(self) -> Any:
        """Next message; raises :class:`CommClosedError` at EOF."""
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    #: human-readable peer description, for logs and repr
    peer: str = "?"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<{type(self).__name__} {self.peer} [{state}]>"


class Listener:
    """An accepting endpoint bound to one concrete address."""

    #: the concrete bound address (ephemeral ports resolved)
    address: str = "?"

    def close(self) -> None:
        """Stop accepting; established connections stay up."""
        raise NotImplementedError

    async def stop(self) -> None:
        """:meth:`close`, then wait until the endpoint is released —
        which, for a stream server on Python >= 3.12.1, means until
        every accepted connection has ended: close those first."""
        raise NotImplementedError


#: scheme -> module implementing ``connect_(scheme, rest, timeout)``
#: and ``listen_(scheme, rest, handler)``; imported on first use so the
#: tcp machinery never loads for inproc-only test runs
_BACKENDS: Dict[str, str] = {
    "inproc": "repro.service.inproc",
    "tcp": "repro.service.tcp",
    "unix": "repro.service.tcp",
}


def parse_address(address: str) -> Tuple[str, str]:
    """``"scheme://rest"`` -> ``(scheme, rest)``, scheme validated."""
    if "://" not in address:
        raise ValueError(
            f"address {address!r} has no scheme; expected one of "
            + ", ".join(f"{s}://" for s in sorted(_BACKENDS))
        )
    scheme, rest = address.split("://", 1)
    if scheme not in _BACKENDS:
        raise ValueError(
            f"unknown address scheme {scheme!r} in {address!r}; "
            f"known: {sorted(_BACKENDS)}"
        )
    return scheme, rest


def _backend(scheme: str):
    return importlib.import_module(_BACKENDS[scheme])


async def connect(address: str, timeout: float = 10.0) -> Comm:
    """Open a comm to a listening service at ``address``."""
    scheme, rest = parse_address(address)
    return await _backend(scheme).connect_(scheme, rest, timeout)


async def listen(address: str, handler: Handler) -> Listener:
    """Bind ``address`` and serve ``handler(comm)`` per connection."""
    scheme, rest = parse_address(address)
    return await _backend(scheme).listen_(scheme, rest, handler)
