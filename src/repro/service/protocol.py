"""Wire protocol of the routing service: codecs, framing, errors.

One message is one *frame*::

    +--------+----------------+------------------+
    | 1 byte | 4 bytes (BE)   | <length> bytes   |
    | codec  | payload length | encoded message  |
    +--------+----------------+------------------+

The codec byte makes every frame self-describing.  There are two:
``J`` — the payload is one JSON document — for every message without
arrays, and ``B`` for messages carrying numpy arrays (forwarding
tables), which never round-trip through nested JSON lists.
:func:`encode_frame` picks by content; a ``B`` payload carries the raw
little-endian array buffers out of band, each starting at an 8-byte
aligned payload offset (zero padding before it), so the arrays a
receiver restores over a payload it read into its own buffer are
aligned::

    +-------+---------+--------------+— per buffer ——————————————+---------------+
    | ``J`` | version | n_buffers    | 4-byte BE length, zero    | JSON-encoded  |
    |       | (1 byte)| (4 bytes BE) | pad to 8, raw LE bytes    | message       |
    +-------+---------+--------------+———————————————————————————+---------------+

``version`` is :data:`WIRE_VERSION`, also the messages'
``schema_version``; a binary payload of any other version (the
unpadded layout of version 2 reads as version 0 there) is refused with
a :class:`ProtocolError` that names both versions.

In the inner message each extracted array is replaced by a placeholder
dict ``{"__ndarray__": i, "dtype": "<i4", "shape": [r, c]}``; decoding
restores the arrays in place (zero parse cost, one ``frombuffer`` view
per table).  Peers that never send arrays never see a ``B`` frame.

Messages are plain dicts.  Requests: ``{"id", "op", "payload"}``;
responses: ``{"id", "ok": true, "result"}`` or ``{"id", "ok": false,
"error": {"type", "message"}}``.  ``docs/service.md`` is the
authoritative spec.

Errors cross the wire as ``{"type": code, "message": text}`` and are
rehydrated into typed exceptions on the client (:func:`wire_to_error`),
so ``ServiceClient.route`` raises the same ``RoutingError`` /
``ValidationError`` / :class:`ServiceOverloaded` a direct
``repro.api`` call would.
"""

from __future__ import annotations

import json
import re
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Codec",
    "get_codec",
    "codec_for_byte",
    "available_codecs",
    "encode_frame",
    "decode_header",
    "decode_frame",
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "NDARRAY_KEY",
    "ProtocolError",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceAborted",
    "ServiceBadRequest",
    "ServiceClosed",
    "error_to_wire",
    "wire_to_error",
]

#: codec byte + 4-byte big-endian payload length
HEADER_SIZE = 5
_LEN = struct.Struct(">I")

#: version of the wire: the binary payload layout (byte 1 of a ``B``
#: payload) and every message's ``schema_version``.  3: binary buffers
#: start at 8-byte aligned payload offsets
WIRE_VERSION = 3

#: payload offsets of binary buffers are multiples of this
_BUFFER_ALIGN = 8

#: refuse frames above this size — a corrupt header must not make a
#: reader allocate gigabytes
MAX_FRAME_BYTES = 256 * 1024 * 1024


# -- typed errors -------------------------------------------------------------

class ServiceError(RuntimeError):
    """Base of every service-side failure a client can receive.

    ``code`` is the stable wire identifier (the ``error.type`` field);
    subclasses pin one code each so clients can catch by type.
    """

    code = "service_error"


class ServiceOverloaded(ServiceError):
    """The daemon's pending-request queue is full; retry later.

    Raised *before* the request is admitted, so in-flight work is
    never affected by the overflow.
    """

    code = "overloaded"


class ServiceAborted(ServiceError):
    """An in-flight request was aborted by a fabric teardown.

    ``shutdown_fabric()`` unlinks the shared-memory exports a running
    computation may depend on; rather than crash, the daemon fails the
    affected requests with this error and keeps serving.
    """

    code = "aborted"


class ServiceBadRequest(ServiceError):
    """The request was malformed (unknown op, bad schema, bad field)."""

    code = "bad_request"


class ServiceClosed(ServiceError):
    """The connection closed before a response arrived."""

    code = "closed"


class ProtocolError(ServiceError):
    """A frame violated the wire format: bad codec byte, oversize or
    truncated, undecodable payload, bad array placeholder.  The only
    exception :func:`decode_header`, :func:`decode_frame` and
    ``Codec.loads`` raise, whatever bytes they are given."""

    code = "protocol"


# -- codecs -------------------------------------------------------------------

class Codec:
    """One wire encoding: a name, a frame byte, dumps/loads."""

    __slots__ = ("name", "byte", "dumps", "loads")

    def __init__(self, name: str, byte: bytes,
                 dumps: Callable[[Any], bytes],
                 loads: Callable[[bytes], Any]) -> None:
        self.name = name
        self.byte = byte
        self.dumps = dumps
        self.loads = loads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Codec({self.name!r})"


def _json_dumps(msg: Any) -> bytes:
    return json.dumps(msg, separators=(",", ":")).encode("utf-8")


def _json_loads(data: Any) -> Any:
    try:
        return json.loads(str(data, "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON/nesting
        raise ProtocolError(
            f"undecodable JSON payload: {type(exc).__name__}: {exc}"
        ) from exc


_JSON = Codec("json", b"J", _json_dumps, _json_loads)

#: placeholder key marking an extracted ndarray in a binary frame's
#: inner message; the value is the out-of-band buffer index
NDARRAY_KEY = "__ndarray__"

_PLACEHOLDER_KEYS = frozenset((NDARRAY_KEY, "dtype", "shape"))


def _extract_ndarrays(obj: Any, buffers: List[memoryview]) -> Any:
    """Deep-copy ``obj`` with every ndarray swapped for a placeholder.

    Buffers are byte views of the contiguous little-endian arrays
    (no copy when the array already is one), appended to ``buffers``
    in placeholder-index order.  Containers are rebuilt only along the
    paths that actually hold arrays' ancestors (dicts/lists/tuples).
    """
    if isinstance(obj, np.ndarray):
        le = obj.dtype.newbyteorder("<")
        data = np.ascontiguousarray(obj.astype(le, copy=False))
        index = len(buffers)
        buffers.append(memoryview(data.reshape(-1).view(np.uint8)))
        return {NDARRAY_KEY: index, "dtype": le.str,
                "shape": list(obj.shape)}
    if isinstance(obj, dict):
        return {k: _extract_ndarrays(v, buffers) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_extract_ndarrays(v, buffers) for v in obj]
    return obj


def _restore_ndarrays(obj: Any, buffers: List[memoryview]) -> Any:
    """Inverse of :func:`_extract_ndarrays`: placeholders -> arrays.

    Restored arrays are read-only ``frombuffer`` views over the frame's
    payload — decoding a multi-megabyte table is O(1) per table.
    """
    if isinstance(obj, dict):
        if set(obj) == _PLACEHOLDER_KEYS and isinstance(
                obj.get(NDARRAY_KEY), int):
            index = obj[NDARRAY_KEY]
            if not 0 <= index < len(buffers):
                raise ProtocolError(
                    f"binary frame references buffer {index}, "
                    f"have {len(buffers)}")
            return _restore_one(buffers[index], obj["dtype"], obj["shape"])
        return {k: _restore_ndarrays(v, buffers) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_restore_ndarrays(v, buffers) for v in obj]
    return obj


#: the dtypes a placeholder may name: fixed-size numeric, spelled the
#: way :func:`_extract_ndarrays` writes them (``dtype.str``, little
#: endian).  Checked before numpy sees the text: ``np.dtype`` hands
#: other strings to the Python parser, which can raise anything
_DTYPE_STR = re.compile(r"[<|][biufc]\d{1,2}")


def _restore_one(buf: memoryview, dtype: Any, shape: Any) -> np.ndarray:
    if not isinstance(dtype, str) or not _DTYPE_STR.fullmatch(dtype) \
            or not isinstance(shape, list):
        raise ProtocolError(
            f"binary frame placeholder needs a numeric dtype string "
            f"and a shape list, got dtype={dtype!r} shape={shape!r}")
    try:
        return np.frombuffer(buf, dtype=np.dtype(dtype)).reshape(
            [int(s) for s in shape])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"binary frame placeholder dtype={dtype!r} shape={shape!r} "
            f"does not describe its {len(buf)}-byte buffer: {exc}"
        ) from exc


def _has_ndarray(obj: Any) -> bool:
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        return any(_has_ndarray(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_has_ndarray(v) for v in obj)
    return False


def _pad(offset: int) -> int:
    """Zero bytes that move ``offset`` to the next buffer alignment."""
    return -offset % _BUFFER_ALIGN


def _binary_parts(msg: Any) -> List[Any]:
    """Binary frame payload as a list of byte buffers, in wire order:
    inner byte, version, buffer table (each buffer a view of its
    array, after its length and padding), inner message."""
    buffers: List[memoryview] = []
    stripped = _extract_ndarrays(msg, buffers)
    parts: List[Any] = [_JSON.byte, bytes((WIRE_VERSION,)),
                        _LEN.pack(len(buffers))]
    offset = 6
    for buf in buffers:
        pad = _pad(offset + 4)
        parts.append(_LEN.pack(buf.nbytes) + bytes(pad))
        parts.append(buf)
        offset += 4 + pad + buf.nbytes
    parts.append(_JSON.dumps(stripped))
    return parts


def _binary_dumps(msg: Any) -> bytes:
    """Binary frame payload: inner byte, buffer table, inner message."""
    return b"".join(_binary_parts(msg))


def _binary_loads(payload: Any) -> Any:
    """Decode a binary payload (any bytes-like object) without copying
    it: array buffers and the inner message are slices of one
    read-only view, so restored arrays stay read-only even over a
    ``bytearray`` the transport filled, and aligned wherever the
    payload itself starts aligned."""
    payload = memoryview(payload).toreadonly()
    if not payload:
        raise ProtocolError("empty binary frame payload")
    if payload[:1] == _BINARY.byte:
        raise ProtocolError("binary frame cannot nest a binary frame")
    if payload[:1] != _JSON.byte:
        raise ProtocolError(
            f"unknown codec byte {payload[0]:#04x} inside a binary frame")
    if len(payload) < 6:
        raise ProtocolError("truncated binary frame buffer table")
    if payload[1] != WIRE_VERSION:
        raise ProtocolError(
            f"binary frame version {payload[1]} not supported "
            f"(this side speaks {WIRE_VERSION})")
    (n_buffers,) = _LEN.unpack(payload[2:6])
    offset = 6
    buffers: List[memoryview] = []
    for _ in range(n_buffers):
        if len(payload) < offset + 4:
            raise ProtocolError("truncated binary frame buffer length")
        (length,) = _LEN.unpack(payload[offset:offset + 4])
        offset += 4 + _pad(offset + 4)
        if len(payload) < offset + length:
            raise ProtocolError(
                f"binary frame buffer of {length} bytes overruns the "
                f"payload")
        buffers.append(payload[offset:offset + length])
        offset += length
    try:
        return _restore_ndarrays(_JSON.loads(payload[offset:]), buffers)
    except RecursionError as exc:
        raise ProtocolError(
            "binary frame message nests too deeply") from exc


_BINARY = Codec("binary", b"B", _binary_dumps, _binary_loads)

_CODECS: Dict[str, Codec] = {c.name: c for c in (_JSON, _BINARY)}
_BY_BYTE: Dict[int, Codec] = {c.byte[0]: c for c in _CODECS.values()}


def available_codecs() -> List[str]:
    """The two codec names: ``binary`` and ``json``."""
    return sorted(_CODECS)


def get_codec(name: str) -> Codec:
    codec = _CODECS.get(name)
    if codec is None:
        raise ProtocolError(
            f"codec {name!r} unavailable here; have {available_codecs()}"
        )
    return codec


def codec_for_byte(byte: int) -> Codec:
    codec = _BY_BYTE.get(byte)
    if codec is None:
        raise ProtocolError(f"unknown codec byte {byte:#04x} in frame")
    return codec


# -- framing ------------------------------------------------------------------

def encode_frame(msg: Any, codec: Codec = _JSON) -> bytes:
    """One message -> one self-describing frame.

    A message containing numpy arrays always takes a binary frame
    (codec byte ``B``), whatever ``codec`` says; array-free peers
    never observe one.  The frame is assembled by one join of the
    header and the payload's parts, so each array's bytes are copied
    exactly once, into the frame.
    """
    if _has_ndarray(msg):
        codec = _BINARY
        parts = _binary_parts(msg)
    else:
        parts = [codec.dumps(msg)]
    length = sum(memoryview(part).nbytes for part in parts)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"message of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return b"".join([codec.byte, _LEN.pack(length), *parts])


def decode_header(header: bytes) -> Tuple[Codec, int]:
    """Parse the 5-byte frame header -> (codec, payload length)."""
    if len(header) != HEADER_SIZE:
        raise ProtocolError(
            f"truncated frame header ({len(header)} bytes)")
    codec = codec_for_byte(header[0])
    (length,) = _LEN.unpack(header[1:])
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return codec, length


def decode_frame(frame: Any) -> Any:
    """Decode one complete frame (header + payload) to a message.

    ``frame`` is any bytes-like object; the payload is decoded from a
    view of it, never a copy, so restored arrays keep ``frame`` alive.
    """
    codec, length = decode_header(bytes(frame[:HEADER_SIZE]))
    payload = memoryview(frame)[HEADER_SIZE:]
    if len(payload) != length:
        raise ProtocolError(
            f"frame length mismatch: header says {length}, "
            f"got {len(payload)}"
        )
    return codec.loads(payload)


# -- error mapping ------------------------------------------------------------

def _library_errors() -> Dict[str, type]:
    """Library exceptions allowed to cross the wire by name.

    Imported lazily: protocol.py must stay importable before the
    routing subsystem (the client is usable in thin processes).
    """
    from repro.metrics.validate import ValidationError
    from repro.reconfig import TransitionIncompatible, TransitionNotApplicable
    from repro.resilience import IncrementalNotApplicable
    from repro.routing import NotApplicableError, RoutingError

    return {
        "RoutingError": RoutingError,
        "NotApplicableError": NotApplicableError,
        "ValidationError": ValidationError,
        "ValueError": ValueError,
        "IncrementalNotApplicable": IncrementalNotApplicable,
        "TransitionIncompatible": TransitionIncompatible,
        "TransitionNotApplicable": TransitionNotApplicable,
    }


def error_to_wire(exc: BaseException) -> Dict[str, str]:
    """Exception -> ``{"type", "message"}`` wire dict."""
    if isinstance(exc, ServiceError):
        return {"type": exc.code, "message": str(exc)}
    name = type(exc).__name__
    if name in _library_errors():
        return {"type": name, "message": str(exc)}
    return {"type": "internal", "message": f"{name}: {exc}"}


_SERVICE_ERRORS: Dict[str, type] = {
    cls.code: cls
    for cls in (ServiceOverloaded, ServiceAborted, ServiceBadRequest,
                ServiceClosed, ProtocolError, ServiceError)
}


def wire_to_error(error: Optional[Dict[str, Any]]) -> BaseException:
    """``{"type", "message"}`` wire dict -> typed exception."""
    error = error or {}
    code = str(error.get("type", "service_error"))
    message = str(error.get("message", "unknown service error"))
    cls = _SERVICE_ERRORS.get(code)
    if cls is not None:
        return cls(message)
    lib = _library_errors().get(code)
    if lib is not None:
        return lib(message)
    return ServiceError(f"{code}: {message}")
