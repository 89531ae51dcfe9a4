"""The one dataclass <-> wire-dict codec of the service messages.

Each field of a request/response dataclass names a *kind* — how its
value crosses the wire — with :func:`wire_field`; :func:`wire_message`
reads those declarations once per class at import time and
:class:`WireMessage` supplies the ``to_dict``/``from_dict`` every
message inherits.  ``from_dict`` is the single place outside input
becomes typed fields: it checks every field and raises
:class:`~repro.service.protocol.ServiceBadRequest` naming
``<Class>.<field>`` on the first mismatch, so a malformed message
answers ``bad_request`` instead of dying somewhere downstream.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.service.protocol import WIRE_VERSION, ServiceBadRequest

__all__ = [
    "SCHEMA_VERSION",
    "Kind",
    "WireMessage",
    "wire_message",
    "wire_field",
    "optional",
    "message",
    "table",
    "TEXT",
    "INT",
    "FLOAT",
    "BOOL",
    "OBJECT",
    "TOPOLOGY",
    "VERSION",
    "CONFIG",
    "INTS",
    "LINKS",
]

#: bump on any incompatible message-shape change; both sides reject
#: every other version with ``ServiceBadRequest``.  In v2 forwarding
#: tables cross the wire as raw ndarrays (the protocol ships them as
#: out-of-band little-endian buffers); v3 aligns those buffers.  One
#: number for the whole wire: the protocol's binary frames carry it too.
SCHEMA_VERSION = WIRE_VERSION


class Kind:
    """``decode(value, what)`` type-checks an outside value and returns
    the field value, raising :class:`ServiceBadRequest` (``what`` is
    ``"<Class>.<field>"``); ``encode(value, tables)`` is the way out."""

    __slots__ = ("decode", "encode")

    def __init__(self, decode: Callable[[Any, str], Any],
                 encode: Optional[Callable[[Any, str], Any]] = None
                 ) -> None:
        self.decode = decode
        self.encode = encode or (lambda value, tables: value)


def _bad(what: str, expect: str, value: Any) -> ServiceBadRequest:
    return ServiceBadRequest(
        f"{what}: expected {expect}, got {type(value).__name__}")


def _json_type(expect: str, *accept: type,
               convert: Callable[[Any], Any] = lambda value: value,
               encode: Optional[Callable[[Any, str], Any]] = None
               ) -> Kind:
    """A kind accepting exactly the JSON types in ``accept`` — ``bool``
    only where listed, although Python counts it an ``int``."""
    def decode(value: Any, what: str) -> Any:
        if not isinstance(value, accept) or (
                isinstance(value, bool) and bool not in accept):
            raise _bad(what, expect, value)
        return convert(value)

    return Kind(decode, encode)


def optional(kind: Kind) -> Kind:
    return Kind(
        lambda value, what:
            None if value is None else kind.decode(value, what),
        lambda value, tables:
            None if value is None else kind.encode(value, tables))


def _list_of(kind: Kind, expect: str) -> Kind:
    def decode(value: Any, what: str) -> List[Any]:
        if not isinstance(value, list):
            raise _bad(what, f"a list of {expect}", value)
        return [kind.decode(item, f"{what}[{i}]")
                for i, item in enumerate(value)]

    return Kind(decode, lambda value, tables:
                [kind.encode(item, tables) for item in value])


def message(cls: type) -> Kind:
    """A nested request/response, as its own wire dict."""
    def decode(value: Any, what: str) -> Any:
        if not isinstance(value, dict):
            raise _bad(what, f"a {cls.__name__} dict", value)
        return cls.from_dict(value)

    return Kind(decode, lambda value, tables: value.to_dict(tables))


def _decode_version(value: Any, what: str) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:
        raise ServiceBadRequest(
            f"{what} {value!r} not supported "
            f"(this side speaks {SCHEMA_VERSION})")
    return value


def _decode_config(value: Any, what: str) -> Dict[str, Any]:
    """Algorithm options: text keys, scalar values — they are sorted
    and hashed into the coalescing key, so nothing nested may pass."""
    if not isinstance(value, dict):
        raise _bad(what, "dict", value)
    for key, item in value.items():
        if not isinstance(key, str):
            raise _bad(f"{what} key", "str", key)
        if item is not None and \
                not isinstance(item, (str, int, float, bool)):
            raise _bad(f"{what}[{key!r}]",
                       "a scalar (str, int, float, bool or null)", item)
    return dict(value)


def _decode_link(value: Any, what: str) -> Tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2 or \
            not all(isinstance(name, str) for name in value):
        raise _bad(what, "a [name, name] pair", value)
    return (value[0], value[1])


def table(dtype: type) -> Kind:
    """A forwarding table: an ndarray of ``dtype`` on the object, raw
    array or nested lists on the wire.  A nested list (a JSON peer)
    must be rectangular, integer and in range; it is converted here so
    nothing downstream handles two representations."""
    info = np.iinfo(dtype)

    def decode(value: Any, what: str) -> np.ndarray:
        if isinstance(value, np.ndarray) and value.dtype == dtype \
                and value.ndim == 2:
            return value
        if isinstance(value, dict):
            # a dict announcing an encoding this side does not
            # implement must fail loudly, not decode to garbage
            encoding = value.get("encoding", value.get("__ndarray__"))
            raise ServiceBadRequest(
                f"{what}: unknown table encoding {encoding!r} (this "
                f"side speaks nested lists and raw binary frames)")
        if not isinstance(value, (list, np.ndarray)):
            raise _bad(what, "a table (nested lists or a binary array)",
                       value)
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged rows
            arr = None
        if arr is None or arr.ndim != 2 or \
                (arr.size and arr.dtype.kind not in "iu"):
            raise ServiceBadRequest(
                f"{what}: a table must be rectangular, 2-d and integer")
        if arr.size and (arr.min() < info.min or arr.max() > info.max):
            raise ServiceBadRequest(
                f"{what}: table values exceed {np.dtype(dtype).name}")
        return arr.astype(dtype)

    def encode(value: np.ndarray, tables: str) -> Any:
        return value if tables == "binary" else value.tolist()

    return Kind(decode, encode)


TEXT = _json_type("str", str)
INT = _json_type("int", int)
FLOAT = _json_type("float", int, float, convert=float)
BOOL = _json_type("bool", bool)
OBJECT = _json_type("dict", dict, convert=dict,
                    encode=lambda value, tables: dict(value))
TOPOLOGY = _json_type("topofile text (str)", str)
VERSION = Kind(_decode_version)
CONFIG = Kind(_decode_config, lambda value, tables: dict(value))
INTS = _list_of(INT, "int")
LINKS = _list_of(
    Kind(_decode_link, lambda pair, tables: list(pair)),
    "[name, name] pairs")


def wire_field(kind: Kind, default: Any = dataclasses.MISSING, *,
               default_factory: Any = dataclasses.MISSING) -> Any:
    """A dataclass field that declares its wire kind."""
    return dataclasses.field(default=default,
                             default_factory=default_factory,
                             metadata={"wire": kind})


def wire_message(cls: type) -> type:
    """``@dataclass`` plus the class's wire spec, read once at import:
    ``(name, kind, required)`` per field, required meaning the
    dataclass gives it no default."""
    cls = dataclasses.dataclass(cls)
    cls._spec = tuple(
        (f.name, f.metadata["wire"],
         f.default is dataclasses.MISSING
         and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls))
    return cls


class WireMessage:
    """``to_dict``/``from_dict`` of every request and response."""

    _spec: ClassVar[Tuple[Tuple[str, Kind, bool], ...]] = ()

    def to_dict(self, tables: str = "json") -> Dict[str, Any]:
        """Wire dict; ``tables`` picks the table field encoding.

        ``"json"`` (default) emits nested lists — JSON-serialisable as
        is, which is what ``repro ... --output file.json`` writes;
        ``"binary"`` emits the ndarrays themselves, which the frame
        layer ships as out-of-band buffers (what the RPC wire uses).
        Messages without tables read the same either way.
        """
        if tables not in ("json", "binary"):
            raise ValueError(
                f"tables must be 'json' or 'binary', got {tables!r}")
        return {name: kind.encode(getattr(self, name), tables)
                for name, kind, _required in self._spec}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> Any:
        """Rebuild the message from an outside dict, checking every
        field's type (:class:`ServiceBadRequest` on the first miss)."""
        if not isinstance(data, dict):
            raise _bad(cls.__name__, "dict", data)
        # first, so a peer from another schema hears about that and
        # not about whichever field its schema shaped differently
        _decode_version(data.get("schema_version", SCHEMA_VERSION),
                        f"{cls.__name__}.schema_version")
        kwargs = {}
        for name, kind, required in cls._spec:
            if name in data:
                kwargs[name] = kind.decode(data[name],
                                           f"{cls.__name__}.{name}")
            elif required:
                raise ServiceBadRequest(
                    f"{cls.__name__}.{name}: required field missing")
        return cls(**kwargs)
