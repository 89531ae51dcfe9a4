"""Shm-resident forwarding tables (the PR 10 tentpole).

A routed network's forwarding state is a dense ``(n_nodes, n_dests)``
``int32`` next-channel matrix plus an ``int8`` virtual-layer matrix.
At paper scale (Table 1 runs beyond 10k switches) that pair is the
dominant allocation of a route — ~500 MB all-to-all — and a layer
block returned by value crosses the worker pipe as a pickle before
the parent scatters it into yet another private allocation.

The table store removes every one of those copies.  The parent
preallocates **one** writable ``/dev/shm`` segment per route request
(:func:`create_table`), fan-out workers attach it and write their
destination shard's columns straight into column-sliced views
(:func:`write_columns` — counted as ``fabric.table_writes``), and the
parent assembles the :class:`~repro.routing.base.RoutingResult` over
zero-copy views of the very same mapping.

Ownership is explicit and single-owner: the process that created a
:class:`RouteTable` unlinks it — via ``RoutingResult.release()``, the
service LRU's eviction, :func:`repro.engine.fabric.shutdown` or
``atexit``, whichever comes first.  Consumers that need the data past
the segment's life call ``RoutingResult.materialize()`` (one private
copy, then release).  ``copy.deepcopy`` of a result detaches it from
the store entirely (the engine route cache relies on this), and
:meth:`RouteTable.pin`/:meth:`RouteTable.release` refcounting lets a
long-lived holder (the RPC service's network LRU) keep a table
resident across requests.

There is one fallback and the code observes its condition itself: when
the segment cannot be allocated (no POSIX shm on the platform,
``/dev/shm`` full), :func:`create_table` backs the same
:class:`RouteTable` with private memory and ``handle`` is ``None``
(``fabric.table_fallbacks``).  Callers run the same code either way;
workers without a handle return their block in the task result and the
parent merges it — bit-identical output, the store only changes where
bytes live.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine import fabric
from repro.obs import core as obs

__all__ = [
    "TableHandle",
    "TableTicket",
    "RouteTable",
    "create_table",
    "write_columns",
    "attach_ticket",
    "ticket_for",
    "live_tables",
]


def _count(name: str, value: int = 1) -> None:
    if obs.enabled():
        obs.count(name, value)


class TableHandle:
    """Picklable ticket for one shm table segment.

    Carries the segment name plus the fixed two-array layout
    (``next_channel`` int32, ``vl`` int8) so a worker can attach and
    write its columns without the parent shipping any table bytes.
    """

    __slots__ = ("segment", "n_nodes", "n_dests", "layout")

    def __init__(self, segment: str, n_nodes: int, n_dests: int,
                 layout) -> None:
        self.segment = segment
        self.n_nodes = n_nodes
        self.n_dests = n_dests
        self.layout = layout

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TableHandle({self.segment!r}, "
                f"{self.n_nodes}x{self.n_dests})")


class TableTicket:
    """One table array (``next_channel`` or ``vl``) as a context member.

    :func:`repro.engine.fabric.pack_ctx` swaps a live table's view for
    this ticket, so a metrics sweep or reachability audit over an
    shm-backed result ships **zero** table bytes — workers attach the
    existing segment read-only (``fabric.table_ctx_hits``).
    """

    __slots__ = ("handle", "key")

    def __init__(self, handle: TableHandle, key: str) -> None:
        self.handle = handle
        self.key = key

    def __getstate__(self):
        return (self.handle, self.key)

    def __setstate__(self, state):
        self.handle, self.key = state


class RouteTable:
    """Parent-side owner of one forwarding-table pair.

    ``next_channel`` and ``vl`` are writable ``(n_nodes, n_dests)``
    arrays; hand them to a :class:`~repro.routing.base.RoutingResult`
    and the result is zero-copy.  Normally they are views over a shm
    segment and ``handle`` is the picklable ticket workers attach;
    when no segment could be allocated they are private arrays and
    ``handle`` is ``None``.  Lifetime is refcounted: creation holds one
    reference (the route's), :meth:`pin` adds holders (the service
    LRU), :meth:`release` drops one and unlinks the segment at zero.
    """

    __slots__ = ("shm", "handle", "next_channel", "vl", "_refs")

    def __init__(self, next_channel: np.ndarray, vl: np.ndarray,
                 shm=None, handle: Optional[TableHandle] = None) -> None:
        self.shm = shm
        self.handle = handle
        self.next_channel = next_channel
        self.vl = vl
        self._refs = 1

    @property
    def closed(self) -> bool:
        return self._refs <= 0

    @property
    def nbytes(self) -> int:
        return self.next_channel.nbytes + self.vl.nbytes

    def pin(self) -> "RouteTable":
        """Add a holder (e.g. the service network LRU); returns self."""
        if self._refs <= 0:
            raise ValueError("cannot pin a released table")
        self._refs += 1
        return self

    def release(self) -> bool:
        """Drop one reference; unlink the segment at zero.

        Idempotent past zero (releasing an already-unlinked table is a
        silent no-op, never a double unlink).  Returns True when this
        call dropped the last reference.  Private arrays stay valid
        after release — only shm views die with their segment.
        """
        if self._refs <= 0:
            return False
        self._refs -= 1
        if self._refs > 0:
            return False
        if self.shm is not None:
            _tables.pop(self.handle.segment, None)
            fabric._unlink(self.shm)
            _count("fabric.table_releases")
        return True

    def __deepcopy__(self, memo) -> None:
        # a deep copy of a RoutingResult copies the table views into
        # private memory (plain ndarray deepcopy); the copy must NOT
        # share — or own — the segment, so the table reference itself
        # deep-copies to None.  The engine route cache depends on this:
        # stored entries are always store-detached.
        return None

    def __reduce__(self):
        raise TypeError(
            "RouteTable is process-local; pickle its .handle instead"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"refs={self._refs}"
        where = self.handle.segment if self.handle else "private"
        return f"RouteTable({where!r}, {state})"


#: parent-side registry of live owned tables: segment name -> table.
#: :func:`repro.engine.fabric.shutdown` (and atexit behind it) drains
#: it, so no table segment can outlive the process even when a caller
#: forgot its release().
_tables: Dict[str, RouteTable] = {}
#: monotonic per-process sequence folded into segment names so a new
#: table can never reuse a released table's name — forked pool workers
#: inherit the parent's ``_tables`` registry, and a name reuse would
#: let a stale inherited mapping swallow the new table's writes
_table_seq = 0


def create_table(n_nodes: int, n_dests: int,
                 tag: str = "") -> RouteTable:
    """One writable table for a route request, shm-resident if possible.

    ``next_channel`` starts at -1 and ``vl`` at 0, matching
    ``RoutingAlgorithm._empty_tables``.  When the segment cannot be
    allocated the table is backed by private arrays instead
    (``handle is None``, ``fabric.table_fallbacks``); callers do not
    branch on which one they got.
    """
    global _table_seq
    shape = (n_nodes, n_dests)
    specs = [
        ("next_channel", np.dtype(np.int32).str, shape),
        ("vl", np.dtype(np.int8).str, shape),
    ]
    _table_seq += 1
    base = f"{fabric.SEGMENT_PREFIX}tbl{_table_seq}" + \
        (f"_{tag}" if tag else "")
    try:
        shm, layout = fabric._alloc_raw(specs, base)
    except (OSError, ValueError, ImportError):
        _count("fabric.table_fallbacks")
        return RouteTable(np.full(shape, -1, dtype=np.int32),
                          np.zeros(shape, dtype=np.int8))
    handle = TableHandle(segment=shm.name, n_nodes=n_nodes,
                         n_dests=n_dests, layout=tuple(layout))
    arrays = fabric._map_layout(layout, shm, writable=True)
    table = RouteTable(arrays["next_channel"], arrays["vl"], shm, handle)
    # fresh /dev/shm pages are zero-filled, so only next_channel's -1
    # sentinel needs writing; vl's zeros are already in place
    table.next_channel.fill(-1)
    _tables[shm.name] = table
    fabric._register_cleanup()
    _count("fabric.table_creates")
    return table


def live_tables() -> Dict[str, Tuple[int, int]]:
    """Live owned tables as ``{segment: (n_nodes, n_dests)}``."""
    return {
        seg: (t.handle.n_nodes, t.handle.n_dests)
        for seg, t in _tables.items()
    }


def ticket_for(arr: np.ndarray) -> Optional[TableTicket]:
    """The zero-copy ticket for ``arr`` if it *is* a live table view.

    Identity-based: only the canonical ``next_channel``/``vl`` views of
    an owned, unreleased table match (a slice or copy of one does not),
    which is exactly what engine contexts carry.
    """
    for table in _tables.values():
        if arr is table.next_channel:
            return TableTicket(table.handle, "next_channel")
        if arr is table.vl:
            return TableTicket(table.handle, "vl")
    return None


# -- worker-side attach cache -------------------------------------------------

#: segment name -> (shm, writable arrays); capacity-bounded like the
#: scratch cache so a long campaign's workers do not pile up mappings
_attached_tables: "OrderedDict[str, Tuple[Any, Dict[str, np.ndarray]]]" \
    = OrderedDict()
_TABLE_ATTACH_CAPACITY = 4


def _attach(handle: TableHandle) -> Dict[str, np.ndarray]:
    owned = _tables.get(handle.segment)
    if owned is not None:
        # same-process call (workers=1 or the serial fallback): write
        # through the owner's views, no second mapping
        return {"next_channel": owned.next_channel, "vl": owned.vl}
    ent = _attached_tables.get(handle.segment)
    if ent is not None:
        _attached_tables.move_to_end(handle.segment)
        return ent[1]
    shm = fabric._open_segment(handle.segment)
    arrays = fabric._map_layout(handle.layout, shm, writable=True)
    while len(_attached_tables) >= _TABLE_ATTACH_CAPACITY:
        _seg, (old_shm, _old) = _attached_tables.popitem(last=False)
        fabric._close(old_shm)
    _attached_tables[handle.segment] = (shm, arrays)
    _count("fabric.table_attaches")
    return arrays


def write_columns(handle: Optional[TableHandle], cols: Sequence[int],
                  block: np.ndarray,
                  vl_fill: Optional[int] = None,
                  vl_block: Optional[np.ndarray] = None) -> bool:
    """Write a worker's column block straight into the shm table.

    ``cols`` are full-table column indices, ``block`` the
    ``(n_nodes, len(cols))`` next-channel values for them; ``vl_fill``
    (a layer's constant) or ``vl_block`` optionally updates the vl
    columns too.  Returns False — caller falls back to returning the
    block — when there is no handle or the segment cannot be attached
    (it vanished, or the platform lost shm mid-run).
    """
    if handle is None or len(cols) == 0:
        return handle is not None and len(cols) == 0
    try:
        arrays = _attach(handle)
    except (OSError, ValueError, FileNotFoundError):
        return False
    cols = list(cols)
    arrays["next_channel"][:, cols] = block
    if vl_fill is not None:
        arrays["vl"][:, cols] = np.int8(vl_fill)
    elif vl_block is not None:
        arrays["vl"][:, cols] = vl_block
    _count("fabric.table_writes")
    return True


def read_columns(handle: TableHandle, cols: Sequence[int],
                 key: str = "next_channel") -> np.ndarray:
    """A private, contiguous copy of the named columns (worker side).

    The incremental-repair workers stage their layer's *prior* columns
    from the parent-prefilled table this way instead of receiving them
    in the task pickle.
    """
    arrays = _attach(handle)
    return np.ascontiguousarray(arrays[key][:, list(cols)])


def attach_ticket(ticket: TableTicket) -> np.ndarray:
    """Resolve a :class:`TableTicket` to a read-only view (worker side)."""
    view = _attach(ticket.handle)[ticket.key].view()
    view.flags.writeable = False
    return view


def _shutdown_tables() -> None:
    """Drain both registries; called from :func:`fabric.shutdown`."""
    for seg in list(_tables):
        table = _tables.pop(seg, None)
        if table is not None:
            table._refs = 0
            fabric._unlink(table.shm)
    for seg in list(_attached_tables):
        shm, _arrays = _attached_tables.pop(seg)
        fabric._close(shm)


def table_stats() -> Dict[str, int]:
    """Diagnostics: live owned tables and their total mapped bytes."""
    return {
        "tables": len(_tables),
        "bytes": sum(t.nbytes for t in _tables.values()),
        "attached": len(_attached_tables),
    }
