"""Shm-resident forwarding tables.

A routed network's forwarding state is a dense ``(n_nodes, n_dests)``
``int32`` next-channel matrix plus an ``int8`` virtual-layer matrix.
At paper scale (Table 1 runs beyond 10k switches) that pair is the
dominant allocation of a route — ~500 MB all-to-all — and a layer
block returned by value crosses the worker pipe as a pickle before
the parent scatters it into yet another private allocation.

The table store removes every one of those copies when a route fans
out.  The parent preallocates **one** writable ``/dev/shm`` segment
for the request (:func:`create_table`), fan-out workers attach it and
write their destination shard's columns straight into column-sliced
views (:func:`write_columns` — counted as ``fabric.table_writes``),
and the parent assembles the :class:`~repro.routing.base.RoutingResult`
over zero-copy views of the very same mapping.  A route that runs on
one worker has nobody to share with: its table is private memory.

A table frees itself.  Its :class:`RouteTable` unlinks the segment's
name when the last reference to it goes, and the memory stays mapped
for as long as any array over it — a result's ``next_channel``, a
slice of it — is alive (see :class:`repro.engine.fabric._Mapping`).
``release()`` is an optional early free; ``fabric.shutdown()`` and
``atexit`` unlink whatever is left.  ``copy.deepcopy``
of a result copies its arrays and drops the table (the engine route
cache stores such copies).

When the segment of a fan-out table cannot be allocated (no POSIX shm
on the platform, ``/dev/shm`` full), :func:`create_table` falls back to
private memory too (``fabric.table_fallbacks``).  Workers without a
handle return their block in the task result and the parent merges it
— bit-identical output, the store only changes where bytes live.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine import fabric
from repro.engine.fabric import SegmentHandle, _count

__all__ = [
    "RouteTable",
    "create_table",
    "write_columns",
    "read_columns",
    "live_tables",
]


class RouteTable:
    """The single owner of one forwarding-table pair.

    ``next_channel`` and ``vl`` are writable ``(n_nodes, n_dests)``
    arrays; hand them to a :class:`~repro.routing.base.RoutingResult`
    and the result is zero-copy.  For a fan-out route they are views
    over a shm segment, ``handle`` is the picklable ticket workers
    attach and the segment is unlinked when this object goes;
    otherwise they are private arrays and ``handle`` is ``None``.
    """

    __slots__ = ("handle", "next_channel", "vl", "_released", "_unlink",
                 "__weakref__")

    def __init__(self, next_channel: np.ndarray, vl: np.ndarray,
                 handle: Optional[SegmentHandle] = None) -> None:
        self.handle = handle
        self.next_channel = next_channel
        self.vl = vl
        self._released = False
        self._unlink = None if handle is None else \
            weakref.finalize(self, fabric._owner_unlink, handle)

    @property
    def closed(self) -> bool:
        """Released — or the segment is no longer owned (a
        :func:`repro.engine.fabric.shutdown` drained it)."""
        return self._released or (
            self.handle is not None
            and self.handle.segment not in fabric._owned)

    def release(self) -> bool:
        """Unlink the segment now; True when this call did the release.

        Optional — dropping the table does the same — and idempotent
        (never a double unlink).  The arrays stay valid either way.
        """
        if self.closed:
            return False
        self._released = True
        if self._unlink is not None:
            self._unlink()
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
        where = self.handle.segment if self.handle else "private"
        return f"RouteTable({where!r}, closed={self.closed})"


def create_table(n_nodes: int, n_dests: int,
                 workers: int = 1) -> RouteTable:
    """One writable table for a route request on ``workers`` workers
    (the count :func:`~repro.engine.core.resolve_workers` resolved).

    ``next_channel`` starts at -1 and ``vl`` at 0, matching
    ``RoutingAlgorithm._empty_tables``.  A fan-out (``workers > 1``)
    gets a shm segment; one worker — or a segment that cannot be
    allocated (``fabric.table_fallbacks``) — gets private arrays and
    ``handle is None``.  Callers do not branch on which one they got.
    """
    shape = (n_nodes, n_dests)
    if workers > 1:
        try:
            mapping = fabric._create("tbl", [
                ("next_channel", np.dtype(np.int32).str, shape),
                ("vl", np.dtype(np.int8).str, shape),
            ])
        except (OSError, ValueError, ImportError):
            _count("fabric.table_fallbacks")
        else:
            table = RouteTable(mapping.views["next_channel"],
                               mapping.views["vl"], mapping.handle)
            # fresh /dev/shm pages are zero-filled, so only
            # next_channel's -1 sentinel needs writing
            table.next_channel.fill(-1)
            _count("fabric.table_creates")
            return table
    return RouteTable(np.full(shape, -1, dtype=np.int32),
                      np.zeros(shape, dtype=np.int8))


def live_tables() -> Dict[str, Tuple[int, int]]:
    """Live owned tables as ``{segment: (n_nodes, n_dests)}``."""
    # a snapshot: a table's finalizer may unlink one mid-iteration
    return {
        name: mapping.views["next_channel"].shape
        for name, mapping in list(fabric._owned.items())
        if mapping.kind == "tbl"
    }


def write_columns(handle: Optional[SegmentHandle], cols: Sequence[int],
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
        arrays = fabric._attach(handle).views
    except (OSError, ValueError):
        return False
    cols = list(cols)
    arrays["next_channel"][:, cols] = block
    if vl_fill is not None:
        arrays["vl"][:, cols] = np.int8(vl_fill)
    elif vl_block is not None:
        arrays["vl"][:, cols] = vl_block
    _count("fabric.table_writes")
    return True


def read_columns(handle: SegmentHandle, cols: Sequence[int],
                 key: str = "next_channel") -> np.ndarray:
    """A private, contiguous copy of the named columns (worker side).

    The incremental-repair workers stage their layer's *prior* columns
    from the parent-prefilled table this way instead of receiving them
    in the task pickle.
    """
    views = fabric._attach(handle).views
    return np.ascontiguousarray(views[key][:, list(cols)])
