"""The fabric's one segment lifecycle under random interleavings.

A hypothesis state machine drives the three ownership policies over
the shared mechanism — refcounted network exports, per-call scratch
segments, single-owner route tables — through create / attach /
release / double-release / ``shutdown()`` in any order, against a
model of what must be live.  After every step ``/dev/shm``, the owner
map, ``active_exports()``, ``live_tables()`` and every
``RouteTable.closed`` agree with the model, and no segment is ever
unlinked twice.
"""

from multiprocessing import shared_memory

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from shmcheck import shm_leaks

from repro.engine import fabric, tablestore
from repro.engine.fingerprint import network_fingerprint
from repro.network.topologies import ring

NETS = [ring(n, 1) for n in (4, 5, 6)]
BIG = np.zeros(fabric.SCRATCH_MIN_BYTES // 8 + 8)
#: the worker count a segment-backed table is created for
FANOUT = 2


class SegmentLifecycle(RuleBasedStateMachine):
    tables = Bundle("tables")
    packed = Bundle("packed")

    def __init__(self):
        super().__init__()
        fabric.shutdown()
        self.refs = {}       # fingerprint -> refcount
        self.auto = set()    # fingerprints pack_ctx holds a reference to
        self.handles = {}    # fingerprint -> ShmNetworkHandle (live ones)
        self.live = {}       # id(table) -> table, for tables not released
        self.all_tables = []
        self.scratch = set()  # live scratch segment names
        self.unlinked = []
        real_unlink = shared_memory.SharedMemory.unlink

        def counting_unlink(shm):
            self.unlinked.append(shm.name)
            real_unlink(shm)

        self._real_unlink = real_unlink
        shared_memory.SharedMemory.unlink = counting_unlink

    def teardown(self):
        fabric.shutdown()
        shared_memory.SharedMemory.unlink = self._real_unlink
        assert shm_leaks() == []

    # -- networks: refcounted per fingerprint ---------------------------------

    @rule(i=st.integers(0, len(NETS) - 1))
    def export(self, i):
        handle = fabric.export_network(NETS[i])
        self.refs[handle.fingerprint] = self.refs.get(handle.fingerprint, 0) + 1
        self.handles[handle.fingerprint] = handle
        # same process: the attach rides the owner's mapping
        assert fabric.attach_network(handle).n_nodes == NETS[i].n_nodes

    @rule(i=st.integers(0, len(NETS) - 1))
    def auto_export(self, i):
        """pack_ctx's own export: one reference per fingerprint (three
        fabrics never fill its LRU), dropped by shutdown only."""
        packed, fallbacks = fabric.pack_ctx(NETS[i])
        assert fallbacks == 0
        fp = packed.fingerprint
        if fp not in self.auto:
            self.auto.add(fp)
            self.refs[fp] = self.refs.get(fp, 0) + 1
            self.handles[fp] = packed
        assert packed is self.handles[fp]
        fabric.release_ctx(packed)  # must not touch an export

    @rule(i=st.integers(0, len(NETS) - 1))
    def release_export(self, i):
        fp = network_fingerprint(NETS[i])
        if self.refs.get(fp, 0) == (fp in self.auto):
            # nothing of the caller's to drop (pack_ctx's reference is
            # not the caller's); an unknown fingerprint is a no-op
            assert fp in self.auto or not fabric.release_network(fp)
            return
        assert fabric.release_network(fp)
        self.refs[fp] -= 1
        if self.refs[fp] == 0:
            del self.refs[fp], self.handles[fp]

    # -- scratch: per call, released by release_ctx ---------------------------

    @rule(target=packed)
    def pack(self):
        ctx, fallbacks = fabric.pack_ctx((BIG, "tag"))
        assert fallbacks == 0
        assert isinstance(ctx[0], fabric.SegmentMember)
        self.scratch.add(ctx[0].handle.segment)
        np.testing.assert_array_equal(fabric.unpack_ctx(ctx)[0], BIG)
        return ctx

    @rule(ctx=packed)
    def release_packed(self, ctx):  # not consumed: double release is legal
        fabric.release_ctx(ctx)
        self.scratch.discard(ctx[0].handle.segment)

    # -- tables: single owner --------------------------------------------------

    @rule(target=tables)
    def create_table(self):
        table = tablestore.create_table(4, 2, FANOUT)
        assert table.handle is not None
        self.live[id(table)] = table
        self.all_tables.append(table)
        return table

    @rule(table=tables)
    def write_table(self, table):
        block = np.full((4, 1), 7, dtype=np.int32)
        landed = tablestore.write_columns(table.handle, [1], block)
        assert landed == (id(table) in self.live)

    @rule(table=tables)
    def pack_table_view(self, table):
        member = fabric._member_for(table.next_channel)
        if id(table) in self.live:
            assert member == fabric.SegmentMember(table.handle,
                                                  "next_channel")
            fabric.release_ctx(member)  # must not touch a table
        else:
            assert member is None

    @rule(table=tables)
    def release_table(self, table):  # not consumed: double release is legal
        assert table.release() == (id(table) in self.live)
        self.live.pop(id(table), None)

    # -- the sweep --------------------------------------------------------------

    @rule()
    def shutdown(self):
        fabric.shutdown()
        self.refs.clear()
        self.auto.clear()
        self.handles.clear()
        self.live.clear()
        self.scratch.clear()

    @invariant()
    def everything_agrees(self):
        expected = {h.handle.segment for h in self.handles.values()}
        expected |= {t.handle.segment for t in self.live.values()}
        expected |= self.scratch
        assert set(fabric._owned) == expected
        assert set(shm_leaks()) == expected
        assert fabric.active_exports() == self.refs
        assert set(tablestore.live_tables()) == {
            t.handle.segment for t in self.live.values()}
        for table in self.all_tables:
            assert table.closed == (id(table) not in self.live)
        assert len(self.unlinked) == len(set(self.unlinked))


SegmentLifecycle.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestSegmentLifecycle = SegmentLifecycle.TestCase
