"""Shm-resident forwarding tables: single-owner lifecycle, zero-copy
fan-out, private memory below fan-out, the no-shm fallback and the
crash/interrupt cleanup contract."""

import copy
import errno
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from shmcheck import shm_leaks as _shm_leaks
from digests import result_digest

from repro import api, obs
from repro.engine import fabric, tablestore
from repro.network.topologies import torus
from repro.core import nue
from repro.resilience.engine import _reachable_pairs
from repro.routing import make_algorithm
from repro.routing.dor import DORRouting

pytestmark = pytest.mark.usefixtures("clean_fabric")

#: the worker count a fan-out table is created for
FANOUT = 2


def _in_segment(result):
    """Whether the result's tables are views of a live table segment."""
    return fabric._member_for(result.next_channel) is not None


class TestLifecycle:
    def test_create_write_read_release(self):
        table = tablestore.create_table(8, 3, FANOUT)
        assert table is not None
        assert table.next_channel.shape == (8, 3)
        assert (table.next_channel == -1).all()
        assert (table.vl == 0).all()
        block = np.arange(16, dtype=np.int32).reshape(8, 2)
        assert tablestore.write_columns(table.handle, [0, 2], block,
                                        vl_fill=1)
        np.testing.assert_array_equal(table.next_channel[:, [0, 2]], block)
        assert (table.vl[:, [0, 2]] == 1).all()
        assert (table.next_channel[:, 1] == -1).all()
        np.testing.assert_array_equal(
            tablestore.read_columns(table.handle, [2]), block[:, [1]])
        assert table.handle.segment in tablestore.live_tables()
        assert table.release()
        assert table.closed
        assert not tablestore.live_tables()
        assert not _shm_leaks()

    def test_release_is_idempotent(self):
        table = tablestore.create_table(4, 2, FANOUT)
        assert table.release()
        assert not table.release()

    def test_table_has_one_owner(self):
        # no refcount: the first release unlinks, and a table whose
        # segment the fabric drained reads as closed without one
        table = tablestore.create_table(4, 2, FANOUT)
        assert not table.closed
        assert table.release()
        assert table.closed and not _shm_leaks()
        forgotten = tablestore.create_table(4, 2, FANOUT)
        fabric.shutdown()
        assert forgotten.closed
        assert not forgotten.release()  # nothing left to unlink

    def test_shutdown_reaps_forgotten_tables(self):
        forgotten = tablestore.create_table(6, 4, FANOUT)
        assert tablestore.live_tables()
        fabric.shutdown()
        assert not tablestore.live_tables()
        assert not _shm_leaks()
        assert forgotten.closed

    def test_segment_names_are_never_reused(self):
        a = tablestore.create_table(4, 2, FANOUT)
        name = a.handle.segment
        a.release()
        b = tablestore.create_table(4, 2, FANOUT)
        assert b.handle.segment != name
        b.release()


class TestOwnershipSemantics:
    def test_shared_table_refuses_pickle(self):
        table = tablestore.create_table(4, 2, FANOUT)
        try:
            with pytest.raises(TypeError, match="process-local"):
                pickle.dumps(table)
            # the handle is the picklable ticket
            clone = pickle.loads(pickle.dumps(table.handle))
            assert clone == table.handle
        finally:
            table.release()

    def test_deepcopy_of_result_detaches_from_store(self):
        net = torus([3, 3], 1)
        result = _route_nue(net, FANOUT)
        if not _in_segment(result):
            result.release()
            pytest.skip("no shm on this platform")
        clone = copy.deepcopy(result)
        assert not _in_segment(clone)
        np.testing.assert_array_equal(clone.next_channel,
                                      result.next_channel)
        result.release()
        # the copy's arrays survive the segment unlink
        assert int(clone.next_channel[0, 0]) == clone.next_channel[0, 0]

    def test_ticket_for_matches_only_live_views(self):
        table = tablestore.create_table(4, 2, FANOUT)
        try:
            ticket = fabric._member_for(table.next_channel)
            assert ticket == fabric.SegmentMember(table.handle,
                                                  "next_channel")
            assert fabric._member_for(table.vl).key == "vl"
            assert fabric._member_for(table.next_channel.copy()) is None
        finally:
            table.release()
        assert fabric._member_for(table.next_channel) is None


def _route_nue(net, workers):
    return make_algorithm("nue", max_vls=2, workers=workers).route(
        net, seed=3)


def _route_dor(net, workers):
    return DORRouting(workers=workers).route(net, seed=3)


def _reroute(net, workers):
    prior = _route_nue(net, workers)
    link = next(li for li, (u, v) in enumerate(net.links())
                if net.is_switch(u) and net.is_switch(v))
    repaired, stats = api.incremental_reroute(
        net, prior, [2 * link, 2 * link + 1], max_vls=2, seed=3,
        workers=workers)
    assert stats["dests_recomputed"] > 0
    prior.release()
    return repaired


def _transition(net, workers):
    outcome = api.algorithm_transition(
        net, from_algorithm="updn", to_algorithm="nue", to_max_vls=2,
        from_seed=1, to_seed=3, workers=workers)
    mixed = api.apply_plan(outcome.old, outcome.new, outcome.plan)
    outcome.old.release()
    outcome.new.release()
    return mixed


def _counted(scenario, net, workers):
    """``scenario(net, workers)`` and the obs counters it bumped."""
    obs.enable(obs.MemorySink(keep_events=False))
    try:
        return scenario(net, workers), dict(obs.counters())
    finally:
        obs.disable()
        obs.reset()


class TestFallbacks:
    """The one fallback: no segment can be allocated, so the table is
    private memory and workers return their blocks by value.  Nothing
    selects it — the tests make allocation fail the way a full
    ``/dev/shm`` does."""

    @staticmethod
    def _fill_dev_shm(monkeypatch):
        def refuse(specs, seg_base):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(fabric, "_alloc_raw", refuse)

    def test_create_table_falls_back_to_private_memory(self, monkeypatch):
        self._fill_dev_shm(monkeypatch)
        table = tablestore.create_table(4, 2, FANOUT)
        assert table.handle is None
        assert (table.next_channel == -1).all()
        assert table.next_channel.dtype == np.int32
        assert (table.vl == 0).all() and table.vl.dtype == np.int8
        assert not tablestore.live_tables()
        assert table.release() and not table.release()
        # private arrays outlive the release
        assert table.next_channel.shape == (4, 2)

    @pytest.mark.parametrize("workers", [1, FANOUT])
    @pytest.mark.parametrize("scenario", [
        _route_nue, _route_dor, _reroute, _transition])
    def test_no_shm_tables_are_bit_identical(self, scenario, workers,
                                             monkeypatch):
        """A full ``/dev/shm`` changes where a fan-out's tables live,
        never their bits; one worker never asks for a segment, and
        neither does DOR, which never fans out."""
        net = torus([3, 3, 3], 1)
        fans_out = workers > 1 and scenario is not _route_dor
        with_shm, counts = _counted(scenario, net, workers)
        if fans_out:
            assert counts.get("fabric.table_creates", 0) >= 1 \
                or not os.path.isdir("/dev/shm")
        else:
            assert counts.get("fabric.table_creates", 0) == 0
        expected = result_digest(with_shm)
        with_shm.release()
        fabric.shutdown()

        self._fill_dev_shm(monkeypatch)
        without, counts = _counted(scenario, net, workers)
        assert not _in_segment(without)
        assert result_digest(without) == expected
        if fans_out:
            assert counts.get("fabric.table_fallbacks", 0) >= 1
        else:
            assert counts.get("fabric.table_fallbacks", 0) == 0
        assert counts.get("fabric.table_creates", 0) == 0
        without.release()  # a no-op the consumers may call blindly
        assert result_digest(without) == expected
        assert not _shm_leaks()

    def test_write_columns_without_handle_falls_back(self):
        block = np.zeros((4, 1), dtype=np.int32)
        assert not tablestore.write_columns(None, [0], block)

    def test_write_columns_zero_destination_shard(self):
        table = tablestore.create_table(4, 2, FANOUT)
        try:
            empty = np.zeros((4, 0), dtype=np.int32)
            # a zero-column write is complete, not a fallback
            assert tablestore.write_columns(table.handle, [], empty)
            assert (table.next_channel == -1).all()
        finally:
            table.release()

    def test_write_columns_vanished_segment_falls_back(self):
        table = tablestore.create_table(4, 2, FANOUT)
        handle = table.handle
        table.release()
        block = np.zeros((4, 1), dtype=np.int32)
        assert not tablestore.write_columns(handle, [0], block)


class TestZeroCopyFanOut:
    def test_route_counters_split(self):
        net = torus([4, 4], 2)
        obs.enable(obs.MemorySink(keep_events=False))
        try:
            result = _route_nue(net, 2)
            backed = _in_segment(result)
            result.release()
            counts = dict(obs.counters())
        finally:
            obs.disable()
            obs.reset()
        if not backed:
            pytest.skip("no shm on this platform")
        # tables land via write_columns, not through the fallback
        assert counts.get("fabric.table_creates") == 1
        assert counts.get("fabric.table_writes", 0) >= 2
        assert counts.get("fabric.table_fallbacks", 0) == 0
        assert counts.get("fabric.table_releases") == 1

    def test_consumer_ctx_reattaches_table(self):
        from repro.metrics import edge_forwarding_indices

        # big enough that next_channel crosses SCRATCH_MIN_BYTES —
        # below that, pack_ctx ships small arrays inline by design
        net = torus([6, 6], 8)
        result = _route_nue(net, 2)
        if not _in_segment(result):
            result.release()
            pytest.skip("no shm on this platform")
        obs.enable(obs.MemorySink(keep_events=False))
        try:
            gamma = edge_forwarding_indices(result, workers=2)
            counts = dict(obs.counters())
        finally:
            obs.disable()
            obs.reset()
        serial = edge_forwarding_indices(result, workers=1)
        np.testing.assert_array_equal(gamma, serial)
        result.release()
        assert counts.get("fabric.table_ctx_hits", 0) >= 1
        assert counts.get("fabric.scratch_exports", 0) == 0


    def test_fanout_route_and_audit_stay_zero_copy(self):
        """The table-store half of the scale guard, on a router that
        still fans out: Nue k=2 at ``workers=2`` lands every layer's
        columns in one table segment, and the reachability audit
        re-attaches that segment instead of copying the table."""
        workers = 2
        net = torus([6, 6], 8)  # next_channel above SCRATCH_MIN_BYTES
        obs.enable(obs.MemorySink(keep_events=False))
        try:
            result = _route_nue(net, workers)
            backed = _in_segment(result)
            reachable, total = _reachable_pairs(result, workers=workers)
            digest = result_digest(result)
            result.release()
            counts = dict(obs.counters())
        finally:
            obs.disable()
            obs.reset()
        if not backed:
            pytest.skip("no shm on this platform")
        assert counts.get("fabric.table_creates", 0) == 1
        assert counts.get("fabric.table_writes", 0) >= workers
        assert counts.get("fabric.table_fallbacks", 0) == 0
        assert counts.get("fabric.table_ctx_hits", 0) >= 1
        assert counts.get("fabric.net_pickle_fallbacks", 0) == 0
        assert reachable == total > 0
        serial = _route_nue(net, 1)
        assert result_digest(serial) == digest


def _worker_dies(ctx, shard):
    """Module-level, so a pool worker can run it in place of a shard."""
    raise RuntimeError("worker died mid-write")


class TestCrashCleanup:
    def test_parent_interrupt_mid_route_unlinks_segment(self, monkeypatch):
        net = torus([3, 3], 1)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(nue, "run_layer_tasks", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _route_nue(net, 2)
        assert not tablestore.live_tables()
        assert not [s for s in _shm_leaks() if "tbl" in s]

    def test_worker_error_mid_route_unlinks_segment(self, monkeypatch):
        net = torus([3, 3], 1)
        monkeypatch.setattr(nue, "_route_layer", _worker_dies)
        with pytest.raises(RuntimeError, match="mid-write"):
            _route_nue(net, FANOUT)
        assert not tablestore.live_tables()
        assert not [s for s in _shm_leaks() if "tbl" in s]


def _new_segments(before):
    return sorted(set(_shm_leaks()) - set(before))


class TestOwnership:
    """Nobody releases anything: a table is private below fan-out and a
    fan-out table's segment goes with its last reference."""

    def test_serial_routes_create_no_segment(self):
        net = torus([3, 3], 1)
        before = _shm_leaks()
        obs.enable(obs.MemorySink(keep_events=False))
        try:
            for seed in range(200):
                make_algorithm("nue", max_vls=2, workers=1).route(
                    net, seed=seed)
            counts = dict(obs.counters())
        finally:
            obs.disable()
            obs.reset()
        assert counts.get("fabric.table_creates", 0) == 0
        assert _new_segments(before) == []

    def test_dropped_fanout_routes_unlink_their_segments(self):
        net = torus([3, 3], 1)
        obs.enable(obs.MemorySink(keep_events=False))
        try:
            for seed in range(20):
                make_algorithm("nue", max_vls=2, workers=2).route(
                    net, seed=seed)
            counts = dict(obs.counters())
        finally:
            obs.disable()
            obs.reset()
        gc.collect()
        assert counts.get("fabric.table_creates", 0) == 20 \
            or not os.path.isdir("/dev/shm")
        assert tablestore.live_tables() == {}
        assert not [s for s in _shm_leaks() if "tbl" in s]

    def test_campaign_keeps_only_the_final_table(self):
        from repro.resilience import FaultEvent, FaultSchedule, run_campaign

        net = torus((3, 3, 3), terminals_per_switch=1)
        s2s = [(u, v) for (u, v) in net.links()
               if net.is_switch(u) and net.is_switch(v)]
        names = net.node_names
        schedule = FaultSchedule(events=[
            FaultEvent(time=1.0 + i,
                       links=((names[s2s[li][0]], names[s2s[li][1]]),))
            for i, li in enumerate([0, 5, 9])
        ])
        res = run_campaign(net, schedule, max_vls=2, seed=11, workers=2)
        assert all(r.ok for r in res.reports)
        gc.collect()
        live = tablestore.live_tables()
        assert len(live) <= 1
        if live:
            assert _in_segment(res.routing)
        del res
        gc.collect()
        assert tablestore.live_tables() == {}


_READ_AFTER_SHUTDOWN = r"""
import gc, hashlib, sys
from repro import api
from repro.network.topologies import torus
from repro.routing import make_algorithm

def digests(*arrays):
    return [hashlib.blake2b(a.tobytes()).hexdigest() for a in arrays]

result = make_algorithm("nue", max_vls=2, workers=int(sys.argv[1])).route(
    torus([3, 3], 1), seed=3)
nc = result.next_channel
part = nc[1:5, ::2]
before = digests(nc, part)
del result
gc.collect()
api.shutdown_fabric()
print(before == digests(nc, part), int(part.sum()) == int(nc[1:5, ::2].sum()))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_tables_outlive_their_result_and_the_fabric(workers):
    """Arrays of a dropped result — and slices of them — stay readable
    after ``api.shutdown_fabric()`` (a dangling view used to SIGSEGV)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _READ_AFTER_SHUTDOWN,
         str(workers)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
    assert "Exception ignored" not in proc.stderr
