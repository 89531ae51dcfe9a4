"""Shared-memory fabric: export/attach round-trip, refcounted
segment lifecycle (including worker crashes), persistent pool reuse,
and the destination-sharding helper."""

import os
import pickle
import warnings

import numpy as np
import pytest
from shmcheck import shm_leaks as _shm_leaks

from repro import engine, obs
from repro.engine import fabric
from repro.engine.fingerprint import network_fingerprint
from repro.network.topologies import ring, torus

pytestmark = pytest.mark.usefixtures("clean_fabric")


def _crash_if_worker(ctx, task):
    """Module-level crash probe: dies only inside a pool worker.

    ``ctx`` carries the test process pid, so the serial fallback (which
    runs in the parent) returns normally instead of killing pytest.
    """
    if os.getpid() != ctx:
        os._exit(13)
    return task * 2


def _double(ctx, task):
    return task * 2


class TestExportAttachRoundTrip:
    def test_rehydrated_network_matches_source(self, torus443):
        handle = fabric.export_network(torus443)
        try:
            net = fabric.attach_network(handle)
            assert net.name == torus443.name
            assert net.n_nodes == torus443.n_nodes
            assert net.n_channels == torus443.n_channels
            assert net.node_names == torus443.node_names
            assert net.meta == torus443.meta
            assert net.channel_src == torus443.channel_src
            assert net.channel_dst == torus443.channel_dst
            assert net.channel_reverse == torus443.channel_reverse
            assert net.out_channels == torus443.out_channels
            assert net.in_channels == torus443.in_channels
            assert [net.is_switch(v) for v in range(net.n_nodes)] == \
                   [torus443.is_switch(v) for v in range(net.n_nodes)]
            assert network_fingerprint(net) == handle.fingerprint
        finally:
            fabric.release_network(handle)

    def test_rehydrated_buffers_are_read_only(self, torus443):
        handle = fabric.export_network(torus443)
        try:
            net = fabric.attach_network(handle)
            with pytest.raises(ValueError):
                net.csr.channel_src[0] = 99
            with pytest.raises(ValueError):
                net.csr.out_idx[0] = 99
        finally:
            fabric.release_network(handle)

    def test_handle_pickles_without_network_structure(self, torus443):
        """The zero-copy point: the ticket crossing the pipe is tiny
        and does not grow with the node/channel lists."""
        handle = fabric.export_network(torus443)
        try:
            blob = pickle.dumps(handle)
            assert len(blob) < 4096
            clone = pickle.loads(blob)
            assert clone.fingerprint == handle.fingerprint
            assert clone.handle == handle.handle
        finally:
            fabric.release_network(handle)


class TestSegmentLifecycle:
    def test_same_fingerprint_exports_share_one_segment(self):
        a, b = ring(6, 2), ring(6, 2)  # equal structure, distinct objects
        ha = fabric.export_network(a)
        hb = fabric.export_network(b)
        assert ha is hb
        assert fabric.active_exports() == {ha.fingerprint: 2}
        assert len(_shm_leaks()) <= 1  # one segment, not two

        assert fabric.release_network(ha)
        assert fabric.active_exports() == {ha.fingerprint: 1}
        assert fabric.release_network(hb.fingerprint)
        assert fabric.active_exports() == {}
        assert _shm_leaks() == []

    def test_release_after_unlink_is_silent_noop(self, ring6):
        handle = fabric.export_network(ring6)
        assert fabric.release_network(handle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert fabric.release_network(handle) is False
            assert fabric.release_network("no-such-fingerprint") is False

    def test_shutdown_unlinks_everything_and_is_idempotent(self, ring6):
        fabric.export_network(ring6)
        engine.run_layer_tasks(_double, None, [1, 2, 3], workers=2)
        assert fabric.pool_stats()["alive"] == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fabric.shutdown()
            fabric.shutdown()  # double shutdown: no double unlink
        assert fabric.active_exports() == {}
        assert fabric.pool_stats()["alive"] == 0
        assert _shm_leaks() == []

    def test_no_leak_after_worker_crash(self, ring6):
        """A worker dying mid-task must not leak the segment: only the
        exporting process unlinks, on shutdown at the latest."""
        fabric.export_network(ring6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = engine.run_layer_tasks(
                _crash_if_worker, os.getpid(), [1, 2, 3], workers=2)
        assert out == [2, 4, 6]  # serial fallback completed the work
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        # the export survived the crash, and shutdown still cleans up
        assert len(fabric.active_exports()) == 1
        fabric.shutdown()
        assert _shm_leaks() == []

    def test_pool_respawns_after_crash(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            engine.run_layer_tasks(
                _crash_if_worker, os.getpid(), [1, 2], workers=2)
        # next pooled call spawns a fresh pool and works normally
        out = engine.run_layer_tasks(_double, None, [5, 6, 7], workers=2)
        assert out == [10, 12, 14]
        assert fabric.pool_stats()["alive"] == 1


class TestAttachLRU:
    def test_attach_cache_is_a_true_lru(self, monkeypatch):
        """One process in both roles: it exports as the parent, then
        attaches the way a pool worker does — with the owner map
        hidden, so the same-process short-circuit stays out of the
        way.  Regression: eviction used to be ``dict.popitem()`` (the
        *newest* mapping went, the first seven stayed for the life of
        the worker) and a hit was never refreshed."""
        cap = fabric._ATTACH_CAPACITY
        handles = [fabric.export_network(ring(n, 1))
                   for n in range(4, 4 + cap + 2)]
        obs.enable(obs.MemorySink(keep_events=False))

        def attaches():
            return obs.counters().get("fabric.segment_attaches", 0)

        with monkeypatch.context() as patch:
            patch.setattr(fabric, "_owned", {}, raising=False)
            nets = [fabric.attach_network(h) for h in handles]
            # hits refresh their entry ...
            assert fabric.attach_network(handles[-1]) is nets[-1]
            assert fabric.attach_network(handles[2]) is nets[2]
            # ... the least recently used mappings were the ones closed ...
            assert fabric.attach_network(handles[0]) is not nets[0]
            # ... and that miss evicted handles[3], not the refreshed [2]
            assert fabric.attach_network(handles[2]) is nets[2]
            assert attaches() == cap + 3  # hits mapped nothing new
            assert list(fabric._attached) == [
                h.handle.segment
                for h in handles[4:-1] + [handles[-1], handles[0], handles[2]]]


    def test_task_end_detaches_request_segments(self, monkeypatch):
        """A task's table and scratch mappings go when it returns; the
        network stays for the next request of the same fabric."""
        from repro.engine import tablestore

        net = ring(5, 1)
        table = tablestore.create_table(300, 300, 2)  # a member-size table
        big = np.zeros(fabric.SCRATCH_MIN_BYTES // 8, dtype=np.float64)
        packed, _ = fabric.pack_ctx((net, table.next_channel, big))
        try:
            with monkeypatch.context() as patch:
                patch.setattr(fabric, "_owned", {}, raising=False)
                patch.setattr(fabric, "_attached", type(fabric._attached)())
                result, _events = fabric._run_fabric_task(
                    _attached_kinds, packed, None, False)
                assert sorted(result) == ["net", "scr", "tbl"]
                assert [m.net is not None
                        for m in fabric._attached.values()] == [True]
        finally:
            fabric.release_ctx(packed)
            table.release()


def _attached_kinds(ctx, task):
    """What the running task has mapped, by segment kind."""
    return [name[len(fabric.SEGMENT_PREFIX):][:3]
            for name in fabric._attached]


def _status_mb(pid):
    """``VmRSS`` and ``RssShmem`` of ``pid`` in MiB."""
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "RssShmem"):
                out[key] = int(value.split()[0]) / 1024
    return out


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/status"),
                    reason="needs /proc/<pid>/status")
def test_pool_workers_keep_no_tables_across_requests():
    """Twenty ``workers=2`` Nue routes of distinct fabrics: a worker's
    shared memory holds at most its network LRU — no table of a past
    request — and its RSS is flat once that LRU is full."""
    from repro.network.csr import EXPORTED_BUFFERS
    from repro.routing import make_algorithm

    samples = []
    for i in range(20):
        net = torus([3, 3], 40)
        net.name = f"rss-{i}"  # a distinct fingerprint: a new export
        make_algorithm("nue", max_vls=2, workers=2).route(net, seed=1)
        samples.append({pid: _status_mb(pid)
                        for pid in fabric._pool._processes})
    net_mb = sum(getattr(net.csr, key).nbytes
                 for key in EXPORTED_BUFFERS) / 2 ** 20
    # a worker's half of one table: what each kept table would add
    half_table_mb = net.n_nodes * len(net.terminals) * 5 / 2 ** 21
    cap = fabric._ATTACH_CAPACITY
    for pid, last in samples[-1].items():
        history = [s[pid] for s in samples]
        # past the first request only more networks may be mapped
        grown = last["RssShmem"] - samples[0][pid]["RssShmem"]
        assert grown <= (cap - 1) * net_mb + half_table_mb / 2, (
            net_mb, half_table_mb, history)
        assert last["VmRSS"] - samples[cap + 1][pid]["VmRSS"] < 4, history


class TestPersistentPool:
    def test_pool_survives_across_calls(self):
        spawns_before = fabric.pool_stats()["spawns"]
        for _ in range(3):
            engine.run_layer_tasks(_double, None, [1, 2, 3], workers=2)
        assert fabric.pool_stats()["spawns"] == spawns_before + 1

    def test_pool_grows_for_larger_requests(self):
        engine.run_layer_tasks(_double, None, [1, 2], workers=2)
        engine.run_layer_tasks(_double, None, list(range(6)), workers=3)
        assert fabric.pool_stats()["workers"] == 3
        # shrinking request reuses the larger pool
        engine.run_layer_tasks(_double, None, [1, 2], workers=2)
        assert fabric.pool_stats()["workers"] == 3

    def test_reuse_and_spawn_counters(self):
        obs.enable(obs.MemorySink(keep_events=False))
        engine.run_layer_tasks(_double, None, [1, 2, 3], workers=2)
        engine.run_layer_tasks(_double, None, [1, 2, 3], workers=2)
        counts = obs.counters()
        assert counts.get("fabric.pool_spawns") == 1
        assert counts.get("fabric.pool_reuses") == 1

    def test_one_spawn_across_varying_task_counts(self):
        """The pool is sized by the worker *budget*, not per-call task
        counts: stages with 2, 3 then 6 tasks under ``workers=4`` must
        share a single 4-worker pool (regression: transitions used to
        respawn the pool between their old- and new-routing stages)."""
        obs.enable(obs.MemorySink(keep_events=False))
        engine.run_layer_tasks(_double, None, [1, 2], workers=4)
        engine.run_layer_tasks(_double, None, [1, 2, 3], workers=4)
        out = engine.run_layer_tasks(_double, None, list(range(6)),
                                     workers=4)
        assert out == [0, 2, 4, 6, 8, 10]
        counts = obs.counters()
        assert counts.get("fabric.pool_spawns") == 1
        assert counts.get("fabric.pool_reuses") == 2
        assert fabric.pool_stats()["workers"] == 4

    def test_worker_budget_vs_resolve_workers(self):
        assert engine.worker_budget(4) == 4
        assert engine.worker_budget(None) == engine.get_default_workers()
        assert engine.worker_budget(0) == (os.cpu_count() or 1)
        # resolve_workers clamps to the task count; the budget does not
        assert engine.resolve_workers(4, 2) == 2
        assert engine.resolve_workers(4, 9) == 4
        with pytest.raises(ValueError, match="workers"):
            engine.worker_budget(-1)


class TestContextPacking:
    def test_network_in_tuple_ctx_travels_via_shm(self, torus443):
        obs.enable(obs.MemorySink(keep_events=False))
        packed, fallbacks = fabric.pack_ctx((torus443, 42))
        assert fallbacks == 0
        assert isinstance(packed[0], fabric.ShmNetworkHandle)
        assert packed[1] == 42
        unpacked = fabric.unpack_ctx(packed)
        assert unpacked[0].node_names == torus443.node_names
        assert unpacked[1] == 42
        assert obs.counters().get("fabric.shm_exports") == 1

    def test_second_pack_reuses_export(self, torus443):
        obs.enable(obs.MemorySink(keep_events=False))
        fabric.pack_ctx(torus443)
        fabric.pack_ctx(torus443)
        counts = obs.counters()
        assert counts.get("fabric.shm_exports") == 1
        assert counts.get("fabric.shm_export_reuses") == 1

    def test_non_network_ctx_passes_through(self):
        packed, fallbacks = fabric.pack_ctx({"plain": [1, 2]})
        assert packed == {"plain": [1, 2]}
        assert fallbacks == 0
        assert fabric.unpack_ctx(packed) == {"plain": [1, 2]}


class TestShardDestinations:
    def test_concatenation_preserves_order(self):
        items = list(range(23))
        shards = fabric.shard_destinations(items, workers=4)
        assert [x for s in shards for x in s] == items
        assert len(shards) == 8  # 2 x workers oversubscription
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_single_worker_is_one_shard(self):
        items = list(range(9))
        assert fabric.shard_destinations(items, workers=1) == [items]

    def test_fewer_items_than_shards(self):
        shards = fabric.shard_destinations([7, 8], workers=4)
        assert shards == [[7], [8]]

    def test_empty(self):
        assert fabric.shard_destinations([], workers=4) == []


class TestCampaignFabricReuse:
    """The ISSUE acceptance bar: a multi-event campaign reuses one pool
    and one shm export per surviving fingerprint — after warmup no new
    pool is spawned and no network is ever pickled."""

    def test_ten_event_campaign_reuses_pool_and_exports(self):
        from repro.resilience import FaultEvent, FaultSchedule, run_campaign

        net = torus((4, 4, 3), terminals_per_switch=1)
        s2s = [
            (u, v) for (u, v) in net.links()
            if net.is_switch(u) and net.is_switch(v)
        ]
        names = net.node_names
        events = [
            FaultEvent(time=1.0 + i,
                       links=((names[s2s[li][0]], names[s2s[li][1]]),))
            for i, li in enumerate(range(0, 40, 4))
        ]
        assert len(events) == 10
        schedule = FaultSchedule(events=events)

        # warmup: first parallel route spawns the pool
        obs.enable(obs.MemorySink(keep_events=False))
        engine.run_layer_tasks(_double, None, [1, 2], workers=2)
        warm = dict(obs.counters())
        assert warm.get("fabric.pool_spawns") == 1

        res = run_campaign(net, schedule, max_vls=3, seed=11, workers=2)
        assert all(r.ok for r in res.reports)
        counts = obs.counters()
        spawned = counts.get("fabric.pool_spawns", 0) - \
            warm.get("fabric.pool_spawns", 0)
        assert spawned == 0, "campaign must reuse the warm pool"
        assert counts.get("fabric.net_pickle_fallbacks", 0) == 0
        assert counts.get("fabric.pool_reuses", 0) > 0
        # every degraded fingerprint is exported once, then reused
        assert counts.get("fabric.shm_export_reuses", 0) > 0


def _sum_task(ctx, task):
    """Module-level probe: sums the big array shipped in the ctx."""
    big, tag = ctx
    return int(big.sum()) + task


class TestScratchArrays:
    """Per-call scratch segments for large ndarray context members."""

    def test_export_attach_round_trip(self):
        arrays = {
            "a": np.arange(1000, dtype=np.int32).reshape(50, 20),
            "b": np.linspace(0.0, 1.0, 64),
        }
        handle = fabric.export_arrays(arrays)
        try:
            views = fabric.attach_arrays(handle)
            assert set(views) == {"a", "b"}
            np.testing.assert_array_equal(views["a"], arrays["a"])
            np.testing.assert_array_equal(views["b"], arrays["b"])
            with pytest.raises(ValueError):
                views["a"][0, 0] = 99
        finally:
            fabric.release_arrays(handle)

    def test_release_unlinks_segment(self):
        handle = fabric.export_arrays({"x": np.ones(1024)})
        assert fabric.release_arrays(handle) is True
        assert fabric.release_arrays(handle) is False  # idempotent
        assert _shm_leaks() == []

    def test_pack_ctx_swaps_large_arrays_only(self):
        big = np.zeros(fabric.SCRATCH_MIN_BYTES // 8 + 16, dtype=np.float64)
        small = np.arange(8, dtype=np.int32)
        packed, fallbacks = fabric.pack_ctx((big, small, "tag"))
        try:
            assert fallbacks == 0
            assert isinstance(packed[0], fabric.SegmentMember)
            assert packed[1] is small  # under the threshold: pickled
            assert packed[2] == "tag"
            restored = fabric.unpack_ctx(packed)
            np.testing.assert_array_equal(restored[0], big)
            assert restored[0].flags.writeable is False
        finally:
            fabric.release_ctx(packed)
        assert _shm_leaks() == []

    def test_pool_run_ships_and_releases_scratch(self, torus443):
        big = np.arange(
            fabric.SCRATCH_MIN_BYTES // 4 + 64, dtype=np.int32)
        obs.enable(obs.MemorySink(keep_events=False))
        out = engine.run_layer_tasks(
            _sum_task, (big, "t"), [1, 2, 3], workers=2)
        counts = dict(obs.counters())
        obs.disable()
        obs.reset()
        expect = int(big.sum())
        assert out == [expect + 1, expect + 2, expect + 3]
        assert counts.get("fabric.scratch_exports", 0) >= 1
        assert _shm_leaks() == []

    def test_shutdown_drains_scratch_registry(self):
        fabric.export_arrays({"x": np.ones(2048)})
        fabric.shutdown()
        assert _shm_leaks() == []


def _big_result_task(ctx, task):
    """Worker probe returning one array larger than the context
    scratch threshold and one small plain value."""
    n = fabric.SCRATCH_MIN_BYTES // 8 + 32
    return np.full(n, float(task)), task * 10


class TestResultReturn:
    """Worker->parent results have one way back: the task's pickled
    return value, whatever its size; forwarding columns never ride it
    while the request's table has a segment."""

    def test_pool_run_returns_large_results_intact(self):
        out = engine.run_layer_tasks(
            _big_result_task, None, [1, 2, 3], workers=2)
        n = fabric.SCRATCH_MIN_BYTES // 8 + 32
        for task, (arr, tag) in zip([1, 2, 3], out):
            np.testing.assert_array_equal(arr, np.full(n, float(task)))
            assert tag == task * 10
        assert _shm_leaks() == []

    def test_table_store_route_writes_columns_in_place(self):
        # a store-backed Nue fan-out lands every layer's columns via
        # write_columns; no worker returns a block
        from repro.engine import tablestore
        from repro.routing import make_algorithm

        obs.enable(obs.MemorySink(keep_events=False))
        net = torus([4, 4], 4)
        result = make_algorithm("nue", max_vls=2, workers=2).route(
            net, seed=5)
        backed = fabric._member_for(result.next_channel) is not None
        result.release()
        counts = dict(obs.counters())
        if not backed:
            pytest.skip("no shm on this platform")
        assert counts.get("fabric.table_writes", 0) >= 1
        assert counts.get("fabric.table_fallbacks", 0) == 0
        assert not tablestore.live_tables()
