"""Live metric bus: streaming, folding, bit-identity with serial runs.

Covers the design contract of :mod:`repro.obs.live`:

* worker events folded through the bus update the parent aggregates
  *incrementally* — before any fan-out completes and without replay;
* the pooled live path produces counter/histogram totals bit-identical
  to the serial run, with zero drops at the default buffer;
* a full buffer drops (never blocks) and the drops are counted;
* worker gauges reach parent aggregates through the replay path too
  (no live bus attached).
"""

import json
import os

import pytest

from repro import engine, obs
from repro.obs import core
from repro.obs.live import (
    DROP_COUNTER,
    FORWARDED_COUNTER,
    LATE_COUNTER,
    BusSink,
    InProcBus,
    LiveAggregator,
    MpBus,
    heartbeat_gauge_name,
    run_streamed,
    tail_events,
)
from repro.network.topologies import mesh
from repro.resilience import FaultSchedule, run_campaign
from repro.resilience.events import FaultEvent


def _stream_task(ctx, task):
    """Module-level so the pool can pickle it by reference."""
    obs.count("live_t.items")
    obs.observe("live_t.value", task)
    with obs.span("live_t.step"):
        pass
    return ctx * task


class _LaggingBus(MpBus):
    """A real cross-process bus whose parent side lags: ``drain`` hands
    nothing over until it has been called ``lag`` more times after all
    ``expect`` events arrived."""

    def __init__(self, expect, lag):
        super().__init__()
        self._held = []
        self._expect = expect
        self._lag = lag

    def drain(self, max_events=None):
        self._held += super().drain()
        if len(self._held) < self._expect:
            return []
        if self._lag > 0:
            self._lag -= 1
            return []
        out, self._held = self._held, []
        return out


def _gauge_task(ctx, task):
    obs.gauge("live_t.worker_gauge", 42.5)
    return task


class TestInProcBus:
    def test_publish_drain_preserves_order(self):
        bus = InProcBus()
        evs = [{"type": "counter", "name": "a", "n": i} for i in range(5)]
        assert bus.publish(evs) == 5
        assert bus.drain() == evs
        assert bus.drain() == []

    def test_full_buffer_drops_and_counts(self):
        bus = InProcBus(buffer=2)
        evs = [{"type": "counter", "name": "a", "n": i} for i in range(5)]
        assert bus.publish(evs) == 2
        assert bus.dropped == 3
        assert len(bus.drain()) == 2


class TestBusSink:
    def test_forwards_and_counts_drops(self):
        bus = InProcBus(buffer=1)
        sink = BusSink(bus.publish)
        sink.emit({"type": "counter", "name": "x", "n": 1})
        sink.emit({"type": "counter", "name": "x", "n": 1})
        assert sink.forwarded == 1
        assert sink.dropped == 1


class TestLiveAggregator:
    def test_folds_incrementally_before_completion(self):
        """The tentpole property: aggregates move while work is in
        flight, not after replay."""
        bus = InProcBus()
        agg = LiveAggregator(bus)
        obs.enable(obs.MemorySink(keep_events=False))

        bus.publish([{"type": "counter", "name": "w.items", "n": 3}])
        agg.pump()
        assert obs.counters()["w.items"] == 3  # visible immediately

        bus.publish([
            {"type": "counter", "name": "w.items", "n": 2},
            {"type": "hist", "name": "w.sizes", "kind": "log2",
             "n": 2, "sum": 6.0, "min": 2, "max": 4,
             "deltas": [[1, 1], [2, 1]]},
        ])
        agg.pump()
        assert obs.counters()["w.items"] == 5
        h = obs.histograms()["w.sizes"]
        assert h["count"] == 2 and h["sum"] == 6.0
        assert agg.events_folded == 3

    def test_streamed_events_reach_sinks_tagged(self):
        sink = obs.MemorySink(keep_events=True)
        obs.enable(sink)
        bus = InProcBus()
        agg = LiveAggregator(bus)
        bus.publish([{"type": "counter", "name": "w.x", "n": 1}])
        agg.pump()
        streamed = [e for e in sink.events if e.get("streamed")]
        assert len(streamed) == 1 and streamed[0]["name"] == "w.x"

    def test_span_events_fold_into_duration_histogram(self):
        obs.enable(obs.MemorySink(keep_events=False))
        bus = InProcBus()
        agg = LiveAggregator(bus)
        bus.publish([{"type": "span", "name": "w.phase", "dur_ns": 3000}])
        agg.pump()
        assert obs.span_stats()["w.phase"]["calls"] == 1
        assert obs.histograms()["w.phase.dur_ns"]["count"] == 1

    def test_tracks_worker_heartbeats(self):
        bus = InProcBus()
        agg = LiveAggregator(bus)
        bus.publish([{"type": "gauge",
                      "name": heartbeat_gauge_name(4242),
                      "value": 123.5}])
        agg.pump()
        assert agg.workers == {4242: 123.5}

    def test_writes_status_file(self, tmp_path):
        status = str(tmp_path / "status.json")
        obs.enable(obs.MemorySink(keep_events=False))
        obs.count("w.n", 7)
        bus = InProcBus()
        agg = LiveAggregator(bus, status_path=status, interval_s=0.0)
        agg.pump()
        snap = json.loads(open(status).read())
        assert snap["counters"]["w.n"] == 7
        assert snap["live"]["pumps"] == 1


class TestRunStreamed:
    def test_returns_result_and_forwarded_count_when_nothing_dropped(self):
        bus = InProcBus()
        obs.live.attach_worker(bus)
        try:
            result, summary = run_streamed(_stream_task, 2, 21)
        finally:
            obs.live.detach_worker()
        assert result == 42
        drained = bus.drain()
        assert summary == [{"type": "counter", "name": FORWARDED_COUNTER,
                            "n": len(drained)}]
        names = [e["name"] for e in drained]
        assert "live_t.items" in names
        # heartbeats bracket the task
        beats = [e for e in drained
                 if e["name"] == heartbeat_gauge_name()]
        assert len(beats) == 2

    def test_drop_summary_survives_congestion(self):
        bus = InProcBus(buffer=1)  # everything after the first drops
        obs.live.attach_worker(bus)
        try:
            _, summary = run_streamed(_stream_task, 2, 21)
        finally:
            obs.live.detach_worker()
        drops = [ev for ev in summary if ev["name"] != FORWARDED_COUNTER]
        assert len(drops) == 1
        assert drops[0]["name"] == DROP_COUNTER
        assert drops[0]["n"] >= 1


class TestPoolBitIdentity:
    TASKS = list(range(1, 33))

    def _totals(self):
        counters = {k: v for k, v in obs.counters().items()
                    if k.startswith("live_t.")}
        hists = {k: v for k, v in obs.histograms().items()
                 if k == "live_t.value"}
        spans = {k: v["calls"] for k, v in obs.span_stats().items()
                 if k.startswith("live_t.")}
        return counters, hists, spans

    def test_k4_live_bus_matches_serial_with_zero_drops(self):
        # serial reference
        obs.enable(obs.MemorySink(keep_events=False))
        serial_out = engine.run_layer_tasks(_stream_task, 3, self.TASKS,
                                            workers=1)
        serial = self._totals()
        obs.disable()
        obs.reset()

        # live: 4 workers streaming over a real cross-process bus
        obs.live.start()
        try:
            live_out = engine.run_layer_tasks(_stream_task, 3,
                                              self.TASKS, workers=4)
        finally:
            obs.live.stop()
        live = self._totals()
        dropped = obs.counters().get(DROP_COUNTER, 0)
        obs.disable()

        assert live_out == serial_out
        assert live == serial, "streamed totals must be bit-identical"
        assert dropped == 0, "default buffer must not drop"

    def _run_lagging(self, lag):
        """Totals + late count of a k=4 fan-out over a bus that hands
        nothing over until ``lag`` drains after every event is in."""
        # per task: 2 heartbeats + counter + histogram + span
        bus = _LaggingBus(expect=5 * len(self.TASKS), lag=lag)
        obs.live.start(bus=bus)
        try:
            out = engine.run_layer_tasks(_stream_task, 3, self.TASKS,
                                         workers=4)
            # everything must be folded when the fan-out returns, not
            # only after stop()'s last drain
            totals = self._totals()
        finally:
            obs.live.stop()
        late = obs.counters().get(LATE_COUNTER, 0)
        obs.disable()
        obs.reset()
        return out, totals, late

    def test_bus_lagging_the_results_still_matches_serial(self):
        """Regression: worker events ride a queue feeder thread that
        can deliver after the task results; the fan-out must keep
        folding until the forwarded count its workers reported is in."""
        obs.enable(obs.MemorySink(keep_events=False))
        serial_out = engine.run_layer_tasks(_stream_task, 3, self.TASKS,
                                            workers=1)
        serial = self._totals()
        obs.disable()
        obs.reset()

        live_out, live, late = self._run_lagging(lag=5)
        assert live_out == serial_out
        assert live == serial
        assert late == 0

    def test_bus_that_never_delivers_is_bounded_and_counted(self,
                                                            monkeypatch):
        """The wait is bounded: a dead bus costs the timeout, then the
        shortfall lands on ``obs.live.late_events`` — never a hang."""
        pump_until = LiveAggregator.pump_until
        monkeypatch.setattr(
            LiveAggregator, "pump_until",
            lambda self, folded: pump_until(self, folded, timeout_s=0.2))
        _, (counters, _, _), late = self._run_lagging(lag=10 ** 9)
        assert counters == {}
        assert late == 5 * len(self.TASKS)

    def test_worker_gauges_replay_into_parent(self):
        """Satellite: the replay path (no bus) carries gauges too."""
        obs.enable(obs.MemorySink(keep_events=False))
        engine.run_layer_tasks(_gauge_task, None, self.TASKS[:4],
                               workers=2)
        assert obs.gauges().get("live_t.worker_gauge") == 42.5


class TestModuleSingleton:
    def test_pump_noop_when_inactive(self):
        assert obs.live.active() is None
        assert obs.live.pump() == 0

    def test_bus_handle_none_for_inproc(self):
        obs.live.start(bus=InProcBus())
        try:
            assert obs.live.bus_handle() is None
            assert obs.live.active() is not None
        finally:
            obs.live.stop()

    def test_start_auto_enables_obs(self):
        assert not obs.enabled()
        obs.live.start(bus=InProcBus())
        try:
            assert obs.enabled()
        finally:
            obs.live.stop()

    def test_start_writes_status_eagerly(self, tmp_path):
        path = tmp_path / "status.json"
        obs.live.start(bus=InProcBus(), status_path=str(path))
        try:
            assert path.exists()  # before any pump — watchers see it now
        finally:
            obs.live.stop()

    def test_start_unwritable_status_raises(self, tmp_path):
        bad = str(tmp_path / "nodir" / "status.json")
        with pytest.raises(OSError):
            obs.live.start(bus=InProcBus(), status_path=bad)
        assert obs.live.active() is None


class _SpyBus(InProcBus):
    """Records the parent counter state at every drain (= every pump)."""

    def __init__(self):
        super().__init__()
        self.snapshots = []

    def drain(self, max_events=None):
        self.snapshots.append(dict(core.counters()))
        return super().drain(max_events)


class TestCampaignLiveExposure:
    def test_campaign_exposes_progress_before_completion(self, tmp_path):
        """Acceptance: a campaign on an in-proc bus updates counters /
        progress gauges event by event, not only at the end."""
        status = str(tmp_path / "status.json")
        net = mesh([3, 3], 1)
        names = net.node_names
        links = net.switch_to_switch_links()[:3]
        sched = FaultSchedule([
            FaultEvent(time=float(i + 1),
                       links=((names[u], names[v]),))
            for i, (u, v) in enumerate(links)
        ])
        bus = _SpyBus()
        obs.live.start(bus=bus, status_path=status, interval_s=0.0)
        try:
            res = run_campaign(net, sched, max_vls=2, seed=3)
        finally:
            obs.live.stop()
        assert len(res.reports) == 3

        seen = [s.get("resilience.events", 0) for s in bus.snapshots]
        # one pump before the loop, one per event: counters stepped
        # through every intermediate value while the campaign ran
        assert seen[0] == 0
        assert sorted(set(seen)) == [0, 1, 2] or \
            sorted(set(seen)) == [0, 1, 2, 3]
        assert any(0 < v < 3 for v in seen), \
            "intermediate counts must be exposed mid-campaign"

        snap = json.loads(open(status).read())
        assert snap["gauges"]["resilience.campaign.progress"] == 1.0
        assert snap["gauges"]["resilience.campaign.events_done"] == 3
        assert "resilience.attempt.dur_ns" in snap["histograms"]
        assert "resilience.dirty_fraction" in snap["histograms"]
        assert snap["histograms"]["resilience.reachability"]["count"] == 3


class TestTailEvents:
    def test_tolerates_torn_final_line(self, tmp_path):
        p = tmp_path / "trace.jsonl"
        with open(p, "w") as fh:
            fh.write('{"type":"counter","name":"a","n":1}\n')
            fh.write('{"type":"counter","name":"b","n":2}\n')
            fh.write('{"type":"counter","na')  # crash mid-write
        evs = tail_events(str(p))
        assert [e["name"] for e in evs] == ["a", "b"]

    def test_keeps_only_last_n(self, tmp_path):
        p = tmp_path / "trace.jsonl"
        with open(p, "w") as fh:
            for i in range(10):
                fh.write(json.dumps({"type": "counter", "name": str(i),
                                     "n": 1}) + "\n")
        evs = tail_events(str(p), last=3)
        assert [e["name"] for e in evs] == ["7", "8", "9"]
