"""Campaign engine: oracle bit-identity, fallback chain, reports."""

import numpy as np
import pytest

from repro import obs
from repro.metrics import validate_routing
from repro.network.faults import remove_links, remove_switches
from repro.network.topologies import k_ary_n_tree, ring, torus
from repro.resilience import FaultEvent, FaultSchedule, run_campaign
from repro.routing import make_algorithm


def _link_events(net, indices, t0=1.0):
    """One event per switch-to-switch link index, in order."""
    s2s = [
        (u, v) for (u, v) in net.links()
        if net.is_switch(u) and net.is_switch(v)
    ]
    names = net.node_names
    return [
        FaultEvent(time=t0 + i,
                   links=((names[s2s[li][0]], names[s2s[li][1]]),))
        for i, li in enumerate(indices)
    ]


def _degrade_manually(net, schedule):
    """Replay a schedule with the plain fault-injection primitives."""
    cur = net
    for ev in schedule:
        if ev.links:
            cur = remove_links(cur, ev.resolve_links(cur)).net
        if ev.switches:
            by = {n: i for i, n in enumerate(cur.node_names)}
            cur = remove_switches(
                cur, [by[name] for name in ev.switches]).net
    return cur


class TestExactOracle:
    """``strategy="exact"`` must be bit-identical to routing the
    degraded network from scratch — the campaign adds bookkeeping,
    never routing decisions."""

    @pytest.mark.parametrize("make_net,vls,links", [
        # a ring tolerates exactly one dead link before partitioning
        (lambda: ring(8, terminals_per_switch=1), 2, [0]),
        (lambda: torus((3, 3, 3), terminals_per_switch=1), 3, [0, 5]),
        (lambda: k_ary_n_tree(2, 3), 2, [0, 5]),
    ], ids=["ring", "torus", "fattree"])
    def test_bit_identical_to_scratch_route(self, make_net, vls, links):
        net = make_net()
        schedule = FaultSchedule(events=_link_events(net, links))
        res = run_campaign(net, schedule, max_vls=vls, seed=42,
                           strategy="exact")
        assert all(r.ok for r in res.reports)
        direct = make_algorithm("nue", vls).route(
            _degrade_manually(net, schedule), seed=42)
        assert np.array_equal(res.routing.next_channel,
                              direct.next_channel)
        assert np.array_equal(res.routing.vl, direct.vl)

    def test_oracle_holds_through_switch_events(self):
        net = torus((3, 3), terminals_per_switch=1)
        sw = net.node_names[net.switches[4]]
        schedule = FaultSchedule(events=_link_events(net, [2]) + [
            FaultEvent(time=9.0, switches=(sw,)),
        ])
        res = run_campaign(net, schedule, max_vls=2, seed=7,
                           strategy="exact")
        assert all(r.ok for r in res.reports)
        direct = make_algorithm("nue", 2).route(
            _degrade_manually(net, schedule), seed=7)
        assert np.array_equal(res.routing.next_channel,
                              direct.next_channel)


class TestIncrementalCampaign:
    def test_link_events_repair_in_place(self):
        net = torus((4, 4, 3), terminals_per_switch=1)
        schedule = FaultSchedule(events=_link_events(net, [1, 20]))
        res = run_campaign(net, schedule, max_vls=3, seed=11)
        assert res.net is net  # fail-in-place: same network object
        for r in res.reports:
            assert r.ok and r.strategy == "incremental"
            assert 0 < r.dests_recomputed < r.dests_total
            assert r.reachability == 1.0
            assert r.deadlock_free is True
        validate_routing(res.routing)

    def test_switch_event_falls_back_to_chain(self):
        net = torus((3, 3), terminals_per_switch=1)
        sw = net.node_names[net.switches[0]]
        schedule = FaultSchedule(
            events=[FaultEvent(time=1.0, switches=(sw,))])
        res = run_campaign(net, schedule, max_vls=2, seed=7)
        (r,) = res.reports
        assert r.ok and r.strategy.startswith("nue/")
        assert res.net is not net  # rebuilt degraded fabric
        assert res.net.n_nodes < net.n_nodes
        validate_routing(res.routing)

    def test_disconnecting_event_rejected_not_fatal(self):
        net = ring(5, terminals_per_switch=1)
        names = net.node_names
        s2s = [
            (u, v) for (u, v) in net.links()
            if net.is_switch(u) and net.is_switch(v)
        ]
        # fail every link around one switch: would partition the ring
        s = s2s[0][1]
        dead = [p for p in s2s if s in p]
        schedule = FaultSchedule(events=[FaultEvent(
            time=1.0,
            links=tuple((names[u], names[v]) for u, v in dead),
        )] + _link_events(net, [2], t0=5.0))
        res = run_campaign(net, schedule, max_vls=1, seed=3)
        first, second = res.reports
        assert not first.applied and first.validation_error
        assert second.applied and second.ok  # campaign carried on

    def test_refusal_counted_with_its_reason(self):
        net = torus((4, 4, 3), terminals_per_switch=2)
        sink = obs.MemorySink()
        obs.enable(sink)
        res = run_campaign(net, FaultSchedule(events=_link_events(net, [4])),
                           max_vls=1, seed=3)
        obs.disable()
        refused = [e for e in sink.events
                   if e.get("name") == "resilience.incremental_refused"]
        assert [e["reason"] for e in refused] == ["retained_conflict"]
        (r,) = res.reports
        assert r.ok and r.attempts[0].label == "incremental"
        assert not r.attempts[0].ok

    def test_unknown_strategy_rejected(self):
        net = ring(4, terminals_per_switch=1)
        with pytest.raises(ValueError, match="strategy"):
            run_campaign(net, FaultSchedule(), strategy="bogus")

    def test_empty_schedule_returns_initial_route(self):
        net = ring(6, terminals_per_switch=1)
        res = run_campaign(net, FaultSchedule(), max_vls=2, seed=9)
        direct = make_algorithm("nue", 2).route(net, seed=9)
        assert np.array_equal(res.routing.next_channel,
                              direct.next_channel)
        assert res.reports == []


class TestReports:
    def test_report_dict_roundtrips_to_json(self):
        import json

        net = torus((3, 3), terminals_per_switch=1)
        schedule = FaultSchedule(events=_link_events(net, [3]))
        res = run_campaign(net, schedule, max_vls=2, seed=7)
        blob = json.dumps(res.to_dict())
        data = json.loads(blob)
        assert data["events_total"] == 1
        ev = data["events"][0]
        assert ev["ok"] is True
        assert ev["vc_budget"]["max"] == 2
        assert 0 < ev["reachability"] <= 1.0
        assert ev["attempts"][0]["label"] == "incremental"

    def test_timeout_flag_set_and_chain_skips_to_last(self):
        net = torus((3, 3), terminals_per_switch=1)
        schedule = FaultSchedule(events=_link_events(net, [3]))
        res = run_campaign(net, schedule, max_vls=2, seed=7,
                           strategy="exact", timeout_s=0.0)
        (r,) = res.reports
        assert r.timed_out
        skipped = [a for a in r.attempts if a.skipped]
        assert skipped, "middle chain links should be skipped"
        assert r.attempts[-1].ok  # the cheapest attempt still ran

    def test_paths_accounting(self):
        net = torus((4, 4, 3), terminals_per_switch=1)
        schedule = FaultSchedule(events=_link_events(net, [1]))
        res = run_campaign(net, schedule, max_vls=3, seed=11)
        (r,) = res.reports
        n_src = len(net.terminals)
        assert r.paths_recomputed == r.dests_recomputed * (n_src - 1)
        assert r.paths_invalidated <= r.paths_recomputed
