"""End-to-end daemon round trips at ``workers=2``.

Routes, campaigns and repair/grow transitions served over real
transports must answer exactly what the in-process facade (or a
from-scratch routing) computes — with the fan-out's table segments
owned by nothing but the results that carry them.
"""

import numpy as np

from repro.api import (
    CampaignRequest,
    NetworkBuilder,
    RouteRequest,
    ServiceClient,
    afr_schedule,
    attach_terminals,
    incremental_reroute,
    make_algorithm,
    route,
    topologies,
)
from repro.engine import tablestore
from repro.engine.fingerprint import network_fingerprint
from repro.service import (
    RouteResponse,
    TransitionRequest,
    execute_campaign,
    serve_in_thread,
)


def test_route_and_campaign_match_the_facade_on_both_transports(tmp_path):
    net = topologies.torus([4, 4, 3], 2)
    request = RouteRequest(topology=net, algorithm="nue", max_vls=2,
                           seed=7, workers=2)
    schedule = afr_schedule(net, duration_hours=8766.0, link_afr=0.01,
                            seed=3, max_events=2)
    campaign = CampaignRequest(topology=net, schedule=schedule, max_vls=2,
                               seed=3, workers=2)

    serial = route(request)
    direct = execute_campaign(campaign)
    addresses = ["tcp://127.0.0.1:0", f"unix://{tmp_path}/rt.sock"]
    with serve_in_thread(addresses) as (_service, bound):
        assert len(bound) == 2
        for address in bound:
            with ServiceClient(address) as client:
                remote = client.route(request)
                np.testing.assert_array_equal(
                    remote.next_channel_array(), serial.next_channel_array())
                np.testing.assert_array_equal(
                    remote.vl_array(), serial.vl_array())
                survived = client.campaign(campaign)
                assert survived.events_total == direct.events_total
                assert survived.events_survived == direct.events_survived
                assert survived.final_vls == direct.final_vls
    assert tablestore.live_tables() == {}


def _ring_named(extra):
    """A 5-switch ring, plus one named switch and terminal if ``extra``."""
    b = NetworkBuilder("g")
    sw = [b.add_switch(f"s{i}") for i in range(5)]
    for i in range(4):
        b.add_link(sw[i], sw[i + 1])
    b.add_link(sw[4], sw[0])
    attach_terminals(b, sw, 1)
    if extra:
        s5 = b.add_switch("s5")
        b.add_link(sw[4], s5)
        attach_terminals(b, [s5], 1)
    return b.build()


def test_repair_and_grow_transitions_match_scratch_routings():
    # repair: fail a link in place, reroute, ship the surviving tables,
    # get back the pristine routing bit for bit
    net = topologies.torus([3, 3], 1)
    pristine = make_algorithm("nue", max_vls=2).route(net, seed=5)
    degraded, _ = incremental_reroute(net, pristine, [6, 7], max_vls=2,
                                      seed=5)
    repair = TransitionRequest(
        topology=net, algorithm="nue", max_vls=2, seed=5,
        from_tables=RouteResponse.from_result(
            degraded, network_fingerprint(net)).to_dict())

    # grow: a 5-switch ring gains one named switch + terminal
    small, big = _ring_named(False), _ring_named(True)
    grow = TransitionRequest(topology=big, algorithm="nue", max_vls=2,
                             seed=3, from_topology=small)
    scratch = make_algorithm("nue", max_vls=2).route(big, seed=3)

    with serve_in_thread(["tcp://127.0.0.1:0"],
                         workers=2) as (_service, bound):
        with ServiceClient(bound[0]) as client:
            healed = client.transition(repair)
            assert healed.scenario == "repair"
            np.testing.assert_array_equal(
                healed.route.next_channel_array(), pristine.next_channel)
            grown = client.transition(grow)
            assert grown.scenario == "grow"
            np.testing.assert_array_equal(
                grown.route.next_channel_array(), scratch.next_channel)
    assert tablestore.live_tables() == {}


def test_a_resident_fabric_is_fingerprinted_without_a_csr(monkeypatch):
    """The daemon parses and fingerprints every request's topology;
    only the copy it admits needs a CSR (for its shm export).  A
    request for an already-admitted fabric builds none."""
    from repro.network import csr

    built = []
    real_init = csr.CSRView.__init__

    def counting_init(self, net):
        built.append(net.name)
        real_init(self, net)

    monkeypatch.setattr(csr.CSRView, "__init__", counting_init)
    net = topologies.torus([4, 4, 3], 1)
    request = RouteRequest(topology=net, algorithm="dor", max_vls=1,
                           seed=1)
    with serve_in_thread(["tcp://127.0.0.1:0"]) as (_service, bound):
        with ServiceClient(bound[0]) as client:
            first = client.route(request)
            assert len(built) == 1  # the admitted copy's export
            again = client.route(request)
    assert len(built) == 1
    np.testing.assert_array_equal(again.next_channel_array(),
                                  first.next_channel_array())
