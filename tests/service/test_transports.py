"""Socket transports: tcp and unix, sync client."""

import numpy as np
import pytest

from repro import api
from repro.network.topologies import ring
from repro.service import (
    AnalyzeRequest,
    RouteRequest,
    ServiceClient,
    parse_address,
    serve_in_thread,
)


@pytest.fixture
def net():
    return ring(6, 1)


@pytest.fixture
def request_(net):
    return RouteRequest(topology=net, algorithm="nue", max_vls=2, seed=7)


class TestTcp:
    def test_route_bit_identical_to_facade(self, request_):
        with serve_in_thread(["tcp://127.0.0.1:0"]) as (_service, bound):
            assert bound[0].startswith("tcp://127.0.0.1:")
            assert not bound[0].endswith(":0")  # ephemeral port resolved
            with ServiceClient(bound[0]) as client:
                assert client.ping() is True
                remote = client.route(request_)
        serial = api.route(request_)
        np.testing.assert_array_equal(remote.next_channel_array(),
                                      serial.next_channel_array())
        np.testing.assert_array_equal(remote.vl_array(),
                                      serial.vl_array())

    def test_status_renders_service_block(self, request_):
        with serve_in_thread(["tcp://127.0.0.1:0"]) as (_service, bound):
            with ServiceClient(bound[0]) as client:
                client.route(request_)
                status = client.status()
        assert status["service"]["requests_served"] >= 1
        assert status["service"]["max_pending"] == 32
        assert "counters" in status and "spans" in status


class TestUnix:
    def test_route_and_analyze(self, tmp_path, request_):
        address = f"unix://{tmp_path}/svc.sock"
        with serve_in_thread([address]) as (_service, bound):
            assert bound[0] == address
            with ServiceClient(bound[0]) as client:
                remote = client.route(request_)
                report = client.analyze(AnalyzeRequest(route=request_))
        serial = api.route(request_)
        np.testing.assert_array_equal(remote.next_channel_array(),
                                      serial.next_channel_array())
        assert report.deadlock_free is True
        assert report.n_vls == remote.n_vls
        assert not (tmp_path / "svc.sock").exists()  # unlinked on stop

    def test_error_crosses_the_socket_typed(self, tmp_path, net):
        address = f"unix://{tmp_path}/err.sock"
        with serve_in_thread([address]) as (_service, bound):
            with ServiceClient(bound[0]) as client:
                with pytest.raises(ValueError,
                                   match="unknown routing algorithm"):
                    client.route(RouteRequest(topology=net,
                                              algorithm="bogus"))
                assert client.ping() is True  # connection survives


class TestMultiListener:
    def test_one_daemon_both_transports(self, tmp_path, request_):
        addresses = ["tcp://127.0.0.1:0", f"unix://{tmp_path}/both.sock"]
        with serve_in_thread(addresses) as (service, bound):
            assert len(bound) == 2
            assert service.addresses == bound
            responses = []
            for address in bound:
                with ServiceClient(address) as client:
                    responses.append(client.route(request_))
        np.testing.assert_array_equal(responses[0].next_channel_array(),
                                      responses[1].next_channel_array())
        np.testing.assert_array_equal(responses[0].vl_array(),
                                      responses[1].vl_array())


def test_parse_address():
    assert parse_address("tcp://127.0.0.1:7469") == \
        ("tcp", "127.0.0.1:7469")
    assert parse_address("inproc://x") == ("inproc", "x")
    with pytest.raises(ValueError):
        parse_address("no-scheme-here")
