"""Acceptance: the in-proc daemon coalesces, backpressures and evicts.

These are the ISSUE's acceptance scenarios, run over the ``inproc://``
transport (every message still round-trips through the frame codec, so
this exercises real wire behaviour deterministically):

(a) N concurrent identical ``RouteRequest``s -> exactly one
    computation (``service.computations`` == 1, ``service.coalesced``
    == N-1), every response bit-identical to the serial facade;
(b) queue overflow -> typed ``ServiceOverloaded`` without affecting
    the in-flight computation;
(c) LRU eviction releases the evicted shm export (no ``/dev/shm``
    leak — the autouse fixture asserts that after every test).
"""

import asyncio
import time

import numpy as np
import pytest
from digests import result_digest

from repro import api, obs
from repro.engine import fabric
from repro.network.topologies import ring, torus
from repro.service import (
    AsyncServiceClient,
    RouteRequest,
    ServiceBadRequest,
    ServiceOverloaded,
    serve_in_thread,
)

N_CONCURRENT = 5


def _counters():
    return dict(obs.counters())


async def _await_counter(name, value, timeout=30.0):
    deadline = time.monotonic() + timeout
    while _counters().get(name, 0) < value:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"{name} never reached {value}; counters: {_counters()}")
        await asyncio.sleep(0.01)


class TestCoalescing:
    def test_n_identical_requests_one_computation(self, blocking_algorithm):
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        request = RouteRequest(topology=net, algorithm="svc-blocker",
                               max_vls=2, seed=7)

        with serve_in_thread(["inproc://svc-coalesce"]) as (service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    tasks = [asyncio.ensure_future(client.route(request))
                             for _ in range(N_CONCURRENT)]
                    # hold the leader's computation until every other
                    # request has demonstrably joined it
                    await _await_counter("service.coalesced",
                                         N_CONCURRENT - 1)
                    blocking_algorithm.release.set()
                    return await asyncio.gather(*tasks)

            responses = asyncio.run(scenario())

        counters = _counters()
        assert blocking_algorithm.calls == 1
        assert counters["service.computations"] == 1
        assert counters["service.coalesced"] == N_CONCURRENT - 1
        assert counters["service.requests"] == N_CONCURRENT

        # every fanned-out response is bit-identical to the serial facade
        serial = api.route(request)
        for response in responses:
            np.testing.assert_array_equal(response.next_channel_array(),
                                          serial.next_channel_array())
            np.testing.assert_array_equal(response.vl_array(),
                                          serial.vl_array())
            assert response.network_fingerprint == \
                serial.network_fingerprint

    def test_requests_differing_only_in_workers_coalesce(
            self, blocking_algorithm):
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        base = RouteRequest(topology=net, algorithm="svc-blocker",
                            max_vls=2, seed=7, workers=None)
        variant = RouteRequest(topology=net, algorithm="svc-blocker",
                               max_vls=2, seed=7, workers=1)

        with serve_in_thread(["inproc://svc-workers"]) \
                as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    a = asyncio.ensure_future(client.route(base))
                    b = asyncio.ensure_future(client.route(variant))
                    await _await_counter("service.coalesced", 1)
                    blocking_algorithm.release.set()
                    return await asyncio.gather(a, b)

            ra, rb = asyncio.run(scenario())

        assert blocking_algorithm.calls == 1
        np.testing.assert_array_equal(ra.next_channel_array(),
                                      rb.next_channel_array())
        np.testing.assert_array_equal(ra.vl_array(), rb.vl_array())


class TestBackpressure:
    def test_overflow_is_typed_and_leaves_inflight_alone(
            self, blocking_algorithm):
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        first = RouteRequest(topology=net, algorithm="svc-blocker",
                             max_vls=2, seed=1)
        second = RouteRequest(topology=net, algorithm="svc-blocker",
                              max_vls=2, seed=2)  # distinct identity

        with serve_in_thread(["inproc://svc-overload"],
                             max_pending=1) as (service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    inflight = asyncio.ensure_future(client.route(first))
                    # the leader is computing once the algorithm parks
                    await asyncio.get_running_loop().run_in_executor(
                        None, blocking_algorithm.started.wait, 30.0)
                    assert service.stats()["inflight"] == 1
                    with pytest.raises(ServiceOverloaded,
                                       match="max_pending=1"):
                        await client.route(second)
                    # the rejected request must not have touched the
                    # in-flight one
                    assert service.stats()["inflight"] == 1
                    blocking_algorithm.release.set()
                    return await inflight

            response = asyncio.run(scenario())

        counters = _counters()
        assert counters["service.overloaded"] == 1
        assert counters["service.computations"] == 1
        assert blocking_algorithm.calls == 1  # second never computed
        serial = api.route(first)
        np.testing.assert_array_equal(response.next_channel_array(),
                                      serial.next_channel_array())


class TestNetworkLRU:
    def test_eviction_releases_shm_export(self):
        obs.enable(obs.MemorySink(keep_events=False))
        nets = [ring(n, 1) for n in (5, 6, 7)]

        with serve_in_thread(["inproc://svc-lru"], max_networks=2) \
                as (service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    fps = []
                    for net in nets:
                        response = await client.route(RouteRequest(
                            topology=net, algorithm="updn", max_vls=1,
                            seed=0))
                        fps.append(response.network_fingerprint)
                    return fps

            fps = asyncio.run(scenario())
            assert len(set(fps)) == 3
            exports = fabric.active_exports()
            # capacity 2: the first (LRU) network's export was released
            assert set(exports) == {fps[1], fps[2]}
            assert fps[0] not in exports
            assert service.stats()["networks_cached"] == 2

        counters = _counters()
        assert counters["service.networks_admitted"] == 3
        assert counters["service.networks_evicted"] == 1
        # after serve_in_thread exits, every pinned export is released
        assert fabric.active_exports() == {}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("algorithm", ["nue", "dor"])
    def test_daemon_holds_no_table_segments(self, algorithm, workers):
        """Every executor copies its table out and releases the
        segment: N routes on one fabric and on ``max_networks + 1``
        fabrics leave no table behind, only LRU-bounded exports."""
        from repro.engine import tablestore

        nets = [torus(dims, 1) for dims in ([3, 3], [3, 4], [4, 4])]
        requests = [
            RouteRequest(topology=net, algorithm=algorithm, max_vls=2,
                         seed=seed, workers=workers)
            for net, seed in [(nets[0], 1), (nets[0], 2), (nets[0], 3),
                              (nets[1], 1), (nets[2], 1)]
        ]
        # the engine's own auto-export LRU holds references too once a
        # pool is in play
        bound_exports = 2 + (fabric._AUTO_CAPACITY if workers > 1 else 0)

        with serve_in_thread(["inproc://svc-tbl"], max_networks=2,
                             cache=False) as (service, bound):
            async def scenario():
                digests = []
                async with AsyncServiceClient(bound[0]) as client:
                    for request in requests:
                        response = await client.route(request)
                        assert tablestore.live_tables() == {}
                        assert service.stats()["networks_cached"] <= 2
                        assert len(fabric.active_exports()) <= bound_exports
                        digests.append(result_digest(response))
                return digests

            served = asyncio.run(scenario())

        assert served == [result_digest(api.route(r)) for r in requests]
        assert tablestore.live_tables() == {}

    def test_repeat_tenant_reuses_admitted_network(self):
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)

        with serve_in_thread(["inproc://svc-reuse"], max_networks=2,
                             cache=False) as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    for seed in (1, 2):  # distinct identities, same net
                        await client.route(RouteRequest(
                            topology=net, algorithm="updn", max_vls=1,
                            seed=seed))

            asyncio.run(scenario())

        counters = _counters()
        assert counters["service.networks_admitted"] == 1
        assert counters["service.network_reuses"] == 1


class TestMiscOps:
    def test_ping_status_and_bad_requests(self):
        net = ring(5, 1)
        with serve_in_thread(["inproc://svc-misc"]) as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    assert await client.ping() is True

                    status = await client.status()
                    assert status["service"]["requests_served"] >= 1
                    assert bound[0] in status["service"]["addresses"]

                    with pytest.raises(ServiceBadRequest,
                                       match="unknown op"):
                        await client.call("transmogrify", {})

                    payload = RouteRequest(topology=net).to_dict()
                    payload["schema_version"] = 99
                    with pytest.raises(ServiceBadRequest,
                                       match="schema_version"):
                        await client.call("route", payload)

            asyncio.run(scenario())

    def test_library_error_crosses_typed(self):
        net = ring(5, 1)
        with serve_in_thread(["inproc://svc-err"]) as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    with pytest.raises(ValueError,
                                       match="unknown routing algorithm"):
                        await client.route(RouteRequest(
                            topology=net, algorithm="no-such-algo"))
                    # the connection survives the error
                    assert await client.ping() is True

            asyncio.run(scenario())

    def test_duplicate_inproc_address_refused(self):
        with serve_in_thread(["inproc://svc-dup"]):
            with pytest.raises(OSError, match="in use"):
                with serve_in_thread(["inproc://svc-dup"]):
                    pass  # pragma: no cover - never reached
