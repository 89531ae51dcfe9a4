"""Fabric teardown under the daemon (ISSUE satellite 3).

``shutdown_fabric()`` while a coalesced request is in flight must fail
that request with the typed ``ServiceAborted`` — not crash the daemon,
not leak a shm segment (the autouse fixture asserts /dev/shm is clean
after every test) — and the daemon must keep serving afterwards.
"""

import asyncio

import numpy as np
import pytest

from repro import api, obs
from repro.engine import fabric
from repro.network.topologies import ring
from repro.service import (
    AsyncServiceClient,
    RouteRequest,
    ServiceAborted,
    serve_in_thread,
)


class TestFabricTeardownMidFlight:
    def test_inflight_request_aborts_cleanly(self, blocking_algorithm):
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        blocked = RouteRequest(topology=net, algorithm="svc-blocker",
                               max_vls=2, seed=3)
        followup = RouteRequest(topology=net, algorithm="updn",
                                max_vls=1, seed=3)

        with serve_in_thread(["inproc://svc-teardown"]) as (service, bound):
            async def scenario():
                loop = asyncio.get_running_loop()
                async with AsyncServiceClient(bound[0]) as client:
                    inflight = asyncio.ensure_future(
                        client.route(blocked))
                    await loop.run_in_executor(
                        None, blocking_algorithm.started.wait, 30.0)
                    assert fabric.active_exports()  # export pinned

                    # the deployment hazard: someone tears the fabric
                    # down under the daemon mid-computation
                    await loop.run_in_executor(None, api.shutdown_fabric)

                    with pytest.raises(ServiceAborted,
                                       match="fabric teardown"):
                        await inflight
                    blocking_algorithm.release.set()

                    # the daemon survived: it still answers, and a new
                    # request re-admits the network and computes
                    assert await client.ping() is True
                    return await client.route(followup)

            response = asyncio.run(scenario())
            assert service.stats()["inflight"] == 0

        counters = dict(obs.counters())
        assert counters["service.aborted"] == 1
        serial = api.route(followup)
        np.testing.assert_array_equal(response.next_channel_array(),
                                      serial.next_channel_array())
        np.testing.assert_array_equal(response.vl_array(),
                                      serial.vl_array())

    def test_coalesced_waiters_all_get_aborted(self, blocking_algorithm):
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        request = RouteRequest(topology=net, algorithm="svc-blocker",
                               max_vls=2, seed=4)
        n_waiters = 3

        with serve_in_thread(["inproc://svc-teardown-co"]) \
                as (_service, bound):
            async def scenario():
                loop = asyncio.get_running_loop()
                async with AsyncServiceClient(bound[0]) as client:
                    tasks = [asyncio.ensure_future(client.route(request))
                             for _ in range(n_waiters)]
                    await loop.run_in_executor(
                        None, blocking_algorithm.started.wait, 30.0)
                    while dict(obs.counters()).get(
                            "service.coalesced", 0) < n_waiters - 1:
                        await asyncio.sleep(0.01)

                    await loop.run_in_executor(None, api.shutdown_fabric)
                    results = await asyncio.gather(*tasks,
                                                   return_exceptions=True)
                    blocking_algorithm.release.set()
                    return results

            results = asyncio.run(scenario())

        assert len(results) == n_waiters
        for outcome in results:
            assert isinstance(outcome, ServiceAborted)
        # one shared future, one abort event per waiting computation
        assert dict(obs.counters())["service.aborted"] == 1

    def test_teardown_between_requests_is_invisible(self):
        net = ring(6, 1)
        request = RouteRequest(topology=net, algorithm="updn",
                               max_vls=1, seed=5)

        with serve_in_thread(["inproc://svc-teardown-idle"]) \
                as (_service, bound):
            async def scenario():
                loop = asyncio.get_running_loop()
                async with AsyncServiceClient(bound[0]) as client:
                    first = await client.route(request)
                    await loop.run_in_executor(None, api.shutdown_fabric)
                    second = await client.route(request)
                    return first, second

            first, second = asyncio.run(scenario())

        np.testing.assert_array_equal(first.next_channel_array(),
                                      second.next_channel_array())
        np.testing.assert_array_equal(first.vl_array(),
                                      second.vl_array())
