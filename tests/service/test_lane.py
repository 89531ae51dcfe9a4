"""The one compute lane, pinned.

``RoutingService`` runs exactly one executor body at a time; the event
loop keeps framing, answering ``ping`` / ``status``, coalescing and
refusing overflow while that body runs.  Every scenario parks
``BlockingAlgo`` on the lane and takes no lane-sizing argument — there
is none.  Races are bounded waits on counters, never sleeps.
"""

import asyncio
import sys
import time

import numpy as np
import pytest

from repro import api, obs
from repro.engine import fabric
from repro.network.topologies import ring
from repro.service import (
    AsyncServiceClient,
    RouteRequest,
    RoutingService,
    ServiceAborted,
    ServiceClosed,
    ServiceOverloaded,
    serve_in_thread,
)
from repro.service import comm as comms

#: bound on anything the event loop must answer by itself
LOOP_ANSWER_S = 10.0


async def _reaches(predicate, timeout):
    """Bounded wait: True as soon as ``predicate()`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(0.005)
    return True


def _counter(name):
    return dict(obs.counters()).get(name, 0)


async def _parked(blocking_algorithm):
    """The lane is inside ``BlockingAlgo.route`` and stays there."""
    await asyncio.get_running_loop().run_in_executor(
        None, blocking_algorithm.started.wait, 30.0)
    assert blocking_algorithm.started.is_set()


def _blocker(net, seed):
    return RouteRequest(topology=net, algorithm="svc-blocker",
                        max_vls=2, seed=seed)


def _assert_same_tables(response, request):
    serial = api.route(request)
    np.testing.assert_array_equal(response.next_channel_array(),
                                  serial.next_channel_array())
    np.testing.assert_array_equal(response.vl_array(), serial.vl_array())


class TestOneLane:
    def test_second_body_waits_for_the_first(self, blocking_algorithm):
        """At most one executor body at a time: a distinct request is
        admitted and queued, and does not enter ``route()`` while the
        first is parked there."""
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        first, second = _blocker(net, 1), _blocker(net, 2)

        with serve_in_thread(["inproc://lane-serial"]) as (service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    a = asyncio.ensure_future(client.route(first))
                    await _parked(blocking_algorithm)
                    b = asyncio.ensure_future(client.route(second))
                    assert await _reaches(
                        lambda: _counter("service.computations") == 2,
                        LOOP_ANSWER_S)
                    assert service.stats()["inflight"] == 2
                    # the violation this pins is a second body entered
                    # while the first is parked: wait (bounded) for it
                    # and require that it never shows
                    assert not await _reaches(
                        lambda: blocking_algorithm.calls >= 2, 0.5)
                    blocking_algorithm.release.set()
                    return await asyncio.gather(a, b)

            ra, rb = asyncio.run(scenario())

        assert blocking_algorithm.calls == 2
        _assert_same_tables(ra, first)
        _assert_same_tables(rb, second)

    def test_followers_join_a_queued_leader(self, blocking_algorithm):
        """Parse + fingerprint run off the lane: N identical requests
        arriving while the lane is busy with *another* computation
        still cost one (queued) computation and N - 1 joins."""
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        busy, wanted = _blocker(net, 1), _blocker(net, 2)
        n = 4

        with serve_in_thread(["inproc://lane-join"]) as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    a = asyncio.ensure_future(client.route(busy))
                    await _parked(blocking_algorithm)
                    tasks = [asyncio.ensure_future(client.route(wanted))
                             for _ in range(n)]
                    assert await _reaches(
                        lambda: _counter("service.coalesced") == n - 1,
                        LOOP_ANSWER_S)
                    assert blocking_algorithm.calls == 1  # only `busy`
                    blocking_algorithm.release.set()
                    await a
                    return await asyncio.gather(*tasks)

            responses = asyncio.run(scenario())

        assert blocking_algorithm.calls == 2
        assert _counter("service.computations") == 2
        assert _counter("service.coalesced") == n - 1
        for response in responses:
            _assert_same_tables(response, wanted)

    def test_loop_answers_while_the_lane_is_busy(self, blocking_algorithm):
        """``ping``, ``status`` and the overflow refusal never queue
        behind compute."""
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        first, second = _blocker(net, 1), _blocker(net, 2)

        with serve_in_thread(["inproc://lane-loop"],
                             max_pending=1) as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    a = asyncio.ensure_future(client.route(first))
                    await _parked(blocking_algorithm)

                    assert await client.ping(timeout=LOOP_ANSWER_S)
                    status = await client.status(timeout=LOOP_ANSWER_S)
                    assert status["service"]["inflight"] == 1
                    with pytest.raises(ServiceOverloaded,
                                       match="max_pending=1"):
                        await client.route(second, timeout=LOOP_ANSWER_S)

                    assert not a.done()
                    blocking_algorithm.release.set()
                    return await a

            response = asyncio.run(scenario())

        assert blocking_algorithm.calls == 1
        assert _counter("service.overloaded") == 1
        _assert_same_tables(response, first)

    def test_leader_disconnect_keeps_the_computation(
            self, blocking_algorithm):
        """The connection that sent the coalescing leader goes away
        mid-compute; a follower on another connection still receives
        the tables, and the daemon keeps serving."""
        obs.enable(obs.MemorySink(keep_events=False))
        net = ring(6, 1)
        request = _blocker(net, 5)

        with serve_in_thread(["inproc://lane-leader"]) as (service, bound):
            async def scenario():
                leader_conn = AsyncServiceClient(bound[0])
                await leader_conn.connect()
                async with AsyncServiceClient(bound[0]) as other:
                    leader = asyncio.ensure_future(
                        leader_conn.route(request))
                    await _parked(blocking_algorithm)
                    follower = asyncio.ensure_future(other.route(request))
                    assert await _reaches(
                        lambda: _counter("service.coalesced") == 1,
                        LOOP_ANSWER_S)

                    await leader_conn.close()
                    with pytest.raises(ServiceClosed):
                        await leader

                    blocking_algorithm.release.set()
                    response = await follower
                    assert await other.ping(timeout=LOOP_ANSWER_S)
                    return response

            response = asyncio.run(scenario())
            assert service.stats()["inflight"] == 0

        assert blocking_algorithm.calls == 1
        assert _counter("service.computations") == 1
        _assert_same_tables(response, request)


class TestAbortedWhileQueued:
    def test_fabric_teardown_skips_the_queued_body(
            self, blocking_algorithm):
        """``shutdown_fabric()`` with one body on the lane and one
        queued behind it: the queued one is answered ``ServiceAborted``
        and then neither computes nor admits — an admission after the
        teardown would pin an export that the LRU drop queued behind
        it forgets without releasing."""
        obs.enable(obs.MemorySink(keep_events=False))
        first = _blocker(ring(6, 1), 1)
        queued = _blocker(ring(7, 1), 2)
        followup = RouteRequest(topology=ring(6, 1), algorithm="updn",
                                max_vls=1, seed=3)

        with serve_in_thread(["inproc://lane-teardown"]) \
                as (service, bound):
            async def scenario():
                loop = asyncio.get_running_loop()
                async with AsyncServiceClient(bound[0]) as client:
                    a = asyncio.ensure_future(client.route(first))
                    await _parked(blocking_algorithm)
                    b = asyncio.ensure_future(client.route(queued))
                    assert await _reaches(
                        lambda: _counter("service.computations") == 2,
                        LOOP_ANSWER_S)

                    await loop.run_in_executor(None, api.shutdown_fabric)
                    outcomes = await asyncio.gather(
                        a, b, return_exceptions=True)
                    blocking_algorithm.release.set()
                    # the lane is one queue: once the follow-up is
                    # answered, everything ahead of it has run
                    response = await client.route(followup)
                    return outcomes, response

            outcomes, response = asyncio.run(scenario())
            assert service.stats()["inflight"] == 0
            assert service.stats()["networks_cached"] == 1
            live = fabric.active_exports()

        assert [type(o) for o in outcomes] == [ServiceAborted] * 2
        assert blocking_algorithm.calls == 1  # `queued` never entered
        assert list(live.values()) == [1]  # the follow-up's, nothing else
        _assert_same_tables(response, followup)


def _wait_closed_since_3_12_1(self):
    """``asyncio.Server.wait_closed`` as CPython >= 3.12.1 defines it
    (gh-79033): it returns once ``close()`` was called *and* every
    accepted connection has ended.  Older interpreters returned right
    after ``close()``, which hides a stop that waits for the server
    before it closes the connections."""
    async def wait_closed():
        if self._waiters is None:
            return
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        await waiter

    return wait_closed()


class TestStopWithClientsConnected:
    @pytest.mark.parametrize("scheme", ["tcp", "unix"])
    def test_stop_returns_and_the_client_sees_a_close(
            self, scheme, tmp_path, monkeypatch):
        """``stop()`` closes the connections before it waits for the
        stream server, so a connected client cannot hold it up — nor
        can one that left earlier: its transport went with it."""
        if sys.version_info < (3, 12, 1):
            monkeypatch.setattr(asyncio.base_events.Server, "wait_closed",
                                _wait_closed_since_3_12_1)
        address = "tcp://127.0.0.1:0" if scheme == "tcp" \
            else f"unix://{tmp_path}/lane-stop.sock"

        async def scenario():
            service = RoutingService()
            bound = await service.start([address])
            async with AsyncServiceClient(bound[0]) as gone:
                assert await gone.ping(timeout=LOOP_ANSWER_S)
            async with AsyncServiceClient(bound[0]) as client:
                assert await client.ping(timeout=LOOP_ANSWER_S)
                await asyncio.wait_for(service.stop(), LOOP_ANSWER_S)
                with pytest.raises(ServiceClosed):
                    await client.ping(timeout=LOOP_ANSWER_S)
            assert service.addresses == []

        asyncio.run(scenario())

    def test_a_connection_first_served_after_stop_is_closed(self):
        """Accepted just before ``stop`` closed the listeners but first
        scheduled after it closed the comms: the handler closes it
        rather than parking in ``recv()`` under a stopped service."""
        async def scenario():
            service = RoutingService()
            listener = await comms.listen("inproc://lane-late",
                                          service._handle_comm)
            await service.stop()
            try:
                comm = await comms.connect(listener.address)
                with pytest.raises(comms.CommClosedError):
                    await asyncio.wait_for(comm.recv(), LOOP_ANSWER_S)
            finally:
                await listener.stop()

        asyncio.run(scenario())
