"""Typed requests: the one wire round-trip every message class shares,
typed rejection of malformed fields, coalescing identity and
facade/executor identity."""

import asyncio
import dataclasses
import json
import re

import numpy as np
import pytest

from repro import api
from repro.network.topologies import ring, torus
from repro.resilience import FaultEvent, FaultSchedule
from repro.service import AsyncServiceClient, serve_in_thread
from repro.service.protocol import (
    ServiceBadRequest,
    decode_frame,
    encode_frame,
    get_codec,
)
from repro.service.requests import (
    OPS,
    SCHEMA_VERSION,
    AnalyzeRequest,
    CampaignRequest,
    RerouteRequest,
    RouteRequest,
    RouteResponse,
    TransitionRequest,
    execute_route,
)


@pytest.fixture
def net():
    return ring(6, 1)


def _switch_link(net):
    """Endpoint names of one switch-to-switch link of ``net``."""
    for c in range(net.n_channels):
        u, v = net.channel_src[c], net.channel_dst[c]
        if net.is_switch(u) and net.is_switch(v):
            return (net.node_names[u], net.node_names[v])
    raise AssertionError("no switch-switch link in the fixture net")


def _schedule(net):
    return FaultSchedule(events=[
        FaultEvent(time=1.0, links=(_switch_link(net),))])


@pytest.fixture(scope="module")
def messages():
    """One instance of each of the ten message classes, every optional
    field set at least once, responses computed by the executors."""
    small = torus([3, 3], 1)
    requests = {
        "route": RouteRequest(
            topology=small, algorithm="nue", max_vls=2,
            config={"partitioner": "random", "verify_acyclic": False},
            dests=[0, 2, 5], seed=9, workers=1),
        "analyze": AnalyzeRequest(
            route=RouteRequest(topology=small, max_vls=2, seed=3)),
        "campaign": CampaignRequest(
            topology=small, schedule=_schedule(small), max_vls=2,
            seed=4, strategy="exact", timeout_s=30, workers=1),
        "reroute": RerouteRequest(
            topology=small, failed_links=[_switch_link(small)],
            max_vls=2, seed=3),
        "transition": TransitionRequest(
            topology=small, algorithm="nue", max_vls=2, seed=3,
            from_topology=small, from_algorithm="updn", from_max_vls=1,
            from_config={"root": 0}, from_seed=1,
            from_tables=execute_route(RouteRequest(
                topology=small, algorithm="updn", seed=1)),
            strategy="auto", workers=1),
    }
    out = {}
    for op, request in requests.items():
        request_cls, response_cls, executor = OPS[op]
        out[request_cls] = request
        out[response_cls] = executor(request)
    assert len(out) == 10
    return out


MESSAGE_CLASSES = [cls for entry in OPS.values() for cls in entry[:2]]
REQUEST_CLASSES = [entry[0] for entry in OPS.values()]


def _assert_same(got, want):
    """Field-for-field equality; tables bit-identical incl. dtype."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(b):
            _assert_same(a, b)
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, f.name


def _tables_in(wire):
    """Every ``next_channel``/``vl`` value anywhere in a wire dict."""
    found = []
    for key, value in wire.items():
        if key in ("next_channel", "vl"):
            found.append(value)
        elif isinstance(value, dict):
            found.extend(_tables_in(value))
    return found


class TestWireRoundTrip:
    """``from_dict(decode(encode(to_dict())))`` is the identity for
    every message class, over both table encodings."""

    @pytest.mark.parametrize("tables", ["json", "binary"])
    @pytest.mark.parametrize("cls", MESSAGE_CLASSES,
                             ids=lambda c: c.__name__)
    def test_round_trip(self, messages, cls, tables):
        obj = messages[cls]
        wire = obj.to_dict(tables=tables)
        carried = _tables_in(wire)
        if tables == "binary":
            assert all(isinstance(t, np.ndarray) for t in carried)
        else:
            assert all(isinstance(t, list) for t in carried)
            json.dumps(wire)  # fully JSON-serialisable as is
        frame = encode_frame(wire, get_codec("json"))
        binary_frame = tables == "binary" and bool(carried)
        assert frame[:1] == (b"B" if binary_frame else b"J")
        back = cls.from_dict(decode_frame(frame))
        _assert_same(back, obj)
        assert back.schema_version == SCHEMA_VERSION

    def test_tables_are_arrays_with_fixed_dtypes(self, messages):
        response = messages[RouteResponse]
        for tables in ("json", "binary"):
            back = RouteResponse.from_dict(response.to_dict(tables))
            assert back.next_channel.dtype == np.int32
            assert back.vl.dtype == np.int8
            assert back.next_channel_array() is back.next_channel
            assert back.vl_array() is back.vl

    def test_unknown_tables_mode_rejected(self, messages):
        with pytest.raises(ValueError, match="tables"):
            messages[RouteResponse].to_dict(tables="base85")


class TestOutsideTables:
    """What a JSON peer may send in a table field, and what not."""

    def _wire(self, messages, vl):
        wire = messages[RouteResponse].to_dict(tables="json")
        wire["vl"] = vl
        return wire

    def test_wider_integer_array_is_converted(self, messages):
        wide = messages[RouteResponse].vl.astype(np.int64)
        back = RouteResponse.from_dict(self._wire(messages, wide))
        assert back.vl.dtype == np.int8
        np.testing.assert_array_equal(back.vl, wide)

    @pytest.mark.parametrize("vl,match", [
        ([[0, 1], [0]], "rectangular"),
        ([0, 1, 0], "rectangular"),
        ([[0.5, 1.0]], "integer"),
        ([[True, False]], "integer"),
        ([[0, 400]], "exceed int8"),
        ("0 1 0", "expected a table"),
        ({"encoding": "base85", "data": "xyz"},
         "unknown table encoding 'base85'"),
    ])
    def test_malformed_table_rejected(self, messages, vl, match):
        with pytest.raises(ServiceBadRequest, match=match):
            RouteResponse.from_dict(self._wire(messages, vl))


#: (field, bad value): run against every request class that has the
#: field — each must answer ``ServiceBadRequest`` naming the field
MALFORMED_FIELDS = [
    ("topology", None),
    ("topology", {"nodes": 6}),
    ("algorithm", 7),
    ("max_vls", None),
    ("max_vls", "3"),
    ("max_vls", True),
    ("max_vls", 2.0),
    ("config", [1]),
    ("config", {"a": [1]}),
    ("config", {"a": {"b": 1}}),
    ("dests", 5),
    ("dests", ["0"]),
    ("seed", "x"),
    ("workers", 1.5),
    ("schema_version", True),
    ("schema_version", 1),
    ("schema_version", 99),
    ("schema_version", "two"),
    ("schedule", [1]),
    ("strategy", 7),
    ("timeout_s", "soon"),
    ("failed_links", "s0-s1"),
    ("failed_links", [["s0"]]),
    ("failed_links", [["s0", 1]]),
    ("from_topology", 3),
    ("from_algorithm", 3),
    ("from_max_vls", "1"),
    ("from_config", [1]),
    ("from_seed", 0.5),
    ("from_tables", [1]),
    ("from_tables", {"n_vls": 1}),
    ("route", 5),
    ("route", {"topology": "x", "dests": 5}),
]


def _malformed_payloads(messages):
    """Every ``(op, field, payload)`` the table above yields."""
    for op, (request_cls, _response_cls, _executor) in OPS.items():
        valid = messages[request_cls].to_dict()
        for name, bad in MALFORMED_FIELDS:
            if name in valid:
                yield op, name, dict(valid, **{name: bad})
        required = [f.name for f in dataclasses.fields(request_cls)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        for name in required:
            yield op, name, {k: v for k, v in valid.items() if k != name}


class TestMalformedFields:
    @pytest.mark.parametrize("cls", REQUEST_CLASSES,
                             ids=lambda c: c.__name__)
    def test_every_request_class_rejects_typed(self, messages, cls):
        op = next(op for op, entry in OPS.items() if entry[0] is cls)
        cases = [c for c in _malformed_payloads(messages) if c[0] == op]
        assert len(cases) > 4
        for _op, name, payload in cases:
            with pytest.raises(ServiceBadRequest) as err:
                cls.from_dict(payload)
            if isinstance(payload.get(name), dict) and \
                    name in ("route", "from_tables"):
                # a nested message reports under its own class name
                assert re.match(r"Route(Request|Response)\.\w+",
                                str(err.value))
            else:
                assert f"{cls.__name__}.{name}" in str(err.value)

    def test_error_names_class_field_and_types(self, net):
        text = RouteRequest(topology=net).topology
        with pytest.raises(
                ServiceBadRequest,
                match=r"RouteRequest\.dests: expected a list of int, "
                      r"got int"):
            RouteRequest.from_dict({"topology": text, "dests": 5})
        with pytest.raises(
                ServiceBadRequest,
                match=r"RouteRequest\.max_vls: expected int, got "
                      r"NoneType"):
            RouteRequest.from_dict({"topology": text, "max_vls": None})
        with pytest.raises(ServiceBadRequest,
                           match=r"RouteResponse\.algorithm"):
            RouteResponse.from_dict({"n_vls": 1})
        with pytest.raises(ServiceBadRequest, match="topofile text"):
            RouteRequest.from_dict({"topology": {"nodes": 6}})
        with pytest.raises(ServiceBadRequest, match="expected dict"):
            RouteRequest.from_dict([text])

    def test_daemon_answers_bad_request_and_keeps_serving(self, messages):
        cases = list(_malformed_payloads(messages))
        cases.append(("route", "payload", [1]))
        with serve_in_thread(["inproc://svc-malformed"]) as (_s, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as client:
                    for op, _name, payload in cases:
                        with pytest.raises(ServiceBadRequest):
                            await client.call(op, payload)
                    assert await client.ping() is True
                    good = await client.route(messages[RouteRequest])
                    np.testing.assert_array_equal(
                        good.next_channel,
                        messages[RouteResponse].next_channel)

            asyncio.run(scenario())


class TestRouteRequest:
    def test_network_becomes_topofile_text(self, net):
        request = RouteRequest(topology=net)
        assert isinstance(request.topology, str)
        rebuilt = request.network()
        assert rebuilt.n_nodes == net.n_nodes
        assert rebuilt.node_names == net.node_names

    def test_workers_excluded_from_coalesce_key(self, net):
        a = RouteRequest(topology=net, seed=1, workers=None)
        b = RouteRequest(topology=net, seed=1, workers=4)
        assert a.coalesce_key("fp") == b.coalesce_key("fp")
        c = RouteRequest(topology=net, seed=2)
        assert a.coalesce_key("fp") != c.coalesce_key("fp")

    def test_config_order_does_not_change_identity(self, net):
        a = RouteRequest(topology=net, config={"a": 1, "b": 2})
        b = RouteRequest(topology=net, config={"b": 2, "a": 1})
        assert a.coalesce_key("fp") == b.coalesce_key("fp")

    def test_analyze_coalesces_with_inner_route(self, net):
        route = RouteRequest(topology=net, seed=3)
        assert AnalyzeRequest(route=route).coalesce_key("fp") == \
            route.coalesce_key("fp")


class TestRouteResponse:
    def test_result_rebuilds_validatable_routing(self, net):
        response = execute_route(RouteRequest(topology=net, max_vls=2,
                                              seed=0))
        result = response.result(net)
        api.validate_routing(result)
        assert result.algorithm == "nue"
        assert result.n_vls == response.n_vls

    def test_response_outlives_the_shm_table(self, net):
        from repro.engine import tablestore

        response = execute_route(RouteRequest(topology=net,
                                              algorithm="nue",
                                              max_vls=2, seed=3,
                                              workers=2))
        # the route's table goes with its result: the response must
        # stay readable with no live segment behind it
        assert not tablestore.live_tables()
        nxt = response.next_channel_array()
        assert nxt.shape[0] == net.n_nodes
        assert int(nxt[0, 0]) == nxt[0, 0]


class TestFacadeExecutorIdentity:
    def test_facade_equals_direct_algorithm(self, net):
        request = RouteRequest(topology=net, algorithm="nue", max_vls=2,
                               seed=5)
        via_facade = api.route(request)
        direct = api.make_algorithm("nue", max_vls=2).route(
            request.network(), seed=5)
        np.testing.assert_array_equal(via_facade.next_channel_array(),
                                      direct.next_channel)
        np.testing.assert_array_equal(via_facade.vl_array(), direct.vl)

    def test_analyze_accepts_bare_route_request(self, net):
        request = RouteRequest(topology=net, max_vls=2, seed=5)
        report = api.analyze(request)  # auto-wrapped in AnalyzeRequest
        assert report.deadlock_free is True
        assert report.required_vcs <= 2
        assert set(report.gamma) == {"minimum", "maximum", "average",
                                     "stddev"}
        assert report.path_length["n_routes"] > 0

    def test_facade_takes_the_typed_request_only(self, net):
        with pytest.raises(TypeError):
            api.route(topology=net)
        with pytest.raises(TypeError, match="RouteRequest"):
            api.route(42)
        with pytest.raises(TypeError, match="AnalyzeRequest"):
            api.analyze(42)


class TestCampaignRequest:
    def test_schedule_instance_converts_to_dict(self):
        net = torus([3, 3], 1)
        request = CampaignRequest(topology=net, schedule=_schedule(net))
        assert isinstance(request.schedule, dict)
        rebuilt = request.fault_schedule()
        assert len(rebuilt) == 1

    def test_execute_campaign_reports(self, messages):
        response = messages[OPS["campaign"][1]]
        assert response.events_total == 1
        assert response.events_survived == 1
        assert response.final_vls >= 1
        assert response.report["events"]
