"""A malformed frame ends typed, on both sides of the wire.

For arbitrary bytes ``decode_header`` / ``decode_frame`` /
``Codec.loads`` raise nothing but ``ProtocolError`` and
``WireMessage.from_dict`` nothing but ``ServiceBadRequest``; a daemon
fed those bytes answers typed, drops that one connection and keeps
serving; a client fed them fails its pending calls at once.
"""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.network.topologies import ring
from repro.service import AsyncServiceClient, serve_in_thread
from repro.service import comm as comms
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    ProtocolError,
    ServiceBadRequest,
    decode_frame,
    decode_header,
    encode_frame,
    get_codec,
)
from repro.service.requests import (
    OPS,
    AnalyzeRequest,
    CampaignRequest,
    RerouteRequest,
    RouteRequest,
    TransitionRequest,
    execute_route,
)

#: bound on every answer of this module (all are loop-side, no compute)
ANSWER_S = 10.0

NET = ring(4, 1)
GOOD_J = encode_frame({"id": 1, "op": "ping", "payload": {}})
GOOD_B = encode_frame({
    "id": 2, "op": "route",
    "payload": {"next_channel": np.arange(6, dtype=np.int32).reshape(2, 3),
                "vl": np.zeros((2, 3), dtype=np.int8)}})
assert GOOD_J[:1] == b"J" and GOOD_B[:1] == b"B"


def _frame(byte, payload):
    return byte + struct.pack(">I", len(payload)) + payload


def _binary_payload(message, buffers, version=WIRE_VERSION):
    """A ``B`` payload by hand: version byte, and each buffer after its
    length and the zero padding to an 8-byte payload offset."""
    parts = [b"J", bytes((version,)), struct.pack(">I", len(buffers))]
    offset = 6
    for buf in buffers:
        pad = -(offset + 4) % 8
        parts += [struct.pack(">I", len(buf)), bytes(pad), buf]
        offset += 4 + pad + len(buf)
    return b"".join(parts) + json.dumps(
        message, separators=(",", ":")).encode()


def _unpadded_payload(message, buffers):
    """The version-2 ``B`` payload: no version byte, no padding."""
    parts = [b"J", struct.pack(">I", len(buffers))]
    for buf in buffers:
        parts += [struct.pack(">I", len(buf)), buf]
    return b"".join(parts) + json.dumps(message).encode()


# -- strategies -----------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def mangled_frames(draw):
    """A good ``J`` or ``B`` frame truncated, bit-flipped, relabelled
    with a wrong (possibly over-limit) length, or given the other
    codec byte."""
    frame = bytearray(draw(st.sampled_from([GOOD_J, GOOD_B])))
    how = draw(st.sampled_from(["truncate", "flip", "length", "byte"]))
    if how == "truncate":
        return bytes(frame[:draw(st.integers(0, len(frame) - 1))])
    if how == "flip":
        for _ in range(draw(st.integers(1, 4))):
            frame[draw(st.integers(0, len(frame) - 1))] ^= \
                1 << draw(st.integers(0, 7))
    elif how == "length":
        frame[1:5] = struct.pack(">I", draw(st.one_of(
            st.integers(0, 2 * len(frame)),
            st.integers(MAX_FRAME_BYTES - 1, 2 ** 32 - 1))))
    else:
        frame[0] = draw(st.integers(0, 255))
    return bytes(frame)


random_frames = st.one_of(
    st.binary(max_size=64),
    st.builds(_frame, st.sampled_from([b"J", b"B"]),
              st.binary(max_size=64)))

#: ``B`` frames whose placeholder names any dtype / shape / buffer
placeholder_frames = st.builds(
    lambda dtype, shape, index, buffers, extra: _frame(
        b"B", _binary_payload(
            {"t": dict({"__ndarray__": index, "dtype": dtype,
                        "shape": shape}, **extra)}, buffers)),
    dtype=st.sampled_from(["<i4", "|i1", "<f8", "O", "V0", "S0", "i4,i4",
                           "M8[ns]", "nope", "", 4, None, ["<i4"]])
    | st.text(max_size=4),
    shape=st.lists(st.integers(-2, 5), max_size=3) | json_values,
    index=st.integers(-1, 3) | st.booleans(),
    buffers=st.lists(st.binary(max_size=24), max_size=3),
    extra=st.just({}) | st.dictionaries(st.text(max_size=3), st.none(),
                                        max_size=1))

any_frame = st.one_of(mangled_frames(), random_frames, placeholder_frames)


def _valid_requests():
    route = RouteRequest(topology=NET, algorithm="updn", max_vls=1, seed=1)
    return {
        "route": route,
        "analyze": AnalyzeRequest(route=route),
        "campaign": CampaignRequest(topology=NET, schedule={"events": []}),
        "reroute": RerouteRequest(topology=NET, failed_links=[]),
        "transition": TransitionRequest(
            topology=NET, algorithm="updn", from_algorithm="updn",
            from_tables=execute_route(route)),
    }


VALID = {op: req.to_dict() for op, req in _valid_requests().items()}
assert set(VALID) == set(OPS)


@st.composite
def mutated_requests(draw):
    """``(op, dict)``: a valid request dict with up to three fields
    (top-level or inside a nested message) replaced by arbitrary JSON,
    deleted, or joined by an unknown key."""
    op = draw(st.sampled_from(sorted(VALID)))
    data = json.loads(json.dumps(VALID[op]))
    for _ in range(draw(st.integers(1, 3))):
        target = data
        nested = [k for k, v in data.items() if isinstance(v, dict)]
        if nested and draw(st.booleans()):
            target = data[draw(st.sampled_from(nested))]
        key = draw(st.sampled_from(sorted(target)) | st.text(max_size=4)) \
            if target else draw(st.text(max_size=4))
        if draw(st.booleans()) and key in target:
            del target[key]
        else:
            target[key] = draw(json_values)
    return op, data


# -- the decoders ---------------------------------------------------------------

MALFORMED = {
    "unknown codec byte": _frame(b"X", b"{}"),
    "over-limit length": b"J" + struct.pack(">I", MAX_FRAME_BYTES + 1),
    "invalid JSON": _frame(b"J", b"{nope"),
    "invalid UTF-8": _frame(b"J", b'{"a": "\xff\xfe"}'),
    "nesting beyond the stack": _frame(b"J", b"[" * 100_000),
    "bad dtype": _frame(b"B", _binary_payload(
        {"__ndarray__": 0, "dtype": "nope", "shape": [1]}, [b"abcd"])),
    "dtype not text": _frame(b"B", _binary_payload(
        {"__ndarray__": 0, "dtype": 4, "shape": [1]}, [b"abcd"])),
    "bad shape": _frame(b"B", _binary_payload(
        {"__ndarray__": 0, "dtype": "<i4", "shape": [3, 3]}, [b"abcd"])),
    "shape not ints": _frame(b"B", _binary_payload(
        {"__ndarray__": 0, "dtype": "<i4", "shape": [None]}, [b"abcd"])),
    "bad buffer size": _frame(b"B", _binary_payload(
        {"__ndarray__": 0, "dtype": "<i4", "shape": [1]}, [b"abc"])),
    "deep binary message": _frame(b"B", _binary_payload(
        json.loads("[" * 600 + "]" * 600), [])),
    "version-2 binary layout": _frame(b"B", _unpadded_payload(
        {"__ndarray__": 0, "dtype": "<i4", "shape": [1]}, [b"abcd"])),
    "unknown binary version": _frame(b"B", _binary_payload(
        {"__ndarray__": 0, "dtype": "<i4", "shape": [1]}, [b"abcd"],
        version=WIRE_VERSION + 1)),
}


def test_placeholder_helper_builds_what_the_encoder_does():
    """The hand-built payloads above are the real layout, so the
    malformed classes reach the check they are named after."""
    arr = np.arange(3, dtype=np.int32)
    frame = encode_frame({"t": arr})
    assert frame[5:] == _binary_payload(
        {"t": {"__ndarray__": 0, "dtype": "<i4", "shape": [3]}},
        [arr.tobytes()])


@pytest.mark.parametrize("version, text", [
    (None, "binary frame version 0 not supported"),
    (WIRE_VERSION + 1, f"version {WIRE_VERSION + 1} not supported"),
])
def test_other_binary_versions_are_refused_by_name(version, text):
    message = {"__ndarray__": 0, "dtype": "<i4", "shape": [1]}
    payload = _unpadded_payload(message, [b"abcd"]) if version is None \
        else _binary_payload(message, [b"abcd"], version=version)
    with pytest.raises(ProtocolError, match=text):
        decode_frame(_frame(b"B", payload))


class TestDecodersRaiseOnlyProtocolError:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_each_malformed_class(self, name):
        frame = MALFORMED[name]
        with pytest.raises(ProtocolError):
            codec, length = decode_header(frame[:5])
            codec.loads(frame[5:5 + length])
        with pytest.raises(ProtocolError):
            decode_frame(frame)

    @settings(max_examples=300, deadline=None)
    @given(frame=any_frame)
    def test_arbitrary_bytes(self, frame):
        try:
            codec, length = decode_header(frame[:5])
            codec.loads(frame[5:5 + length])
        except ProtocolError:
            pass
        try:
            decode_frame(frame)
        except ProtocolError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(payload=st.binary(max_size=96))
    def test_codec_loads_alone(self, payload):
        for name in ("json", "binary"):
            try:
                get_codec(name).loads(payload)
            except ProtocolError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(case=mutated_requests())
    def test_mutated_request_dicts_raise_only_bad_request(self, case):
        op, data = case
        request_cls = OPS[op][0]
        try:
            request = request_cls.from_dict(data)
        except ServiceBadRequest:
            return
        # accepted: then it is a well-formed message and re-encodes
        assert isinstance(request.to_dict(), dict)


# -- the daemon -----------------------------------------------------------------

async def _feed(address, frame):
    """Put ``frame``'s bytes, as they are, in front of the daemon's
    decoder on a connection of their own; returns its one answer."""
    raw = await comms.connect(address)
    try:
        raw._peer._deliver(frame)
        return await asyncio.wait_for(raw.recv(), ANSWER_S)
    finally:
        await raw.close()


async def _still_serving(address):
    async with AsyncServiceClient(address) as client:
        return await client.ping(timeout=ANSWER_S)


class TestDaemonAnswersTyped:
    def test_protocol_answer_then_only_that_connection_closes(self):
        obs.enable(obs.MemorySink(keep_events=False))
        with serve_in_thread(["inproc://fuzz-one"]) as (_service, bound):
            async def scenario():
                async with AsyncServiceClient(bound[0]) as bystander:
                    raw = await comms.connect(bound[0])
                    raw._peer._deliver(MALFORMED["unknown codec byte"])
                    answer = await asyncio.wait_for(raw.recv(), ANSWER_S)
                    with pytest.raises(comms.CommClosedError):
                        await asyncio.wait_for(raw.recv(), ANSWER_S)
                    # the other connection never noticed
                    assert await bystander.ping(timeout=ANSWER_S)
                    return answer

            answer = asyncio.run(scenario())

        assert answer["id"] is None and answer["ok"] is False
        assert answer["error"]["type"] == "protocol"
        assert "codec byte" in answer["error"]["message"]
        assert dict(obs.counters())["service.protocol_errors"] == 1

    def test_daemon_keeps_serving_whatever_it_is_fed(self):
        obs.enable(obs.MemorySink(keep_events=False))
        with serve_in_thread(["inproc://fuzz-many"]) as (service, bound):
            def fed(frame):
                async def scenario():
                    answer = await _feed(bound[0], frame)
                    assert await _still_serving(bound[0])
                    return answer

                answer = asyncio.run(scenario())
                # a right answer or a typed error, never a crash
                assert isinstance(answer, dict)
                if not answer.get("ok"):
                    assert answer["error"]["type"] in (
                        "protocol", "bad_request"), answer

            for frame in MALFORMED.values():
                fed(frame)
            settings(max_examples=120, deadline=None)(
                given(frame=any_frame)(fed))()
            assert service.stats()["inflight"] == 0

        assert dict(obs.counters())["service.protocol_errors"] >= \
            len(MALFORMED)


# -- the client -----------------------------------------------------------------

class TestClientFailsPendingTyped:
    @pytest.mark.parametrize("name", [
        "unknown codec byte", "invalid JSON", "bad dtype"])
    def test_garbage_from_the_daemon_fails_every_pending_call(self, name):
        """A reader that cannot decode fails what is pending at once,
        instead of leaving each call to its (300 s) timeout."""
        garbage = MALFORMED[name]

        async def scenario():
            async def babbling_daemon(comm):
                await comm.recv()
                await comm.recv()
                comm._peer._deliver(garbage)

            listener = await comms.listen("inproc://fuzz-babble",
                                          babbling_daemon)
            try:
                async with AsyncServiceClient(listener.address) as client:
                    calls = [asyncio.ensure_future(
                        client.call("ping", timeout=ANSWER_S))
                        for _ in range(2)]
                    return await asyncio.gather(*calls,
                                                return_exceptions=True)
            finally:
                await listener.stop()

        outcomes = asyncio.run(scenario())
        assert [type(o) for o in outcomes] == [ProtocolError] * 2

    def test_connection_level_refusal_fails_every_pending_call(self):
        """The daemon's ``id: null`` protocol answer reaches the calls
        it orphaned as the typed error it carries."""
        async def scenario():
            async def refusing_daemon(comm):
                await comm.recv()
                await comm.send({"id": None, "ok": False, "error": {
                    "type": "protocol", "message": "unknown codec byte"}})

            listener = await comms.listen("inproc://fuzz-refuse",
                                          refusing_daemon)
            try:
                async with AsyncServiceClient(listener.address) as client:
                    with pytest.raises(ProtocolError, match="codec byte"):
                        await client.call("ping", timeout=ANSWER_S)
            finally:
                await listener.stop()

        asyncio.run(scenario())

    def test_id_less_bad_request_fails_no_other_call(self):
        """A well-framed message without an id is answered
        ``{"id": null, ... "bad_request"}`` on a connection that stays
        open: the calls in flight on it are none of its business."""
        async def scenario():
            async def daemon(comm):
                ping = await comm.recv()
                await comm.send({"id": None, "ok": False, "error": {
                    "type": "bad_request",
                    "message": "request must be an object"}})
                await comm.send({"id": ping["id"], "ok": True,
                                 "result": {"pong": True}})

            listener = await comms.listen("inproc://fuzz-stray", daemon)
            try:
                async with AsyncServiceClient(listener.address) as client:
                    return await client.call("ping", timeout=ANSWER_S)
            finally:
                await listener.stop()

        assert asyncio.run(scenario()) == {"pong": True}
