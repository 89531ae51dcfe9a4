"""Large-frame transport: bounded copies, bounded slices, whole frames.

A table frame crosses a socket in slices of at most
:data:`~repro.service.tcp.SLICE_BYTES` and lands in one preallocated
buffer; these tests pin what that must not change — frames larger than
a slice round-trip bit-equal over tcp and unix, restored arrays stay
read-only, a peer that dies mid-payload surfaces as
:class:`CommClosedError` in bounded time, concurrent or cancelled
senders never put half a frame on the wire — and what it buys: one
payload copy at encode.
"""

import asyncio
import socket
import struct
import tracemalloc

import numpy as np
import pytest

from repro.service import protocol
from repro.service.comm import CommClosedError, connect, listen
from repro.service.protocol import decode_frame, encode_frame
from repro.service.tcp import SLICE_BYTES

#: generous bound for a loopback exchange that should take milliseconds
TIMEOUT_S = 20.0


def _table_msg(n_nodes=1024, n_dests=700, seed=0):
    rng = np.random.default_rng(seed)
    return {"id": seed, "ok": True, "result": {
        "next_channel": rng.integers(-1, 1 << 20, (n_nodes, n_dests),
                                     dtype=np.int32),
        "vl": rng.integers(0, 8, (n_nodes, n_dests), dtype=np.int8),
    }}


def _assert_same_tables(got, want):
    for key in ("next_channel", "vl"):
        arr = got["result"][key]
        np.testing.assert_array_equal(arr, want["result"][key])
        assert arr.dtype == want["result"][key].dtype
        assert arr.flags.writeable is False
    assert got["id"] == want["id"]


@pytest.fixture(params=["tcp", "unix"])
def address(request, tmp_path):
    if request.param == "tcp":
        return "tcp://127.0.0.1:0"
    return f"unix://{tmp_path}/frames.sock"


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT_S))


def test_large_frames_round_trip_bit_equal_and_read_only(address):
    msgs = [_table_msg(seed=s) for s in range(2)]
    assert len(encode_frame(msgs[0])) > 2 * SLICE_BYTES
    server_seen = []

    async def echo(comm):
        try:
            while True:
                msg = await comm.recv()
                server_seen.append(msg)
                await comm.send(msg)
        except CommClosedError:
            pass
        finally:
            await comm.close()

    async def main():
        listener = await listen(address, echo)
        comm = await connect(listener.address)
        try:
            for msg in msgs:
                await comm.send(msg)
                _assert_same_tables(await comm.recv(), msg)
        finally:
            await comm.close()
            await listener.stop()

    _run(main())
    for got, want in zip(server_seen, msgs):
        _assert_same_tables(got, want)


def _odd_msg(n_nodes):
    """Buffers of odd byte lengths ahead of wider dtypes: without the
    padding every buffer after the first would start unaligned."""
    rng = np.random.default_rng(n_nodes)
    return {"id": n_nodes, "ok": True, "result": {
        "odd": rng.integers(0, 8, 21, dtype=np.int8),
        "next_channel": rng.integers(-1, 1 << 20, (n_nodes, 333),
                                     dtype=np.int32),
        "w": rng.random(5),
    }}


def _assert_aligned(msg):
    for arr in msg["result"].values():
        assert arr.ctypes.data % 8 == 0, arr.dtype
        assert arr.flags.aligned and not arr.flags.writeable


def test_received_arrays_are_aligned(address):
    """Each buffer starts at an 8-byte payload offset, and both sides
    read a payload into a buffer of its own: small frames (one
    ``readexactly``) and sliced large ones restore aligned arrays."""
    msgs = [_odd_msg(4), _odd_msg(4096)]
    assert len(encode_frame(msgs[1])) > SLICE_BYTES
    server_seen = []

    async def echo(comm):
        try:
            while True:
                msg = await comm.recv()
                server_seen.append(msg)
                await comm.send(msg)
        except CommClosedError:
            pass
        finally:
            await comm.close()

    async def main():
        listener = await listen(address, echo)
        comm = await connect(listener.address)
        try:
            for msg in msgs:
                await comm.send(msg)
                back = await comm.recv()
                _assert_aligned(back)
                for key, arr in msg["result"].items():
                    np.testing.assert_array_equal(back["result"][key], arr)
        finally:
            await comm.close()
            await listener.stop()

    _run(main())
    assert len(server_seen) == 2
    for got in server_seen:
        _assert_aligned(got)


def test_concurrent_senders_never_interleave(address):
    msgs = [_table_msg(n_nodes=512, seed=s) for s in range(4)]
    received = []

    async def sink(comm):
        try:
            while True:
                received.append(await comm.recv())
        except CommClosedError:
            pass
        finally:
            await comm.close()

    async def main():
        listener = await listen(address, sink)
        comm = await connect(listener.address)
        await asyncio.gather(*(comm.send(m) for m in msgs))
        await comm.close()
        while len(received) < len(msgs):
            await asyncio.sleep(0.01)
        await listener.stop()

    _run(main())
    by_id = {m["id"]: m for m in received}
    assert sorted(by_id) == [m["id"] for m in msgs]
    for msg in msgs:
        _assert_same_tables(by_id[msg["id"]], msg)


def test_cancelled_send_still_puts_a_whole_frame_on_the_wire(address):
    big = _table_msg(n_nodes=4096, n_dests=1024, seed=1)  # ~20 MB
    small = {"id": 2, "op": "ping", "payload": {}}
    received = []
    reading = None

    async def lazy(comm):
        await reading.wait()  # leave the frame in flight first
        try:
            while True:
                received.append(await comm.recv())
        except CommClosedError:
            pass
        finally:
            await comm.close()

    async def main():
        nonlocal reading
        reading = asyncio.Event()
        listener = await listen(address, lazy)
        comm = await connect(listener.address)
        sending = asyncio.ensure_future(comm.send(big))
        await asyncio.sleep(0.2)
        assert not sending.done()  # parked in drain() mid-frame
        sending.cancel()
        with pytest.raises(asyncio.CancelledError):
            await sending
        # queued behind the rest of the cancelled frame
        after = asyncio.ensure_future(comm.send(small))
        reading.set()
        await after
        while len(received) < 2:
            await asyncio.sleep(0.01)
        await comm.close()
        await listener.stop()

    _run(main())
    _assert_same_tables(received[0], big)
    assert received[1] == small


def _half_a_table_frame():
    frame = encode_frame(_table_msg(seed=3))
    return frame[:len(frame) // 2]


def test_peer_closing_mid_payload_is_comm_closed(address):
    """Server side: the client dies after half a multi-slice payload."""
    half = _half_a_table_frame()
    outcome = []

    async def handler(comm):
        try:
            await comm.recv()
            outcome.append("message")
        except CommClosedError:
            outcome.append("closed")
        finally:
            await comm.close()

    async def main():
        listener = await listen(address, handler)
        scheme, rest = listener.address.split("://", 1)
        if scheme == "tcp":
            host, port = rest.rsplit(":", 1)
            sock = socket.create_connection((host, int(port)))
        else:
            sock = socket.socket(socket.AF_UNIX)
            sock.connect(rest)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sock.sendall, half)
        sock.close()
        while not outcome:
            await asyncio.sleep(0.01)
        await listener.stop()

    _run(main())
    assert outcome == ["closed"]


def test_client_sees_comm_closed_when_server_dies_mid_payload():
    half = _half_a_table_frame()

    async def main():
        async def on_connect(reader, writer):
            writer.write(half)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        comm = await connect(f"tcp://127.0.0.1:{port}")
        try:
            with pytest.raises(CommClosedError):
                await comm.recv()
            assert comm.closed
        finally:
            await comm.close()
            server.close()
            await server.wait_closed()

    _run(main())


def test_encode_copies_the_payload_once():
    """A 10 MB table frame: the frame itself is the only big buffer."""
    msg = _table_msg(n_nodes=4056, n_dests=512, seed=4)
    tracemalloc.start()
    try:
        frame = encode_frame(msg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frame) > 10_000_000
    assert peak <= 1.1 * len(frame), (peak, len(frame))


def test_decode_is_a_view_of_the_frame():
    msg = _table_msg(n_nodes=256, n_dests=64, seed=5)
    frame = encode_frame(msg)
    for buf in (frame, bytearray(frame), memoryview(frame)):
        back = decode_frame(buf)
        _assert_same_tables(back, msg)
        base = back["result"]["next_channel"]
        assert np.shares_memory(base, np.frombuffer(buf, dtype=np.uint8))


def test_frame_limit_counts_every_part(monkeypatch):
    msg = _table_msg(n_nodes=64, n_dests=64, seed=6)
    size = len(encode_frame(msg)) - protocol.HEADER_SIZE
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", size - 1)
    with pytest.raises(protocol.ProtocolError, match="frame limit"):
        encode_frame(msg)
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", size)
    (length,) = struct.unpack(">I", encode_frame(msg)[1:5])
    assert length == size
