"""``repro serve`` as a process, end to end: malformed frames answered
typed over tcp, a good route bit-identical to the facade, then SIGTERM
under load — the caller fails typed, the daemon exits 0 having unlinked
its own segments and reaped its own pool.
"""

import asyncio
import importlib.util
import os
import select
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from digests import result_digest
from shmcheck import shm_leaks

from repro import api
from repro.network.topologies import torus
from repro.service import (
    AsyncServiceClient,
    RouteRequest,
    ServiceAborted,
    ServiceClient,
)
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
START_S = 60.0
ANSWER_S = 30.0
EXIT_S = 120.0

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="walks /proc for the daemon's group")


def _group_members(pgid):
    """Live (non-zombie) pids of process group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != b"Z":
            found.append(int(entry))
    return found


def _load_ci_check():
    spec = importlib.util.spec_from_file_location(
        "check_shm_clean", ROOT / "scripts" / "check_shm_clean.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CI_CHECK = _load_ci_check()


def _ci_survivors():
    """Pids ``scripts/check_shm_clean.py`` would fail a CI job for."""
    return [pid for pid, _cmdline in CI_CHECK.surviving_processes()]


def _read_address(proc):
    fd = proc.stdout.fileno()
    give_up = time.monotonic() + START_S
    buf = b""
    while b"\n" not in buf:
        ready, _, _ = select.select(
            [fd], [], [], max(0.0, give_up - time.monotonic()))
        chunk = os.read(fd, 4096) if ready else b""
        assert chunk, f"daemon did not report its address: {buf!r}"
        buf += chunk
    line = buf.split(b"\n", 1)[0].decode().strip()
    assert line.startswith("listening on "), line
    return line[len("listening on "):]


def _raw_exchange(address, data):
    """Send ``data`` on a tcp connection of its own; returns the
    daemon's one answer and whether it then closed the connection."""
    host, port = address[len("tcp://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), ANSWER_S) as sock:
        sock.settimeout(ANSWER_S)
        sock.sendall(data)

        def exactly(n):
            got = b""
            while len(got) < n:
                chunk = sock.recv(n - len(got))
                assert chunk, "daemon closed before answering"
                got += chunk
            return got

        header = exactly(5)
        frame = header + exactly(struct.unpack(">I", header[1:])[0])
        return decode_frame(frame), sock.recv(1) == b""


@pytest.fixture
def daemon(tmp_path):
    """A ``repro serve --workers 2`` child in its own process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    stderr_path = tmp_path / "daemon.stderr"
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bind", "tcp://127.0.0.1:0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=stderr, env=env,
            start_new_session=True)
    try:
        yield proc, _read_address(proc), stderr_path
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        proc.stdout.close()


def test_malformed_frames_a_good_route_then_sigterm_under_load(daemon):
    proc, address, stderr_path = daemon

    # three malformed frames: each answered typed on its own connection
    for data, expect in [
            (b"X\x00\x00\x00\x02{}", "codec byte"),
            (b"J" + struct.pack(">I", MAX_FRAME_BYTES + 1), "limit"),
            (b"J\x00\x00\x00\x05{nope", "JSON")]:
        answer, closed = _raw_exchange(address, data)
        assert answer["id"] is None and answer["ok"] is False
        assert answer["error"]["type"] == "protocol"
        assert expect in answer["error"]["message"]
        assert closed

    # the daemon is unharmed: a good route equals the facade's, bit for
    # bit (nue at two layers goes through the pool)
    small = RouteRequest(topology=torus([3, 3], 1), algorithm="nue",
                         max_vls=2, seed=5)
    with ServiceClient(address) as client:
        served = client.route(small, timeout=ANSWER_S)
        assert client.status()["counters"]["service.protocol_errors"] == 3
    assert result_digest(served) == result_digest(api.route(small))
    group = _group_members(proc.pid)
    assert len(group) > 1  # the pool is up
    # ... and the CI process check sees the daemon and its workers
    assert proc.pid in _ci_survivors()
    assert len(set(_ci_survivors()) & set(group)) > 1

    # SIGTERM while a long route is on the lane
    big = RouteRequest(topology=torus([6, 6, 6], 1), algorithm="nue",
                       max_vls=2, seed=5)

    async def scenario():
        async with AsyncServiceClient(address) as caller, \
                AsyncServiceClient(address) as probe:
            inflight = asyncio.ensure_future(caller.route(big))
            deadline = time.monotonic() + ANSWER_S
            while (await probe.status(timeout=ANSWER_S)
                   )["service"]["inflight"] < 1:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.005)
            os.kill(proc.pid, signal.SIGTERM)
            with pytest.raises(ServiceAborted, match="stopping"):
                await asyncio.wait_for(inflight, EXIT_S)

    asyncio.run(scenario())

    assert proc.wait(timeout=EXIT_S) == 0
    deadline = time.monotonic() + ANSWER_S
    while _group_members(proc.pid):  # the resource tracker goes last
        assert time.monotonic() < deadline, _group_members(proc.pid)
        time.sleep(0.01)
    stderr = stderr_path.read_text()
    assert "Traceback" not in stderr, stderr
    assert "resource_tracker" not in stderr, stderr
    assert shm_leaks(proc.pid) == []
    assert not set(_ci_survivors()) & set(group)
