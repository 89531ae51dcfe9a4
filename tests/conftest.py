"""Shared fixtures: small networks exercised across the suite."""

from __future__ import annotations

import os
import sys

import pytest

# make this directory importable so test modules can do
# ``from conftest import small_network_zoo`` (or ``from digests import
# result_digest``) regardless of which subdirectory they live in
sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
from shmcheck import shm_leaks

from repro import obs
from repro.engine import fabric
from repro.network.topologies import (
    binary_tree,
    hypercube,
    k_ary_n_tree,
    mesh,
    paper_ring_with_shortcut,
    random_topology,
    ring,
    torus,
)


def route_one(router, dest):
    """One routing step on a layer router: ``(step, used_channel)``.

    ``used_channel[v]`` is the search-orientation channel entering
    ``v`` — the reverse of the forwarding column ``route_batch`` wrote
    (-1 at the destination).
    """
    net = router.net
    block = np.full((net.n_nodes, 1), -1, dtype=np.int32)
    (step,) = router.route_batch([dest], block)
    rev = net.channel_reverse
    return step, [int(rev[c]) if c >= 0 else -1 for c in block[:, 0]]


@pytest.fixture
def clean_fabric():
    """The fabric is module-global state; never leak it — or a shm
    segment — across tests."""
    fabric.shutdown()
    yield
    fabric.shutdown()
    assert shm_leaks() == []


def pytest_sessionfinish(session):
    """Tier-1 itself fails on a leaked segment: after the fabric's own
    shutdown nothing this process created may be left in /dev/shm."""
    fabric.shutdown()
    leaked = shm_leaks()
    if leaked:
        print(f"\nleaked /dev/shm fabric segments: {leaked}",
              file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Observability is module-global state; never leak it across tests."""
    obs.live.stop()
    obs.disable()
    obs.reset()
    yield
    obs.live.stop()
    obs.disable()
    obs.reset()


@pytest.fixture
def fig2a_net():
    """The paper's 5-node ring with shortcut (all switches)."""
    return paper_ring_with_shortcut()


@pytest.fixture
def ring6():
    """6-switch ring, 2 terminals each — smallest deadlock-prone net."""
    return ring(6, 2)


@pytest.fixture
def torus443():
    """The Fig. 1 torus (pristine), 2 terminals per switch for speed."""
    return torus([4, 4, 3], 2)


@pytest.fixture
def mesh33():
    return mesh([3, 3], 1)


@pytest.fixture
def tree42():
    return k_ary_n_tree(4, 2)


@pytest.fixture
def random_small():
    return random_topology(20, 60, 3, seed=5)


def small_network_zoo():
    """(name, builder) pairs for parametrised validity sweeps."""
    return [
        ("fig2a", paper_ring_with_shortcut),
        ("ring5", lambda: ring(5, 1)),
        ("torus333", lambda: torus([3, 3, 3], 2)),
        ("mesh43", lambda: mesh([4, 3], 2)),
        ("hypercube3", lambda: hypercube(3, 2)),
        ("tree32", lambda: k_ary_n_tree(3, 2)),
        ("random15", lambda: random_topology(15, 40, 2, seed=9)),
        ("bintree3", lambda: binary_tree(3)),
    ]
