"""Service-suite fixtures: clean fabric/cache/registry state and a
blocking test algorithm for concurrency scenarios."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import pytest

from repro.engine import cache
from repro.routing import registry


@pytest.fixture(autouse=True)
def _clean_service_state(clean_fabric):
    """The daemon leans on module-global engine state (fabric exports,
    route cache); never leak either — or a shm segment — across tests."""
    cache.disable_route_cache()
    yield
    cache.disable_route_cache()


@dataclass(frozen=True)
class BlockingConfig:
    """``svc-blocker`` takes no extra configuration."""


class BlockingAlgo:
    """Test algorithm: parks in ``route()`` until released.

    ``started`` fires when a computation actually enters the daemon's
    compute executor; ``release`` lets it proceed (delegating to
    Up*/Down*, so results are real routable tables).  ``calls`` counts
    computations — the coalescing acceptance asserts it stays at 1.
    """

    started = threading.Event()
    release = threading.Event()
    calls = 0
    lock = threading.Lock()

    def __init__(self, max_vls: int = 8, workers=None, config=None) -> None:
        self.max_vls = max_vls
        self.workers = workers

    def route(self, net, dests=None, seed=None):
        cls = type(self)
        with cls.lock:
            cls.calls += 1
        cls.started.set()
        if not cls.release.wait(timeout=60.0):
            raise RuntimeError("BlockingAlgo never released")
        from repro.routing import make_algorithm

        return make_algorithm("updn", max_vls=self.max_vls,
                              workers=self.workers).route(
                                  net, dests=dests, seed=seed)


@pytest.fixture
def blocking_algorithm():
    """Register ``svc-blocker`` for the duration of one test."""
    BlockingAlgo.started.clear()
    BlockingAlgo.release.clear()
    BlockingAlgo.calls = 0
    registry.register("svc-blocker", config_cls=BlockingConfig,
                      description="test-only gated algorithm")(BlockingAlgo)
    yield BlockingAlgo
    registry._REGISTRY.pop("svc-blocker", None)
    BlockingAlgo.release.set()  # never leave an executor thread parked
