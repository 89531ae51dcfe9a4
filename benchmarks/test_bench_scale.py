"""Scale guards: DOR tables at Table-1-style scale.

Three claims, proved on generated tori with the cheap deterministic
DOR producer (the only engine that stays tractable in pure Python at
thousands of switches):

* **Bounded memory** — a ~2k-switch sweep (route + reachability audit
  on the fabric's pool) stays under a documented peak-RSS budget, with
  per-stage accounting measured in a fresh subprocess via
  ``resource.getrusage`` so neither pytest nor sibling stages pollute
  the number.
* **In-process routing** — DOR's columns are a few array passes, so
  its route spawns no pool and creates no table segment at any
  ``workers``.  The table store's zero-copy claims (columns written in
  place, the audit re-attaching the segment) are pinned in tier-1 on
  a router that still fans out
  (``tests/engine/test_tablestore.py::TestZeroCopyFanOut``).
* **Bit-identity** — the tables at ``workers`` 1 and 2 hash to the
  same golden blake2b digest, pinned as a constant so drift in either
  fails loudly.

A fourth guard pins the metrics layer's table walk: validating the 2k
proxy's 2.1 M pairs and proving its dependency graph cyclic must stay
column-blocked (tracemalloc peak under ``WALK_BUDGET_2K_MB``).

The 10k-switch end-to-end sweep (10164 switches, 128 destination
columns) runs the same stage accounting; with DOR's columns computed
as array passes it takes seconds, so CI's scale-smoke job runs both it
and the 2k proxy on every push.  Tier-1 owns the 2k digest too
(``tests/routing/test_dor_oracle.py``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import fabric

#: the fan-out stage's worker count (the other stage runs serial)
WORKERS = 2

#: the 2k proxy: 13x13x12 torus, 2028 switches / 4056 nodes, sweep
#: capped at 512 destination columns (a ~10 MB int32+int8 table)
DIMS_2K = (13, 13, 12)
DESTS_2K = 512
#: documented peak-RSS budget for one 2k-proxy stage (route + audit,
#: parent + pool workers).  See docs/engine.md "Scaling to 10k
#: switches" for the accounting.
RSS_BUDGET_2K_MB = 512

#: the 10k target: 22x22x21 torus, 10164 switches / 20328 nodes,
#: sweep capped at 128 destination columns
DIMS_10K = (22, 22, 21)
DESTS_10K = 128
RSS_BUDGET_10K_MB = 1536

#: golden table digests (blake2b-128 over LE int32 next_channel bytes
#: then int8 vl bytes) — DOR is deterministic integer arithmetic, so
#: these pin bit-identity across worker counts and PRs
GOLDEN_2K = "5e4208bbdf4ec157c05cf82d856ed476"
GOLDEN_10K = "f85324157f0b6a92efc46a6ab54c07d5"

SEED = 7

_STAGE_SCRIPT = r"""
import json, resource, sys
import hashlib
import numpy as np
from repro import obs
from repro.engine import fabric
from repro.network.topologies.torus import torus
from repro.resilience.engine import _reachable_pairs
from repro.routing.dor import DORRouting

dims, n_dests, workers, seed = json.loads(sys.argv[1])
obs.enable(obs.MemorySink(keep_events=False))
net = torus(dims, 1)
dests = list(net.terminals)[:n_dests]
res = DORRouting(workers=workers).route(net, seed=seed, dests=dests)
route_counters = dict(obs.counters())
reachable, total = _reachable_pairs(res, workers=workers)
h = hashlib.blake2b(digest_size=16)
h.update(np.ascontiguousarray(res.next_channel, dtype=np.int32).tobytes())
h.update(np.ascontiguousarray(res.vl, dtype=np.int8).tobytes())
res.release()
fabric.shutdown()  # reap pool workers so RUSAGE_CHILDREN is complete
counters = {k: v for k, v in obs.counters().items()
            if k.startswith(("fabric.", "engine."))}
maxrss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(json.dumps({
    "digest": h.hexdigest(),
    "reachable": reachable,
    "total": total,
    "maxrss_mb": maxrss_kb // 1024,
    "counters": counters,
    "route_counters": {k: v for k, v in route_counters.items()
                       if k.startswith(("fabric.", "engine."))},
}))
"""


def _run_stage(dims, n_dests, workers):
    """One sweep stage in a fresh subprocess; returns its JSON record.

    A subprocess per stage is what makes ``ru_maxrss`` trustworthy:
    the high-water mark starts from a cold interpreter instead of
    whatever pytest already mapped.
    """
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    args = json.dumps([list(dims), n_dests, workers, SEED])
    proc = subprocess.run(
        [sys.executable, "-c", _STAGE_SCRIPT, args],
        env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", autouse=True)
def _fresh_fabric():
    """Each module run starts and ends with a cold fabric."""
    fabric.shutdown()
    yield
    fabric.shutdown()


def _sweep_stages(benchmark, dims, n_dests, golden, budget_mb, workers):
    shm = _run_stage(dims, n_dests, workers)
    serial = _run_stage(dims, n_dests, 1)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "switches": int(np.prod(dims)),
        "dests": n_dests,
        "maxrss_shm_mb": shm["maxrss_mb"],
        "maxrss_serial_mb": serial["maxrss_mb"],
        "digest": shm["digest"],
    })

    # DOR routes in-process at any worker count: no pool, no segment
    for stage in (shm, serial):
        assert stage["route_counters"].get("fabric.pool_spawns", 0) == 0
        assert stage["route_counters"].get("fabric.table_creates", 0) == 0
    # the audit saw fully-populated tables
    assert shm["reachable"] == shm["total"] > 0

    # bit-identity: workers 2 == workers 1 == golden
    assert shm["digest"] == serial["digest"] == golden

    # bounded memory
    assert shm["maxrss_mb"] <= budget_mb, (
        f"{dims} sweep peaked at {shm['maxrss_mb']} MB "
        f"(budget {budget_mb} MB)"
    )


def test_bench_scale_2k_sweep(benchmark):
    """2k-switch proxy: RSS budget, no pool, golden digest."""
    _sweep_stages(benchmark, DIMS_2K, DESTS_2K, GOLDEN_2K,
                  RSS_BUDGET_2K_MB, WORKERS)


#: tracemalloc budget for walking every pair of the 2k proxy's table.
#: The walk holds one block of columns' per-hop records at a time
#: (measured peak ~25 MB); materialising pairs x hops for the whole
#: table would be ~200 MB.
WALK_BUDGET_2K_MB = 128


def test_bench_scale_2k_table_walk_memory():
    """validate + Theorem-1 check over all 2.1 M pairs stay column-blocked."""
    import tracemalloc

    from repro.metrics import is_deadlock_free, validate_routing
    from repro.network.topologies.torus import torus
    from repro.routing.dor import DORRouting

    net = torus(DIMS_2K, 1)
    res = DORRouting(workers=1).route(
        net, seed=SEED, dests=list(net.terminals)[:DESTS_2K])
    assert net.n_nodes * len(res.dests) > 2_000_000
    tracemalloc.start()
    try:
        validate_routing(res, check_deadlock=False)
        assert not is_deadlock_free(res)  # plain DOR on a torus
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < WALK_BUDGET_2K_MB, (
        f"table walk peaked at {peak_mb:.0f} MB "
        f"(budget {WALK_BUDGET_2K_MB} MB)"
    )


def test_bench_scale_10k_sweep(benchmark):
    """The headline 10k-switch sweep: RSS budget, golden digest."""
    _sweep_stages(benchmark, DIMS_10K, DESTS_10K, GOLDEN_10K,
                  RSS_BUDGET_10K_MB, WORKERS)
